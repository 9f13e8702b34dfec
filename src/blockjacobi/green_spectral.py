"""Green-matrix columns, eigenpairs below the spectral edge, and decay
verification reports.

Measured resolvent-block norms (or eigenvector component norms) are
compared against the theoretical envelope C * exp(-gamma * (S_max - S_min)).
The envelope constant is existential, so C is fitted on a low-index
calibration range and every remaining index gets a pass/fail verdict.
Finite sections distort the resolvent near the artificial boundary, so the
last 10% of indices are excluded from verdicts, and eigenvectors whose
last block is not numerically small are flagged boundary-suspect.

Comparisons run in log space: measured norms span hundreds of orders of
magnitude (the block solve tracks exponential tails with componentwise
relative accuracy far below 1e-300 * ||G||), and the envelope exponent is
evaluated directly so it never over- or underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (BoundParams, check_pairwise_commutation, gamma_rate,
                     qualified_constant, scalar_envelope, _phi_partial_sums)
from .dense_linalg import (block_tridiag_factor, psd_matfunc, spectral_norm,
                           tridiag_apply, tridiag_eigs_below,
                           tridiag_inverse_iteration, vector_norm)
from .operator_model import Truncation, offdiag_kernel_flags, _require_hermitian

__all__ = [
    "GreenBlockSet",
    "Eigenpair",
    "DecayReport",
    "EmptySpectrumError",
    "green_column",
    "eigenpairs_below",
    "perturbed_truncation",
    "verify_green_decay",
    "verify_eigenvector_decay",
    "verify_commuting_decay",
]

BOUNDARY_SUSPECT_TOL = 1e-6
VERDICT_SLACK = 1e-9
# projection cutoff M of the closed-form constant qualified_C
QUALIFIED_M = 1


class EmptySpectrumError(ValueError):
    """No eigenvalue below the requested edge."""


# ---------------------------------------------------------------------------
# Green columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenBlockSet:
    """Column k of the truncated resolvent: blocks[j-1] = G_{j,k}(lambda),
    a read-only (N, d, d) array."""

    lam: complex
    source: int
    nblocks: int
    blocks: np.ndarray

    def norms(self) -> np.ndarray:
        return spectral_norm(self.blocks)


def green_column(trunc: Truncation, lam, k: int) -> GreenBlockSet | list[GreenBlockSet]:
    """All blocks G_{j,k}(lambda) of resolvent column k (1-based).

    lam is one point (one GreenBlockSet) or a sequence of them (one set per
    point, in input order).  A grid shares one shift-batched factor and one
    solve, and one point is its S = 1 case; each set is bitwise what its
    point gives alone.  Every point must stay resolvent-distant from the
    truncation spectrum; the pivot conditioning check raises
    SingularShiftError for the first point in input order that is not.
    """
    N, d = trunc.nblocks, trunc.dim
    if not 1 <= k <= N:
        raise ValueError(f"source index {k} out of range 1..{N}")
    points = list(lam) if np.ndim(lam) else [lam]
    rhs = np.zeros((N * d, d), dtype=np.complex128)
    rhs[(k - 1) * d: k * d, :] = np.eye(d)
    lu = block_tridiag_factor(trunc, np.array(points, dtype=np.complex128))
    blocks = lu.solve(rhs).reshape(-1, N, d, d)
    blocks.setflags(write=False)
    sets = [GreenBlockSet(z, k, N, b) for z, b in zip(points, blocks)]
    return sets if np.ndim(lam) else sets[0]


# ---------------------------------------------------------------------------
# Spectrum below the edge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigenpair:
    """Unit eigenvector of the truncation and the norm of its last block;
    boundary_suspect marks a last block norm above 1e-6 (truncation
    artifact, not a half-line state)."""

    value: float
    vector: np.ndarray
    last_block_norm: float

    @property
    def boundary_suspect(self) -> bool:
        return bool(self.last_block_norm > BOUNDARY_SUSPECT_TOL)

    def block_norms(self, dim: int) -> np.ndarray:
        return vector_norm(self.vector.reshape(-1, dim))


def eigenpairs_below(trunc: Truncation, b: float) -> list[Eigenpair]:
    """All truncation eigenpairs with eigenvalue < b, ascending.

    Eigenvalues come from inertia multisection; vectors from inverse iteration
    against the block LU; consecutive eigenvalues with equal shifts (a
    degenerate cluster) share one factor.  The first d members of a cluster
    start on one coordinate of the first block, which keeps an exponentially
    small tail componentwise accurate: the back substitution propagates
    relative, not absolute, precision.  Members of a near-degenerate cluster
    are orthogonalized against each other, and those beyond d start from a
    seeded random vector.  A vector whose residual or Rayleigh value misses
    its eigenvalue is redone from a random start.  May be empty.
    """
    N, d = trunc.nblocks, trunc.dim
    vals, _ = tridiag_eigs_below(trunc, b)
    tscale = trunc.scale()
    scale = max(tscale, abs(b), 1.0)
    cluster_tol = 1e-8 * scale
    pairs: list[Eigenpair] = []
    cluster: list[np.ndarray] = []
    prev_val = prev_shift = None

    def miss(x, rq, lam):  # residual, or the Rayleigh value's distance from lam
        return max(vector_norm(tridiag_apply(trunc, x) - rq * x), abs(rq - lam))

    for i, lam in enumerate(vals):
        if prev_val is None or lam - prev_val > cluster_tol:
            cluster = []
        cpos = len(cluster)
        start = np.zeros(N * d, dtype=np.complex128)
        if cpos < d:
            start[cpos] = 1.0
        else:
            rng = np.random.default_rng(31337 + i)
            start[:] = rng.standard_normal(N * d)
        # nudged up by 1e-11 * max(scale, |lam|) so the unchecked factor stays usable
        shift = lam + 1e-11 * max(tscale, abs(lam))
        if shift != prev_shift:
            lu, prev_shift = block_tridiag_factor(trunc, shift, check_conditioning=False), shift
        x, rq = tridiag_inverse_iteration(trunc, lu, start, ortho=tuple(cluster))
        if miss(x, rq, lam) > 1e-8 * scale:
            rng = np.random.default_rng(77003 + i)
            x, rq = tridiag_inverse_iteration(
                trunc, lu, rng.standard_normal(N * d).astype(np.complex128),
                n_iter=12, ortho=tuple(cluster))
            if (m := miss(x, rq, lam)) > 1e-8 * scale:
                raise ArithmeticError(f"inverse iteration residual or Rayleigh "
                                      f"offset {m:.3e} for eigenvalue {lam}")
        cluster.append(x)
        prev_val = lam
        pairs.append(Eigenpair(rq, x, vector_norm(x[(N - 1) * d:])))
    return pairs


# ---------------------------------------------------------------------------
# Rank-d perturbation on the first block
# ---------------------------------------------------------------------------

def perturbed_truncation(trunc: Truncation, tau: float) -> Truncation:
    """Truncation of J + tau * P_1 at the same size: trunc's arrays with
    only B_1 replaced, by B_1 + tau I.  tau must be finite and >= 0, and
    the new B_1 finite and Hermitian (both checked)."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    diags = trunc.diag_blocks.copy()
    diags[0] += tau * np.eye(trunc.dim)
    _require_hermitian(diags[0], "diag(1)")
    diags.setflags(write=False)
    return Truncation(trunc.label + f"+perturbed(tau={tau})", diags,
                      trunc.offdiag_blocks)


# ---------------------------------------------------------------------------
# Decay reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Measured norms against the fitted envelope, verdicts per index.

    verdict[j] is "excluded" beyond the boundary-exclusion limit, else "pass"
    iff measured[j] <= fitted_C * envelope[j] * (1+1e-9), else "fail".
    fitted_C is the max of measured/envelope over the calibration range.
    ratio[j] is measured / (fitted_C * envelope), so passing rows have
    ratio <= 1+1e-9.
    """

    mode: str
    family_label: str
    lam: complex
    b: float
    delta: float
    eps: float
    gamma: float
    nblocks: int
    source: int
    indices: np.ndarray
    measured: np.ndarray
    envelope: np.ndarray
    ratio: np.ndarray
    verdicts: tuple
    fitted_C: float
    calibration: tuple
    eligible_limit: int
    meta: dict

    @property
    def eligible(self) -> np.ndarray:
        return self.indices <= self.eligible_limit

    @property
    def all_pass(self) -> bool:
        return "fail" not in self.verdicts

    @property
    def pass_fraction(self) -> float:
        n_elig = int(self.eligible.sum())
        return self.verdicts.count("pass") / n_elig if n_elig else 1.0


def _normalize_calibration(calibration, default_lo: int, N: int, limit: int):
    if calibration is None:
        lo, hi = default_lo, default_lo + 10
    else:
        lo, hi = int(calibration[0]), int(calibration[1])
    lo = max(1, lo)
    hi = min(hi, limit if limit >= lo else N)
    if hi < lo:
        raise ValueError(f"empty calibration range [{lo}, {hi}]")
    return lo, hi


def _build_report(mode: str, trunc: Truncation, p: BoundParams, source: int,
                  measured: np.ndarray, log_envelope: np.ndarray,
                  calibration, default_calib_lo: int, meta: dict) -> DecayReport:
    N = trunc.nblocks
    limit = N - N // 10
    lo, hi = _normalize_calibration(calibration, default_calib_lo, N, limit)
    with np.errstate(divide="ignore"):
        log_measured = np.log(measured)
    log_C = float(np.max(log_measured[lo - 1:hi] - log_envelope[lo - 1:hi]))
    indices = np.arange(1, N + 1)
    passing = log_measured <= log_C + log_envelope + math.log1p(VERDICT_SLACK)
    verdicts = np.where(indices > limit, "excluded",
                        np.where(passing, "pass", "fail"))
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(log_envelope)
        ratio = np.exp(log_measured - log_envelope - log_C)
    ratio = np.where(np.isnan(ratio), 0.0, ratio)
    fitted_C = math.exp(log_C) if np.isfinite(log_C) else 0.0
    return DecayReport(
        mode=mode, family_label=trunc.label, lam=complex(p.lam), b=p.b,
        delta=p.delta, eps=p.eps, gamma=gamma_rate(p), nblocks=N, source=source,
        indices=indices, measured=measured, envelope=envelope,
        ratio=ratio, verdicts=tuple(verdicts.tolist()), fitted_C=fitted_C,
        calibration=(lo, hi), eligible_limit=limit, meta=meta)


def _grid(p) -> tuple[list[BoundParams], bool]:
    """The points of one BoundParams or of a nonempty sequence of them that
    differ only in lam, and whether a single one was given."""
    if isinstance(p, BoundParams):
        return [p], True
    points = list(p)
    if not points or any(q.with_lambda(points[0].lam) != points[0] for q in points):
        raise ValueError("a lambda grid must be nonempty and share b, delta and eps")
    return points, False


def _qualified_metas(trunc: Truncation, points: list[BoundParams]):
    """Yields the closed-form constant at each point, all from one spectral
    query: the distance from lambda to the eigenvalues below b and the next
    one up, and the depth of the point spectrum below b."""
    b = points[0].b
    below, above = tridiag_eigs_below(trunc, b, above=1)
    cands = [*below, *above]
    min_eig_gap = abs(b - min(below)) if below.size else 0.0
    for p in points:
        dist_sigma = min(abs(complex(p.lam) - mu) for mu in cands)
        meta = {"qualified_C": math.inf, "qualified_M": QUALIFIED_M}
        if dist_sigma > 0:
            meta.update(qualified_C=qualified_constant(p, QUALIFIED_M, dist_sigma,
                                                       min_eig_gap),
                        dist_sigma=dist_sigma, min_eig_gap=min_eig_gap)
        yield meta


def verify_green_decay(trunc: Truncation, p, k: int = 1,
                       calibration=None) -> DecayReport | list[DecayReport]:
    """Green-column decay against the scalar-norm envelope.

    Measured values are ||G_{j,k}(lambda)||; the envelope between j and k is
    exp(-gamma * |S_j - S_k|).  C is fitted on the calibration range
    (default [k, k+10]).  p is one BoundParams (one report) or a sequence of
    them differing only in lam (their reports, in order), which share one
    truncation, spectral query and set of sums S_j.
    """
    points, single = _grid(p)
    S = scalar_envelope(trunc, points[0]).cumulative
    cols = green_column(trunc, [q.lam for q in points], k)
    reports = [_build_report(
        "green", trunc, q, k, col.norms(),
        -gamma_rate(q) * np.abs(S - S[k - 1]), calibration, k,
        {"kind": "green-column", **meta})
        for q, col, meta in zip(points, cols, _qualified_metas(trunc, points))]
    return reports[0] if single else reports


def _select_pair(pairs: list[Eigenpair], which):
    if isinstance(which, int):
        if not 1 <= which <= len(pairs):
            raise ValueError(
                f"eigenvalue index {which} out of range 1..{len(pairs)}")
        return which, pairs[which - 1]
    if (isinstance(which, tuple) and len(which) == 2 and which[0] == "nearest"):
        target = float(which[1])
        idx = int(np.argmin([abs(pr.value - target) for pr in pairs]))
        return idx + 1, pairs[idx]
    raise ValueError(f"selector must be an int or ('nearest', x), got {which!r}")


def verify_eigenvector_decay(trunc: Truncation, p: BoundParams, which=1,
                             calibration=None) -> DecayReport:
    """Eigenvector-component decay for an eigenvalue below b.

    The envelope is anchored at m = 1 (cumulative sums from the first
    index) and evaluated at the selected eigenvalue; p.lam only serves as a
    placeholder/selector target.  `which` picks the eigenvalue: an index
    from below (1-based) or ("nearest", target), ties to the lower index.
    """
    pairs = eigenpairs_below(trunc, p.b)
    if not pairs:
        raise EmptySpectrumError(f"no eigenvalue below b = {p.b} at N = {trunc.nblocks}")
    idx, pair = _select_pair(pairs, which)
    p_eff = p.with_lambda(pair.value)
    env = scalar_envelope(trunc, p_eff)
    log_env = -env.gamma * env.cumulative
    measured = pair.block_norms(trunc.dim)
    meta = {
        "kind": "eigenvector",
        "eigenvalue": pair.value,
        "boundary_suspect": pair.boundary_suspect,
        "n_below": len(pairs),
        # trivial-kernel hypothesis on the couplings: reported, not enforced
        "offdiag_kernel_trivial": bool(all(offdiag_kernel_flags(trunc))),
    }
    return _build_report("eigenvector", trunc, p_eff, idx, measured, log_env,
                         calibration, 1, meta)


def verify_commuting_decay(trunc: Truncation, p, k: int = 1,
                           calibration=None) -> DecayReport | list[DecayReport]:
    """Commuting-refinement check: the weighted norms
    ||exp(gamma * sum_{i=min..max-1} phi_delta(|A_i|)) G_{j,k}|| must stay
    bounded by a fitted constant (flat envelope).  p is one BoundParams or
    a grid, as in verify_green_decay; the commutation check is made once,
    on the truncation's entries."""
    points, single = _grid(p)
    check_pairwise_commutation(trunc)
    partials = _phi_partial_sums(trunc, points[0].delta)
    N = trunc.nblocks
    j = np.arange(1, N + 1)
    P = partials[np.maximum(j, k) - 1] - partials[np.minimum(j, k) - 1]
    cols = green_column(trunc, [q.lam for q in points], k)
    reports = []
    for q, col, meta in zip(points, cols, _qualified_metas(trunc, points)):
        gam = gamma_rate(q)
        W = psd_matfunc(P, lambda x: math.exp(gam * x))
        reports.append(_build_report("commuting", trunc, q, k,
                                     spectral_norm(W @ col.blocks), np.zeros(N), calibration,
                                     k, {"kind": "commuting-weighted", **meta}))
    return reports[0] if single else reports
