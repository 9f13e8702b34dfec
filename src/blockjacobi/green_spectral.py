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

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (BoundParams, check_pairwise_commutation, gamma_rate,
                     phi_delta, qualified_constant, scalar_envelope)
from .dense_linalg import (abs_matrix, block_tridiag_factor, hermitian_eig,
                           psd_matfunc, spectral_norm, tridiag_apply,
                           tridiag_count_below, tridiag_eigs_below,
                           tridiag_inverse_iteration, tridiag_kth_eigenvalue,
                           vector_norm)
from .operator_model import (OperatorFamily, Truncation, assemble_truncation,
                             block_entries, offdiag_kernel_flags)

__all__ = [
    "GreenBlockSet",
    "Eigenpair",
    "DecayReport",
    "EmptySpectrumError",
    "green_column",
    "eigenpairs_below",
    "count_below",
    "kth_eigenvalue",
    "min_eigenvalue",
    "perturbed_family",
    "perturbed_truncation",
    "verify_green_decay",
    "verify_eigenvector_decay",
    "verify_commuting_decay",
]

CSV_HEADER = "# blockjacobi-bounds v1"
BOUNDARY_SUSPECT_TOL = 1e-6
VERDICT_SLACK = 1e-9


class EmptySpectrumError(ValueError):
    """No eigenvalue below the requested edge."""


# ---------------------------------------------------------------------------
# Green columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenBlockSet:
    """Column k of the truncated resolvent: blocks[j-1] = G_{j,k}(lambda)."""

    lam: complex
    source: int
    nblocks: int
    blocks: tuple

    def norms(self) -> np.ndarray:
        return np.array([spectral_norm(G) for G in self.blocks])


def green_column(trunc: Truncation, lam: complex, k: int) -> GreenBlockSet:
    """All blocks G_{j,k}(lambda) of resolvent column k (1-based).

    lambda must stay resolvent-distant from the truncation spectrum; the
    pivot conditioning check raises SingularShiftError otherwise.
    """
    N, d = trunc.nblocks, trunc.dim
    if not 1 <= k <= N:
        raise ValueError(f"source index {k} out of range 1..{N}")
    rhs = np.zeros((N * d, d), dtype=np.complex128)
    rhs[(k - 1) * d: k * d, :] = np.eye(d)
    fac = block_tridiag_factor(trunc, lam)
    X = fac.solve(rhs)
    blocks = tuple(X[j * d:(j + 1) * d, :].copy() for j in range(N))
    return GreenBlockSet(lam, k, N, blocks)


# ---------------------------------------------------------------------------
# Spectrum below the edge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigenpair:
    """Unit eigenvector of the truncation; boundary_suspect marks a last
    block norm above 1e-6 (truncation artifact, not a half-line state)."""

    value: float
    vector: np.ndarray
    boundary_suspect: bool

    def block_norms(self, dim: int) -> np.ndarray:
        v = self.vector.reshape(-1, dim)
        return np.array([vector_norm(row) for row in v])


def count_below(trunc: Truncation, x: float) -> int:
    return tridiag_count_below(trunc, x)


def kth_eigenvalue(trunc: Truncation, k: int, tol: float | None = None) -> float:
    return tridiag_kth_eigenvalue(trunc, k, tol)


def min_eigenvalue(trunc: Truncation, tol: float | None = None) -> float:
    return kth_eigenvalue(trunc, 1, tol)


def eigenpairs_below(trunc: Truncation, b: float,
                     tol: float | None = None) -> list[Eigenpair]:
    """All truncation eigenpairs with eigenvalue < b, ascending.

    Eigenvalues come from inertia multisection; vectors from inverse iteration
    against the block LU, which keeps exponentially small tails accurate in
    the componentwise-relative sense.  Members of a near-degenerate cluster
    are orthogonalized against each other.  May be empty.
    """
    N, d = trunc.nblocks, trunc.dim
    vals = tridiag_eigs_below(trunc, b, tol)
    scale = max(trunc.scale(), abs(b), 1.0)
    cluster_tol = 1e-8 * scale
    pairs: list[Eigenpair] = []
    cluster: list[np.ndarray] = []
    prev_val = None
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
        x, rq = tridiag_inverse_iteration(
            trunc, lam, start=start, ortho=tuple(cluster))
        resid = vector_norm(
            tridiag_apply(trunc, x) - rq * x)
        if resid > 1e-8 * scale:
            rng = np.random.default_rng(77003 + i)
            x, rq = tridiag_inverse_iteration(
                trunc, lam,
                start=rng.standard_normal(N * d).astype(np.complex128),
                n_iter=12, ortho=tuple(cluster))
            resid = vector_norm(tridiag_apply(trunc, x) - rq * x)
            if resid > 1e-8 * scale:
                raise ArithmeticError(
                    f"inverse iteration residual {resid:.3e} for eigenvalue {lam}")
        cluster.append(x)
        prev_val = lam
        tail = vector_norm(x[(N - 1) * d:])
        pairs.append(Eigenpair(rq, x, bool(tail > BOUNDARY_SUSPECT_TOL)))
    return pairs


# ---------------------------------------------------------------------------
# Rank-d perturbation on the first block
# ---------------------------------------------------------------------------

def _min_singular_value(L: np.ndarray) -> float:
    return float(hermitian_eig(abs_matrix(L)).values[0])


def perturbed_family(family: OperatorFamily, tau: float,
                     L: np.ndarray | None = None) -> OperatorFamily:
    """Family of J + tau * P_1 L* L P_1: only B_1 changes, to B_1 + tau L*L.

    L must be norm-one with trivial kernel (checked); the identity default
    satisfies both in finite dimension.
    """
    d = family.dim
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if L is None:
        L = np.eye(d, dtype=np.complex128)
    L = np.asarray(L, dtype=np.complex128)
    if L.shape != (d, d):
        raise ValueError(f"L has shape {L.shape}, expected ({d}, {d})")
    nrm = spectral_norm(L)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"||L|| = {nrm!r}, must equal 1 to 1e-10")
    if _min_singular_value(L) <= 1e-12:
        raise ValueError("L has (numerically) nontrivial kernel")
    bump = tau * (L.conj().T @ L)
    base_diag = family.diag

    def diag(n: int) -> np.ndarray:
        B = np.array(base_diag(n), dtype=np.complex128)
        if n == 1:
            B = B + bump
        return B

    return OperatorFamily(d, family.offdiag, diag, edge_b=family.edge_b,
                          label=family.label + f"+perturbed(tau={tau})")


def perturbed_truncation(trunc: Truncation, tau: float,
                         L: np.ndarray | None = None) -> Truncation:
    """Truncation of the perturbed operator at the same size."""
    return assemble_truncation(perturbed_family(trunc.family, tau, L),
                               trunc.nblocks)


# ---------------------------------------------------------------------------
# Decay reports
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.17g}j"


@dataclass(frozen=True)
class DecayReport:
    """Measured norms against the fitted envelope, verdicts per index.

    verdict[j] is "pass" iff measured[j] <= fitted_C * envelope[j] * (1+1e-9),
    "excluded" beyond the boundary-exclusion limit.  fitted_C is the max of
    measured/envelope over the calibration range.  ratio[j] is
    measured / (fitted_C * envelope), so passing rows have ratio <= 1+1e-9.
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
        return all(v == "pass" for v, e in zip(self.verdicts, self.eligible) if e)

    @property
    def pass_fraction(self) -> float:
        n_elig = int(self.eligible.sum())
        if n_elig == 0:
            return 1.0
        n_pass = sum(1 for v, e in zip(self.verdicts, self.eligible)
                     if e and v == "pass")
        return n_pass / n_elig

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines.append(
            f"# mode={self.mode} family={self.family_label} "
            f"lambda={_fmt_complex(self.lam)} b={_fmt(self.b)} "
            f"delta={_fmt(self.delta)} eps={_fmt(self.eps)} "
            f"N={self.nblocks} source={self.source} gamma={_fmt(self.gamma)} "
            f"fitted_C={_fmt(self.fitted_C)} "
            f"calibration={self.calibration[0]}:{self.calibration[1]}")
        lines.append("index,measured,envelope,ratio,verdict")
        for i in range(self.indices.size):
            lines.append(
                f"{self.indices[i]},{_fmt(self.measured[i])},"
                f"{_fmt(self.envelope[i])},{_fmt(self.ratio[i])},{self.verdicts[i]}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_text())

    def summary(self) -> dict:
        n_elig = int(self.eligible.sum())
        out = {
            "schema": "blockjacobi-bounds v1",
            "mode": self.mode,
            "family": self.family_label,
            "lambda": [self.lam.real, self.lam.imag],
            "b": self.b,
            "delta": self.delta,
            "eps": self.eps,
            "gamma": self.gamma,
            "N": self.nblocks,
            "source": self.source,
            "calibration": [self.calibration[0], self.calibration[1]],
            "eligible_limit": self.eligible_limit,
            "fitted_C": self.fitted_C,
            "pass_fraction": self.pass_fraction,
            "all_pass": self.all_pass,
            "n_eligible": n_elig,
        }
        out.update(self.meta)
        return out

    def json_text(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=2) + "\n"

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.json_text())


def _eligible_limit(N: int) -> int:
    return N - N // 10


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


def _build_report(mode: str, family: OperatorFamily, p: BoundParams, N: int,
                  source: int, measured: np.ndarray, log_envelope: np.ndarray,
                  calibration, default_calib_lo: int, meta: dict) -> DecayReport:
    limit = _eligible_limit(N)
    lo, hi = _normalize_calibration(calibration, default_calib_lo, N, limit)
    with np.errstate(divide="ignore"):
        log_measured = np.log(measured)
    log_C = float(np.max(log_measured[lo - 1:hi] - log_envelope[lo - 1:hi]))
    slack = math.log1p(VERDICT_SLACK)
    verdicts = []
    for j in range(1, N + 1):
        if j > limit:
            verdicts.append("excluded")
        elif log_measured[j - 1] <= log_C + log_envelope[j - 1] + slack:
            verdicts.append("pass")
        else:
            verdicts.append("fail")
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(log_envelope)
        ratio = np.exp(log_measured - log_envelope - log_C)
    ratio = np.where(np.isnan(ratio), 0.0, ratio)
    fitted_C = math.exp(log_C) if np.isfinite(log_C) else 0.0
    return DecayReport(
        mode=mode, family_label=family.label, lam=complex(p.lam), b=p.b,
        delta=p.delta, eps=p.eps, gamma=gamma_rate(p), nblocks=N, source=source,
        indices=np.arange(1, N + 1), measured=measured, envelope=envelope,
        ratio=ratio, verdicts=tuple(verdicts), fitted_C=fitted_C,
        calibration=(lo, hi), eligible_limit=limit, meta=meta)


def _qualified_meta(trunc: Truncation, p: BoundParams, qualified_M: int) -> dict:
    """Closed-form constant evaluated on the truncation spectrum: distance
    from lambda to the spectrum and the depth of the point spectrum below b."""
    below = tridiag_eigs_below(trunc, p.b)
    cands = list(below)
    if below.size < trunc.dense_dim:
        cands.append(tridiag_kth_eigenvalue(trunc, below.size + 1))
    dist_sigma = min(abs(complex(p.lam) - mu) for mu in cands)
    min_eig_gap = abs(p.b - min(below)) if below.size else 0.0
    if dist_sigma <= 0:
        return {"qualified_C": math.inf, "qualified_M": qualified_M}
    qc = qualified_constant(trunc.family, p, qualified_M, dist_sigma, min_eig_gap)
    return {"qualified_C": qc, "qualified_M": qualified_M,
            "dist_sigma": dist_sigma, "min_eig_gap": min_eig_gap}


def verify_green_decay(family: OperatorFamily, p: BoundParams, N: int,
                       k: int = 1, calibration=None,
                       qualified_M: int = 1) -> DecayReport:
    """Green-column decay against the scalar-norm envelope.

    Measured values are ||G_{j,k}(lambda)||; the envelope between j and k is
    exp(-gamma * |S_j - S_k|).  C is fitted on the calibration range
    (default [k, k+10]).
    """
    trunc = assemble_truncation(family, N)
    col = green_column(trunc, p.lam, k)
    measured = col.norms()
    env = scalar_envelope(family, p, N)
    log_env = np.array([env.log_bound(j, k) for j in range(1, N + 1)])
    meta = {"kind": "green-column"}
    meta.update(_qualified_meta(trunc, p, qualified_M))
    return _build_report("green", family, p, N, k, measured, log_env,
                         calibration, k, meta)


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


def verify_eigenvector_decay(family: OperatorFamily, p: BoundParams, N: int,
                             which=1, calibration=None) -> DecayReport:
    """Eigenvector-component decay for an eigenvalue below b.

    The envelope is anchored at m = 1 (cumulative sums from the first
    index) and evaluated at the selected eigenvalue; p.lam only serves as a
    placeholder/selector target.  `which` picks the eigenvalue: an index
    from below (1-based) or ("nearest", target), ties to the lower index.
    """
    trunc = assemble_truncation(family, N)
    pairs = eigenpairs_below(trunc, p.b)
    if not pairs:
        raise EmptySpectrumError(f"no eigenvalue below b = {p.b} at N = {N}")
    idx, pair = _select_pair(pairs, which)
    p_eff = p.with_lambda(pair.value)
    env = scalar_envelope(family, p_eff, N)
    log_env = -env.gamma * env.cumulative
    measured = pair.block_norms(trunc.dim)
    meta = {
        "kind": "eigenvector",
        "eigenvalue": pair.value,
        "boundary_suspect": pair.boundary_suspect,
        "n_below": len(pairs),
        # trivial-kernel hypothesis on the couplings: reported, not enforced
        "offdiag_kernel_trivial": bool(all(offdiag_kernel_flags(family, N - 1))),
    }
    return _build_report("eigenvector", family, p_eff, N, idx, measured,
                         log_env, calibration, 1, meta)


def verify_commuting_decay(family: OperatorFamily, p: BoundParams, N: int,
                           k: int = 1, calibration=None,
                           qualified_M: int = 1) -> DecayReport:
    """Commuting-refinement check: the weighted norms
    ||exp(gamma * sum_{i=min..max-1} phi_delta(|A_i|)) G_{j,k}|| must stay
    bounded by a fitted constant (flat envelope)."""
    check_pairwise_commutation(family, N)
    trunc = assemble_truncation(family, N)
    col = green_column(trunc, p.lam, k)
    gam = gamma_rate(p)
    d = family.dim
    # partial sums P_m = sum_{i<m} phi_delta(|A_i|), P_1 = 0
    partials = [np.zeros((d, d), dtype=np.complex128)]
    for m in range(1, N):
        A = block_entries(family, m)[0]
        partials.append(partials[-1] +
                        psd_matfunc(abs_matrix(A), lambda x: phi_delta(x, p.delta)))
    measured = np.empty(N)
    for j in range(1, N + 1):
        lo, hi = sorted((j, k))
        P = partials[hi - 1] - partials[lo - 1]
        W = psd_matfunc(P, lambda x: math.exp(gam * x))
        measured[j - 1] = spectral_norm(W @ col.blocks[j - 1])
    log_env = np.zeros(N)
    meta = {"kind": "commuting-weighted"}
    meta.update(_qualified_meta(trunc, p, qualified_M))
    return _build_report("commuting", family, p, N, k, measured, log_env,
                         calibration, k, meta)
