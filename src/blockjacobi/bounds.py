"""Exponential decay envelopes for the resolvent of a semi-bounded block
Jacobi operator with spectral parameter below the essential spectrum.

The rate gamma = sqrt(delta) * psi_inv((b - Re lambda)(1 - eps) / delta)
with psi(x) = x^2 e^x drives every envelope.  Scalar-norm envelopes weight
steps by phi_delta(||A_k||); the commuting refinement replaces the scalar
weight with the operator phi_delta(|A_k|), which resolves decay per
spatial direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dense_linalg import (abs_matrix, hermitian_eig, psd_matfunc, spectral_norm,
                           vector_norm)
from .operator_model import Truncation

__all__ = [
    "BoundParams",
    "CommutationError",
    "psi",
    "psi_inv",
    "phi_delta",
    "gamma_rate",
    "simplified_rate",
    "scalar_envelope",
    "check_pairwise_commutation",
    "qualified_constant",
]


@dataclass(frozen=True)
class BoundParams:
    """(lambda, b, delta, eps) bundle; every envelope formula reads these.

    Requires a finite b, Re(lam) < b, delta > 0 and eps in (0, 1).
    """

    lam: complex
    b: float
    delta: float = 1.0
    eps: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b}")
        if not (self.lam.real < self.b):
            raise ValueError(
                f"Re(lambda) = {self.lam.real} must be below b = {self.b}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")

    @property
    def gap(self) -> float:
        return self.b - self.lam.real

    def with_lambda(self, lam: complex) -> "BoundParams":
        return replace(self, lam=lam)


def psi(x: float) -> float:
    """x^2 e^x on x >= 0."""
    if x < 0:
        raise ValueError(f"psi requires x >= 0, got {x}")
    return x * x * math.exp(x)


def psi_inv(t: float) -> float:
    """Inverse of psi on [0, inf): bracketed bisection to width 1e-8, then
    safeguarded Newton polish; roundtrip accurate to 1e-12 relative."""
    if t < 0:
        raise ValueError(f"psi_inv requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    if t < 1e-8:
        # below the bisection bracket width: x = sqrt(t) e^(-x/2) fixed point
        x = math.sqrt(t)
        for _ in range(4):
            x = math.sqrt(t) * math.exp(-x / 2.0)
        return x
    lo, hi = 0.0, 1.0
    while psi(hi) < t:
        lo = hi
        hi *= 2.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if psi(mid) < t:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(5):
        fx = psi(x) - t
        dfx = (2.0 * x + x * x) * math.exp(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if not lo <= x <= hi:
            x = min(max(x, lo), hi)
    return x


def phi_delta(x: float, delta: float) -> float:
    """1/sqrt(delta) for x < delta, else 1/sqrt(x); continuous at the joint."""
    if x < 0:
        raise ValueError(f"phi_delta requires x >= 0, got {x}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return 1.0 / math.sqrt(delta) if x < delta else 1.0 / math.sqrt(x)


def gamma_rate(p: BoundParams) -> float:
    """sqrt(delta) * psi_inv((b - Re lambda)(1 - eps) / delta)."""
    return math.sqrt(p.delta) * psi_inv(p.gap * (1.0 - p.eps) / p.delta)


def simplified_rate(p: BoundParams) -> float:
    """(1 - eps) * sqrt(b - Re lambda): the large-||A_k|| simplification of
    gamma, paired with step weights 1/sqrt(||A_k||)."""
    return (1.0 - p.eps) * math.sqrt(p.gap)


def scalar_envelope(trunc: Truncation, delta: float) -> np.ndarray:
    """The scalar-norm envelope sums S_1..S_N over the truncation's
    couplings, S_m = sum_{k<m} phi_delta(||A_k||): S_1 = 0, nondecreasing,
    increments at most 1/sqrt(delta).  The bound between indices j and k is
    exp(-gamma * |S_j - S_k|); they depend on delta alone, so one array
    serves every lambda."""
    S = np.zeros(trunc.nblocks)
    norms = spectral_norm(trunc.offdiag_blocks).tolist()
    S[1:] = np.cumsum([phi_delta(a, delta) for a in norms])
    return S


# relative commutator norm above which two entries count as non-commuting
COMMUTATION_TOL = 1e-10


class CommutationError(ValueError):
    """The entries are not pairwise commuting; names the offending pair."""

    def __init__(self, first, second, norm, tol):
        self.first = first
        self.second = second
        super().__init__(
            f"entries {first[0]}_{first[1]} and {second[0]}_{second[1]} do not "
            f"commute: relative commutator norm {norm:.3e} > {tol:.0e}")


def check_pairwise_commutation(trunc: Truncation) -> None:
    """Verify that the truncation's entries A_1..A_{N-1}, their adjoints and
    B_1..B_N commute pairwise: each commutator's Frobenius norm is at most
    COMMUTATION_TOL times the product of the factor norms.  A_N is not an
    entry: no N-block Green matrix uses it.

    A certificate decides first, in O(N d^4): with the nonzero entries
    normalized (x_a = X_a / ||X_a||_F) and E_i an orthonormal basis of their
    span (Gram-matrix eigenvectors above a relative cutoff), x_a = c_a E + r_a
    with ||r_a||_F <= rho, so ||[x_a, x_b]||_F <= max ||c_a||^2 ||K||_F
    + 4 rho + 6 rho^2 with K_ij = ||[E_i, E_j]||_F.  Below COMMUTATION_TOL / 2
    (the rest is slack for the scan's rounding) the entries pass.  Otherwise,
    or for a largest entry norm outside [1e-100, 1e100], the exact scan
    raises for the first violating pair in the order (A_1, B_1, A_1^*, A_2,
    ..., B_N); it compares each unordered pair once, as the violation set is
    symmetric.
    """
    A = trunc.offdiag_blocks
    entries = {"A": A, "B": trunc.diag_blocks, "A*": A.conj().transpose(0, 2, 1)}
    names = [(s, n) for n in range(1, trunc.nblocks + 1) for s in ("A", "B", "A*")
             if s == "B" or n < trunc.nblocks]
    M = np.stack([entries[s][n - 1] for s, n in names])
    if not _commutation_certified(M):
        _commutation_scan(M, names)


def _commutation_certified(M) -> bool:
    """True when the certificate of check_pairwise_commutation proves that
    the (S, d, d) stack M passes the exact scan; False when it cannot tell."""
    S, d, _ = M.shape
    fro = vector_norm(M.reshape(S, d * d))
    top = fro.max(initial=0.0)
    if not 1e-100 <= top <= 1e100:
        return bool(top == 0.0)
    # below 1e-24 * top an entry fails no pair: the scan's floor is 1e-12 * top^2
    keep = fro > 1e-24 * top
    V = M.reshape(S, d * d)[keep] / fro[keep, None]
    dec = hermitian_eig((V.conj().T @ V)[None])
    w = dec.values[0]
    U = dec.vectors[0][:, w > 1e-12 * w[-1]]
    c = V @ U
    rho = vector_norm(V - c @ U.conj().T).max()
    E = U.conj().T.reshape(-1, d, d)
    K = vector_norm((E[:, None] @ E[None] - E[None] @ E[:, None]).reshape(-1, d * d))
    bound = vector_norm(c).max() ** 2 * vector_norm(K) + 4.0 * rho + 6.0 * rho ** 2
    return bool(bound < COMMUTATION_TOL / 2.0)


def _commutation_scan(M, names) -> None:
    """The exact pairwise scan: raises CommutationError for the first pair
    whose relative commutator norm exceeds COMMUTATION_TOL.  The stack is
    first divided by a power of two near its largest Frobenius norm (exact
    in the normal range), so that no squared norm overflows or underflows."""
    _, e = np.frexp(vector_norm(M.reshape(len(M), -1)).max(initial=0.0))
    M = np.ldexp(M.real, -e) + 1j * np.ldexp(M.imag, -e)
    fro = np.sqrt((np.abs(M) ** 2).sum(axis=(1, 2)))
    floor = max(fro.max() ** 2, 1e-300)
    chunk = 128
    for a0 in range(0, M.shape[0], chunk):
        a1 = min(a0 + chunk, M.shape[0])
        X, Y = M[a0:a1, None], M[None, a0:]
        C = np.sqrt((np.abs(X @ Y - Y @ X) ** 2).sum(axis=(2, 3)))
        den = np.maximum(np.outer(fro[a0:a1], fro[a0:]), 1e-12 * floor)
        bad = np.argwhere(C > COMMUTATION_TOL * den)
        if bad.size:
            i, j = bad[0]
            raise CommutationError(names[a0 + i], names[a0 + j],
                                   C[i, j] / den[i, j], COMMUTATION_TOL)


def _phi_partial_sums(trunc: Truncation, delta: float) -> np.ndarray:
    """Operator partial sums P_m = sum_{i<m} phi_delta(|A_i|) over the
    truncation's couplings, for m = 1..N, as one (N, d, d) array; P_1 = 0."""
    d = trunc.dim
    phis = psd_matfunc(abs_matrix(trunc.offdiag_blocks), lambda x: phi_delta(x, delta))
    return np.cumsum(np.concatenate([np.zeros((1, d, d), np.complex128), phis]), axis=0)


def qualified_constant(p: BoundParams, M: int, dist_sigma: float,
                       min_eig_gap: float) -> float:
    """Closed-form bound on the envelope constant:

    2 * (1 + (|b - min point-spectrum| / dist(lambda, spectrum))
             * exp(gamma * M / sqrt(delta))) / (eps * (b - Re lambda)).

    M is the projection cutoff (caller-supplied), dist_sigma the distance
    from lambda to the spectrum, min_eig_gap = |b - min of the point
    spectrum| (0 when nothing lies below b, which collapses the second term).
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    if dist_sigma <= 0:
        raise ValueError(f"dist_sigma must be positive, got {dist_sigma}")
    if min_eig_gap < 0:
        raise ValueError(f"min_eig_gap must be >= 0, got {min_eig_gap}")
    gam = gamma_rate(p)
    grow = math.exp(gam * M / math.sqrt(p.delta))
    return 2.0 * (1.0 + (min_eig_gap / dist_sigma) * grow) / (p.eps * p.gap)
