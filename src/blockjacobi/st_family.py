"""The noncommuting 2x2 family with antidiagonal coupling and power growth:

    A_n = [[0, r_n], [r_n, 0]],  r_n = n^alpha,
    B_n = diag(s * n^alpha, t * n^alpha),  s, t > 0.

A_n and B_n do not commute unless s = t.  The product s*t controls a
spectral phase transition with threshold s*t = 4: above it the essential
spectrum is empty, below it it covers the whole line, and exactly at it
the operator is semi-bounded with essential spectrum in [0, inf), which is
where the decay envelopes apply with edge b = 0.  Transfer-matrix
eigenvalues and a Levinson-type product profile quantify the actual decay
of solutions for lambda < 0.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .operator_model import OperatorFamily

__all__ = [
    "StParams",
    "TransferMatrix",
    "PhaseClass",
    "LevinsonProfile",
    "st_family",
    "constant_st_family",
    "transfer_matrix",
    "transfer_char_coeffs",
    "transfer_eigenvalues",
    "decaying_root",
    "mu_asymptotic",
    "levinson_profile",
    "jc_lower_bound",
    "phase_class",
]

PHASE_TOL = 1e-9


@dataclass(frozen=True)
class StParams:
    s: float
    t: float
    alpha: float

    def __post_init__(self):
        if not (self.s > 0 and self.t > 0):
            raise ValueError(f"s, t must be positive, got s={self.s}, t={self.t}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def st_family(p: StParams) -> OperatorFamily:
    """OperatorFamily for the 2x2 antidiagonal-coupling family.

    edge_b = 0 on the critical manifold s*t = 4 (semi-bounded case); left
    unset otherwise.
    """
    s, t, alpha = p.s, p.t, p.alpha

    def offdiag(n: int) -> np.ndarray:
        r = float(n) ** alpha
        return np.array([[0.0, r], [r, 0.0]], dtype=np.complex128)

    def diag(n: int) -> np.ndarray:
        na = float(n) ** alpha
        return np.array([[s * na, 0.0], [0.0, t * na]], dtype=np.complex128)

    edge = 0.0 if abs(s * t - 4.0) <= PHASE_TOL else None
    return OperatorFamily(2, offdiag, diag, edge_b=edge,
                          label=f"st(s={s},t={t},alpha={alpha})", params=p)


def constant_st_family(s: float, t: float) -> OperatorFamily:
    """Constant-entry comparison operator: A_n = [[0,1],[1,0]], B_n = diag(s,t).
    Its spectrum is bounded below by jc_lower_bound(s, t)."""
    if not (s > 0 and t > 0):
        raise ValueError(f"s, t must be positive, got s={s}, t={t}")
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    B = np.array([[s, 0.0], [0.0, t]], dtype=np.complex128)
    return OperatorFamily(2, lambda n: A.copy(), lambda n: B.copy(),
                          label=f"st-const(s={s},t={t})")


@dataclass(frozen=True)
class TransferMatrix:
    """4x4 one-step propagator of the recurrence at spectral parameter lam:
    [[0, I], [-A_n^{-1} A_{n-1}, A_n^{-1}(lam I - B_n)]]."""

    n: int
    lam: float
    entries: np.ndarray


def transfer_matrix(p: StParams, lam: float, n: int) -> TransferMatrix:
    """n >= 2 (the step uses A_{n-1}).  A_n is invertible since r_n > 0."""
    if n < 2:
        raise ValueError(f"transfer matrix needs n >= 2, got {n}")
    rn = float(n) ** p.alpha
    rn1 = float(n - 1) ** p.alpha
    sn = p.s * rn
    tn = p.t * rn
    M = np.zeros((4, 4))
    M[0, 2] = 1.0
    M[1, 3] = 1.0
    # A_n^{-1} A_{n-1} = (r_{n-1}/r_n) I
    M[2, 0] = -(rn1 / rn)
    M[3, 1] = -(rn1 / rn)
    # A_n^{-1} (lam I - B_n) = (1/r_n) [[0, lam - t_n], [lam - s_n, 0]]
    M[2, 3] = (lam - tn) / rn
    M[3, 2] = (lam - sn) / rn
    return TransferMatrix(n, lam, M)


def _rho_q(p: StParams, lam: float, n: int) -> tuple[float, float]:
    """rho and q of the transfer biquadratic (see transfer_char_coeffs)."""
    if n < 2:
        raise ValueError(f"transfer matrix needs n >= 2, got {n}")
    rho = ((n - 1) / n) ** p.alpha
    rn = float(n) ** p.alpha
    q = (lam - p.t * rn) * (lam - p.s * rn) / (rn * rn)
    return rho, q


def transfer_char_coeffs(p: StParams, lam: float, n: int) -> np.ndarray:
    """Exact characteristic polynomial of the transfer matrix, ascending
    coefficients.  Schur reduction of det(transfer - mu I) = 0 gives the
    biquadratic mu^4 + (2 rho - q) mu^2 + rho^2 with rho = ((n-1)/n)^alpha
    and q = (lam - t_n)(lam - s_n) / r_n^2."""
    rho, q = _rho_q(p, lam, n)
    return np.array([rho * rho, 0.0, 2.0 * rho - q, 0.0, 1.0])


def transfer_eigenvalues(p: StParams, lam: float, n: int) -> np.ndarray:
    """The four eigenvalues of the transfer matrix, sorted by (real, imag),
    in closed form from the biquadratic: nu = mu^2 solves
    nu^2 + (2 rho - q) nu + rho^2 = 0, whose discriminant factors as
    q (q - 4 rho).  A real pair is solved in the stable form (the larger
    root with the sign of q - 2 rho, the other as rho^2 / nu1; nu1 != 0
    since rho > 0), a complex pair as conjugates.  The roots come as exact
    +-mu pairs, and conjugate pairs share their real parts bit for bit.
    Their product equals det = ((n-1)/n)^(2 alpha)."""
    rho, q = _rho_q(p, lam, n)
    b = q - 2.0 * rho
    disc = q * (q - 4.0 * rho)
    if disc >= 0.0:
        nu1 = (b + math.copysign(math.sqrt(disc), b)) / 2.0
        m1, m2 = cmath.sqrt(nu1), cmath.sqrt(rho * rho / nu1)
    else:
        m1 = cmath.sqrt(complex(b / 2.0, math.sqrt(-disc) / 2.0))
        m2 = m1.conjugate()
    mu = np.array([m1, -m1, m2, -m2]) + 0.0  # + 0.0 turns -0.0 parts into 0.0
    return mu[np.lexsort((mu.imag, mu.real))]


def decaying_root(p: StParams, lam: float, n: int) -> complex:
    """Root of smallest magnitude.

    The biquadratic roots come in +-mu pairs of equal magnitude, so the
    magnitude classes are what get compared: if the smallest class ties
    with the rest at relative 1e-12 (the elliptic regime, where all four
    magnitudes coincide), that is flagged as an error rather than broken
    silently.  Within the smallest class the representative with the
    largest (real, imag) key is returned.
    """
    mu = transfer_eigenvalues(p, lam, n)
    mags = np.abs(mu)
    m0 = mags.min()
    in_class = mags <= m0 * (1.0 + 1e-12) + 1e-300
    if in_class.all():
        raise ValueError(
            f"ambiguous decaying root at n={n}: all |mu| tie at {m0:.6e}")
    return complex(mu[in_class][-1])  # mu is sorted by (real, imag)


def mu_asymptotic(p: StParams, lam: float, n: int) -> np.ndarray:
    """Large-n transfer eigenvalues on the critical manifold st=4,
    alpha in (1/2, 1), lam < 0:

        -+ [1 +- i sqrt(lam)/2 * sqrt(s+t) * n^(-alpha/2)
              - (s+t) lam / (8 n^alpha)],

    with the O(n^(alpha/2 - 1)) remainder dropped; all four values are real
    for lam < 0 since i*sqrt(lam) = -sqrt(-lam).  Sorted by (real, imag).
    The leftover error decays like n^(alpha/2 - 1).
    """
    if abs(p.s * p.t - 4.0) > 1e-12:
        raise ValueError(f"asymptotic form needs s*t = 4, got {p.s * p.t}")
    if not 0.5 < p.alpha < 1.0:
        raise ValueError(f"asymptotic form needs alpha in (1/2, 1), got {p.alpha}")
    if not lam < 0:
        raise ValueError(f"asymptotic form needs lambda < 0, got {lam}")
    a = 1j * np.sqrt(complex(lam)) / 2.0 * math.sqrt(p.s + p.t) * n ** (-p.alpha / 2)
    h = -(p.s + p.t) * lam / (8.0 * float(n) ** p.alpha)
    vals = np.array([-(1.0 + a + h), -(1.0 - a + h), 1.0 + a + h, 1.0 - a + h])
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


@dataclass(frozen=True)
class LevinsonProfile:
    """Product of decaying-root magnitudes over k = n0..n, next to the
    closed-form comparison exp(-sqrt(-lam (s+t))/2 * n^(1-alpha/2)/(1-alpha/2))."""

    product: float
    closed_form: float
    log_product: float
    log_closed_form: float
    n0: int
    n: int


def levinson_profile(p: StParams, lam: float, n0: int, n: int) -> LevinsonProfile:
    """Decay profile of the small solution; needs the decaying regime
    (|mu_dec(k)| < 1 for every k in the range, else the index is flagged)."""
    if not lam < 0:
        raise ValueError(f"profile needs lambda < 0, got {lam}")
    if not 2 <= n0 <= n:
        raise ValueError(f"need 2 <= n0 <= n, got n0={n0}, n={n}")
    logs = []
    for k in range(n0, n + 1):
        m = abs(decaying_root(p, lam, k))
        if m >= 1.0:
            raise ValueError(
                f"no decaying root at k={k}: smallest |mu| = {m:.6f} >= 1")
        logs.append(math.log(m))
    log_prod = math.fsum(logs)  # correctly rounded: 5000 terms of += lose ~2e-12
    log_cf = -(math.sqrt(-lam * (p.s + p.t)) / 2.0) \
        * n ** (1.0 - p.alpha / 2.0) / (1.0 - p.alpha / 2.0)
    return LevinsonProfile(math.exp(log_prod), math.exp(log_cf),
                           log_prod, log_cf, n0, n)


def jc_lower_bound(s: float, t: float) -> float:
    """Lower spectral bound of the constant-entry comparison operator:
    (st - 4) / ((t+s)/2 + sqrt(((t-s)/2)^2 + 4))."""
    if not (s > 0 and t > 0):
        raise ValueError(f"s, t must be positive, got s={s}, t={t}")
    return (s * t - 4.0) / ((t + s) / 2.0 + math.sqrt(((t - s) / 2.0) ** 2 + 4.0))


class PhaseClass(enum.Enum):
    GAP_UNBOUNDED = "gap_unbounded"
    ESS_EMPTY = "ess_empty"
    ESS_FULL_LINE = "ess_full_line"


def phase_class(s: float, t: float) -> PhaseClass:
    """Spectral phase by the product st: threshold band |st - 4| <= 1e-9
    (semi-bounded, unbounded spectral gap), st > 4 (empty essential
    spectrum), st < 4 (essential spectrum is the whole line)."""
    if not (s > 0 and t > 0):
        raise ValueError(f"s, t must be positive, got s={s}, t={t}")
    prod = s * t
    if abs(prod - 4.0) <= PHASE_TOL:
        return PhaseClass.GAP_UNBOUNDED
    return PhaseClass.ESS_EMPTY if prod > 4.0 else PhaseClass.ESS_FULL_LINE
