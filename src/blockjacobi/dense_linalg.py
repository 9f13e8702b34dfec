"""Self-contained dense numerical kernels.

Hermitian eigendecomposition (cyclic Jacobi rotations), matrix absolute
value and spectral functions, block-tridiagonal LU solves, inertia-based
eigenvalue multisection, inverse iteration, and an Aberth-Ehrlich
polynomial root finder.  Everything here is deterministic: fixed sweep
orders, fixed starting configurations, no randomness.

Spectral queries count eigenvalues below a whole vector of shifts in one
block LDL* sweep.  Each multisection sweep spreads 128 shifts over the open
eigenvalue brackets as levels of halving (127 shifts, 7 levels for a lone
bracket), so one eigenvalue at the default tolerance takes about 7 sweeps
where bisection took about 44, and comes out as the bisection midpoint bit
for bit.  The test suite cross-checks these kernels against LAPACK oracles,
so the library itself avoids np.linalg solvers and eigensolvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigDecomposition",
    "SingularShiftError",
    "RootConvergenceError",
    "hermitian_eig",
    "abs_matrix",
    "spectral_norm",
    "psd_matfunc",
    "vector_norm",
    "BlockTridiagLU",
    "block_tridiag_factor",
    "block_tridiag_solve",
    "tridiag_apply",
    "tridiag_count_below",
    "tridiag_kth_eigenvalue",
    "tridiag_eigs_below",
    "tridiag_inverse_iteration",
    "poly_roots",
]


class SingularShiftError(ArithmeticError):
    """Shift is numerically an eigenvalue: an elimination pivot block is
    singular or ill-conditioned.  Carries the offending 1-based block index."""

    def __init__(self, block_index: int, cond: float):
        self.block_index = block_index
        self.cond = cond
        super().__init__(
            f"singular shift: pivot block {block_index} has condition estimate "
            f"{cond:.3e} (limit 1e12)"
        )


class RootConvergenceError(ArithmeticError):
    """Polynomial root iteration failed to converge; carries residuals."""

    def __init__(self, residuals):
        self.residuals = np.asarray(residuals)
        super().__init__(
            f"root finder did not converge; max residual {self.residuals.max():.3e}"
        )


def vector_norm(x) -> float:
    """Euclidean norm with overflow/underflow-safe scaling (entries can be
    as small as 1e-300 in resolvent tails)."""
    x = np.asarray(x)
    m = float(np.abs(x).max()) if x.size else 0.0
    if m == 0.0 or not np.isfinite(m):
        return m
    y = x / m
    return m * float(np.sqrt((y * y.conj()).real.sum()))


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition: cyclic two-sided Jacobi rotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues ascending; vectors[:, i] is the unit eigenvector of values[i]."""

    values: np.ndarray
    vectors: np.ndarray


def _require_square(M) -> np.ndarray:
    A = np.array(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitian_eig(H, off_tol: float = 1e-14, max_sweeps: int = 100) -> EigDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run in fixed (p, q) lexicographic order until the off-diagonal
    Frobenius mass drops below off_tol * ||H||_F, so results are
    deterministic across runs.  Rejects non-Hermitian input (1e-10 relative).
    """
    A = _require_square(H)
    n = A.shape[0]
    if n == 0:
        return EigDecomposition(np.zeros(0), np.zeros((0, 0), np.complex128))
    amax = float(np.abs(A).max())
    if amax > 0 and float(np.abs(A - A.conj().T).max()) > 1e-10 * amax:
        raise ValueError("matrix is not Hermitian (relative deviation > 1e-10)")
    V = np.eye(n, dtype=np.complex128)
    if amax == 0.0:
        return EigDecomposition(np.zeros(n), V)

    W = (A + A.conj().T) / (2.0 * amax)
    fro = vector_norm(W.ravel())
    target = off_tol * fro
    skip = target / (4.0 * n)

    for _ in range(max_sweeps):
        off = vector_norm((W - np.diag(np.diag(W))).ravel())
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = W[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                app = W[p, p].real
                aqq = W[q, q].real
                ph = apq / r
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # unitary G = [[c, s*ph], [-s*conj(ph), c]] on coordinates (p, q)
                colp = W[:, p].copy()
                colq = W[:, q].copy()
                W[:, p] = c * colp - s * np.conj(ph) * colq
                W[:, q] = s * ph * colp + c * colq
                rowp = W[p, :].copy()
                rowq = W[q, :].copy()
                W[p, :] = c * rowp - s * ph * rowq
                W[q, :] = s * np.conj(ph) * rowp + c * rowq
                W[p, q] = 0.0
                W[q, p] = 0.0
                W[p, p] = W[p, p].real
                W[q, q] = W[q, q].real
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * np.conj(ph) * vq
                V[:, q] = s * ph * vp + c * vq
    else:
        raise ArithmeticError("Jacobi eigensolver did not converge")

    w = np.real(np.diag(W)) * amax
    order = np.argsort(w, kind="stable")
    w = w[order]
    V = V[:, order]
    # fix a deterministic phase: largest-magnitude component real positive
    for i in range(n):
        j = int(np.argmax(np.abs(V[:, i])))
        piv = V[j, i]
        if piv != 0:
            V[:, i] *= np.conj(piv) / abs(piv)
    return EigDecomposition(w, V)


def abs_matrix(A) -> np.ndarray:
    """|A| = (A* A)^(1/2), Hermitian positive semidefinite."""
    A = _require_square(A)
    m = float(np.abs(A).max())
    if m == 0.0:
        return np.zeros_like(A)
    B = A / m
    H = B.conj().T @ B
    dec = hermitian_eig(H)
    w = np.sqrt(np.clip(dec.values, 0.0, None)) * m
    S = (dec.vectors * w) @ dec.vectors.conj().T
    return (S + S.conj().T) / 2.0


def spectral_norm(A) -> float:
    """Largest singular value (operator 2-norm), scale-safe."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim == 1:
        A = A[None, :]
    m = float(np.abs(A).max()) if A.size else 0.0
    if m == 0.0:
        return 0.0
    B = A / m
    H = B.conj().T @ B
    dec = hermitian_eig(H)
    return m * float(np.sqrt(max(dec.values[-1], 0.0)))


def psd_matfunc(H, f) -> np.ndarray:
    """Spectral function f(H) of a Hermitian PSD matrix.

    Eigenvalues in [-1e-12*||H||, 0) are clamped to 0 (PSD only up to
    roundoff); genuinely negative spectrum is rejected, as is f undefined
    or non-finite at some eigenvalue.
    """
    dec = hermitian_eig(H)
    w = dec.values
    hnorm = float(np.abs(w).max()) if w.size else 0.0
    if w.size and w[0] < -1e-12 * max(hnorm, 1e-300):
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    try:
        fw = np.array([f(x) for x in w], dtype=np.complex128)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"function undefined at an eigenvalue: {exc}") from exc
    if not np.all(np.isfinite(fw)):
        raise ValueError("function not finite at some eigenvalue")
    S = (dec.vectors * fw) @ dec.vectors.conj().T
    return (S + S.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Small dense LU (partial pivoting) for pivot blocks
# ---------------------------------------------------------------------------

def _lu_factor_small(M):
    """Returns (LU, piv) or None if exactly singular."""
    LU = np.array(M, dtype=np.complex128)
    n = LU.shape[0]
    piv = np.arange(n)
    for k in range(n):
        i = k + int(np.argmax(np.abs(LU[k:, k])))
        if LU[i, k] == 0:
            return None
        if i != k:
            LU[[k, i], :] = LU[[i, k], :]
            piv[[k, i]] = piv[[i, k]]
        if k < n - 1:
            LU[k + 1:, k] /= LU[k, k]
            LU[k + 1:, k + 1:] -= np.outer(LU[k + 1:, k], LU[k, k + 1:])
    return LU, piv


def _lu_solve_small(fac, B):
    LU, piv = fac
    n = LU.shape[0]
    X = np.array(B, dtype=np.complex128)
    if X.ndim == 1:
        X = X[:, None]
    X = X[piv, :]
    for k in range(1, n):
        X[k, :] -= LU[k, :k] @ X[:k, :]
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            X[k, :] -= LU[k, k + 1:] @ X[k + 1:, :]
        X[k, :] /= LU[k, k]
    return X


def _inv_small(fac, d):
    return _lu_solve_small(fac, np.eye(d, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Block-tridiagonal LU (no inter-block pivoting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockTridiagLU:
    """Factorization of (T - shift*I) for Hermitian block tridiagonal T.

    Forward elimination D_1 = B_1 - shift*I,
    D_k = B_k - shift*I - A_{k-1}^* D_{k-1}^{-1} A_{k-1}.
    transform_blocks[k] = D_{k+1}^{-1} A_{k+1} (back substitution),
    forward_blocks[k] = A_{k+1}^* D_{k+1}^{-1} (forward substitution),
    both 0-based over k = 0..N-2.
    """

    shift: complex
    nblocks: int
    dim: int
    pivot_blocks: tuple
    pivot_factors: tuple
    transform_blocks: tuple
    forward_blocks: tuple
    cond_estimates: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """Solve (T - shift*I) X = rhs for rhs of shape (N*d, m) or (N*d,)."""
        N, d = self.nblocks, self.dim
        R = np.asarray(rhs, dtype=np.complex128)
        squeeze = R.ndim == 1
        if squeeze:
            R = R[:, None]
        if R.shape[0] != N * d:
            raise ValueError(f"rhs has {R.shape[0]} rows, expected {N * d}")
        y = R.reshape(N, d, -1).copy()
        for k in range(1, N):
            y[k] -= self.forward_blocks[k - 1] @ y[k - 1]
        x = np.empty_like(y)
        x[N - 1] = _lu_solve_small(self.pivot_factors[N - 1], y[N - 1])
        for k in range(N - 2, -1, -1):
            x[k] = _lu_solve_small(self.pivot_factors[k], y[k]) - \
                self.transform_blocks[k] @ x[k + 1]
        out = x.reshape(N * d, -1)
        return out[:, 0] if squeeze else out


def _unpack_blocks(trunc):
    """Accept a Truncation-like object (diag_blocks/offdiag_blocks attributes)
    or a plain (diag_blocks, offdiag_blocks) pair."""
    if hasattr(trunc, "diag_blocks"):
        return trunc.diag_blocks, trunc.offdiag_blocks
    diag_blocks, offdiag_blocks = trunc
    return diag_blocks, offdiag_blocks


def block_tridiag_factor(trunc, shift,
                         cond_limit: float = 1e12,
                         check_conditioning: bool = True) -> BlockTridiagLU:
    """Factor (T - shift*I) by block forward elimination.

    With check_conditioning, a pivot block whose condition estimate exceeds
    cond_limit raises SingularShiftError (structure-preserving: no repair is
    attempted).  Without it, singular pivots are nudged by a tiny multiple
    of the problem scale so that shifts arbitrarily close to eigenvalues
    remain usable (inverse iteration relies on this).
    """
    diag_blocks, offdiag_blocks = _unpack_blocks(trunc)
    N = len(diag_blocks)
    if N == 0:
        raise ValueError("empty truncation")
    d = diag_blocks[0].shape[0]
    I = np.eye(d, dtype=np.complex128)
    scale = max(max(float(np.abs(B).max()) for B in diag_blocks),
                max((float(np.abs(A).max()) for A in offdiag_blocks), default=0.0),
                abs(shift), 1e-300)
    bump = 1e-13 * scale

    pivots, factors, transforms, forwards = [], [], [], []
    conds = np.empty(N)
    D = np.array(diag_blocks[0], dtype=np.complex128) - shift * I
    for k in range(N):
        fac = _lu_factor_small(D)
        if fac is None:
            if check_conditioning:
                raise SingularShiftError(k + 1, np.inf)
            D = D + bump * I
            fac = _lu_factor_small(D)
            if fac is None:
                raise SingularShiftError(k + 1, np.inf)
        Dinv = _inv_small(fac, d)
        # singular shifts surface as pivots tiny against the problem scale,
        # so the estimate is scale-relative (a bare sigma_max/sigma_min is
        # blind to them for well-conditioned small blocks, e.g. any d = 1)
        cond = max(spectral_norm(D), scale) * spectral_norm(Dinv)
        conds[k] = cond
        if check_conditioning and cond > cond_limit:
            raise SingularShiftError(k + 1, cond)
        pivots.append(D)
        factors.append(fac)
        if k < N - 1:
            A = np.asarray(offdiag_blocks[k], dtype=np.complex128)
            transforms.append(Dinv @ A)
            forwards.append(A.conj().T @ Dinv)
            D = np.asarray(diag_blocks[k + 1], dtype=np.complex128) - shift * I \
                - A.conj().T @ (Dinv @ A)
    return BlockTridiagLU(shift, N, d, tuple(pivots), tuple(factors),
                          tuple(transforms), tuple(forwards), conds)


def block_tridiag_solve(trunc, shift, rhs) -> np.ndarray:
    """One-shot factor + solve of (T - shift*I) X = rhs."""
    return block_tridiag_factor(trunc, shift).solve(rhs)


def tridiag_apply(trunc, x) -> np.ndarray:
    """Matrix-vector product T @ x for the assembled block tridiagonal."""
    diag_blocks, offdiag_blocks = _unpack_blocks(trunc)
    N = len(diag_blocks)
    d = diag_blocks[0].shape[0]
    X = np.asarray(x, dtype=np.complex128)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    Xb = X.reshape(N, d, -1)
    Y = np.empty_like(Xb)
    for k in range(N):
        Y[k] = diag_blocks[k] @ Xb[k]
        if k > 0:
            Y[k] += offdiag_blocks[k - 1].conj().T @ Xb[k - 1]
        if k < N - 1:
            Y[k] += offdiag_blocks[k] @ Xb[k + 1]
    out = Y.reshape(N * d, -1)
    return out[:, 0] if squeeze else out


# ---------------------------------------------------------------------------
# Inertia counts and eigenvalue multisection (Sturm sequence on blocks)
# ---------------------------------------------------------------------------
#
# The count recurrence runs once for a whole vector of shifts.  Every step
# is elementwise along the shift axis and spells complex arithmetic out in
# real and imaginary parts (numpy's vectorized complex multiply may fuse
# operations in some lanes and not in others), so a shift's count is bitwise
# the same alone or in any batch: counts are computed one way on every path
# (Demmel, Dhillon & Ren, ETNA 3, 1995), and multisection relies on that to
# reproduce bisection exactly.

# shifts per inertia sweep, spread over the open brackets (Lo, Philippe &
# Sameh, SIAM J. Sci. Stat. Comput. 8, 1987).  A lone bracket gets 127 of
# them, 7 levels of halving; at N = 300, d = 2 such a sweep costs about 1.5
# times a single-shift one
_SHIFTS_PER_SWEEP = 128


def _herm2_mid_rad(a, c, zz):
    """Eigenvalues mid -+ rad of the Hermitian [[a, z], [conj z, c]] with
    zz = |z|^2, in closed form (elementwise on arrays)."""
    h = 0.5 * (a - c)
    return 0.5 * (a + c), np.sqrt(h * h + zz)


def _herm_eigvals_small(D) -> np.ndarray:
    d = D.shape[0]
    if d == 1:
        return np.array([D[0, 0].real])
    if d == 2:
        mid, rad = _herm2_mid_rad(D[0, 0].real, D[1, 1].real, abs(D[0, 1]) ** 2)
        return np.array([mid - rad, mid + rad])
    return hermitian_eig(D).values


def _block_scale(diag_blocks, offdiag_blocks) -> float:
    return max(float(np.abs(np.asarray(diag_blocks)).max()),
               float(np.abs(np.asarray(offdiag_blocks)).max(initial=0.0)),
               1e-300)


def _stack_blocks(trunc):
    """Diagonal and off-diagonal blocks as (N, d, d) and (N-1, d, d) arrays."""
    diag_blocks, offdiag_blocks = _unpack_blocks(trunc)
    B = np.asarray(diag_blocks, dtype=np.complex128)
    N, d = B.shape[0], B.shape[1]
    A = np.asarray(offdiag_blocks, dtype=np.complex128).reshape(N - 1, d, d)
    return B, A


def _count_d1(B, A, x, bump):
    b = B[:, 0, 0].real
    g = abs(A[:, 0, 0]) ** 2
    two_bump = 2.0 * bump
    N = b.size
    negative = np.empty((N, x.size), dtype=bool)
    D = b[0] - x
    for k in range(N):
        np.less(D, 0.0, out=negative[k])
        if k == N - 1:
            break
        D = D + (np.abs(D) < bump) * two_bump
        D = D + (D == 0.0) * two_bump
        D = (b[k + 1] - x) - g[k] / D
    return np.count_nonzero(negative, axis=0)


def _schur_coeffs_d2(A):
    """Coefficients of the Schur complements M = A_k^* D^{-1} A_k for a
    Hermitian pivot D = [[a, z], [conj z, c]]: with P = (a, c, Re z, Im z)
    / det D, the rows (M00, M11, Re M01, Im M01) are sum_j coef[k, j] P[j]."""
    a00, a01, a10, a11 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    u = a00.conj() * a01
    v = a10.conj() * a11
    w0 = a00.conj() * a10
    w1 = a01.conj() * a11
    s = a00.conj() * a11
    t = a10.conj() * a01
    coef = np.stack([
        np.stack([abs(a10) ** 2, abs(a11) ** 2, v.real, v.imag], axis=1),
        np.stack([abs(a00) ** 2, abs(a01) ** 2, u.real, u.imag], axis=1),
        np.stack([-2.0 * w0.real, -2.0 * w1.real, -(s + t).real,
                  -(s + t).imag], axis=1),
        np.stack([2.0 * w0.imag, 2.0 * w1.imag, (s - t).imag, (t - s).real],
                 axis=1),
    ], axis=1)
    return coef[..., None]


def _count_d2(B, A, x, bump):
    # the Hermitian pivot D = [[a, z], [conj z, c]] is kept as the rows
    # X = (a, c, Re z, Im z) of a (4, S) array
    z = 0.5 * (B[:, 0, 1] + B[:, 1, 0].conj())
    base = np.stack([B[:, 0, 0].real, B[:, 1, 1].real, z.real, z.imag],
                    axis=1)[:, :, None]
    coef = [tuple(cf) for cf in _schur_coeffs_d2(A)]
    shift = np.zeros((4, x.size))
    shift[:2] = x
    two_bump = 2.0 * bump
    N = base.shape[0]
    # pivot eigenvalues mid - rad and mid + rad below zero
    lo_negative = np.empty((N, x.size), dtype=bool)
    hi_negative = np.empty((N, x.size), dtype=bool)
    X = base[0] - shift
    for k in range(N):
        a, c, zr, zi = X
        zz = zr * zr + zi * zi
        mid, rad = _herm2_mid_rad(a, c, zz)
        np.less(mid, rad, out=lo_negative[k])
        np.less(mid, -rad, out=hi_negative[k])
        if k == N - 1:
            break
        # min |eigenvalue| = ||mid| - rad|
        X[:2] += (np.abs(np.abs(mid) - rad) < bump) * two_bump
        det = X[0] * X[1] - zz
        if not det.all():  # a pivot still exactly singular: nudge again
            X[:2] += (det == 0.0) * two_bump
            det = X[0] * X[1] - zz
        P = X / det
        c0, c1, c2, c3 = coef[k]
        X = (base[k + 1] - shift) - (c0 * P[0] + c1 * P[1] + c2 * P[2] + c3 * P[3])
    return np.count_nonzero(lo_negative, axis=0) + \
        np.count_nonzero(hi_negative, axis=0)


def _herm_eigvals_batched(Dr, Di) -> np.ndarray:
    """Eigenvalues (unsorted, shape (S, n)) of S Hermitian matrices given by
    real and imaginary parts, by the cyclic Jacobi rotations of hermitian_eig
    with its default tolerances.  Each member stops rotating once its own
    off-diagonal mass is small."""
    off_tol, max_sweeps = 1e-14, 100
    S, n, _ = Dr.shape
    amax = np.sqrt((Dr * Dr + Di * Di).max(axis=(1, 2)))
    scale = np.where(amax > 0.0, amax, 1.0)[:, None, None]
    Wr = Dr / scale
    Wi = Di / scale
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]

    def sq(i, j):
        return Wr[:, i, j] * Wr[:, i, j] + Wi[:, i, j] * Wi[:, i, j]

    fro2 = np.zeros(S)
    for i in range(n):
        for j in range(n):
            fro2 = fro2 + sq(i, j)
    target2 = off_tol * off_tol * fro2
    skip = off_tol * np.sqrt(fro2) / (4.0 * n)
    for _ in range(max_sweeps):
        off2 = np.zeros(S)
        for p, q in pairs:
            off2 = off2 + 2.0 * sq(p, q)
        active = off2 > target2
        if not active.any():
            break
        for p, q in pairs:
            ar, ai = Wr[:, p, q], Wi[:, p, q]
            r = np.sqrt(ar * ar + ai * ai)
            rot = active & (r > skip)
            if not rot.any():
                continue
            r = np.where(rot, r, 1.0)
            tau = (Wr[:, q, q] - Wr[:, p, p]) / (2.0 * r)
            root = np.sqrt(1.0 + tau * tau)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + root)
            c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
            s = t[:, None] * c
            spr = s * (ar / r)[:, None]  # s * ph, ph = a_pq / |a_pq|
            spi = s * (ai / r)[:, None]
            Vr, Vi = Wr.copy(), Wi.copy()
            # columns: W G with G = [[c, s ph], [-s conj(ph), c]] on (p, q)
            cpr, cpi, cqr, cqi = Vr[:, :, p].copy(), Vi[:, :, p].copy(), \
                Vr[:, :, q].copy(), Vi[:, :, q].copy()
            Vr[:, :, p] = c * cpr - (spr * cqr + spi * cqi)
            Vi[:, :, p] = c * cpi - (spr * cqi - spi * cqr)
            Vr[:, :, q] = (spr * cpr - spi * cpi) + c * cqr
            Vi[:, :, q] = (spr * cpi + spi * cpr) + c * cqi
            # rows: G^* W
            rpr, rpi, rqr, rqi = Vr[:, p, :].copy(), Vi[:, p, :].copy(), \
                Vr[:, q, :].copy(), Vi[:, q, :].copy()
            Vr[:, p, :] = c * rpr - (spr * rqr - spi * rqi)
            Vi[:, p, :] = c * rpi - (spr * rqi + spi * rqr)
            Vr[:, q, :] = (spr * rpr + spi * rpi) + c * rqr
            Vi[:, q, :] = (spr * rpi - spi * rpr) + c * rqi
            Vr[:, p, q] = Vr[:, q, p] = 0.0
            Vi[:, p, q] = Vi[:, q, p] = 0.0
            Vi[:, p, p] = Vi[:, q, q] = 0.0
            sel = rot[:, None, None]
            Wr = np.where(sel, Vr, Wr)
            Wi = np.where(sel, Vi, Wi)
    else:
        raise ArithmeticError("Jacobi eigensolver did not converge")
    return Wr[:, np.arange(n), np.arange(n)] * scale[:, :, 0]


def _lu_solve_batched(Dr, Di, Rr, Ri):
    """Solve D Y = R for S matrices D (real and imaginary parts, (S, d, d))
    and one right-hand side R, by the partial-pivoting elimination of
    _lu_factor_small.  Returns Y and a per-member exactly-singular flag."""
    S, d, _ = Dr.shape
    Wr = np.concatenate([Dr, np.broadcast_to(Rr, (S,) + Rr.shape)], axis=2)
    Wi = np.concatenate([Di, np.broadcast_to(Ri, (S,) + Ri.shape)], axis=2)
    members = np.arange(S)
    singular = np.zeros(S, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(d):
            i = k + np.argmax(Wr[:, k:, k] ** 2 + Wi[:, k:, k] ** 2, axis=1)
            for W in (Wr, Wi):
                row = W[members, k].copy()
                W[members, k] = W[members, i]
                W[members, i] = row
            pr, pi = Wr[:, k, k, None], Wi[:, k, k, None]
            singular |= (pr[:, 0] == 0.0) & (pi[:, 0] == 0.0)
            den = pr * pr + pi * pi
            lr = (Wr[:, k + 1:, k] * pr + Wi[:, k + 1:, k] * pi) / den
            li = (Wi[:, k + 1:, k] * pr - Wr[:, k + 1:, k] * pi) / den
            ur, ui = Wr[:, None, k, k + 1:], Wi[:, None, k, k + 1:]
            lr, li = lr[:, :, None], li[:, :, None]
            Wr[:, k + 1:, k + 1:] -= lr * ur - li * ui
            Wi[:, k + 1:, k + 1:] -= lr * ui + li * ur
        Yr = np.empty((S, d, Rr.shape[1]))
        Yi = np.empty_like(Yr)
        for k in range(d - 1, -1, -1):
            tr, ti = Wr[:, k, d:].copy(), Wi[:, k, d:].copy()
            for j in range(k + 1, d):
                ur, ui = Wr[:, k, j, None], Wi[:, k, j, None]
                tr -= ur * Yr[:, j] - ui * Yi[:, j]
                ti -= ur * Yi[:, j] + ui * Yr[:, j]
            pr, pi = Wr[:, k, k, None], Wi[:, k, k, None]
            den = pr * pr + pi * pi
            Yr[:, k] = (tr * pr + ti * pi) / den
            Yi[:, k] = (ti * pr - tr * pi) / den
    return Yr, Yi, singular


def _count_general(B, A, x, bump):
    N, d = B.shape[0], B.shape[1]
    eye = np.eye(d)
    xI = x[:, None, None] * eye
    two_bump = (2.0 * bump)[:, None, None] * eye
    neg = np.zeros(x.size, dtype=np.int64)
    Dr = B[0].real - xI
    Di = np.broadcast_to(B[0].imag, Dr.shape)
    for k in range(N):
        Dr = 0.5 * (Dr + Dr.transpose(0, 2, 1))
        Di = 0.5 * (Di - Di.transpose(0, 2, 1))
        ev = _herm_eigvals_batched(Dr, Di)
        neg += np.count_nonzero(ev < 0.0, axis=1)
        if k == N - 1:
            break
        Dr = Dr + np.where((np.abs(ev).min(axis=1) < bump)[:, None, None],
                           two_bump, 0.0)
        Ar, Ai = A[k].real, A[k].imag
        Yr, Yi, singular = _lu_solve_batched(Dr, Di, Ar, Ai)
        if singular.any():
            Dr[singular] += two_bump[singular]
            Yr[singular], Yi[singular], _ = _lu_solve_batched(
                Dr[singular], Di[singular], Ar, Ai)
        # M = A^* Y, summed term by term over the inner index
        Mr = np.zeros_like(Yr)
        Mi = np.zeros_like(Yr)
        for j in range(d):
            hr, hi = Ar[j][None, :, None], -Ai[j][None, :, None]
            yr, yi = Yr[:, j][:, None, :], Yi[:, j][:, None, :]
            Mr = Mr + (hr * yr - hi * yi)
            Mi = Mi + (hr * yi + hi * yr)
        Dr = (B[k + 1].real - xI) - Mr
        Di = B[k + 1].imag - Mi
    return neg


def tridiag_count_below(trunc, x):
    """Number of eigenvalues of T strictly below x, via the inertia of the
    block LDL* pivots (Sylvester's law; no inter-block pivoting).

    x is a scalar (returns an int) or a 1-d array of shifts (returns an int
    array); the recurrence runs once for all shifts.  A pivot whose smallest
    |eigenvalue| is below bump = 1e-13 * max(scale, |x|) is nudged by
    2 * bump * I before elimination, and again if still exactly singular.
    """
    B, A = _stack_blocks(trunc)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"shifts must be a scalar or 1-d, got shape {xs.shape}")
    shifts = np.atleast_1d(xs)
    bump = 1e-13 * np.maximum(_block_scale(B, A), np.abs(shifts))
    d = B.shape[1]
    count = {1: _count_d1, 2: _count_d2}.get(d, _count_general)
    neg = count(B, A, shifts, bump)
    return int(neg[0]) if xs.ndim == 0 else neg


def _gershgorin_bounds(B, A):
    """Block Gershgorin bracket of the spectrum: each diagonal block's
    eigenvalues widened by ||A_{k-1}|| + ||A_k||."""
    norms = [spectral_norm(Ak) for Ak in A]
    r = np.zeros(B.shape[0])
    r[1:] += norms
    r[:-1] += norms
    ev = [_herm_eigvals_small(Bk) for Bk in B]
    return (float(min(e[0] - rk for e, rk in zip(ev, r))),
            float(max(e[-1] + rk for e, rk in zip(ev, r))))


def _halvings(brackets, depth: int) -> np.ndarray:
    """Rows of 2**depth + 1 points cutting each bracket by repeated halving;
    every inner point is 0.5 * (left + right) of the two points it splits."""
    edges = np.array(brackets, dtype=float)
    for _ in range(depth):
        finer = np.empty((edges.shape[0], 2 * edges.shape[1] - 1))
        finer[:, ::2] = edges
        finer[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
        edges = finer
    return edges


def _multisection(blocks, ks, tol):
    """Eigenvalues k in ks (1-based) as midpoints of brackets no wider than
    tol (default 1e-13 * max(1, |lo|, |hi|) over the Gershgorin bracket).

    Every index starts on the widened Gershgorin bracket; indices sharing an
    open bracket share its shifts.  Each sweep cuts every open bracket by as
    many levels of halving as _SHIFTS_PER_SWEEP shifts allow and counts all
    the cut points in one call.  Each index then descends the levels exactly
    as bisection would, stopping once its bracket is no wider than tol, so
    the result is the bisection midpoint bit for bit, in fewer sweeps.
    """
    lo, hi = _gershgorin_bounds(*blocks)
    if tol is None:
        tol = 1e-13 * max(1.0, abs(lo), abs(hi))
    brackets = [(lo - tol, hi + tol)] * len(ks)
    while True:
        open_ = sorted({br for br in brackets if br[1] - br[0] > tol})
        if not open_:
            return np.array([0.5 * (l + h) for l, h in brackets])
        # 2**depth - 1 shifts per open bracket, at least one level
        depth = max(1, (_SHIFTS_PER_SWEEP // len(open_) + 1).bit_length() - 1)
        edges = _halvings(open_, depth)
        counts = tridiag_count_below(blocks, edges[:, 1:-1].ravel())
        row = {br: (e, c) for br, e, c in zip(
            open_, edges.tolist(), counts.reshape(len(open_), -1).tolist())}
        for i, (k, br) in enumerate(zip(ks, brackets)):
            if br not in row:
                continue
            e, c = row[br]
            a, b = 0, len(e) - 1
            while b - a > 1 and e[b] - e[a] > tol:
                mid = (a + b) // 2
                if c[mid - 1] >= k:
                    b = mid
                else:
                    a = mid
            brackets[i] = (e[a], e[b])


def tridiag_kth_eigenvalue(trunc, k: int, tol: float | None = None) -> float:
    """k-th smallest eigenvalue (1-based) by inertia multisection."""
    B, A = _stack_blocks(trunc)
    n = B.shape[0] * B.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"eigenvalue index {k} out of range 1..{n}")
    return float(_multisection((B, A), [k], tol)[0])


def tridiag_eigs_below(trunc, b: float, tol: float | None = None) -> np.ndarray:
    """All eigenvalues of T strictly below b, ascending."""
    blocks = _stack_blocks(trunc)
    count = tridiag_count_below(blocks, b)
    if count == 0:
        return np.zeros(0)
    return _multisection(blocks, list(range(1, count + 1)), tol)


def tridiag_inverse_iteration(trunc, lam: float,
                              start=None, n_iter: int = 6,
                              ortho=()) -> tuple[np.ndarray, float]:
    """Unit eigenvector for an eigenvalue estimate lam, plus Rayleigh value.

    Solves against a shift nudged off lam by 1e-11 * scale.  Starting from a
    vector supported on the first block keeps the exponentially small tail
    componentwise accurate (the back substitution propagates relative, not
    absolute, precision).  Vectors in `ortho` are projected out each step,
    which resolves members of a degenerate cluster one at a time.
    """
    blocks = _unpack_blocks(trunc)
    diag_blocks, offdiag_blocks = blocks
    N = len(diag_blocks)
    d = diag_blocks[0].shape[0]
    scale = max(_block_scale(diag_blocks, offdiag_blocks), abs(lam))
    sigma = lam + 1e-11 * scale
    lu = block_tridiag_factor(blocks, sigma, check_conditioning=False)
    if start is None:
        x = np.zeros(N * d, dtype=np.complex128)
        x[:d] = 1.0 / np.sqrt(d)
    else:
        x = np.asarray(start, dtype=np.complex128).copy()
    for _ in range(n_iter):
        x = lu.solve(x)
        for o in ortho:
            x = x - (np.vdot(o, x)) * o
        nrm = vector_norm(x)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ArithmeticError("inverse iteration produced a null vector")
        x = x / nrm
    rq = float(np.real(np.vdot(x, tridiag_apply(blocks, x))))
    return x, rq


# ---------------------------------------------------------------------------
# Polynomial roots: Aberth-Ehrlich simultaneous iteration
# ---------------------------------------------------------------------------

def _horner(coeffs_desc, z):
    p = np.full_like(z, coeffs_desc[0])
    for c in coeffs_desc[1:]:
        p = p * z + c
    return p


def poly_roots(coeffs, max_iter: int = 300) -> np.ndarray:
    """All complex roots of p(z) = sum_i coeffs[i] * z^i, degree <= 8.

    Aberth-Ehrlich iteration started on a circle of radius
    1 + max|c_i / c_lead| with a fixed 0.4 rad angular offset, so runs are
    deterministic.  Roots come back sorted by (real, imag).  Residuals are
    validated against 1e-10 times a per-root magnitude scale; failure to
    converge raises RootConvergenceError.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty 1-d sequence")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    deg = c.size - 1
    if deg > 8:
        raise ValueError("degree > 8 not supported")
    if deg == 0:
        return np.zeros(0, dtype=np.complex128)

    radius = 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    z = radius * np.exp(1j * angles)
    cd = c[::-1]
    dd = (c[1:] * np.arange(1, deg + 1))[::-1]

    converged = False
    for _ in range(max_iter):
        p = _horner(cd, z)
        dp = _horner(dd, z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv_sum = (1.0 / diff).sum(axis=1) - 1.0  # remove the diagonal 1/1 terms
        corr = w / (1.0 - w * inv_sum)
        z = z - corr
        if np.all(np.abs(corr) <= 1e-14 * (1.0 + np.abs(z))):
            converged = True
            break

    res = np.abs(_horner(cd, z))
    scale = _horner(np.abs(cd), np.abs(z))
    if not converged and np.any(res > 1e-10 * np.maximum(scale, 1e-300)):
        raise RootConvergenceError(res)
    order = np.lexsort((z.imag, z.real))
    return z[order]
