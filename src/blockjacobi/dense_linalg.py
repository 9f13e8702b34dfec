"""Self-contained dense numerical kernels.

Hermitian eigendecomposition (cyclic Jacobi rotations), matrix absolute
value and spectral functions, block-tridiagonal LU solves, inertia-based
eigenvalue multisection and inverse iteration.  Everything here is
deterministic: fixed sweep orders, fixed starting configurations, no
randomness.  The block-tridiagonal kernels take a Truncation and read its
complex128 arrays diag_blocks (N, d, d) and offdiag_blocks (N-1, d, d).

Spectral queries count eigenvalues below a whole vector of shifts in one
block LDL* sweep, which stops once the rest of the matrix cannot add a
negative pivot.  Each multisection sweep spreads 128 shifts over the open
eigenvalue brackets as levels of halving (127 shifts, 7 levels for a lone
bracket), so one eigenvalue at the default tolerance takes about 7 sweeps
where bisection took about 44, and comes out as the bisection midpoint bit
for bit.  The cyclic Jacobi runs on whole stacks (S, n, n) for every n,
one matrix being the S = 1 case, so each member is bitwise what it gives
alone.  Block norms are stacked on it: spectral_norm maps one matrix to a
float and a stack (S, m, n) to an (S,) array through one hermitian_eig
call.  The block LU is shift-batched: a grid of shifts shares one
elimination over (S, d, d) stacks and one solve, each shift bitwise what it
is alone (a scalar is the S = 1 case).  The test suite cross-checks these
kernels against LAPACK oracles, so the library itself calls no LAPACK
solver or eigensolver.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigDecomposition",
    "SingularShiftError",
    "hermitian_eig",
    "abs_matrix",
    "spectral_norm",
    "psd_matfunc",
    "vector_norm",
    "BlockTridiagLU",
    "block_scale",
    "block_tridiag_factor",
    "tridiag_apply",
    "tridiag_count_below",
    "tridiag_kth_eigenvalue",
    "tridiag_eigs_below",
    "tridiag_inverse_iteration",
]

# Jacobi rotations stop below JACOBI_OFF_TOL * ||H||_F of off-diagonal mass
# or fail after JACOBI_MAX_SWEEPS sweeps; a checked factorization refuses a
# pivot condition estimate above COND_LIMIT; a subnormal scale (below _TINY)
# is prescaled by the power of two _PRESCALE
JACOBI_OFF_TOL, JACOBI_MAX_SWEEPS = 1e-14, 100
_TINY, _PRESCALE = np.finfo(float).tiny, 2.0 ** 64
COND_LIMIT = 1e12


class SingularShiftError(ArithmeticError):
    """Shift is numerically an eigenvalue: an elimination pivot block is
    singular or ill-conditioned.  Carries the offending 1-based block index."""

    def __init__(self, block_index: int, cond: float):
        self.block_index = block_index
        self.cond = cond
        super().__init__(
            f"singular shift: pivot block {block_index} has condition estimate "
            f"{cond:.3e} (limit {COND_LIMIT:.0e})"
        )


def _subnormal_prescale(X, m):
    """X (S, ...) and its members' largest magnitudes m (S,), each member
    whose 1 / m overflows (a subnormal m) scaled by the exact power of two
    _PRESCALE so that X / m stays finite; other members are untouched."""
    with np.errstate(all="ignore"):
        tiny = (m > 0.0) & np.isinf(1.0 / m)
        if tiny.any():
            up = tiny.reshape((-1,) + (1,) * (X.ndim - 1))
            X, m = np.where(up, X * _PRESCALE, X), np.where(tiny, m * _PRESCALE, m)
    return X, m


def vector_norm(x):
    """Euclidean norm with overflow/underflow-safe scaling (entries can be as
    small as 1e-300 in resolvent tails, or subnormal): a float, or for a 2-d
    x the (S,) norms of its rows, each bitwise what that row gives alone."""
    x = np.asarray(x)
    X = x if x.ndim == 2 else x.reshape(1, -1)
    m = np.abs(X).max(axis=1, initial=0.0)
    ok = (m > 0.0) & np.isfinite(m)
    Xs, ms = _subnormal_prescale(X, m)
    with np.errstate(invalid="ignore"):
        y = Xs / np.where(ok, ms, 1.0)[:, None]
        norms = np.where(ok, m * np.sqrt((y * y.conj()).real.sum(axis=1)), m)
    return norms if x.ndim == 2 else float(norms[0])


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


def hermitian_eig(H) -> EigDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run in fixed (p, q) lexicographic order until the off-diagonal
    Frobenius mass drops below JACOBI_OFF_TOL * ||H||_F, so results are
    deterministic across runs.  Rejects non-Hermitian input (1e-10 relative)
    and raises ArithmeticError at once for non-finite input.

    A stack (S, n, n) gives values (S, n) and vectors (S, n, n) from one
    stacked Jacobi; one matrix is the S = 1 case, so every member is bitwise
    what it gives alone.
    """
    if np.ndim(H) == 3:
        return _jacobi(np.asarray(H, dtype=np.complex128))
    dec = _jacobi(_require_square(H)[None])
    return EigDecomposition(dec.values[0], dec.vectors[0])


def _jacobi(A) -> EigDecomposition:
    """The cyclic Jacobi of hermitian_eig on every member of an (S, n, n)
    stack, each member rotating until its own off-diagonal mass is below
    target, in complex array operations only.  abs() of one complex a_pq or
    phase pivot is hypot(Re, Im); np.abs on an array (a SIMD loop) differs
    from it by one ulp on many entries, so it only reduces whole arrays."""
    S, n, n2 = A.shape
    if n != n2:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    if n == 0:
        return EigDecomposition(np.zeros((S, 0)), np.zeros((S, 0, 0), np.complex128))
    amax = np.abs(A).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(amax).all():
        raise ArithmeticError("Jacobi eigensolver did not converge")
    AH = A.conj().transpose(0, 2, 1)
    if (np.abs(A - AH).max(axis=(1, 2), initial=0.0) > 1e-10 * amax).any():
        raise ValueError("matrix is not Hermitian (relative deviation > 1e-10)")
    # W over V: a rotation's column update is the same on both
    X = np.concatenate([(A + AH) / np.where(amax > 0.0, 2.0 * amax, 1.0)[:, None, None],
                        np.broadcast_to(np.eye(n, dtype=np.complex128), (S, n, n))], axis=1)
    target = JACOBI_OFF_TOL * vector_norm(X[:, :n].reshape(S, n * n))
    skip = target / (4.0 * n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = vector_norm(np.where(np.eye(n, dtype=bool), 0.0, X[:, :n]).reshape(S, n * n))
        active = ~(off <= target)
        if not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = X[:, p, q]
                r = np.hypot(apq.real, apq.imag)
                rot = active & (r > skip)
                if not rot.any():
                    continue
                Y, r = X[rot], r[rot]
                ph = apq[rot] / r
                tau = (Y[:, q, q].real - Y[:, p, p].real) / (2.0 * r)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                c, sp, sq = c[:, None], (s * ph)[:, None], (s * np.conj(ph))[:, None]
                # G = [[c, s ph], [-s conj(ph), c]] on (p, q): W G and V G, then G^* W G
                colp, colq = Y[:, :, p].copy(), Y[:, :, q].copy()
                Y[:, :, p] = c * colp - sq * colq
                Y[:, :, q] = sp * colp + c * colq
                rowp, rowq = Y[:, p].copy(), Y[:, q].copy()
                Y[:, p] = c * rowp - sp * rowq
                Y[:, q] = sq * rowp + c * rowq
                Y[:, p, q] = Y[:, q, p] = 0.0
                Y[:, p, p], Y[:, q, q] = Y[:, p, p].real, Y[:, q, q].real
                X[rot] = Y
    else:
        raise ArithmeticError("Jacobi eigensolver did not converge")
    w = np.diagonal(X, axis1=1, axis2=2).real * amax[:, None]
    w = np.where(amax[:, None] > 0.0, w, 0.0)
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    V = np.take_along_axis(X[:, n:], order[:, None, :], axis=2)
    # a deterministic phase: each vector's largest component real positive
    piv = np.take_along_axis(V, np.argmax(np.abs(V), axis=1)[:, None], axis=1)
    mag = np.where(piv != 0, np.hypot(piv.real, piv.imag), 1.0)
    V = np.where(piv != 0, V * (np.conj(piv) / mag), V)
    return EigDecomposition(w, V)


def abs_matrix(A) -> np.ndarray:
    """|A| = (A* A)^(1/2), Hermitian PSD; a stack (S, n, n) goes through one
    stacked hermitian_eig, each member bitwise what it gives alone."""
    A = np.asarray(A, dtype=np.complex128)
    if np.ndim(A) != 3:
        return abs_matrix(_require_square(A)[None])[0]
    m = np.abs(A).max(axis=(1, 2), initial=0.0)
    As, ms = _subnormal_prescale(A, m)
    B = As / np.where(m > 0.0, ms, 1.0)[:, None, None]
    dec = hermitian_eig(B.conj().transpose(0, 2, 1) @ B)
    w = np.sqrt(np.clip(dec.values, 0.0, None)) * m[:, None]
    S = (dec.vectors * w[:, None, :]) @ dec.vectors.conj().transpose(0, 2, 1)
    return (S + S.conj().transpose(0, 2, 1)) / 2.0


def spectral_norm(A):
    """Largest singular value (operator 2-norm), scale-safe.

    One matrix (a 1-d A is one row) gives a float; a stack (S, m, n) gives an
    (S,) array by one stacked hermitian_eig of the Gram matrices, bitwise what
    each matrix gives alone.  A subnormal member is prescaled by a power of
    two; a member with non-finite entries gives NaN.
    """
    A = np.asarray(A, dtype=np.complex128)
    single = A.ndim < 3
    A = A[(None,) * (3 - A.ndim)]
    m = np.abs(A).max(axis=(1, 2), initial=0.0)
    As, ms = _subnormal_prescale(A, m)
    with np.errstate(all="ignore"):
        B = As / np.where(m > 0.0, ms, 1.0)[:, None, None]
        H = B.conj().transpose(0, 2, 1) @ B
        ok = np.isfinite(H).all(axis=(1, 2))
        top = hermitian_eig(np.where(ok[:, None, None], H, 0.0)).values
        top = np.maximum(top.max(axis=1, initial=-np.inf), 0.0)
        norms = np.where(ok, np.where(m == 0.0, 0.0, m * np.sqrt(top)), np.nan)
    return float(norms[0]) if single else norms


def _sigma_min(A) -> float:
    """Smallest singular value, to about 1e-16 * ||A||; sqrt(lambda_min(A* A))
    keeps half the digits (a rank-one block reads about 1e-9 * ||A||).  After
    max-abs scaling: |det A| / ||A||_2 for d = 2, else the smallest |eigenvalue|
    of the Hermitian [[0, A], [A*, 0]], whose eigenvalues are +-sigma_i."""
    A = _require_square(A)
    m = float(np.abs(A).max()) if A.size else 0.0
    if m == 0.0 or A.shape[0] == 1:
        return m
    if m < _TINY:  # 1 / m overflows: the power-of-two prescale, undone exactly
        return _sigma_min(A * _PRESCALE) / _PRESCALE
    B = A / m
    if B.shape[0] == 2:
        a, b, c, e = B.ravel().tolist()
        h = 0.5 * (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(e) ** 2)
        det = abs(a * e - b * c)  # sigma_max^2 + sigma_min^2 = 2h, product det
        return m * det / math.sqrt(h + math.sqrt(max((h - det) * (h + det), 0.0)))
    Z = np.zeros_like(B)
    H = np.block([[Z, B], [B.conj().T, Z]])
    return m * float(np.abs(hermitian_eig(H).values).min())


def psd_matfunc(H, f) -> np.ndarray:
    """Spectral function f(H) of a Hermitian PSD matrix, or of each member of
    a stack (S, n, n) through one stacked hermitian_eig call.

    Eigenvalues in [-1e-12*||H||, 0) are clamped to 0 (PSD only up to
    roundoff); genuinely negative spectrum is rejected, as is f undefined
    or non-finite at some eigenvalue, for the first bad member.  f is called
    on one eigenvalue at a time, in order.
    """
    dec = hermitian_eig(H)
    w = np.atleast_2d(dec.values)
    negative = w[:, :1].min(axis=1, initial=0.0) < \
        -1e-12 * np.maximum(np.abs(w).max(axis=1, initial=0.0), 1e-300)
    fw = np.empty(w.shape, dtype=np.complex128)
    for i, row in enumerate(np.clip(w, 0.0, None)):
        if negative[i]:
            raise ValueError(f"matrix is not PSD: min eigenvalue {w[i, 0]:.3e}")
        try:
            fw[i] = [f(x) for x in row]
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"function undefined at an eigenvalue: {exc}") from exc
        if not np.isfinite(fw[i]).all():
            raise ValueError("function not finite at some eigenvalue")
    V = dec.vectors.reshape(w.shape + w.shape[-1:])
    S = (V * fw[:, None, :]) @ V.conj().transpose(0, 2, 1)
    return ((S + S.conj().transpose(0, 2, 1)) / 2.0).reshape(dec.vectors.shape)


# ---------------------------------------------------------------------------
# Small dense LU (partial pivoting) for stacks of pivot blocks
# ---------------------------------------------------------------------------

def _lu_factor_stack(D):
    """Partial-pivoting LU of every member of an (S, n, n) stack: the packed
    factors, the row orders (S, n) and a per-member exactly-singular flag.
    Each step is elementwise along the stack, so a member's factor is
    bitwise what it is alone; a singular member's factor is unusable."""
    LU = np.array(D, dtype=np.complex128)
    S, n, _ = LU.shape
    perm = np.zeros((S, n), dtype=np.intp) + np.arange(n)
    singular = np.zeros(S, dtype=bool)
    for k in range(n - 1):
        i = k + np.argmax(np.abs(LU[:, k:, k]), axis=1)
        if (i != k).any():
            m = np.arange(S)
            for W in (LU, perm):
                W[m, k], W[m, i] = W[m, i], W[m, k]
        zero = LU[:, k, k] == 0
        singular |= zero
        LU[:, k + 1:, k] /= np.where(zero, 1.0, LU[:, k, k])[:, None]
        LU[:, k + 1:, k + 1:] -= LU[:, k + 1:, k, None] * LU[:, None, k, k + 1:]
    return LU, perm, singular | (LU[:, n - 1, n - 1] == 0)


def _lu_solve_stack(LU, perm, X):
    """Overwrite X (S, n, m) with LU_s^{-1} X_s, for factors from
    _lu_factor_stack; only members whose rows were swapped are copied."""
    n = perm.shape[1]
    moved = (perm != np.arange(n)).any(axis=1)
    if moved.any():
        X[moved] = np.take_along_axis(X[moved], perm[moved][:, :, None], axis=1)
    for k in range(1, n):
        X[:, k] -= (LU[:, k, None, :k] @ X[:, :k])[:, 0]
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            X[:, k] -= (LU[:, k, None, k + 1:] @ X[:, k + 1:])[:, 0]
        X[:, k] /= LU[:, k, k, None]
    return X


# ---------------------------------------------------------------------------
# Block-tridiagonal LU (no inter-block pivoting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockTridiagLU:
    """Factorization of (T - shift*I) for Hermitian block tridiagonal T, for
    one shift or a 1-d array of S shifts sharing one elimination.

    Forward elimination D_1 = B_1 - shift*I,
    D_k = B_k - shift*I - A_{k-1}^* D_{k-1}^{-1} A_{k-1}.
    Every array is stacked over the blocks, with a leading shift axis (S,)
    for an array of shifts; a scalar shift is the S = 1 case without it.
    pivot_lu[k] / pivot_perm[k] are the packed LU and row order of D_{k+1};
    transform_blocks[k] = D_{k+1}^{-1} A_{k+1} (back substitution),
    forward_blocks[k] = A_{k+1}^* D_{k+1}^{-1} (forward substitution),
    both 0-based over k = 0..N-2.
    """

    shift: complex | np.ndarray
    nblocks: int
    dim: int
    pivot_lu: np.ndarray
    pivot_perm: np.ndarray
    transform_blocks: np.ndarray
    forward_blocks: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """Solve (T - shift*I) X = rhs for rhs of shape (N*d, m) or (N*d,),
        shared by every shift; X has rhs's shape, after a leading (S,) axis
        for an array of shifts.  After the forward sweep the pivot solves
        z_k = D_k^{-1} y_k are one stacked call over all N*S blocks, so a
        back-substitution step is one matmul and one subtraction,
        x_k = z_k - T_k x_{k+1}."""
        N, d = self.nblocks, self.dim
        R = np.asarray(rhs, dtype=np.complex128)
        if R.shape[0] != N * d:
            raise ValueError(f"rhs has {R.shape[0]} rows, expected {N * d}")
        S = np.size(self.shift)
        y = np.broadcast_to(R.reshape(N, d, -1), (S, N, d, R[0].size)).copy()
        F, T = (a.reshape(S, N - 1, d, d)
                for a in (self.forward_blocks, self.transform_blocks))
        for k in range(1, N):
            y[:, k] -= F[:, k - 1] @ y[:, k - 1]
        _lu_solve_stack(self.pivot_lu.reshape(-1, d, d), self.pivot_perm.reshape(-1, d),
                        y.reshape(S * N, d, -1))
        for k in range(N - 2, -1, -1):
            y[:, k] -= T[:, k] @ y[:, k + 1]
        return y.reshape(np.shape(self.shift) + R.shape)


def block_scale(diag_blocks, offdiag_blocks) -> float:
    """Largest entry magnitude over all blocks, floored at 1e-300: the
    problem scale of relative tolerances and pivot nudges."""
    return max(float(np.abs(diag_blocks).max()),
               float(np.abs(offdiag_blocks).max(initial=0.0)),
               1e-300)


def block_tridiag_factor(trunc, shift,
                         check_conditioning: bool = True) -> BlockTridiagLU:
    """Factor (T - shift*I) by block forward elimination, for one shift or a
    1-d array of shifts.

    The elimination runs once over (S, d, d) stacks for all S shifts, and
    each shift's factor is bitwise what it is alone; a scalar shift is the
    S = 1 case.  With check_conditioning, SingularShiftError is raised for
    the first failing shift in input order, naming its first pivot block
    whose condition estimate exceeds COND_LIMIT or is NaN before its first
    exactly singular pivot, else that singular pivot (structure-preserving:
    no repair is attempted).  Without it, no estimate is taken, and an
    exactly singular pivot is nudged by 1e-13 * max(scale, |shift|) so that
    shifts arbitrarily close to eigenvalues remain usable (inverse iteration
    relies on this).
    """
    diag_blocks, offdiag_blocks = trunc.diag_blocks, trunc.offdiag_blocks
    N, d = diag_blocks.shape[:2]
    shifts = np.atleast_1d(np.asarray(shift, dtype=np.complex128))
    if np.ndim(shift) > 1:
        raise ValueError(f"shifts must be a scalar or 1-d, got shape {np.shape(shift)}")
    S = shifts.size
    I = np.eye(d, dtype=np.complex128)
    sI = shifts[:, None, None] * I
    scale = np.maximum(block_scale(diag_blocks, offdiag_blocks),
                       np.hypot(shifts.real, shifts.imag))
    bump = (1e-13 * scale)[:, None, None] * I
    Ah = offdiag_blocks.conj().transpose(0, 2, 1)
    pivots, factors, inverses = (np.empty((S, N, d, d), np.complex128) for _ in range(3))
    perms = np.empty((S, N, d), dtype=np.intp)
    transforms = np.empty((S, N - 1, d, d), np.complex128)
    first_singular = np.full(S, N)
    D = diag_blocks[0] - sI
    # a checked factor runs on past a bad pivot before the estimates name it
    with np.errstate(all="ignore") if check_conditioning else contextlib.nullcontext():
        for k in range(N):
            LU, perm, singular = _lu_factor_stack(D)
            if singular.any() and check_conditioning:
                first_singular[singular & (first_singular == N)] = k
            elif singular.any():
                D = np.where(singular[:, None, None], D + bump, D)
                LU[singular], perm[singular], still = _lu_factor_stack(D[singular])
                if still.any():
                    raise SingularShiftError(k + 1, np.inf)
            pivots[:, k], factors[:, k], perms[:, k] = D, LU, perm
            inverses[:, k] = I
            _lu_solve_stack(LU, perm, inverses[:, k])
            if k < N - 1:
                transforms[:, k] = inverses[:, k] @ offdiag_blocks[k]
                D = (diag_blocks[k + 1] - sI) - Ah[k] @ transforms[:, k]
        # only a checked factor takes condition estimates.  Singular shifts
        # surface as pivots tiny against the problem scale, so the estimate
        # is scale-relative (a bare sigma_max/sigma_min is blind to them for
        # well-conditioned small blocks, e.g. any d = 1)
        for s, stop in enumerate(first_singular if check_conditioning else ()):
            cond = np.maximum(spectral_norm(pivots[s, :stop]), scale[s]) \
                * spectral_norm(inverses[s, :stop])
            bad = np.flatnonzero(~(cond <= COND_LIMIT))
            if bad.size:
                raise SingularShiftError(int(bad[0]) + 1, float(cond[bad[0]]))
            if stop < N:
                raise SingularShiftError(int(stop) + 1, np.inf)
    forwards = Ah @ inverses[:, :-1]
    lead = slice(None) if np.ndim(shift) else 0
    return BlockTridiagLU(shifts[lead], N, d, *(a[lead] for a in (
        factors, perms, transforms, forwards)))


def tridiag_apply(trunc, x) -> np.ndarray:
    """Matrix-vector product T @ x for the assembled block tridiagonal, one
    stacked matmul per neighbour: B_k x_k + A_{k-1}^* x_{k-1} + A_k x_{k+1}."""
    diag_blocks, offdiag_blocks = trunc.diag_blocks, trunc.offdiag_blocks
    N, d = diag_blocks.shape[:2]
    X = np.asarray(x, dtype=np.complex128)
    Xb = X.reshape(N, d, -1)
    Y = diag_blocks @ Xb
    Y[1:] += offdiag_blocks.conj().transpose(0, 2, 1) @ Xb[:-1]
    Y[:-1] += offdiag_blocks @ Xb[1:]
    return Y.reshape(X.shape)


# ---------------------------------------------------------------------------
# Inertia counts and eigenvalue multisection (Sturm sequence on blocks)
# ---------------------------------------------------------------------------
#
# The count recurrence runs once for a whole vector of shifts, and a shift's
# count is bitwise the same alone or in any batch: counts are computed one
# way on every path (Demmel, Dhillon & Ren, ETNA 3, 1995), and multisection
# relies on that to reproduce bisection exactly.  For d <= 2 a step is a
# closed form in real arithmetic, elementwise along the shift axis.  For
# d >= 3 it runs on the library's stacked kernels: hermitian_eig's Jacobi
# for the pivots' inertia, and block_tridiag_factor's pivot-block LU and
# Schur update, each member of a stack bitwise what it is alone.

# shifts per inertia sweep, spread over the open brackets (Lo, Philippe &
# Sameh, SIAM J. Sci. Stat. Comput. 8, 1987).  A lone bracket gets 127 of
# them, 7 levels of halving; at N = 300, d = 2 such a sweep costs about 1.5
# times a single-shift one
_SHIFTS_PER_SWEEP = 128

# A sweep stops once the rest of T cannot add a negative pivot.  After
# eliminating blocks 1..k the rest of the count is the inertia of
# T[k+1:] - x - E, with E = A_k^* D_k^{-1} A_k on its first block.  For a
# positive definite pivot D_k, 0 <= E <= ||A_k||^2 / lambda_min(D_k), so by
# Weyl's inequality and block Gershgorin every later pivot is positive
# definite once g_{k+1} - x - ||A_k||^2 / lambda_min(D_k) exceeds the margin
# _STOP_MARGIN * max(scale, |x|), where g_{k+1} is the least Gershgorin floor
# of blocks k+1..N.  The test runs every _STOP_STRIDE blocks and ends the
# sweep when it holds for every shift; it changes no count, so counts stay
# batch-invariant.
#
# Rounding: lambda_min(D_k) is used only above _PIVOT_FLOOR * lambda_max(D_k).
# The kernels' pivot eigenvalues are good to about 1e-14 * ||D_k||_F (a few
# ulps for the closed forms of d <= 2, JACOBI_OFF_TOL for the Jacobi of
# d >= 3), so an accepted lambda_min is good to 1e-10 * sqrt(d) of itself,
# and ||A_k||^2 / lambda_min to that fraction of its value, which the test
# keeps below g_{k+1} - x <= (d + 1) * max(scale, |x|): an error under
# 1e-10 * (d + 1)^1.5 * max(scale, |x|), well inside the margin.  The margin
# is 1e5 times the pivot nudge threshold, so the full recurrence nudges no
# later pivot either.  The test divides by nothing, so a zero pivot raises
# no warning.  Its square of ||A_k|| overflows (to a test that never holds)
# above ~1e154, where the closed forms of d <= 2 square the A_k entries too;
# the kernels of d >= 3 square none.
_STOP_STRIDE, _STOP_MARGIN, _PIVOT_FLOOR = 8, 1e-8, 1e-4


class _TailStop:
    """The stop test of one sweep over the shifts x (see above), from the
    Gershgorin floors and off-diagonal norms of a _Section."""

    def __init__(self, section, x, scale):
        # floor[k + 1] = g_{k+1}, the least floor of 0-based blocks k+1..N-1
        self.floor, self.norm2 = section.tail_floors, section.norm2
        self.reach = x + _STOP_MARGIN * scale
        self.top = float(self.reach.max())

    def due(self, k: int) -> bool:
        """Whether to test after 0-based block k: every _STOP_STRIDE blocks,
        once the floor of the rest lies above every shift plus its margin."""
        return k % _STOP_STRIDE == _STOP_STRIDE - 1 and self.floor[k + 1] > self.top

    def holds(self, k: int, lam, top) -> bool:
        """No pivot after block k can be negative, for pivots D_k whose
        smallest and largest eigenvalues are lam and top (one per shift)."""
        gap = self.floor[k + 1] - self.reach
        return bool(np.all((lam > _PIVOT_FLOOR * top) & (self.norm2[k] < gap * lam)))


def _herm2_mid_rad(a, c, zz):
    """Eigenvalues mid -+ rad of the Hermitian [[a, z], [conj z, c]] with
    zz = |z|^2, in closed form (elementwise on arrays)."""
    h = 0.5 * (a - c)
    return 0.5 * (a + c), np.sqrt(h * h + zz)


def _count_d1(section, x, bump, stop):
    b, g = section.kernel
    two_bump = 2.0 * bump
    N = b.size
    negative = np.empty((N, x.size), dtype=bool)
    D = b[0] - x
    for k in range(N):
        np.less(D, 0.0, out=negative[k])
        if k == N - 1 or stop.due(k) and stop.holds(k, D, D):
            break
        D = D + (np.abs(D) < bump) * two_bump
        D = D + (D == 0.0) * two_bump
        D = (b[k + 1] - x) - g[k] / D
    return np.count_nonzero(negative[:k + 1], axis=0), k + 1


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


def _count_d2(section, x, bump, stop):
    # the Hermitian pivot D = [[a, z], [conj z, c]] is kept as the rows
    # X = (a, c, Re z, Im z) of a (4, S) array
    base, coef = section.kernel
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
        if k == N - 1 or stop.due(k) and stop.holds(k, mid - rad, mid + rad):
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
    return np.count_nonzero(lo_negative[:k + 1], axis=0) + \
        np.count_nonzero(hi_negative[:k + 1], axis=0), k + 1


def _count_general(section, x, bump, stop):
    # a Schur update is Hermitian only up to rounding; the count takes the
    # inertia of its Hermitian part, as the closed forms of d <= 2 do
    B, A = section.diag_blocks, section.offdiag_blocks
    (Ah,) = section.kernel
    N, d = B.shape[:2]
    I = np.eye(d)
    xI = x[:, None, None] * I
    two_bump = (2.0 * bump)[:, None, None] * I
    neg = np.zeros(x.size, dtype=np.int64)
    D = B[0] - xI
    for k in range(N):
        D = 0.5 * (D + D.conj().transpose(0, 2, 1))
        ev = _jacobi(D).values
        neg += np.count_nonzero(ev < 0.0, axis=1)
        if k == N - 1 or stop.due(k) and stop.holds(k, ev[:, 0], ev[:, -1]):
            break
        D += np.where((np.abs(ev).min(axis=1) < bump)[:, None, None], two_bump, 0.0)
        LU, perm, singular = _lu_factor_stack(D)
        if singular.any():
            D[singular] += two_bump[singular]
            LU[singular], perm[singular], _ = _lu_factor_stack(D[singular])
        Y = _lu_solve_stack(LU, perm, np.broadcast_to(A[k], D.shape).copy())
        D = (B[k + 1] - xI) - Ah[k] @ Y
    return neg, k + 1


def tridiag_count_below(trunc, x):
    """Number of eigenvalues of T strictly below x, via the inertia of the
    block LDL* pivots (Sylvester's law; no inter-block pivoting).

    x is a scalar (returns an int) or a 1-d array of shifts (returns an int
    array); the recurrence runs once for all shifts.  A pivot whose smallest
    |eigenvalue| is below bump = 1e-13 * max(scale, |x|) is nudged by
    2 * bump * I before elimination, and again if still exactly singular.
    The sweep stops early once the rest of T cannot add a negative pivot
    for any shift, which changes no count.  A non-finite shift raises
    ValueError.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"shifts must be a scalar or 1-d, got shape {xs.shape}")
    shifts = np.atleast_1d(xs)
    bad = np.flatnonzero(~np.isfinite(shifts))
    if bad.size:
        raise ValueError(f"shifts must be finite, got {shifts[bad[0]]} at index {bad[0]}")
    neg, _ = _count_below(trunc, shifts)
    return int(neg[0]) if xs.ndim == 0 else neg


def _count_below(trunc, x):
    """The counts below the finite 1-d shifts x, and how many blocks the
    sweep scanned (N unless the stop test ended it early).  A _Section
    brings its shift-independent inputs along; other input has them
    computed here."""
    section = trunc if isinstance(trunc, _Section) else _gershgorin(trunc)
    scale = np.maximum(section.scale, np.abs(x))
    count = {1: _count_d1, 2: _count_d2}.get(section.diag_blocks.shape[1],
                                             _count_general)
    return count(section, x, 1e-13 * scale, _TailStop(section, x, scale))


class _Section(NamedTuple):
    """Blocks of T with all that a count reads and no shift changes.  The
    block Gershgorin data: per block k the floor lambda_min(B_k) - r_k and
    the ceiling lambda_max(B_k) + r_k of its rows, r_k = ||A_{k-1}|| +
    ||A_k||, with tail_floors[k] the least floor of blocks k..N-1 and
    norm2[k] = ||A_k||^2 (lists, for the stop test).  The problem scale.
    The kernel's inputs: d = 1 the diagonal and |A_k|^2, d = 2 the pivot
    rows (a, c, Re z, Im z) of B_k and the Schur coefficients, d >= 3 the
    A_k^*.  A multisection computes it once and hands it to every count in
    place of the blocks (a NamedTuple: a frozen dataclass costs ~2 ms more
    at import)."""

    diag_blocks: np.ndarray
    offdiag_blocks: np.ndarray
    floors: np.ndarray
    ceilings: np.ndarray
    tail_floors: list
    norm2: list
    scale: float
    kernel: tuple


def _gershgorin(trunc) -> _Section:
    """The blocks of trunc, their block Gershgorin data and the count's
    other shift-independent inputs."""
    B, A = trunc.diag_blocks, trunc.offdiag_blocks
    norms = spectral_norm(A)
    r = np.zeros(B.shape[0])
    r[1:] += norms
    r[:-1] += norms
    d = B.shape[1]
    if d == 1:
        lo = hi = B[:, 0, 0].real
        kernel = lo, abs(A[:, 0, 0]) ** 2
    elif d == 2:
        z = B[:, 0, 1]  # hypot: np.abs on an array is one ulp off it on many entries
        mid, rad = _herm2_mid_rad(B[:, 0, 0].real, B[:, 1, 1].real,
                                  np.hypot(z.real, z.imag) ** 2)
        lo, hi = mid - rad, mid + rad
        # the count's pivot rows take z from both triangles of B_k
        z = 0.5 * (B[:, 0, 1] + B[:, 1, 0].conj())
        kernel = (np.stack([B[:, 0, 0].real, B[:, 1, 1].real, z.real, z.imag],
                           axis=1)[:, :, None],
                  [tuple(cf) for cf in _schur_coeffs_d2(A)])
    else:
        ev = hermitian_eig(B).values
        lo, hi = ev[:, 0], ev[:, -1]
        kernel = (A.conj().transpose(0, 2, 1),)
    floors = lo - r
    with np.errstate(over="ignore"):  # an inf square: the stop test never holds
        norm2 = (norms * norms).tolist()
    return _Section(B, A, floors, hi + r,
                    np.minimum.accumulate(floors[::-1])[::-1].tolist(), norm2,
                    block_scale(B, A), kernel)


def _gershgorin_bounds(section: _Section) -> tuple[float, float]:
    """Block Gershgorin bracket of the spectrum: each diagonal block's
    eigenvalues widened by ||A_{k-1}|| + ||A_k||."""
    return float(section.floors.min()), float(section.ceilings.max())


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


def _multisection(trunc, ks, tol, edge=None):
    """Eigenvalues k in ks (1-based) as midpoints of brackets no wider than
    tol (default 1e-13 * max(1, |lo|, |hi|) over the Gershgorin bracket).

    Every index starts on the widened Gershgorin bracket; indices sharing an
    open bracket share its shifts.  Each sweep cuts every open bracket by as
    many levels of halving as _SHIFTS_PER_SWEEP shifts allow and counts all
    the cut points in one call.  Each index then descends the levels exactly
    as bisection would, stopping once its bracket is no wider than tol, so
    the result is the bisection midpoint bit for bit, in fewer sweeps.

    With an edge b, ks are offsets from the number c of eigenvalues below
    b: the indices are c + k for k in ks, kept within 1..n = N d.  The first
    sweep's shifts do not depend on the indices, so b rides in its last
    slot (a shift counts the same alone or in any batch) and its count
    fixes them.  Returns (c, eigenvalues), c None without an edge.  A tol
    that is not finite and > 0 raises ValueError (bisection to it would
    never end).  Every count gets the _Section computed here: its
    Gershgorin data, for the stop test, and the kernel's inputs.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    section = _gershgorin(trunc)
    lo, hi = _gershgorin_bounds(section)
    if tol is None:
        tol = 1e-13 * max(1.0, abs(lo), abs(hi))
    n = trunc.dense_dim
    start = (lo - tol, hi + tol)
    brackets = [start] * (len(ks) if edge is None else 1)
    count, extra = None, [] if edge is None else [edge]
    while True:
        open_ = sorted({br for br in brackets if br[1] - br[0] > tol})
        if not open_:
            return count, np.array([0.5 * (l + h) for l, h in brackets])
        # 2**depth - 1 shifts per open bracket, at least one level
        depth = max(1, (_SHIFTS_PER_SWEEP // len(open_) + 1).bit_length() - 1)
        edges = _halvings(open_, depth)
        cuts = edges[:, 1:-1].ravel()
        counts = tridiag_count_below(section, np.append(cuts, extra))
        if extra:
            count, extra = int(counts[-1]), []
            ks = [count + k for k in ks if 1 <= count + k <= n]
            brackets = [start] * len(ks)
        row = {br: (e, c) for br, e, c in zip(
            open_, edges.tolist(), counts[:cuts.size].reshape(len(open_), -1).tolist())}
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
    """k-th smallest eigenvalue (1-based) by inertia multisection; a tol
    that is not finite and > 0 raises ValueError."""
    n = trunc.dense_dim
    if not 1 <= k <= n:
        raise ValueError(f"eigenvalue index {k} out of range 1..{n}")
    return float(_multisection(trunc, [k], tol)[1][0])


def tridiag_eigs_below(trunc, b: float, tol: float | None = None,
                       above: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(below, next): all eigenvalues of T strictly below b, ascending, and
    the next `above` eigenvalues (fewer where T has fewer; empty for
    above = 0), from one multisection whose first sweep also counts b.

    A non-finite b, or a tol that is not finite and > 0, raises ValueError.
    """
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    n = trunc.dense_dim
    # offsets 1 - n .. above from the count below b: indices 1..count + above
    count, vals = _multisection(trunc, range(1 - n, above + 1), tol, edge=b)
    return vals[:count], vals[count:]


def tridiag_inverse_iteration(trunc, factor: BlockTridiagLU,
                              start=None, n_iter: int = 6,
                              ortho=()) -> tuple[np.ndarray, float]:
    """Unit eigenvector for the eigenvalue nearest the shift of `factor`,
    plus its Rayleigh value.

    `factor` is the one-shift factor of T - shift*I, with the shift nudged
    off the eigenvalue estimate; iterations for equal shifts can share it.
    Starting from a vector supported on the first block keeps the
    exponentially small tail componentwise accurate (the back substitution
    propagates relative, not absolute, precision).  Vectors in `ortho` are
    projected out each step, which resolves members of a degenerate
    cluster one at a time.
    """
    N, d = trunc.nblocks, trunc.dim
    if start is None:
        x = np.zeros(N * d, dtype=np.complex128)
        x[:d] = 1.0 / np.sqrt(d)
    else:
        x = np.asarray(start, dtype=np.complex128).copy()
    for _ in range(n_iter):
        x = factor.solve(x)
        for o in ortho:
            x = x - (np.vdot(o, x)) * o
        nrm = vector_norm(x)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ArithmeticError("inverse iteration produced a null vector")
        x = x / nrm
    rq = float(np.real(np.vdot(x, tridiag_apply(trunc, x))))
    return x, rq
