"""Per-matrix reference kernels that the stacked library kernels replay.

The per-matrix cyclic Jacobi eigensolver, the per-block LU with partial
pivoting, the per-shift block elimination and solve built on it, and the
per-block tridiagonal product: the library runs each of these on whole
stacks and must reproduce them bit for bit.  Likewise the spectral queries
as they ran before they shared work: the edge count as a sweep of its own
before the multisection, and inverse iteration factoring each eigenvalue's
shift alone, and the inertia count running every sweep to the last block.
Also a block problem with one ill-conditioned pivot, shared by the factor
tests, and the oracles of the st family's closed forms: the dense 4x4
transfer matrix behind transfer_eigenvalues, and the constant-entry
comparison operator behind jc_lower_bound.
"""

from dataclasses import dataclass

import numpy as np

from blockjacobi import OperatorFamily, StParams
from blockjacobi import dense_linalg as dl


def reference_hermitian_eig(H) -> dl.EigDecomposition:
    """The per-matrix cyclic Jacobi that hermitian_eig replays on stacks:
    numpy scalar arithmetic on one matrix at a time, with the library's
    tolerances (read at call time)."""
    A = np.array(H, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n == 0:
        return dl.EigDecomposition(np.zeros(0), np.zeros((0, 0), np.complex128))
    amax = float(np.abs(A).max())
    if amax > 0 and float(np.abs(A - A.conj().T).max()) > 1e-10 * amax:
        raise ValueError("matrix is not Hermitian (relative deviation > 1e-10)")
    V = np.eye(n, dtype=np.complex128)
    if amax == 0.0:
        return dl.EigDecomposition(np.zeros(n), V)

    W = (A + A.conj().T) / (2.0 * amax)
    fro = dl.vector_norm(W.ravel())
    target = dl.JACOBI_OFF_TOL * fro
    skip = target / (4.0 * n)

    for _ in range(dl.JACOBI_MAX_SWEEPS):
        off = dl.vector_norm((W - np.diag(np.diag(W))).ravel())
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
    return dl.EigDecomposition(w, V)


def lu_factor_small(M):
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


def lu_solve_small(fac, B):
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


def reference_factor(B, A, shift, check_conditioning=True):
    """The per-shift block elimination, one pivot block at a time: a dict of
    stacked pivots, LU factors, row orders, transforms, forwards and
    condition estimates, laid out as BlockTridiagLU lays out one shift.
    Raises SingularShiftError as the factor does for this shift alone."""
    N, d = B.shape[:2]
    I = np.eye(d, dtype=np.complex128)
    scale = max(dl.block_scale(B, A), abs(shift))
    out = {key: [] for key in ("pivots", "lu", "perm", "inverses", "transforms", "forwards")}
    D = B[0] - shift * I
    stop = N
    with np.errstate(all="ignore") if check_conditioning else np.errstate():
        for k in range(N):
            fac = lu_factor_small(D)
            if fac is None:
                if check_conditioning:
                    stop = k
                    break
                D = D + 1e-13 * scale * I
                fac = lu_factor_small(D)
                if fac is None:
                    raise dl.SingularShiftError(k + 1, np.inf)
            Dinv = lu_solve_small(fac, I)
            for key, value in zip(("pivots", "lu", "perm", "inverses"), (D, *fac, Dinv)):
                out[key].append(value)
            if k < N - 1:
                out["transforms"].append(Dinv @ A[k])
                out["forwards"].append(A[k].conj().T @ Dinv)
                D = B[k + 1] - shift * I - A[k].conj().T @ (Dinv @ A[k])
        cond = np.array([max(dl.spectral_norm(P), scale) * dl.spectral_norm(Q)
                         for P, Q in zip(out["pivots"], out["inverses"])])
    bad = np.flatnonzero(~(cond <= dl.COND_LIMIT))
    if check_conditioning and bad.size:
        raise dl.SingularShiftError(int(bad[0]) + 1, float(cond[bad[0]]))
    if stop < N:
        raise dl.SingularShiftError(stop + 1, np.inf)
    stacked = {key: np.array(value, dtype=np.complex128 if key != "perm" else np.intp)
               .reshape((-1,) + ((d,) if key == "perm" else (d, d)))
               for key, value in out.items()}
    stacked["conds"] = cond
    return stacked


def reference_solve(ref, rhs):
    """The per-block forward and back substitution against reference_factor."""
    N, d = ref["pivots"].shape[:2]
    R = np.asarray(rhs, dtype=np.complex128)
    y = R.reshape(N, d, -1).copy()
    for k in range(1, N):
        y[k] -= ref["forwards"][k - 1] @ y[k - 1]
    x = np.empty_like(y)
    facs = list(zip(ref["lu"], ref["perm"]))
    x[N - 1] = lu_solve_small(facs[N - 1], y[N - 1])
    for k in range(N - 2, -1, -1):
        x[k] = lu_solve_small(facs[k], y[k]) - ref["transforms"][k] @ x[k + 1]
    return x.reshape(R.shape)


def reference_apply(B, A, x):
    """T @ x one block row at a time."""
    N, d = B.shape[:2]
    X = np.asarray(x, dtype=np.complex128)
    Xb = X.reshape(N, d, -1)
    Y = np.empty_like(Xb)
    for k in range(N):
        Y[k] = B[k] @ Xb[k]
        if k > 0:
            Y[k] += A[k - 1].conj().T @ Xb[k - 1]
        if k < N - 1:
            Y[k] += A[k] @ Xb[k + 1]
    return Y.reshape(X.shape)


def mid_chain_problem():
    """d = 2, couplings 0.5 I, diagonal pivots; B_3 is chosen so that pivot 3
    is about diag(1e-13, 1): ill-conditioned, not singular."""
    N = 6
    A = np.array([0.5 * np.eye(2)] * (N - 1), dtype=complex)
    diag = [[3.0, 2.0], [3.0, 3.0], None, [3.0, 5.0], [3.0, 6.0], [3.0, 7.0]]
    d1 = np.array(diag[0])
    d2 = np.array(diag[1]) - 0.25 / d1
    diag[2] = np.array([1e-13, 1.0]) + 0.25 / d2
    B = np.array([np.diag(v) for v in diag], dtype=complex)
    return B, A


def reference_eigs_below(trunc, b, tol=None):
    """Eigenvalues below b as a one-shift count followed by a multisection
    for indices 1..count (none when the count is 0)."""
    count = dl.tridiag_count_below(trunc, b)
    if count == 0:
        return np.zeros(0)
    return dl._multisection(trunc, list(range(1, count + 1)), tol)[1]


def reference_eigenpairs_below(trunc, b, tol=None):
    """eigenpairs_below one eigenvalue at a time: each inverse iteration, and
    each restart, factors its own shift.  A pair is redone from a random
    start when its residual or its Rayleigh value's distance from the
    eigenvalue exceeds 1e-8 * scale."""
    N, d = trunc.nblocks, trunc.dim
    vals = reference_eigs_below(trunc, b, tol)
    scale = max(trunc.scale(), abs(b), 1.0)
    pairs, cluster, prev = [], [], None
    for i, lam in enumerate(vals):
        if prev is None or lam - prev > 1e-8 * scale:
            cluster = []
        start = np.zeros(N * d, dtype=np.complex128)
        if len(cluster) < d:
            start[len(cluster)] = 1.0
        else:
            start[:] = np.random.default_rng(31337 + i).standard_normal(N * d)
        shift = lam + 1e-11 * max(trunc.scale(), abs(lam))
        lu = dl.block_tridiag_factor(trunc, shift, check_conditioning=False)
        x, rq = dl.tridiag_inverse_iteration(trunc, lu, start=start, ortho=tuple(cluster))
        resid = dl.vector_norm(dl.tridiag_apply(trunc, x) - rq * x)
        if max(resid, abs(rq - lam)) > 1e-8 * scale:
            start = np.random.default_rng(77003 + i).standard_normal(N * d)
            lu = dl.block_tridiag_factor(trunc, shift, check_conditioning=False)
            x, rq = dl.tridiag_inverse_iteration(trunc, lu, start=start.astype(np.complex128),
                                                 n_iter=12, ortho=tuple(cluster))
            resid = dl.vector_norm(dl.tridiag_apply(trunc, x) - rq * x)
            if max(resid, abs(rq - lam)) > 1e-8 * scale:
                raise ArithmeticError(f"inverse iteration misses eigenvalue {lam}")
        cluster.append(x)
        prev = lam
        pairs.append((rq, x, bool(dl.vector_norm(x[(N - 1) * d:]) > 1e-6)))
    return pairs


def reference_count_below(trunc, x):
    """The inertia count's full recurrence over all N blocks, with no early
    stop: counts below the 1-d shifts x as an int array, for d = 1 and 2 by
    the library's closed forms and for d >= 3 by its stacked hermitian_eig
    and pivot-block LU (_lu_factor_stack, _lu_solve_stack), with the same
    pivot nudges."""
    B, A = trunc.diag_blocks, trunc.offdiag_blocks
    x = np.asarray(x, dtype=float)
    bump = 1e-13 * np.maximum(dl.block_scale(B, A), np.abs(x))
    count = {1: _full_count_d1, 2: _full_count_d2}.get(B.shape[1], _full_count_general)
    return count(B, A, x, bump)


def _full_count_d1(B, A, x, bump):
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


def _full_count_d2(B, A, x, bump):
    z = 0.5 * (B[:, 0, 1] + B[:, 1, 0].conj())
    base = np.stack([B[:, 0, 0].real, B[:, 1, 1].real, z.real, z.imag],
                    axis=1)[:, :, None]
    coef = [tuple(cf) for cf in dl._schur_coeffs_d2(A)]
    shift = np.zeros((4, x.size))
    shift[:2] = x
    two_bump = 2.0 * bump
    N = base.shape[0]
    lo_negative = np.empty((N, x.size), dtype=bool)
    hi_negative = np.empty((N, x.size), dtype=bool)
    X = base[0] - shift
    for k in range(N):
        a, c, zr, zi = X
        zz = zr * zr + zi * zi
        mid, rad = dl._herm2_mid_rad(a, c, zz)
        np.less(mid, rad, out=lo_negative[k])
        np.less(mid, -rad, out=hi_negative[k])
        if k == N - 1:
            break
        X[:2] += (np.abs(np.abs(mid) - rad) < bump) * two_bump
        det = X[0] * X[1] - zz
        if not det.all():
            X[:2] += (det == 0.0) * two_bump
            det = X[0] * X[1] - zz
        P = X / det
        c0, c1, c2, c3 = coef[k]
        X = (base[k + 1] - shift) - (c0 * P[0] + c1 * P[1] + c2 * P[2] + c3 * P[3])
    return np.count_nonzero(lo_negative, axis=0) + \
        np.count_nonzero(hi_negative, axis=0)


def _full_count_general(B, A, x, bump):
    N, d = B.shape[:2]
    I = np.eye(d)
    xI = x[:, None, None] * I
    two_bump = (2.0 * bump)[:, None, None] * I
    Ah = A.conj().transpose(0, 2, 1)
    neg = np.zeros(x.size, dtype=np.int64)
    D = B[0] - xI
    for k in range(N):
        D = 0.5 * (D + D.conj().transpose(0, 2, 1))
        ev = dl.hermitian_eig(D).values
        neg += np.count_nonzero(ev < 0.0, axis=1)
        if k == N - 1:
            break
        D += np.where((np.abs(ev).min(axis=1) < bump)[:, None, None], two_bump, 0.0)
        LU, perm, singular = dl._lu_factor_stack(D)
        if singular.any():
            D[singular] += two_bump[singular]
            LU[singular], perm[singular], _ = dl._lu_factor_stack(D[singular])
        Y = dl._lu_solve_stack(LU, perm, np.broadcast_to(A[k], D.shape).copy())
        D = (B[k + 1] - xI) - Ah[k] @ Y
    return neg


@dataclass(frozen=True)
class TransferMatrix:
    """4x4 one-step propagator of the recurrence at spectral parameter lam:
    [[0, I], [-A_n^{-1} A_{n-1}, A_n^{-1}(lam I - B_n)]]."""

    n: int
    lam: float
    entries: np.ndarray


def transfer_matrix(p: StParams, lam: float, n: int) -> TransferMatrix:
    """The st family's transfer matrix, entry by entry; n >= 2 (the step
    uses A_{n-1}).  A_n is invertible since r_n > 0."""
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


def constant_st_family(s: float, t: float) -> OperatorFamily:
    """Constant-entry comparison operator: A_n = [[0,1],[1,0]], B_n = diag(s,t).
    Its spectrum is bounded below by jc_lower_bound(s, t)."""
    if not (s > 0 and t > 0):
        raise ValueError(f"s, t must be positive, got s={s}, t={t}")
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    B = np.array([[s, 0.0], [0.0, t]], dtype=np.complex128)
    return OperatorFamily(2, lambda n: A.copy(), lambda n: B.copy(),
                          label=f"st-const(s={s},t={t})")
