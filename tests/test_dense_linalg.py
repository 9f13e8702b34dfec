import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockjacobi import dense_linalg as dl
from conftest import blocks_truncation
from reference_kernels import reference_count_below


def random_hermitian(rng, n, complex_entries=True):
    M = rng.standard_normal((n, n))
    if complex_entries:
        M = M + 1j * rng.standard_normal((n, n))
    return (M + M.conj().T) / 2


def random_block_problem(rng, d, N):
    Bs, As = [], []
    for k in range(N):
        Bs.append(random_hermitian(rng, d, complex_entries=False).astype(complex))
        if k < N - 1:
            As.append(rng.standard_normal((d, d)).astype(complex))
    return Bs, As


def dense_from_blocks(Bs, As):
    N = len(Bs)
    d = Bs[0].shape[0]
    T = np.zeros((N * d, N * d), complex)
    for k in range(N):
        T[k * d:(k + 1) * d, k * d:(k + 1) * d] = Bs[k]
        if k < N - 1:
            T[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = As[k]
            T[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = As[k].conj().T
    return T


class TestHermitianEig:
    def test_pauli_x(self):
        dec = dl.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-14)
        # eigenvectors are (1, -+1)/sqrt(2) up to phase
        for i, sign in enumerate([-1.0, 1.0]):
            v = dec.vectors[:, i]
            assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
            assert np.allclose(v[1] / v[0], sign, atol=1e-12)

    def test_diagonal_permutation(self):
        dec = dl.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0], atol=0)

    def test_random_30x30_residual(self):
        rng = np.random.default_rng(7)
        A = random_hermitian(rng, 30)
        dec = dl.hermitian_eig(A)
        nrm = np.linalg.norm(A, 2)
        resid = A @ dec.vectors - dec.vectors * dec.values
        assert np.linalg.norm(resid, axis=0).max() <= 1e-10 * nrm
        unit = dec.vectors.conj().T @ dec.vectors - np.eye(30)
        assert np.abs(unit).max() <= 1e-10

    def test_residuals_batch_up_to_64(self):
        # 200 random Hermitian matrices, sizes up to 64x64
        rng = np.random.default_rng(123)
        sizes = [int(s) for s in rng.integers(1, 17, size=170)]
        sizes += [20, 24, 28, 32, 32, 40, 40, 48, 48, 48, 56, 56, 64, 64, 64,
                  17, 18, 19, 21, 22, 23, 25, 26, 27, 29, 30, 31, 33, 36, 44]
        assert len(sizes) == 200
        for n in sizes:
            A = random_hermitian(rng, n, complex_entries=bool(rng.integers(2)))
            dec = dl.hermitian_eig(A)
            nrm = max(np.linalg.norm(A, 2), 1e-300)
            resid = A @ dec.vectors - dec.vectors * dec.values
            assert np.linalg.norm(resid, axis=0).max() <= 1e-10 * nrm
            unit = dec.vectors.conj().T @ dec.vectors - np.eye(n)
            assert np.abs(unit).max() <= 1e-10

    def test_values_match_lapack(self):
        rng = np.random.default_rng(5)
        A = random_hermitian(rng, 24)
        dec = dl.hermitian_eig(A)
        assert np.abs(dec.values - np.linalg.eigvalsh(A)).max() < 1e-11

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        A = random_hermitian(rng, 12)
        d1 = dl.hermitian_eig(A)
        d2 = dl.hermitian_eig(A)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dl.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestAbsMatrix:
    def test_antidiagonal(self):
        A = np.array([[0.0, 2.5], [2.5, 0.0]])
        assert np.abs(dl.abs_matrix(A) - 2.5 * np.eye(2)).max() < 1e-12

    def test_diagonal_signs(self):
        assert np.abs(dl.abs_matrix(np.diag([-2.0, 3.0])) - np.diag([2.0, 3.0])).max() < 1e-12

    def test_defining_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            S = dl.abs_matrix(A)
            nrm = np.linalg.norm(A, 2)
            assert np.linalg.norm(S @ S - A.conj().T @ A, 2) <= 1e-10 * nrm**2

    def test_polar_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            U, _ = np.linalg.qr(rng.standard_normal((3, 3))
                                + 1j * rng.standard_normal((3, 3)))
            diff = dl.abs_matrix(U @ A) - dl.abs_matrix(A)
            assert np.abs(diff).max() <= 1e-9 * np.linalg.norm(A, 2)


class TestSpectralNorm:
    def test_antidiagonal(self):
        assert dl.spectral_norm(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0, abs=1e-13)

    def test_identity(self):
        assert dl.spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-13)

    def test_random_vector_oracle(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sigma = dl.spectral_norm(A)
        ratios = []
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ratios.append(np.linalg.norm(A @ x) / np.linalg.norm(x))
        assert max(ratios) <= sigma * (1 + 1e-12)
        assert max(ratios) >= 0.8 * sigma  # equality approached

    def test_tiny_scale(self):
        A = 1e-200 * np.array([[0.0, 2.0], [2.0, 0.0]])
        assert dl.spectral_norm(A) == pytest.approx(2e-200, rel=1e-12)


class TestSigmaMin:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_lapack(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            A *= 10.0 ** rng.uniform(-200, 200)
            want = np.linalg.svd(A, compute_uv=False)
            assert abs(dl._sigma_min(A) - want[-1]) <= 1e-14 * want[0]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_deficient_reads_near_zero(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(50):
            u = rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))
            v = rng.standard_normal((d - 1, d)) + 1j * rng.standard_normal((d - 1, d))
            A = u @ v
            assert dl._sigma_min(A) <= 1e-14 * np.linalg.norm(A, 2)

    def test_zero_and_scalar(self):
        assert dl._sigma_min(np.zeros((2, 2))) == 0.0
        assert dl._sigma_min(np.array([[-3.0 + 4.0j]])) == 5.0


class TestPsdMatfunc:
    def test_identity_function(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((4, 4))
        H = A @ A.T
        out = dl.psd_matfunc(H, lambda x: x)
        assert np.abs(out - H).max() <= 1e-12 * np.linalg.norm(H, 2)

    def test_scalar_block(self):
        phi = lambda x: 1.0 if x < 1.0 else 1.0 / np.sqrt(x)
        out = dl.psd_matfunc(4.0 * np.eye(2), phi)
        assert np.abs(out - 0.5 * np.eye(2)).max() < 1e-13

    def test_piecewise_weight(self):
        phi = lambda x: 1.0 if x < 1.0 else 1.0 / np.sqrt(x)
        out = dl.psd_matfunc(np.diag([0.25, 4.0]), phi)
        assert np.abs(out - np.diag([1.0, 0.5])).max() < 1e-13

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            dl.psd_matfunc(np.diag([-1.0, 1.0]), lambda x: x)

    def test_rejects_undefined(self):
        with pytest.raises(ValueError):
            dl.psd_matfunc(np.diag([0.0, 1.0]), lambda x: 1.0 / float(x))


class TestBlockTridiagSolve:
    def test_single_block_reduces_to_dense(self):
        rng = np.random.default_rng(23)
        B = random_hermitian(rng, 3, complex_entries=False)
        lam = -2.0 - 1.0j
        rhs = rng.standard_normal((3, 2)).astype(complex)
        X = dl.block_tridiag_factor(blocks_truncation([B], []), lam).solve(rhs)
        assert np.allclose((B - lam * np.eye(3)) @ X, rhs, atol=1e-12)

    def test_near_identity(self):
        d, N = 2, 6
        Bs = [np.eye(d, dtype=complex)] * N
        As = [1e-14 * np.eye(d, dtype=complex)] * (N - 1)
        e1 = np.zeros((N * d, 1), complex)
        e1[0] = 1.0
        X = dl.block_tridiag_factor(blocks_truncation(Bs, As), 0.0).solve(e1)
        assert np.abs(X - e1).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_lu(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 4))
        N = int(rng.integers(2, 51))
        Bs, As = random_block_problem(rng, d, N)
        lam = -5.0 - 2.0j
        T = dense_from_blocks(Bs, As)
        rhs = (rng.standard_normal((N * d, 2))
               + 1j * rng.standard_normal((N * d, 2)))
        X = dl.block_tridiag_factor(blocks_truncation(Bs, As), lam).solve(rhs)
        Xd = np.linalg.solve(T - lam * np.eye(N * d), rhs)
        assert np.abs(X - Xd).max() <= 1e-8 * np.abs(Xd).max()

    def test_residual_contract(self):
        rng = np.random.default_rng(29)
        Bs, As = random_block_problem(rng, 3, 40)
        tr = blocks_truncation(Bs, As)
        rhs = rng.standard_normal((120, 1)).astype(complex)
        X = dl.block_tridiag_factor(tr, -4.0).solve(rhs)
        resid = dl.tridiag_apply(tr, X) - (-4.0) * X - rhs
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)

    def test_factorization_recurrence(self):
        # stored transforms D_k^{-1} A_k follow the pivot recurrence
        # D_k = B_k - lam I - A_{k-1}^* D_{k-1}^{-1} A_{k-1}
        rng = np.random.default_rng(31)
        Bs, As = random_block_problem(rng, 2, 8)
        lam = -3.0
        fac = dl.block_tridiag_factor(blocks_truncation(Bs, As), lam)
        D = Bs[0] - lam * np.eye(2)
        for k in range(7):
            T = np.linalg.solve(D, As[k])
            assert np.abs(fac.transform_blocks[k] - T).max() <= 1e-10 * max(1, np.abs(T).max())
            D = Bs[k + 1] - lam * np.eye(2) - As[k].conj().T @ fac.transform_blocks[k]

    def test_singular_shift_flagged_with_block_index(self):
        Bs = [np.eye(2, dtype=complex) for _ in range(5)]
        As = [1e-16 * np.eye(2, dtype=complex) for _ in range(4)]
        with pytest.raises(dl.SingularShiftError) as err:
            dl.block_tridiag_factor(blocks_truncation(Bs, As), 1.0).solve(np.zeros((10, 1)))
        assert err.value.block_index == 1

    def test_conditioning_estimates_recorded(self, monkeypatch):
        # every estimate lies in [1, COND_LIMIT]; a limit of 1 names pivot 1
        rng = np.random.default_rng(37)
        Bs, As = random_block_problem(rng, 2, 10)
        tr = blocks_truncation(Bs, As)
        dl.block_tridiag_factor(tr, -6.0)
        monkeypatch.setattr(dl, "COND_LIMIT", 1.0)
        with pytest.raises(dl.SingularShiftError) as err:
            dl.block_tridiag_factor(tr, -6.0)
        assert err.value.block_index == 1 and 1.0 < err.value.cond < 1e12
        dl.block_tridiag_factor(tr, -6.0, check_conditioning=False)


class TestInertiaBisection:
    def test_count_matches_lapack(self):
        rng = np.random.default_rng(41)
        Bs, As = random_block_problem(rng, 2, 30)
        tr = blocks_truncation(Bs, As)
        w = np.linalg.eigvalsh(dense_from_blocks(Bs, As))
        for x in (-3.0, -1.0, 0.0, 0.5, 2.0):
            assert dl.tridiag_count_below(tr, x) == int((w < x).sum())

    def test_eigs_below_match_lapack(self):
        rng = np.random.default_rng(43)
        Bs, As = random_block_problem(rng, 3, 20)
        w = np.linalg.eigvalsh(dense_from_blocks(Bs, As))
        got, _ = dl.tridiag_eigs_below(blocks_truncation(Bs, As), -1.0)
        want = w[w < -1.0]
        assert got.size == want.size
        if got.size:
            assert np.abs(got - want).max() < 1e-10

    def test_kth_eigenvalue(self):
        rng = np.random.default_rng(47)
        Bs, As = random_block_problem(rng, 2, 15)
        tr = blocks_truncation(Bs, As)
        w = np.linalg.eigvalsh(dense_from_blocks(Bs, As))
        for k in (1, 7, 30):
            assert dl.tridiag_kth_eigenvalue(tr, k) == pytest.approx(w[k - 1], abs=1e-10)

    def test_free_jacobi_min_eigenvalue(self):
        # scalar free Jacobi truncation: eigenvalues 2 cos(j pi / (N+1))
        N = 50
        Bs = [np.zeros((1, 1), complex)] * N
        As = [np.ones((1, 1), complex)] * (N - 1)
        got = dl.tridiag_kth_eigenvalue(blocks_truncation(Bs, As), 1)
        assert got == pytest.approx(-2 * np.cos(np.pi / (N + 1)), abs=1e-11)


def complex_block_problem(seed, d, N):
    rng = np.random.default_rng(seed)
    Bs = [random_hermitian(rng, d) for _ in range(N)]
    As = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
          for _ in range(N - 1)]
    return Bs, As


problems = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4]),
                     st.integers(1, 40))


class TestInertiaProperties:
    """Batched inertia counts and multisection on random complex Hermitian
    block problems, against numpy.linalg.eigvalsh and, bit for bit, the full
    recurrence without the early stop."""

    @settings(deadline=None, max_examples=40)
    @given(problems, st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=12))
    def test_counts(self, problem, fracs):
        Bs, As = complex_block_problem(*problem)
        tr = blocks_truncation(Bs, As)
        w = np.linalg.eigvalsh(dense_from_blocks(Bs, As))
        span = max(w[-1] - w[0], 1.0)
        xs = np.sort(w[0] + span * np.array(fracs))
        got = dl.tridiag_count_below(tr, xs)
        assert got.dtype.kind == "i" and got.shape == xs.shape
        # each shift's count is bitwise independent of the batch around it
        single = [dl.tridiag_count_below(tr, x) for x in xs]
        assert all(isinstance(c, int) for c in single)
        assert got.tolist() == single
        assert np.array_equal(got, reference_count_below(tr, xs))
        assert np.all(np.diff(got) >= 0)
        far = np.abs(xs[:, None] - w[None, :]).min(axis=1) > 1e-8 * span
        want = (w[None, :] < xs[:, None]).sum(axis=1)
        assert np.array_equal(got[far], want[far])

    @settings(deadline=None, max_examples=20)
    @given(problems)
    def test_multisection_eigenvalues(self, problem):
        Bs, As = complex_block_problem(*problem)
        tr = blocks_truncation(Bs, As)
        w = np.linalg.eigvalsh(dense_from_blocks(Bs, As))
        n = w.size
        lo, hi = dl._gershgorin_bounds(dl._gershgorin(tr))
        tol = 1e-13 * max(1.0, abs(lo), abs(hi))
        j = min(3, n)
        # The count carries rounding error of its own, amplified by nearly
        # singular pivots: on seed 3776, d = 3, N = 3 it switches 2.7e-12
        # past an eigenvalue, and bisection misses by 2.4 tol there too.
        # Where the count is wrong within tol / 2 of an eigenvalue no
        # bracket width helps; elsewhere a bracket no wider than tol has
        # its midpoint within tol.
        lam = w[sorted({0, j - 1, n - 1})]
        probes = np.concatenate([lam - 0.5 * tol, lam + 0.5 * tol])
        assume(np.array_equal(dl.tridiag_count_below(tr, probes),
                              (w[None, :] < probes[:, None]).sum(axis=1)))
        for k in {1, n}:
            assert abs(dl.tridiag_kth_eigenvalue(tr, k) - w[k - 1]) <= tol
        b = w[j - 1] + 1.0 if j == n else 0.5 * (w[j - 1] + w[j])
        below, _ = dl.tridiag_eigs_below(tr, b)
        assert below.shape == (j,)
        assert np.all(np.abs(below - w[:j]) <= tol)
        again, _ = dl.tridiag_eigs_below(tr, b)
        assert again.tobytes() == below.tobytes()

    @settings(deadline=None, max_examples=20)
    @given(problems)
    def test_index_out_of_range(self, problem):
        Bs, As = complex_block_problem(*problem)
        tr = blocks_truncation(Bs, As)
        for k in (0, tr.dense_dim + 1):
            with pytest.raises(ValueError, match="out of range"):
                dl.tridiag_kth_eigenvalue(tr, k)

    @settings(deadline=None, max_examples=15)
    @given(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
                     st.integers(1, 10)), st.floats(0.0, 1.0))
    def test_multisection_is_bisection(self, problem, frac):
        # bisection with single-shift counts on the same bracket
        Bs, As = complex_block_problem(*problem)
        tr = blocks_truncation(Bs, As)
        n = len(Bs) * Bs[0].shape[0]
        k = 1 + int(frac * (n - 1))
        lo, hi = dl._gershgorin_bounds(dl._gershgorin(tr))
        tol = 1e-13 * max(1.0, abs(lo), abs(hi))
        lo, hi = lo - tol, hi + tol
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if dl.tridiag_count_below(tr, mid) >= k:
                hi = mid
            else:
                lo = mid
        want = 0.5 * (lo + hi)
        assert dl.tridiag_kth_eigenvalue(tr, k) == want
        # count(hi) >= k, so the k-th eigenvalue is among those below hi
        below, _ = dl.tridiag_eigs_below(tr, hi)
        assert below.size >= k and below[k - 1] == want


class TestInverseIteration:
    def test_matches_dense_eigenvector(self):
        rng = np.random.default_rng(53)
        Bs, As = random_block_problem(rng, 2, 25)
        tr = blocks_truncation(Bs, As)
        T = dense_from_blocks(Bs, As)
        w, V = np.linalg.eigh(T)
        lam = dl.tridiag_kth_eigenvalue(tr, 1)
        lu = dl.block_tridiag_factor(tr, lam + 1e-11 * max(1.0, abs(lam)),
                                     check_conditioning=False)
        x, rq = dl.tridiag_inverse_iteration(tr, lu)
        assert rq == pytest.approx(w[0], abs=1e-10)
        assert abs(np.vdot(V[:, 0], x)) == pytest.approx(1.0, abs=1e-9)


class TestVectorNorm:
    def test_matches_numpy(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert dl.vector_norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-14)

    def test_no_underflow(self):
        x = np.array([3e-300, 4e-300])
        assert dl.vector_norm(x) == pytest.approx(5e-300, rel=1e-12)
