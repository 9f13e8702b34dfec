"""The stacked Jacobi and the block norms built on it against the per-matrix
reference, bit for bit, and the SingularShiftError contract of the factor's
deferred condition check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjacobi import dense_linalg as dl
from reference_kernels import mid_chain_problem, reference_factor, reference_hermitian_eig


def reference_spectral_norm(A) -> float:
    """The per-block spectral_norm body the stacked kernel replaces: the full
    per-matrix cyclic Jacobi on A* A / max|A|^2, one matrix at a time."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim == 1:
        A = A[None, :]
    m = float(np.abs(A).max()) if A.size else 0.0
    if m == 0.0:
        return 0.0
    B = A / m
    H = B.conj().T @ B
    dec = reference_hermitian_eig(H)
    return m * float(np.sqrt(max(dec.values[-1], 0.0)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_stack(A):
    """Stacked norms equal the per-block reference bitwise, and each member
    alone (S = 1) gives the same float.  Where the reference fails (its
    1 / max|A| overflows for a subnormal member), the power-of-two prescaled
    kernel must match LAPACK instead, up to a few subnormal ulps."""
    want = []
    for a in A:
        with np.errstate(all="ignore"):
            try:
                want.append(reference_spectral_norm(a))
            except ArithmeticError:
                want.append(None)
    got = dl.spectral_norm(A)
    assert isinstance(got, np.ndarray) and got.shape == (A.shape[0],)
    for a, g, w in zip(A, got, want):
        single = dl.spectral_norm(a)
        assert isinstance(single, float)
        assert same_bits(single, g)
        if w is None:
            sv = np.linalg.svd(a * 2.0 ** 64, compute_uv=False)[0] / 2.0 ** 64
            assert abs(g - sv) <= 1e-13 * sv + 2e-323
        else:
            assert same_bits(g, w)


def check_eig_stack(H):
    """The stacked hermitian_eig equals the per-matrix reference Jacobi
    bitwise, values and vectors, and so does each member alone."""
    dec = dl.hermitian_eig(H)
    assert dec.values.shape == H.shape[:2] and dec.vectors.shape == H.shape
    for h, w, V in zip(H, dec.values, dec.vectors):
        ref = reference_hermitian_eig(h)
        assert same_bits(ref.values, w) and same_bits(ref.vectors, V)
        one = dl.hermitian_eig(h)
        assert same_bits(one.values, w) and same_bits(one.vectors, V)


# complex entries m * 10^e over 500 decades; whole blocks may be zero
_mantissa = st.floats(-1.0, 1.0, allow_nan=False)
_entry = st.builds(lambda re, im, e: complex(re, im) * 10.0 ** e,
                   _mantissa, _mantissa, st.integers(-250, 250))


@st.composite
def block_stacks(draw):
    d = draw(st.integers(1, 4))
    S = draw(st.integers(1, 6))
    blocks = []
    for _ in range(S):
        if draw(st.booleans()) and draw(st.booleans()):
            blocks.append(np.zeros((d, d), complex))
        else:
            blocks.append(np.array(draw(st.lists(_entry, min_size=d * d,
                                                 max_size=d * d))).reshape(d, d))
    return np.array(blocks, dtype=complex)


@st.composite
def st_type_stacks(draw):
    """Real antidiagonal blocks n^alpha [[0, 1], [1, 0]] (the st couplings)
    and real antidiagonal blocks with unequal entries, as pivots see them."""
    alpha = draw(st.floats(0.05, 0.95))
    ns = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=8))
    blocks = []
    for n in ns:
        a = float(n) ** alpha
        b = a if draw(st.booleans()) else draw(st.floats(-1e6, 1e6, allow_nan=False))
        blocks.append([[0.0, a], [b, 0.0]])
    return np.array(blocks, dtype=complex)


class TestStackedSpectralNorm:
    @settings(deadline=None, max_examples=150)
    @given(block_stacks())
    def test_stack_equals_per_block(self, A):
        check_stack(A)

    @settings(deadline=None, max_examples=60)
    @given(st_type_stacks())
    def test_st_antidiagonal_equals_per_block(self, A):
        check_stack(A)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_stacks_equal_per_block(self, d):
        rng = np.random.default_rng(40 + d)
        S = 400 if d < 3 else 60
        A = rng.standard_normal((S, d, d)) + 1j * rng.standard_normal((S, d, d))
        A[1::3] = A[1::3].real  # real members
        A[2::7] *= 10.0 ** rng.uniform(-250, 250, (A[2::7].shape[0], 1, 1))
        A[::11] = 0.0
        check_stack(A)

    def test_rectangular_and_row_inputs(self):
        rng = np.random.default_rng(5)
        for shape in [(7, 1, 2), (7, 3, 2), (7, 2, 1), (7, 4, 3)]:
            check_stack(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert same_bits(dl.spectral_norm(v), reference_spectral_norm(v))

    def test_empty_and_zero(self):
        assert dl.spectral_norm(np.zeros((0, 2, 2))).shape == (0,)
        assert dl.spectral_norm(np.zeros((2, 2))) == 0.0
        assert np.array_equal(dl.spectral_norm(np.zeros((3, 2, 0))), np.zeros(3))

    def test_subnormal_gram_entry_matches_reference(self):
        # A* A has the off-diagonal entry 1e-310, whose norm no longer
        # overflows the Jacobi's stopping test: both kernels give the norm
        A = np.array([[1.0, 1e-310], [0.0, 0.5]])
        assert reference_spectral_norm(A) == 1.0
        assert dl.spectral_norm(A) == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_subnormal_largest_entry_is_prescaled(self, d):
        # the reference's 1 / max|A| overflows and its Jacobi raises; the
        # kernel prescales the member by a power of two and is exact here
        A = np.zeros((d, d), complex)
        A[d - 1, d - 1] = 2.22507386e-309j
        with pytest.raises(ArithmeticError), np.errstate(all="ignore"):
            reference_spectral_norm(A)
        assert dl.spectral_norm(A) == 2.22507386e-309
        check_stack(np.array([A, np.eye(d)]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_member_gives_nan(self, d):
        A = np.array([np.eye(d)] * 4, dtype=complex)
        A[1, 0, 0], A[2, 0, 0], A[3, 0, 0] = np.inf, np.nan, complex(1.0, -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dl.spectral_norm(A)
        assert got[0] == 1.0 and np.isnan(got[1:]).all()


class TestSubnormalScales:
    """Members whose largest entry is subnormal: 1 / max|x| overflows, so the
    kernels prescale them by an exact power of two."""

    def test_vector_norm_of_subnormal_complex_vector(self):
        x = np.array([3e-310, 4e-310], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dl.vector_norm(x)
        assert abs(got - math.hypot(3e-310, 4e-310)) <= 1e-323
        assert same_bits(dl.vector_norm(np.array([x, [1.0, 0.0]])),
                         [got, dl.vector_norm(np.array([1.0, 0.0], dtype=complex))])

    @pytest.mark.parametrize("d", [2, 3])
    def test_hermitian_eig_with_subnormal_off_diagonal_converges(self, d):
        H = np.diag(np.arange(d, 0, -1) / d).astype(complex)
        H[0, 1] = H[1, 0] = 1e-310
        dec = dl.hermitian_eig(H)
        assert same_bits(dec.values, np.sort(np.diag(H).real))
        check_eig_stack(np.array([H, np.eye(d)]))

    def test_spectral_norm_of_subnormal_matrix(self):
        A = np.array([[3e-310, 1e-310j], [0.0, -2e-310]])
        sv = np.linalg.svd(A * 2.0 ** 64, compute_uv=False)[0] / 2.0 ** 64
        got = dl.spectral_norm(A)
        assert abs(got - sv) <= 1e-13 * sv + 2e-323
        assert same_bits(dl.spectral_norm(np.array([np.eye(2), A]))[1], got)


    def test_abs_matrix_of_subnormal_matrix(self):
        A = np.array([[3e-310, 1e-310j], [0.0, -2e-310]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dl.abs_matrix(A)
        assert np.abs(got - lapack_abs(A)).max() <= 1e-13 * 3e-310 + 4e-323
        assert same_bits(dl.abs_matrix(np.array([np.eye(2), A]))[1], got)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sigma_min_of_subnormal_matrix(self, d):
        A = np.zeros((d, d), complex)
        A[:2, :2] = [[3e-310, 1e-310j], [0.0, -2e-310]]
        A[2:, 2:] = 4e-310 * np.eye(d - 2)
        sv = np.linalg.svd(A * 2.0 ** 64, compute_uv=False)[-1] / 2.0 ** 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dl._sigma_min(A)
        assert abs(got - sv) <= 1e-13 * sv + 2e-323


def reference_abs_matrix(A) -> np.ndarray:
    """The per-matrix abs_matrix body the stacked kernel replaces."""
    A = np.asarray(A, dtype=np.complex128)
    m = float(np.abs(A).max())
    if m == 0.0:
        return np.zeros_like(A)
    B = A / m
    dec = reference_hermitian_eig(B.conj().T @ B)
    w = np.sqrt(np.clip(dec.values, 0.0, None)) * m
    S = (dec.vectors * w) @ dec.vectors.conj().T
    return (S + S.conj().T) / 2.0


def lapack_abs(A) -> np.ndarray:
    """|A| = V diag(sigma) V* from LAPACK's SVD, prescaled by 2^64."""
    _, s, Vh = np.linalg.svd(A * 2.0 ** 64)
    return (Vh.conj().T * s) @ Vh / 2.0 ** 64


class TestStackedAbsMatrix:
    def check(self, A):
        got = dl.abs_matrix(A)
        assert got.shape == A.shape
        for a, g in zip(A, got):
            assert same_bits(dl.abs_matrix(a), g)
            with np.errstate(all="ignore"):
                try:
                    want = reference_abs_matrix(a)
                except ArithmeticError:  # a subnormal member: 1 / max|A| overflows
                    want = lapack_abs(a)
                    assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max() + 4e-323
                    continue
            assert same_bits(g, want)

    @settings(deadline=None, max_examples=150)
    @given(block_stacks())
    def test_stack_equals_per_block(self, A):
        self.check(A)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_stacks_equal_per_block(self, d):
        rng = np.random.default_rng(80 + d)
        A = rng.standard_normal((120, d, d)) + 1j * rng.standard_normal((120, d, d))
        A[1::3] = A[1::3].real
        A[::11] = 0.0
        self.check(A)

    def test_empty_stack_and_rejects_non_square(self):
        assert dl.abs_matrix(np.zeros((0, 2, 2))).shape == (0, 2, 2)
        with pytest.raises(ValueError):
            dl.abs_matrix(np.zeros((2, 3)))


def hermitian(A):
    return A + A.conj().transpose(0, 2, 1)


class TestStackedHermitianEig:
    @settings(deadline=None, max_examples=150)
    @given(block_stacks())
    def test_stack_equals_per_matrix(self, A):
        H = hermitian(A)
        try:
            with np.errstate(all="ignore"):
                for h in H:
                    reference_hermitian_eig(h)
        except ArithmeticError:
            return  # a member that never converges alone has nothing to match
        check_eig_stack(H)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_random_gram_stacks(self, d):
        rng = np.random.default_rng(60 + d)
        A = rng.standard_normal((300, d, d)) + 1j * rng.standard_normal((300, d, d))
        A[1::3] = A[1::3].real
        A[::7] = np.array([np.diag(np.diag(a)) for a in A[::7]])
        A[::11] = 0.0
        check_eig_stack(A.conj().transpose(0, 2, 1) @ A)
        check_eig_stack(hermitian(A))

    def test_rejects_what_one_matrix_rejects(self):
        with pytest.raises(ValueError):
            dl.hermitian_eig(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
        with pytest.raises(ValueError):
            dl.hermitian_eig(np.zeros((2, 2, 3)))
        with pytest.raises(ArithmeticError):
            dl.hermitian_eig(np.array([np.eye(2), np.diag([np.inf, 1.0])]))
        assert dl.hermitian_eig(np.zeros((0, 2, 2))).values.shape == (0, 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, -np.inf)])
    def test_non_finite_matrix_raises_before_any_sweep(self, bad, monkeypatch):
        def no_sweep(x):
            raise AssertionError("no sweep should run on a non-finite matrix")

        monkeypatch.setattr(dl, "vector_norm", no_sweep)
        H = np.eye(3, dtype=complex)
        H[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in (H, np.array([np.eye(3), H])):
                with pytest.raises(ArithmeticError, match="^Jacobi eigensolver did not converge$"):
                    dl.hermitian_eig(M)

    def test_members_converging_after_different_sweeps(self, monkeypatch):
        # each member stops rotating on its own sweep count while the others
        # go on, and the stack raises once any member runs out of sweeps
        rng = np.random.default_rng(12)
        one_pair = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        one_pair[0, 2], one_pair[2, 0] = 0.5j, -0.5j
        dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = np.array([np.zeros((4, 4)), np.diag([4.0, 1.0, 3.0, 2.0]), one_pair,
                      dense + dense.conj().T], dtype=complex)

        def sweeps_needed(h):
            for k in range(1, 20):
                monkeypatch.setattr(dl, "JACOBI_MAX_SWEEPS", k)
                try:
                    reference_hermitian_eig(h)
                    return k
                except ArithmeticError:
                    pass

        need = [sweeps_needed(h) for h in H[1:]]
        assert need[0] < need[1] < need[2]
        for k in range(1, need[-1] + 1):
            monkeypatch.setattr(dl, "JACOBI_MAX_SWEEPS", k)
            done = [0] + [i + 1 for i, n in enumerate(need) if n <= k]
            check_eig_stack(H[done])
            if len(done) < len(H):
                with pytest.raises(ArithmeticError, match="did not converge"):
                    dl.hermitian_eig(H)


class TestStackedVectorNorm:
    def test_rows_equal_single_vectors(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 7, 8, 130):
            X = (rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))) \
                * 10.0 ** rng.uniform(-250, 250, (50, 1))
            X[::9] = 0.0
            got = dl.vector_norm(X)
            assert same_bits(got, [dl.vector_norm(row) for row in X])

    def test_last_block_alone_equals_block_norms(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        v[-20:] *= 1e-290
        rows = dl.vector_norm(v.reshape(-1, 2))
        assert same_bits(rows[-1], dl.vector_norm(v[-2:]))


def reference_conds(ref, scale):
    """The per-pivot condition estimates of a reference_factor result, from
    the per-matrix reference norm."""
    return np.array([max(reference_spectral_norm(D), scale) * reference_spectral_norm(Dinv)
                     for D, Dinv in zip(ref["pivots"], ref["inverses"])])


def problem_scale(B, A, shift):
    return max(dl.block_scale(B, A), abs(shift))


def assert_like_reference_factor(fac, ref):
    for name, key in (("pivot_lu", "lu"), ("pivot_perm", "perm"),
                      ("transform_blocks", "transforms"), ("forward_blocks", "forwards")):
        assert same_bits(getattr(fac, name), ref[key]), name


def assert_estimates_like_reference(blocks, shift):
    """A checked factor's estimates are the reference's bit for bit: with
    the limit just below each reference estimate, the factor raises for the
    first pivot whose estimate exceeds it, carrying that estimate."""
    cond = reference_conds(reference_factor(*blocks, shift, False), problem_scale(*blocks, shift))
    with pytest.MonkeyPatch.context() as mp:
        for c in cond:
            mp.setattr(dl, "COND_LIMIT", np.nextafter(c, 0.0))
            first = int(np.flatnonzero(cond > dl.COND_LIMIT)[0])
            with pytest.raises(dl.SingularShiftError) as err:
                dl.block_tridiag_factor(blocks, shift)
            assert err.value.block_index == first + 1
            assert same_bits(err.value.cond, cond[first])


def no_norms(*args):
    raise AssertionError("an unchecked factor takes no condition estimate")


class TestConditionEstimates:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("check", [True, False])
    def test_equal_per_pivot_reference(self, d, check, monkeypatch):
        rng = np.random.default_rng(70 + d)
        N = 30
        B = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
        B = B + B.conj().transpose(0, 2, 1)
        A = rng.standard_normal((N - 1, d, d)) + 1j * rng.standard_normal((N - 1, d, d))
        shift = -20.0 - 1.0j
        ref = reference_factor(B, A, shift, check)
        if check:
            assert_estimates_like_reference((B, A), shift)
        else:
            monkeypatch.setattr(dl, "spectral_norm", no_norms)
        fac = dl.block_tridiag_factor((B, A), shift, check_conditioning=check)
        assert_like_reference_factor(fac, ref)

    def test_st_truncation_and_nudged_unchecked_factor(self, monkeypatch):
        from blockjacobi import assemble_truncation, parse_family_spec
        tr = assemble_truncation(parse_family_spec("st:s=2,t=2,alpha=0.6"), 200)
        B, A = tr.diag_blocks, tr.offdiag_blocks
        for shift in (-1.0, -3.5):
            assert_estimates_like_reference((B, A), shift)
            assert_like_reference_factor(dl.block_tridiag_factor(tr, shift),
                                         reference_factor(B, A, shift))
        # an exactly singular first pivot is nudged when unchecked
        Bs = np.array([np.diag([1.0, 2.0])] * 4, dtype=complex)
        As = np.array([0.5 * np.eye(2)] * 3, dtype=complex)
        ref = reference_factor(Bs, As, 1.0, False)
        monkeypatch.setattr(dl, "spectral_norm", no_norms)
        fac = dl.block_tridiag_factor((Bs, As), 1.0, check_conditioning=False)
        assert fac.pivot_lu[0][0, 0] != 0.0
        assert_like_reference_factor(fac, ref)


class TestDeferredConditionCheck:
    def test_mid_chain_pivot_named_with_per_pivot_message(self):
        B, A = mid_chain_problem()
        ref = reference_factor(B, A, 0.0, check_conditioning=False)
        cond = reference_conds(ref, problem_scale(B, A, 0.0))
        assert cond[:2].max() <= dl.COND_LIMIT < cond[2]
        with pytest.raises(dl.SingularShiftError) as err:
            dl.block_tridiag_factor((B, A), 0.0)
        assert err.value.block_index == 3
        assert str(err.value) == str(dl.SingularShiftError(3, float(cond[2])))
        assert str(err.value).startswith("singular shift: pivot block 3 has condition estimate")

    def test_ill_conditioned_pivot_reported_before_later_singular_one(self):
        # no coupling, shift 0: the pivots are the diagonal blocks exactly;
        # pivot 2 is ill-conditioned and pivot 4 exactly singular
        B = np.array([np.diag(v) for v in
                      ([1.0, 2.0], [1e-14, 1.0], [2.0, 3.0], [0.0, 1.0], [1.0, 1.0])],
                     dtype=complex)
        A = np.zeros((4, 2, 2), dtype=complex)
        with pytest.raises(dl.SingularShiftError) as err:
            dl.block_tridiag_factor((B, A), 0.0)
        assert err.value.block_index == 2
        assert str(err.value) == ("singular shift: pivot block 2 has condition "
                                  "estimate 3.000e+14 (limit 1e+12)")
        B[1] = np.eye(2)  # without the earlier bad pivot, pivot 4 raises at once
        with pytest.raises(dl.SingularShiftError) as err:
            dl.block_tridiag_factor((B, A), 0.0)
        assert err.value.block_index == 4 and err.value.cond == np.inf

    def test_failing_factor_emits_no_warning(self):
        # pivot 2 = diag(1e-300, 1) and couplings 1e5 I after it: running on
        # past it overflows the later pivots to inf and NaN
        B = np.array([np.diag([1.0, 2.0]), np.diag([1e-300, 1.0])]
                     + [np.diag([1.0, 2.0])] * 4, dtype=complex)
        A = np.array([np.zeros((2, 2))] + [1e5 * np.eye(2)] * 4, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dl.SingularShiftError) as err:
                dl.block_tridiag_factor((B, A), 0.0)
        assert err.value.block_index == 2
        assert "condition estimate 1.000e+305" in str(err.value)

    def test_failing_d3_factor_names_the_earlier_pivot(self):
        # the d = 3 version: the later pivots overflow to inf and NaN, whose
        # condition estimates (the n >= 3 per-member path) must give NaN
        # rather than stop the Jacobi with ArithmeticError
        B = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([1e-300, 1.0, 1.0])]
                     + [np.diag([1.0, 2.0, 3.0])] * 4, dtype=complex)
        A = np.array([np.zeros((3, 3))] + [1e5 * np.eye(3)] * 4, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dl.SingularShiftError) as err:
                dl.block_tridiag_factor((B, A), 0.0)
        assert err.value.block_index == 2
        assert "condition estimate 1.000e+305" in str(err.value)

    def test_unchecked_factor_keeps_its_warnings(self):
        # only a checked factor silences the elimination it runs past a bad
        # pivot; inverse iteration's unchecked factor warns on overflow
        B = np.array([np.diag([1.0, 2.0]), np.diag([1e-300, 1.0])]
                     + [np.diag([1.0, 2.0])] * 4, dtype=complex)
        A = np.array([np.zeros((2, 2))] + [1e5 * np.eye(2)] * 4, dtype=complex)
        with pytest.warns(RuntimeWarning):
            try:
                dl.block_tridiag_factor((B, A), 0.0, check_conditioning=False)
            except dl.SingularShiftError:
                pass
