"""The shift-batched block LU against the per-shift elimination, bit for
bit: every member of a grid factor is what its shift gives alone, a scalar
shift is the one-member grid, and both equal the per-block reference
kernels in reference_kernels.  Also the stacked tridiagonal product and
psd_matfunc."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjacobi import assemble_truncation, green_column, parse_family_spec
from blockjacobi import dense_linalg as dl
from conftest import blocks_truncation
from reference_kernels import mid_chain_problem, reference_apply, reference_factor, reference_solve

FIELDS = ("pivot_lu", "pivot_perm", "transform_blocks", "forward_blocks")
REFERENCE = ("lu", "perm", "transforms", "forwards")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(fn):
    """fn()'s result, or the text of the SingularShiftError it raises."""
    try:
        return fn()
    except dl.SingularShiftError as exc:
        return str(exc)


@st.composite
def grid_problems(draw):
    """A random complex Hermitian block problem with d = 1..3, N = 1..40, a
    grid of complex shifts and a right-hand side.  Diagonal first blocks
    let a shift equal one of their entries: its first pivot is then exactly
    singular (raised when checked, nudged when not)."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
    B = B + B.conj().transpose(0, 2, 1)
    A = (rng.standard_normal((N - 1, d, d)) + 1j * rng.standard_normal((N - 1, d, d))) \
        * draw(st.sampled_from([1e-3, 1.0, 5.0]))
    singular = draw(st.booleans())
    if singular:
        B[0] = np.diag(np.round(rng.standard_normal(d) * 4.0, 2))
    S = draw(st.integers(1, 5))
    shifts = rng.standard_normal(S) * 6.0 + 1j * rng.standard_normal(S) * draw(
        st.sampled_from([0.0, 1e-6, 1.0]))
    if singular:
        shifts[draw(st.integers(0, S - 1))] = B[0, 0, 0]
    m = draw(st.sampled_from([None, 1, 3]))
    shape = (N * d,) if m is None else (N * d, m)
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return B, A, shifts, rhs


class TestShiftBatchedFactor:
    @settings(deadline=None, max_examples=200)
    @given(grid_problems(), st.booleans())
    def test_grid_equals_per_shift_and_reference(self, problem, check):
        B, A, shifts, rhs = problem
        tr = blocks_truncation(B, A)
        alone = [outcome(lambda s=s: dl.block_tridiag_factor(tr, s, check))
                 for s in shifts]
        failures = [a for a in alone if isinstance(a, str)]
        if failures:
            with pytest.raises(dl.SingularShiftError) as err:
                dl.block_tridiag_factor(tr, shifts, check)
            assert str(err.value) == failures[0]
        else:
            grid = dl.block_tridiag_factor(tr, shifts, check)
            X = grid.solve(rhs)
            assert X.shape == (shifts.size,) + rhs.shape
            for i, (s, one) in enumerate(zip(shifts, alone)):
                for name in FIELDS:
                    assert same_bits(getattr(grid, name)[i], getattr(one, name)), name
                assert same_bits(X[i], one.solve(rhs))
        for s, one in zip(shifts, alone):
            ref = outcome(lambda s=s: reference_factor(B, A, s, check))
            if isinstance(one, str):
                assert ref == one
                continue
            for name, key in zip(FIELDS, REFERENCE):
                assert same_bits(getattr(one, name), ref[key]), name
            assert same_bits(one.solve(rhs), reference_solve(ref, rhs))
            # the one-member grid is the scalar shift with a leading axis
            member = dl.block_tridiag_factor(tr, np.array([s]), check)
            for name in FIELDS:
                assert same_bits(getattr(member, name)[0], getattr(one, name))
            assert same_bits(member.solve(rhs)[0], one.solve(rhs))

    def test_nudged_singular_pivot_in_a_grid(self):
        B = np.array([np.diag([1.0, 2.0])] * 4, dtype=complex)
        A = np.array([0.5 * np.eye(2)] * 3, dtype=complex)
        shifts = np.array([-1.0, 1.0, 2.0 + 0.5j])
        grid = dl.block_tridiag_factor(blocks_truncation(B, A), shifts, check_conditioning=False)
        assert grid.pivot_lu[1, 0, 0, 0] != 0.0
        for i, s in enumerate(shifts):
            ref = reference_factor(B, A, s, check_conditioning=False)
            for name, key in zip(FIELDS, REFERENCE):
                assert same_bits(getattr(grid, name)[i], ref[key]), name

    def test_shifts_must_be_scalar_or_1d(self):
        B = np.array([np.eye(2)] * 3, dtype=complex)
        A = np.zeros((2, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="scalar or 1-d"):
            dl.block_tridiag_factor(blocks_truncation(B, A), np.zeros((2, 2)))


class TestGridErrors:
    def test_ill_conditioned_point_mid_grid_raises_its_own_text(self):
        B, A = mid_chain_problem()
        tr = blocks_truncation(B, A)
        with pytest.raises(dl.SingularShiftError) as alone:
            dl.block_tridiag_factor(tr, 0.0)
        assert alone.value.block_index == 3
        with pytest.raises(dl.SingularShiftError) as err:
            dl.block_tridiag_factor(tr, np.array([-1.0, -0.5, 0.0, -2.0]))
        assert str(err.value) == str(alone.value)

    def test_first_failing_point_in_input_order_wins(self):
        # shift 0 fails at pivot 3 (ill-conditioned), shift 3 at pivot 1
        # (exactly singular: B_1 = diag(3, 2)); each grid names its first
        B, A = mid_chain_problem()
        tr = blocks_truncation(B, A)
        texts = [outcome(lambda s=s: dl.block_tridiag_factor(tr, s)) for s in (0.0, 3.0)]
        assert texts[1] == str(dl.SingularShiftError(1, np.inf))
        for order in ([0.0, 3.0], [3.0, 0.0]):
            with pytest.raises(dl.SingularShiftError) as err:
                dl.block_tridiag_factor(tr, np.array([-1.0] + order))
            assert str(err.value) == texts[[0.0, 3.0].index(order[0])]

    def test_green_grid_raises_like_its_point(self):
        tr = assemble_truncation(parse_family_spec("scalar-free"), 6)
        lam = 1.4142135623730951  # an eigenvalue of the 3-block free section
        with pytest.raises(dl.SingularShiftError) as alone:
            green_column(tr, lam, 1)
        with pytest.raises(dl.SingularShiftError) as err:
            green_column(tr, [-3.0, lam, -2.0], 1)
        assert str(err.value) == str(alone.value)


class TestGreenGrid:
    def test_grid_sets_equal_single_points(self):
        tr = assemble_truncation(parse_family_spec("st:s=2,t=2,alpha=0.6"), 120)
        lams = [-3.0, -1.5 - 0.5j, -0.5]
        sets = green_column(tr, lams, 4)
        assert isinstance(sets, list) and len(sets) == 3
        for lam, got in zip(lams, sets):
            one = green_column(tr, lam, 4)
            assert got.lam == lam and got.source == 4
            assert same_bits(got.blocks, one.blocks)
            assert same_bits(got.norms(), one.norms())
            assert not got.blocks.flags.writeable


class TestStackedApply:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 7, 40])
    def test_equals_block_loop(self, d, N):
        rng = np.random.default_rng(10 * d + N)
        B = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
        A = rng.standard_normal((N - 1, d, d)) + 1j * rng.standard_normal((N - 1, d, d))
        tr = blocks_truncation(B, A)
        for shape in [(N * d,), (N * d, 1), (N * d, 3)]:
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = dl.tridiag_apply(tr, x)
            assert same_bits(got, reference_apply(B, A, x))


class TestStackedPsdMatfunc:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_equals_per_matrix(self, d):
        rng = np.random.default_rng(90 + d)
        G = rng.standard_normal((40, d, d)) + 1j * rng.standard_normal((40, d, d))
        H = G.conj().transpose(0, 2, 1) @ G
        H[::5] = 0.0
        for f in (lambda x: math.exp(0.7 * x), lambda x: 1.0 / math.sqrt(max(x, 0.25))):
            got = dl.psd_matfunc(H, f)
            assert got.shape == H.shape
            for h, g in zip(H, got):
                assert same_bits(dl.psd_matfunc(h[None], f)[0], g)

    def test_errors_name_the_first_bad_member(self):
        H = np.array([np.eye(2), np.diag([-1.0, 1.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValueError, match=r"not PSD: min eigenvalue -1.000e\+00"):
            dl.psd_matfunc(H, lambda x: 1.0 / float(x))
        H[1] = np.diag([2.0, 1.0])
        with pytest.raises(ValueError, match="function undefined at an eigenvalue"):
            dl.psd_matfunc(H, lambda x: 1.0 / float(x))
        with pytest.raises(ValueError, match="not finite"):
            dl.psd_matfunc(H, lambda x: math.inf if x > 1.5 else 1.0 / float(x))
