import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjacobi import (BoundParams, CommutationError, OperatorFamily, StParams,
                         assemble_truncation, check_pairwise_commutation,
                         diagonal_family, gamma_rate, parse_family_spec,
                         phi_delta, psi, psi_inv, qualified_constant,
                         scalar_envelope, scalar_free_family, simplified_rate,
                         spectral_norm, st_family, verify_commuting_decay)
from blockjacobi import bounds
from conftest import commuting_weights


class TestBoundParams:
    def test_rejects_lambda_at_or_above_b(self):
        with pytest.raises(ValueError, match="below"):
            BoundParams(lam=0.0, b=0.0)

    def test_rejects_bad_delta_eps(self):
        with pytest.raises(ValueError, match="delta"):
            BoundParams(lam=-1.0, b=0.0, delta=0.0)
        with pytest.raises(ValueError, match="eps"):
            BoundParams(lam=-1.0, b=0.0, eps=1.0)

    def test_complex_lambda_uses_real_part(self):
        p = BoundParams(lam=-1.0 + 5.0j, b=0.0)
        assert p.gap == 1.0


class TestPsi:
    def test_values(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == pytest.approx(math.e, rel=1e-15)
        assert psi(2.0) == pytest.approx(4 * math.e**2, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            psi(-0.1)

    def test_inverse_values(self):
        assert psi_inv(0.0) == 0.0
        assert psi_inv(math.e) == pytest.approx(1.0, abs=1e-13)
        assert psi_inv(4 * math.e**2) == pytest.approx(2.0, abs=1e-13)

    def test_roundtrip_grid(self):
        xs = np.linspace(0.0, 20.0, 1000)
        for x in xs:
            t = psi(x)
            err = abs(psi(psi_inv(t)) - t)
            assert err <= 1e-12 * max(t, 1.0)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=0.0, max_value=20.0))
    def test_roundtrip_property(self, x):
        t = psi(x)
        assert abs(psi_inv(t) - x) <= 1e-10 * max(x, 1.0)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 20.0, 400)
        vals = [psi(x) for x in xs]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


class TestPhiDelta:
    def test_branches(self):
        assert phi_delta(0.25, 1.0) == 1.0
        assert phi_delta(4.0, 1.0) == 0.5

    def test_continuous_at_joint(self):
        for delta in (0.5, 1.0, 3.0):
            assert phi_delta(delta, delta) == pytest.approx(1 / math.sqrt(delta), rel=1e-15)
            below = phi_delta(delta * (1 - 1e-12), delta)
            above = phi_delta(delta * (1 + 1e-12), delta)
            assert abs(below - above) < 1e-6

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e3))
    def test_nonincreasing_and_capped(self, x, y, delta):
        lo, hi = sorted((x, y))
        assert phi_delta(lo, delta) >= phi_delta(hi, delta)
        assert phi_delta(x, delta) <= 1 / math.sqrt(delta) + 1e-15


class TestGammaRate:
    def test_delta_one_argument_e(self):
        # (b - Re lam)(1 - eps) = e with delta = 1 gives gamma = 1
        p = BoundParams(lam=-math.e / 0.9, b=0.0, delta=1.0, eps=0.1)
        assert gamma_rate(p) == pytest.approx(1.0, abs=1e-12)

    def test_delta_four_argument_4e(self):
        # delta = 4 and (b - Re lam)(1 - eps) = 4e: psi_inv(e) = 1, sqrt(4) = 2
        p = BoundParams(lam=-4 * math.e / 0.9, b=0.0, delta=4.0, eps=0.1)
        assert gamma_rate(p) == pytest.approx(2.0, abs=1e-12)

    def test_vanishes_at_edge(self):
        gams = [gamma_rate(BoundParams(lam=-gap, b=0.0)) for gap in (1e-1, 1e-3, 1e-6)]
        assert gams[0] > gams[1] > gams[2] > 0.0
        assert gams[2] < 1e-2

    @settings(deadline=None, max_examples=80)
    @given(st.floats(min_value=-50, max_value=-1e-3),
           st.floats(min_value=-40, max_value=-1e-3))
    def test_monotone_in_re_lambda(self, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        g_lo = gamma_rate(BoundParams(lam=lo, b=0.0))
        g_hi = gamma_rate(BoundParams(lam=hi, b=0.0))
        assert g_lo >= g_hi - 1e-12

    @settings(deadline=None, max_examples=80)
    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_in_b(self, b1, b2):
        lo, hi = sorted((b1, b2))
        g_lo = gamma_rate(BoundParams(lam=-1.0, b=lo))
        g_hi = gamma_rate(BoundParams(lam=-1.0, b=hi))
        assert g_hi >= g_lo - 1e-12


class TestSimplifiedRate:
    def test_values(self):
        assert simplified_rate(BoundParams(lam=-1.0, b=0.0, eps=0.1)) == pytest.approx(0.9)
        assert simplified_rate(BoundParams(lam=-4.0, b=0.0, eps=0.5)) == pytest.approx(1.0)

    def test_ratio_near_edge(self):
        p = BoundParams(lam=-1e-3, b=0.0, delta=1.0, eps=0.1)
        ratio = gamma_rate(p) / simplified_rate(p)
        assert 0.95 <= ratio <= 1.05


class TestScalarEnvelope:
    def test_scalar_free_cumulative(self):
        env = scalar_envelope(assemble_truncation(scalar_free_family(), 6),
                              BoundParams(lam=-3.0, b=-2.0))
        assert np.allclose(env.cumulative, np.arange(6))

    def test_st_alpha06_s4(self):
        env = scalar_envelope(assemble_truncation(st_family(StParams(2, 2, 0.6)), 4),
                              BoundParams(lam=-1.0, b=0.0))
        want = 1 + 2 ** -0.3 + 3 ** -0.3
        assert env.cumulative[3] == pytest.approx(want, abs=1e-12)
        assert env.cumulative[3] == pytest.approx(2.5314754896811, abs=1e-10)

    def test_same_index_bound_is_one(self):
        env = scalar_envelope(assemble_truncation(scalar_free_family(), 5),
                              BoundParams(lam=-3.0, b=-2.0))
        assert env.bound(3, 3) == 1.0

    def test_increments_capped_by_delta(self):
        fam = diagonal_family([0.01], [0.0])  # tiny coupling: phi = 1/sqrt(delta)
        p = BoundParams(lam=-1.0, b=0.0, delta=0.25)
        env = scalar_envelope(assemble_truncation(fam, 10), p)
        inc = np.diff(env.cumulative)
        assert np.all(inc <= 1 / math.sqrt(p.delta) + 1e-15)
        assert np.all(inc >= 0)


class TestOperatorEnvelope:
    """The commuting refinement's operator weights, as the verify path builds
    them (conftest.commuting_weights), and its commutation check."""

    def test_antidiagonal_reduces_to_scalar(self):
        fam = st_family(StParams(2, 2, 0.6))
        p = BoundParams(lam=-1.0, b=0.0)
        tr = assemble_truncation(fam, 6)
        weights = commuting_weights(tr, p)
        env = scalar_envelope(tr, p)
        for m, W in enumerate(weights, start=1):
            scalar = math.exp(env.gamma * env.cumulative[m - 1])
            assert np.abs(W - scalar * np.eye(2)).max() <= 1e-10 * scalar

    def test_first_weight_is_identity(self):
        fam = diagonal_family([1, 4], [0, 0])
        weights = commuting_weights(assemble_truncation(fam, 3), BoundParams(lam=-1.0, b=0.0))
        assert np.array_equal(weights[0], np.eye(2))

    def test_diagonal_entrywise_weight(self):
        # A_k = diag(1, 4), delta 1: phi values 1 and 1/2 per step
        fam = diagonal_family([1.0, 4.0], [0.0, 0.0])
        p = BoundParams(lam=-math.e / 0.9, b=0.0)  # gamma = 1
        W2 = commuting_weights(assemble_truncation(fam, 2), p)[1]
        assert np.allclose(np.diag(W2).real, [math.e, math.exp(0.5)], rtol=1e-12)

    def test_min_eig_dominates_scalar_weight(self):
        fam = diagonal_family([1.0, 4.0], [0.0, 0.0], aexp=0.3)
        p = BoundParams(lam=-2.0, b=0.0)
        tr = assemble_truncation(fam, 8)
        weights = commuting_weights(tr, p)
        env = scalar_envelope(tr, p)
        for m, W in enumerate(weights, start=1):
            lo = np.linalg.eigvalsh(W)[0]
            scalar = math.exp(env.gamma * env.cumulative[m - 1])
            assert lo >= scalar * (1 - 1e-10)

    def test_noncommuting_family_rejected(self):
        fam = st_family(StParams(1, 4, 0.5))  # s != t: A and B do not commute
        with pytest.raises(CommutationError, match="do not commute"):
            verify_commuting_decay(assemble_truncation(fam, 4), BoundParams(lam=-1.0, b=0.0))

    def test_commutation_check_names_pair(self):
        fam = st_family(StParams(1, 4, 0.5))
        with pytest.raises(CommutationError) as err:
            check_pairwise_commutation(assemble_truncation(fam, 3))
        assert err.value.first[0] in ("A", "B", "A*")
        assert isinstance(err.value.first[1], int)

    def test_commutation_break_at_200_pinned(self):
        base = diagonal_family([1.0, 2.0], [3.0, 4.0], 0.5, 0.5)

        def diag(n):
            B = base.diag(n)
            return B + np.array([[0.0, 0.5], [0.5, 0.0]]) if n == 200 else B

        fam = OperatorFamily(2, base.offdiag, diag)
        with pytest.raises(CommutationError) as err:
            check_pairwise_commutation(assemble_truncation(fam, 300))
        assert (err.value.first, err.value.second) == (("A", 1), ("B", 200))
        assert str(err.value) == ("entries A_1 and B_200 do not commute: "
                                  "relative commutator norm 4.472e-03 > 1e-10")

    def test_commuting_family_accepted(self):
        check_pairwise_commutation(assemble_truncation(
            diagonal_family([1, 2], [3, 4], 0.5, 0.5), 12))
        check_pairwise_commutation(assemble_truncation(st_family(StParams(2, 2, 0.6)), 12))

    def test_last_coupling_is_not_an_entry(self):
        # A_N lies outside the N-block truncation: a family that stops
        # commuting only at A_10 passes at N = 10 and fails at N = 11
        base = diagonal_family([1.0, 2.0], [3.0, 4.0])
        fam = OperatorFamily(2, lambda n: base.offdiag(n) + (
            np.array([[0.0, 1.0], [0.0, 0.0]]) if n == 10 else 0.0), base.diag)
        check_pairwise_commutation(assemble_truncation(fam, 10))
        with pytest.raises(CommutationError) as err:
            check_pairwise_commutation(assemble_truncation(fam, 11))
        assert (err.value.first, err.value.second) == (("A", 1), ("A", 10))


def entry_stack(family, N):
    """A_1, B_1, A_1*, ..., A_{N-1}*, B_N: the entries of the N-block
    truncation as the commutation check reads them, with their names."""
    tr = assemble_truncation(family, N)
    mats, names = [], []
    for n in range(1, N + 1):
        B = tr.diag_blocks[n - 1]
        if n < N:
            A = tr.offdiag_blocks[n - 1]
            mats.extend([A, B, A.conj().T])
            names.extend([("A", n), ("B", n), ("A*", n)])
        else:
            mats.append(B)
            names.append(("B", n))
    return np.stack(mats), names


@st.composite
def near_commuting_stacks(draw):
    """Stacks of d x d matrices with a common eigenbasis (identity, real
    orthogonal or unitary) and eigenvalue patterns from an r-dimensional
    span, r <= d, so the span is often rank-deficient; some members are zero,
    and some are perturbed by a relative eps around COMMUTATION_TOL."""
    d = draw(st.integers(1, 3))
    complex_entries = draw(st.booleans())
    r = draw(st.integers(1, d))
    S = draw(st.integers(1, 24))
    basis = draw(st.sampled_from(["identity", "rotated"]))
    eps = draw(st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 3e-11, 5e-11, 8e-11,
                                1e-10, 1.5e-10, 3e-10, 1e-9, 1e-6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gauss(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_entries else z

    Q = np.eye(d) if basis == "identity" else np.linalg.qr(gauss(d, d))[0]
    eigs = gauss(S, r) @ gauss(r, d) * 10.0 ** rng.uniform(-3, 3, (S, 1))
    M = np.einsum("ij,sj,kj->sik", Q, eigs, Q.conj()).astype(complex)
    M[rng.random(S) < 0.2] = 0.0
    for i in np.flatnonzero(rng.random(S) < 0.3):
        Z = gauss(d, d)
        M[i] += eps * np.linalg.norm(M[i]) * Z / np.linalg.norm(Z)
    return M


class TestCommutationCertificate:
    @settings(deadline=None, max_examples=300)
    @given(near_commuting_stacks())
    def test_certificate_never_passes_what_the_scan_rejects(self, M):
        if bounds._commutation_certified(M):
            bounds._commutation_scan(M, [("X", i) for i in range(len(M))])

    @pytest.mark.parametrize("spec", [
        "diagonal-test:adiag=1;4,bdiag=2;8,aexp=0.6,bexp=0.6",
        "st:s=2,t=2,alpha=0.6", "scalar-free"])
    def test_commuting_builtins_decided_without_the_scan(self, spec, monkeypatch):
        M, names = entry_stack(parse_family_spec(spec), 300)
        bounds._commutation_scan(M, names)  # the oracle agrees

        def no_scan(M, names):
            raise AssertionError("the certificate should have decided")

        monkeypatch.setattr(bounds, "_commutation_scan", no_scan)
        check_pairwise_commutation(assemble_truncation(parse_family_spec(spec), 300))

    def test_scalar_free_zero_diagonal_gives_no_warning(self):
        M, _ = entry_stack(scalar_free_family(), 300)  # every B_n = 0
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert bounds._commutation_certified(M)
            check_pairwise_commutation(assemble_truncation(scalar_free_family(), 300))

    def test_all_zero_and_extreme_scales(self):
        assert bounds._commutation_certified(np.zeros((6, 2, 2), complex))
        # outside [1e-100, 1e100] the certificate leaves the decision to the scan
        assert not bounds._commutation_certified(1e-150 * np.eye(2)[None].astype(complex))
        assert not bounds._commutation_certified(1e150 * np.eye(2)[None].astype(complex))

    def test_noncommuting_family_falls_back_to_the_scan(self):
        M, names = entry_stack(st_family(StParams(1, 4, 0.5)), 40)
        assert not bounds._commutation_certified(M)
        with pytest.raises(CommutationError) as want:
            bounds._commutation_scan(M, names)
        with pytest.raises(CommutationError) as got:
            check_pairwise_commutation(assemble_truncation(st_family(StParams(1, 4, 0.5)), 40))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_scan_rejects_noncommuting_family_at_extreme_scales(self, scale):
        # unscaled, the squared norms would overflow to inf (1e160) or
        # underflow to 0 (1e-160) and every pair would pass
        fam = parse_family_spec("st:s=1,t=4,alpha=0.5")
        scaled = OperatorFamily(2, lambda n: scale * fam.offdiag(n),
                                lambda n: scale * fam.diag(n))
        with pytest.raises(CommutationError) as want:
            check_pairwise_commutation(assemble_truncation(fam, 10))
        with pytest.raises(CommutationError) as got:
            check_pairwise_commutation(assemble_truncation(scaled, 10))
        assert (got.value.first, got.value.second) == (want.value.first, want.value.second)
        assert str(got.value) == str(want.value)
        assert str(want.value) == ("entries A_1 and B_1 do not commute: "
                                   "relative commutator norm 7.276e-01 > 1e-10")

    def test_non_finite_entry_rejected(self):
        base = diagonal_family([1.0, 2.0], [3.0, 4.0])
        fam = OperatorFamily(2, lambda n: base.offdiag(n) + (
            np.array([[np.nan, 0.0], [0.0, 0.0]]) if n == 5 else 0.0), base.diag)
        with pytest.raises(ValueError, match=r"offdiag\(5\) has non-finite entries"):
            check_pairwise_commutation(assemble_truncation(fam, 10))
        with pytest.raises(ValueError, match=r"offdiag\(5\) has non-finite entries"):
            verify_commuting_decay(assemble_truncation(fam, 40), BoundParams(lam=-1.0, b=0.0))


class TestQualifiedConstant:
    def test_no_spectrum_below_collapses(self):
        p = BoundParams(lam=-1.0, b=0.0, eps=0.1)
        val = qualified_constant(p, M=5, dist_sigma=1.0, min_eig_gap=0.0)
        assert val == pytest.approx(2.0 / (0.1 * 1.0))

    def test_zero_cutoff_collapses_exponential(self):
        p = BoundParams(lam=-1.0, b=0.0, eps=0.1)
        ratio = 0.5
        val = qualified_constant(p, M=0, dist_sigma=1.0, min_eig_gap=ratio)
        assert val == pytest.approx(2.0 * (1 + ratio) / 0.1)

    def test_monotone_in_cutoff(self):
        p = BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1)
        vals = [qualified_constant(p, M=M, dist_sigma=1.0, min_eig_gap=0.5)
                for M in (1, 5, 10, 20)]
        assert all(v > 0 and np.isfinite(v) for v in vals)
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_rejects_bad_inputs(self):
        p = BoundParams(lam=-1.0, b=0.0)
        with pytest.raises(ValueError):
            qualified_constant(p, M=-1, dist_sigma=1.0, min_eig_gap=0.0)
        with pytest.raises(ValueError):
            qualified_constant(p, M=1, dist_sigma=0.0, min_eig_gap=0.0)


class TestSpectralNormOfFamilies:
    def test_st_offdiag_norm(self):
        fam = st_family(StParams(2, 2, 0.6))
        from blockjacobi import block_entries
        for n in (1, 2, 9):
            A, _ = block_entries(fam, n)
            assert spectral_norm(A) == pytest.approx(n ** 0.6, rel=1e-12)
