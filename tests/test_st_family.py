import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockjacobi import (PhaseClass, StParams, assemble_truncation,
                         block_entries, decaying_root, jc_lower_bound,
                         levinson_profile, mu_asymptotic, phase_class,
                         st_family, transfer_eigenvalues, tridiag_kth_eigenvalue)
from blockjacobi.st_family import _rho_q
from reference_kernels import constant_st_family, transfer_matrix

P06 = StParams(2.0, 2.0, 0.6)


def scalar_pair_roots(p, lam, n):
    """Independent oracle for s = t: the operator decouples into two scalar
    Jacobi problems with couplings +-r_n, whose transfer eigenvalues solve
    mu^2 -+ c mu + rho = 0 with c = (lam - s_n)/r_n."""
    rn = float(n) ** p.alpha
    rho = ((n - 1) / n) ** p.alpha
    c = (lam - p.s * rn) / rn
    roots = []
    for sign in (+1.0, -1.0):
        disc = complex(c * c - 4 * rho) ** 0.5
        roots.extend([(sign * c + disc) / 2, (sign * c - disc) / 2])
    return np.array(sorted(roots, key=lambda z: (z.real, z.imag)))


class TestStFamily:
    def test_entries_n9(self):
        fam = st_family(StParams(2, 2, 0.5))
        A, B = block_entries(fam, 9)
        assert np.array_equal(A.real, [[0, 3], [3, 0]])
        assert np.allclose(np.diag(B).real, [6, 6])

    def test_edge_declared_only_on_critical_manifold(self):
        assert st_family(StParams(2, 2, 0.5)).edge_b == 0.0
        assert st_family(StParams(1, 4, 0.5)).edge_b == 0.0
        assert st_family(StParams(3, 3, 0.5)).edge_b is None

    def test_abs_offdiag_is_scalar(self):
        from blockjacobi import abs_matrix, spectral_norm
        fam = st_family(P06)
        for n in (1, 5, 12):
            A, _ = block_entries(fam, n)
            assert spectral_norm(A) == pytest.approx(n ** 0.6, rel=1e-12)
            assert np.abs(abs_matrix(A) - n ** 0.6 * np.eye(2)).max() < 1e-12 * n ** 0.6

    def test_commutator_vanishes_iff_s_equals_t(self):
        for s, t, commutes in [(2.0, 2.0, True), (1.0, 4.0, False)]:
            fam = st_family(StParams(s, t, 0.5))
            A, B = block_entries(fam, 3)
            comm = A @ B - B @ A
            if commutes:
                assert np.abs(comm).max() < 1e-14
            else:
                assert np.abs(comm).max() > 0.1

    def test_params_validated(self):
        with pytest.raises(ValueError):
            StParams(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            StParams(1.0, 1.0, 1.0)


class TestTransferMatrix:
    def test_block_structure(self):
        tm = transfer_matrix(P06, -1.0, 5)
        M = tm.entries
        assert np.array_equal(M[:2, 2:], np.eye(2))
        assert np.array_equal(M[:2, :2], np.zeros((2, 2)))
        ratio = (4 / 5) ** 0.6
        assert np.allclose(M[2:, :2], -ratio * np.eye(2))
        rn = 5 ** 0.6
        assert M[2, 3] == pytest.approx((-1 - 2 * rn) / rn)
        assert M[3, 2] == pytest.approx((-1 - 2 * rn) / rn)

    @pytest.mark.parametrize("n,alpha,lam", [(2, 0.5, -1.0), (7, 0.6, -2.5),
                                             (40, 0.9, -0.3)])
    def test_determinant_identity(self, n, alpha, lam):
        p = StParams(2, 2, alpha)
        det = np.linalg.det(transfer_matrix(p, lam, n).entries)
        assert det == pytest.approx(((n - 1) / n) ** (2 * alpha), abs=1e-10)

    def test_determinant_n2_alpha_half(self):
        det = np.linalg.det(transfer_matrix(StParams(2, 2, 0.5), -1.0, 2).entries)
        assert det == pytest.approx(0.5, abs=1e-12)

    def test_char_coeffs_match_dense_eigenvalues(self):
        p = StParams(1.5, 2.5, 0.7)
        lam = -2.0
        n = 6
        mu_dense = np.linalg.eigvals(transfer_matrix(p, lam, n).entries)
        mu_poly = transfer_eigenvalues(p, lam, n)
        assert np.allclose(np.sort_complex(mu_dense), np.sort_complex(mu_poly),
                           atol=1e-9)

    def test_rejects_n1(self):
        with pytest.raises(ValueError, match="n >= 2"):
            transfer_matrix(P06, -1.0, 1)


class TestTransferEigenvalues:
    def test_vieta_product_equals_determinant(self):
        for n in (2, 10, 100):
            mu = transfer_eigenvalues(P06, -1.0, n)
            assert np.prod(mu) == pytest.approx(((n - 1) / n) ** 1.2, abs=1e-9)

    def test_equal_st_matches_scalar_decoupling(self):
        for n in (3, 25):
            got = transfer_eigenvalues(P06, -1.0, n)
            want = scalar_pair_roots(P06, -1.0, n)
            assert np.abs(np.sort_complex(got) - np.sort_complex(want)).max() < 1e-9

    def test_decaying_root_frozen_value(self):
        # quartic mu^4 + (2 rho - q) mu^2 + rho^2 at s=t=2, alpha=0.6, lam=-1, n=100
        assert abs(decaying_root(P06, -1.0, 100)) == pytest.approx(
            0.7667780450903218, abs=1e-12)

    def test_supercritical_limit_roots(self):
        # st = 9 > 4: mu -> -+ sqrt(st)/2 +- sqrt(st-4)/2 as n grows
        p = StParams(3.0, 3.0, 0.6)
        mu = transfer_eigenvalues(p, -1.0, 10_000)
        targets = sorted([-(3 + math.sqrt(5)) / 2, -(3 - math.sqrt(5)) / 2,
                          (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
        assert np.abs(np.sort(mu.real) - targets).max() < 1e-2
        assert np.abs(mu.imag).max() < 1e-12

    def test_all_magnitudes_tend_to_one_on_critical_manifold(self):
        mu = transfer_eigenvalues(P06, -1.0, 10**7)
        assert np.abs(np.abs(mu) - 1.0).max() < 2e-2

    def test_elliptic_regime_has_no_decaying_root(self):
        with pytest.raises(ValueError, match="ambiguous"):
            decaying_root(StParams(1.0, 1.0, 0.6), -1.0, 50)


@st.composite
def transfer_cases(draw):
    """(params, lam, n) from both regimes of the biquadratic, half of them
    within 1e-6 of the threshold st = 4, with n up to 10^12."""
    s = draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        t = 4.0 / s * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    else:
        t = draw(st.floats(0.1, 10.0))
    alpha = draw(st.floats(0.05, 0.95))
    lam = draw(st.floats(-20.0, 20.0))
    n = draw(st.one_of(st.integers(2, 10_000), st.sampled_from([10**7, 10**12])))
    return StParams(s, t, alpha), lam, n


def _keys(mu):
    return [(z.real, z.imag) for z in mu]


class TestTransferEigenvaluesProperty:
    @settings(deadline=None, max_examples=300)
    @given(transfer_cases())
    @example((StParams(1.0, 1.0, 0.6), -1.0, 50))      # disc < 0
    @example((StParams(2.0, 2.0, 0.6), -1.0, 100))     # disc > 0
    @example((StParams(2.0, 2.0, 0.6), -1.0, 10**7))   # on st = 4
    @example((StParams(1.0, 4.0, 0.6), -1.0, 10**12))  # on st = 4
    @example((StParams(0.5, 3.0, 0.5), 1.0, 4))        # q = 0: disc = 0
    def test_closed_form_roots(self, case):
        p, lam, n = case
        mu = transfer_eigenvalues(p, lam, n)
        rho, q = _rho_q(p, lam, n)
        disc = q * (q - 4.0 * rho)
        keys = _keys(mu)
        # sorted by (real, imag), exact +-mu pairs, no negative zeros
        assert keys == sorted(keys)
        assert sorted(_keys(-mu)) == keys
        assert not np.signbit(mu.real[mu.real == 0.0]).any()
        assert not np.signbit(mu.imag[mu.imag == 0.0]).any()
        if disc < 0:
            # conjugate pairs with bitwise-equal real parts
            assert sorted(_keys(mu.conj())) == keys
            assert (mu.imag != 0.0).all()
        else:
            # nu = mu^2 is real: each root is real or purely imaginary
            assert ((mu.imag == 0.0) | (mu.real == 0.0)).all()
        # Vieta for nu = mu^2: nu1 + nu2 = q - 2 rho, nu1 nu2 = rho^2
        assert abs(np.prod(mu) - rho * rho) <= 1e-12 * rho * rho
        scale = np.abs(mu).max()
        assert abs(np.sum(mu * mu) / 2.0 - (q - 2.0 * rho)) <= 1e-12 * scale * scale
        gap = min(abs(a - b) for a, b in itertools.combinations(mu, 2)) / scale
        if n <= 10_000 and gap >= 1e-3:
            # LAPACK's own error grows like eps / gap near a double root
            dense = np.linalg.eigvals(transfer_matrix(p, lam, n).entries)
            err = min(max(abs(mu[i] - dense[j]) for i, j in enumerate(perm))
                      for perm in itertools.permutations(range(4)))
            assert err <= 1e-12 * scale

    @pytest.mark.parametrize("p,lam,n", [
        (StParams(0.01, 100.0, 0.5), 100.0, 4),   # q - 2 rho < 0, q ~ -2.5e3
        (StParams(1.0, 1.0, 0.6), -1000.0, 2),    # q - 2 rho > 0, q ~ 4.4e5
    ])
    def test_small_pair_has_full_relative_accuracy(self, p, lam, n):
        # the smaller nu against the naive quadratic formula in 40 digits,
        # on the same float rho and q: no cancellation in the closed form
        rho, q = _rho_q(p, lam, n)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            r, qd = decimal.Decimal(rho), decimal.Decimal(q)
            root = (qd * (qd - 4 * r)).sqrt()
            nu_small = min(((qd - 2 * r) + root) / 2, ((qd - 2 * r) - root) / 2,
                           key=abs)
            want = float(abs(nu_small).sqrt())
        assert np.abs(transfer_eigenvalues(p, lam, n)).min() == pytest.approx(
            want, rel=1e-14)


class TestMuAsymptotic:
    def test_frozen_value_n100(self):
        # 1 - g + g^2/2 with g = sqrt(-lam(s+t))/2 * n^(-alpha/2)
        vals = mu_asymptotic(P06, -1.0, 100)
        g = 100 ** -0.3
        want = 1 - g + g * g / 2
        assert want == pytest.approx(0.7803592240730517, abs=1e-15)
        assert np.abs(vals.imag).max() == 0.0
        assert sorted(np.round(vals.real, 12)) == sorted(np.round(
            [-(1 + g + g * g / 2), -want, want, 1 + g + g * g / 2], 12))

    def test_matches_exact_roots_to_error_order(self):
        for n in (100, 1000, 10_000):
            asym = np.sort(mu_asymptotic(P06, -1.0, n).real)
            exact = np.sort(transfer_eigenvalues(P06, -1.0, n).real)
            err = np.abs(asym - exact).max()
            assert err <= 1.5 * n ** (0.3 - 1.0)

    def test_magnitudes_tend_to_one(self):
        vals = mu_asymptotic(P06, -1.0, 10**10)
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-2

    def test_preconditions(self):
        with pytest.raises(ValueError, match="s\\*t"):
            mu_asymptotic(StParams(3, 3, 0.6), -1.0, 10)
        with pytest.raises(ValueError, match="alpha"):
            mu_asymptotic(StParams(2, 2, 0.4), -1.0, 10)
        with pytest.raises(ValueError, match="lambda"):
            mu_asymptotic(P06, 1.0, 10)


class TestLevinsonProfile:
    def test_single_factor(self):
        prof = levinson_profile(P06, -1.0, 17, 17)
        assert prof.product == pytest.approx(abs(decaying_root(P06, -1.0, 17)),
                                             rel=1e-12)

    def test_strictly_decreasing(self):
        logs = [levinson_profile(P06, -1.0, 10, n).log_product
                for n in (20, 40, 80, 160)]
        assert all(logs[i + 1] < logs[i] for i in range(3))

    def test_tracks_closed_form(self):
        # log-product over [10, n] against -sqrt(-lam(s+t))/2 n^(1-a/2)/(1-a/2)
        for n, lo, hi in [(200, 0.90, 1.02), (400, 0.93, 1.02)]:
            prof = levinson_profile(P06, -1.0, 10, n)
            ratio = prof.log_product / prof.log_closed_form
            assert lo <= ratio <= hi

    def test_closed_form_value(self):
        prof = levinson_profile(P06, -1.0, 10, 50)
        assert prof.log_closed_form == pytest.approx(-50 ** 0.7 / 0.7, rel=1e-12)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            levinson_profile(P06, -1.0, 1, 10)

    def test_log_product_correctly_rounded(self):
        # the sum of 4991 logs is the exact rational sum, rounded once
        logs = [math.log(abs(decaying_root(P06, -1.0, k)))
                for k in range(10, 5001)]
        prof = levinson_profile(P06, -1.0, 10, 5000)
        assert prof.log_product == float(sum(Fraction(x) for x in logs))
        assert prof.product == math.exp(prof.log_product)


class TestJcLowerBound:
    @pytest.mark.parametrize("s,t,want", [
        (2.0, 2.0, 0.0),
        (3.0, 3.0, 1.0),
        (2.0, 8.0, 12.0 / (5.0 + math.sqrt(13.0))),
        (1.0, 4.0, 0.0),
    ])
    def test_closed_form(self, s, t, want):
        assert jc_lower_bound(s, t) == pytest.approx(want, abs=1e-12)

    def test_value_2_8(self):
        assert jc_lower_bound(2.0, 8.0) == pytest.approx(1.3944487245360107, abs=1e-12)

    @pytest.mark.parametrize("s,t", [(2.0, 2.0), (3.0, 3.0), (2.0, 8.0)])
    def test_truncation_respects_bound(self, s, t):
        tr = assemble_truncation(constant_st_family(s, t), 150)
        assert tridiag_kth_eigenvalue(tr, 1) >= jc_lower_bound(s, t) - 1e-12

    def test_equal_st_min_converges_to_s_minus_2(self):
        tr = assemble_truncation(constant_st_family(3.0, 3.0), 150)
        assert tridiag_kth_eigenvalue(tr, 1) == pytest.approx(1.0, abs=0.1)


class TestPhaseClass:
    @pytest.mark.parametrize("s,t,want", [
        (2.0, 2.0, PhaseClass.GAP_UNBOUNDED),
        (1.0, 4.0, PhaseClass.GAP_UNBOUNDED),
        (3.0, 3.0, PhaseClass.ESS_EMPTY),
        (1.0, 1.0, PhaseClass.ESS_FULL_LINE),
    ])
    def test_classification(self, s, t, want):
        assert phase_class(s, t) is want

    def test_threshold_band(self):
        assert phase_class(2.0, 2.0 + 1e-10) is PhaseClass.GAP_UNBOUNDED
        assert phase_class(2.0, 2.0 + 1e-8) is PhaseClass.ESS_EMPTY

    @pytest.mark.parametrize("N", [100, 200, 400])
    def test_critical_truncations_stay_semibounded(self, st_critical, N):
        tr = assemble_truncation(st_critical, N)
        assert tridiag_kth_eigenvalue(tr, 1) >= -0.5
