import dataclasses
import math

import numpy as np
import pytest

from blockjacobi import (BoundParams, EmptySpectrumError, OperatorFamily,
                         SingularShiftError, assemble_truncation,
                         block_entries, block_tridiag_factor, diagonal_family, eigenpairs_below,
                         gamma_rate, green_column, parse_family_spec,
                         perturbed_truncation, scalar_free_family, spectral_norm,
                         tridiag_count_below, tridiag_kth_eigenvalue,
                         verify_commuting_decay, verify_eigenvector_decay,
                         verify_green_decay)

from blockjacobi import cli, dense_linalg, green_spectral

from conftest import random_family, shift_first_block
from reference_kernels import dense

GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # decaying continued-fraction branch


def shift_all_diagonals(family: OperatorFamily, c: float) -> OperatorFamily:
    base = family.diag
    d = family.dim

    def diag(n: int) -> np.ndarray:
        return np.array(base(n), dtype=np.complex128) + c * np.eye(d)

    return OperatorFamily(d, family.offdiag, diag, label=family.label + f"+{c}I")


def bump_first_block(family: OperatorFamily, tau: float) -> OperatorFamily:
    """Rules of J + tau * P_1: the rule for B_1 adds tau I."""
    return dataclasses.replace(shift_first_block(family, tau),
                               label=family.label + f"+perturbed(tau={tau})")


class TestGreenColumn:
    def test_nearly_diagonal_family(self):
        fam = diagonal_family([1e-9, 1e-9], [2.0, 3.0])
        tr = assemble_truncation(fam, 6)
        col = green_column(tr, -1.0, 3)
        for j in range(1, 7):
            G = col.blocks[j - 1]
            if j == 3:
                want = np.diag([1.0 / 3.0, 1.0 / 4.0])
                assert np.abs(G - want).max() < 1e-8
            else:
                assert np.abs(G).max() < 1e-8

    def test_scalar_free_corner_value(self):
        tr = assemble_truncation(scalar_free_family(), 400)
        col = green_column(tr, -3.0, 1)
        assert abs(col.blocks[0][0, 0] - GOLDEN) < 1e-4

    def test_scalar_free_geometric_ratio(self):
        tr = assemble_truncation(scalar_free_family(), 400)
        norms = green_column(tr, -3.0, 1).norms()
        ratios = norms[50:200] / norms[49:199]
        assert np.abs(ratios - GOLDEN).max() < 1e-10

    def test_residual_invariant(self):
        fam = random_family(71, 2)
        tr = assemble_truncation(fam, 30)
        lam = -4.0 - 1.0j
        col = green_column(tr, lam, 5)
        stacked = np.vstack(col.blocks)
        T = dense(tr)
        resid = (T - lam * np.eye(60)) @ stacked
        resid[8:10, :] -= np.eye(2)
        assert np.abs(resid).max() < 1e-9

    def test_blocks_are_one_read_only_stack(self):
        tr = assemble_truncation(random_family(72, 2), 30)
        col = green_column(tr, -4.0 - 1.0j, 5)
        assert isinstance(col.blocks, np.ndarray)
        assert col.blocks.shape == (30, 2, 2) and not col.blocks.flags.writeable
        with pytest.raises(ValueError):
            col.blocks[0, 0, 0] = 1.0
        rhs = np.zeros((60, 2), complex)
        rhs[8:10] = np.eye(2)
        X = block_tridiag_factor(tr, -4.0 - 1.0j).solve(rhs)
        assert np.vstack(col.blocks).tobytes() == X.tobytes()
        assert col.blocks[4].tobytes() == X[8:10].tobytes()
        assert col.norms().tobytes() == \
            np.concatenate([spectral_norm(G[None]) for G in col.blocks]).tobytes()

    @pytest.mark.parametrize("seed,d", [(81, 1), (82, 2), (83, 3)])
    def test_adjoint_symmetry(self, seed, d):
        fam = random_family(seed, d)
        tr = assemble_truncation(fam, 40)
        lam = -2.0 - 1.0j
        k, j = 4, 17
        col_k = green_column(tr, lam, k)
        col_j = green_column(tr, np.conj(lam), j)
        diff = col_k.blocks[j - 1].conj().T - col_j.blocks[k - 1]
        assert spectral_norm(diff[None])[0] <= 1e-8

    def test_norm_resolvent_adjoint_identity(self):
        fam = random_family(85, 2)
        tr = assemble_truncation(fam, 25)
        lam = -3.0 + 0.7j
        n_jk = spectral_norm(green_column(tr, lam, 3).blocks[11:12])[0]
        n_kj = spectral_norm(green_column(tr, np.conj(lam), 12).blocks[2:3])[0]
        assert n_jk == pytest.approx(n_kj, rel=1e-8)

    def test_first_resolvent_identity(self):
        fam = random_family(87, 2)
        tr = assemble_truncation(fam, 30)
        lam1, lam2 = -3.0, -5.0 - 1.0j
        from blockjacobi import block_tridiag_factor
        f1 = block_tridiag_factor(tr, lam1)
        f2 = block_tridiag_factor(tr, lam2)
        E = np.zeros((60, 2), complex)
        E[:2] = np.eye(2)
        lhs = f1.solve(E) - f2.solve(E)
        rhs = (lam1 - lam2) * f1.solve(f2.solve(E))
        assert np.abs(lhs - rhs).max() <= 1e-7 * max(1.0, np.abs(rhs).max())

    def test_source_index_validated(self):
        tr = assemble_truncation(scalar_free_family(), 5)
        with pytest.raises(ValueError, match="out of range"):
            green_column(tr, -3.0, 6)

    def test_shift_at_eigenvalue_rejected(self):
        tr = assemble_truncation(scalar_free_family(), 30)
        lam = float(np.linalg.eigvalsh(dense(tr).real)[2])  # machine-accurate
        with pytest.raises(SingularShiftError) as err:
            green_column(tr, lam, 1)
        assert 1 <= err.value.block_index <= 30


class TestEigenpairsBelow:
    def test_scalar_free_has_none_below_edge(self):
        tr = assemble_truncation(scalar_free_family(), 200)
        assert tridiag_kth_eigenvalue(tr, 1) >= -2.0 - 1e-6
        assert eigenpairs_below(tr, -2.0) == []

    def test_nearly_decoupled_diagonal_wells(self):
        fam = diagonal_family([1e-9], [-1.0], bexp=-1.0)
        tr = assemble_truncation(fam, 12)
        pairs = eigenpairs_below(tr, -0.05)
        want = sorted(-1.0 / n for n in range(1, 13) if -1.0 / n < -0.05)
        assert len(pairs) == len(want)
        for pr, w in zip(pairs, want):
            assert pr.value == pytest.approx(w, abs=1e-8)

    def test_deep_well_pair(self, st_deep):
        tr = assemble_truncation(st_deep, 120)
        pairs = eigenpairs_below(tr, 0.0)
        assert len(pairs) == 2
        assert pairs[0].value == pytest.approx(pairs[1].value, abs=1e-8)
        assert pairs[0].value == pytest.approx(-8.0915, abs=1e-3)
        for pr in pairs:
            assert not pr.boundary_suspect
            assert pr.block_norms(2)[-1] <= 1e-8
            assert np.linalg.norm(pr.vector) == pytest.approx(1.0, abs=1e-12)
        # orthonormal within the degenerate cluster
        assert abs(np.vdot(pairs[0].vector, pairs[1].vector)) < 1e-8

    def test_matches_dense_eigensolver(self):
        fam = random_family(91, 2)
        tr = assemble_truncation(fam, 25)
        w = np.linalg.eigvalsh(dense(tr))
        pairs = eigenpairs_below(tr, -1.0)
        want = w[w < -1.0]
        assert len(pairs) == want.size
        for pr, wv in zip(pairs, want):
            assert pr.value == pytest.approx(wv, abs=1e-9)
            resid = dense(tr) @ pr.vector - pr.value * pr.vector
            assert np.linalg.norm(resid) < 1e-8

    def test_boundary_suspect_flag(self, st_critical):
        # b above the edge cuts into delocalized states: tails are not small
        tr = assemble_truncation(st_critical, 40)
        pairs = eigenpairs_below(tr, 1.0)
        assert pairs and any(pr.boundary_suspect for pr in pairs)


class TestPerturbedTruncation:
    def test_zero_tau_identity(self, st_deep):
        tr = assemble_truncation(st_deep, 20)
        pert = perturbed_truncation(tr, 0.0)
        for k in range(20):
            assert np.array_equal(pert.diag_blocks[k], tr.diag_blocks[k])

    def test_identity_l_shifts_first_block(self, st_deep):
        tr = assemble_truncation(st_deep, 10)
        pert = perturbed_truncation(tr, 0.1)
        assert np.abs(pert.diag_blocks[0] - (tr.diag_blocks[0] + 0.1 * np.eye(2))).max() == 0
        for k in range(1, 10):
            assert np.array_equal(pert.diag_blocks[k], tr.diag_blocks[k])

    @pytest.mark.parametrize("N", [1, 2, 30])
    def test_equals_full_assembly(self, N):
        # only B_1 is replaced, as the rules of the perturbed operator give
        # it; the rest is the base truncation's, bit for bit
        fam = random_family(11, 2, complex_entries=True)
        tr = assemble_truncation(fam, N)
        for tau in (0.0, 0.3):
            pert = perturbed_truncation(tr, tau)
            want = assemble_truncation(bump_first_block(fam, tau), N)
            assert pert.label == want.label
            assert pert.nblocks == want.nblocks == N
            for got, ref in ((pert.diag_blocks, want.diag_blocks),
                             (pert.offdiag_blocks, want.offdiag_blocks)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
                assert not got.flags.writeable
        assert not tr.diag_blocks.flags.writeable

    def test_verify_reads_perturbed_truncation(self, st_deep):
        # an assembled matrix needs no rules: the perturbed truncation's
        # report is the one for the family whose rule for B_1 is shifted
        p = BoundParams(lam=-1.0, b=0.0)
        pert = perturbed_truncation(assemble_truncation(st_deep, 100), 0.01)
        got = verify_eigenvector_decay(pert, p)
        want = verify_eigenvector_decay(
            assemble_truncation(shift_first_block(st_deep, 0.01), 100), p)
        assert cli._report_rows(got) == cli._report_rows(want)
        assert ({k: v for k, v in cli._report_summary(got).items() if k != "family"}
                == {k: v for k, v in cli._report_summary(want).items() if k != "family"})

    def test_eigenvalue_moves_off_and_monotonically(self, st_deep):
        tr = assemble_truncation(st_deep, 120)
        lam0 = eigenpairs_below(tr, 0.0)[0].value
        dists = []
        for tau in (1e-3, 1e-2, 1e-1):
            pert = perturbed_truncation(tr, tau)
            vals = [pr.value for pr in eigenpairs_below(pert, 0.0)]
            dists.append(min(abs(v - lam0) for v in vals))
        assert dists[0] > 0
        assert dists[0] < dists[1] < dists[2]


class TestVerifyGreenDecay:
    def test_scalar_free_all_pass(self):
        p = BoundParams(lam=-3.0, b=-2.0, delta=1.0, eps=0.1)
        rep = verify_green_decay(assemble_truncation(scalar_free_family(), 200), p, k=1)
        assert rep.all_pass
        assert rep.gamma < -math.log(GOLDEN)
        assert rep.measured[0] == pytest.approx(GOLDEN, abs=1e-6)
        assert rep.verdicts[0] == "pass"
        assert rep.envelope[0] == 1.0  # j = k

    def test_source_row_is_calibration_anchor(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0)
        rep = verify_green_decay(assemble_truncation(st_critical, 40), p, k=3)
        assert rep.envelope[2] == 1.0
        assert rep.verdicts[2] == "pass"
        assert rep.ratio[2] <= 1.0 + 1e-9

    def test_st_family_passes(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1)
        rep = verify_green_decay(assemble_truncation(st_critical, 120), p, k=1)
        assert rep.all_pass
        assert rep.pass_fraction == 1.0
        assert rep.eligible_limit == 108

    def test_boundary_exclusion_tail(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0)
        rep = verify_green_decay(assemble_truncation(st_critical, 50), p, k=1)
        assert rep.verdicts[-1] == "excluded"
        assert sum(v == "excluded" for v in rep.verdicts) == 5

    def test_calibration_override(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0)
        rep = verify_green_decay(assemble_truncation(st_critical, 60), p, k=1, calibration=(1, 5))
        assert rep.calibration == (1, 5)

    def test_monotone_gap_sharpening(self, st_critical):
        gammas = []
        for lam in (-3.0, -2.0, -1.0, -0.5):
            p = BoundParams(lam=lam, b=0.0)
            rep = verify_green_decay(assemble_truncation(st_critical, 60), p, k=1)
            assert rep.all_pass
            gammas.append(rep.gamma)
        assert all(gammas[i] >= gammas[i + 1] - 1e-12 for i in range(3))

    def test_n_doubling_stability(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0)
        r1 = verify_green_decay(assemble_truncation(st_critical, 60), p, k=1)
        r2 = verify_green_decay(assemble_truncation(st_critical, 120), p, k=1)
        a, b = r1.measured[:40], r2.measured[:40]
        assert np.abs(a - b).max() <= 1e-8 * b.max()

    def test_csv_deterministic_and_versioned(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0)
        r1 = verify_green_decay(assemble_truncation(st_critical, 40), p, k=1)
        r2 = verify_green_decay(assemble_truncation(st_critical, 40), p, k=1)
        (csv1, json1), (csv2, json2) = cli._verify_texts([r1]), cli._verify_texts([r2])
        assert csv1 == csv2 and json1 == json2
        lines = csv1.splitlines()
        assert lines[0] == "# blockjacobi-bounds v1"
        assert lines[2] == "index,measured,envelope,ratio,verdict"

    def test_summary_fields(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0)
        rep = verify_green_decay(assemble_truncation(st_critical, 40), p, k=1)
        s = cli._report_summary(rep)
        for key in ("fitted_C", "gamma", "pass_fraction", "all_pass",
                    "qualified_C", "schema"):
            assert key in s
        assert s["schema"] == "blockjacobi-bounds v1"
        assert s["qualified_C"] > 0


class TestVerifyEigenvectorDecay:
    def test_deep_state_passes(self, st_deep):
        p = BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1)
        rep = verify_eigenvector_decay(assemble_truncation(st_deep, 120), p, which=1)
        assert rep.all_pass
        assert rep.mode == "eigenvector"
        assert rep.meta["eigenvalue"] == pytest.approx(-8.0915, abs=1e-3)
        assert rep.lam == pytest.approx(rep.meta["eigenvalue"])
        assert not rep.meta["boundary_suspect"]
        assert rep.measured[0] == pytest.approx(1.0, abs=0.1)  # localized head

    def test_nearest_selector(self, st_deep):
        p = BoundParams(lam=-1.0, b=0.0)
        r1 = verify_eigenvector_decay(assemble_truncation(st_deep, 60), p, which=("nearest", -8.0))
        r2 = verify_eigenvector_decay(assemble_truncation(st_deep, 60), p, which=1)
        assert r1.meta["eigenvalue"] == pytest.approx(r2.meta["eigenvalue"], abs=1e-10)

    def test_trivial_single_site_state(self):
        fam = diagonal_family([1e-9], [-1.0], bexp=-1.0)
        p = BoundParams(lam=-0.9, b=-0.05)
        rep = verify_eigenvector_decay(assemble_truncation(fam, 30), p, which=1)
        assert rep.all_pass
        assert rep.measured[0] == pytest.approx(1.0, abs=1e-6)

    def test_empty_spectrum_is_explicit_error(self):
        p = BoundParams(lam=-3.0, b=-2.0)
        with pytest.raises(EmptySpectrumError, match="no eigenvalue below"):
            verify_eigenvector_decay(assemble_truncation(scalar_free_family(), 60), p)

    def test_diagonal_shift_covariance(self, st_deep):
        c = 3.0
        p = BoundParams(lam=-1.0, b=0.0)
        rep = verify_eigenvector_decay(assemble_truncation(st_deep, 100), p, which=1)
        shifted = shift_all_diagonals(st_deep, c)
        p_c = BoundParams(lam=-1.0 + c, b=c)
        rep_c = verify_eigenvector_decay(assemble_truncation(shifted, 100), p_c, which=1)
        assert rep_c.meta["eigenvalue"] - rep.meta["eigenvalue"] == pytest.approx(c, abs=1e-9)
        assert rep_c.gamma == pytest.approx(rep.gamma, abs=1e-10)
        m0, m1 = rep.measured, rep_c.measured
        rel = np.abs(m0 - m1) / np.maximum(np.maximum(m0, m1), 1e-300)
        assert rel.max() <= 1e-10
        assert np.abs(rep.envelope - rep_c.envelope).max() <= 1e-10 * rep.envelope.max()


class TestVerifyCommutingDecay:
    def test_scalar_weights_reproduce_green_verdicts(self, st_critical):
        p = BoundParams(lam=-1.0, b=0.0)
        rg = verify_green_decay(assemble_truncation(st_critical, 80), p, k=1)
        rc = verify_commuting_decay(assemble_truncation(st_critical, 80), p, k=1)
        assert rc.all_pass
        assert rc.verdicts == rg.verdicts
        assert rc.fitted_C == pytest.approx(rg.fitted_C, rel=1e-9)

    def test_diagonal_family_both_directions(self):
        fam = diagonal_family([1.0, 4.0], [2.0, 8.0], aexp=0.6, bexp=0.6)
        p = BoundParams(lam=-1.0, b=0.0)
        rep = verify_commuting_decay(assemble_truncation(fam, 100), p, k=1)
        assert rep.all_pass
        # per-direction weighted norms stay bounded individually
        assert np.all(rep.measured[:rep.eligible_limit]
                      <= rep.fitted_C * (1 + 1e-9))

    def test_orthogonal_sum_consistency(self):
        fam2 = diagonal_family([1.0, 4.0], [2.0, 8.0], aexp=0.6, bexp=0.6)
        p = BoundParams(lam=-1.0, b=0.0)
        tr2 = assemble_truncation(fam2, 60)
        col2 = green_column(tr2, -1.0, 1)
        for comp, (ca, cb) in enumerate([(1.0, 2.0), (4.0, 8.0)]):
            fam1 = diagonal_family([ca], [cb], aexp=0.6, bexp=0.6)
            tr1 = assemble_truncation(fam1, 60)
            col1 = green_column(tr1, -1.0, 1)
            for j in range(60):
                block_entry = col2.blocks[j][comp, comp]
                scalar_entry = col1.blocks[j][0, 0]
                assert abs(block_entry - scalar_entry) <= \
                    1e-9 * max(abs(scalar_entry), 1e-300)

    def test_noncommuting_family_rejected(self):
        from blockjacobi import CommutationError, StParams, st_family
        fam = st_family(StParams(1.0, 4.0, 0.6))
        with pytest.raises(CommutationError):
            verify_commuting_decay(assemble_truncation(fam, 30), BoundParams(lam=-1.0, b=0.0), k=1)


class TestVerifyGrid:
    DIAG = diagonal_family([1.0, 4.0], [2.0, 8.0], aexp=0.6, bexp=0.6)

    @staticmethod
    def grid(*lams):
        return [BoundParams(lam=lam, b=0.0, delta=1.0, eps=0.1) for lam in lams]

    @pytest.mark.parametrize("runner, family", [
        (verify_green_decay, "st"), (verify_commuting_decay, "diag")])
    def test_grid_equals_points(self, runner, family, st_critical):
        fam = st_critical if family == "st" else self.DIAG
        points = self.grid(-2.0, -1.0 + 0.5j, -0.5)
        reports = runner(assemble_truncation(fam, 60), points, k=2)
        assert isinstance(reports, list) and len(reports) == 3
        for p, rep in zip(points, reports):
            single = runner(assemble_truncation(fam, 60), p, k=2)
            assert cli._verify_texts([rep]) == cli._verify_texts([single])

    def test_one_point_grid_is_a_list(self):
        p = BoundParams(lam=-3.0, b=-2.0)
        reports = verify_green_decay(assemble_truncation(scalar_free_family(), 30), [p])
        assert len(reports) == 1
        single = verify_green_decay(assemble_truncation(scalar_free_family(), 30), p)
        assert cli._verify_texts(reports) == cli._verify_texts([single])

    @pytest.mark.parametrize("runner", [verify_green_decay, verify_commuting_decay])
    @pytest.mark.parametrize("field, value", [
        ("b", 0.5), ("delta", 2.0), ("eps", 0.2)])
    def test_mixed_grid_rejected(self, runner, field, value):
        first = BoundParams(lam=-2.0, b=0.0)
        other = BoundParams(**{"lam": -1.0, "b": 0.0, field: value})
        with pytest.raises(ValueError, match="nonempty and share b, delta and eps"):
            runner(assemble_truncation(self.DIAG, 30), [first, other])

    @pytest.mark.parametrize("runner", [verify_green_decay, verify_commuting_decay])
    def test_empty_grid_rejected(self, runner):
        with pytest.raises(ValueError, match="nonempty and share b, delta and eps"):
            runner(assemble_truncation(self.DIAG, 30), [])

    def test_spectral_data_once_per_grid(self, monkeypatch):
        calls = {}
        for module, name in ((green_spectral, "check_pairwise_commutation"),
                             (green_spectral, "tridiag_eigs_below"),
                             (green_spectral, "green_column"),
                             (dense_linalg, "tridiag_kth_eigenvalue"),
                             (dense_linalg, "_multisection")):
            fn = getattr(module, name)

            def counted(*a, _fn=fn, _name=name, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*a, **kw)
            monkeypatch.setattr(module, name, counted)
        reports = verify_commuting_decay(assemble_truncation(self.DIAG, 40),
                                         self.grid(-2.0, -1.5, -1.0))
        assert len(reports) == 3
        assert calls["check_pairwise_commutation"] == 1
        assert calls["tridiag_eigs_below"] == 1
        # one multisection finds the eigenvalues below b and the next one up
        assert calls["_multisection"] == 1
        assert calls.get("tridiag_kth_eigenvalue", 0) == 0
        assert calls["green_column"] == 1  # one shift-batched call per grid


def counting_family(family: OperatorFamily):
    """family with rules that count their calls, and the counts."""
    calls = {"offdiag": 0, "diag": 0}

    def counted(name):
        rule = getattr(family, name)

        def call(n):
            calls[name] += 1
            return rule(n)
        return call

    return dataclasses.replace(family, offdiag=counted("offdiag"),
                               diag=counted("diag")), calls


class TestFamilyReadOnce:
    """Each command reads every block rule once per block: what runs after
    assembly reads the truncation, not the family."""

    N = 40
    P = BoundParams(lam=-1.0, b=0.0)
    DIAG = "diagonal-test:adiag=1;4,bdiag=2;8,aexp=0.6,bexp=0.6"

    def test_verify_modes(self, st_critical, st_deep):
        for run, family in ((verify_green_decay, st_critical),
                            (verify_commuting_decay, parse_family_spec(self.DIAG)),
                            (verify_eigenvector_decay, st_deep)):
            fam, calls = counting_family(family)
            run(assemble_truncation(fam, self.N), self.P)
            assert calls == {"offdiag": self.N, "diag": self.N}, run.__name__

    def test_cli_bounds_envelope_table(self, monkeypatch, tmp_path, capsys):
        counts = []

        def parse(spec):
            fam, calls = counting_family(parse_family_spec(spec))
            counts.append(calls)
            return fam
        monkeypatch.setattr(cli, "parse_family_spec", parse)
        code = cli.main(["bounds", "--family", "st:s=2,t=2", f"--N={self.N}",
                         "--lambda=-2:-1:0.5", "--out", str(tmp_path / "b.csv")])
        capsys.readouterr()
        assert code == 0
        assert counts == [{"offdiag": self.N, "diag": self.N}]


class TestSturmHelpers:
    def test_count_below_matches_dense(self, st_critical):
        tr = assemble_truncation(st_critical, 30)
        w = np.linalg.eigvalsh(dense(tr))
        for x in (0.0, 1.0, 5.0):
            assert tridiag_count_below(tr, x) == int((w < x).sum())

    def test_kth_eigenvalue_matches_dense(self, st_critical):
        tr = assemble_truncation(st_critical, 30)
        w = np.linalg.eigvalsh(dense(tr))
        assert tridiag_kth_eigenvalue(tr, 4) == pytest.approx(w[3], abs=1e-10)
