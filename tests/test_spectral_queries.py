"""Spectral queries that do each piece of work once, against the oracles in
reference_kernels that did some of it twice, bit for bit: the edge count
rides the first multisection sweep, one multisection serves the edge
eigenvalues and the next one up, and eigenpairs_below factors each run of
equal inverse-iteration shifts once, one shift per factor.  Also the
restart of a start vector that misses its eigenvalue, and the rejection of
a non-finite edge b or perturbation size tau."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjacobi import (BoundParams, OperatorFamily, assemble_truncation, cli,
                         eigenpairs_below, parse_family_spec, perturbed_truncation,
                         table_family)
from blockjacobi import dense_linalg as dl
from blockjacobi import green_spectral
from conftest import shift_first_block, table_path
from reference_kernels import (dense, reference_eigenpairs_below,
                               reference_eigs_below)

DIAG_SPEC = "diagonal-test:adiag=1;4,bdiag=-2;8,aexp=0.6,bexp=0.6"


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_pairs(got, want):
    assert len(got) == len(want)
    for pair, (rq, x, suspect) in zip(got, want):
        assert same_bits(pair.value, rq)
        assert same_bits(pair.vector, x)
        assert pair.boundary_suspect == suspect


def count_factors(monkeypatch):
    """Counts block_tridiag_factor calls from eigenpairs_below and from
    inverse iteration, as a list of the shift counts of each call."""
    calls = []
    for module in (green_spectral, dl):
        fn = module.block_tridiag_factor

        def counted(trunc, shift, *a, _fn=fn, **kw):
            calls.append(np.size(shift))
            return _fn(trunc, shift, *a, **kw)
        monkeypatch.setattr(module, "block_tridiag_factor", counted)
    return calls


@pytest.fixture(scope="module", params=[-9.5, -10.0, -10.5])
def deep_well(request, st_critical):
    return assemble_truncation(shift_first_block(st_critical, request.param), 300)


class TestEdgeQueries:
    @pytest.mark.parametrize("tau", [None, 0.01])
    def test_deep_well_matches_reference(self, deep_well, tau, monkeypatch):
        tr = deep_well if tau is None else perturbed_truncation(deep_well, tau)
        vals, none = dl.tridiag_eigs_below(tr, 0.0)
        assert vals.size >= 2 and none.size == 0
        assert same_bits(vals, reference_eigs_below(tr, 0.0))
        want = reference_eigenpairs_below(tr, 0.0)
        calls = count_factors(monkeypatch)
        assert_same_pairs(eigenpairs_below(tr, 0.0), want)
        # one shift per factor, refactored only where the shift changes:
        # the bound states' equal shifts share one factor
        shifts = vals + 1e-11 * np.maximum(tr.scale(), np.abs(vals))
        runs = 1 + int(np.count_nonzero(shifts[1:] != shifts[:-1]))
        assert calls == [1] * runs
        assert runs < vals.size

    @pytest.mark.parametrize("tau", [None, 0.01])
    def test_many_distinct_shifts_one_at_a_time(self, tau, monkeypatch):
        tr = assemble_truncation(parse_family_spec(DIAG_SPEC), 60)
        if tau is not None:
            tr = perturbed_truncation(tr, tau)
        want = reference_eigenpairs_below(tr, 0.0)
        calls = count_factors(monkeypatch)
        got = eigenpairs_below(tr, 0.0)
        # 60 distinct shifts: 60 one-shift factors, never a grid of them
        assert calls == [1] * 60
        assert_same_pairs(got, want)

    def test_edge_and_next_from_one_multisection(self, st_critical, monkeypatch):
        tr = assemble_truncation(shift_first_block(st_critical, -10.0), 80)
        sweeps = []
        count = dl.tridiag_count_below

        def counted(blocks, x):
            sweeps.append(np.size(x))
            return count(blocks, x)
        monkeypatch.setattr(dl, "tridiag_count_below", counted)
        below, above = dl.tridiag_eigs_below(tr, 0.0, above=1)
        # b rides in the 128th slot of the first sweep
        assert sweeps[0] == dl._SHIFTS_PER_SWEEP
        assert same_bits(below, reference_eigs_below(tr, 0.0))
        assert same_bits(above, [dl.tridiag_kth_eigenvalue(tr, below.size + 1)])


def complex_truncation(seed, d, N):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
    B = (B + B.conj().transpose(0, 2, 1)) / 2
    A = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
    fam = OperatorFamily(d, lambda n: A[n - 1], lambda n: B[n - 1], label="random")
    return assemble_truncation(fam, N)


class TestEdgeQueryCorpus:
    """Random complex Hermitian block problems, with the edge below the
    spectrum (count 0), above it (count = dense_dim), exactly at an
    eigenvalue (eigvalsh's or the multisection's own) and between two."""

    @settings(deadline=None, max_examples=25)
    @given(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
                     st.integers(1, 25)),
           st.sampled_from(["below", "above", "at", "at-own", "between"]),
           st.floats(0.0, 1.0))
    def test_matches_reference(self, problem, where, frac):
        tr = complex_truncation(*problem)
        n = tr.dense_dim
        w = np.linalg.eigvalsh(dense(tr))
        j = int(frac * (n - 1))
        b = {"below": w[0] - 1.0, "above": w[-1] + 1.0, "at": w[j],
             "at-own": dl.tridiag_kth_eigenvalue(tr, j + 1),
             "between": w[j] + 0.5 * (w[min(j + 1, n - 1)] - w[j])}[where]
        vals, none = dl.tridiag_eigs_below(tr, b)
        assert same_bits(vals, reference_eigs_below(tr, b)) and none.size == 0
        if where == "below":
            assert vals.size == 0
        if where == "above":
            assert vals.size == n
        below, above = dl.tridiag_eigs_below(tr, b, above=1)
        assert same_bits(below, vals)
        want_next = [dl.tridiag_kth_eigenvalue(tr, vals.size + 1)] if vals.size < n else []
        assert same_bits(above, np.array(want_next, dtype=float))
        # the restart rule never rejects a good pair here: both succeed, and
        # every Rayleigh value is the dense eigenvalue
        got = eigenpairs_below(tr, b)
        assert_same_pairs(got, reference_eigenpairs_below(tr, b))
        scale = max(tr.scale(), abs(b), 1.0)
        assert all(abs(pr.value - w[i]) <= 1e-8 * scale for i, pr in enumerate(got))


def decoupled_table():
    """8 blocks, d = 2: block 1 (B_1 = 5 I) is decoupled by A_1 = 0, and the
    well B_3 = diag(-10, -9) holds the two eigenvalues below 0."""
    blocks = []
    for n in range(1, 9):
        B = [5, 0, 0, 5] if n == 1 else [-10, 0, 0, -9] if n == 3 else [3, 0, 0, 3]
        blocks.append({"n": n, "A": [0, 0, 0, 0] if n == 1 else [1, 0, 0, 1], "B": B})
    return {"dim": 2, "blocks": blocks}


class TestRestart:
    def test_start_on_a_decoupled_block_is_redone(self, tmp_path, monkeypatch):
        tr = assemble_truncation(table_family(table_path(tmp_path, decoupled_table())), 8)
        w = np.linalg.eigvalsh(dense(tr))
        calls = []
        fn = green_spectral.tridiag_inverse_iteration

        def counted(*a, **kw):
            calls.append(kw.get("n_iter", 6))
            return fn(*a, **kw)
        monkeypatch.setattr(green_spectral, "tridiag_inverse_iteration", counted)
        pairs = eigenpairs_below(tr, 0.0)
        # the first-block start is invariant (Rayleigh value 5, residual 0),
        # so every pair takes the reseeded restart
        assert calls == [6, 12, 6, 12]
        assert [pr.value for pr in pairs] == pytest.approx(w[:2], abs=1e-10)
        assert w[:2] == pytest.approx([-10.1525, -9.1650], abs=1e-4)
        for pr in pairs:
            resid = dl.vector_norm(dl.tridiag_apply(tr, pr.vector) - pr.value * pr.vector)
            assert resid <= 1e-12
        assert_same_pairs(pairs, reference_eigenpairs_below(tr, 0.0))

    def test_cli_prints_the_well_eigenvalues(self, tmp_path, capsys):
        code = cli.main(["eigs", "--family", table_path(tmp_path, decoupled_table()),
                         "--N=8", "--b=0"])
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line.startswith("base,")]
        assert code == 0
        assert [float(r[2]) for r in rows] == pytest.approx([-10.1525, -9.1650], abs=1e-4)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_edge_rejected(self, st_critical, b):
        tr = assemble_truncation(st_critical, 5)
        for query in (dl.tridiag_eigs_below, eigenpairs_below):
            with pytest.raises(ValueError, match="b must be finite"):
                query(tr, b)
        with pytest.raises(ValueError, match="b must be finite"):
            BoundParams(lam=-1.0, b=b)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_shift_rejected(self, st_critical, x):
        # the recurrence counts 0, not N d, below x = inf, and 0 below nan
        tr = assemble_truncation(st_critical, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"shifts must be finite, got {x} at index 0"):
                dl.tridiag_count_below(tr, x)
            with pytest.raises(ValueError, match=f"got {x} at index 2"):
                dl.tridiag_count_below(tr, [-1.0, 0.0, x, math.nan])

    @pytest.mark.parametrize("tau", [math.inf, math.nan, -1.0])
    def test_tau_rejected(self, st_critical, tau):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            perturbed_truncation(assemble_truncation(st_critical, 5), tau)

    @pytest.mark.parametrize("argv", [
        ["eigs", "--family", "st:s=2,t=2", "--N=5", "--b=inf"],
        ["eigs", "--family", "st:s=2,t=2", "--N=5", "--b=-inf"],
        ["eigs", "--family", "st:s=2,t=2", "--N=5", "--b=nan"],
        ["verify", "--mode", "green", "--family", "st:s=2,t=2", "--N=20",
         "--b=inf", "--lambda=-1"],
        ["eigs", "--family", "st:s=2,t=2", "--N=5", "--b=0", "--tau=inf"],
        ["eigs", "--family", "st:s=2,t=2", "--N=5", "--b=0", "--tau=nan"],
    ])
    def test_cli_exits_1_without_warnings(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert ("tau must be finite" if any("--tau" in a for a in argv)
                else "b must be finite") in err
