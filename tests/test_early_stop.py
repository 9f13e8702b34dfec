"""The inertia count's early stop: a sweep ends once the rest of T cannot
add a negative pivot for any shift.  Counts must be bitwise those of the
full recurrence in reference_kernels, alone or in a batch; on wells a few
blocks deep the stop must fire, and with a negative pivot at the last block
it must not."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjacobi import assemble_truncation, parse_family_spec
from blockjacobi import dense_linalg as dl
from conftest import blocks_truncation, shift_first_block
from reference_kernels import reference_count_below


def well_problem(seed, d, width, N=40):
    """Truncation with growing positive blocks B_n ~ 3 n^0.6 I plus a little
    Hermitian noise, couplings of norm 0.8 n^0.6, and the first `width`
    blocks lowered by a depth in [10, 30): bound states far below the
    tail's Gershgorin floors."""
    rng = np.random.default_rng(seed)
    grow = np.arange(1, N + 1) ** 0.6
    M = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
    B = 3.0 * grow[:, None, None] * np.eye(d) + 0.15 * (M + M.conj().transpose(0, 2, 1))
    B[:width] -= rng.uniform(10.0, 30.0) * np.eye(d)
    G = rng.standard_normal((N - 1, d, d)) + 1j * rng.standard_normal((N - 1, d, d))
    A = 0.8 * grow[:-1, None, None] * G / np.linalg.norm(G, 2, axis=(1, 2))[:, None, None]
    return blocks_truncation(B, A)


def with_ulps(w):
    return np.sort(np.concatenate([w, np.nextafter(w, -np.inf), np.nextafter(w, np.inf)]))


# the count as imported, for checks made while a test patches dl's name
COUNT_BELOW = dl.tridiag_count_below


def assert_like_reference(blocks, xs, alone=True):
    """Counts equal to the full recurrence's in the batch (and, with alone,
    for each shift alone); returns how many blocks the batch's sweep
    scanned."""
    got, scanned = dl._count_below(blocks, xs)
    assert np.array_equal(got, reference_count_below(blocks, xs))
    assert np.array_equal(COUNT_BELOW(blocks, xs), got)
    if alone:
        assert got.tolist() == [COUNT_BELOW(blocks, x) for x in xs]
    return scanned


class TestWellCorpus:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4]), st.integers(1, 3))
    def test_stop_fires_and_counts_are_unchanged(self, seed, d, width):
        tr = well_problem(seed, d, width)
        w = np.linalg.eigvalsh(dl.tridiag_apply(tr, np.eye(tr.dense_dim)))
        # the bound states, at eigvalsh's eigenvalues and one ulp either side
        bound = with_ulps(w[w < dl._gershgorin(tr).floors[width:].min() - 1.0])
        assert bound.size >= 3 * d
        assert assert_like_reference(tr, bound) < tr.nblocks
        # the whole spectrum, where most sweeps run to the end
        assert_like_reference(tr, with_ulps(w), alone=False)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_no_stop_before_a_last_negative_pivot(self, d):
        # every pivot is positive but the last: the floor of the rest always
        # includes block N, so no sweep may end early
        N = 40
        tr = blocks_truncation([5.0 * np.eye(d)] * (N - 1) + [-5.0 * np.eye(d)],
                               [np.eye(d)] * (N - 1))
        xs = np.array([-4.0, 0.0, 2.0])
        assert assert_like_reference(tr, xs) == N
        assert dl.tridiag_count_below(tr, 0.0) == d

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_huge_couplings_count_without_overflow_warning(self, scale):
        # ||A_k||^2 overflows to inf above ~1e154: the stop test then never
        # holds, and squaring must not warn
        rng = np.random.default_rng(12)
        d, N = 3, 12
        M = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
        B = M + M.conj().transpose(0, 2, 1)
        A = rng.standard_normal((N - 1, d, d)) + 1j * rng.standard_normal((N - 1, d, d))
        w = np.linalg.eigvalsh(dl.tridiag_apply(blocks_truncation(B, A), np.eye(N * d)))
        tr, xs = blocks_truncation(scale * B, scale * A), scale * 0.5 * (w[1:] + w[:-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dl.tridiag_count_below(tr, xs)
        assert got.tolist() == list(range(1, N * d))
        assert np.array_equal(got, reference_count_below(tr, xs))


class TestWorkloadQueries:
    """Every sweep of the edge queries on the deep well and diagonal-test
    counts what the full recurrence counts."""

    @pytest.mark.parametrize("spec", [None, "diagonal-test:adiag=1;4,bdiag=2;8,aexp=0.6,bexp=0.6",
                                      "diagonal-test:adiag=1;4,bdiag=-2;8,aexp=0.6,bexp=0.6"])
    def test_sweeps_match_reference(self, spec, st_critical, monkeypatch):
        family = shift_first_block(st_critical, -10.0) if spec is None \
            else parse_family_spec(spec)
        tr = assemble_truncation(family, 120)
        scanned = []

        def checked(blocks, x):
            scanned.append(assert_like_reference(blocks, x, alone=False))
            return COUNT_BELOW(blocks, x)
        monkeypatch.setattr(dl, "tridiag_count_below", checked)
        dl.tridiag_eigs_below(tr, 0.0)
        if spec is None:
            # the first sweep spans the Gershgorin bracket; every later one
            # holds only the bound states' shifts and stops within two strides
            assert scanned[0] == 120
            assert max(scanned[1:]) <= 2 * dl._STOP_STRIDE
        scanned.clear()
        dl.tridiag_eigs_below(tr, 0.0, above=1)
        assert scanned
