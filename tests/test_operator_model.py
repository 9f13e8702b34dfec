import json
import math
import re

import numpy as np
import pytest

from blockjacobi import (OperatorFamily, StParams, assemble_truncation,
                         block_entries, builtin_family, diagonal_family,
                         eigenpairs_below, parse_family_spec, scalar_free_family,
                         st_family, table_family, tridiag_kth_eigenvalue)
from blockjacobi.dense_linalg import tridiag_apply
from blockjacobi.operator_model import offdiag_kernel_flags

from conftest import random_family, shift_first_block


class TestBlockEntries:
    def test_st_alpha_half_n4(self):
        fam = st_family(StParams(2, 2, 0.5))
        A, B = block_entries(fam, 4)
        assert np.array_equal(A.real, [[0, 2], [2, 0]])
        assert np.array_equal(B.real, [[4, 0], [0, 4]])

    def test_deterministic(self):
        fam = random_family(3, 2)
        A1, B1 = block_entries(fam, 1)
        A2, B2 = block_entries(fam, 1)
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2)

    def test_scalar_free_constant(self):
        fam = scalar_free_family()
        A, B = block_entries(fam, 7)
        assert A == np.array([[1.0]]) and B == np.array([[0.0]])

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError, match=">= 1"):
            block_entries(scalar_free_family(), 0)

    def test_rejects_non_hermitian_diag(self):
        bad = OperatorFamily(
            2, lambda n: np.eye(2, dtype=complex),
            lambda n: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            block_entries(bad, 1)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        base = diagonal_family([1.0, 2.0], [3.0, 4.0])

        def poisoned(rule):
            return lambda n: rule(n) + (np.diag([0.0, bad]) if n == 5 else 0.0)

        with pytest.raises(ValueError, match=r"^offdiag\(5\) has non-finite entries$"):
            block_entries(OperatorFamily(2, poisoned(base.offdiag), base.diag), 5)
        with pytest.raises(ValueError, match=r"^diag\(5\) has non-finite entries$"):
            block_entries(OperatorFamily(2, base.offdiag, poisoned(base.diag)), 5)
        block_entries(OperatorFamily(2, poisoned(base.offdiag), base.diag), 4)


class TestAssembleTruncation:
    def test_scalar_free_two_blocks(self):
        tr = assemble_truncation(scalar_free_family(), 2)
        assert np.array_equal(tr.dense().real, [[0, 1], [1, 0]])

    def test_st_alpha_half_two_blocks(self):
        tr = assemble_truncation(st_family(StParams(2, 2, 0.5)), 2)
        T = tr.dense().real
        assert np.allclose(T[:2, :2], np.diag([2, 2]))
        assert np.allclose(T[2:, 2:], np.diag([2 * 2**0.5, 2 * 2**0.5]))
        assert np.array_equal(T[:2, 2:], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("seed,d,N", [(1, 1, 12), (2, 2, 9), (3, 3, 6)])
    def test_dense_is_hermitian(self, seed, d, N):
        T = assemble_truncation(random_family(seed, d), N).dense()
        assert np.abs(T - T.conj().T).max() <= 1e-14 * max(1.0, np.abs(T).max())

    def test_blocks_match_family_rules(self):
        fam = st_family(StParams(1, 4, 0.3))
        tr = assemble_truncation(fam, 5)
        for k in range(5):
            A, B = block_entries(fam, k + 1)
            assert np.array_equal(tr.diag_blocks[k], B)
            if k < 4:
                assert np.array_equal(tr.offdiag_blocks[k], A)

    def test_blocks_immutable(self):
        tr = assemble_truncation(scalar_free_family(), 3)
        with pytest.raises(ValueError):
            tr.diag_blocks[0][0, 0] = 5.0

    def test_dense_dim(self):
        assert assemble_truncation(st_family(StParams(2, 2, 0.5)), 7).dense_dim == 14

    @pytest.mark.parametrize("seed,d,N", [(1, 1, 1), (2, 2, 1), (3, 2, 9), (4, 3, 6)])
    def test_stacked_read_only_arrays(self, seed, d, N):
        tr = assemble_truncation(random_family(seed, d, complex_entries=True), N)
        for blocks, shape in ((tr.diag_blocks, (N, d, d)),
                              (tr.offdiag_blocks, (N - 1, d, d))):
            assert isinstance(blocks, np.ndarray)
            assert blocks.shape == shape
            assert blocks.dtype == np.complex128
            assert not blocks.flags.writeable
        want = max([np.abs(B).max() for B in tr.diag_blocks] +
                   [np.abs(A).max() for A in tr.offdiag_blocks])
        assert tr.scale() == want

    def test_interlacing_min_eigenvalue(self, st_critical):
        mins = [tridiag_kth_eigenvalue(assemble_truncation(st_critical, N), 1)
                for N in (10, 20, 40, 80)]
        assert all(mins[i + 1] <= mins[i] + 1e-12 for i in range(3))


class TestApplyUpsilon:
    """The second-order difference expression on a finitely supported
    sequence u_1..u_M: the M-block truncation applied to u (tridiag_apply),
    rows B_1 u_1 + A_1 u_2 and A_{k-1}^* u_{k-1} + B_k u_k + A_k u_{k+1}."""

    def test_scalar_free_shift(self):
        u = np.zeros(5)
        u[0] = 1.0
        out = tridiag_apply(assemble_truncation(scalar_free_family(), 5), u)
        assert np.allclose(out, [0, 1, 0, 0, 0])

    @pytest.mark.parametrize("seed,d", [(5, 1), (6, 2), (7, 3)])
    def test_matches_dense_oracle(self, seed, d):
        fam = random_family(seed, d)
        rng = np.random.default_rng(seed)
        M = 8
        u = rng.standard_normal((M, d)) + 1j * rng.standard_normal((M, d))
        out = tridiag_apply(assemble_truncation(fam, M), u.ravel()).reshape(M, d)
        T = assemble_truncation(fam, M + 1).dense()
        padded = np.zeros(((M + 1) * d,), complex)
        padded[:M * d] = u.ravel()
        want = (T @ padded).reshape(M + 1, d)[:M]
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(out - want).max() <= 1e-12 * scale

    def test_eigenvector_residual(self, st_deep):
        # a bound-state eigenvector with negligible tail solves the recurrence
        N = 60
        tr = assemble_truncation(st_deep, N)
        pair = eigenpairs_below(tr, 0.0)[0]
        resid = tridiag_apply(tr, pair.vector) - pair.value * pair.vector
        assert np.abs(resid).max() < 1e-8


class TestKernelFlags:
    def test_st_family_all_trivial_kernel(self):
        flags = offdiag_kernel_flags(assemble_truncation(st_family(StParams(2, 2, 0.6)), 6))
        assert flags == [True] * 5

    def test_singular_offdiag_flagged(self):
        fam = diagonal_family([1.0, 0.0], [1.0, 1.0])
        assert offdiag_kernel_flags(assemble_truncation(fam, 3)) == [False, False]

    def test_rank_one_offdiag_flagged(self):
        A = np.outer([0.2, 0.7], [0.2, 0.9])
        fam = OperatorFamily(2, lambda n: A, lambda n: np.eye(2))
        assert offdiag_kernel_flags(assemble_truncation(fam, 2)) == [False]

    def test_random_complex_rank_one_flagged(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            A = np.outer(u, v)
            fam = OperatorFamily(2, lambda n: A, lambda n: np.eye(2))
            assert offdiag_kernel_flags(assemble_truncation(fam, 2)) == [False]


class TestFamilyConstruction:
    def test_builtin_st(self):
        fam = builtin_family("st", s=2.0, t=2.0, alpha=0.6)
        assert fam.dim == 2 and fam.edge_b == 0.0

    def test_builtin_unknown(self):
        with pytest.raises(ValueError, match="unknown family"):
            builtin_family("nope")

    def test_parse_spec_st(self):
        fam = parse_family_spec("st:s=3,t=3,alpha=0.5")
        assert fam.edge_b is None  # st=9 > 4: no declared edge
        A, _ = block_entries(fam, 4)
        assert A[0, 1].real == pytest.approx(2.0)

    def test_parse_spec_diagonal(self):
        fam = parse_family_spec("diagonal-test:adiag=1;4,bdiag=2;8,aexp=0.6,bexp=0.6")
        A, B = block_entries(fam, 2)
        assert np.allclose(np.diag(A).real, [2**0.6, 4 * 2**0.6])
        assert np.allclose(np.diag(B).real, [2 * 2**0.6, 8 * 2**0.6])

    def test_parse_spec_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_family_spec("st:s=two")

    def test_table_family_roundtrip(self, tmp_path):
        doc = {
            "dim": 2,
            "edge_b": -1.5,
            "blocks": [
                {"n": 1, "A": [0, 1, 1, 0], "B": [2, 0, 0, 2]},
                {"n": 2, "A": [0, [1, 0.5], [1, -0.5], 0], "B": [3, 0, 0, 3]},
            ],
        }
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        fam = table_family(str(path))
        assert fam.dim == 2 and fam.edge_b == -1.5
        A2, _ = block_entries(fam, 2)
        assert A2[0, 1] == 1 + 0.5j
        tr = assemble_truncation(fam, 2)
        T = tr.dense()
        assert np.abs(T - T.conj().T).max() == 0.0

    def test_table_family_missing_index(self):
        fam = table_family({"dim": 1, "blocks": [
            {"n": 1, "A": [1], "B": [0]}]})
        with pytest.raises(ValueError, match="no block n=2"):
            assemble_truncation(fam, 2)

    @pytest.mark.parametrize("key", ["n", "A", "B"])
    def test_table_family_record_missing_key(self, key):
        rec = {"n": 1, "A": [1], "B": [0]}
        del rec[key]
        with pytest.raises(ValueError,
                           match=f"malformed family table: block record 1 missing '{key}'"):
            table_family({"dim": 1, "blocks": [rec]})

    def test_table_family_repeated_index(self):
        # a second record for n = 1 must not silently replace the first
        with pytest.raises(ValueError, match="repeats block n=1"):
            table_family({"dim": 1, "blocks": [
                {"n": 1, "A": [1], "B": [-5]}, {"n": 2, "A": [1], "B": [0]},
                {"n": 1, "A": [1], "B": [3]}]})

    def test_table_family_bad_shape(self):
        with pytest.raises(ValueError, match="entries"):
            table_family({"dim": 2, "blocks": [{"n": 1, "A": [1], "B": [0]}]})
        # a fractional size or index, or a record or list of the wrong type,
        # is an input error, not a different operator
        rec = {"n": 1, "A": [1], "B": [0]}
        for doc, message in [
                ({"dim": 1.7, "blocks": [rec]}, r"dim = 1\.7, expected an integer"),
                ({"dim": True, "blocks": [rec]}, "dim = True, expected an integer"),
                ({"dim": 1, "blocks": [rec, {**rec, "n": 1.5}]},
                 r"block record 2 n = 1\.5, expected an integer"),
                ({"dim": 1, "blocks": [{**rec, "n": "2"}]},
                 "block record 1 n = '2', expected an integer"),
                ({"dim": 1, "blocks": [rec, [2, [1], [0]]]},
                 "block record 2 is not an object"),
                ({"dim": 1, "blocks": rec}, "blocks must be a list"),
                ({"dim": 1, "blocks": 3}, "blocks must be a list"),
                ({"dim": 1, "blocks": [{**rec, "A": 1}]},
                 "block record 1 A and B must be lists")]:
            with pytest.raises(ValueError, match=f"malformed family table: {message}"):
                table_family(doc)
        # an integral float names the same block
        fam = table_family({"dim": 1.0, "blocks": [{**rec, "n": 1.0}]})
        assert fam.dim == 1 and block_entries(fam, 1)[0][0, 0] == 1

    @pytest.mark.parametrize("edge", [[0], True, False, "0", None, math.inf,
                                      math.nan, 10**400],
                             ids=["list", "true", "false", "string", "null",
                                  "inf", "nan", "int-beyond-float"])
    def test_table_family_edge_must_be_finite_number(self, edge):
        doc = {"dim": 1, "blocks": [{"n": 1, "A": [1], "B": [0]}], "edge_b": edge}
        if edge is None:  # an explicit null is an unset edge
            assert table_family(doc).edge_b is None
            return
        with pytest.raises(ValueError, match=re.escape(
                f"malformed family table: edge_b = {edge!r}, expected a finite number")):
            table_family(doc)

    @pytest.mark.parametrize("entry", [True, [True, 0], [1, False], "1", ["1", 0],
                                       [1, None], [1, 2, 3], 10**400, [10**400, 0],
                                       [0, -10**400]],
                             ids=["bool", "pair-bool-re", "pair-bool-im", "string",
                                  "pair-string", "pair-null", "triple",
                                  "int-beyond-float", "pair-int-beyond-float-re",
                                  "pair-int-beyond-float-im"])
    def test_table_family_entry_must_be_number_or_pair(self, entry):
        # no entry is coerced into a different matrix, and none raises
        # anything but the input error
        doc = {"dim": 1, "blocks": [{"n": 1, "A": [entry], "B": [0]}]}
        with pytest.raises(ValueError, match=re.escape(
                f"matrix entry must be a number or an [re, im] pair, got {entry!r}")):
            table_family(doc)

    def test_table_family_entry_values(self):
        fam = table_family({"dim": 2, "blocks": [
            {"n": 1, "A": [1, 2.5, [0, -1], [3, 0.5]], "B": [-1, [2, 1], [2, -1], 7]}]})
        A, B = block_entries(fam, 1)
        assert np.array_equal(A, [[1, 2.5], [-1j, 3 + 0.5j]])
        assert np.array_equal(B, [[-1, 2 + 1j], [2 - 1j, 7]])

    def test_table_family_integer_edge(self):
        fam = table_family({"dim": 1, "blocks": [{"n": 1, "A": [1], "B": [0]}],
                            "edge_b": -2})
        assert fam.edge_b == -2.0 and isinstance(fam.edge_b, float)

    @pytest.mark.parametrize("doc,kind", [([{"dim": 1}], "list"), (3, "int"),
                                          ("x", "str"), (None, "NoneType")])
    def test_table_family_document_must_be_object(self, doc, kind, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"malformed family table: the document "
                                             f"is a {kind}, expected an object"):
            table_family(str(path))

    def test_table_family_non_hermitian_diag(self):
        with pytest.raises(ValueError, match="Hermitian"):
            table_family({"dim": 2, "blocks": [
                {"n": 1, "A": [0, 1, 1, 0], "B": [0, 1, 0, 0]}]})

    def test_deep_shift_helper(self, st_deep):
        _, B1 = block_entries(st_deep, 1)
        assert np.allclose(np.diag(B1).real, [-8.0, -8.0])
        _, B2 = block_entries(st_deep, 2)
        assert np.allclose(np.diag(B2).real, [2 * 2**0.6] * 2)
