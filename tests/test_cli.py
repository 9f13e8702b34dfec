import json
import subprocess
import sys
import warnings

import pytest

from blockjacobi import assemble_truncation, cli, eigenpairs_below, parse_family_spec
from blockjacobi.cli import _parse_lambda, main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_family_free_gamma(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--lambda=-1", "--b=0", "--delta=1", "--eps=0.1"], capsys)
        assert code == 0
        assert "gamma=0.67644569638038632" in out
        assert "simplified_rate=0.90000000000000002" in out

    def test_lambda_grid(self, capsys):
        code, out, _ = run_cli(["bounds", "--lambda=-3:-1:1", "--b=0"], capsys)
        assert code == 0
        assert out.count("gamma=") == 3

    def test_envelope_table_written(self, tmp_path, capsys):
        out_path = tmp_path / "env.csv"
        code, _, _ = run_cli(
            ["bounds", "--lambda=-1", "--family", "st:s=2,t=2,alpha=0.6",
             "--N=5", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# blockjacobi-bounds v1"
        assert lines[2] == "lambda,index,cumulative,envelope"
        assert len(lines) == 8

    def test_envelope_computed_once_per_grid(self, tmp_path, capsys, monkeypatch):
        # S_m depends on delta alone: one envelope for every lambda of the grid
        calls = []
        real = cli.scalar_envelope
        monkeypatch.setattr(cli, "scalar_envelope",
                            lambda *a: calls.append(a) or real(*a))
        code, _, _ = run_cli(
            ["bounds", "--lambda=-2:-1:0.5", "--family", "st:s=2,t=2",
             "--N=5", "--out", str(tmp_path / "env.csv")], capsys)
        assert code == 0
        assert len(calls) == 1
        assert len((tmp_path / "env.csv").read_text().splitlines()) == 3 + 3 * 5

    def test_missing_b_is_input_error(self, capsys):
        code, _, err = run_cli(["bounds", "--lambda=-1"], capsys)
        assert code == 1
        assert "error:" in err

    def test_json_to_stdout_without_out(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--lambda=-2:-1:1", "--b=0", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [r["lambda"] for r in payload] == [[-2.0, 0.0], [-1.0, 0.0]]
        assert payload[1]["simplified_rate"] == pytest.approx(0.9)

    def test_lambda_at_b_is_input_error(self, capsys):
        code, _, err = run_cli(["bounds", "--lambda=1", "--b=0"], capsys)
        assert code == 1
        assert "below" in err


class TestLambdaGrid:
    def test_points_computed_from_index(self):
        got = [v.real for v in _parse_lambda("-2:-0.5:0.1")]
        assert got == [-2 + i * 0.1 for i in range(16)]

    def test_stop_included_up_to_rounding(self):
        assert len(_parse_lambda("0:0.3:0.1")) == 4  # 3 * 0.1 > 0.3 by 1 ulp
        assert len(_parse_lambda("0:0.35:0.1")) == 4


class TestStDefaultAlpha:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--lambda=-1", "--b=0", "--N=5", "--out", "{out}"],
        ["green", "--lambda=-1", "--N=8"],
        ["eigs", "--N=20", "--b=3"],
        ["example", "--table=roots", "--lambda=-1", "--N=8"],
        ["verify", "--lambda=-1", "--b=0", "--N=20"],
    ], ids=lambda argv: argv[0])
    def test_same_operator_in_every_subcommand(self, argv, tmp_path, capsys):
        def output(family):
            out = tmp_path / "out.csv"
            code, text, _ = run_cli(
                [a.replace("{out}", str(out)) for a in argv]
                + ["--family", family], capsys)
            assert code == 0
            return out.read_text() if "{out}" in argv else text

        implicit = output("st:s=2,t=2")
        assert implicit == output("st:s=2,t=2,alpha=0.6")
        assert implicit != output("st:s=2,t=2,alpha=0.5")

    def test_example_header_alpha(self, capsys):
        code, out, _ = run_cli(
            ["example", "--family", "st:s=2,t=2", "--table=roots",
             "--lambda=-1", "--N=2"], capsys)
        assert code == 0
        assert "alpha=0.59999999999999998" in out.splitlines()[1]


class TestGreen:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            ["green", "--family", "scalar-free", "--lambda=-3", "--N=30",
             "--k=1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# blockjacobi-bounds v1"
        assert lines[2] == "index,norm"
        assert len(lines) == 33

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["green", "--family", "scalar-free", "--lambda=-3", "--N=10",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["lambda"] == [-3.0, 0.0]
        assert len(payload[0]["norms"]) == 10

    def test_grid_merges_in_order(self, capsys):
        code, out, _ = run_cli(
            ["green", "--family", "scalar-free", "--lambda=-5:-3:1", "--N=5"],
            capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "lambda,index,norm"
        lams = [l.split(",")[0] for l in lines[1:]]
        assert lams == ["-5"] * 5 + ["-4"] * 5 + ["-3"] * 5

    @pytest.mark.parametrize("family", ["scalar-free", "st:s=2,t=2,alpha=0.6"])
    def test_grid_rows_equal_single_lambda_rows(self, family, tmp_path, capsys):
        # the grid shares one batched factor; each point's rows are still
        # byte-equal to the rows of its own single-lambda run
        argv = ["green", "--family", family, "--N=60", "--k=2"]
        code, _, _ = run_cli(argv + ["--lambda=-4:-2.5:0.5", "--out",
                                     str(tmp_path / "grid.csv")], capsys)
        assert code == 0
        rows = (tmp_path / "grid.csv").read_text().splitlines()[3:]
        assert len(rows) == 4 * 60
        for i, lam in enumerate(["-4", "-3.5", "-3", "-2.5"]):
            out = tmp_path / f"single{i}.csv"
            code, _, _ = run_cli(argv + [f"--lambda={lam}", "--out", str(out)], capsys)
            assert code == 0
            assert rows[60 * i: 60 * (i + 1)] == \
                [f"{lam},{row}" for row in out.read_text().splitlines()[3:]]

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(
            ["green", "--family", "wat", "--lambda=-3", "--N=10"], capsys)
        assert code == 1
        assert "unknown family" in err


class TestEigs:
    def test_empty_below_edge(self, capsys):
        code, out, _ = run_cli(
            ["eigs", "--family", "scalar-free", "--N=40"], capsys)
        assert code == 0  # edge_b = -2 comes from the family
        lines = out.splitlines()
        assert lines[2] == "kind,idx,eigenvalue,last_block_norm,boundary_suspect"
        assert len(lines) == 3

    def test_deep_state_with_tau(self, capsys, tmp_path):
        fam = {"dim": 1, "blocks": [
            {"n": n, "A": [1.0], "B": [-8.0 if n == 1 else 0.0]}
            for n in range(1, 41)]}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(fam))
        code, out, _ = run_cli(
            ["eigs", "--family", str(path), "--N=40", "--b=-2.5", "--tau=0.1",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["eigenvalues"]) == 1
        assert payload["eigenvalues"][0] == pytest.approx(-8.124, abs=1e-2)
        assert payload["dist"] > 0


class TestEigsKernelFlags:
    N = 40

    @pytest.fixture
    def argv(self, tmp_path):
        """eigs on the st blocks (s = t = 2, alpha = 0.6) with a well of depth
        -10 on the first block: two eigenpairs below b = 0."""
        blocks = [{"n": n, "A": [0.0, n ** 0.6, n ** 0.6, 0.0],
                   "B": [2 * n ** 0.6 - 10.0 * (n == 1), 0.0, 0.0,
                         2 * n ** 0.6 - 10.0 * (n == 1)]} for n in range(1, self.N + 1)]
        path = tmp_path / "well.json"
        path.write_text(json.dumps({"dim": 2, "blocks": blocks}))
        return ["eigs", "--family", str(path), f"--N={self.N}", "--b=0", "--tau=0.01"]

    def test_only_json_computes_kernel_flags(self, argv, monkeypatch, capsys):
        calls = []
        original = cli.offdiag_kernel_flags

        def counting(trunc):
            calls.append(trunc.nblocks)
            return original(trunc)

        monkeypatch.setattr(cli, "offdiag_kernel_flags", counting)
        code, csv_out, _ = run_cli(argv, capsys)
        assert code == 0 and calls == []
        code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and calls == [self.N]
        payload = json.loads(json_out)
        assert sorted(payload) == ["N", "b", "dist", "eigenvalues",
                                   "offdiag_kernel_trivial", "perturbed_eigenvalues"]
        assert payload["offdiag_kernel_trivial"] is True
        assert payload["N"] == self.N and payload["b"] == 0.0
        assert len(payload["eigenvalues"]) == 2
        rows = [r.split(",") for r in csv_out.splitlines()[3:]]
        for kind, key in (("base", "eigenvalues"), ("perturbed", "perturbed_eigenvalues")):
            assert [float(r[2]) for r in rows if r[0] == kind] == payload[key]
        assert payload["dist"] == min(abs(payload["eigenvalues"][0] - v)
                                      for v in payload["perturbed_eigenvalues"])

    def test_last_block_norm_is_last_of_block_norms(self, argv, capsys):
        code, csv_out, _ = run_cli(argv[:-1], capsys)
        assert code == 0
        pairs = eigenpairs_below(
            assemble_truncation(parse_family_spec(argv[2]), self.N), 0.0)
        tails = [r.split(",")[3] for r in csv_out.splitlines()[3:]]
        assert len(tails) == 2
        assert tails == [cli._fmt(pr.block_norms(2)[-1]) for pr in pairs]

    def test_flag_reads_only_the_truncation_couplings(self, capsys):
        # A_n = 0 has a nontrivial kernel, but one block has no coupling
        argv = ["eigs", "--family", "diagonal-test:adiag=0,bdiag=-1", "--b=0",
                "--format", "json"]
        for N, trivial in ((1, True), (2, False)):
            code, out, _ = run_cli(argv + [f"--N={N}"], capsys)
            assert code == 0
            assert json.loads(out)["offdiag_kernel_trivial"] is trivial


class TestGreenAtEigenvalue:
    @pytest.mark.parametrize("N", [3, 6])
    def test_one_error_line(self, N, tmp_path, capsys):
        # sqrt(2) is an eigenvalue of the 3-block free section: pivot 3 is
        # ill-conditioned, the last one at N = 3 and mid-chain at N = 6
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(
                ["green", "--family", "scalar-free", "--lambda=1.4142135623730951",
                 f"--N={N}", "--k=1", "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: singular shift: pivot block 3 has condition "
                              "estimate ")
        assert err.endswith(" (limit 1e+12)\n")
        assert not out.exists()


class TestExample:
    @pytest.mark.parametrize("s,t,want", [
        ("2", "2", "gap_unbounded"), ("3", "3", "ess_empty"),
        ("1", "1", "ess_full_line")])
    def test_phase(self, s, t, want, capsys):
        code, out, _ = run_cli(
            ["example", "--family", f"st:s={s},t={t}", "--table=phase"], capsys)
        assert code == 0
        assert out.strip() == want

    def test_jc(self, capsys):
        code, out, _ = run_cli(
            ["example", "--family", "st:s=3,t=3", "--table=jc"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0)

    def test_roots_table(self, capsys):
        code, out, _ = run_cli(
            ["example", "--family", "st:s=2,t=2,alpha=0.6", "--table=roots",
             "--lambda=-1", "--N=16"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[2].startswith("n,mu1_re")
        assert [l.split(",")[0] for l in lines[3:]] == ["2", "4", "8", "16"]

    def test_levinson_table(self, capsys):
        code, out, _ = run_cli(
            ["example", "--family", "st:s=2,t=2,alpha=0.6", "--table=levinson",
             "--lambda=-1", "--N=50", "--k=10"], capsys)
        assert code == 0
        row = out.splitlines()[3].split(",")
        assert row[0] == "10" and row[1] == "50"

    def test_grid_rejected(self, capsys):
        code, _, err = run_cli(
            ["example", "--family", "st:s=2,t=2", "--table=roots",
             "--lambda=-2:-1:0.5", "--N=8"], capsys)
        assert code == 1
        assert "single value" in err

    @pytest.mark.parametrize("argv,message", [
        ("--table=roots --lambda=-1 --N=-5", "transfer matrix needs n >= 2, got -5"),
        ("--table=roots --lambda=-1 --N=1", "transfer matrix needs n >= 2, got 1"),
        ("--table=asymptotic --lambda=-1 --N=0", "asymptotic form needs n >= 2, got 0"),
        ("--table=levinson --lambda=-1 --N=50 --k=-3", "need 2 <= n0 <= n, got n0=-3, n=50"),
    ], ids=["roots-N=-5", "roots-N=1", "asymptotic-N=0", "levinson-k=-3"])
    def test_sizes_below_two_are_input_errors(self, argv, message, capsys):
        # the table sizes are the user's, never raised to 2
        code, out, err = run_cli(
            ["example", "--family", "st:s=2,t=2,alpha=0.6", *argv.split()], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_needs_st_family(self, capsys):
        code, _, err = run_cli(
            ["example", "--family", "scalar-free", "--table=phase"], capsys)
        assert code == 1
        assert "st:" in err


class TestVerify:
    def test_green_pass_writes_reports(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        code, _, err = run_cli(
            ["verify", "--family", "st:s=2,t=2,alpha=0.6", "--lambda=-1",
             "--b=0", "--delta=1", "--eps=0.1", "--N=60", "--k=1",
             "--out", str(prefix)], capsys)
        assert code == 0
        assert "PASS" in err
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.splitlines()[0] == "# blockjacobi-bounds v1"
        assert "index,measured,envelope,ratio,verdict" in csv_text
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["all_pass"] is True

    def test_deterministic_outputs(self, tmp_path, capsys):
        args = ["verify", "--family", "st:s=2,t=2,alpha=0.6", "--lambda=-1",
                "--b=0", "--N=40", "--k=1"]
        c1, out1, _ = run_cli(args, capsys)
        c2, out2, _ = run_cli(args, capsys)
        assert c1 == c2 == 0
        assert out1 == out2

    def test_eigenvector_mode(self, tmp_path, capsys):
        fam = {"dim": 1, "blocks": [
            {"n": n, "A": [1.0], "B": [-8.0 if n == 1 else 0.0]}
            for n in range(1, 61)]}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(fam))
        code, out, _ = run_cli(
            ["verify", "--family", str(path), "--mode", "eigenvector",
             "--b=-2.5", "--N=60", "--format", "json"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["mode"] == "eigenvector"
        assert summary["all_pass"] is True

    def test_eigenvector_mode_rejects_grid(self, tmp_path, capsys):
        fam = {"dim": 1, "blocks": [
            {"n": n, "A": [1.0], "B": [-8.0 if n == 1 else 0.0]}
            for n in range(1, 61)]}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(fam))
        code, _, err = run_cli(
            ["verify", "--family", str(path), "--mode", "eigenvector",
             "--b=-2.5", "--N=60", "--lambda=-9:-8:0.5"], capsys)
        assert code == 1
        assert "single value" in err

    def test_commuting_mode(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--family",
             "diagonal-test:adiag=1;4,bdiag=2;8,aexp=0.6,bexp=0.6",
             "--mode", "commuting", "--lambda=-1", "--b=0", "--N=40",
             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_commuting_mode_rejects_noncommuting_family(self, capsys):
        code, _, err = run_cli(
            ["verify", "--family", "st:s=1,t=4,alpha=0.5", "--mode", "commuting",
             "--lambda=-1", "--b=0", "--N=40"], capsys)
        assert code == 1
        assert "do not commute" in err

    def test_non_finite_table_entry_is_input_error(self, tmp_path, capsys):
        blocks = [{"n": n, "A": [1.0], "B": [0.0]} for n in range(1, 41)]
        blocks[4]["A"] = [float("nan")]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"dim": 1, "blocks": blocks}))
        code, _, err = run_cli(
            ["verify", "--family", str(path), "--mode", "commuting",
             "--lambda=-3", "--b=-2", "--N=40"], capsys)
        assert code == 1
        assert "offdiag(5) has non-finite entries" in err

    def test_small_n_rejected(self, capsys):
        code, _, err = run_cli(
            ["verify", "--family", "scalar-free", "--lambda=-3", "--b=-2",
             "--N=10"], capsys)
        assert code == 1
        assert "N >= 20" in err

    def test_verification_failure_exit_2(self, capsys):
        # claiming an edge far above the true one (-2 for the free operator)
        # makes the envelope decay faster than the actual resolvent: fail
        code, out, err = run_cli(
            ["verify", "--family", "scalar-free", "--lambda=-2.05", "--b=1.9",
             "--N=60", "--calib", "1:3"], capsys)
        assert code == 2
        assert "FAIL" in err
        assert ",fail" in out

    def test_full_scale_green_run(self, tmp_path, capsys):
        prefix = tmp_path / "full"
        code, _, err = run_cli(
            ["verify", "--family", "st:s=2,t=2,alpha=0.6", "--lambda=-1",
             "--b=0", "--delta=1", "--eps=0.1", "--N=300", "--k=1",
             "--out", str(prefix)], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "full.json").read_text())
        assert summary["all_pass"] is True
        assert summary["n_eligible"] == 270
        rows = [l for l in (tmp_path / "full.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 301  # header + one row per block index

    def test_grid_rows_equal_single_runs(self, tmp_path, capsys):
        base = ["verify", "--mode", "green", "--family", "st:s=2,t=2,alpha=0.6",
                "--b=0", "--N=40"]
        code, _, _ = run_cli(base + ["--lambda=-2:-1:1", "--out",
                                     str(tmp_path / "grid")], capsys)
        assert code == 0
        grid_rows = (tmp_path / "grid.csv").read_text().splitlines()[3:]
        want = []
        for lam in ("-2", "-1"):
            code, _, _ = run_cli(base + [f"--lambda={lam}", "--out",
                                         str(tmp_path / f"single{lam}")], capsys)
            assert code == 0
            rows = (tmp_path / f"single{lam}.csv").read_text().splitlines()[3:]
            want += [f"{lam},{row}" for row in rows]
        assert grid_rows == want

    def test_grid_lambda_at_b_is_input_error(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["verify", "--family", "scalar-free", "--lambda=-1:1:1", "--b=0",
             "--N=30", "--out", str(tmp_path / "grid")], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: Re(lambda) = 0.0 must be below b = 0.0"]
        assert list(tmp_path.iterdir()) == []

    def test_grid_verify_merged_csv(self, tmp_path, capsys):
        prefix = tmp_path / "grid"
        code, _, _ = run_cli(
            ["verify", "--family", "scalar-free", "--lambda=-4:-3:1",
             "--b=-2", "--N=30", "--out", str(prefix)], capsys)
        assert code == 0
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[2] == "lambda,index,measured,envelope,ratio,verdict"
        payload = json.loads((tmp_path / "grid.json").read_text())
        assert isinstance(payload, list) and len(payload) == 2


class TestMalformedTable:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--lambda=-1", "--b=0"],
        ["green", "--lambda=-1", "--N=1"],
    ], ids=["bounds", "green"])
    @pytest.mark.parametrize("key", ["n", "A", "B"])
    def test_missing_key_is_one_line_input_error(self, argv, key, tmp_path, capsys):
        rec = {"n": 1, "A": [1], "B": [0]}
        del rec[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 1, "blocks": [rec]}))
        code, _, err = run_cli(argv + ["--family", str(path)], capsys)
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"missing '{key}'" in lines[0]


    blocks = [{"n": n, "A": [1], "B": [0]} for n in (1, 2, 3)]

    @pytest.mark.parametrize("doc,message", [
        ({"dim": 1, "edge_b": [0], "blocks": blocks},
         "edge_b = [0], expected a finite number"),
        ({"dim": 1, "edge_b": True, "blocks": blocks},
         "edge_b = True, expected a finite number"),
        (blocks, "the document is a list, expected an object"),
    ], ids=["edge-list", "edge-bool", "top-level-list"])
    def test_malformed_document_is_one_line_input_error(self, doc, message,
                                                        tmp_path, capsys):
        # --b overrides the edge, yet a malformed edge_b is still an input error
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["eigs", "--family", str(path), "--N=3", "--b=5"],
                               capsys)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"malformed family table: {message}" in lines[0]

    @pytest.mark.parametrize("entry", [True, ["1", 0], 10**400, [0, 10**400]],
                             ids=["bool", "pair-string", "int-beyond-float",
                                  "pair-int-beyond-float"])
    def test_malformed_entry_is_one_line_input_error(self, entry, tmp_path, capsys):
        blocks = [{"n": n, "A": [1], "B": [0]} for n in (1, 2, 3)]
        blocks[1]["A"] = [entry]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 1, "blocks": blocks}))
        code, _, err = run_cli(["eigs", "--family", str(path), "--N=3", "--b=5"],
                               capsys)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "matrix entry must be a number or an [re, im] pair" in lines[0]


class TestVectorScalarParameter:
    @pytest.mark.parametrize("family,key", [
        ("st:s=1;2,t=2", "s"),
        ("st:s=2,t=2;3", "t"),
        ("st:s=2,t=2,alpha=0.6;0.7", "alpha"),
        ("diagonal-test:adiag=1,bdiag=2,aexp=1;2", "aexp"),
        ("diagonal-test:adiag=1,bdiag=2,bexp=1;2", "bexp"),
        ("diagonal-test:adiag=1,bdiag=2,edge_b=0;1", "edge_b"),
    ])
    def test_is_one_line_input_error(self, family, key, capsys):
        code, _, err = run_cli(["green", "--family", family, "--lambda=-1", "--N=3"], capsys)
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"parameter {key} takes one number" in lines[0]


# the flag contract: each subcommand accepts the flags it reads, "!" marking
# the required ones, and a smallest argv it runs on
FLAG_TABLE = {
    "bounds": ("family lambda! b delta eps N out format", "--lambda=-1 --b=0"),
    "green": ("family! lambda! N! k out format",
              "--family=st:s=2,t=2 --lambda=-1 --N=8"),
    "eigs": ("family! N! b tau out format", "--family=st:s=2,t=2 --N=8 --b=3"),
    "example": ("family! table lambda N k out", "--family=st:s=2,t=2"),
    "verify": ("family! mode lambda b delta eps N! k calib out format",
               "--family=st:s=2,t=2 --N=20 --lambda=-1 --b=0"),
}
SHARED_FLAGS = "family lambda b delta eps N k tau calib out format".split()
FLAG_VALUES = {"family": "st:s=2,t=2", "lambda": "-1", "b": "0", "delta": "1",
               "eps": "0.1", "N": "20", "k": "1", "tau": "0.1", "calib": "5:15",
               "out": "report", "format": "csv", "mode": "green", "table": "phase"}


def _row(command):
    return [f.rstrip("!") for f in FLAG_TABLE[command][0].split()]


class TestFlagTable:
    unread = [(c, f) for c in FLAG_TABLE for f in SHARED_FLAGS if f not in _row(c)]
    required = [(c, f[:-1]) for c in FLAG_TABLE
                for f in FLAG_TABLE[c][0].split() if f.endswith("!")]

    def test_twenty_unread_pairs(self):
        assert len(self.unread) == 20
        assert sum(len(_row(c)) for c in FLAG_TABLE) == 37

    @pytest.mark.parametrize("command", FLAG_TABLE)
    def test_accepts_its_row(self, command):
        for flag in _row(command):
            args = cli.build_parser().parse_args(
                [command, *FLAG_TABLE[command][1].split(),
                 f"--{flag}={FLAG_VALUES[flag]}"])
            assert getattr(args, flag) is not None

    @pytest.mark.parametrize("command,flag", unread,
                             ids=[f"{c}-{f}" for c, f in unread])
    def test_unread_flag_is_one_line_input_error(self, command, flag, capsys):
        code, out, err = run_cli(
            [command, *FLAG_TABLE[command][1].split(),
             f"--{flag}={FLAG_VALUES[flag]}"], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0] == (f"error: unrecognized arguments: "
                            f"--{flag}={FLAG_VALUES[flag]}")

    @pytest.mark.parametrize("command,flag", required,
                             ids=[f"{c}-{f}" for c, f in required])
    def test_missing_required_flag_is_one_line_input_error(self, command, flag,
                                                            capsys):
        argv = [a for a in FLAG_TABLE[command][1].split()
                if not a.startswith(f"--{flag}=")]
        code, out, err = run_cli([command, *argv], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0] == f"error: the following arguments are required: --{flag}"

    # flags that the value of another flag leaves unread
    unread_by_value = {
        "verify-eigenvector-lambda-and-k": (
            "verify --family=st:s=2,t=2 --N=20 --b=0 --mode=eigenvector "
            "--lambda=-1 --k=1", "--lambda and --k both select the eigenvalue"),
        "bounds-N-without-out": (
            "bounds --family=st:s=2,t=2 --N=5 --lambda=-1", "--N sets the envelope table"),
        "bounds-N-json-out": (
            "bounds --family=st:s=2,t=2 --N=5 --lambda=-1 --format=json --out=env.json",
            "--N sets the envelope table"),
        "example-k-outside-levinson": (
            "example --family=st:s=2,t=2 --table=roots --lambda=-1 --N=8 --k=3",
            "--k is read only by --table=levinson"),
        "example-lambda-N-with-phase": (
            "example --family=st:s=2,t=2 --table=phase --lambda=-1 --N=5",
            "--table=phase reads neither --lambda nor --N"),
        "example-N-with-jc": (
            "example --family=st:s=3,t=3 --table=jc --N=5",
            "--table=jc reads neither --lambda nor --N"),
        "verify-format-json-with-out": (
            "verify --family=st:s=2,t=2 --N=20 --lambda=-1 --b=0 --out=report "
            "--format=json", "--format is not read with --out"),
        "verify-format-csv-with-out": (
            "verify --family=st:s=2,t=2 --N=20 --lambda=-1 --b=0 --out=report "
            "--format=csv", "--format is not read with --out"),
    }

    @pytest.mark.parametrize("argv,message", unread_by_value.values(),
                             ids=unread_by_value)
    def test_flag_unread_by_value_is_one_line_input_error(self, argv, message,
                                                          tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "assemble_truncation", None)  # nothing is computed
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: " + message)
        assert list(tmp_path.iterdir()) == []


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "blockjacobi.cli", "example",
             "--family", "st:s=3,t=3", "--table=phase"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ess_empty"

    def test_exit_code_contract_on_bad_input(self):
        proc = subprocess.run(
            [sys.executable, "-m", "blockjacobi.cli", "green",
             "--family", "nope", "--lambda=-1", "--N=5"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
