import json
import subprocess
import sys

import pytest

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

    def test_grid_merges_in_order(self, capsys, monkeypatch):
        monkeypatch.setenv("BJB_THREADS", "2")
        code, out, _ = run_cli(
            ["green", "--family", "scalar-free", "--lambda=-5:-3:1", "--N=5"],
            capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "lambda,index,norm"
        lams = [l.split(",")[0] for l in lines[1:]]
        assert lams == ["-5"] * 5 + ["-4"] * 5 + ["-3"] * 5

    def test_bad_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BJB_THREADS", "zero")
        code, _, err = run_cli(
            ["green", "--family", "scalar-free", "--lambda=-5:-3:1", "--N=5"],
            capsys)
        assert code == 1
        assert "BJB_THREADS" in err

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
