"""Tests of the benchmark harness itself (not of blockjacobi).

    python3 -m pytest -q perfbench
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, layer_metrics, ratio, self_times  # noqa: E402


def span(name, start, end, parent=None, thread=1, note=None):
    s = Span(name, start, parent, thread)
    s.end = end
    s.note = note
    return s


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 5), (3, 7)]) == 6
    assert covered(0, 10, [(1, 2), (4, 5)]) == 2
    assert covered(0, 10, [(-3, 1), (9, 12)]) == 2  # clipped to [0, 10]
    assert covered(0, 10, [(2, 8), (3, 4)]) == 6  # contained child


def test_self_time_nested():
    op = span("cli.main", 0, 10)
    child = span("a", 1, 4, op)
    grandchild = span("b", 2, 3, child)
    own = self_times([op, child, grandchild])
    assert own[id(op)] == pytest.approx(7)
    assert own[id(child)] == pytest.approx(2)
    assert own[id(grandchild)] == pytest.approx(1)


def test_self_time_overlapping_children_on_threads():
    op = span("cli.main", 0, 10)
    kids = [span("w", 1, 5, op, thread=2), span("w", 3, 7, op, thread=3),
            span("w", 9, 12, op, thread=4)]
    own = self_times([op, *kids])
    # union of children inside [0, 10] is [1, 7] + [9, 10]
    assert own[id(op)] == pytest.approx(3)
    assert all(own[id(k)] == pytest.approx(k.end - k.start) for k in kids)


def test_pool_thread_spans_parent_to_the_operation():
    tracer = Tracer()
    work = tracer.wrap(lambda x: threading.get_ident(), "work")

    def op():
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(work, range(6)))

    thread_ids = tracer.wrap(op, "cli.main")()
    main_span = tracer.spans[0]
    assert main_span.name == "cli.main" and main_span.parent is None
    workers = [s for s in tracer.spans if s.name == "work"]
    assert len(workers) == 6
    assert all(s.parent is main_span for s in workers)
    assert {s.thread for s in workers} == set(thread_ids)
    assert threading.get_ident() not in thread_ids
    assert all(main_span.start <= s.start <= s.end <= main_span.end for s in workers)
    # a later operation is a new root, and pool spans do not leak into it
    tracer.wrap(lambda: None, "cli.main")()
    assert tracer.spans[-1].parent is None


def test_nested_calls_on_one_thread_use_the_stack():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    o, i = tracer.spans
    assert i.parent is o and o.parent is None


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    tracer.wrap(lambda: None, "after")()
    assert tracer.spans[1].parent is None


# ---------------------------------------------------------------------------
# ratio metrics and their bases
# ---------------------------------------------------------------------------

def _pass_spans():
    op = span("cli.main", 0.0, 10.0, thread=1)
    spans = [op, span("operator_model.parse_family_spec", 0.1, 0.2, op, thread=1)]
    for t in (2, 3):
        v = span("green_spectral.verify_green_decay", 1.0, 9.0, op, thread=t)
        kth = span("dense_linalg.tridiag_kth_eigenvalue", 2.0, 6.0, v, thread=t)
        spans += [v, kth]
        spans += [span("dense_linalg.tridiag_count_below", 2.0 + 0.1 * i,
                       2.05 + 0.1 * i, kth, thread=t) for i in range(40)]
    # eigenpairs: 2 pairs, 3 inverse iterations under them, 1 outside
    op2 = span("cli.main", 11.0, 20.0, thread=1)
    ep = span("green_spectral.eigenpairs_below", 12.0, 18.0, op2, thread=1, note=2)
    eb = span("dense_linalg.tridiag_eigs_below", 12.0, 14.0, ep, thread=1)
    kth2 = span("dense_linalg.tridiag_kth_eigenvalue", 12.5, 13.5, eb, thread=1)
    spans += [op2, ep, eb, kth2,
              span("dense_linalg.tridiag_count_below", 12.0, 12.1, eb, thread=1)]
    spans += [span("dense_linalg.tridiag_inverse_iteration", 14 + i, 14.5 + i, ep)
              for i in range(3)]
    spans.append(span("dense_linalg.tridiag_inverse_iteration", 19.0, 19.5, op2))
    return spans


def test_layer_metric_ratios_and_bases():
    m = layer_metrics(_pass_spans(), report_bytes=1234)
    assert list(m) == list(tracing.LAYER_UNITS)
    assert m["dense_linalg.tridiag_count_below.calls"] == 81
    assert m["dense_linalg.tridiag_kth_eigenvalue.calls"] == 3
    assert m["dense_linalg.sweeps_per_eigenvalue"] == pytest.approx(81 / 3)
    assert m["green_spectral.eigenpairs"] == 2
    assert m["green_spectral.inverse_iterations_per_pair"] == pytest.approx(3 / 2)
    # op 1 ran library spans on threads 1, 2, 3; op 2 only on thread 1
    assert m["cli.worker_threads"] == pytest.approx((3 + 1) / 2)
    assert m["cli.report_bytes"] == 1234
    # outermost bisection spans: two kth spans (4 s each) and one eigs_below (2 s)
    assert m["dense_linalg.bisection_s"] == pytest.approx(10.0)
    assert m["green_spectral.qualified_meta_s"] == pytest.approx(8.0)
    assert m["cli.self_s"] == pytest.approx((10 - 0.1 - 8) + (9 - 6.5))
    assert m["green_spectral.verify.self_s"] == pytest.approx(2 * (8 - 4))


def test_ratios_with_zero_base_read_zero():
    m = layer_metrics([span("cli.main", 0.0, 1.0)], report_bytes=0)
    assert m["dense_linalg.sweeps_per_eigenvalue"] == 0.0
    assert m["green_spectral.inverse_iterations_per_pair"] == 0.0
    assert m["cli.worker_threads"] == 0.0
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert ratio(3, 0) == 0.0 and ratio(3, 4) == 0.75


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 21)]
    assert run.tail(xs) == (10.0, 50.0)
    assert run.tail(xs[:11]) == (1.0, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_end_to_end_ratios():
    m = run.end_to_end([2.0, 4.0, 3.0], items_per_pass=6, setup_seconds=[0.3, 0.2, 0.4],
                       peak_rss_kib=2048, attempted=8, failed=2)
    assert m["pass_s.p50"] == 3.0
    assert m["items_per_s"] == pytest.approx(2.0)
    assert m["pass_s.tail"] == 4.0
    assert m["setup_s"] == 0.3
    assert m["peak_rss_mib"] == 2.0
    assert m["failed_frac"] == 0.25
    assert set(m) == set(run.END_TO_END_UNITS)


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == \
        [k for k in tracing.LAYER_UNITS if k not in run.RESULT_LINE_OMITS] \
        + ["trace.overhead_frac"]
    assert {m["name"] for m in bench["end_to_end"]} == \
        set(run.END_TO_END_UNITS) - run.RESULT_LINE_OMITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# wrapping and restoring the library
# ---------------------------------------------------------------------------

def _bindings():
    mods = {k: m for k, m in sys.modules.items()
            if k == "blockjacobi" or k.startswith("blockjacobi.")}
    snap = {(k, key): id(v) for k, m in mods.items() for key, v in vars(m).items()}
    from blockjacobi.dense_linalg import BlockTridiagLU
    from blockjacobi.green_spectral import GreenBlockSet
    for cls in (BlockTridiagLU, GreenBlockSet):
        snap.update({(cls.__name__, key): id(v) for key, v in vars(cls).items()})
    return snap


def test_patch_wraps_every_namespace_and_restores_it():
    import blockjacobi.cli as cli
    import blockjacobi.green_spectral as gs
    from blockjacobi import dense_linalg, operator_model

    before = _bindings()
    original = dense_linalg.spectral_norm
    tracer = Tracer()
    with tracing.Patch(tracer):
        for ns in (dense_linalg, gs, operator_model):
            assert ns.spectral_norm is not original
        assert hasattr(cli.main, "__wrapped__")
        fam = operator_model.parse_family_spec("scalar-free")
        trunc = operator_model.assemble_truncation(fam, 5)
        gs.green_column(trunc, -3.0, 1).norms()
    names = {s.name for s in tracer.spans}
    assert {"operator_model.parse_family_spec", "operator_model.assemble_truncation",
            "operator_model.block_entries", "green_spectral.green_column",
            "dense_linalg.block_tridiag_factor", "dense_linalg.BlockTridiagLU.solve",
            "dense_linalg.spectral_norm", "dense_linalg.hermitian_eig",
            "green_spectral.GreenBlockSet.norms"} <= names
    # block_entries runs inside assemble_truncation: internal calls are traced
    be = next(s for s in tracer.spans if s.name == "operator_model.block_entries")
    assert be.parent.name == "operator_model.assemble_truncation"
    assert _bindings() == before
    assert dense_linalg.spectral_norm is original


def test_patch_restores_after_an_exception():
    import blockjacobi.cli as cli
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Patch(Tracer()):
            assert hasattr(cli.main, "__wrapped__")
            raise RuntimeError("stop")
    assert _bindings() == before
    assert not hasattr(cli.main, "__wrapped__")


def test_a_failing_operation_is_recorded_and_the_pass_goes_on():
    class Cli:
        @staticmethod
        def main(argv):
            if argv[0] == "raise":
                raise ArithmeticError("inverse iteration residual")
            if argv[0] == "exit":
                raise SystemExit(2)
            print("report")
            return 0

    cmds = [{"argv": [a], "outputs": []} for a in ("raise", "exit", "ok")]
    rec = child.run_pass(Cli, cmds, Tracer())
    assert [op["rc"] for op in rec["ops"]] == [1, 2, 0]
    assert "ArithmeticError: inverse iteration residual" in rec["ops"][0]["stderr"]
    assert rec["traced"] and len(rec["ops"]) == 3


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def test_default_seed_is_the_reference_configuration(tmp_path):
    wl = workloads.build("verify_grid", 0, tmp_path)
    assert "--lambda=-2:-0.5:0.5" in wl.commands[0].argv
    assert "--lambda=-2:-1:1" in wl.commands[1].argv
    assert "--lambda=-4:-0.5:0.5" in workloads.build("green_sweep", 0, tmp_path).commands[0].argv
    deep = workloads.build("eigs_deep", 0, tmp_path)
    table = json.loads((tmp_path / "deep_well.json").read_text())
    assert table["blocks"][0]["B"] == [-8.0, 0.0, 0.0, -8.0]
    assert len(table["blocks"]) == 300
    assert deep.commands[0].argv[:3] == ["eigs", "--family", (tmp_path / "deep_well.json").as_posix()]


@pytest.mark.parametrize("seed", [1, 2, 17, 12345])
def test_seeds_jitter_inside_the_checked_ranges(tmp_path, seed):
    from blockjacobi.cli import _parse_lambda
    wl = workloads.build("green_sweep", seed, tmp_path)
    again = workloads.build("green_sweep", seed, tmp_path)
    assert wl.commands[0].argv == again.commands[0].argv
    grid = next(a for a in wl.commands[0].argv if a.startswith("--lambda="))
    lams = [z.real for z in _parse_lambda(grid.split("=", 1)[1])]
    assert len(lams) == 8 and -4.05 <= lams[0] <= -3.95 and lams[-1] <= -0.275
    workloads.build("eigs_deep", seed, tmp_path)
    b1 = json.loads((tmp_path / "deep_well.json").read_text())["blocks"][0]["B"][0]
    assert -8.5 <= b1 <= -7.5
