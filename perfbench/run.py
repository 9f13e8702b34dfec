"""blockjacobi benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload verify_grid --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; `--workload all` runs the three
workloads one after the other, each with its own output block.  The workload's CLI invocations run
in one fresh child interpreter (PYTHONPATH=src, BJB_THREADS removed so the
default lambda-grid pool is measured as users get it).  Set-up time is
measured in separate fresh interpreters.  After the child exits its outputs
are checked against numpy oracles, outside any timed region.

Prints the metrics by name and unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Everything
the run produces goes under .bench_out/<workload>/, including result.json
with the machine description and, for traced runs, spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_RUNS = 5  # before and again after the workload process
TAIL_BEYOND = 10
# the child stops starting passes at --seconds; the slack covers its
# start-up, warm-up and the pass that may run past the budget
CHILD_SLACK_S = 60.0
SETUP_CODE = ("import sys\nimport blockjacobi.cli\n"
              "from blockjacobi.operator_model import parse_family_spec\n"
              "for spec in sys.argv[1:]:\n    parse_family_spec(spec)\n")

END_TO_END_UNITS = {"items_per_s": "1/s", "pass_s.p50": "s", "pass_s.tail": "s",
                    "setup_s": "s", "peak_rss_mib": "MiB", "failed_frac": "frac"}
# Printed by name but kept off the result line, whose metrics are ranked
# better or worse.  failed_frac is 0 on a correct run; the result line
# carries it as attempted/failed.  report bytes and eigenpairs delivered are
# invariants, not goals: any change in them is a failure, which the
# byte-identity and eigvalsh checks catch within a run.
RESULT_LINE_OMITS = {"failed_frac", "cli.report_bytes", "green_spectral.eigenpairs"}


def tail(samples) -> tuple[float, float]:
    """(value, percentile): the highest percentile of `samples` that has at
    least TAIL_BEYOND samples above it; the maximum (percentile 100) when
    there are too few samples for that."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(pass_seconds, items_per_pass, setup_seconds, peak_rss_kib,
               attempted, failed) -> dict:
    """End-to-end metric values; every ratio names its base in the argument."""
    p50 = statistics.median(pass_seconds)
    return {"items_per_s": tracing.ratio(items_per_pass, p50),
            "pass_s.p50": p50,
            "pass_s.tail": tail(pass_seconds)[0],
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mib": peak_rss_kib / 1024.0,
            "failed_frac": tracing.ratio(failed, attempted)}


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("BJB_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(specs, env, runs: int) -> list:
    """Wall times of `runs` fresh interpreters that import the CLI and parse
    the workload's family specs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *specs], env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def judge(wl, passes) -> tuple[int, int, int, list]:
    """(attempted, failed, items per pass, problems) over every operation of
    every pass.

    An operation fails on a nonzero exit code, on output bytes that differ
    from the first pass's, or when the first pass's output fails its
    oracle.  The files on disk are the last pass's, which equal the first
    pass's wherever no byte mismatch is reported."""
    problems = []
    bad_reference = []
    items = 0
    for cmd in wl.commands:
        try:
            found, n = oracle.check(cmd.check, cmd.outputs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found, n = [f"unreadable output: {exc!r}"], 0
        if cmd.check.get("items", True):
            items += n
        problems += [f"{cmd.argv[0]}: {p}" for p in found]
        bad_reference.append(bool(found))
    attempted = failed = 0
    reference = [op["digest"] for op in passes[0]["ops"]]
    for i, rec in enumerate(passes):
        for j, op in enumerate(rec["ops"]):
            attempted += 1
            why = []
            if op["rc"] != 0:
                why.append(f"exit code {op['rc']}: {op['stderr'].strip()[-300:]}")
            if op["digest"] != reference[j]:
                why.append("report bytes differ from the first pass"
                           + (" (traced pass)" if rec["traced"] else ""))
            if bad_reference[j]:
                why.append("output failed its check")
            if why:
                failed += 1
                problems += [f"pass {i} {wl.commands[j].argv[0]}: {w}" for w in why]
    return attempted, failed, items, problems


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path) -> int:
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = workloads.build(name, seed, out)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(wl.to_json(), indent=1), encoding="utf-8")
    env = child_env(root)

    measure_setup(wl.setup_specs, env, 1)  # byte-compiles src on a fresh checkout
    setup = measure_setup(wl.setup_specs, env, SETUP_RUNS)
    child_result = out / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--spec", str(spec_path),
           "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(child_result), "--spans", str(out / "spans.jsonl")]
    timeout = 2 * seconds + CHILD_SLACK_S
    with open(out / "child.log", "w", encoding="utf-8") as log:
        try:
            rc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                timeout=timeout).returncode
            why = f"workload process exited with {rc}"
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            rc, why = -1, f"workload process still running after {timeout:g} s"
    if rc != 0:
        print(f"error: {why}; see {out / 'child.log'}", file=sys.stderr)
        n = len(wl.commands)
        print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}))
        return 1
    setup += measure_setup(wl.setup_specs, env, SETUP_RUNS)
    res = json.loads(child_result.read_text(encoding="utf-8"))
    passes = res["passes"]

    attempted, failed, items, problems = judge(wl, passes)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    e2e = end_to_end(untraced, items, setup, res["peak_rss_kib"], attempted, failed)
    info = {**machine(), "python": res["python"], "numpy": res["numpy"]}

    print(f"workload {name}  seed {seed}  "
          f"{len(passes)} passes x {len(wl.commands)} commands  trace {trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    tail_pct = tail(untraced)[1]
    notes = {"items_per_s": f"{items} items per pass / pass_s.p50",
             "pass_s.p50": f"n={len(untraced)}",
             "pass_s.tail": f"p{tail_pct:.1f}, n={len(untraced)}"
                            + (" (too few samples: maximum)" if tail_pct == 100.0 else ""),
             "setup_s": f"median of {len(setup)} fresh interpreters",
             "peak_rss_mib": "workload process",
             "failed_frac": f"{failed} of {attempted} operations"}
    for metric, unit in END_TO_END_UNITS.items():
        print(f"  {metric:<16} {e2e[metric]:.6g} {unit:<5} ({notes[metric]})")
    if trace:
        units = {**tracing.LAYER_UNITS, "trace.overhead_frac": "frac"}
        metrics = {k: (v, units[k]) for k, v in res["layers"].items()}
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<46} {value:.6g} {unit}")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    metrics = {k: v for k, v in metrics.items() if k not in RESULT_LINE_OMITS}

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": info, "attempted": attempted,
              "failed": failed, "problems": problems, "end_to_end": e2e,
              "pass_seconds": untraced, "setup_seconds": setup,
              "tail_percentile": tail_pct, "layers": res.get("layers")}
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and items > 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blockjacobi" / "cli.py").is_file():
        print("error: run from the root of a blockjacobi checkout "
              "(src/blockjacobi/cli.py not found)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(n, args.seed, args.seconds, args.trace, root) for n in names)


if __name__ == "__main__":
    sys.exit(main())
