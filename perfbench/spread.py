"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workloads verify_grid,...]

Runs perfbench/run.py once per seed (1..runs) for each workload, from the
root of a checkout, for BENCHMARK.json's run_seconds, and prints for every
end-to-end metric the median of the runs and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound.  perfbench/baseline.py records two such
sets as the baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med,
            "values": values}


def run_set(workloads, runs: int) -> dict:
    """{workload: {"metrics": {name: stats}, "attempted", "failed"}} over
    seeds 1..runs; raises RuntimeError when a run fails or is incorrect."""
    spec = bench()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for wl in workloads:
        lines = []
        for seed in range(1, runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not line.get("correct"):
                raise RuntimeError(f"{wl} seed {seed} failed:\n{proc.stderr}")
            lines.append(line)
            print(f"{wl} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
                  flush=True)
        metrics = {name: stats([ln["metrics"][name]["value"] for ln in lines])
                   for name in lines[0]["metrics"]}
        for name, s in metrics.items():
            print(f"  {wl:<12} {name:<14} median {s['median']:.5g}  "
                  f"iqr/median {s['iqr_frac']:.4f}  bound {bounds[name]}", flush=True)
        report[wl] = {"metrics": metrics,
                      "attempted": sum(ln["attempted"] for ln in lines),
                      "failed": sum(ln["failed"] for ln in lines)}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench()["workloads"]))
    args = ap.parse_args(argv)
    try:
        run_set(args.workloads.split(","), args.runs)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
