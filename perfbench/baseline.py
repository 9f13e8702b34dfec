"""Records the benchmark's baseline point in perfbench/baseline.json.

    python3 perfbench/baseline.py

Run from the root of a checkout; it takes about as long as 2 x 10 untraced
runs of every workload.  The file holds:

* `workloads`: two sets of untraced runs (seeds 1..10 each, made one after
  the other by spread.run_set), per end-to-end metric the ten values, their
  median, quartiles and IQR/median per set, and set2_vs_set1, the relative
  difference of the two medians;
* `traced`: the per-layer metrics of one --trace 1 run per workload, seed 0;
* `reanchor_check`: single-threaded, untraced timings of one green verify
  and one inertia sweep at N=300, beside the ROADMAP re-anchor figures.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

import spread
import tracing

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10
ROADMAP = {"verify_green_decay_s": 0.93, "inertia_sweep_ms": 13.0}
REANCHOR_CODE = """
import json, statistics, time
import blockjacobi as bj
from blockjacobi.dense_linalg import tridiag_count_below
fam = bj.parse_family_spec("st:s=2,t=2,alpha=0.6")
p = bj.BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1)
ts = []
for _ in range(3):
    t0 = time.perf_counter()
    bj.verify_green_decay(fam, p, N=300, k=1)
    ts.append(time.perf_counter() - t0)
tr = bj.assemble_truncation(fam, 300)
cs = []
for _ in range(30):
    t0 = time.perf_counter()
    tridiag_count_below(tr, -0.5)
    cs.append(time.perf_counter() - t0)
print(json.dumps({"verify_green_decay_s": statistics.median(ts),
                  "inertia_sweep_ms": 1e3 * statistics.median(cs)}))
"""


def reanchor() -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    out = subprocess.run([sys.executable, "-c", REANCHOR_CODE], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    measured = json.loads(out)
    return {"how": "untraced, single thread, in-process: median of 3 "
                   "verify_green_decay(st s=2,t=2,alpha=0.6, lambda=-1, N=300, k=1) "
                   "and of 30 tridiag_count_below(N=300, -0.5)",
            **{f"roadmap_{k}": v for k, v in ROADMAP.items()},
            **{f"measured_{k}": v for k, v in measured.items()}}


def traced(workload: str) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "0", "--seconds", str(spread.bench()["run_seconds"]),
                    "--trace", "1"], check=True, stdout=subprocess.DEVNULL, timeout=900)
    return json.loads(Path(".bench_out", workload, "result.json").read_text(encoding="utf-8"))


def main() -> int:
    bench = spread.bench()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [spread.run_set(names, RUNS) for _ in range(SETS)]
    workloads = {}
    for wl in names:
        metrics = {}
        for name in sets[0][wl]["metrics"]:
            entry = {"bound": bounds[name]}
            for i, s in enumerate(sets, 1):
                entry[f"set{i}"] = s[wl]["metrics"][name]
            for i in range(2, SETS + 1):
                entry[f"set{i}_vs_set1"] = (entry[f"set{i}"]["median"]
                                           / entry["set1"]["median"] - 1.0)
            metrics[name] = entry
        workloads[wl] = {"metrics": metrics,
                         "attempted": sum(s[wl]["attempted"] for s in sets),
                         "failed": sum(s[wl]["failed"] for s in sets)}
    results = {wl: traced(wl) for wl in names}
    check = reanchor()
    vg, ed = (results[wl]["layers"] for wl in ("verify_grid", "eigs_deep"))
    check["traced_inertia_sweep_ms_eigs_deep"] = 1e3 * tracing.ratio(
        ed["dense_linalg.tridiag_count_below.s"], ed["dense_linalg.tridiag_count_below.calls"])
    check["traced_verify_green_decay_s_per_call_on_pool"] = tracing.ratio(
        vg["green_spectral.verify_green_decay.s"], vg["green_spectral.verify_green_decay.calls"])
    out = {
        "about": __doc__.split("\n\n", 2)[2].strip(),
        "date": datetime.date.today().isoformat(),
        "machine": results[names[0]]["machine"],
        "run_seconds": bench["run_seconds"],
        "workloads": workloads,
        "traced": {wl: {k: r[k] for k in ("attempted", "failed", "layers")}
                   for wl, r in results.items()},
        "reanchor_check": check,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
