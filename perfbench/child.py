"""Runs one workload's passes in-process through blockjacobi.cli.main.

Started by run.py in a fresh interpreter with PYTHONPATH=src.  It warms
the CLI up, then repeats the pass until the next one would overrun the
time budget, timing only the calls into main().  With --trace, untraced
and traced passes alternate; spans are kept in memory and written out when
the run ends.  The result (per-pass times, exit codes, output digests, peak
RSS, per-layer metrics) goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing


def call_main(cli, argv) -> tuple[int, str]:
    """(exit code, stderr) of cli.main(argv).  An exception that escapes
    main counts as exit code 1 with its traceback on stderr, so the
    operation is judged failed and the run goes on."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, err.getvalue()


def run_pass(cli, commands, tracer=None) -> dict:
    ops = []
    with tracing.Patch(tracer) if tracer else contextlib.nullcontext():
        for cmd in commands:
            t0 = time.perf_counter()
            rc, err = call_main(cli, cmd["argv"])
            dt = time.perf_counter() - t0
            ops.append({"rc": rc, "seconds": dt, "stderr": err[-4000:]})
    for op, cmd in zip(ops, commands):
        digest = hashlib.sha256()
        size = 0
        for path in cmd["outputs"]:
            data = Path(path).read_bytes() if Path(path).is_file() else b""
            digest.update(len(data).to_bytes(8, "little") + data)
            size += len(data)
        op["digest"], op["bytes"] = digest.hexdigest(), size
    return {"traced": tracer is not None,
            "seconds": sum(op["seconds"] for op in ops), "ops": ops}


def write_spans(path: Path, traced_spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p, spans in enumerate(traced_spans):
            ids = {id(s): i for i, s in enumerate(spans)}
            for i, s in enumerate(spans):
                parent = -1 if s.parent is None else ids[id(s.parent)]
                fh.write(json.dumps([p, i, parent, s.name, s.thread,
                                     s.start, s.end]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    import blockjacobi.cli as cli
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"blockjacobi imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1
    import numpy

    for argv_warm in spec["warm"]:
        call_main(cli, argv_warm)  # a failure here shows again in the passes

    passes, traced_spans, layers = [], [], []
    t_begin = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if args.trace and len(passes) % 2 == 1 else None
        rec = run_pass(cli, spec["commands"], tracer)
        passes.append(rec)
        if tracer is not None:
            layers.append(tracing.layer_metrics(
                tracer.spans, sum(op["bytes"] for op in rec["ops"])))
            traced_spans.append(tracer.spans)
        elapsed = time.perf_counter() - t_begin
        if args.trace and len(passes) < 2:
            continue
        if elapsed + max(p["seconds"] for p in passes[-2:]) > args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"passes": passes, "peak_rss_kib": peak_kib,
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.trace:
        merged = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        untraced = statistics.median(p["seconds"] for p in passes if not p["traced"])
        traced = statistics.median(p["seconds"] for p in passes if p["traced"])
        merged["trace.overhead_frac"] = tracing.ratio(traced, untraced) - 1.0
        result["layers"] = merged
        write_spans(Path(args.spans), traced_spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
