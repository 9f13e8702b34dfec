"""Span tracing of blockjacobi from outside the package.

`Patch` wraps the public functions in TARGETS in every module namespace of
the package that binds them (plus two methods), so calls made from inside
the package are recorded too; `Patch.restore` puts every original back.
Each call records a `Span`: name, start, end, parent and thread.  A span
started on a thread with no open span (a CLI pool thread) is parented to
the operation that is open, so work fanned out by `cli.main` stays under
it.  `layer_metrics` turns the spans of one pass into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "blockjacobi"

# (module, attribute); a dotted attribute is a method of a class
TARGETS = (
    ("cli", "main"),
    ("operator_model", "parse_family_spec"),
    ("operator_model", "assemble_truncation"),
    ("operator_model", "block_entries"),
    ("dense_linalg", "block_tridiag_factor"),
    ("dense_linalg", "BlockTridiagLU.solve"),
    ("dense_linalg", "spectral_norm"),
    ("dense_linalg", "hermitian_eig"),
    ("dense_linalg", "psd_matfunc"),
    ("dense_linalg", "tridiag_apply"),
    ("dense_linalg", "tridiag_count_below"),
    ("dense_linalg", "tridiag_kth_eigenvalue"),
    ("dense_linalg", "tridiag_eigs_below"),
    ("dense_linalg", "tridiag_inverse_iteration"),
    ("bounds", "scalar_envelope"),
    ("bounds", "check_pairwise_commutation"),
    ("bounds", "qualified_constant"),
    ("green_spectral", "green_column"),
    ("green_spectral", "GreenBlockSet.norms"),
    ("green_spectral", "eigenpairs_below"),
    ("green_spectral", "verify_green_decay"),
    ("green_spectral", "verify_commuting_decay"),
    ("green_spectral", "verify_eigenvector_decay"),
)

# spans that keep a number derived from the call's result
NOTES = {"green_spectral.eigenpairs_below": len}

BISECTION = {"dense_linalg.tridiag_eigs_below", "dense_linalg.tridiag_kth_eigenvalue"}
VERIFY = ("green_spectral.verify_green_decay", "green_spectral.verify_commuting_decay",
          "green_spectral.verify_eigenvector_decay")

# per-layer metric -> unit, in report order; values are per pass.  ".s" is
# the summed wall time of a function's spans, so where the CLI pool runs
# spans side by side the sum can exceed the pass time.
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.worker_threads": "threads/op",
    "cli.report_bytes": "bytes",
    "operator_model.parse_family_spec.s": "s",
    "operator_model.assemble_truncation.calls": "count",
    "operator_model.assemble_truncation.s": "s",
    "operator_model.block_entries.calls": "count",
    "operator_model.block_entries.s": "s",
    "dense_linalg.block_tridiag_factor.calls": "count",
    "dense_linalg.block_tridiag_factor.self_s": "s",
    "dense_linalg.BlockTridiagLU.solve.calls": "count",
    "dense_linalg.BlockTridiagLU.solve.s": "s",
    "dense_linalg.spectral_norm.calls": "count",
    "dense_linalg.spectral_norm.s": "s",
    "dense_linalg.tridiag_count_below.calls": "count",
    "dense_linalg.tridiag_count_below.s": "s",
    "dense_linalg.tridiag_kth_eigenvalue.calls": "count",
    "dense_linalg.sweeps_per_eigenvalue": "sweeps/eig",
    "dense_linalg.bisection_s": "s",
    "dense_linalg.tridiag_inverse_iteration.calls": "count",
    "dense_linalg.tridiag_inverse_iteration.s": "s",
    "dense_linalg.tridiag_apply.calls": "count",
    "dense_linalg.tridiag_apply.s": "s",
    "dense_linalg.hermitian_eig.calls": "count",
    "dense_linalg.hermitian_eig.s": "s",
    "dense_linalg.psd_matfunc.calls": "count",
    "dense_linalg.psd_matfunc.s": "s",
    "bounds.scalar_envelope.calls": "count",
    "bounds.scalar_envelope.s": "s",
    "bounds.check_pairwise_commutation.calls": "count",
    "bounds.check_pairwise_commutation.s": "s",
    "bounds.qualified_constant.calls": "count",
    "green_spectral.green_column.calls": "count",
    "green_spectral.green_column.self_s": "s",
    "green_spectral.GreenBlockSet.norms.s": "s",
    "green_spectral.verify_green_decay.calls": "count",
    "green_spectral.verify_green_decay.s": "s",
    "green_spectral.qualified_meta_s": "s",
    "green_spectral.eigenpairs_below.calls": "count",
    "green_spectral.eigenpairs_below.self_s": "s",
    "green_spectral.eigenpairs": "count",
    "green_spectral.inverse_iterations_per_pair": "iters/pair",
    "green_spectral.verify.self_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "note")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.note = None

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


class Tracer:
    """Records spans in memory; safe to call from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._op: Span | None = None  # the open top-level span

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._op
        span = Span(name, time.perf_counter(), parent, threading.get_ident())
        if parent is None:
            self._op = span
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span is self._op:
            self._op = None

    def wrap(self, fn, name: str, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                span.note = note(result)
            return result
        return traced


class Patch:
    """Context manager installing `tracer` wrappers for TARGETS."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, attr in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original,
                          self.tracer.wrap(original, name, NOTES.get(name)))
                continue
            original = getattr(home, attr)
            wrapper = self.tracer.wrap(original, name, NOTES.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)

    def _set(self, owner, key, original, wrapper) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """id(span) -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): (s.end - s.start) - covered(s.start, s.end, children[id(s)])
            for s in spans}


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the base is 0 (the metric did not occur)."""
    return num / den if den else 0.0


def layer_metrics(spans, report_bytes: int) -> dict:
    """Per-layer metrics of one pass from its spans."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def incl(name):
        return sum(s.end - s.start for s in by_name[name])

    def excl(*names):
        return sum(own[id(s)] for n in names for s in by_name[n])

    outer_bisection = [s for n in BISECTION for s in by_name[n]
                       if not any(a.name in BISECTION for a in s.ancestors())]
    under_verify = {"green_spectral.verify_green_decay",
                    "green_spectral.verify_commuting_decay"}
    threads = defaultdict(set)
    for s in spans:
        *_, root = (s, *s.ancestors())
        if root is not s and root.name == "cli.main":
            threads[id(root)].add(s.thread)
    pairs = sum(s.note or 0 for s in by_name["green_spectral.eigenpairs_below"])
    pair_iterations = sum(
        1 for s in by_name["dense_linalg.tridiag_inverse_iteration"]
        if any(a.name == "green_spectral.eigenpairs_below" for a in s.ancestors()))

    m = {
        "cli.self_s": excl("cli.main"),
        "cli.worker_threads": ratio(sum(len(t) for t in threads.values()),
                                    calls("cli.main")),
        "cli.report_bytes": report_bytes,
        "operator_model.parse_family_spec.s": incl("operator_model.parse_family_spec"),
        "dense_linalg.block_tridiag_factor.self_s": excl("dense_linalg.block_tridiag_factor"),
        "dense_linalg.sweeps_per_eigenvalue": ratio(
            calls("dense_linalg.tridiag_count_below"),
            calls("dense_linalg.tridiag_kth_eigenvalue")),
        "dense_linalg.bisection_s": sum(s.end - s.start for s in outer_bisection),
        "green_spectral.green_column.self_s": excl("green_spectral.green_column"),
        "green_spectral.qualified_meta_s": sum(
            s.end - s.start for s in outer_bisection
            if any(a.name in under_verify for a in s.ancestors())),
        "green_spectral.eigenpairs_below.self_s": excl("green_spectral.eigenpairs_below"),
        "green_spectral.eigenpairs": pairs,
        "green_spectral.inverse_iterations_per_pair": ratio(pair_iterations, pairs),
        "green_spectral.verify.self_s": excl(*VERIFY),
    }
    for key in LAYER_UNITS:
        if key in m:
            continue
        name, _, stat = key.rpartition(".")
        m[key] = calls(name) if stat == "calls" else incl(name)
    return {key: m[key] for key in LAYER_UNITS}
