"""Spans and counters recorded around calls into monkeytyper's public functions.

The tracer patches names from the outside, on every module where a caller
looks them up (``cli.build_projection_table`` as well as
``analysis.build_projection_table``), and restores them when it is closed.
Nothing inside ``src/`` is edited. Spans are kept in memory as
``(name, start_ns, end_ns, parent)`` and written out once, at the end of the
run. A span's self time is its duration minus the time its child spans cover.

Traced runs are single-threaded (``worker_count=1``): the span stack is one
list, not one per thread.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import MODULES

# Span names grouped by layer. Each entry is (span name, owner path, attribute);
# an owner path names a module (patched on every module that imported the same
# object) or a class (patched once, on the class).
TRACED = [
    ("simulate.run_experiment", "simulate", "run_experiment"),
    ("simulate.run_prefix_trial", "simulate", "run_prefix_trial"),
    ("simulate.derive_trial_seed", "simulate", "derive_trial_seed"),
    ("simulate.RngStream.setup", "simulate.RngStream", "__init__"),
    ("simulate.draw_codes", "simulate.RngStream", "draw_codes"),
    ("model.MeasurementTable.from_trials", "model.MeasurementTable", "from_trials"),
    ("model.ProjectionTable.to_csv", "model.ProjectionTable", "to_csv"),
    ("model.ProjectionTable.to_json_rows", "model.ProjectionTable", "to_json_rows"),
    ("scaled.scaled_int_pow", "scaled", "scaled_int_pow"),
    ("scaled.ScaledDecimal", "scaled.ScaledDecimal", "__mul__"),
    ("scaled.ScaledDecimal", "scaled.ScaledDecimal", "__rmul__"),
    ("scaled.ScaledDecimal", "scaled.ScaledDecimal", "__truediv__"),
    ("scaled.ScaledDecimal", "scaled.ScaledDecimal", "to_string"),
    ("scaled.ScaledDecimal", "scaled.ScaledDecimal", "log10"),
    ("analysis.fit_growth_model", "analysis", "fit_growth_model"),
    ("analysis.build_projection_table", "analysis", "build_projection_table"),
    ("analysis.success_probability", "analysis", "success_probability"),
    ("analysis.expected_attempts", "analysis", "expected_attempts"),
    ("analysis.corpus_census", "analysis", "corpus_census"),
    ("analysis.log10_series", "analysis", "log10_series"),
    ("data.published_averages", "data", "published_averages"),
    ("data.hamlet_soliloquy", "data", "hamlet_soliloquy"),
    ("cli.main", "cli", "main"),
]

# Span that the benchmark opens around each workload operation.
OP_SPAN = "bench.op"


class Tracer:
    """Patches the traced names on entry and restores them on exit."""

    def __init__(self, package):
        self._package = package
        self._modules = {name: getattr(package, name) for name in MODULES}
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _counted(self, name: str, fn):
        """Layer-specific counters, recorded inside the layer's span."""
        counts = self.counts
        if name == "simulate.draw_codes":

            def draw_codes(rng, count, bound):
                counts["symbols"] += count
                return fn(rng, count, bound)

            return draw_codes
        if name == "simulate.run_prefix_trial":

            def run_prefix_trial(*args, **kwargs):
                prefix_length = args[1] if len(args) > 1 else kwargs["prefix_length"]
                before = counts["symbols"]
                record = fn(*args, **kwargs)
                counts["rows_drawn"] += (counts["symbols"] - before) // prefix_length
                counts["attempts"] += record.attempts
                return record

            return run_prefix_trial
        return fn

    def __enter__(self) -> "Tracer":
        for name, owner_path, attr in TRACED:
            module_name, _, class_name = owner_path.partition(".")
            if class_name:
                owner = getattr(self._modules[module_name], class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, self._counted(name, raw.__func__)))
                else:
                    wrapped = self.wrap(name, self._counted(name, raw))
                self._set(owner, attr, wrapped)
                continue
            original = getattr(self._modules[module_name], attr)
            wrapped = self.wrap(name, self._counted(name, original))
            for module in (self._package, *self._modules.values()):
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def op(self, fn, *args, **kwargs):
        """Run one workload operation under the ``bench.op`` span."""
        return self.wrap(OP_SPAN, fn)(*args, **kwargs)

    # -- results -----------------------------------------------------------

    def calls_and_self_seconds(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per span name.

        Self time is the span's duration minus the part of it that child
        spans cover; children of one span never overlap in a single thread.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_ns: dict[str, int] = defaultdict(int)
        for (name_id, start, end, _), child_ns in zip(self.spans, covered):
            name = self._names[name_id]
            calls[name] += 1
            self_ns[name] += end - start - child_ns
        return calls, {name: ns / 1e9 for name, ns in self_ns.items()}

    def write_spans(self, path: Path) -> None:
        """Write every span as gzipped CSV: ``name,start_ns,end_ns,parent``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent\n")
            names = self._names
            for name_id, start, end, parent in self.spans:
                out.write(f"{names[name_id]},{start},{end},{parent}\n")
