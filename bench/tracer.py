"""In-memory spans and counters around calls into the package's layers.

A traced pass replaces public functions of the package by wrappers, by module
attribute, in every package module that holds them (so `gram.shape_gram`'s
internal call to `build_basis` is traced too), and restores them afterwards.
Each span is (name, label, start, end, parent); spans of one pass share the
tracer's run id. A layer's self time is its spans' durations minus the part
covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (module, attribute, span name); the span name before "_s" is the metric name.
SPANS = (
    ("types", "smallest_m_of_type", "types.corpus"),
    ("field", "sextic_field", "field.sextic_field"),
    ("basis", "build_basis", "basis.build_basis"),
    ("gram", "gram6", "gram.gram6"),
    ("densities", "integrate_measure", "densities.integrate_measure"),
    ("densities", "n2_count", "densities.n2_count"),
    ("densities", "n3_count", "densities.n3_count"),
    ("densities", "m2_count", "densities.m2_count"),
    ("densities", "m3_count", "densities.m3_count"),
    ("densities", "euler_product", "densities.euler_product"),
    ("harness", "compare", "harness.compare_self"),
)
# Spans labelled by ladder point, whose results are kept for counting.
LADDER_SPANS = (
    ("harness", "enumerate_C", "harness.enumerate_C", lambda spec, *a, **k: spec.N),
    ("harness", "enumerate_T", "harness.enumerate_T", lambda spec, *a, **k: spec.N),
    ("harness", "raw_count_C", "geometry.raw_count_C", lambda N, *a, **k: N),
    ("harness", "raw_count_T", "geometry.raw_count_T", lambda N, *a, **k: N),
)
# (module, attribute, counter, increment) for calls counted without a span.
COUNTERS = (
    ("densities", "n_table", "densities.table_lookups", 2),  # one mod-64 and one mod-243 table
    ("densities", "m_table", "densities.table_lookups", 2),
)
MODULES = ("algebra", "basis", "densities", "field", "general", "geometry", "gram",
           "harness", "types")


class Tracer:
    def __init__(self, run_id: str, labels: dict[int, str] | None = None):
        self.run_id = run_id
        self.labels = labels or {}
        self.spans: list[list] = []      # [name, label, start, end, parent index]
        self.counts: Counter = Counter()
        self.results: dict[tuple[str, str], object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, label: str = "", **kwargs):
        """Run fn inside a span."""
        rec = [name, label, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    # -- installing wrappers -------------------------------------------------

    def _patch(self, pkg, module: str, attr: str, wrapper_of) -> None:
        original = getattr(getattr(pkg, module), attr)
        wrapper = wrapper_of(original)
        for name in MODULES:
            mod = getattr(pkg, name)
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, pkg) -> None:
        for module, attr, name in SPANS:
            self._patch(pkg, module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for module, attr, name, key in LADDER_SPANS:
            self._patch(pkg, module, attr,
                        lambda fn, name=name, key=key: self._ladder_wrapper(name, fn, key))
        for module, attr, name, step in COUNTERS:
            self._patch(pkg, module, attr,
                        lambda fn, name=name, step=step: self._count_wrapper(name, fn, step))
        sextic = pkg.algebra.SexticNum
        original = sextic.char_poly
        self._patches.append((sextic, "char_poly", original))
        sextic.char_poly = self._count_wrapper("algebra.char_poly_calls", original, 1)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _ladder_wrapper(self, name, fn, key):
        def wrapper(*args, **kwargs):
            label = self.labels.get(key(*args, **kwargs), "")
            out = self.call(name, fn, *args, label=label, **kwargs)
            self.results[(name, label)] = out
            return out
        return wrapper

    def _count_wrapper(self, name, fn, step):
        def wrapper(*args, **kwargs):
            self.counts[name] += step
            return fn(*args, **kwargs)
        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per metric name (span name + "_s" [+ "." + label])."""
        covered = [0.0] * len(self.spans)
        for name, label, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, label, start, end, _), child in zip(self.spans, covered):
            key = f"{name}_s" + (f".{label}" if label else "")
            out[key] = out.get(key, 0.0) + (end - start - child)
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines: run id, index, name, label, start, end, parent."""
        with open(path, "w") as fh:
            for i, (name, label, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name, "label": label,
                                     "start": start, "end": end, "parent": parent}) + "\n")
