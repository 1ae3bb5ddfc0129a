"""Span tracer for the benchmark's traced pass.

`Tracer.install()` wraps the public functions of qsym's computational modules
and the LaurentPoly ring operations, and rebinds every name that refers to an
original, in every loaded qsym module and in the package namespace.  That matters
because modules bind each other's functions with `from ... import`: qfun calls
its own `pfaffian`, `determinant`, `enum_qt`, `qt_weight` and
`series_from_linear_factors` names, not linalg's or tableaux's.

Spans live in memory as a call tree and are written out at the end.  All calls
to one function made directly under one parent span share one span record,
which carries the call count, the start of the first call, the end of the
last, the summed duration and the self time (duration minus the time its child
spans cover).  A generator gets one span per call that covers only its next()
steps, plus a yield count, never one span per yield.  Keeping per-parent
aggregates bounds memory: the sweep makes about two million traced calls.

Functions are labelled `<module>.<name>`, ring operations `ring.mul`,
`ring.add`, `ring.sub`, `ring.neg`, `ring.scale` and `ring.embed`, and the
benchmark's own spans `bench.*`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

from qsym import linalg, lgv, qfun, ring, shapes, symfun, tableaux

MODULES = (ring, shapes, linalg, tableaux, symfun, qfun, lgv)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES) + ("bench",)

# Per-monomial or per-letter helpers: called millions of times from inside
# ring and tableau loops, so a wrapper would cost far more than their body.
UNWRAPPED = {"mono_mul", "mono_pow", "term_sort_key", "letter"}

RING_METHODS = {
    "__mul__": "ring.mul",
    "__add__": "ring.add",
    "__sub__": "ring.sub",
    "__neg__": "ring.neg",
    "scale": "ring.scale",
    "embed": "ring.embed",
}

perf = time.perf_counter


class Span:
    __slots__ = (
        "name", "item", "parent", "children", "calls", "yields", "start", "end", "total", "child"
    )

    def __init__(self, name: str, parent: "Span | None", item: str | None = None):
        self.name = name
        self.item = item
        self.parent = parent
        self.children: dict[str, Span] = {}
        self.calls = 0
        self.yields = 0
        self.start = None
        self.end = 0.0
        self.total = 0.0
        self.child = 0.0

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()


class CountingDict(dict):
    """A dict for QContext tables that counts what `get` finds and misses and
    the largest size any one table reached."""

    __slots__ = ("counts",)

    def __init__(self, counts: list[int]):
        super().__init__()
        self.counts = counts  # [hits, misses, max entries], shared by one kind of table

    def get(self, key, default=None):
        if key in self:
            self.counts[0] += 1
            return self[key]
        self.counts[1] += 1
        return default

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if len(self) > self.counts[2]:
            self.counts[2] = len(self)


class Tracer:
    def __init__(self):
        self.root = Span("bench.pass", None)
        self.stack = [self.root]
        self.mul = {"pairs": 0, "terms_out": 0, "mono_s": 0.0}
        self.cache_counts = [0, 0, 0]
        self.row_series_counts = [0, 0, 0]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _child(self, name: str, item: str | None = None) -> Span:
        parent = self.stack[-1]
        key = name if item is None else (name, item)
        span = parent.children.get(key)
        if span is None:
            span = parent.children[key] = Span(name, parent, item)
        return span

    @contextmanager
    def span(self, name: str, item: str | None = None):
        """A span for the benchmark's own code around calls into qsym; one
        with an `item` gets a record of its own instead of a shared one."""
        stack = self.stack
        parent = stack[-1]
        span = self._child(name, item)
        stack.append(span)
        t0 = perf()
        try:
            yield span
        finally:
            t1 = perf()
            stack.pop()
            d = t1 - t0
            span.calls += 1
            span.total += d
            if span.start is None:
                span.start = t0
            span.end = t1
            parent.child += d

    def wrap(self, name: str, fn):
        stack = self.stack
        child = self._child

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                span = child(name)
                span.calls += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        consumer = stack[-1]
                        stack.append(span)
                        t0 = perf()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            t1 = perf()
                            stack.pop()
                            d = t1 - t0
                            span.total += d
                            if span.start is None:
                                span.start = t0
                            span.end = t1
                            consumer.child += d
                        span.yields += 1
                        yield item
                finally:
                    gen.close()

            return functools.update_wrapper(gen_wrapper, fn)

        mul = self.mul if name == "ring.mul" else None

        def wrapper(*args, **kwargs):
            # span() inlined: this runs on every traced call
            parent = stack[-1]
            span = parent.children.get(name)
            if span is None:
                span = parent.children[name] = Span(name, parent)
            stack.append(span)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                span.calls += 1
                span.total += d
                if span.start is None:
                    span.start = t0
                span.end = t1
                parent.child += d
            if mul is not None:
                la, lb = len(args[0].terms), len(args[1].terms)
                mul["pairs"] += la * lb
                mul["terms_out"] += len(out.terms)
                if la == 1 or lb == 1:
                    mul["mono_s"] += d
            return out

        return functools.update_wrapper(wrapper, fn)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; call once, after the workload's inputs are built."""
        wrapped: dict[int, object] = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
        loaded = [m for n, m in sys.modules.items() if n == "qsym" or n.startswith("qsym.")]
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._set(mod, name, w)
        for meth, label in RING_METHODS.items():
            self._set(ring.LaurentPoly, meth, self.wrap(label, vars(ring.LaurentPoly)[meth]))

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    def new_context(self) -> "qfun.QContext":
        return qfun.QContext(
            cache=CountingDict(self.cache_counts),
            row_series=CountingDict(self.row_series_counts),
        )

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-label totals over every span record with that label."""
        out: dict[str, dict[str, float]] = {}
        for s in self.root.walk():
            if s is self.root:
                continue
            agg = out.setdefault(s.name, {"calls": 0, "yields": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += s.calls
            agg["yields"] += s.yields
            agg["total"] += s.total
            agg["self"] += s.total - s.child
        return out

    def write_spans(self, path, t_origin: float) -> int:
        """One JSON object per span record, parents before children; times in
        seconds from `t_origin`.  Returns the number of records written."""
        ids: dict[int, int] = {}
        count = 0
        with open(path, "w") as fh:
            for s in self.root.walk():
                ids[id(s)] = count
                rec = {
                    "id": count,
                    "parent": ids[id(s.parent)] if s.parent is not None else None,
                    "name": s.name,
                    "item": s.item,
                    "calls": s.calls,
                    "yields": s.yields,
                    "start": None if s.start is None else round(s.start - t_origin, 6),
                    "end": round(s.end - t_origin, 6) if s.start is not None else None,
                    "dur": round(s.total, 6),
                    "self": round(s.total - s.child, 6),
                }
                fh.write(json.dumps(rec) + "\n")
                count += 1
        return count


def _sum(agg, labels, field):
    return sum(agg.get(label, {}).get(field, 0) for label in labels)


# metric -> (field, labels); field "self" and "total" are seconds.
SPAN_METRICS = {
    "ring.mul.calls": ("calls", ["ring.mul"]),
    "ring.mul.self_s": ("self", ["ring.mul"]),
    "ring.add.self_s": ("self", ["ring.add"]),
    "ring.series.self_s": ("self", ["ring.series_from_linear_factors"]),
    "ring.embed.self_s": ("self", ["ring.embed"]),
    "linalg.pfaffian.calls": ("calls", ["linalg.pfaffian"]),
    "linalg.pfaffian.self_s": ("self", ["linalg.pfaffian"]),
    "linalg.determinant.self_s": ("self", ["linalg.determinant"]),
    "tableaux.enum_qt.self_s": ("self", ["tableaux.enum_qt"]),
    "tableaux.enum_qt.yielded": ("yields", ["tableaux.enum_qt"]),
    "tableaux.qt_weight.self_s": ("self", ["tableaux.qt_weight"]),
    "tableaux.enum_spt.self_s": ("self", ["tableaux.enum_spt"]),
    "tableaux.enum_spt.yielded": ("yields", ["tableaux.enum_spt"]),
    "lgv.enum_path_families.self_s": ("self", ["lgv.enum_path_families"]),
    "lgv.families": ("yields", ["lgv.enum_path_families"]),
    "lgv.family_weight.self_s": ("self", ["lgv.family_weight"]),
    "symfun.complete_h.calls": ("calls", ["symfun.complete_h"]),
    "symfun.schur_skew.self_s": ("self", ["symfun.schur_skew"]),
    "symfun.symp_schur_on.self_s": ("self", ["symfun.symp_schur_on"]),
    "qfun.route.definition.s": ("total", ["bench.route.definition"]),
    "qfun.route.tableau.s": ("total", ["bench.route.tableau"]),
    "qfun.route.branch.s": ("total", ["bench.route.branch"]),
    "qfun.route.pfaffian.s": ("total", ["bench.route.pfaffian"]),
    "lgv.route.s": ("total", ["bench.route.lgv"]),
    "symfun.route.definition.s": ("total", ["bench.route.inter_schur.definition"]),
    "symfun.route.tableau.s": ("total", ["bench.route.inter_schur.tableau"]),
    "qfun.q_row.self_s": ("self", ["qfun.q_row"]),
    "qfun.two_row.self_s": ("self", ["qfun.qA_two_row", "qfun.qC_two_row"]),
    "shapes.enum_strict_between.calls": ("calls", ["shapes.enum_strict_between"]),
    "shapes.enum_strict_between.self_s": ("self", ["shapes.enum_strict_between"]),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the traced pass, by name."""
    agg = tracer.aggregate()
    out = {name: _sum(agg, labels, field) for name, (field, labels) in SPAN_METRICS.items()}
    mul_s = out["ring.mul.self_s"]
    out["ring.mul.term_pairs"] = tracer.mul["pairs"]
    out["ring.mul.terms_out"] = tracer.mul["terms_out"]
    out["ring.mul.mono_share"] = tracer.mul["mono_s"] / mul_s if mul_s else 0.0
    hits, misses, entries = tracer.cache_counts
    out["qfun.cache.hits"] = hits
    out["qfun.cache.misses"] = misses
    out["qfun.cache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    out["qfun.cache.entries"] = entries
    out["qfun.row_series.hits"], out["qfun.row_series.misses"], _ = tracer.row_series_counts
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            a["self"] for label, a in agg.items() if label.split(".", 1)[0] == layer
        )
    return out
