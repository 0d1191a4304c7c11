"""Spans and counters recorded around the package's public functions.

``Tracer.install`` replaces each listed function in every ``hyperflow``
module namespace that holds it (``flow.hyperbolic_flow``,
``scenario.hyperbolic_flow`` and ``oracle.hyperbolic_flow`` are separate
bindings) with a wrapper, and ``uninstall`` puts the originals back.  A
span records its name, start, end, parent span and thread.  Spans are kept
in per-thread arrays while the program runs.

``parallel_map`` runs its callable on pool threads; the wrapper hands its
own span to those threads as their parent, so a layer's self time (its
duration minus the union of its children's intervals) also works across
threads: for ``parallel_map`` it is pool overhead plus waiting.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# functions that get a span, by defining module
SPANNED = {
    "cli": ("main",),
    "scenario": ("run_scenario", "run_invariant_battery", "parallel_map"),
    "oracle": (
        "isoparametric_residual",
        "transport_normal_frame",
        "pde_residual",
        "numeric_mean_curvature",
        "principal_curvatures",
        "evolve_and_compare",
        "normal_holonomy_defect",
    ),
    "flow": ("hyperbolic_flow", "lorentz_flow", "existence_window", "hyperbolic_flow_batch"),
    "descriptors": ("immerse", "dimensions"),
    "ball": ("ball_projection",),
    "limits": ("forward_limit", "backward_limit", "hausdorff_distance", "verify_flat_normal_bundle"),
}
# functions too hot for a span: calls are only counted
COUNTED = {"lorentz": ("minkowski_inner",)}
CHART_EVALS = "oracle.chart_evals"
BATCH_ROWS = "flow.hyperbolic_flow_batch.rows"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns)
COUNTER_NAMES = tuple(f"{mod}.{fn}.calls" for mod, fns in COUNTED.items() for fn in fns) + (CHART_EVALS, BATCH_ROWS)


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, number: int):
        self.number = number
        self.name = array("i")
        self.parent = array("q")  # (buffer number << 32) | index, or -1
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.inherited = -1  # parent span handed over by parallel_map
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._restore: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name_id: int, handover: bool):
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.start)
            sid = (buf.number << 32) | idx
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else buf.inherited)
            buf.end.append(0.0)
            buf.stack.append(sid)
            if handover:
                args = (self._inherit(args[0], sid),) + args[1:]
            buf.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                buf.stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _inherit(self, fn, sid: int):
        def on_pool_thread(item):
            buf = self._buffer()
            saved, buf.inherited = buf.inherited, sid
            try:
                return fn(item)
            finally:
                buf.inherited = saved

        return on_pool_thread

    def _count_wrapper(self, fn, counter: str):
        def wrapper(*args, **kwargs):
            self._buffer().counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rows_wrapper(self, fn):
        def wrapper(d, X, *args, **kwargs):
            self._buffer().counts[BATCH_ROWS] += np.atleast_2d(np.asarray(X)).shape[0]
            return fn(d, X, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper, attr: str) -> None:
        for modname, mod in list(sys.modules.items()):
            if (modname == "hyperflow" or modname.startswith("hyperflow.")) and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))

    def install(self) -> None:
        import hyperflow.oracle

        modules = {name: sys.modules[f"hyperflow.{name}"] for name in set(SPANNED) | set(COUNTED)}
        for mod, fns in SPANNED.items():
            for fn in fns:
                original = getattr(modules[mod], fn)
                wrapper = self._span_wrapper(original, SPAN_NAMES.index(f"{mod}.{fn}"), fn == "parallel_map")
                if fn == "hyperbolic_flow_batch":
                    wrapper = self._rows_wrapper(wrapper)
                self._replace_everywhere(original, wrapper, fn)
        for mod, fns in COUNTED.items():
            for fn in fns:
                original = getattr(modules[mod], fn)
                self._replace_everywhere(original, self._count_wrapper(original, f"{mod}.{fn}.calls"), fn)
        cls = hyperflow.oracle.ImmersionEvaluator
        original = cls.__call__
        cls.__call__ = self._count_wrapper(original, CHART_EVALS)
        self._restore.append((cls, "__call__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        offsets = np.cumsum([0] + [len(b.start) for b in self._buffers])
        parts = {"name": [], "parent": [], "start": [], "end": [], "thread": []}
        for b in self._buffers:
            parent = np.frombuffer(b.parent, dtype=np.int64)
            parts["name"].append(np.frombuffer(b.name, dtype=np.int32))
            parts["parent"].append(np.where(parent < 0, -1, offsets[parent >> 32] + (parent & 0xFFFFFFFF)))
            parts["start"].append(np.frombuffer(b.start, dtype=float))
            parts["end"].append(np.frombuffer(b.end, dtype=float))
            parts["thread"].append(np.full(len(b.start), b.number, dtype=np.int32))
        return {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}

    def counts(self) -> dict[str, int]:
        total = {name: 0 for name in COUNTER_NAMES}
        for b in self._buffers:
            for k, v in b.counts.items():
                total[k] += v
        return total


def layer_times(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Calls, self time and outermost total time per span name.

    Self time is a span's duration minus the union of its children's
    intervals.  Children on the parent's own thread are nested and disjoint,
    so their durations add up; children on pool threads may overlap and are
    merged first.  Total time counts a span only when its parent has another
    name, so direct recursion is not counted twice.
    """
    name, parent, start, end, thread = (spans[k] for k in ("name", "parent", "start", "end", "thread"))
    count = len(name)
    dur = end - start
    has_parent = parent >= 0
    p = np.where(has_parent, parent, 0)
    same_thread = has_parent & (thread[p] == thread)
    covered = np.bincount(parent[same_thread], weights=dur[same_thread], minlength=count)
    by_parent: dict[int, list[int]] = defaultdict(list)
    for i in np.nonzero(has_parent & ~same_thread)[0]:
        by_parent[int(parent[i])].append(int(i))
    for q, kids in by_parent.items():
        covered[q] += _union_length(sorted((max(start[i], start[q]), min(end[i], end[q])) for i in kids))
    own = dur - covered
    outermost = ~has_parent | (name[p] != name)
    out = {}
    for k, label in enumerate(SPAN_NAMES):
        sel = name == k
        out[label] = {
            "calls": int(sel.sum()),
            "self_s": float(own[sel].sum()),
            "total_s": float(dur[sel & outermost].sum()),
        }
    return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for a, b in intervals:
        lo = max(a, reach)
        if b > lo:
            total += b - lo
            reach = b
    return total
