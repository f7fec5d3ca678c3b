"""Span and counter recorder for the traced benchmark run.

The traced run wraps the public functions of each layer from outside the
program: :func:`instrument` swaps every wrapped function for a recording
wrapper for the duration of a ``with`` block and restores the originals on
exit.  Each call records one span ``(layer, start_ns, end_ns, parent)``,
kept in memory; :meth:`Tracer.layer_metrics` derives the per-layer
figures (busy time, self time, call counts, per-call percentiles) from
them once the run is over.

The untraced run passes :data:`NULL` instead, whose ``span`` is a shared
no-op context, so the end-to-end timings carry no recording cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_NULL_CONTEXT = contextlib.nullcontext()


class NullTracer:
    """Stand-in used by the untraced run: records nothing."""

    def span(self, name: str):
        return _NULL_CONTEXT


NULL = NullTracer()


class Tracer:
    """In-memory span/counter store for one traced repetition."""

    def __init__(self) -> None:
        #: One entry per span: [name, start_ns, end_ns, parent index or -1].
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- derived figures -------------------------------------------------------

    def layer_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: busy seconds, self seconds, calls, call durations.

        Busy time and calls count only *outermost* spans of a name (a span
        whose ancestors carry another name), so a layer function calling
        itself or a sibling of the same layer is not counted twice.  Self
        time is a span's duration minus the part its direct child spans
        cover, summed over every span of the name.
        """
        spans = self.spans
        child_ns = self._child_ns()
        stats: Dict[str, Dict[str, Any]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []}
        )
        for i, (name, start, end, parent) in enumerate(spans):
            entry = stats[name]
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
            if not self._nested_in_same(i):
                entry["s"] += (end - start) / 1e9
                entry["calls"] += 1
                entry["durations"].append((end - start) / 1e9)
        return dict(stats)

    def _child_ns(self) -> List[int]:
        """Per span, the nanoseconds its direct child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return child_ns

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def group_s(self, prefix: str) -> Tuple[float, float]:
        """(busy, self) seconds of the spans whose name starts with
        ``prefix``; busy time counts only spans with no such ancestor."""
        spans = self.spans
        child_ns = self._child_ns()
        inside = [False] * len(spans)
        busy = own = 0
        for i, (name, start, end, parent) in enumerate(spans):
            member = name.startswith(prefix)
            if member:
                own += end - start - child_ns[i]
                if not (parent >= 0 and inside[parent]):
                    busy += end - start
            inside[i] = member or (parent >= 0 and inside[parent])
        return busy / 1e9, own / 1e9

    def descendants_of(self, prefix: str) -> Dict[str, float]:
        """Busy seconds per span name, restricted to spans below a span whose
        name starts with ``prefix`` (e.g. the sched spans of one leg)."""
        inside = [False] * len(self.spans)
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            inside[i] = parent >= 0 and (
                inside[parent] or self.spans[parent][0].startswith(prefix)
            )
            if inside[i]:
                out[name] += (end - start) / 1e9
        return dict(out)

    def export(self) -> Dict[str, Any]:
        """Spans and counters in a compact, JSON-ready form."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        return {
            "span_names": names,
            "span_columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[ids[n], s - t0, e - t0, p] for n, s, e, p in self.spans],
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# Instrumentation: which public functions form which layer
# ---------------------------------------------------------------------------


def _index_kind(spec: Any) -> str:
    kind = getattr(spec, "kind", spec)
    return str(kind).split("-")[0]


def _after_fleet(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("fleet.clients", result.n_clients)
    tracer.count("fleet.executions", result.n_executions)
    if result.backend == "numpy":
        tracer.count("fleet.kernel_executions", result.n_executions)
    else:
        tracer.count("fleet.reference_executions", result.n_executions)
    tracer.count("fleet.capped_executions", result.capped_executions)


def _after_kernel(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("fleet_kernel.executions", len(result[0]))


def _before_covers(tracer: Tracer, args, kwargs) -> None:
    tracer.count("hilbert.covers.rects", len(args[1]))


def _before_add_many(tracer: Tracer, args, kwargs) -> None:
    tracer.count("metrics.add_many.values", len(args[1]))


#: (layer, "module:attribute path", optional pre-call hook, optional
#: post-call hook, optional span-name function).  A layer may list several
#: functions; a function named by several modules (``from x import f``) is
#: replaced in each of them.
HOOKS: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable], Optional[Callable]], ...] = (
    ("datasets.gen", "repro.spatial.datasets:uniform_dataset", None, None, None),
    ("build", "repro.api.registry:build_index", None, None,
     lambda args, kwargs: "build." + _index_kind(args[0])),
    ("timeline", "repro.broadcast.timeline:timeline_of", None, None, None),
    ("timeline.compile", "repro.broadcast.timeline:CompiledTimeline.__init__", None, None, None),
    ("planner.dsi.window", "repro.core.structure:DsiIndex.window_query", None, None, None),
    ("planner.dsi.knn", "repro.core.structure:DsiIndex.knn_query", None, None, None),
    ("planner.rtree.window", "repro.rtree.air:RTreeAirIndex.window_query", None, None, None),
    ("planner.rtree.knn", "repro.rtree.air:RTreeAirIndex.knn_query", None, None, None),
    ("planner.hci.window", "repro.hci.air:HciAirIndex.window_query", None, None, None),
    ("planner.hci.knn", "repro.hci.air:HciAirIndex.knn_query", None, None, None),
    ("treeair", "repro.broadcast.treeair:TreeOnAir.next_pending_event", None, None, None),
    ("hilbert.ranges", "repro.spatial.hilbert:HilbertCurve.ranges_for_rect", None, None, None),
    ("hilbert.covers", "repro.spatial.hilbert:HilbertCurve.covers_for_rects", _before_covers, None, None),
    ("hilbert.covers", "repro.spatial.hilbert:HilbertCurve.covers_for_rects_flat", _before_covers, None, None),
    ("ground_truth", "repro.queries.ground_truth:answer", None, None, None),
    ("ground_truth", "repro.queries.ground_truth:matches", None, None, None),
    ("ground_truth", "repro.queries.ground_truth:matches_truth", None, None, None),
    ("fleet", "repro.sim.fleet:run_fleet", None, _after_fleet, None),
    ("fleet", "repro.sim.fleet:run_mobile_fleet", None, _after_fleet, None),
    ("fleet_kernel", "repro.sim.fleet_kernel:simulate_window_fleet", None, _after_kernel, None),
    ("fleet_kernel", "repro.sim.fleet_kernel:simulate_window_journeys", None, _after_kernel, None),
    ("metrics.add_many", "repro.sim.metrics:MetricSummary.add_many", _before_add_many, None, None),
    ("demand", "repro.queries.workload:Workload.bucket_demand", None, None, None),
    ("sched", "repro.broadcast.schedule:BroadcastSchedule.optimized", None, None, None),
)


def _wrap(tracer: Tracer, layer: str, fn: Callable, before, after, name_of) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        idx = tracer._open(layer if name_of is None else name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, sessions: List[Any]):
    """Install every hook of :data:`HOOKS` (plus the session collector,
    which appends each new ``ClientSession`` to ``sessions``) and restore
    the originals on exit."""
    restore: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, attr: str, value: Any) -> None:
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for layer, target, before, after, name_of in HOOKS:
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, layer, raw.__func__, before, after, name_of))
                else:
                    wrapped = _wrap(tracer, layer, raw, before, after, name_of)
                replace(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = _wrap(tracer, layer, original, before, after, name_of)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "repro" or name.startswith("repro.")) and \
                        mod.__dict__.get(path) is original:
                    replace(mod, path, wrapped)

        from repro.broadcast.client import ClientSession

        init = ClientSession.__dict__["__init__"]

        @functools.wraps(init)
        def collecting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sessions.append(self)

        replace(ClientSession, "__init__", collecting_init)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
