"""The tracer: phase spans and per-iteration metric records.

Two implementations share one duck-typed API:

* :class:`Tracer` — the real thing.  ``span(phase)`` returns a context
  manager timing one phase on the monotonic clock; spans nest, and both
  *inclusive* and *exclusive* ("self") times are accumulated, so a
  ``gc`` span inside a ``checkpoint`` span is not double-counted in the
  phase breakdown.  ``begin_iteration`` / ``end_iteration`` bracket one
  engine iteration and emit a metric record (phase self-times for that
  iteration, frontier/reached/chi sizes passed by the engine,
  kernel-invocation and computed-table counter deltas, allocated/live
  node counts, RSS).  ``event`` emits out-of-band records (gc,
  checkpoint, resume, attempt lifecycle).  The tracer's own metric
  collection is accounted under a ``telemetry`` phase so the phase
  breakdown stays honest about observer cost.
* :class:`NullTracer` — a stateless singleton (:data:`NULL_TRACER`)
  whose every method is a no-op and whose ``span`` returns a shared
  reusable null context manager.  Engines always run against a tracer
  (``ensure_tracer(None)`` yields the singleton), so the disabled path
  costs a few attribute lookups per iteration and allocates nothing.

The tracer knows nothing about engines or results; engines ``bind``
identifying metadata (engine/circuit/order) that is stamped onto every
record, ``attach`` the BDD manager whose counters should be sampled,
and call ``finish(result)`` to emit a final summary record.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .metrics import counter_deltas, manager_counters, rss_self_bytes
from .sinks import Sink

#: Phase names the engines use; other names are allowed (spans are
#: open-ended), these are just the conventional vocabulary rendered by
#: ``python -m repro trace``.
PHASES = (
    "setup",
    "image",
    "reparam",
    "union",
    "fixpoint_test",
    "chi_conversion",
    "gc",
    "checkpoint",
    "sanitize",
    "finalize",
    "telemetry",
)


class _NullSpan:
    """Reusable no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer; engines' default when tracing is off.

    Mirrors every :class:`Tracer` method with a no-op so engine code is
    branch-free: the single ``tracer.enabled`` flag exists for callers
    that want to skip *their own* metric computation (e.g. BFV shared
    sizes) when nobody is listening.
    """

    enabled = False

    def attach(self, bdd) -> None:
        pass

    def bind(self, **meta) -> None:
        pass

    def span(self, phase: str) -> _NullSpan:
        return NULL_SPAN

    def begin_iteration(self, iteration: int) -> None:
        pass

    def end_iteration(self, iteration: int, **metrics) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass

    def summary(self) -> Dict[str, object]:
        return {}

    def finish(self, result=None) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared process-wide null tracer instance (stateless, so sharable).
NULL_TRACER = NullTracer()


def ensure_tracer(tracer) -> "Tracer":
    """``tracer`` itself, or the null singleton when None."""
    return NULL_TRACER if tracer is None else tracer


class _Span:
    """One active phase span; exclusive time excludes nested spans."""

    __slots__ = ("tracer", "phase", "start", "child_seconds")

    def __init__(self, tracer: "Tracer", phase: str) -> None:
        self.tracer = tracer
        self.phase = phase
        self.child_seconds = 0.0

    def __enter__(self) -> "_Span":
        self.tracer._stack.append(self)
        self.start = self.tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self.tracer
        elapsed = tracer._clock() - self.start
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].child_seconds += elapsed
        tracer._record_span(self.phase, elapsed, elapsed - self.child_seconds)
        return False


class Tracer:
    """Collects phase spans and per-iteration metrics; emits to a sink.

    Parameters
    ----------
    sink:
        Record destination (see :mod:`repro.obs.sinks`).  None keeps
        the tracer accumulate-only: phase summaries still work (and
        still land in ``ReachResult.extra['obs']``), nothing is stored
        per iteration.
    bdd:
        Manager whose counters are sampled; usually attached later by
        the engine via :meth:`attach` once the variable layout exists.
    clock:
        Monotonic time source (injectable for tests).
    measure_rss / count_live:
        Toggle the two most expensive per-iteration samples: reading
        ``/proc/self/status`` and the live-node mark pass.
    registry:
        Optional :class:`repro.obs.registry.MetricsRegistry` fed live
        aggregates alongside the sink: per-phase self-time histograms,
        an iteration-duration histogram, iteration/span counters, and
        live-node / RSS gauges.  None (the default) costs one ``is
        None`` test per feed point — the detached path stays inside the
        <2% tier-1 overhead budget.
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[Sink] = None,
        bdd=None,
        clock=time.monotonic,
        measure_rss: bool = True,
        count_live: bool = True,
        registry=None,
    ) -> None:
        self.sink = sink
        self._clock = clock
        self.measure_rss = measure_rss
        self.count_live = count_live
        self.registry = registry
        self._phase_histograms: Dict[str, object] = {}
        self._iteration_histogram = None
        if registry is not None:
            self._iteration_histogram = registry.histogram("iteration_seconds")
            self._iterations_counter = registry.counter("iterations")
            self._live_gauge = registry.gauge("live_nodes")
            self._rss_gauge = registry.gauge("rss_bytes")
            self._hit_rate_gauge = registry.gauge("cache_hit_rate")
        self.meta: Dict[str, object] = {}
        self.bdd = None
        self._stack: List[_Span] = []
        #: phase -> inclusive seconds (nested children counted in).
        self.phase_seconds: Dict[str, float] = {}
        #: phase -> exclusive seconds (what the breakdown reports).
        self.phase_self_seconds: Dict[str, float] = {}
        self.span_counts: Dict[str, int] = {}
        self.iterations_recorded = 0
        self.events_emitted = 0
        self._iter_open: Optional[Dict[str, object]] = None
        self._started = self._clock()
        if bdd is not None:
            self.attach(bdd)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, bdd) -> None:
        """Sample counters from ``bdd`` and report its GC events."""
        if bdd is self.bdd:
            return
        self.bdd = bdd
        hooks = getattr(bdd, "gc_hooks", None)
        if hooks is not None and self._on_gc not in hooks:
            hooks.append(self._on_gc)

    def bind(self, **meta) -> None:
        """Stamp identifying metadata onto every subsequent record."""
        self.meta.update(
            {key: value for key, value in meta.items() if value is not None}
        )

    def _on_gc(self, bdd, freed: int) -> None:
        self.event("gc", freed=freed, allocated_nodes=bdd.num_nodes)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, phase: str) -> _Span:
        """Context manager timing one (nestable) phase."""
        return _Span(self, phase)

    def _record_span(self, phase: str, elapsed: float, self_seconds: float) -> None:
        totals = self.phase_seconds
        totals[phase] = totals.get(phase, 0.0) + elapsed
        self_totals = self.phase_self_seconds
        self_totals[phase] = self_totals.get(phase, 0.0) + self_seconds
        counts = self.span_counts
        counts[phase] = counts.get(phase, 0) + 1
        if self.registry is not None:
            histogram = self._phase_histograms.get(phase)
            if histogram is None:
                histogram = self.registry.histogram(
                    "phase_self_seconds", {"phase": phase}
                )
                self._phase_histograms[phase] = histogram
            histogram.observe(self_seconds)

    # ------------------------------------------------------------------
    # Iterations
    # ------------------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        """Open iteration ``iteration``: snapshot clocks and counters."""
        t0 = self._clock()
        counters = (
            manager_counters(self.bdd) if self.bdd is not None else None
        )
        t1 = self._clock()
        self._record_span("telemetry", t1 - t0, t1 - t0)
        self._iter_open = {
            "iteration": iteration,
            "start": t1,
            "phase_self": dict(self.phase_self_seconds),
            "counters": counters,
        }

    def end_iteration(self, iteration: int, **metrics) -> None:
        """Close the open iteration and emit its metric record.

        ``metrics`` carries engine-supplied fields (``frontier_size``,
        ``reached_size``, ``chi_size``, ``fixpoint``...) merged into the
        record verbatim.  Without a matching :meth:`begin_iteration`
        the call is ignored (e.g. after a resume restored mid-run).
        """
        opened = self._iter_open
        self._iter_open = None
        if opened is None:
            return
        seconds = self._clock() - opened["start"]
        # Collect the sampled metrics, charging the cost to `telemetry`
        # *before* computing this iteration's phase deltas, so the
        # record (and the final breakdown) include observer cost.
        t0 = self._clock()
        sampled: Dict[str, object] = {}
        before = opened["counters"]
        if before is not None and self.bdd is not None:
            deltas = counter_deltas(before, manager_counters(self.bdd))
            sampled["op_delta"] = deltas["op_count"]
            sampled["gc_delta"] = deltas["gc_count"]
            for field in ("hits", "misses", "inserts", "evictions", "swept"):
                sampled["cache_%s_delta" % field] = deltas["cache_" + field]
            probes = sampled["cache_hits_delta"] + sampled["cache_misses_delta"]
            sampled["cache_hit_rate"] = (
                sampled["cache_hits_delta"] / probes if probes else 0.0
            )
            sampled["allocated_nodes"] = self.bdd.num_nodes
            if self.count_live:
                sampled["live_nodes"] = self.bdd.count_live()
        if self.measure_rss:
            rss = rss_self_bytes()
            if rss is not None:
                sampled["rss_bytes"] = rss
        t1 = self._clock()
        self._record_span("telemetry", t1 - t0, t1 - t0)
        base = opened["phase_self"]
        phases = {}
        for phase, total in self.phase_self_seconds.items():
            delta = total - base.get(phase, 0.0)
            if delta > 0.0:
                phases[phase] = round(delta, 6)
        record: Dict[str, object] = dict(self.meta)
        record["event"] = "iteration"
        record["iteration"] = iteration
        record["seconds"] = round(seconds, 6)
        record["phases"] = phases
        record.update(sampled)
        record.update(metrics)
        self.iterations_recorded += 1
        if self._iteration_histogram is not None:
            self._iteration_histogram.observe(seconds)
            self._iterations_counter.inc()
            if "live_nodes" in sampled:
                self._live_gauge.set(sampled["live_nodes"])
            if "rss_bytes" in sampled:
                self._rss_gauge.set(sampled["rss_bytes"])
            if "cache_hit_rate" in sampled:
                self._hit_rate_gauge.set(sampled["cache_hit_rate"])
        self._emit(record)
        # Assembling and emitting the record is observer cost as well;
        # it lands in the final breakdown (this record is already out).
        t2 = self._clock()
        self._record_span("telemetry", t2 - t1, t2 - t1)

    # ------------------------------------------------------------------
    # Events, summary, lifecycle
    # ------------------------------------------------------------------

    def event(self, kind: str, **fields) -> None:
        """Emit one out-of-band record (gc, checkpoint, resume, ...)."""
        record: Dict[str, object] = dict(self.meta)
        record["event"] = kind
        record.update(fields)
        self.events_emitted += 1
        self._emit(record)

    def summary(self) -> Dict[str, object]:
        """Cumulative phase timing (what engines put in ``extra['obs']``)."""
        return {
            "phase_seconds": {
                k: round(v, 6) for k, v in sorted(self.phase_seconds.items())
            },
            "phase_self_seconds": {
                k: round(v, 6)
                for k, v in sorted(self.phase_self_seconds.items())
            },
            "span_counts": dict(sorted(self.span_counts.items())),
            "iterations_recorded": self.iterations_recorded,
            "traced_seconds": round(self._clock() - self._started, 6),
        }

    def finish(self, result=None) -> None:
        """Emit the final summary record, annotated from ``result``.

        ``result`` is duck-typed (a :class:`repro.reach.ReachResult`):
        only plain attributes are read, no reach import happens here.
        """
        record: Dict[str, object] = dict(self.meta)
        record["event"] = "summary"
        record.update(self.summary())
        if result is not None:
            for name in (
                "engine",
                "circuit",
                "order",
                "completed",
                "failure",
                "iterations",
                "seconds",
                "peak_live_nodes",
                "reached_size",
                "num_states",
                "conversion_seconds",
            ):
                value = getattr(result, name, None)
                if value is not None:
                    record[name] = value
        self._emit(record)

    def close(self) -> None:
        """Close the attached sink (idempotent)."""
        if self.sink is not None:
            self.sink.close()

    def _emit(self, record: Dict[str, object]) -> None:
        if self.sink is not None:
            self.sink.emit(record)
