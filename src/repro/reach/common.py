"""Shared infrastructure for the reachability engines.

:class:`ReachSpace` turns a circuit plus an order (slot list) into a BDD
variable layout:

* one variable ``x_<net>`` per primary input,
* per state bit, adjacent ``s_<net>`` (current state / BFV choice) and
  ``t_<net>`` (next state / re-parameterization choice) variables,

with slots laid out in the requested order.  The state-net slot order is
also the BFV *component order*, matching the paper's "same order for
component ordering and BDD variable ordering".

:class:`ReachLimits` models the paper's 10-hour / 1-GB budgets with
wall-clock and live-node ceilings; engines raise
:class:`repro.errors.ResourceLimitError` tagged ``"time"`` / ``"memory"``
— reported as T.O. / M.O. in the Table 2 reproduction.
:class:`ReachResult` carries the statistics Table 2 reports (time, peak
live BDD nodes) plus cross-validation data.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from ..bdd import BDD
from ..circuits.netlist import Circuit
from ..errors import CircuitError, ResourceLimitError
from ..obs import NULL_TRACER, ensure_tracer
from ..order import order_for

#: Table-2-style cell label for every failure code the engines and the
#: harness can emit.  Engines tag budget failures ``time`` / ``memory``
#: / ``iterations`` / ``depth`` (ResourceLimitError kinds, plus the
#: RecursionError translation); the supervisor adds ``crash`` for child
#: processes that die without reporting, and reuses ``time`` /
#: ``memory`` for watchdog kills; the parallel batch scheduler adds
#: ``cancelled`` for speculative attempts killed once an earlier
#: fallback rung completed.  :attr:`ReachResult.status` renders unknown
#: codes as ``FAIL`` rather than raising.
FAILURE_LABELS: Dict[str, str] = {
    "time": "T.O.",
    "memory": "M.O.",
    "iterations": "I.O.",
    "depth": "D.O.",
    "crash": "CRASH",
    "cancelled": "CANC.",
}


class ReachSpace:
    """BDD variable layout for reachability on one circuit."""

    def __init__(self, circuit: Circuit, slots: Optional[Sequence[str]] = None) -> None:
        circuit.validate()
        self.circuit = circuit
        if slots is None:
            slots = order_for(circuit, "S1")
        state_nets = set(circuit.latches)
        input_nets = set(circuit.inputs)
        missing = (state_nets | input_nets) - set(slots)
        if missing:
            raise CircuitError("order misses nets: %s" % sorted(missing))
        self.slots = list(slots)
        self.bdd = BDD()
        self.input_var: Dict[str, int] = {}
        self.state_var: Dict[str, int] = {}
        self.next_var: Dict[str, int] = {}
        #: State nets in component order (== slot order).
        self.state_order: List[str] = []
        for net in self.slots:
            if net in input_nets:
                self.input_var[net] = self.bdd.add_var("x_" + net)
            elif net in state_nets:
                self.state_var[net] = self.bdd.add_var("s_" + net)
                self.next_var[net] = self.bdd.add_var("t_" + net)
                self.state_order.append(net)
            else:
                raise CircuitError("order slot %r is not an input or state net" % net)
        #: Choice/current-state variables in component order.
        self.s_vars: Tuple[int, ...] = tuple(
            self.state_var[n] for n in self.state_order
        )
        #: Next-state/re-parameterization variables in component order.
        self.t_vars: Tuple[int, ...] = tuple(
            self.next_var[n] for n in self.state_order
        )
        self.x_vars: Tuple[int, ...] = tuple(
            self.input_var[n] for n in circuit.inputs
        )
        init_by_net = {
            latch.output: latch.init for latch in circuit.latches.values()
        }
        #: Initial state bits in component order.
        self.initial_point: Tuple[bool, ...] = tuple(
            init_by_net[n] for n in self.state_order
        )

    def initial_point_set(
        self, initial_points: Optional[Sequence[Sequence[bool]]] = None
    ) -> List[Tuple[bool, ...]]:
        """Initial states as component-order tuples.

        ``initial_points`` (optional) gives the initial state set in
        *latch declaration order*; the default is the circuit's single
        reset state.
        """
        if initial_points is None:
            return [self.initial_point]
        declaration = list(self.circuit.latches)
        index = {net: i for i, net in enumerate(declaration)}
        points = []
        for point in initial_points:
            if len(point) != len(declaration):
                raise CircuitError("initial state width mismatch")
            points.append(
                tuple(bool(point[index[net]]) for net in self.state_order)
            )
        if not points:
            raise CircuitError("initial state set must be non-empty")
        return points

    def initial_chi(
        self, initial_points: Optional[Sequence[Sequence[bool]]] = None
    ) -> int:
        """Characteristic function (over ``s`` vars) of the initial set."""
        chi = self.bdd.false
        for point in self.initial_point_set(initial_points):
            chi = self.bdd.or_(
                chi, self.bdd.cube(dict(zip(self.s_vars, point)))
            )
        return chi

    def t_to_s(self, node: int) -> int:
        """Rename next-state variables to current-state variables."""
        return self.bdd.rename(
            node, dict(zip(self.t_vars, self.s_vars))
        )

    def states_of(self, chi: int) -> int:
        """Number of states in a characteristic function over ``s`` vars."""
        return self.bdd.sat_count(chi, self.s_vars)


@dataclass
class ReachLimits:
    """Resource budget for one reachability run."""

    max_seconds: Optional[float] = None
    max_live_nodes: Optional[int] = None
    max_iterations: Optional[int] = None


@dataclass
class ReachResult:
    """Outcome and statistics of a reachability run."""

    engine: str
    circuit: str
    order: str
    completed: bool
    # "time" | "memory" | "iterations" | "depth" | "crash"
    failure: Optional[str] = None
    iterations: int = 0
    seconds: float = 0.0
    peak_live_nodes: int = 0
    num_states: Optional[int] = None
    reached_size: Optional[int] = None  # representation size (shared nodes)
    conversion_seconds: float = 0.0  # Fig 1 flow: BFV<->chi conversion cost
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def status(self) -> str:
        """Table-2-style cell: time, or a :data:`FAILURE_LABELS` code.

        Every failure code the engines or the harness can emit has a
        label; anything unrecognized (including a missing code) renders
        as ``FAIL`` instead of raising.
        """
        if self.completed:
            return "%.2f" % self.seconds
        return FAILURE_LABELS.get(self.failure or "", "FAIL")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict form (crosses the supervisor process boundary).

        Non-serializable ``extra`` entries (the cross-validation objects
        like ``space`` / ``reached``) are dropped.
        """
        data: Dict[str, object] = {}
        for spec in fields(self):
            data[spec.name] = getattr(self, spec.name)
        extra = {}
        for key, value in self.extra.items():
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                continue
            extra[key] = value
        data["extra"] = extra
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReachResult":
        known = {spec.name for spec in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class RunMonitor:
    """Tracks time/node budgets and peak-live statistics for a run.

    Besides budget enforcement, the monitor is the engines' hook into the
    fault-tolerant harness (:mod:`repro.harness`):

    * an optional *checkpointer* (duck-typed; see
      :class:`repro.harness.checkpoint.Checkpointer`) receives the
      engine's frontier/reached state every iteration via
      :meth:`save_state`, and hands back the latest valid snapshot via
      :meth:`restore`;
    * the process-global :attr:`iteration_hooks` are invoked at every
      iteration checkpoint — :mod:`repro.harness.faults` uses them to
      inject deterministic time-outs, hangs, and crashes;
    * an optional *sanitizer* (``sanitize`` rate, see
      :class:`repro.analysis.sanitizer.Sanitizer`) audits the manager,
      the engines' accumulated vectors and loaded persisted state via
      :meth:`audit` — engines call it right after :meth:`checkpoint`
      so same-iteration corruption (including injected faults) is
      caught before it propagates.
    """

    #: Process-global callbacks ``hook(monitor, iteration)`` fired at the
    #: start of every :meth:`checkpoint` call (fault injection hook).
    iteration_hooks: List[Callable[["RunMonitor", int], None]] = []

    def __init__(
        self,
        bdd: BDD,
        limits: Optional[ReachLimits],
        checkpointer: Optional[object] = None,
        tracer: Optional[object] = None,
        sanitize: Optional[float] = None,
    ) -> None:
        self.bdd = bdd
        self.limits = limits or ReachLimits()
        self.checkpointer = checkpointer
        #: Runtime invariant auditor (None unless a ``--sanitize`` rate
        #: was requested); see :mod:`repro.analysis.sanitizer`.
        self.sanitizer = None
        if sanitize:
            from ..analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(bdd, rate=float(sanitize))
        #: Observability hook (see :mod:`repro.obs`): GC work inside
        #: :meth:`checkpoint` is timed under a ``gc`` span, snapshots
        #: under a ``checkpoint`` span, and checkpoint/resume become
        #: trace events.  Defaults to the zero-cost null tracer.
        self.tracer = ensure_tracer(tracer)
        self.start = time.monotonic()
        self.peak_live = 0
        #: Minimum allocation before a no-budget checkpoint collects.
        self.gc_floor = 4096
        self._gc_live = 0
        #: Nodes allocated by sanitizer audits since the last collection.
        #: Audit scratch (oracle replays, BFV round-trips) is garbage the
        #: moment the pass ends, but it still raises ``num_nodes``;
        #: discounting it keeps the GC schedule — and therefore the
        #: reported peak-live statistic — byte-identical to an
        #: unsanitized run (the --jobs determinism guarantee).
        self._audit_nodes = 0
        self.iteration = 0
        if self.limits.max_live_nodes is not None:
            # Hard allocation ceiling so a blowing-up image computation
            # aborts from inside the BDD layer rather than only at the
            # next iteration checkpoint.  Allocation includes garbage
            # deferred by :meth:`checkpoint` (up to 5x the budget), hence
            # the headroom factor.
            bdd.node_limit = max(
                20 * self.limits.max_live_nodes, 100_000
            )

    @property
    def elapsed(self) -> float:
        """Seconds since the run started."""
        return time.monotonic() - self.start

    def want_checkpoint(self, iteration: int) -> bool:
        """True iff the attached checkpointer wants a snapshot now.

        Lets engines skip building the snapshot payload (e.g. the
        conjunctive engine's BFV view) when it would be thrown away.
        """
        return self.checkpointer is not None and self.checkpointer.due(
            iteration
        )

    def save_state(
        self,
        iteration: int,
        functions: Optional[Dict[str, int]] = None,
        vectors: Optional[Dict[str, object]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Persist the engine's state through the attached checkpointer.

        ``meta`` (optional, JSON-safe) rides along in the checkpoint
        metadata under the ``"extra"`` key — the saturation engines use
        it to serialize their chaining position so kill-resume is exact
        mid-chain (see :mod:`repro.reach.sat_engine`).
        """
        if self.checkpointer is not None:
            with self.tracer.span("checkpoint"):
                saved = self.checkpointer.maybe_save(
                    self.bdd, iteration, functions, vectors, meta
                )
            if saved:
                self.tracer.event("checkpoint", iteration=iteration)

    def restore(self):
        """Latest valid snapshot to resume from, or None.

        A restored snapshot's counter baselines (see
        :meth:`repro.bdd.BDD.counters_snapshot`) are added onto the
        manager, so statistics reported after a resume are monotonic
        across the whole logical run instead of resetting to zero.
        """
        if self.checkpointer is None:
            return None
        snapshot = self.checkpointer.restore(self.bdd)
        if snapshot is not None:
            if self.sanitizer is not None:
                # Schema-validate what we are about to trust: resuming
                # from a malformed snapshot corrupts the whole run.
                self.sanitizer.validate_checkpoint(
                    snapshot.meta, snapshot.path
                )
            counters = snapshot.meta.get("counters")
            if counters and hasattr(self.bdd, "restore_counters"):
                self.bdd.restore_counters(counters)
            self.tracer.event(
                "resume", iteration=snapshot.iteration, path=snapshot.path
            )
        return snapshot

    def audit(
        self,
        iteration: int,
        roots: Sequence[int] = (),
        vectors: Sequence[object] = (),
        decompositions: Sequence[object] = (),
    ) -> bool:
        """Run a sanitizer pass when one is attached and the stride hits.

        Engines call this right after :meth:`checkpoint` with the
        vectors / decompositions they are accumulating; it is a cheap
        no-op when no ``--sanitize`` rate was configured.  Audit time is
        accounted under a ``sanitize`` tracer span.
        """
        sanitizer = self.sanitizer
        if sanitizer is None or not sanitizer.should_audit(iteration):
            return False
        before = self.bdd.num_nodes
        with self.tracer.span("sanitize"):
            ran = sanitizer.audit(
                iteration,
                roots=roots,
                vectors=vectors,
                decompositions=decompositions,
            )
        self._audit_nodes += max(0, self.bdd.num_nodes - before)
        if ran:
            self.tracer.event(
                "sanitize",
                iteration=iteration,
                audits=sanitizer.counts["audits"],
                cache_replayed=sanitizer.counts["cache_replayed"],
                vectors_audited=sanitizer.counts["vectors_audited"],
            )
        return ran

    def annotate(self, result: "ReachResult", error, iteration: int) -> None:
        """Record a budget failure and its partial-progress statistics.

        Fills ``result.failure`` and ``result.extra`` with how far the
        run got (``elapsed``, ``iteration``, ``live_nodes``) so T.O./M.O.
        rows are informative.
        """
        result.failure = error.kind
        elapsed = getattr(error, "elapsed", None)
        result.extra["elapsed"] = (
            elapsed if elapsed is not None else self.elapsed
        )
        err_iter = getattr(error, "iteration", None)
        result.extra["iteration"] = (
            err_iter if err_iter is not None else iteration
        )
        live = getattr(error, "live_nodes", None)
        result.extra["live_nodes"] = (
            live if live is not None else self.bdd.count_live()
        )

    def checkpoint(self, roots: Sequence[int], iteration: int) -> None:
        """Enforce the budgets; collect only when allocation demands it.

        Live nodes never exceed allocated nodes, so while the allocated
        count stays within ``max_live_nodes`` a memory violation is
        impossible; a mark pass runs there only when allocation passes
        the peak, the one case where the live count could raise
        :attr:`peak_live`.  Past the budget, a
        *mark-only* :meth:`~repro.bdd.BDD.count_live` enforces the limit
        exactly without freeing anything; the actual collection — which
        also sweeps every computed-table entry whose nodes died — is
        deferred until allocation reaches several times the budget.
        Deferring keeps the kernels' computed tables warm across
        iterations, where image computations reuse sub-results from
        earlier frontiers (the ``node_limit`` ceiling installed in
        ``__init__`` still caps allocation between checkpoints).
        Without a node budget, collection falls back to the classic
        grow-by-2x heuristic over the last post-GC live count.
        """
        self.iteration = iteration
        for hook in list(self.iteration_hooks):
            hook(self, iteration)
        limits = self.limits
        bdd = self.bdd
        # Sanitizer scratch is dead weight, not engine allocation; see
        # :attr:`_audit_nodes`.
        allocated = bdd.num_nodes - self._audit_nodes
        budget = limits.max_live_nodes
        if getattr(bdd, "per_iteration_gc", False):
            # Escape hatch: collect at every checkpoint, the cadence the
            # engines used before collection became budget-driven.  The
            # benchmark baseline sets this to reproduce the seed stack
            # end-to-end (see tests/bdd/reference_kernels.py).
            collect = True
        elif budget is not None:
            collect = allocated > 5 * budget
        else:
            collect = allocated > max(self.gc_floor, 2 * self._gc_live)
        counted = True
        if collect:
            with self.tracer.span("gc"):
                bdd.collect_garbage(roots)
                live = self._gc_live = bdd.count_live(roots)
                self._audit_nodes = 0
        elif budget is not None and allocated > min(budget, self.peak_live):
            # Mark-only count: past the budget it enforces the limit
            # exactly; below it, live never exceeds allocated, so only
            # an allocation past the peak can raise the peak.
            live = bdd.count_live(roots)
        else:
            live, counted = allocated, False  # upper bound, not a count
        if counted and live > self.peak_live:
            self.peak_live = live
        if budget is not None and live > budget:
            self._exceeded("memory", "live nodes %d exceed budget" % live, live)
        if limits.max_seconds is not None and self.elapsed > limits.max_seconds:
            self._exceeded("time", "time budget exceeded", live)
        if (
            limits.max_iterations is not None
            and iteration >= limits.max_iterations
        ):
            self._exceeded("iterations", "iteration budget exceeded", live)

    def _exceeded(self, kind: str, message: str, live: int) -> NoReturn:
        raise ResourceLimitError(
            kind,
            message,
            elapsed=self.elapsed,
            iteration=self.iteration,
            live_nodes=live,
        )
