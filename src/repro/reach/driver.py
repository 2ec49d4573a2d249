"""The one fix-point loop every reachability engine runs.

The paper's Figure 1 (CBM) and Figure 2 (BFV) flows are the same loop
with a different set algebra plugged in; :func:`drive` is that loop.
An engine supplies a :class:`SetAlgebra` — how its sets are built,
imaged, united, compared, sized, snapshotted, audited and exported —
and the driver owns everything else, in one place:

* tracer ``attach`` / ``bind``, the :class:`RunMonitor` and the
  :class:`ReachResult`;
* the ``setup`` span, snapshot restore and ``resumed_from``;
* ``begin_iteration`` and the single ``end_iteration`` telemetry block;
* the progress tick (:meth:`SetAlgebra.tick`): ``want_checkpoint`` ->
  ``save_state`` -> ``checkpoint`` (budgets, fault hooks, GC) ->
  ``audit``;
* mapping ``ResourceLimitError`` / ``RecursionError`` to a budget
  failure through ``annotate``;
* the ``finalize`` span (GC, peak live nodes, cache statistics,
  sanitizer snapshot, export, then every set-up pin and working handle
  released), then ``result.seconds`` and the tracer summary.

The default :meth:`SetAlgebra.step` is breadth-first: image the
frontier, add the image to the reached set, stop when nothing new
appears.  Which set is imaged next is one policy
(:meth:`SetAlgebra.advance`, which ``add`` calls once reached has
grown) keyed on the algebra's declared exactness: an
over-approximating algebra (``exact = False``) must image the full
reached set, because its union may hold states no frontier ever held;
an exact one images the smaller of the new states and the reached set
(the selection heuristic of Figures 1/2).  Saturation overrides
:meth:`SetAlgebra.step`: its iteration is a macro round and its
progress tick is the fire.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..bdd import BDD
from ..errors import ResourceLimitError
from ..obs import NULL_TRACER, ensure_tracer
from .common import ReachResult, RunMonitor


class SetAlgebra:
    """A set representation plus the step that drives it to a fix point.

    Subclasses implement :meth:`setup` (image machinery plus the initial
    :attr:`reached` / :attr:`frontier`), :meth:`image`, :meth:`add`,
    :meth:`size` and :meth:`count`; the snapshot, audit, telemetry and
    export defaults below cover the breadth-first engines.  Handles the
    algebra keeps alive go through :meth:`hold` / :meth:`drop`; nodes
    pinned during set-up go in :attr:`pins`, which the driver releases
    when the run ends.  Keyword ``options`` become attributes.
    """

    #: Engine name (``ReachResult.engine`` and the trace ``engine`` field).
    name = "?"
    #: False for over-approximating algebras: image the full reached set.
    exact = True
    #: Selection heuristic: image the smaller of new states and reached.
    selection = True
    #: ``result.extra`` key of the exported reached set.
    export_key = "reached"
    #: Snapshot slot of the handles: ``"vectors"`` (BFVs) or
    #: ``"functions"`` (BDD nodes, also audited as manager roots).
    store = "vectors"
    #: Iteration records carry ``chi_size`` (characteristic functions).
    chi = False

    def __init__(self, space=None, **options) -> None:
        self.space = space
        self.bdd = None if space is None else space.bdd
        self.tracer = NULL_TRACER
        self.pins: List[int] = []
        self.reached: Any = None
        self.frontier: Any = None
        self.monitor: Any = None  # the run's RunMonitor, set by drive()
        vars(self).update(options)

    # -- handle lifetime -------------------------------------------------

    def hold(self, handle):
        """Keep ``handle`` alive while the algebra holds it."""
        return handle

    def drop(self, handle) -> None:
        """Release a handle taken with :meth:`hold`."""

    def swap(self, old, new):
        """Hold ``new`` in place of ``old``."""
        new = self.hold(new)
        self.drop(old)
        return new

    def pin(self, node: int) -> int:
        """Pin a set-up node until the run ends."""
        self.pins.append(self.bdd.incref(node))
        return node

    def release(self) -> None:
        """Drop the set-up pins and every working handle but ``reached``."""
        for node in self.pins:
            self.bdd.decref(node)
        self.pins = []
        if self.frontier is not None:
            self.drop(self.frontier)
            self.frontier = None

    # -- the breadth-first step ------------------------------------------

    def step(self, iteration: int) -> bool:
        """One breadth-first iteration; True at the fix point."""
        if not self.add(self.image(self.frontier)):
            return True
        self.tick(iteration)
        return False

    def tick(self, progress: int, save: bool = True, audit: bool = True) -> None:
        """``want_checkpoint`` -> ``save_state`` -> ``checkpoint`` -> ``audit``.

        ``checkpoint`` enforces the budgets and fires the fault hooks;
        ``save`` / ``audit`` switch the snapshot and the sanitizer pass.
        """
        monitor = self.monitor
        if save and monitor.want_checkpoint(progress):
            monitor.save_state(progress, **self.snapshot())
        monitor.checkpoint((), progress)
        if audit:
            monitor.audit(progress, **self.audit_roots())

    def advance(self, new) -> None:
        """Pick the next from-set once :meth:`add` has grown reached.

        The one frontier policy of every breadth-first engine: an
        inexact algebra images the full reached set; an exact one the
        new states, or reached when that is smaller.
        """
        if not self.exact or (
            self.selection and self.size(new) > self.size(self.reached)
        ):
            new = self.reached
        self.frontier = self.swap(self.frontier, self.frontier_of(new))

    def frontier_of(self, handle):
        """The from-set form of a reached-side handle (identity here)."""
        return handle

    # -- checkpoints, audits, telemetry, export ---------------------------

    def restore(self, snapshot) -> int:
        """Adopt a checkpoint; returns the iteration to continue after."""
        self.drop(self.reached)
        self.drop(self.frontier)
        self.reached = self.load(snapshot, "reached")
        self.frontier = self.load(snapshot, "frontier")
        return snapshot.iteration

    def load(self, snapshot, name: str):
        return getattr(snapshot, self.store)[name]

    def snapshot(self) -> Dict[str, object]:
        """``save_state`` keyword arguments for the current state."""
        return {self.store: {"reached": self.reached, "frontier": self.frontier}}

    def audit_roots(self) -> Dict[str, object]:
        """``audit`` keyword arguments for the current state."""
        kind = "roots" if self.store == "functions" else "vectors"
        return {kind: (self.reached, self.frontier)}

    def telemetry(self) -> Dict[str, object]:
        """Engine fields of the iteration record."""
        metrics = {
            "frontier_size": self.size(self.frontier),
            "reached_size": self.size(self.reached),
        }
        if self.chi:
            metrics["chi_size"] = metrics["reached_size"]
        return metrics

    def export(self, result: ReachResult, count_states: bool) -> None:
        result.reached_size = self.size(self.reached)
        if result.completed:
            result.extra["space"] = self.space
            result.extra[self.export_key] = self.reached
            if count_states:
                result.num_states = self.count(self.reached)


def drive(
    algebra: SetAlgebra,
    circuit,
    limits=None,
    count_states: bool = True,
    order_name: str = "?",
    initial_points=None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Run ``algebra`` to its fix point under the harness contract."""
    tracer = algebra.tracer = ensure_tracer(tracer)
    # Backends own no BDD manager; budgets, the checkpoint container and
    # the sanitizer get an empty one as a well-formed no-op target.
    bdd = algebra.bdd if algebra.bdd is not None else BDD()
    tracer.attach(bdd)
    tracer.bind(engine=algebra.name, circuit=circuit.name, order=order_name)
    monitor = RunMonitor(
        bdd, limits, checkpointer, tracer=tracer, sanitize=sanitize
    )
    algebra.monitor = monitor
    result = ReachResult(
        engine=algebra.name,
        circuit=circuit.name,
        order=order_name,
        completed=False,
    )
    iteration = 0
    ready = False
    try:
        # Inside the try: a set-up over a structural cap or budget
        # degrades to an M.O. result, not a crash.
        with tracer.span("setup"):
            algebra.setup(initial_points)
        ready = True
        snapshot = monitor.restore()
        if snapshot is not None:
            iteration = algebra.restore(snapshot)
            result.extra["resumed_from"] = snapshot.iteration
        while True:
            iteration += 1
            tracer.begin_iteration(iteration)
            fixed = algebra.step(iteration)
            if tracer.enabled:
                with tracer.span("telemetry"):
                    metrics: Dict[str, object] = algebra.telemetry()
                if fixed:
                    metrics["fixpoint"] = True
                tracer.end_iteration(iteration, **metrics)
            if fixed:
                break
        result.completed = True
    except ResourceLimitError as error:
        monitor.annotate(result, error, iteration)
    except RecursionError:
        monitor.annotate(
            result,
            ResourceLimitError("depth", "recursion limit exceeded"),
            iteration,
        )
    result.iterations = iteration
    with tracer.span("finalize"):
        if algebra.bdd is not None:
            bdd.collect_garbage()
            result.peak_live_nodes = max(monitor.peak_live, bdd.count_live())
            result.extra["cache"] = bdd.cache_stats()
        if monitor.sanitizer is not None:
            result.extra["sanitizer"] = monitor.sanitizer.snapshot()
        if ready:
            algebra.export(result, count_states)
        # Only an exported reached set outlives the run.
        algebra.release()
        if not result.completed and algebra.reached is not None:
            algebra.drop(algebra.reached)
    # Captured after the finalize span: every engine reports the same
    # window, and traced phase self-times can never exceed it.
    result.seconds = monitor.elapsed
    if tracer.enabled:
        result.extra["obs"] = tracer.summary()
        tracer.finish(result)
    return result

