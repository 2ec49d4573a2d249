"""Characteristic-function reachability (the paper's VIS/IWLS95 baseline).

Classic breadth-first symbolic traversal: the reached set is one BDD
over the current-state variables; images are computed through an
IWLS95-style partitioned transition relation with early quantification
(:mod:`repro.reach.iwls95`); the frontier (newly reached states) —
or the reached set, when smaller — feeds the next iteration.

:class:`ChiSets` is the characteristic-function set algebra the
``cbm``, ``sat`` and ``backward`` engines share.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..sim.symbolic import SymbolicSimulator
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import SetAlgebra, drive
from .iwls95 import PartitionedRelation


def next_state_functions(space: ReachSpace, simulator=None) -> Dict[str, int]:
    """Every latch's next-state function over the s/x variables, by net."""
    circuit = space.circuit
    if simulator is None:
        simulator = SymbolicSimulator(space.bdd, circuit)
    deltas = simulator.transition_functions(
        dict(space.input_var), dict(space.state_var)
    )
    return dict(zip(circuit.latches, deltas))


def transition_relation(
    space: ReachSpace, by_net, quantify, cluster_threshold: int, cube=None
) -> PartitionedRelation:
    """The per-latch ``t_i <-> delta_i`` relation, optionally cofactored
    by an input ``cube``, clustered for early quantification."""
    bdd = space.bdd
    parts = []
    for net in space.state_order:
        delta = by_net[net]
        if cube:
            delta = bdd.cofactor_cube(delta, cube)
        parts.append(bdd.equiv(bdd.var(space.next_var[net]), delta))
    return PartitionedRelation(
        bdd, parts, quantify, cluster_threshold=cluster_threshold
    )


class ChiSets(SetAlgebra):
    """Sets as characteristic functions over ``s``, pinned while held."""

    export_key = "reached_chi"
    store = "functions"
    chi = True

    def hold(self, node):
        return self.bdd.incref(node)

    def drop(self, node) -> None:
        self.bdd.decref(node)

    def start(self, init: int) -> None:
        self.reached = self.hold(init)
        self.frontier = self.hold(init)

    def add(self, image: int) -> bool:
        """Unite ``image`` into reached; False if it adds nothing."""
        bdd = self.bdd
        with self.tracer.span("fixpoint_test"):
            new = bdd.diff(image, self.reached)
        if new == bdd.false:
            return False
        with self.tracer.span("union"):
            self.reached = self.swap(self.reached, bdd.or_(self.reached, image))
            self.advance(new)
        return True

    def size(self, node: int) -> int:
        return self.bdd.dag_size(node)

    def count(self, node: int) -> int:
        return self.space.states_of(node)


class _TransitionRelation(ChiSets):
    name = "tr"

    def setup(self, initial_points) -> None:
        space = self.space
        quantify = list(space.s_vars) + list(space.x_vars)
        self.relation = transition_relation(
            space, next_state_functions(space), quantify, self.cluster_threshold
        )
        self.pins.extend(self.relation.clusters)
        self.start(space.initial_chi(initial_points))

    def image(self, frontier: int) -> int:
        with self.tracer.span("image"):
            return self.space.t_to_s(self.relation.image(frontier))


def tr_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    cluster_threshold: int = 800,
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Run IWLS95-style reachability; returns a :class:`ReachResult`.

    ``result.extra['space']`` / ``['reached_chi']`` hold the layout and
    the reached characteristic function for cross-validation.  With a
    ``checkpointer`` the reached/frontier characteristic functions are
    snapshotted every iteration and the run resumes from the latest
    valid snapshot.  With a ``sanitize`` rate sampled iterations audit
    manager invariants (no vectors exist in this flow);
    ``result.extra['sanitizer']`` carries the audit counts.
    """
    if space is None:
        space = ReachSpace(circuit, slots)
    algebra = _TransitionRelation(
        space, cluster_threshold=cluster_threshold, selection=selection_heuristic
    )
    return drive(
        algebra, circuit, limits, count_states, order_name,
        initial_points, checkpointer, tracer, sanitize,
    )
