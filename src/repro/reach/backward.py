"""Backward reachability: which states can reach a target set?

The dual of the forward engines: iterate the *pre-image* of a target
set until a fix point.  Useful on its own (error-state diagnosis,
"can this assertion ever fire?") and as a powerful cross-check — a
target intersects the forward reachable set iff the initial state lies
in the backward reachable set of the target (exploited in the tests).

Characteristic-function based (pre-image needs complements and the BFV
form has no negation operator, as the paper notes).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..errors import ResourceLimitError
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import drive
from .tr_engine import ChiSets, next_state_functions, transition_relation


class _Backward(ChiSets):
    """Pre-image steps from the targets; the frontier is the new states."""

    name = "backward"
    export_key = "backward_chi"
    selection = False

    def setup(self, initial_points) -> None:
        space = self.space
        quantify = list(space.s_vars) + list(space.x_vars)
        self.relation = transition_relation(
            space, next_state_functions(space), quantify, self.cluster_threshold
        )
        self.pins.extend(self.relation.clusters)
        self.lift = dict(zip(space.s_vars, space.t_vars))
        targets = list(self.target_states)
        self.start(space.initial_chi(targets) if targets else space.bdd.false)

    def image(self, frontier: int) -> int:
        # Lift the frontier to next-state variables and step back.
        space = self.space
        with self.tracer.span("image"):
            return self.relation.pre_image(
                self.bdd.rename(frontier, self.lift), space.t_vars, space.x_vars
            )


def backward_reachability(
    circuit,
    target_states: Iterable[Sequence[bool]],
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    cluster_threshold: int = 800,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
) -> ReachResult:
    """States that can reach any of ``target_states`` (in any #steps).

    ``target_states`` are given in latch declaration order.  Returns a
    :class:`ReachResult` whose ``extra['backward_chi']`` holds the
    characteristic function (over current-state variables) of the
    backward-reachable set, including the targets themselves.  A budget
    failure records how far the run got (``extra['elapsed']``,
    ``['iteration']``, ``['live_nodes']``) like every forward engine.
    """
    if space is None:
        space = ReachSpace(circuit, slots)
    algebra = _Backward(
        space, target_states=target_states, cluster_threshold=cluster_threshold
    )
    return drive(algebra, circuit, limits, count_states, order_name)


def can_reach(
    circuit,
    target_states: Iterable[Sequence[bool]],
    limits: Optional[ReachLimits] = None,
) -> bool:
    """True iff some target state is reachable from the reset state.

    Decided *backwards*: the reset state must lie in the backward
    reachable set of the targets.
    """
    result = backward_reachability(
        circuit, target_states, limits=limits, count_states=False
    )
    if not result.completed:
        raise ResourceLimitError(
            result.failure or "time", "backward traversal exhausted budget"
        )
    space = result.extra["space"]
    chi = result.extra["backward_chi"]
    assignment = dict(zip(space.s_vars, space.initial_point))
    return space.bdd.evaluate(chi, assignment)
