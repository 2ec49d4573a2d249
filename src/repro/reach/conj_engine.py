"""Reachability on McMillan's conjunctive decomposition (paper Sec 2.7).

The paper notes that when the component order equals the BDD variable
order (as in all its experiments, and ours), it is more efficient to run
the Figure 2 flow with the set manipulation carried out on the
conjunctive decomposition, "as explained in Section 2.7".  This engine
does exactly that: image computation is still symbolic simulation +
re-parameterization, but the reached set is a
:class:`repro.bfv.conjunctive.ConjunctiveDecomposition` and the union is
performed on the constraint view.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bfv import BFV
from ..bfv.conjunctive import ConjunctiveDecomposition
from .bfv_engine import Simulation, VectorSets
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import drive


class _Conjunctive(VectorSets):
    """Reached is a decomposition; the frontier stays a BFV."""

    name = "conj"
    export_key = "reached_cd"
    image_vec = image_cd = None

    def setup(self, initial_points) -> None:
        space = self.space
        self.simulation = Simulation(self, self.schedule)
        self.frontier = BFV.from_points(
            space.bdd, space.s_vars, space.initial_point_set(initial_points)
        )
        self.reached = ConjunctiveDecomposition.from_bfv(self.frontier)

    def load(self, snapshot, name):
        vec = snapshot.vectors[name]
        if name == "reached":
            return ConjunctiveDecomposition.from_bfv(vec)
        return vec

    def image(self, frontier: BFV) -> BFV:
        self.image_vec = self.simulation.image(frontier)
        return self.image_vec

    def add(self, image_vec: BFV) -> bool:
        with self.tracer.span("union"):
            self.image_cd = ConjunctiveDecomposition.from_bfv(image_vec)
            reached = self.image_cd.union(self.reached)
        with self.tracer.span("fixpoint_test"):
            fixed = reached == self.reached
        if fixed:
            return False
        self.reached = reached
        self.advance(self.image_cd)
        return True

    def frontier_of(self, cd):
        return self.image_vec if cd is self.image_cd else cd.to_bfv()

    def snapshot(self):
        return {
            "vectors": {
                "reached": self.reached.to_bfv(),
                "frontier": self.frontier,
            }
        }

    def audit_roots(self):
        return {
            "vectors": (self.image_vec, self.frontier),
            "decompositions": (self.reached,),
        }


def conj_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    schedule: str = "support",
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Run Figure 2 with conjunctive-decomposition set manipulation.

    With a ``sanitize`` rate sampled iterations audit the image vector,
    the frontier, and the reached decomposition's constraint-view
    invariants; ``result.extra['sanitizer']`` carries the audit counts.
    """
    if space is None:
        space = ReachSpace(circuit, slots)
    algebra = _Conjunctive(
        space, schedule=schedule, selection=selection_heuristic
    )
    return drive(
        algebra, circuit, limits, count_states, order_name,
        initial_points, checkpointer, tracer, sanitize,
    )
