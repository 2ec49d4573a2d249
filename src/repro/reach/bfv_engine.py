"""Reachability with Boolean functional vectors (paper Figure 2).

The paper's flow: the reached set is held as a canonical BFV over the
current-state choice variables; each iteration

1. **symbolic simulation** — drive the circuit's state nets with the
   from-set's components and its inputs with fresh variables, producing
   the raw next-state vector over (state-choice, input) parameters;
2. **re-parameterization** (Sec 2.6) — existentially eliminate those
   parameters over the next-state choice variables, yielding the
   canonical image, then rename next-state choices back to current;
3. **set union** (Sec 2.3) — accumulate into the reached set;
4. **fix-point test** — canonical vectors are compared componentwise.

No characteristic function is ever constructed.  The *selection
heuristic* of Figures 1/2 picks the representation-smaller of the image
and the reached set as the next from-set.

:class:`Simulation` (steps 1-2) is shared with the ``cbm``, ``conj``
and ``bfv-sat`` engines; :class:`VectorSets` (steps 3-4) with
``conj`` and ``bfv-sat``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..bfv import BFV
from ..bfv.reparam import eliminate_params
from ..sim.symbolic import SymbolicSimulator
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import SetAlgebra, drive


class Simulation:
    """Figure 2's image: symbolic simulation, then re-parameterization.

    ``inputs`` (default: every input variable) are driven by their own
    variables and stay parameters; the rest must be driven by the
    ``constants`` handed to :meth:`image`.  The input drivers are
    set-up pins of ``algebra``.
    """

    def __init__(self, algebra: SetAlgebra, schedule: str, inputs=None):
        space = algebra.space
        bdd = space.bdd
        if inputs is None:
            inputs = space.x_vars
        self.space = space
        self.schedule = schedule
        self.tracer = algebra.tracer
        self.simulator = SymbolicSimulator(bdd, space.circuit)
        self.drivers = {
            net: algebra.pin(bdd.var(v))
            for net, v in space.input_var.items()
            if v in inputs
        }
        self.params = list(space.s_vars) + list(inputs)
        self.latch_order = list(space.circuit.latches)
        self.rename_map = dict(zip(space.t_vars, space.s_vars))

    def simulate(self, components, constants=None) -> List[int]:
        """Raw next-state vector (component order) for a from-set."""
        drivers: Dict[str, int] = dict(self.drivers)
        if constants:
            drivers.update(constants)
        drivers.update(zip(self.space.state_order, components))
        by_net = dict(zip(self.latch_order, self.simulator.next_state(drivers)))
        return [by_net[n] for n in self.space.state_order]

    def reparam(self, raw: List[int]) -> BFV:
        """Canonical image vector of a raw next-state vector."""
        space = self.space
        bdd = space.bdd
        with self.tracer.span("reparam"):
            image_t = eliminate_params(
                bdd, space.t_vars, raw, self.params, self.schedule
            )
            comps = [bdd.rename(f, self.rename_map) for f in image_t]
            return BFV(bdd, space.s_vars, comps, validate=False)

    def image(self, frontier: BFV, constants=None) -> BFV:
        with self.tracer.span("image"):
            raw = self.simulate(frontier.components, constants)
        return self.reparam(raw)


class VectorSets(SetAlgebra):
    """Sets as canonical BFVs (which pin their own components)."""

    def add(self, image) -> bool:
        """Unite ``image`` into reached; False if it adds nothing."""
        with self.tracer.span("union"):
            reached = image.union(self.reached)
        with self.tracer.span("fixpoint_test"):
            fixed = reached == self.reached
        if fixed:
            return False
        self.reached = reached
        self.advance(image)
        return True

    def size(self, vec) -> int:
        return vec.shared_size()

    def count(self, vec) -> int:
        return vec.count()


class _Figure2(VectorSets):
    name = "bfv"

    def setup(self, initial_points) -> None:
        space = self.space
        self.simulation = Simulation(self, self.schedule)
        self.reached = self.frontier = BFV.from_points(
            space.bdd, space.s_vars, space.initial_point_set(initial_points)
        )

    def image(self, frontier: BFV) -> BFV:
        return self.simulation.image(frontier)


def bfv_reachability(
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
    """Run Figure 2 reachability; returns a :class:`ReachResult`.

    ``result.extra['space']`` / ``['reached']`` hold the
    :class:`ReachSpace` and final reached :class:`BFV` for
    cross-validation (when the run completes).  With a ``checkpointer``
    (see :mod:`repro.harness.checkpoint`) the reached/frontier vectors
    are snapshotted every iteration and the run resumes from the latest
    valid snapshot.  With a ``tracer`` (see :mod:`repro.obs`) every
    iteration emits a metric record and the loop phases are timed;
    ``result.extra['obs']`` carries the phase summary.  With a
    ``sanitize`` rate (see :mod:`repro.analysis.sanitizer`) sampled
    iterations audit manager and vector invariants;
    ``result.extra['sanitizer']`` carries the audit counts.
    """
    if space is None:
        space = ReachSpace(circuit, slots)
    algebra = _Figure2(space, schedule=schedule, selection=selection_heuristic)
    return drive(
        algebra, circuit, limits, count_states, order_name,
        initial_points, checkpointer, tracer, sanitize,
    )
