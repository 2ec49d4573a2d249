"""The Coudert-Berthet-Madre flow (paper Figure 1) — the motivation baseline.

Image computation is done with Boolean functional vectors, but all *set
manipulation* happens on characteristic functions, so every iteration
pays representation conversions.  Two historical image methods are
provided (``image_method``):

* ``"simulate"`` — the original CBM flow [6]: convert the from-set chi
  to a BFV, drive the symbolic simulator with its components, and
  re-parameterize (two conversions per iteration);
* ``"constrain"`` — the follow-up flow of Coudert & Madre [7], which
  the paper quotes as "replac[ing] the symbolic simulation with a range
  computation by constraining the transition functions with the
  characteristic function": each transition function is generalized
  cofactored (``constrain``) by the from-set and the image is the range
  of the constrained vector — avoiding the chi-to-BFV conversion.

The per-iteration conversion time is recorded separately
(``result.conversion_seconds``) — the cost the paper's direct BFV
algorithms eliminate (compare Figures 1 and 2).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Sequence

from ..bfv import from_characteristic, to_characteristic
from .bfv_engine import Simulation
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import drive
from .tr_engine import ChiSets, next_state_functions


class _Figure1(ChiSets):
    name = "cbm"
    conversion = 0.0
    image_vec = None

    def setup(self, initial_points) -> None:
        space = self.space
        self.simulation = Simulation(self, self.schedule)
        if self.image_method == "constrain":
            by_net = next_state_functions(space, self.simulation.simulator)
            self.deltas = [self.pin(by_net[n]) for n in space.state_order]
        self.start(space.initial_chi(initial_points))

    @contextmanager
    def _converting(self):
        """A ``chi_conversion`` span whose time also counts as conversion."""
        with self.tracer.span("chi_conversion"):
            t0 = time.monotonic()
            yield
            self.conversion += time.monotonic() - t0

    def image(self, from_chi: int) -> int:
        bdd = self.bdd
        if self.image_method == "simulate":
            # chi -> BFV conversion (the cost Figure 2 avoids).
            with self._converting():
                frontier = from_characteristic(bdd, self.space.s_vars, from_chi)
            self.image_vec = self.simulation.image(frontier)
        else:
            # Range computation [7]: generalized cofactor of each
            # transition function by the from-set; the image is the
            # range of the constrained vector.
            with self.tracer.span("image"):
                raw = [bdd.constrain(delta, from_chi) for delta in self.deltas]
            self.image_vec = self.simulation.reparam(raw)
        # BFV -> chi conversion.
        with self._converting():
            return to_characteristic(self.image_vec)

    def audit_roots(self):
        return {
            "roots": (self.reached, self.frontier),
            "vectors": (self.image_vec,),
        }

    def export(self, result: ReachResult, count_states: bool) -> None:
        result.conversion_seconds = self.conversion
        super().export(result, count_states)


def cbm_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    schedule: str = "support",
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    image_method: str = "simulate",
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Run the Figure 1 flow; returns a :class:`ReachResult`.

    With a ``tracer`` the per-iteration representation conversions the
    paper's Figure 2 eliminates show up as ``chi_conversion`` spans,
    directly comparable against the BFV engine's phase profile.  With a
    ``sanitize`` rate sampled iterations audit manager invariants and
    the reparameterized image vector; ``result.extra['sanitizer']``
    carries the audit counts.
    """
    if image_method not in ("simulate", "constrain"):
        raise ValueError("unknown image_method %r" % image_method)
    if space is None:
        space = ReachSpace(circuit, slots)
    algebra = _Figure1(
        space,
        schedule=schedule,
        selection=selection_heuristic,
        image_method=image_method,
    )
    return drive(
        algebra, circuit, limits, count_states, order_name,
        initial_points, checkpointer, tracer, sanitize,
    )
