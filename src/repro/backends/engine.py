"""Adapter from :class:`~repro.backends.protocol.SetBackend` to an engine.

:func:`backend_engine` wraps a backend class in a function with the
standard ``repro.reach.ENGINES`` signature.  The backend's handles
become a :class:`repro.reach.driver.SetAlgebra`, so non-BDD set
representations run the same fix-point driver as the BDD engines:
resource budgets and T.O./M.O./I.O. reporting, per-iteration
checkpoints with kill-resume (set payloads ride the checkpoint
container's ``meta.extra`` slot as JSON), fault-injection hooks,
sanitizer cadence, per-iteration tracing, and the fallback ladder /
scheduler integration that keys off ``ENGINES`` membership.

The loop stops when the union changes nothing, so
``result.iterations`` counts every pass including the final
fix-point-confirming one, directly comparable to the BDD engines'
counting.  Which set is imaged is the driver's exactness policy, keyed
on :attr:`SetBackend.exact`: an over-approximating backend images the
**full reached set** — a zonotope union is an affine *hull*, so
``reached`` holds states no frontier ever held, and a frontier-only
image would declare a "fix point" without ever computing their
successors.  An exact backend images the smaller of the last image and
the reached set; the fix point lands at the same iteration either way,
so the bitset engine's iteration count still equals BFS depth.

On completion ``result.extra`` carries:

* ``"backend"`` — the backend's registry name;
* ``"exact"`` — the reached handle's exactness flag (JSON-safe, so it
  survives the supervisor process boundary);
* ``"reached_states"`` — the reached set as a *set* of
  declaration-order state tuples when small enough to enumerate
  (intentionally non-JSON, so it is available to in-process
  differential tests but dropped from cross-process results).

The monitor runs against a throwaway empty BDD manager: budgets, the
checkpoint container, and the sanitizer all expect one, and an empty
manager gives them a well-formed no-op target (node budgets simply
never trip — backend feasibility is enforced structurally by
``from_circuit``'s caps instead).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence, Type

from .protocol import SetBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reach.common import ReachLimits, ReachResult

#: Largest reached-set cardinality enumerated into
#: ``extra["reached_states"]`` — differential-comparison-sized spaces
#: only.
ENUMERATION_CAP = 4096


def backend_engine(backend_cls: Type[SetBackend]):
    """An ``ENGINES``-compatible engine function for ``backend_cls``."""
    # Imported here, not at module scope: ``repro.reach`` imports this
    # module to register the backend engines, so a top-level import of
    # ``repro.reach`` would be circular when ``repro.backends`` is
    # imported first.
    from ..reach.driver import SetAlgebra, drive

    class BackendSets(SetAlgebra):
        """``backend_cls`` handles as the driver's set algebra."""

        name = backend_cls.name
        exact = backend_cls.exact
        chi = True
        peak = 0

        def setup(self, initial_points) -> None:
            self.backend = backend_cls.from_circuit(self.circuit, **self.options)
            self.reached = self.frontier = self.backend.initial(initial_points)

        def restore(self, snapshot) -> int:
            payload = snapshot.meta["extra"]["reached"]
            self.reached = self.frontier = self.backend.from_payload(payload)
            return snapshot.iteration

        def image(self, frontier):
            with self.tracer.span("image"):
                return self.backend.image(frontier)

        def add(self, image):
            backend = self.backend
            with self.tracer.span("union"):
                reached = backend.union(self.reached, image)
            with self.tracer.span("fixpoint_test"):
                fixed = backend.equal(reached, self.reached)
            if fixed:
                # Keep ``reached``: a final over-approximate image
                # absorbed by the union must not taint the flag — the
                # fix point certifies reached contains its own (true)
                # image, so its exactness stands on its own history.
                return False
            self.reached = reached
            self.peak = max(self.peak, self.size(reached) + self.size(image))
            self.advance(image)
            return True

        def size(self, s) -> int:
            return self.backend.size(s)

        def snapshot(self):
            return {"meta": {"reached": self.backend.to_payload(self.reached)}}

        def audit_roots(self):
            return {}

        def export(self, result: ReachResult, count_states: bool) -> None:
            if not result.completed:
                return
            backend, reached = self.backend, self.reached
            # peak_live_nodes is the cross-engine "peak representation"
            # statistic; for backends that is the largest
            # reached+image footprint any iteration held.
            result.peak_live_nodes = max(self.peak, backend.size(reached))
            result.reached_size = backend.size(reached)
            result.extra["backend"] = backend.name
            result.extra["exact"] = bool(getattr(reached, "exact", True))
            states = backend.count(reached)
            if count_states:
                result.num_states = states
            if states <= ENUMERATION_CAP:
                result.extra["reached_states"] = set(
                    backend.enumerate_states(reached, ENUMERATION_CAP)
                )

    def engine(
        circuit,
        slots: Optional[Sequence[str]] = None,
        limits: Optional[ReachLimits] = None,
        count_states: bool = True,
        order_name: str = "?",
        space: Any = None,
        initial_points=None,
        checkpointer=None,
        tracer=None,
        sanitize=None,
        **options: Any,
    ) -> ReachResult:
        # ``slots`` / ``space`` are BDD-layout concerns with no backend
        # analogue; accepted (the harness passes them) and ignored.
        del slots, space
        algebra = BackendSets(circuit=circuit, options=options)
        return drive(
            algebra, circuit, limits, count_states, order_name,
            initial_points, checkpointer, tracer, sanitize,
        )

    engine.__name__ = "%s_reachability" % backend_cls.name
    engine.__qualname__ = engine.__name__
    engine.__doc__ = (
        "Breadth-first reachability over the %r backend "
        "(generated by repro.backends.engine.backend_engine)."
        % backend_cls.name
    )
    return engine
