"""The :class:`SetBackend` protocol: pluggable symbolic set representations.

The paper's BFV representation is one point in a space of symbolic set
representations.  This module pins down the *minimal* contract a
representation must satisfy to drive the breadth-first reachability loop
and to serve as a differential oracle for the BDD-substrate engines:

* **build from a netlist** — :meth:`SetBackend.from_circuit`;
* **set construction** — :meth:`~SetBackend.initial`,
  :meth:`~SetBackend.from_points`, :meth:`~SetBackend.empty`,
  :meth:`~SetBackend.universe`;
* **transformers** — :meth:`~SetBackend.image` /
  :meth:`~SetBackend.pre_image` (one synchronous step forward /
  backward over all input valuations) and :meth:`~SetBackend.union`;
* **fix-point test** — :meth:`~SetBackend.equal` (set equality; the
  reachability loop stops when ``union(reached, image) == reached``);
* **statistics** — :meth:`~SetBackend.count` (number of states) and
  :meth:`~SetBackend.size` (representation size);
* **canonical state enumeration** — :meth:`~SetBackend.enumerate_states`
  yields latch-declaration-order tuples for small spaces, the common
  currency the differential campaign compares in.

Set handles are backend-specific opaque objects with one mandatory
attribute: ``exact``.

**Exactness semantics.**  A handle with ``exact=True`` denotes *exactly*
the set its construction history describes.  ``exact=False`` means the
handle is a **sound over-approximation**: it contains every state of the
true set and possibly more.  Backends must never under-approximate —
``exact`` is a one-way ratchet (any operation with an inexact operand
yields an inexact result; an exact operation on exact operands stays
exact).  The explicit bitset backend (:mod:`repro.backends.bitset`) is
exact everywhere; the logical-zonotope backend
(:mod:`repro.backends.zonotope`) is exact for XOR/NOT-dominated
structure and over-approximates through AND-induced generator residues
and non-coset unions, flagging each loss of precision.

Backends plug into the reachability harness through
:func:`repro.backends.engine.backend_engine`, which adapts any
``SetBackend`` subclass to the standard engine signature (budgets,
checkpointing, tracing, telemetry) and registers it in
``repro.reach.ENGINES`` — see ``docs/backends.md`` for the full contract
and a how-to-add-a-backend walkthrough.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

State = Tuple[bool, ...]


class SetBackend(abc.ABC):
    """Abstract symbolic set representation over one circuit's state space.

    Subclasses fix a representation for subsets of the circuit's
    ``2**num_latches`` state space and implement the operations below.
    All state tuples cross the boundary in **latch declaration order**
    (the order of ``circuit.latches``), matching
    :func:`repro.sim.explicit_reachable` and
    :meth:`repro.reach.common.ReachSpace.initial_point_set`.
    """

    #: Registry/engine name of the backend (e.g. ``"bitset"``).
    name: str = "?"
    #: False when operations may over-approximate (handles can come out
    #: with ``exact=False``); the reachability driver then images the
    #: full reached set instead of a frontier.
    exact: bool = True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def from_circuit(cls, circuit: Any, **options: Any) -> "SetBackend":
        """Build a backend instance from a validated :class:`Circuit`.

        Feasibility limits (state-space caps, input-valuation caps) are
        enforced here with :class:`repro.errors.ResourceLimitError`
        tagged ``"memory"``, so an infeasible circuit degrades to an
        M.O. result instead of crashing the attempt.
        """

    @abc.abstractmethod
    def initial(self, initial_points: Optional[Sequence[Sequence[bool]]] = None) -> Any:
        """The initial state set (default: the circuit's reset state).

        ``initial_points``, when given, lists initial states in latch
        declaration order — the same convention as
        :meth:`repro.reach.common.ReachSpace.initial_point_set`.
        """

    @abc.abstractmethod
    def from_points(self, points: Iterable[Sequence[bool]]) -> Any:
        """A set holding exactly ``points`` — or, for representations
        that cannot express arbitrary finite sets, the tightest
        representable superset with ``exact`` flagged accordingly."""

    @abc.abstractmethod
    def empty(self) -> Any:
        """The empty set."""

    @abc.abstractmethod
    def universe(self) -> Any:
        """The full state space."""

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def image(self, s: Any) -> Any:
        """States reachable from ``s`` in exactly one synchronous step,
        over every primary-input valuation."""

    @abc.abstractmethod
    def pre_image(self, s: Any) -> Any:
        """States with at least one successor in ``s`` (existential
        backward step over every primary-input valuation)."""

    @abc.abstractmethod
    def union(self, a: Any, b: Any) -> Any:
        """Set union — or the representation's tightest superset of it,
        with ``exact`` flagged when precision is lost."""

    # ------------------------------------------------------------------
    # Tests and statistics
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def equal(self, a: Any, b: Any) -> bool:
        """Set equality (the reachability fix-point test).

        Compares the *sets*, not the exactness flags: two handles
        denoting the same set are equal even if one was built
        approximately.
        """

    def subset(self, a: Any, b: Any) -> bool:
        """``a`` is a subset of ``b``.

        Default implementation via the union/equality laws
        (``a <= b  iff  a | b == b``), which is exact for any backend
        whose union of a set with a superset returns the superset —
        true for both shipped backends.  Override when a direct test is
        cheaper.
        """
        return self.equal(self.union(a, b), b)

    @abc.abstractmethod
    def contains(self, s: Any, point: Sequence[bool]) -> bool:
        """Membership of one declaration-order state tuple."""

    @abc.abstractmethod
    def count(self, s: Any) -> int:
        """Number of states in ``s`` (of the represented superset when
        ``s.exact`` is false)."""

    @abc.abstractmethod
    def size(self, s: Any) -> int:
        """Representation size (the analogue of shared BDD nodes)."""

    @abc.abstractmethod
    def enumerate_states(
        self, s: Any, limit: Optional[int] = None
    ) -> List[State]:
        """All member states as declaration-order tuples, sorted.

        Raises :class:`repro.errors.ResourceLimitError` tagged
        ``"memory"`` when the set holds more than ``limit`` states —
        enumeration is meant for small (differential-comparison-sized)
        spaces only.
        """

    # ------------------------------------------------------------------
    # Checkpoint serialization
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def to_payload(self, s: Any) -> Dict[str, Any]:
        """JSON-safe serialization of a set handle (checkpoint rides in
        the container's ``meta.extra`` slot)."""

    @abc.abstractmethod
    def from_payload(self, data: Dict[str, Any]) -> Any:
        """Inverse of :meth:`to_payload`."""
