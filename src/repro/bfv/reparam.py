"""Re-parameterization: canonicalizing raw vectors (paper Sec 2.6).

Symbolic simulation of a circuit produces next-state functions
``N_i(params)`` over the *current-state choice variables and primary
inputs* — an arbitrary vector, not in canonical form.  Canonicalization
quantifies the parameters out existentially:

* a vector with **no** dependence on its own choice variables is, for
  each fixed parameter point, the (trivially canonical) singleton of the
  point it computes;
* eliminating one parameter ``w`` replaces the family ``F(w, .)`` by the
  point-wise union ``F|w=0 ∪ F|w=1`` — computed by the exclusion-condition
  union, which keeps every intermediate canonical per remaining parameter
  point;
* when no parameter is left, the result is the canonical vector of the
  range — the image set.

The paper notes (Sec 3) that a *dynamic quantification schedule* with a
"simple support based cost heuristic" is used, computing supports "to
avoid BDD operations on vector components that do not depend on the
variable being quantified".  :func:`eliminate_params` implements exactly
that: parameters are eliminated cheapest-first, only the components
whose support holds the parameter are cofactored (the union copies the
others through), and only their supports are refreshed after an
elimination.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..errors import BFVError
from . import ops as _ops
from .vector import BFV

#: Available quantification-scheduling strategies.
SCHEDULES = ("support", "size", "fixed")


def _supports(bdd, comps: Sequence[int]) -> List[Set[int]]:
    return [set(bdd.support(f)) for f in comps]


def _cost(
    bdd,
    param: int,
    supports: Sequence[Set[int]],
    comps: Sequence[int],
    schedule: str,
) -> tuple:
    """Cost of eliminating ``param`` next, lower is better.

    ``support`` counts affected components (cheap, the paper's "simple
    support based cost heuristic"); ``size`` weighs them by BDD size;
    ``fixed`` is handled by the caller (no dynamic cost).
    """
    affected = [i for i, s in enumerate(supports) if param in s]
    if schedule == "support":
        primary = len(affected)
    else:  # "size"
        primary = sum(bdd.dag_size(comps[i]) for i in affected)
    first = affected[0] if affected else len(supports)
    # Ties go to the parameter whose first affected component is later.
    return (primary, -first)


def eliminate_params(
    bdd,
    choice_vars: Sequence[int],
    comps: Sequence[int],
    params: Sequence[int],
    schedule: str = "support",
) -> List[int]:
    """Existentially quantify every parameter out of a raw vector.

    ``comps`` must be *canonical for every fixed parameter assignment*
    — trivially true for simulation outputs, which do not mention the
    choice variables at all (each parameter point is a singleton), and
    preserved by every elimination step (the union of two per-point
    canonical vectors is per-point canonical).  Structurally valid but
    per-point non-canonical inputs are outside the contract.  Returns
    the canonical component list of the range.
    """
    if schedule not in SCHEDULES:
        raise BFVError("unknown quantification schedule %r" % schedule)
    comps = list(comps)
    pending = list(dict.fromkeys(params))
    supports = _supports(bdd, comps)
    while pending:
        if schedule == "fixed":
            param = pending.pop(0)
        else:
            param = min(
                pending,
                key=lambda w: _cost(bdd, w, supports, comps, schedule),
            )
            pending.remove(param)
        affected = [i for i, s in enumerate(supports) if param in s]
        if not affected:
            continue
        # Only components whose support holds ``param`` are cofactored;
        # the others enter both operands unchanged, and the union copies
        # them through, so only the affected components change.
        lo = list(comps)
        hi = list(comps)
        for i in affected:
            lo[i], hi[i] = bdd.cofactors(comps[i], param)
        comps = _ops.raw_union(bdd, choice_vars, lo, hi)
        for i in affected:
            supports[i] = set(bdd.support(comps[i]))
    return comps


def reparameterize(
    bdd,
    choice_vars: Sequence[int],
    raw_components: Sequence[int],
    params: Sequence[int],
    schedule: str = "support",
) -> BFV:
    """Canonical BFV of the range of ``raw_components`` over ``params``.

    The main entry point for image computation: feed it the symbolic
    simulation outputs and the variables they were computed over.
    """
    allowed = set(params)
    leftovers = []
    for v_i, f in zip(choice_vars, raw_components):
        allowed.add(v_i)
        leftovers.extend(v for v in bdd.support(f) if v not in allowed)
    if leftovers:
        raise BFVError(
            "raw components depend on unexpected variables: %s"
            % sorted({bdd.var_name(v) for v in leftovers})
        )
    comps = eliminate_params(bdd, choice_vars, raw_components, params, schedule)
    return BFV(bdd, choice_vars, comps, validate=False)
