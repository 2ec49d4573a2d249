"""Reference BFV union: the paper's Sec 2.3 recurrence, term by term.

This is the plain formulation :func:`repro.bfv.ops.raw_union` started
from — every component goes through the full exclusion-condition step,
with ``h_i = h1 OR (NOT(h1 OR h0) AND v_i)`` and the exclusion updates
written out as sums of products.  The production union copies shared
components through and uses a fused ``ite`` form; tests check it is
node-identical to this oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def reference_union(
    bdd,
    choice_vars: Sequence[int],
    f_comps: Sequence[int],
    g_comps: Sequence[int],
    exclusions: Optional[list] = None,
) -> List[int]:
    """Union of two structurally valid vectors, one full step per bit.

    ``exclusions``, when given, receives the pair ``(fx, gx)`` of
    exclusion conditions each component was computed under.
    """
    h: List[int] = []
    fx = bdd.false
    gx = bdd.false
    and_, or_, not_ = bdd.and_, bdd.or_, bdd.not_
    for i, v in enumerate(choice_vars):
        if exclusions is not None:
            exclusions.append((fx, gx))
        r0, r1 = bdd.cofactors(f_comps[i], v)
        f1, f0 = r0, not_(r1)
        r0, r1 = bdd.cofactors(g_comps[i], v)
        g1, g0 = r0, not_(r1)
        h1 = or_(and_(f1, g1), or_(and_(f1, gx), and_(fx, g1)))
        h0 = or_(and_(f0, g0), or_(and_(f0, gx), and_(fx, g0)))
        free = not_(or_(h1, h0))
        h_i = or_(h1, and_(free, bdd.var(v)))
        h.append(h_i)
        not_h = not_(h_i)
        fx = or_(fx, or_(and_(f0, h_i), and_(f1, not_h)))
        gx = or_(gx, or_(and_(g0, h_i), and_(g1, not_h)))
    return h


def reference_eliminate_params(
    bdd,
    choice_vars: Sequence[int],
    comps: Sequence[int],
    params: Sequence[int],
    schedule: str = "support",
) -> List[int]:
    """Parameter elimination that cofactors every component each step.

    Same schedule as :func:`repro.bfv.reparam.eliminate_params` (its
    cost function is reused), but every component is cofactored, the
    reference union runs on the whole vector and every support is
    refreshed after each elimination.
    """
    from repro.bfv.reparam import _cost

    comps = list(comps)
    pending = list(dict.fromkeys(params))
    supports = [set(bdd.support(f)) for f in comps]
    while pending:
        if schedule == "fixed":
            param = pending.pop(0)
        else:
            param = min(
                pending,
                key=lambda w: _cost(bdd, w, supports, comps, schedule),
            )
            pending.remove(param)
        if not any(param in s for s in supports):
            continue
        pairs = [bdd.cofactors(f, param) for f in comps]
        comps = reference_union(
            bdd, choice_vars, [p[0] for p in pairs], [p[1] for p in pairs]
        )
        supports = [set(bdd.support(f)) for f in comps]
    return comps
