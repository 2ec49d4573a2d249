"""Set operations on Boolean functional vectors (paper Sections 2.3-2.5).

The three algorithms of the paper work *directly* on the canonical vector —
no characteristic function is built, explicitly or implicitly:

* **union** (Sec 2.3) — tracks per-operand *exclusion conditions*
  ``f^x / g^x``: once a selected bit contradicts what one operand forces,
  that operand is excluded and the remaining components follow the other.
* **intersection** (Sec 2.4) — computes *elimination conditions* ``e_i``
  backwards (choices that lead to an unavoidable forced-one/forced-zero
  conflict downstream), forms an approximate vector ``K``, then performs a
  forward normalization pass substituting each choice variable by the
  actual selected bit ``h_j``.
* **cofactor / quantification** (Sec 2.5) — component-wise Shannon
  cofactors; existential quantification of a *parameter* variable is the
  union of the two cofactors.

A central design point, used heavily by re-parameterization (Sec 2.6): the
raw routines accept components that depend on arbitrary *parameter*
variables in addition to the choice variables.  All equations treat
parameters as inert — for every fixed parameter assignment the computation
is exactly the scalar algorithm — so one union call combines a whole
parameterized family of vectors point-wise.

The raw routines (``raw_*``) take explicit component lists; the public
functions wrap :class:`repro.bfv.vector.BFV` objects and handle the empty
set special cases.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import BFVError
from .vector import BFV


def _conditions(bdd, f: int, v: int) -> Tuple[int, int]:
    """Forced-to-one and forced-to-zero conditions of component ``f``.

    ``f = f1 OR (fc AND v)`` implies ``f1 = f|v=0`` and
    ``f0 = NOT f|v=1``; both are free of ``v``.
    """
    r0, r1 = bdd.cofactors(f, v)
    return r0, bdd.not_(r1)


def raw_union(
    bdd,
    choice_vars: Sequence[int],
    f_comps: Sequence[int],
    g_comps: Sequence[int],
) -> List[int]:
    """Union of two structurally valid vectors (exclusion conditions).

    The paper's recurrence, with ``fx``/``gx`` the exclusion conditions
    of the two operands (both start FALSE):

        h1 = f1 g1 + f1 gx + fx g1        (forced to one in the union)
        h0 = f0 g0 + f0 gx + fx g0        (forced to zero)
        h_i = h1 + NOT(h1 + h0) v_i
        fx' = fx + f0 h_i + f1 NOT h_i    (and ``gx'`` likewise)

    Two identities make it cheaper without changing any result node:

    * **Identity skip.** If ``f_i == g_i`` then ``h1 = f1``, ``h0 = f0``,
      ``h_i = f_i`` and ``fx``/``gx`` are unchanged, for *any*
      exclusion conditions.  This needs only structural validity of the
      component (``f|v=0 AND NOT f|v=1 = 0``), so shared components are
      copied through without a kernel call.  Re-parameterization relies
      on it: a parameter cofactor leaves every component outside its
      support identical in both operands.
    * **Fused step.** ``h_i = ite(v_i, NOT h0, h1)`` and
      ``fx' = fx + ite(h_i, f0, f1)``.  The ``ite`` form of ``h_i``
      needs ``h1 AND h0 = 0``, which follows from the invariant
      ``fx AND gx = 0`` (an assignment never excludes both operands)
      together with structural validity of both operands.
    """
    h: List[int] = []
    fx = gx = bdd.false
    and_, or_, not_, ite = bdd.and_, bdd.or_, bdd.not_, bdd.ite
    for v, f, g in zip(choice_vars, f_comps, g_comps):
        if f == g:
            h.append(f)
            continue
        f1, f0 = _conditions(bdd, f, v)
        g1, g0 = _conditions(bdd, g, v)
        # Forced in the union iff forced in both operands, or forced in
        # the only operand still included.
        h1 = or_(and_(f1, or_(g1, gx)), and_(fx, g1))
        h0 = or_(and_(f0, or_(g0, gx)), and_(fx, g0))
        h_i = ite(bdd.var(v), not_(h0), h1)
        h.append(h_i)
        # An operand becomes excluded when the selected bit contradicts
        # the value it forces.
        fx = or_(fx, ite(h_i, f0, f1))
        gx = or_(gx, ite(h_i, g0, g1))
    return h


def raw_intersect(
    bdd,
    choice_vars: Sequence[int],
    f_comps: Sequence[int],
    g_comps: Sequence[int],
) -> Optional[List[int]]:
    """Intersection of two canonical vectors (elimination conditions).

    Returns the component list, or ``None`` when the intersection is
    empty.  Operands must be parameter-free (canonical): with parameters,
    emptiness would vary per parameter point, which the BFV form cannot
    express.
    """
    n = len(choice_vars)
    and_, or_, not_ = bdd.and_, bdd.or_, bdd.not_
    f_conds = [
        _conditions(bdd, f_comps[i], choice_vars[i]) for i in range(n)
    ]
    g_conds = [
        _conditions(bdd, g_comps[i], choice_vars[i]) for i in range(n)
    ]
    # Backward pass: elim[i] = selections whose consequences conflict
    # downstream of component i, no matter how later choices are made.
    # Note one refinement over the paper's abbreviated recurrence
    # ``e_{i-1} = conflict_i OR forall v_i . e_i``: when bit ``i`` is
    # *forced* by an operand, the choice variable does not control the
    # bit, so the downstream condition must be taken at the forced value
    # instead of universally quantified (the free-choice case reduces to
    # the paper's ``forall``).
    elim = [bdd.false] * n
    carry = bdd.false
    for i in range(n - 1, -1, -1):
        elim[i] = carry
        v = choice_vars[i]
        f1, f0 = f_conds[i]
        g1, g0 = g_conds[i]
        conflict = or_(and_(f0, g1), and_(f1, g0))
        forced_one = or_(f1, g1)
        forced_zero = or_(f0, g0)
        free = not_(or_(forced_one, forced_zero))
        e_lo, e_hi = bdd.cofactors(carry, v)
        carry = or_(
            or_(conflict, and_(forced_one, e_hi)),
            or_(
                and_(forced_zero, e_lo),
                and_(free, and_(e_hi, e_lo)),
            ),
        )
    if carry == bdd.true:
        return None
    if carry != bdd.false:
        raise BFVError(
            "intersection of parameterized vectors is not supported"
        )
    # Approximation K: forced if forced in either operand, or if the
    # opposite choice leads to an unavoidable downstream conflict.
    k1 = [bdd.false] * n
    k0 = [bdd.false] * n
    for i in range(n):
        v = choice_vars[i]
        f1, f0 = f_conds[i]
        g1, g0 = g_conds[i]
        e0, e1 = bdd.cofactors(elim[i], v)
        k1[i] = or_(or_(f1, g1), e0)
        k0[i] = or_(or_(f0, g0), e1)
    # Forward pass: substitute the restricted choices for the choice
    # variables so downstream conditions see the *selected* bits.
    h: List[int] = []
    subst = {}
    for i in range(n):
        h1 = bdd.vector_compose(k1[i], subst)
        h0 = bdd.vector_compose(k0[i], subst)
        if and_(h1, h0) != bdd.false:
            raise BFVError(
                "intersection reached an inconsistent selection; "
                "operands were not canonical"
            )
        # Disjoint forcing conditions: the fused form of
        # ``h1 + NOT(h1 + h0) v_i`` (see :func:`raw_union`).
        h_i = bdd.ite(bdd.var(choice_vars[i]), not_(h0), h1)
        h.append(h_i)
        subst[choice_vars[i]] = h_i
    return h


def union(left: BFV, right: BFV) -> BFV:
    """Set union of two BFVs on the same choice variables (Sec 2.3)."""
    if not left.same_space(right):
        raise BFVError("union requires matching choice variables")
    if left.is_empty:
        return right
    if right.is_empty:
        return left
    comps = raw_union(
        left.bdd, left.choice_vars, left.components, right.components
    )
    return BFV(left.bdd, left.choice_vars, comps, validate=False)


def intersect(left: BFV, right: BFV) -> BFV:
    """Set intersection of two BFVs (Sec 2.4)."""
    if not left.same_space(right):
        raise BFVError("intersection requires matching choice variables")
    if left.is_empty or right.is_empty:
        return BFV.empty(left.bdd, left.choice_vars)
    comps = raw_intersect(
        left.bdd, left.choice_vars, left.components, right.components
    )
    if comps is None:
        return BFV.empty(left.bdd, left.choice_vars)
    return BFV(left.bdd, left.choice_vars, comps, validate=False)


def is_subset(left: BFV, right: BFV) -> bool:
    """Containment test via canonicity: ``L ⊆ R iff L ∪ R == R``."""
    if left.is_empty:
        return True
    if right.is_empty:
        return False
    return union(left, right) == right


def vector_cofactor(vector: BFV, index: int, value: bool) -> BFV:
    """Shannon cofactor of the vector w.r.t. choice ``index`` (Sec 2.5).

    Fixes choice variable ``v_index`` to ``value`` in every component.
    The result is a structurally valid vector whose range is the set of
    members selected when that choice is fixed; it is the expansion step
    used by quantification.
    """
    bdd = vector.bdd
    comps = vector._require_nonempty()
    v = vector.choice_vars[index]
    new = [bdd.cofactor(f, v, value) for f in comps]
    return BFV(bdd, vector.choice_vars, new, validate=False)


def _aux_param(bdd) -> int:
    """A reserved parameter variable for bit-level quantification."""
    name = "__bfv_aux__"
    try:
        return bdd.var_index(name)
    except Exception:
        return bdd.add_var(name)


def _rebound(vector: BFV, index: int, aux: int) -> List[int]:
    """Components with choice ``index`` rebound to the parameter ``aux``.

    Downstream components keep following the *original* selection of bit
    ``index`` (now driven by the parameter), while the component itself
    is freed for a new role.
    """
    bdd = vector.bdd
    v = vector.choice_vars[index]
    return [bdd.rename(f, {v: aux}) for f in vector.components]


def smooth(vector: BFV, index: int) -> BFV:
    """Set-level existential quantification of bit ``index``.

    ``smooth(S, i) = { X : X[i<-0] in S  or  X[i<-1] in S }`` — the
    analogue of smoothing a characteristic function.  Implemented by
    rebinding the original choice of bit ``i`` to a parameter, freeing
    component ``i`` (it becomes an unconstrained choice), and eliminating
    the parameter by the union-of-cofactors rule.
    """
    from . import reparam as _reparam

    if vector.is_empty:
        return vector
    bdd = vector.bdd
    aux = _aux_param(bdd)
    comps = _rebound(vector, index, aux)
    comps[index] = bdd.var(vector.choice_vars[index])
    comps = _reparam.eliminate_params(bdd, vector.choice_vars, comps, [aux])
    return BFV(bdd, vector.choice_vars, comps, validate=False)


def project(vector: BFV, keep_indices) -> BFV:
    """Smooth away every bit *not* in ``keep_indices``.

    The result is the cylinder over the projection of the set onto the
    kept bits (still a set of full-width vectors; the dropped bits are
    free).  Useful for abstraction queries — "which values can the
    counter bits take, regardless of the datapath?".
    """
    keep = set(keep_indices)
    unknown = keep - set(range(vector.width))
    if unknown:
        raise BFVError("project indices out of range: %s" % sorted(unknown))
    result = vector
    for index in range(vector.width):
        if index not in keep:
            result = smooth(result, index)
            if result.is_empty:
                break
    return result


def consensus(vector: BFV, index: int) -> BFV:
    """Set-level universal quantification of bit ``index``.

    ``consensus(S, i) = { X : X[i<-0] in S  and  X[i<-1] in S }``.
    For each constant ``b``, the members with bit ``i`` equal to ``b``
    are selected by intersecting with the half-space ``x_i = b``; in the
    resulting canonical vector the bit is forced, so every later
    component is independent of its choice variable and the bit can be
    freed in place, yielding the canonical cylinder
    ``U_b = { X : X[i<-b] in S }``.  The consensus is ``U_0 ∩ U_1``.
    """
    if vector.is_empty:
        return vector
    bdd = vector.bdd
    cylinders = []
    for value in (False, True):
        half_comps = [bdd.var(v) for v in vector.choice_vars]
        half_comps[index] = bdd.true if value else bdd.false
        half = intersect(
            vector,
            BFV(bdd, vector.choice_vars, half_comps, validate=False),
        )
        if half.is_empty:
            return half
        comps = list(half.components)
        comps[index] = bdd.var(vector.choice_vars[index])
        cylinders.append(BFV(bdd, vector.choice_vars, comps, validate=False))
    return intersect(cylinders[0], cylinders[1])
