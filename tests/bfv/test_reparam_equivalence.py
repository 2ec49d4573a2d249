"""Re-parameterization checks against the reference formulation.

Two suites, both node-for-node against :mod:`tests.bfv.reference_union`:

* ``raw_union`` on random *parameterized families* — vectors over extra
  parameter variables that are canonical for every parameter point, as
  the intermediates of parameter elimination are.  The families share
  components while both exclusion conditions are non-FALSE, the case
  the union's identity skip must get right.
* ``eliminate_params`` on raw next-state vectors of real circuits,
  against an elimination that cofactors every component and refreshes
  every support after each step.
"""

import itertools
import random

import pytest

from repro.bdd import BDD
from repro.bfv import BFV, from_characteristic, reparameterize
from repro.bfv.ops import raw_union
from repro.bfv.reparam import SCHEDULES, eliminate_params
from repro.circuits.catalog import resolve
from repro.reach.common import ReachSpace
from repro.sim.symbolic import SymbolicSimulator

from ..conftest import all_subsets, chi_of
from .reference_union import reference_eliminate_params, reference_union

# Choice variables v0..v3 with the parameters w0, w1 interleaved, so the
# parameters sit between choice levels in the order.
NAMES = ["v0", "w0", "v1", "v2", "w1", "v3"]
CHOICE = (0, 2, 3, 5)
PARAMS = (1, 4)
#: The per-point sets are products of parts over bits 0, 1-2 and 3.
PARTS = (list(all_subsets(1)), list(all_subsets(2)), list(all_subsets(1)))


def canonical(bdd, points):
    chi = chi_of(bdd, CHOICE, points)
    return from_characteristic(bdd, CHOICE, chi).components


def family(bdd, sets_by_point):
    """Components that equal ``canonical(S_p)`` at each parameter point."""
    comps = [bdd.false] * len(CHOICE)
    for point, points in sets_by_point.items():
        guard = bdd.cube(dict(zip(PARAMS, point)))
        for i, f in enumerate(canonical(bdd, points)):
            comps[i] = bdd.or_(comps[i], bdd.and_(guard, f))
    return comps


def product(parts):
    """The set of width-4 points ``parts[0] x parts[1] x parts[2]``."""
    return {a + b + c for a, b, c in itertools.product(*parts)}


def random_pair(rng):
    """Per-point sets of two families that share some parts.

    Per-point sets are products ``A_p x B_p x C_p``; the canonical
    components of a part depend only on that part, so two families
    that use the same part at every point share its components.  A
    pair shares each part with probability one half: when it shares
    ``B`` but not ``A`` and ``C``, the shared middle components are
    united under non-FALSE exclusion conditions and a differing
    component follows them.
    """
    shared = [rng.random() < 0.5 for _ in PARTS]
    f_sets, g_sets = {}, {}
    for point in itertools.product((False, True), repeat=len(PARAMS)):
        f_parts = [rng.choice(options) for options in PARTS]
        g_parts = [
            f_part if share else rng.choice(options)
            for f_part, share, options in zip(f_parts, shared, PARTS)
        ]
        f_sets[point] = product(f_parts)
        g_sets[point] = product(g_parts)
    return f_sets, g_sets


def at_point(bdd, comps, point):
    assignment = dict(zip(PARAMS, point))
    return tuple(bdd.cofactor_cube(f, assignment) for f in comps)


class TestParameterizedFamilies:
    def test_union_matches_reference(self):
        rng = random.Random(17)
        bdd = BDD(NAMES)
        shared_under_exclusion = 0
        for _ in range(300):
            f_sets, g_sets = random_pair(rng)
            f = family(bdd, f_sets)
            g = family(bdd, g_sets)
            exclusions = []
            expected = reference_union(bdd, CHOICE, f, g, exclusions)
            assert raw_union(bdd, CHOICE, f, g) == expected
            differs = [a != b for a, b in zip(f, g)]
            for i, (fx, gx) in enumerate(exclusions):
                if (
                    not differs[i]
                    and any(differs[i + 1 :])
                    and bdd.false not in (fx, gx)
                ):
                    shared_under_exclusion += 1
            # Point-wise semantics: the union of the two sets.
            for point, points in f_sets.items():
                assert at_point(bdd, expected, point) == canonical(
                    bdd, points | g_sets[point]
                )
        # The identity skip ran with both operands partly excluded, and
        # a differing component followed it.
        assert shared_under_exclusion >= 40

    def test_eliminating_the_parameters(self):
        rng = random.Random(29)
        bdd = BDD(NAMES)
        for _ in range(40):
            f_sets, _ = random_pair(rng)
            f = family(bdd, f_sets)
            for schedule in SCHEDULES:
                comps = eliminate_params(bdd, CHOICE, f, PARAMS, schedule)
                assert comps == reference_eliminate_params(
                    bdd, CHOICE, f, PARAMS, schedule
                )
            assert tuple(comps) == canonical(
                bdd, set().union(*f_sets.values())
            )


def raw_vectors(name, steps):
    """Raw next-state vectors of the first ``steps`` BFS frontiers.

    Yields ``(bdd, choice_vars, raw, params)`` per step; the reached
    set grows by the production image so later steps see realistic
    from-sets.
    """
    space = ReachSpace(resolve(name))
    bdd = space.bdd
    simulator = SymbolicSimulator(bdd, space.circuit)
    params = list(space.s_vars) + list(space.x_vars)
    rename = dict(zip(space.t_vars, space.s_vars))
    reached = BFV.from_points(bdd, space.s_vars, [space.initial_point])
    for _ in range(steps):
        drivers = {net: bdd.var(v) for net, v in space.input_var.items()}
        drivers.update(zip(space.state_order, reached.components))
        by_net = dict(zip(space.circuit.latches, simulator.next_state(drivers)))
        raw = [by_net[n] for n in space.state_order]
        yield bdd, space.t_vars, raw, params
        image = reparameterize(bdd, space.t_vars, raw, params)
        comps = [bdd.rename(f, rename) for f in image.components]
        grown = reached.union(BFV(bdd, space.s_vars, comps, validate=False))
        if grown == reached:
            return
        reached = grown


class TestCircuitNextStateVectors:
    @pytest.mark.parametrize(
        "name, steps",
        [("s27", 10), ("traffic", 20), ("fifo3", 20), ("s1269s", 25)],
    )
    def test_eliminate_params_matches_reference(self, name, steps):
        for bdd, choice_vars, raw, params in raw_vectors(name, steps):
            assert eliminate_params(
                bdd, choice_vars, raw, params
            ) == reference_eliminate_params(bdd, choice_vars, raw, params)
