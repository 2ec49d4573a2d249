"""Exhaustive width-3 checks of the BFV set algebra (paper Secs 2.3-2.4).

Width 3 has 255 non-empty sets, so 65,025 ordered pairs.  Every pair is
checked for union and intersection against Python-set semantics, and
the production union is checked node-for-node against the reference
formulation in :mod:`tests.bfv.reference_union`.  The whole module takes
a few seconds.
"""

import pytest

from repro.bdd import BDD
from repro.bfv import from_characteristic
from repro.bfv.ops import raw_intersect, raw_union

from ..conftest import all_subsets, chi_of
from .reference_union import reference_union

VARIABLES = (0, 1, 2)


@pytest.fixture(scope="module")
def space():
    """The manager and every non-empty width-3 set's components."""
    bdd = BDD(["v0", "v1", "v2"])
    comps = {}
    for subset in all_subsets(3):
        vec = from_characteristic(
            bdd, VARIABLES, chi_of(bdd, VARIABLES, subset)
        )
        assert set(vec.enumerate()) == subset
        comps[subset] = vec.components
    return bdd, comps


class TestExhaustiveWidth3:
    def test_canonical_forms_are_unique(self, space):
        _, comps = space
        assert len(comps) == 255
        assert len(set(comps.values())) == 255

    def test_union_all_pairs(self, space):
        bdd, comps = space
        for a, fa in comps.items():
            for b, fb in comps.items():
                result = tuple(raw_union(bdd, VARIABLES, fa, fb))
                assert result == comps[a | b], (sorted(a), sorted(b))

    def test_union_matches_reference_all_pairs(self, space):
        bdd, comps = space
        for a, fa in comps.items():
            for b, fb in comps.items():
                assert raw_union(bdd, VARIABLES, fa, fb) == reference_union(
                    bdd, VARIABLES, fa, fb
                ), (sorted(a), sorted(b))

    def test_intersect_all_pairs(self, space):
        bdd, comps = space
        for a, fa in comps.items():
            for b, fb in comps.items():
                result = raw_intersect(bdd, VARIABLES, fa, fb)
                if a & b:
                    assert tuple(result) == comps[a & b], (
                        sorted(a),
                        sorted(b),
                    )
                else:
                    assert result is None, (sorted(a), sorted(b))
