"""Set-union tests (paper Sec 2.3): exhaustive, algebraic and randomized.

The exhaustive width-2 block checks *all* 225 pairs of non-empty subsets
for exact canonical results (width 3 is exhaustive in
``test_exhaustive_width3``), and hypothesis covers wider widths against
Python-set semantics.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.bfv import BFV, from_characteristic, union
from repro.bfv.ops import raw_union
from repro.errors import BFVError

from ..conftest import all_subsets, chi_of
from .reference_union import reference_union


def make(bdd, variables, subset):
    return from_characteristic(bdd, variables, chi_of(bdd, variables, subset))


class TestExhaustiveWidth2:
    def test_all_pairs(self):
        bdd = BDD(["v0", "v1"])
        variables = (0, 1)
        vectors = {s: make(bdd, variables, s) for s in all_subsets(2)}
        for a, fa in vectors.items():
            for b, fb in vectors.items():
                result = union(fa, fb)
                assert result == vectors[a | b], (sorted(a), sorted(b))


class TestAlgebraicProperties:
    @pytest.fixture
    def setup(self):
        bdd = BDD(["v0", "v1", "v2"])
        variables = (0, 1, 2)
        rng = random.Random(5)
        subsets = rng.sample(list(all_subsets(3)), 12)
        vectors = [make(bdd, variables, s) for s in subsets]
        return bdd, variables, vectors

    def test_idempotent(self, setup):
        _, _, vectors = setup
        for vec in vectors:
            assert union(vec, vec) == vec

    def test_commutative(self, setup):
        _, _, vectors = setup
        for a in vectors[:6]:
            for b in vectors[6:]:
                assert union(a, b) == union(b, a)

    def test_associative(self, setup):
        _, _, vectors = setup
        a, b, c = vectors[0], vectors[1], vectors[2]
        assert union(union(a, b), c) == union(a, union(b, c))

    def test_empty_is_identity(self, setup):
        bdd, variables, vectors = setup
        empty = BFV.empty(bdd, variables)
        for vec in vectors:
            assert union(vec, empty) == vec
            assert union(empty, vec) == vec
        assert union(empty, empty).is_empty

    def test_universe_absorbs(self, setup):
        bdd, variables, vectors = setup
        universe = BFV.universe(bdd, variables)
        for vec in vectors:
            assert union(vec, universe) == universe

    def test_result_is_canonical(self, setup):
        bdd, variables, vectors = setup
        for a in vectors[:4]:
            for b in vectors[4:8]:
                result = union(a, b)
                result.check_structure()
                rebuilt = from_characteristic(
                    bdd, variables, result.to_characteristic()
                )
                assert rebuilt == result

    def test_mismatched_spaces_rejected(self, setup):
        bdd, variables, vectors = setup
        other = BDD(["v0", "v1", "v2"])
        foreign = BFV.universe(other, variables)
        with pytest.raises(BFVError):
            union(vectors[0], foreign)


class TestRawUnionSharedComponents:
    def test_shared_components_copied_through(self):
        bdd = BDD(["v0", "v1", "v2", "v3"])
        variables = (0, 1, 2, 3)
        rng = random.Random(9)
        subsets = list(all_subsets(2))
        for _ in range(30):
            # Two vectors sharing a leading and a trailing free bit
            # around differing width-2 sets over v1, v2: the trailing
            # component is shared while the operands may be excluded.
            a = rng.choice(subsets)
            b = rng.choice(subsets)
            fa = [bdd.var(0)] + make_shifted(bdd, a) + [bdd.var(3)]
            fb = [bdd.var(0)] + make_shifted(bdd, b) + [bdd.var(3)]
            full = reference_union(bdd, variables, fa, fb)
            skipped = raw_union(bdd, variables, fa, fb)
            assert full == skipped
            assert skipped[0] == fa[0] and skipped[3] == fa[3]


def make_shifted(bdd, subset):
    """Canonical components of a width-2 set over v1, v2."""
    variables = (1, 2)
    vec = from_characteristic(
        bdd, variables, chi_of(bdd, variables, subset)
    )
    return list(vec.components)


class TestHypothesisWidth5:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_union_matches_set_semantics(self, seed):
        rng = random.Random(seed)
        width = rng.randint(3, 5)
        bdd = BDD(["v%d" % i for i in range(width)])
        variables = tuple(range(width))
        a = {
            tuple(rng.random() < 0.5 for _ in range(width))
            for _ in range(rng.randint(1, 8))
        }
        b = {
            tuple(rng.random() < 0.5 for _ in range(width))
            for _ in range(rng.randint(1, 8))
        }
        fa = make(bdd, variables, a)
        fb = make(bdd, variables, b)
        result = union(fa, fb)
        assert set(result.enumerate()) == a | b
        assert result == make(bdd, variables, a | b)
