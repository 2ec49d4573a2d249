"""IWLS95-style partitioned transition relations with early quantification.

The paper's baseline is "the reachability analysis implemented in VIS,
using the IWLS95 set of heuristics [12] with default settings": the
transition relation ``T(s, x, t) = AND_i (t_i <-> delta_i(s, x))`` is
kept as a list of conjuncts, greedily clustered up to a size threshold,
and the clusters are ordered so that quantification variables can be
summed out as early as possible [8].  Image computation is then a chain
of fused ``and_exists`` (relational product) steps.

This module implements that pipeline in a simplified but faithful form:

* parts are ordered by a greedy benefit score — prefer conjuncts that
  let many quantifiable variables die while introducing few new
  variables (the core of the IWLS95 ordering);
* clustering conjoins parts in that order until the cluster BDD exceeds
  ``cluster_threshold`` nodes;
* for each cluster, the variables whose last occurrence it is are
  scheduled for quantification at that step.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple


def order_parts(
    bdd, parts: Sequence[int], quantify: Set[int]
) -> List[int]:
    """Greedy IWLS95-style ordering of relation conjuncts.

    Repeatedly picks the part with the best (dying-quantifiable-vars,
    fewest-new-vars) score relative to the parts already placed.
    """
    remaining = list(parts)
    supports = {p: set(bdd.support(p)) for p in remaining}
    placed_support: Set[int] = set()
    ordered: List[int] = []
    while remaining:
        # A quantifiable variable dies with part p if p is the only
        # remaining part whose support contains it.
        occurrences: dict = {}
        for p in remaining:
            for v in supports[p]:
                occurrences[v] = occurrences.get(v, 0) + 1

        def score(p: int) -> Tuple[int, int, int]:
            sup = supports[p]
            dying = sum(
                1 for v in sup if v in quantify and occurrences[v] == 1
            )
            new = len(sup - placed_support)
            return (-dying, new, len(sup))

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        placed_support |= supports[best]
    return ordered


def cluster_parts(
    bdd, parts: Sequence[int], cluster_threshold: int
) -> List[int]:
    """Conjoin consecutive parts until the threshold size is reached."""
    clusters: List[int] = []
    current = bdd.true
    for part in parts:
        combined = bdd.and_(current, part)
        if (
            current != bdd.true
            and bdd.dag_size(combined) > cluster_threshold
        ):
            clusters.append(current)
            current = part
        else:
            current = combined
    if current != bdd.true or not clusters:
        clusters.append(current)
    return clusters


def quantification_schedule(
    bdd, clusters: Sequence[int], quantify: Set[int]
) -> List[Tuple[int, List[int]]]:
    """Pair each cluster with the variables quantifiable right after it.

    A variable can be summed out once no *later* cluster mentions it
    (the from-set argument of the relational product is always the
    accumulated prefix, so earlier occurrences are already inside).
    """
    supports = [set(bdd.support(c)) for c in clusters]
    schedule: List[Tuple[int, List[int]]] = []
    seen_after: Set[int] = set()
    later: List[Set[int]] = [set()] * len(clusters)
    for i in range(len(clusters) - 1, -1, -1):
        later[i] = set(seen_after)
        seen_after |= supports[i]
    for i, cluster in enumerate(clusters):
        dying = [
            v
            for v in quantify
            if v not in later[i] and (v in supports[i] or i == len(clusters) - 1)
        ]
        schedule.append((cluster, dying))
    return schedule


class PartitionedRelation:
    """A clustered transition relation ready for image computation."""

    def __init__(
        self,
        bdd,
        parts: Sequence[int],
        quantify: Sequence[int],
        cluster_threshold: int = 800,
    ) -> None:
        self.bdd = bdd
        quantify_set = set(quantify)
        ordered = order_parts(bdd, parts, quantify_set)
        self.clusters = cluster_parts(bdd, ordered, cluster_threshold)
        self.schedule = quantification_schedule(
            bdd, self.clusters, quantify_set
        )
        for cluster in self.clusters:
            bdd.incref(cluster)
        # Any quantified variable mentioned by no cluster at all must
        # still be summed out of the from-set (free inputs).
        covered = set()
        for cluster in self.clusters:
            covered |= set(bdd.support(cluster))
        self.residual_quantify = sorted(quantify_set - covered)

    def image(self, from_set: int) -> int:
        """``EXISTS quantify . from_set AND T`` via chained and_exists."""
        bdd = self.bdd
        product = from_set
        if self.residual_quantify:
            product = bdd.exists(self.residual_quantify, product)
        for cluster, dying in self.schedule:
            product = bdd.and_exists(product, cluster, dying)
        return product

    def pre_image(self, target: int, next_vars, input_vars=()) -> int:
        """States with a successor in ``target`` (given over next-state vars).

        Computes ``EXISTS next_vars, input_vars . T AND target`` —
        backward reachability's workhorse.  The result ranges over the
        current-state variables; inputs are existential (some input
        drives the transition).
        """
        bdd = self.bdd
        quantify = set(next_vars) | set(input_vars)
        product = target
        # Early quantification: a variable is summed once no remaining
        # cluster mentions it; the last step sums everything left.
        for cluster, dying in quantification_schedule(
            bdd, self.clusters, quantify
        ):
            product = bdd.and_exists(product, cluster, dying)
        return product

    def release(self) -> None:
        """Drop the references pinning the clusters."""
        for cluster in self.clusters:
            self.bdd.decref(cluster)
