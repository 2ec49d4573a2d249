"""Correctness checks, independent of the engines being timed.

Every check returns a list of problems (empty when the answer holds);
the workloads run them outside their timed windows.  The expected
values come from an oracle computed apart from the timed call — the
bitset backend (``reference.json``), ``tr`` under another order, or
concrete simulation — or from a property the method must have.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Mapping, Sequence, Tuple

#: Saturation engines count macro rounds: at least one, at most the
#: depth.  Every other engine computes one breadth-first image per
#: iteration, so its iteration count is the depth (fix-point round
#: included).
SATURATION_ENGINES = ("sat", "bfv-sat")


def check_count(label: str, got, expected: int) -> List[str]:
    """The reached-state count equals the reference count."""
    if got != expected:
        return ["%s: %r states, reference says %d" % (label, got, expected)]
    return []


def check_depth(label: str, engine: str, iterations: int, depth: int) -> List[str]:
    """BFS iterations equal the depth; saturation rounds do not exceed it."""
    if engine in SATURATION_ENGINES:
        if not 1 <= iterations <= depth:
            return [
                "%s: %d saturation rounds, depth is %d"
                % (label, iterations, depth)
            ]
        return []
    if iterations != depth:
        return ["%s: %d iterations, depth is %d" % (label, iterations, depth)]
    return []


def check_agreement(counts: Mapping[str, Mapping[str, int]]) -> List[str]:
    """Every engine and order reports the same count for a circuit.

    ``counts`` maps circuit -> {cell label -> state count}.
    """
    problems = []
    for circuit, by_cell in sorted(counts.items()):
        if len(set(by_cell.values())) > 1:
            problems.append(
                "%s: engines/orders disagree: %s" % (circuit, dict(sorted(by_cell.items())))
            )
    return problems


def check_visited(
    label: str,
    visited: Iterable[Tuple[bool, ...]],
    contains: Callable[[Tuple[bool, ...]], bool],
) -> List[str]:
    """Every concretely simulated state lies in the reached set."""
    missing = [state for state in dict.fromkeys(visited) if not contains(state)]
    if missing:
        bits = "".join("1" if b else "0" for b in missing[0])
        return [
            "%s: %d simulated states missing from the reached set, e.g. %s"
            % (label, len(missing), bits)
        ]
    return []


def check_serve_ledger(
    replies: Sequence[Mapping[str, object]],
    counters: Mapping[str, int],
    dispositions: Mapping[str, int],
    sent: int,
) -> List[str]:
    """The server's own ledger matches what its clients saw.

    ``replies`` are the reach responses received; ``counters`` the
    ``metrics`` op's serve counters; ``dispositions`` the request count
    per ``serve_request_seconds`` disposition label.
    """
    problems = []
    cached = sum(1 for reply in replies if reply.get("cached"))
    hits = int(counters.get("cache_hits", 0))
    if cached != hits:
        problems.append(
            "serve: %d replies marked cached, server counted %d hits"
            % (cached, hits)
        )
    misses = int(dispositions.get("cold", 0)) + int(dispositions.get("resumed", 0))
    dedup = int(dispositions.get("dedup_hit", 0))
    if hits + misses + dedup != sent:
        problems.append(
            "serve: hits %d + misses %d + dedup %d != %d requests sent"
            % (hits, misses, dedup, sent)
        )
    if len(replies) != sent:
        problems.append("serve: %d replies for %d requests" % (len(replies), sent))
    return problems


def simulate(circuit, seed: int, steps: int) -> List[Tuple[bool, ...]]:
    """States visited by a seeded random concrete run from reset.

    States are in latch declaration order.  The input trace depends only
    on ``seed`` and the circuit's name.
    """
    from repro.sim.concrete import ConcreteSimulator

    rng = random.Random("%d/%s" % (seed, circuit.name))
    inputs = list(circuit.inputs)
    trace = [{net: rng.random() < 0.5 for net in inputs} for _ in range(steps)]
    return ConcreteSimulator(circuit).run(trace)


def membership(result) -> Callable[[Tuple[bool, ...]], bool]:
    """Membership test of a completed in-process result's reached set.

    Takes declaration-order states; works for BFV results
    (``extra['reached']``) and characteristic-function results
    (``extra['reached_chi']``).
    """
    space = result.extra["space"]
    declaration = list(space.circuit.latches)
    if "reached" in result.extra:
        reached = result.extra["reached"]
        position = [declaration.index(net) for net in space.state_order]

        def contains(state: Tuple[bool, ...]) -> bool:
            return reached.contains(tuple(state[i] for i in position))

        return contains
    chi = result.extra["reached_chi"]
    bdd = space.bdd
    variables = [space.state_var[net] for net in declaration]

    def contains_chi(state: Tuple[bool, ...]) -> bool:
        return bdd.evaluate(chi, dict(zip(variables, state)))

    return contains_chi

