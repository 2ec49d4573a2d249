"""The benchmark's correctness checks reject wrong answers.

Run from the root of a checkout with either of::

    python3 perfbench/test_checks.py
    python3 -m pytest perfbench/test_checks.py

Each test feeds a check a right answer (accepted) and a wrong one
(rejected), including a wrong answer produced by a real engine run.
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


class CountChecks(unittest.TestCase):
    def test_count_off_by_one_is_rejected(self):
        self.assertEqual(checks.check_count("s1512s", 6628, 6628), [])
        self.assertEqual(len(checks.check_count("s1512s", 6629, 6628)), 1)
        self.assertEqual(len(checks.check_count("s1512s", 6627, 6628)), 1)
        self.assertEqual(len(checks.check_count("s1512s", None, 6628)), 1)

    def test_engines_or_orders_that_disagree_are_rejected(self):
        agree = {"s27": {"tr/S1": 6, "bfv/S2": 6}}
        self.assertEqual(checks.check_agreement(agree), [])
        disagree = {"s27": {"tr/S1": 6, "bfv/S2": 7}}
        self.assertEqual(len(checks.check_agreement(disagree)), 1)

    def test_depth_rules(self):
        self.assertEqual(checks.check_depth("c", "bfv", 21, 21), [])
        self.assertEqual(len(checks.check_depth("c", "tr", 20, 21)), 1)
        self.assertEqual(checks.check_depth("c", "sat", 1, 21), [])
        self.assertEqual(len(checks.check_depth("c", "bfv-sat", 22, 21)), 1)
        self.assertEqual(len(checks.check_depth("c", "sat", 0, 21)), 1)


class SimulationChecks(unittest.TestCase):
    def _run(self, engine, name="traffic"):
        from repro.circuits.catalog import resolve
        from repro.reach import ENGINES

        circuit = resolve(name)
        return circuit, ENGINES[engine](circuit)

    def test_visited_states_lie_in_real_reached_sets(self):
        for engine in ("bfv", "tr", "sat", "bfv-sat"):
            circuit, result = self._run(engine)
            visited = checks.simulate(circuit, seed=7, steps=100)
            self.assertEqual(
                checks.check_visited(engine, visited, checks.membership(result)), []
            )

    def test_simulated_state_missing_from_the_set_is_rejected(self):
        for engine in ("bfv", "tr"):
            circuit, result = self._run(engine)
            visited = checks.simulate(circuit, seed=7, steps=100)
            contains = checks.membership(result)
            dropped = visited[3]

            def without_one(state):
                return state != dropped and contains(state)

            problems = checks.check_visited(engine, visited, without_one)
            self.assertEqual(len(problems), 1)

    def test_a_state_outside_the_reached_set_is_not_a_member(self):
        # s27 reaches 6 of its 8 states.
        circuit, result = self._run("bfv", "s27")
        contains = checks.membership(result)
        reachable = set(checks.simulate(circuit, seed=1, steps=500))
        width = len(circuit.latches)
        outside = [
            tuple(bool(mask >> i & 1) for i in range(width))
            for mask in range(1 << width)
        ]
        outside = [s for s in outside if s not in reachable]
        self.assertTrue(outside)
        problems = checks.check_visited("s27", outside[:1], contains)
        self.assertEqual(len(problems), 1)

    def test_simulation_depends_on_the_seed_only(self):
        from repro.circuits.catalog import resolve

        circuit = resolve("s1512s")
        self.assertEqual(
            checks.simulate(circuit, 3, 50), checks.simulate(circuit, 3, 50)
        )
        self.assertNotEqual(
            checks.simulate(circuit, 3, 50), checks.simulate(circuit, 4, 50)
        )


class ServeLedgerChecks(unittest.TestCase):
    REPLIES = [{"cached": False}, {"cached": True}, {"cached": False}, {"cached": True}]

    def test_consistent_ledger_is_accepted(self):
        problems = checks.check_serve_ledger(
            self.REPLIES, {"cache_hits": 2}, {"cold": 1, "dedup_hit": 1}, 4
        )
        self.assertEqual(problems, [])

    def test_cached_reply_the_server_did_not_count_is_rejected(self):
        problems = checks.check_serve_ledger(
            self.REPLIES, {"cache_hits": 1}, {"cold": 2, "dedup_hit": 1}, 4
        )
        self.assertEqual(len(problems), 1)

    def test_requests_missing_from_the_ledger_are_rejected(self):
        problems = checks.check_serve_ledger(
            self.REPLIES, {"cache_hits": 2}, {"cold": 1}, 4
        )
        self.assertEqual(len(problems), 1)


class Inputs(unittest.TestCase):
    def test_stored_reference_matches_the_bitset_oracle(self):
        stored = reference.load()
        for name in ("s27", "traffic", "msi3"):
            self.assertEqual(stored[name], reference.bitset_reference(name))

    def test_request_list_is_pinned_by_the_seed(self):
        first = workloads.serve_requests(5)
        self.assertEqual(first, workloads.serve_requests(5))
        self.assertNotEqual(first, workloads.serve_requests(6))
        self.assertEqual(workloads.serve_requests(5, 1), workloads.serve_requests(5, 1))
        self.assertNotEqual(first, workloads.serve_requests(5, 1))
        self.assertEqual(len(set(first)), len(workloads.SERVE_CELLS))
        self.assertEqual(
            len(first), len(workloads.SERVE_CELLS) + workloads.SERVE_REPEATS
        )


if __name__ == "__main__":
    unittest.main()
