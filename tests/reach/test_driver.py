"""The fix-point driver's run-level guarantees, checked on every engine.

* Handle lifetime: after a run the manager's external pins are exactly
  the roots the result exports — set-up pins (input drivers, relation
  clusters, constrain deltas) and working handles (frontiers, pending
  sets) are released by the driver, on fresh and resumed runs alike.
* The peak-live statistic under a node budget covers every live count
  seen at an iteration checkpoint.
* Budget failures record partial progress for every engine, including
  backward reachability.
"""

from collections import Counter

import pytest

from repro.circuits import generators as gen
from repro.circuits.catalog import resolve
from repro.harness import Checkpointer
from repro.reach import (
    ENGINES,
    ReachLimits,
    ReachSpace,
    RunMonitor,
    backward_reachability,
    can_reach,
)

BDD_ENGINES = ("bfv", "tr", "cbm", "conj", "sat", "bfv-sat")
CIRCUIT = "traffic"


def exported_pins(result):
    """External references the result's exported roots account for."""
    pins = Counter()
    for key in ("reached_chi", "backward_chi"):
        node = result.extra.get(key)
        if node is not None and node > 1:
            pins[node] += 1
    for key, attr in (("reached", "components"), ("reached_cd", "parts")):
        handle = result.extra.get(key)
        for node in getattr(handle, attr, None) or ():
            if node > 1:
                pins[node] += 1
    return pins


def pins_of(bdd):
    return Counter(dict(bdd._extref))


def run(engine, tmp_path=None, **kw):
    circuit = resolve(CIRCUIT)
    space = ReachSpace(circuit)
    if tmp_path is not None:
        kw["checkpointer"] = Checkpointer(
            str(tmp_path),
            engine=engine,
            circuit=circuit.name,
            resume=kw.pop("resume", False),
        )
    return ENGINES[engine](circuit, space=space, **kw), space.bdd


class TestPinBalance:
    @pytest.mark.parametrize("engine", BDD_ENGINES)
    def test_fresh_run_pins_only_exported_roots(self, engine):
        result, bdd = run(engine)
        assert result.completed
        assert pins_of(bdd) == exported_pins(result)

    def test_constrain_deltas_are_released(self):
        circuit = resolve(CIRCUIT)
        space = ReachSpace(circuit)
        result = ENGINES["cbm"](circuit, space=space, image_method="constrain")
        assert result.completed
        assert pins_of(space.bdd) == exported_pins(result)

    @pytest.mark.parametrize("engine", BDD_ENGINES)
    def test_interrupted_then_resumed_run(self, engine, tmp_path):
        interrupted, bdd = run(
            engine, tmp_path, limits=ReachLimits(max_iterations=3)
        )
        assert interrupted.failure == "iterations"
        assert pins_of(bdd) == Counter()

        resumed, bdd = run(engine, tmp_path, resume=True)
        assert resumed.completed
        assert resumed.extra["resumed_from"] == 3
        assert pins_of(bdd) == exported_pins(resumed)


class TestPeakLiveUnderBudget:
    @pytest.mark.parametrize(
        "circuit,engine",
        [
            (lambda: resolve("s1269s"), "bfv-sat"),
            (lambda: gen.counter(6), "tr"),
            (lambda: gen.counter(6), "bfv"),
        ],
        ids=["s1269s-bfv-sat", "counter6-tr", "counter6-bfv"],
    )
    def test_peak_covers_every_checkpoint_sample(self, circuit, engine):
        samples = []

        def sample(monitor, iteration):
            samples.append(monitor.bdd.count_live())

        RunMonitor.iteration_hooks.append(sample)
        try:
            result = ENGINES[engine](
                circuit(), limits=ReachLimits(max_live_nodes=60000)
            )
        finally:
            RunMonitor.iteration_hooks.remove(sample)
        assert result.completed
        assert samples
        assert result.peak_live_nodes >= max(samples)


class TestBackwardOnTheDriver:
    def test_iteration_budget_records_partial_progress(self):
        circuit = gen.counter(4)
        target = [(True, True, True, True)]
        result = backward_reachability(
            circuit, target, limits=ReachLimits(max_iterations=2)
        )
        assert not result.completed
        assert result.failure == "iterations"
        assert result.status == "I.O."
        assert result.extra["iteration"] == 2
        assert result.extra["elapsed"] >= 0.0
        assert result.extra["live_nodes"] > 0

    def test_can_reach_unchanged(self):
        circuit = gen.counter(4)
        assert can_reach(circuit, [(True, True, True, True)])
