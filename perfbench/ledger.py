"""Per-layer ledger of a traced round, measured from outside the program.

:class:`Ledger` wraps public functions of the program for the duration
of a traced round and restores them afterwards:

* BDD kernels (``BDD.and_`` ... ``BDD.compose``): calls and seconds of
  *outermost* calls only — a kernel called from inside another kernel
  counts under its caller;
* layer boundaries: ``SymbolicSimulator.next_state``,
  ``eliminate_params`` (replaced in every module that binds the name),
  ``raw_union``, ``BFV.union``, the IWLS95 relation's construction and
  ``image``, ``ReachSpace`` construction and ``BDD.collect_garbage``;
* a kernel x layer matrix attributing each kernel call to the innermost
  enclosing ``next_state`` / ``eliminate_params`` / ``BFV.union`` /
  ``iwls95.image`` call (``other`` outside all four);
* peak live nodes, sampled with ``count_live()`` at every iteration
  checkpoint through ``RunMonitor.iteration_hooks``.

Per-operation figures the program already keeps — tracer phase
self-times, ``op_count`` and ``cache_stats()`` — are added by
:meth:`Ledger.add_run` from the engine's tracer after each call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Kernels whose outermost calls are counted and timed.
KERNELS = (
    "and_",
    "or_",
    "not_",
    "ite",
    "and_exists",
    "exists",
    "cofactors",
    "rename",
    "support",
    "compose",
)

#: Enclosing layers of the kernel x layer matrix, in display order.
MATRIX_LAYERS = ("next_state", "eliminate_params", "BFV.union", "iwls95.image", "other")

#: Tracer phases reported as ``reach.<phase>_s``.
PHASES = (
    "image",
    "reparam",
    "union",
    "fixpoint_test",
    "saturate",
    "gc",
    "checkpoint",
    "finalize",
)

#: Every per-layer metric the benchmark defines: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = {}
for _phase in PHASES:
    PER_LAYER_UNITS["reach.%s_s" % _phase] = "s"
PER_LAYER_UNITS["reach.iterations"] = "count"
PER_LAYER_UNITS.update(
    {
        "bfv.eliminate_params.calls": "count",
        "bfv.eliminate_params_s": "s",
        "bfv.raw_union.calls": "count",
        "bfv.raw_union_s": "s",
        "bfv.union_s": "s",
        "sim.next_state.calls": "count",
        "sim.next_state_s": "s",
        "iwls95.build_s": "s",
        "iwls95.image.calls": "count",
        "iwls95.image_s": "s",
        "bdd.ops": "count",
    }
)
for _kernel in KERNELS:
    PER_LAYER_UNITS["bdd.%s.calls" % _kernel] = "count"
    PER_LAYER_UNITS["bdd.%s_s" % _kernel] = "s"
PER_LAYER_UNITS.update(
    {
        "bdd.cache.hits": "count",
        "bdd.cache.misses": "count",
        "bdd.cache.hit_rate": "ratio",
        "bdd.cache.evictions": "count",
        "bdd.gc.calls": "count",
        "bdd.gc_s": "s",
        "bdd.peak_live_nodes": "count",
        "order.order_for_s": "s",
        "circuits.build_s": "s",
        "reach.space_s": "s",
        "serve.hit_p50_ms": "ms",
        "serve.miss_p50_ms": "ms",
        "serve.hits": "count",
        "serve.misses": "count",
        "serve.dedup": "count",
        "serve.fingerprint_ms": "ms",
        "harness.engine_s": "s",
        "harness.overhead_s": "s",
        "harness.checkpoint_files": "count",
        "harness.checkpoint_bytes": "bytes",
        "scheduler.attempts": "count",
        "scheduler.fallback_attempts": "count",
        "scheduler.discarded_attempts": "count",
        "obs.tracing_overhead_s": "s",
        "host.kernel_ms": "ms",
    }
)


def _rebind(original: Callable, replacement: Callable) -> List[Tuple[object, str]]:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``."""
    bound = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound.append((module, attr))
    return bound


class Ledger:
    """Counters of one or more traced rounds (see module docstring)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        #: (kernel, layer) -> [calls, seconds]
        self.matrix: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        #: Per-operation figures from the program's own counters.
        self.totals: Dict[str, float] = defaultdict(float)
        self.peak_live = 0
        self._kernel_depth = 0
        self._layers: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _kernel(self, name: str, fn: Callable) -> Callable:
        ledger = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ledger._kernel_depth:
                return fn(*args, **kwargs)
            ledger._kernel_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                ledger._kernel_depth = 0
                ledger.calls[name] += 1
                ledger.seconds[name] += elapsed
                cell = ledger.matrix[(name, ledger._layers[-1] if ledger._layers else "other")]
                cell[0] += 1
                cell[1] += elapsed

        return wrapper

    def _timed(self, name: str, fn: Callable, layer: str = "") -> Callable:
        ledger = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer:
                ledger._layers.append(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.seconds[name] += clock() - start
                ledger.calls[name] += 1
                if layer:
                    ledger._layers.pop()

        return wrapper

    def _patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the program's functions (idempotent per install/uninstall pair)."""
        from repro.bdd import BDD
        from repro.bfv import BFV
        from repro.bfv import ops as bfv_ops
        from repro.bfv import reparam
        from repro.reach import PartitionedRelation, ReachSpace, RunMonitor
        from repro.sim.symbolic import SymbolicSimulator

        for kernel in KERNELS:
            self._patch_attr(BDD, kernel, self._kernel(kernel, vars(BDD)[kernel]))
        self._patch_attr(
            BDD, "collect_garbage", self._timed("gc", vars(BDD)["collect_garbage"])
        )
        self._patch_attr(
            SymbolicSimulator,
            "next_state",
            self._timed("next_state", vars(SymbolicSimulator)["next_state"], "next_state"),
        )
        self._patch_attr(
            BFV, "union", self._timed("BFV.union", vars(BFV)["union"], "BFV.union")
        )
        self._patch_attr(
            PartitionedRelation,
            "image",
            self._timed("iwls95.image", vars(PartitionedRelation)["image"], "iwls95.image"),
        )
        self._patch_attr(
            PartitionedRelation,
            "__init__",
            self._timed("iwls95.build", vars(PartitionedRelation)["__init__"]),
        )
        self._patch_attr(
            ReachSpace, "__init__", self._timed("space", vars(ReachSpace)["__init__"])
        )
        for original, name, layer in (
            (reparam.eliminate_params, "eliminate_params", "eliminate_params"),
            (bfv_ops.raw_union, "raw_union", ""),
        ):
            wrapper = self._timed(name, original, layer)
            for module, attr in _rebind(original, wrapper):
                self._undo.append((module, attr, original))
        RunMonitor.iteration_hooks.append(self._sample_live)
        self._undo.append((RunMonitor.iteration_hooks, "", self._sample_live))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, list):
                owner.remove(original)
            else:
                setattr(owner, attr, original)

    def _sample_live(self, monitor, iteration: int) -> None:
        live = monitor.bdd.count_live()
        if live > self.peak_live:
            self.peak_live = live

    # -- per-operation figures --------------------------------------------

    def add_run(self, result, tracer) -> None:
        """Fold one engine call's tracer phases and manager counters in."""
        for phase, seconds in tracer.phase_self_seconds.items():
            self.totals["reach.%s_s" % phase] += seconds
        self.totals["reach.iterations"] += result.iterations
        bdd = tracer.bdd
        if bdd is not None:
            self.totals["bdd.ops"] += bdd.op_count
            total = bdd.cache_stats()["total"]
            self.totals["bdd.cache.hits"] += total["hits"]
            self.totals["bdd.cache.misses"] += total["misses"]
            self.totals["bdd.cache.evictions"] += total["evictions"]

    # -- reporting ---------------------------------------------------------

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Per-round means of every ledger metric."""
        n = float(max(rounds, 1))
        out: Dict[str, float] = {}
        for phase in PHASES:
            out["reach.%s_s" % phase] = self.totals["reach.%s_s" % phase] / n
        out["reach.iterations"] = self.totals["reach.iterations"] / n
        for key, name in (
            ("eliminate_params", "bfv.eliminate_params"),
            ("raw_union", "bfv.raw_union"),
            ("next_state", "sim.next_state"),
            ("iwls95.image", "iwls95.image"),
            ("gc", "bdd.gc"),
        ):
            out[name + ".calls"] = self.calls[key] / n
            out[name + "_s"] = self.seconds[key] / n
        out["bfv.union_s"] = self.seconds["BFV.union"] / n
        out["iwls95.build_s"] = self.seconds["iwls95.build"] / n
        out["reach.space_s"] = self.seconds["space"] / n
        for kernel in KERNELS:
            out["bdd.%s.calls" % kernel] = self.calls[kernel] / n
            out["bdd.%s_s" % kernel] = self.seconds[kernel] / n
        out["bdd.ops"] = self.totals["bdd.ops"] / n
        hits = self.totals["bdd.cache.hits"]
        misses = self.totals["bdd.cache.misses"]
        out["bdd.cache.hits"] = hits / n
        out["bdd.cache.misses"] = misses / n
        out["bdd.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        out["bdd.cache.evictions"] = self.totals["bdd.cache.evictions"] / n
        out["bdd.peak_live_nodes"] = float(self.peak_live)
        return out

    def matrix_table(self, rounds: int) -> str:
        """The kernel x layer matrix as text: calls / milliseconds per round."""
        n = float(max(rounds, 1))
        width = 24
        lines = [
            "kernel x layer (outermost calls / ms per round)",
            "%-12s" % "kernel" + "".join("%*s" % (width, layer) for layer in MATRIX_LAYERS),
        ]
        for kernel in KERNELS:
            row = "%-12s" % kernel
            for layer in MATRIX_LAYERS:
                calls, seconds = self.matrix.get((kernel, layer), (0, 0.0))
                row += "%*s" % (width, "%d / %.1f" % (calls / n, 1000.0 * seconds / n))
            lines.append(row)
        return "\n".join(lines)
