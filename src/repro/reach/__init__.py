"""Symbolic reachability engines compared in the paper.

Every engine is one set algebra run by one fix-point loop,
:func:`repro.reach.driver.drive`: the driver owns restore, the
checkpoint/budget/audit tick, tracing, failure reporting, finalize and
pin release, and an engine module supplies only a
:class:`~repro.reach.driver.SetAlgebra` (set-up, image, union and
fix-point test, sizes, snapshot and export) plus its public function.

* :func:`bfv_reachability` — the paper's contribution (Figure 2): BFV
  sets, symbolic simulation, re-parameterization, direct union.
* :func:`tr_reachability` — the VIS/IWLS95 baseline: characteristic
  functions and a partitioned transition relation with early
  quantification.
* :func:`cbm_reachability` — the Coudert-Berthet-Madre flow (Figure 1):
  BFV image computation but characteristic-function set manipulation,
  paying per-iteration conversions.
* :func:`conj_reachability` — Figure 2 with McMillan's conjunctive
  decomposition as the set representation (Sec 2.7).
* :func:`sat_reachability` — structural saturation: chained per-latch
  image steps over disjunctive input-cube partitions, local fix points,
  frontier-avoidance (:mod:`repro.reach.sat_engine`).
* :func:`bfv_sat_reachability` — the hybrid that saturates inside the
  BFV reparameterization loop (split inputs driven constant during
  symbolic simulation).
* :func:`bitset_reachability` / :func:`zono_reachability` — non-BDD
  set-representation backends (:mod:`repro.backends`): explicit packed
  bitsets (exact ground truth on small state spaces) and logical
  zonotopes (GF(2) generator matrices, exactness-flagged
  over-approximation), adapted to the engine contract by
  :func:`repro.backends.engine.backend_engine`.

All engines share the driver, a variable layout (:class:`ReachSpace`),
resource budgets (:class:`ReachLimits`, reported as the paper's
T.O./M.O.) and statistics (:class:`ReachResult`).
"""

from ..backends import BitsetBackend, LogicalZonotopeBackend, backend_engine
from .backward import backward_reachability, can_reach
from .bfv_engine import bfv_reachability
from .cbm_engine import cbm_reachability
from .common import ReachLimits, ReachResult, ReachSpace, RunMonitor
from .conj_engine import conj_reachability
from .iwls95 import PartitionedRelation
from .report import format_table2, format_table3
from .sat_engine import bfv_sat_reachability, sat_reachability
from .tr_engine import tr_reachability

bitset_reachability = backend_engine(BitsetBackend)
zono_reachability = backend_engine(LogicalZonotopeBackend)

ENGINES = {
    "bfv": bfv_reachability,
    "tr": tr_reachability,
    "cbm": cbm_reachability,
    "conj": conj_reachability,
    "sat": sat_reachability,
    "bfv-sat": bfv_sat_reachability,
    "bitset": bitset_reachability,
    "zono": zono_reachability,
}

__all__ = [
    "ENGINES",
    "backward_reachability",
    "can_reach",
    "PartitionedRelation",
    "ReachLimits",
    "ReachResult",
    "ReachSpace",
    "RunMonitor",
    "bfv_reachability",
    "bfv_sat_reachability",
    "bitset_reachability",
    "cbm_reachability",
    "conj_reachability",
    "format_table2",
    "format_table3",
    "sat_reachability",
    "tr_reachability",
    "zono_reachability",
]
