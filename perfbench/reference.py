"""Reference state counts and depths for the benchmark's correctness checks.

``reference.json`` holds, per circuit, the reachable-state count and
the breadth-first depth computed by the exact ``bitset`` backend
(packed explicit state sets), which shares no code with the BDD engines
the benchmark times.  Only circuits where that oracle is cheap are
stored; the workloads check the others against ``tr`` under another
order (see :func:`live_reference`).  Rebuild the file with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")

#: Circuits whose bitset oracle runs in about a second or less.
ORACLE_CIRCUITS = (
    "s1512s",
    "s3330s",
    "s27",
    "traffic",
    "johnson8",
    "ring8",
    "fifo3",
    "lfsr8",
    "counter8",
    "arbiter5",
    "msi3",
    "handshake3",
)


def load() -> Dict[str, Dict[str, int]]:
    """circuit -> {"states": count, "depth": BFS iterations}."""
    with open(PATH) as handle:
        return json.load(handle)["circuits"]


def bitset_reference(name: str) -> Dict[str, int]:
    """State count and BFS depth of ``name`` from the bitset oracle."""
    from repro.circuits.catalog import resolve
    from repro.reach import bitset_reachability

    result = bitset_reachability(resolve(name), order_name="S1")
    if not result.completed:
        raise RuntimeError("bitset oracle failed on %s: %s" % (name, result.status))
    return {"states": result.num_states, "depth": result.iterations}


def live_reference(circuit, avoid_order: str, cache: Dict[Tuple[str, str], Dict[str, int]]):
    """State count and depth from ``tr`` under an order other than ``avoid_order``.

    Used where the bitset oracle is too slow (s1269s, s3271s, s4863s).
    ``cache`` keeps one entry per (circuit, order) for the process.
    """
    from repro.order import order_for
    from repro.reach import tr_reachability

    order = "S1" if avoid_order == "S2" else "S2"
    key = (circuit.name, order)
    if key not in cache:
        result = tr_reachability(
            circuit, order_for(circuit, order), order_name=order
        )
        if not result.completed:
            raise RuntimeError("tr reference failed on %s/%s" % key)
        cache[key] = {"states": result.num_states, "depth": result.iterations}
    return cache[key]


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    circuits = {name: bitset_reference(name) for name in ORACLE_CIRCUITS}
    payload = {
        "oracle": "bitset backend (repro.reach.bitset_reachability)",
        "rebuild": "python3 perfbench/reference.py",
        "circuits": circuits,
    }
    with open(PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d circuits)" % (PATH, len(circuits)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
