"""Shared plumbing of the benchmark: clocks, memory, rounds, statistics."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

#: Fallback origin for :func:`since_process_start` when ``/proc`` is
#: unreadable: the moment this module was imported.
_IMPORTED_AT = time.monotonic()


def since_process_start() -> float:
    """Seconds since the kernel created this process.

    Read from ``/proc/self/stat`` (start time in clock ticks since boot)
    against ``CLOCK_BOOTTIME``, so interpreter start-up and imports are
    part of the figure; resolution is one clock tick (10 ms).
    """
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.monotonic() - _IMPORTED_AT


def peak_rss_mb(children: bool = False, own: bool = True) -> float:
    """High-water resident memory in MB (``getrusage`` ``ru_maxrss``).

    ``children`` covers every descendant this process has waited for
    (the largest single one, as Linux reports it).
    """
    peaks = []
    if own:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Context:
    """What a workload receives from the command line."""

    seed: int
    seconds: float
    trace: bool
    #: Scratch directory inside the checkout, removed after the run.
    workdir: str


@dataclass
class Outcome:
    """What a workload hands back to :mod:`run`."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable correctness violations; empty means correct.
    problems: List[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)


def schedule(ctx: Context) -> Iterator[bool]:
    """Whole rounds until ``ctx.seconds`` have passed; yields ``traced``.

    At least one round always runs.  With tracing on, rounds alternate
    untraced / traced (at least one of each), so one process yields
    both the untraced and the traced figure of the same workload.
    """
    start = time.monotonic()
    index = 0
    while True:
        traced = ctx.trace and index % 2 == 1
        yield traced
        index += 1
        done = time.monotonic() - start >= ctx.seconds
        if done and (not ctx.trace or index >= 2):
            return
