"""Host speed, sampled with a fixed kernel, to normalize the timings.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop ran 14 ms per call for over a minute and then
22 ms for the next two, with no change inside the process.  Medians
inside a run cannot remove a drift that outlasts the run, so the timed
end-to-end figures are scaled by the host speed seen while they were
measured.

:class:`Sampler` times :func:`kernel` — a fixed amount of work shaped
like the program's own (unique-table lookups in a node table laid out
like the BDD manager's), which no change to the program can touch —
every :data:`INTERVAL_S` seconds while the timed work runs: from a
``SIGALRM`` handler while an in-process operation runs, or from a
thread of its own, on its CPU clock, while other processes do the work.
A time multiplied by the mean of ``NOMINAL_S / slice`` over the slices
taken during it is its time on a host that runs the kernel in exactly
``NOMINAL_S``: "reference seconds".  The raw figures are kept and
printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Kernel time that defines one reference second, about the kernel's
#: time on the 2-vCPU host the benchmark was written on.  Only a scale;
#: any constant gives the same spreads.
NOMINAL_S = 0.004
#: Seconds between samples while timed work runs.
INTERVAL_S = 0.1
#: Bytes copied before each threaded sample: read and written, they
#: are twice a core's L2 on the reference host, so the table is no
#: longer in it.
EVICT_BYTES = 2 << 20
#: Nodes of the kernel's node table.
NODES = 1 << 15
#: Variables of the kernel's node table.
VARIABLES = 32
#: Node lookups per kernel call.
LOOKUPS = 3000

#: The kernel's node table, laid out like the program's BDD manager:
#: ``var``/``lo``/``hi`` lists and one unique table per variable, keyed
#: by ``(lo << 32) | hi``.  Built on first use.
_VAR: List[int] = []
_LO: List[int] = []
_HI: List[int] = []
_UNIQUE: List[Dict[int, int]] = []
_PROBES: List[int] = []


def _build() -> None:
    rng = random.Random(20031)
    _UNIQUE.extend({} for _ in range(VARIABLES))
    _VAR.extend((VARIABLES, VARIABLES))  # the two terminals
    _LO.extend((0, 1))
    _HI.extend((0, 1))
    while len(_VAR) < NODES:
        var = rng.randrange(VARIABLES)
        low, high = rng.randrange(len(_VAR)), rng.randrange(len(_VAR))
        key = (low << 32) | high
        if low == high or key in _UNIQUE[var]:
            continue
        _UNIQUE[var][key] = len(_VAR)
        _VAR.append(var)
        _LO.append(low)
        _HI.append(high)
    _PROBES.extend(rng.randrange(2, NODES) for _ in range(LOOKUPS))


def kernel() -> int:
    """A fixed amount of node-table work; returns a checksum."""
    if not _PROBES:
        _build()
    var, lo, hi, unique = _VAR, _LO, _HI, _UNIQUE
    total = 0
    for node in _PROBES:
        low, high = lo[node], hi[node]
        table = unique[var[node]]
        found = table.get((low << 32) | high)
        swapped = table.get((high << 32) | low)
        total = (total + found * 3 + (swapped is None) + var[low]) & 0xFFFFF
    return total


class Sampler:
    """Times :func:`kernel` calls and turns raw seconds into reference seconds."""

    def __init__(self) -> None:
        #: (perf_counter at start, kernel seconds) of every sample.
        self.samples: List[Tuple[float, float]] = []
        #: Total seconds spent in the kernel, to subtract from timings.
        self.spent = 0.0
        self._previous = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        #: Buffers copied before each threaded sample (see :meth:`_loop`).
        self._evict: List[bytearray] = []
        kernel()  # builds the table outside every timed span

    def sample(self, clock=time.perf_counter) -> None:
        started = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = clock()
            kernel()
            seconds = clock() - began
        finally:
            if collecting:
                gc.enable()
        self.samples.append((started, seconds))
        self.spent += time.perf_counter() - started

    def start(self, thread: bool = False) -> None:
        """Sample every :data:`INTERVAL_S` seconds until :meth:`stop`.

        By default from ``SIGALRM``, on the wall clock, between the
        program's own steps in this thread.  With ``thread``, from a
        thread of its own on that thread's CPU clock, for a process that
        only drives or waits for other processes: their load on the
        cores delays the sampler, but a CPU clock does not count the
        delay, so the samples still read the host's speed and not the
        workload's share of it.
        """
        if thread:
            self._stopping.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()
        else:
            self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _loop(self) -> None:
        if not self._evict:
            self._evict = [bytearray(EVICT_BYTES), bytearray(EVICT_BYTES)]
        source, target = self._evict
        while True:
            # This thread's core may have run nothing since the last
            # sample, which would leave the table in its caches; a sample
            # on warm caches times the core alone and misses the drift.
            target[:] = source
            self.sample(time.thread_time)
            if self._stopping.wait(INTERVAL_S):
                return

    def stop(self) -> None:
        if self._thread is not None:
            self._stopping.set()
            self._thread.join()
            self._thread = None
        else:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> Tuple[float, float, int]:
        """Start of a timed span: (clock, sampler time so far, sample index)."""
        return time.perf_counter(), self.spent, len(self.samples)

    def span(self, mark: Tuple[float, float, int]) -> Tuple[float, float]:
        """(raw seconds, reference seconds) of the span started at ``mark``.

        Raw seconds exclude the kernel's own time inside the span.  The
        scale is the mean of ``NOMINAL_S / slice`` over the slices taken
        inside the span, or the last slice before it when there is none.
        """
        began, spent, index = mark
        raw = time.perf_counter() - began - (self.spent - spent)
        return raw, raw * self.factor(index)

    def factor(self, index: int) -> float:
        """Reference seconds per raw second since sample ``index``.

        The mean of ``NOMINAL_S / slice`` over the samples from
        ``index`` on, or the last sample before it when there is none.
        """
        samples = self.samples[index:] or self.samples[max(index - 1, 0):index]
        if not samples:
            return 1.0
        return statistics.fmean(NOMINAL_S / seconds for _, seconds in samples)

    def slice_ms(self) -> float:
        """Median kernel time over every sample so far, in ms."""
        if not self.samples:
            return 0.0
        return 1000.0 * statistics.median(seconds for _, seconds in self.samples)
