"""Seeded R005 defects: a second fix-point loop outside the driver.

Linted as if it lived under ``repro/reach/``.  Lines carrying a seeded
defect are marked ``# defect: R005``; the test derives the expected
lines from those markers.
"""

from repro.errors import ResourceLimitError
from repro.reach import common
from repro.reach.common import ReachResult, RunMonitor


def hand_rolled(space, limits, checkpointer, step):
    monitor = RunMonitor(space.bdd, limits, checkpointer)  # defect: R005
    other = common.RunMonitor(space.bdd, limits)  # defect: R005
    result = ReachResult("x", "c", "S1", completed=False)
    snapshot = monitor.restore()  # defect: R005
    iteration = 0 if snapshot is None else snapshot.iteration
    try:
        while not step(iteration):
            iteration += 1
            monitor.checkpoint((), iteration)
        result.completed = True
    except ResourceLimitError as error:  # defect: R005
        monitor.annotate(result, error, iteration)
    except (ValueError, RecursionError):  # defect: R005
        result.failure = "depth"
    return result, other


def not_a_loop(algebra, snapshot):
    # Restoring an algebra (not the monitor) and catching unrelated
    # errors is fine.
    try:
        return algebra.restore(snapshot)
    except KeyError:
        return None
