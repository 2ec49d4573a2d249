"""The benchmark's workloads.

Each workload is a function ``(Context) -> Outcome``.  It times calls
into the program's public API from outside, runs whole rounds of a
fixed operation list for ``--seconds`` seconds (see
:func:`common.schedule`), and checks every answer against an oracle
outside its timed windows (see :mod:`checks`).  Why each workload exists
and which layer metric should move which end-to-end metric is recorded
in ``README.md``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import checks
import reference
from common import Context, Outcome, median, peak_rss_mb, schedule, since_process_start
from hostspeed import Sampler
from ledger import PER_LAYER_UNITS, Ledger

#: Engine time budget of every in-process cell: far above the slowest
#: cell (s1512s/bfv, ~13 s untraced), so no T.O. flips with load.
CELL_BUDGET_S = 150.0
#: Steps of the seeded concrete simulation checked against each reached set.
SIM_STEPS = 300

Cell = Tuple[str, str, str]  # (circuit, engine, order)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# ----------------------------------------------------------------------
# In-process engine workloads: bfv-control, chi-orders
# ----------------------------------------------------------------------

#: s1512s/bfv-sat is left out: at ~20 s it was 40% of a round, and a
#: traced run (one untraced plus one traced round) took 150 s on a busy
#: host, too close to the three-minute limit of one run.
BFV_CONTROL_CELLS: List[Cell] = [
    ("s1269s", "bfv", "S1"),
    ("s1269s", "bfv-sat", "S1"),
    ("s1512s", "bfv", "S1"),
]


def chi_orders_cells() -> List[Cell]:
    """tr/sat on every surrogate and family, bfv/bfv-sat on the datapath ones.

    s3271s under O is left out for tr/sat: the characteristic function
    blows up there (~30 s per cell, the paper's VIS time-out), which
    would be three quarters of a round.
    """
    suite = ("s1269s", "s1512s", "s3271s", "s3330s", "s4863s")
    families = ("S1", "S2", "D", "P", "O")
    cells = [
        (circuit, engine, order)
        for circuit in suite
        for order in families
        for engine in ("tr", "sat")
        if not (circuit == "s3271s" and order == "O")
    ]
    cells += [
        (circuit, engine, order)
        for circuit in ("s3271s", "s4863s")
        for order in families
        for engine in ("bfv", "bfv-sat")
    ]
    return cells


def _references(circuits, cells: List[Cell], cache) -> Dict[Cell, Dict[str, int]]:
    """Expected count and depth of every cell, from an independent oracle."""
    stored = reference.load()
    expected = {}
    for cell in cells:
        circuit, _, order = cell
        if circuit in stored:
            expected[cell] = stored[circuit]
        else:
            expected[cell] = reference.live_reference(circuits[circuit], order, cache)
    return expected


def _zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def _in_process(ctx: Context, cells: List[Cell]) -> Outcome:
    from repro.circuits.catalog import builtin_circuits
    from repro.obs import Tracer
    from repro.order import order_for
    from repro.reach import ENGINES, ReachLimits

    catalog = builtin_circuits()
    start = time.perf_counter()
    circuits = {name: catalog[name]() for name in sorted({c for c, _, _ in cells})}
    built = time.perf_counter()
    slots = {(c, o): order_for(circuits[c], o) for c, _, o in cells}
    ordered = time.perf_counter()
    setup_s = since_process_start()

    expected = _references(circuits, cells, {})
    visited = {name: checks.simulate(c, ctx.seed, SIM_STEPS) for name, c in circuits.items()}
    limits = ReachLimits(max_seconds=CELL_BUDGET_S)
    out = Outcome()
    counts: Dict[str, Dict[str, int]] = defaultdict(dict)
    # Raw and reference seconds (see hostspeed) per round, keyed by traced.
    walls: Dict[bool, List[float]] = {False: [], True: []}
    raw_walls: Dict[bool, List[float]] = {False: [], True: []}
    op_seconds: List[float] = []
    raw_op_seconds: List[float] = []
    ledger = Ledger() if ctx.trace else None
    sampler = Sampler()

    for traced in schedule(ctx):
        # Traced rounds are not sampled, so their layer times hold no
        # kernel time; their scale is not used.
        if traced:
            ledger.install()
        else:
            sampler.start()
        wall = raw_wall = 0.0
        try:
            for cell in cells:
                circuit, engine, order = cell
                tracer = Tracer() if traced else None
                mark = sampler.mark()
                result = ENGINES[engine](
                    circuits[circuit],
                    slots[(circuit, order)],
                    limits=limits,
                    order_name=order,
                    tracer=tracer,
                )
                raw, scaled = sampler.span(mark)
                wall += scaled
                raw_wall += raw
                if traced:
                    ledger.add_run(result, tracer)
                else:
                    op_seconds.append(scaled)
                    raw_op_seconds.append(raw)
                out.attempted += 1
                label = "/".join(cell)
                if not result.completed:
                    out.failed += 1
                    print("%s ended %s" % (label, result.status), file=sys.stderr)
                    continue
                ref = expected[cell]
                counts[circuit][engine + "/" + order] = result.num_states
                out.problems += checks.check_count(label, result.num_states, ref["states"])
                out.problems += checks.check_depth(label, engine, result.iterations, ref["depth"])
                out.problems += checks.check_visited(
                    label, visited[circuit], checks.membership(result)
                )
                del result
        finally:
            if traced:
                ledger.uninstall()
            else:
                sampler.stop()
        walls[traced].append(wall)
        raw_walls[traced].append(raw_wall)
    out.problems += checks.check_agreement(counts)

    if ctx.trace:
        rounds = len(walls[True])
        layers = _zero_layers()
        layers.update(ledger.metrics(rounds))
        layers["circuits.build_s"] = built - start
        layers["order.order_for_s"] = ordered - built
        layers["obs.tracing_overhead_s"] = median(raw_walls[True]) - median(raw_walls[False])
        layers["host.kernel_ms"] = sampler.slice_ms()
        print(ledger.matrix_table(rounds))
        out.metrics = _layer_metrics(layers)
    else:
        _print_raw(setup_s, raw_walls[False], raw_op_seconds, sampler)
        out.metrics = {
            "setup_s": (setup_s * sampler.factor(0), "s"),
            "wall_s": (median(walls[False]), "s"),
            "op_p50_ms": (1000.0 * median(op_seconds), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return out


def _print_raw(
    setup_s: float, raw_walls: List[float], raw_ops: List[float], sampler: Sampler
) -> None:
    """One line of the untraced figures before host-speed scaling."""
    print(
        "raw: setup_s %.4f wall_s %.4f op_p50_ms %.3f host.kernel_ms %.3f (%d samples)"
        % (
            setup_s,
            median(raw_walls),
            1000.0 * median(raw_ops),
            sampler.slice_ms(),
            len(sampler.samples),
        )
    )


def _layer_metrics(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}


def _per_round(
    sums: Dict[str, float], raw_walls: Dict[bool, List[float]], sampler: Sampler
) -> Dict[str, float]:
    """Per-traced-round means of ``sums``, tracing overhead, host kernel; 0 elsewhere."""
    layers = _zero_layers()
    for name, total in sums.items():
        layers[name] = total / len(raw_walls[True])
    layers["obs.tracing_overhead_s"] = median(raw_walls[True]) - median(raw_walls[False])
    layers["host.kernel_ms"] = sampler.slice_ms()
    return layers


def _sampled(sampler: Sampler, call):
    """Run ``call`` with the host speed sampled from a thread; return its value.

    Used where the work runs in other processes (server, supervised
    children) and this one only drives or waits for them.  The work's
    times are not reduced by the sampler's, which runs beside it, and
    are scaled by the run's mean factor (:meth:`Sampler.factor` from
    0): a round's few dozen samples read the workload's own load on the
    cores as much as the host, and scaling each round by its own
    samples added a spread of several percent on a steady host.
    """
    sampler.start(thread=True)
    try:
        return call()
    finally:
        sampler.stop()


def bfv_control(ctx: Context) -> Outcome:
    return _in_process(ctx, BFV_CONTROL_CELLS)


def chi_orders(ctx: Context) -> Outcome:
    return _in_process(ctx, chi_orders_cells())


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

#: Distinct requests: cheap builtin and surrogate cells (each misses in
#: well under a second).
SERVE_CELLS: List[Cell] = [
    (circuit, engine, order)
    for circuit in ("s27", "traffic", "johnson8", "ring8", "arbiter5", "msi3", "handshake3", "fifo3")
    for engine in ("tr", "sat", "bfv", "bfv-sat")
    for order in ("S1", "S2")
] + [
    ("s3271s", "tr", "S1"),
    ("s3271s", "sat", "S1"),
    ("s3271s", "bfv-sat", "S1"),
    ("s1512s", "sat", "S1"),
]
#: Requests that repeat an earlier one: four per distinct cell, so four
#: fifths of the list and the median latency lies inside the hits, at
#: their 62nd percentile.  With two per cell (two thirds of the list)
#: it sat at the hits' 75th percentile, among hits delayed by a miss
#: running beside them, and spread 11-13% over ten runs.
SERVE_REPEATS = 4 * len(SERVE_CELLS)
SERVE_CONNECTIONS = 2
#: One supervised engine child at a time.  With two, the two children,
#: the server and the load generator's two connections outnumbered the
#: reference host's two CPUs, and the median latency over five seeds
#: spread 15-16% against 5% with one.
SERVE_POOL = 1
#: Iterations between a miss's checkpoints.  Every checkpoint fsyncs
#: twice; at the server's default of 1 the ~550 checkpoints of a round
#: made its time track the host disk's fsync latency (two of ten runs
#: took 2.3x and 3.8x the median during an I/O stall), so the path is
#: exercised on the longer cells without dominating the round.
SERVE_CHECKPOINT_INTERVAL = 8


def serve_requests(seed: int, round_index: int = 0) -> List[Cell]:
    """The seeded request list of one round: every distinct cell once, plus repeats.

    The seed and the round's index fix the order of first appearances,
    where the repeats fall and which earlier cell each repeats, so the
    rounds of a run each send another order and a run's figures do not
    rest on one order; the make-up (distinct cells and repeat count) is
    the same for every seed and round.
    """
    rng = random.Random("%d/%d" % (seed, round_index))
    distinct = list(SERVE_CELLS)
    rng.shuffle(distinct)
    kinds = ["first"] * (len(distinct) - 1) + ["repeat"] * SERVE_REPEATS
    rng.shuffle(kinds)
    kinds.insert(0, "first")
    fresh = iter(distinct)
    introduced: List[Cell] = []
    requests = []
    for kind in kinds:
        if kind == "first":
            introduced.append(next(fresh))
            requests.append(introduced[-1])
        else:
            requests.append(rng.choice(introduced))
    return requests


class _Server:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(self, workdir: str) -> None:
        os.makedirs(workdir)
        self.log_path = os.path.join(workdir, "server.out")
        self.cache_dir = os.path.join(workdir, "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--port",
                    "0",
                    "--pool",
                    str(SERVE_POOL),
                    "--checkpoint-interval",
                    str(SERVE_CHECKPOINT_INTERVAL),
                    "--cache-dir",
                    self.cache_dir,
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=workdir,
            )
        self.host, self.port = self._address()

    def _address(self, timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        address = line.split()[2]
                        host, port = address.rsplit(":", 1)
                        return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.log_path) as handle:
            raise RuntimeError("server did not start: %s" % handle.read()[-2000:])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def _drive(clients, requests: List[Cell]):
    """Closed loop: each connection sends its next request after a reply."""
    lock = threading.Lock()
    cursor = [0]
    records: List[Optional[Tuple[float, Dict[str, object]]]] = [None] * len(requests)
    errors: List[str] = []

    def loop(client) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            circuit, engine, order = requests[index]
            began = time.perf_counter()
            try:
                reply = client.reach(circuit, engine=engine, order=order)
            except Exception as error:  # the round reports, never hangs
                errors.append("%s/%s/%s: %r" % (circuit, engine, order, error))
                return
            records[index] = (time.perf_counter() - began, reply)

    threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - began, records, errors


def _dispositions(metrics: Dict[str, object]) -> Dict[str, int]:
    prefix = 'serve_request_seconds{disposition="'
    counts = {}
    for key, histogram in metrics.get("histograms", {}).items():
        if key.startswith(prefix):
            counts[key[len(prefix):-2]] = int(histogram["count"])
    return counts


def _checkpoint_files(root: str) -> Tuple[int, int]:
    files = size = 0
    for directory, _, names in os.walk(root):
        if os.path.basename(directory) == "ckpt":
            for name in names:
                files += 1
                size += os.path.getsize(os.path.join(directory, name))
    return files, size


def serve_mixed(ctx: Context) -> Outcome:
    from repro.circuits.catalog import builtin_circuits
    from repro.serve.client import ServeClient
    from repro.serve.protocol import ReachRequest

    out = Outcome()
    setup_s = None
    sampler: Optional[Sampler] = None
    raw_walls: Dict[bool, List[float]] = {False: [], True: []}
    raw_latencies: List[float] = []
    layer_sums: Dict[str, float] = defaultdict(float)
    hit_ms: List[float] = []
    miss_ms: List[float] = []
    expected: Optional[Dict[str, int]] = None

    for index, traced in enumerate(schedule(ctx)):
        requests = serve_requests(ctx.seed, index)
        server = _Server(os.path.join(ctx.workdir, "serve-%d" % index))
        clients = []
        try:
            clients = [ServeClient(server.host, server.port, timeout=120.0) for _ in range(SERVE_CONNECTIONS)]
            clients[0].status()
            if setup_s is None:
                setup_s = since_process_start()
                sampler = Sampler()
            wall, records, errors = _sampled(sampler, lambda: _drive(clients, requests))
            metrics = clients[0].metrics()
        finally:
            for client in clients:
                client.close()
            server.stop()
        if expected is None:
            catalog = builtin_circuits()
            circuits = {c: catalog[c]() for c, _, _ in SERVE_CELLS}
            refs = _references(circuits, SERVE_CELLS, {})
            expected = {cell[0]: refs[cell]["states"] for cell in SERVE_CELLS}
        raw_walls[traced].append(wall)
        for error in errors:
            print("serve request failed: %s" % error, file=sys.stderr)
        replies = []
        for cell, record in zip(requests, records):
            out.attempted += 1
            if record is None:
                out.failed += 1
                continue
            seconds, reply = record
            replies.append(reply)
            label = "serve " + "/".join(cell)
            result = reply.get("result") or {}
            if reply.get("status") != "ok" or not result.get("completed"):
                out.failed += 1
                continue
            out.problems += checks.check_count(label, result.get("num_states"), expected[cell[0]])
            if not traced:
                raw_latencies.append(seconds)
            else:
                (hit_ms if reply.get("cached") else miss_ms).append(1000.0 * seconds)
                if not reply.get("cached"):
                    layer_sums["harness.engine_s"] += float(result.get("seconds", 0.0))
                    layer_sums["harness.overhead_s"] += seconds - float(result.get("seconds", 0.0))
        counters = metrics.get("counters", {})
        dispositions = _dispositions(metrics.get("metrics", {}))
        out.problems += checks.check_serve_ledger(replies, counters, dispositions, len(requests))
        if traced:
            layer_sums["serve.hits"] += counters.get("cache_hits", 0)
            layer_sums["serve.misses"] += dispositions.get("cold", 0) + dispositions.get("resumed", 0)
            layer_sums["serve.dedup"] += dispositions.get("dedup_hit", 0)
            files, size = _checkpoint_files(server.cache_dir)
            layer_sums["harness.checkpoint_files"] += files
            layer_sums["harness.checkpoint_bytes"] += size
            fingerprint_ms = []
            for circuit, engine, order in SERVE_CELLS:
                began = time.perf_counter()
                ReachRequest(id="fp", circuit=circuit, engine=engine, order=order).fingerprint()
                fingerprint_ms.append(1000.0 * (time.perf_counter() - began))
            layer_sums["serve.fingerprint_ms"] += median(fingerprint_ms)

    if ctx.trace:
        layers = _per_round(layer_sums, raw_walls, sampler)
        layers["serve.hit_p50_ms"] = median(hit_ms)
        layers["serve.miss_p50_ms"] = median(miss_ms)
        out.metrics = _layer_metrics(layers)
    else:
        _print_raw(setup_s, raw_walls[False], raw_latencies, sampler)
        factor = sampler.factor(0)
        out.metrics = {
            "setup_s": (setup_s * factor, "s"),
            "wall_s": (median(raw_walls[False]) * factor, "s"),
            "op_p50_ms": (1000.0 * median(raw_latencies) * factor, "ms"),
            "peak_rss_mb": (peak_rss_mb(children=True, own=False), "MB"),
        }
    return out


# ----------------------------------------------------------------------
# batch-ladder
# ----------------------------------------------------------------------

#: Jobs of the batch.  Under the live-node budget below, bfv ends M.O.
#: on s1512s and s3330s under both S1 and S2 (the allocation ceiling is
#: a count, so this is deterministic) and the ladder completes them with
#: sat; the other jobs complete on their first rung.  Every attempt
#: forks a child that writes its result with two fsyncs, and one job's
#: time varies widely from attempt to attempt (0.25-0.56 s for eight
#: s3271s jobs in one process), so the median job must be seen several
#: times per run: s3271s is listed four times (the scheduler keeps
#: duplicate references as separate jobs) and is the median, about
#: twice as far from s4863s (~0.13 s) below it and the ladders (~4 s)
#: above it.
BATCH_CIRCUITS = (
    "s1512s",
    "s3330s",
    "s3271s",
    "s3271s",
    "s3271s",
    "s3271s",
    "s4863s",
    "traffic",
    "s27",
)
BATCH_NODE_BUDGET = 3000
#: Per-job time budget, split statically over the six ladder rungs
#: (20 s each): an order of magnitude above every rung's cost.
BATCH_JOB_SECONDS = 120.0
BATCH_JOBS = 2
#: Scheduling estimates in the BENCH_reach format, pinned here so that a
#: regenerated baseline elsewhere cannot reorder dispatch.
BATCH_ESTIMATES = os.path.join(HERE, "batch_estimates.json")


def batch_ladder(ctx: Context) -> Outcome:
    from repro.circuits.catalog import builtin_circuits
    from repro.harness.scheduler import BatchScheduler
    from repro.harness.supervisor import Supervisor

    class TimedSupervisor(Supervisor):
        """Times every supervised attempt from the dispatching side."""

        def __init__(self) -> None:
            super().__init__()
            #: id(result) -> (began, ended, result) of every attempt; the
            #: report's jobs hold the same result objects.
            self.spans: Dict[int, Tuple[float, float, object]] = {}
            self._lock = threading.Lock()

        def run(self, spec, **kwargs):
            began = time.perf_counter()
            result = super().run(spec, **kwargs)
            ended = time.perf_counter()
            with self._lock:
                self.spans[id(result)] = (began, ended, result)
            return result

    setup_s = since_process_start()
    catalog = builtin_circuits()
    circuits = {name: catalog[name]() for name in BATCH_CIRCUITS}
    cells = [(name, "sat", "S1") for name in BATCH_CIRCUITS]
    refs = _references(circuits, cells, {})
    expected = {cell[0]: refs[cell]["states"] for cell in cells}

    out = Outcome()
    sampler = Sampler()
    raw_walls: Dict[bool, List[float]] = {False: [], True: []}
    raw_job_seconds: List[float] = []
    layer_sums: Dict[str, float] = defaultdict(float)
    for traced in schedule(ctx):
        supervisor = TimedSupervisor()

        def batch():
            began = time.perf_counter()
            report = BatchScheduler(
                list(BATCH_CIRCUITS),
                engine="bfv",
                order="S1",
                jobs=BATCH_JOBS,
                max_seconds=BATCH_JOB_SECONDS,
                max_live_nodes=BATCH_NODE_BUDGET,
                bench_path=BATCH_ESTIMATES,
                supervisor=supervisor,
            ).run()
            return report, time.perf_counter() - began

        report, wall = _sampled(sampler, batch)
        raw_walls[traced].append(wall)
        for job in report.jobs:
            out.attempted += 1
            outcome = job.outcome
            if outcome is None or not outcome.completed:
                out.failed += 1
                continue
            label = "batch %s (%s/%s)" % (job.circuit, outcome.engine, outcome.order)
            out.problems += checks.check_count(label, outcome.num_states, expected[job.circuit])
            first = min(supervisor.spans[id(attempt)][0] for attempt in job.attempts)
            done = supervisor.spans[id(outcome)][1]
            if not traced:
                raw_job_seconds.append(done - first)
        if traced:
            for cell in report.cells:
                if cell.state != "done":
                    continue
                layer_sums["scheduler.attempts"] += 1
                layer_sums["scheduler.fallback_attempts"] += cell.cell.rung > 0
                layer_sums["scheduler.discarded_attempts"] += cell.discarded
            for began_at, ended_at, result in supervisor.spans.values():
                layer_sums["harness.engine_s"] += result.seconds
                layer_sums["harness.overhead_s"] += (ended_at - began_at) - result.seconds

    if ctx.trace:
        out.metrics = _layer_metrics(_per_round(layer_sums, raw_walls, sampler))
    else:
        _print_raw(setup_s, raw_walls[False], raw_job_seconds, sampler)
        factor = sampler.factor(0)
        out.metrics = {
            "setup_s": (setup_s * factor, "s"),
            "wall_s": (median(raw_walls[False]) * factor, "s"),
            "op_p50_ms": (1000.0 * median(raw_job_seconds) * factor, "ms"),
            "peak_rss_mb": (peak_rss_mb(children=True), "MB"),
        }
    return out


WORKLOADS = {
    "bfv-control": bfv_control,
    "chi-orders": chi_orders,
    "serve-mixed": serve_mixed,
    "batch-ladder": batch_ladder,
}
