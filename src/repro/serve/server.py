"""Reachability-as-a-service: the asyncio front-end.

``python -m repro serve`` binds :class:`ReachServer` to a TCP port and
speaks the NDJSON protocol of :mod:`repro.serve.protocol`.  The server
is a thin, failure-isolated shell over the existing harness stack:

* every attempt runs in a supervised child via the long-lived
  :class:`~repro.harness.pool.WorkerPool` (crash isolation, watchdogs,
  spawn/crash retry with backoff) — a dying engine never takes the
  service down;
* results and checkpoints live in a content-addressed
  :class:`~repro.serve.cache.ResultCache`, so identical requests are
  answered from disk and a timed-out request *resumes* from its
  checkpoint instead of restarting;
* identical in-flight requests share one attempt
  (:class:`~repro.serve.session.SessionManager`); cancelled or
  disconnected clients detach, and an attempt nobody is waiting for is
  cooperatively killed (its checkpoint stays resumable);
* load beyond the bounded queue is shed with a ``retry_after`` hint
  (:class:`~repro.serve.admission.AdmissionController`) — the degraded
  mode is "try again later", never an unbounded pile-up.

Telemetry is JSONL in the run-trace format: one ``serve_request`` event
per request and ``serve_counters`` snapshots, rendered by
``python -m repro trace``.

Live observability (the metrics layer):

* every attempt writes its per-iteration trace JSONL *into the cache
  entry* (``<key>/trace/``), so telemetry is content-addressed like the
  result and checkpoints it belongs to;
* ``subscribe`` streams those records to a client while the attempt is
  in flight — the server tails the trace files
  (:class:`repro.obs.tail.JsonlTail`) through a bounded per-subscriber
  queue; a consumer slower than the run loses records (counted, and
  reported in the stream's closing line), never memory;
* ``trace`` answers the phase summary / iteration table of any stored
  fingerprint from that JSONL, with no recomputation;
* a :class:`repro.obs.MetricsRegistry` (one per server) aggregates
  request latencies, queue depths, and cache/session/drop counters,
  exposed by the ``metrics`` op and an optional ``--metrics-port`` HTTP
  listener speaking Prometheus text format.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from typing import Dict, Optional

from ..errors import ServeError
from ..harness.faults import SERVE_PID_ENV_VAR
from ..harness.journal import RunJournal
from ..harness.pool import WorkerPool
from ..harness.worker import AttemptSpec
from ..obs import JsonlTail, MetricsRegistry
from ..obs.report import load_trace, summarize_trace
from ..reach import ReachResult
from . import protocol
from .admission import AdmissionController, AdmissionPolicy
from .cache import COMPLETE, RESUMABLE, ResultCache
from .session import Session, SessionManager

#: Queue-drain estimate per attempt used for Retry-After hints when no
#: better signal exists (the surrogate circuits finish in well under
#: this; real ISCAS'89 runs are budget-bound anyway).
TYPICAL_ATTEMPT_SECONDS = 5.0

#: Bounded per-subscriber event queue: deep enough that a normally-paced
#: reader never drops, small enough that one wedged client costs ~a few
#: hundred records of memory, not the run's whole history.
DEFAULT_SUBSCRIBER_QUEUE = 256

#: How often a subscriber's tailer polls the attempt's trace files.
SUBSCRIBE_POLL_SECONDS = 0.05


class Counters:
    """Thread-safe monotonic counters for the telemetry snapshots.

    With a registry attached every bump is mirrored into a
    ``serve_<name>`` registry counter, so the Prometheus endpoint and
    the ``metrics`` op see the same numbers as the JSONL snapshots.
    """

    FIELDS = (
        "requests",
        "ok",
        "cache_hits",
        "resumes",
        "resumable_stored",
        "shed",
        "cancelled",
        "failed",
        "errors",
        "disconnects",
        "subscriptions",
        "stream_events",
        "subscriber_drops",
        "telemetry_drops",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._values = {name: 0 for name in self.FIELDS}
        self._registry = registry

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._values[name] += amount
        if self._registry is not None:
            self._registry.counter("serve_" + name).inc(amount)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)


class _Connection:
    """Per-client state: serialized writes + this client's waiters."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.waiters: Dict[str, object] = {}
        self.closed = False

    async def send(self, message: Dict[str, object]) -> None:
        if self.closed:
            return
        async with self.lock:
            try:
                self.writer.write(protocol.encode(message))
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True


class ReachServer:
    """The reachability service (see module docstring)."""

    def __init__(
        self,
        cache_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 2,
        policy: Optional[AdmissionPolicy] = None,
        trace_dir: Optional[str] = None,
        journal_path: Optional[str] = None,
        checkpoint_interval: int = 1,
        subscriber_queue_size: int = DEFAULT_SUBSCRIBER_QUEUE,
        subscribe_poll_seconds: float = SUBSCRIBE_POLL_SECONDS,
        metrics_port: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: One registry per server (private by default so parallel test
        #: servers never share counters), fed by every layer below.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = ResultCache(cache_dir, registry=self.registry)
        self.sessions = SessionManager()
        self.admission = AdmissionController(policy)
        self.counters = Counters(self.registry)
        self.checkpoint_interval = checkpoint_interval
        self.trace_dir = trace_dir
        self.subscriber_queue_size = subscriber_queue_size
        self.subscribe_poll_seconds = subscribe_poll_seconds
        self.metrics_port = metrics_port
        journal = RunJournal(journal_path) if journal_path else None
        self.pool = WorkerPool(pool_size, journal=journal, registry=self.registry)
        self.telemetry: Optional[RunJournal] = None
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            self.telemetry = RunJournal(
                os.path.join(trace_dir, "serve-telemetry.jsonl")
            )
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; resolves :attr:`port` when 0 was asked."""
        # Children inherit this (fork), letting an injected
        # ``server_crash`` fault target the serve process, and letting
        # the smoke test find orphans by scanning /proc environs.
        os.environ[SERVE_PID_ENV_VAR] = str(os.getpid())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, self.host, self.metrics_port
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]
        self._emit_counters("start")

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, cancel work, drain pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        # Pool shutdown cancels outstanding tokens and reaps children.
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.shutdown
        )
        self._emit_counters("stop")

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _emit(self, record: Dict[str, object]) -> None:
        if self.telemetry is not None:
            try:
                self.telemetry.append(record)
            except OSError:
                # Telemetry is best-effort (a full disk must not take
                # requests down), but a drop is never silent: it shows
                # up in the counters snapshot, the registry, and the
                # `repro trace` serve section.
                self.counters.bump("telemetry_drops")

    def _emit_counters(self, moment: str) -> None:
        record: Dict[str, object] = {
            "event": "serve_counters",
            "moment": moment,
        }
        record.update(self.counters.snapshot())
        record.update(self.sessions.snapshot())
        record.update(self.admission.snapshot())
        record["pool"] = self.pool.stats()
        record["cache"] = self.cache.stats()
        self._emit(record)

    def _emit_request(
        self,
        request: protocol.ReachRequest,
        key: str,
        disposition: str,
        status: str,
        seconds: float,
    ) -> None:
        self._emit(
            {
                "event": "serve_request",
                "op": "reach",
                "circuit": request.circuit,
                "engine": request.engine,
                "order": request.order,
                "key": key,
                "disposition": disposition,
                "status": status,
                "seconds": round(seconds, 6),
            }
        )
        self.registry.histogram(
            "serve_request_seconds", {"disposition": disposition}
        ).observe(seconds)

    def _refresh_gauges(self) -> None:
        """Pull point-in-time levels into the registry before a read.

        Counters and histograms are pushed at the moment things happen;
        levels (queue depths, in-flight sessions, cache entry counts)
        are cheapest sampled when somebody actually looks.
        """
        registry = self.registry
        pool = self.pool.stats()
        registry.gauge("serve_queue_depth").set(pool["queued"])
        admission = self.admission.snapshot()
        registry.gauge("admission_inflight").set(admission.get("inflight", 0))
        sessions = self.sessions.snapshot()
        registry.gauge("inflight_sessions").set(
            sessions["inflight_sessions"]
        )
        cache = self.cache.stats()
        for status, count in cache.items():
            registry.gauge("cache_entries", {"status": status}).set(count)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        await conn.send(
            {"server": protocol.PROTOCOL, "pid": os.getpid()}
        )
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._dispatch_line(conn, line)
        finally:
            conn.closed = True
            # Client went away: detach every waiter it still had; the
            # last waiter of a session cancels the attempt (checkpoint
            # stays resumable).
            leftovers = list(conn.waiters.values())
            conn.waiters.clear()
            if leftovers:
                self.counters.bump("disconnects")
            for waiter in leftovers:
                self.sessions.detach(waiter)
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop teardown race
                pass

    async def _dispatch_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = protocol.parse_request(line)
        except ServeError as error:
            self.counters.bump("errors")
            request_id = None
            try:
                raw = json.loads(line.decode("utf-8", errors="replace"))
                if isinstance(raw, dict) and isinstance(raw.get("id"), str):
                    request_id = raw["id"]
            except ValueError:
                pass
            await conn.send(protocol.error_response(request_id, str(error)))
            return
        if request.op == "status":
            await self._handle_status(conn, request)
        elif request.op == "cancel":
            await self._handle_cancel(conn, request)
        elif request.op == "reach":
            await self._handle_reach(conn, request.reach)
        elif request.op == "batch":
            task = asyncio.ensure_future(self._handle_batch(conn, request))
            self._track(task)
        elif request.op == "subscribe":
            await self._handle_subscribe(conn, request)
        elif request.op == "trace":
            await self._handle_trace(conn, request)
        elif request.op == "metrics":
            await self._handle_metrics(conn, request)

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    async def _handle_status(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        self._emit_counters("status")
        await conn.send(
            protocol.response(
                request.id,
                "ok",
                counters=self.counters.snapshot(),
                sessions=self.sessions.snapshot(),
                admission=self.admission.snapshot(),
                pool=self.pool.stats(),
                cache=self.cache.stats(),
            )
        )

    async def _handle_cancel(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        waiter = conn.waiters.pop(request.target, None)
        if waiter is None:
            await conn.send(
                protocol.response(
                    request.id,
                    "error",
                    error="no in-flight request %r on this connection"
                    % request.target,
                )
            )
            return
        self.sessions.detach(waiter)
        self.counters.bump("cancelled")
        await conn.send(
            protocol.response(request.target, "cancelled")
        )
        await conn.send(
            protocol.response(request.id, "ok", target=request.target)
        )

    def _resolve_key(self, request: protocol.Request) -> str:
        """The fingerprint a subscribe/trace request addresses.

        Raises :class:`ServeError` when reach-shaped fields fail to
        fingerprint (unknown circuit, unreadable path).
        """
        if request.key is not None:
            return request.key
        assert request.reach is not None
        try:
            return request.reach.fingerprint()
        except Exception as error:  # CircuitError, OSError on bad paths
            raise ServeError(str(error))

    async def _handle_metrics(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        self._refresh_gauges()
        await conn.send(
            protocol.response(
                request.id,
                "ok",
                metrics=self.registry.snapshot(),
                counters=self.counters.snapshot(),
            )
        )

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0 responder for ``GET /metrics`` (Prometheus).

        Anything but ``/metrics`` gets a 404; the connection closes
        after one exchange.  No HTTP library — one request line, headers
        skipped until the blank line, one response.
        """
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else ""
            if len(parts) > 0 and parts[0] == "GET" and path.split("?")[0] == "/metrics":
                self._refresh_gauges()
                body = self.registry.render_prometheus().encode()
                head = (
                    "HTTP/1.0 200 OK\r\n"
                    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    "Content-Length: %d\r\n\r\n" % len(body)
                )
            else:
                body = b"not found\n"
                head = (
                    "HTTP/1.0 404 Not Found\r\n"
                    "Content-Type: text/plain\r\n"
                    "Content-Length: %d\r\n\r\n" % len(body)
                )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop teardown race
                pass

    async def _handle_trace(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        """Answer a fingerprint's stored telemetry — no recomputation."""
        try:
            key = self._resolve_key(request)
        except ServeError as error:
            self.counters.bump("errors")
            await conn.send(protocol.error_response(request.id, str(error)))
            return
        entry = self.cache.lookup(key)
        if not self.cache.has_trace(key):
            await conn.send(
                protocol.response(
                    request.id,
                    "miss",
                    key=key,
                    cached=entry.status if entry is not None else None,
                )
            )
            return
        records = await asyncio.get_running_loop().run_in_executor(
            None,
            load_trace,
            os.path.join(self.cache.entry_dir(key), "trace"),
        )
        report = summarize_trace(records)
        await conn.send(
            protocol.response(
                request.id,
                "ok",
                key=key,
                cached=entry.status if entry is not None else None,
                live=self.sessions.session_for(key) is not None,
                trace=report,
                counters=self.counters.snapshot(),
            )
        )

    async def _handle_subscribe(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        """Start streaming a fingerprint's telemetry to this client.

        The subscriber is *not* a session waiter: it never keeps an
        abandoned attempt alive and its disconnect never cancels the
        run.  The stream replays the trace records already on disk
        (the trajectory so far), then follows the files while the
        session is live, and closes with a summary line carrying the
        session outcome and the slow-consumer drop count.
        """
        try:
            key = self._resolve_key(request)
        except ServeError as error:
            self.counters.bump("errors")
            await conn.send(protocol.error_response(request.id, str(error)))
            return
        session = self.sessions.session_for(key)
        if session is None and not self.cache.has_trace(key):
            await conn.send(
                protocol.response(request.id, "miss", key=key)
            )
            return
        self.counters.bump("subscriptions")
        await conn.send(
            protocol.response(
                request.id,
                "streaming",
                key=key,
                live=session is not None,
            )
        )
        self._track(
            asyncio.ensure_future(
                self._stream(conn, request.id, key, session)
            )
        )

    async def _stream(
        self,
        conn: _Connection,
        request_id: str,
        key: str,
        session: Optional[Session],
    ) -> None:
        """One subscriber: tailer task -> bounded queue -> writer.

        The tailer never blocks on the client: records go into the
        queue with ``put_nowait`` and overflow is *dropped and counted*
        (``dropped`` in the closing line, ``subscriber_drops`` in the
        counters).  The writer side awaits the socket, so a slow client
        throttles only its own queue.
        """
        queue: "asyncio.Queue" = asyncio.Queue(
            maxsize=self.subscriber_queue_size
        )
        state = {"dropped": 0, "events": 0}

        async def _tail() -> None:
            tail = JsonlTail(self.cache.trace_dir(key))
            final_pass = False
            while True:
                for record in await asyncio.get_running_loop().run_in_executor(
                    None, tail.poll
                ):
                    record.pop("_file", None)
                    try:
                        queue.put_nowait(record)
                    except asyncio.QueueFull:
                        state["dropped"] += 1
                if final_pass or conn.closed:
                    break
                if session is None or session.done:
                    # The session resolved (or never existed: a replay
                    # of a stored trace); one more poll drains what the
                    # attempt wrote between our last poll and its end.
                    final_pass = True
                    continue
                await asyncio.sleep(self.subscribe_poll_seconds)
            await queue.put(None)  # end-of-stream sentinel, never dropped

        tail_task = asyncio.ensure_future(_tail())
        self._track(tail_task)
        try:
            while True:
                record = await queue.get()
                if record is None:
                    break
                state["events"] += 1
                await conn.send(
                    protocol.response(
                        request_id, "event", key=key, record=record
                    )
                )
        finally:
            tail_task.cancel()
            if state["dropped"]:
                self.counters.bump("subscriber_drops", state["dropped"])
            self.counters.bump("stream_events", state["events"])
            outcome = session.outcome if session is not None else None
            await conn.send(
                protocol.response(
                    request_id,
                    "complete",
                    key=key,
                    events=state["events"],
                    dropped=state["dropped"],
                    outcome=outcome,
                )
            )

    async def _handle_batch(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        loop = asyncio.get_running_loop()
        futures = []
        for item in request.requests:
            future: "asyncio.Future" = loop.create_future()
            futures.append(future)
            await self._handle_reach(conn, item, collect=future)
        results = await asyncio.gather(*futures)
        failed = sum(
            1 for item in results if item.get("status") not in ("ok",)
        )
        await conn.send(
            protocol.response(
                request.id,
                "ok" if failed == 0 else "partial",
                results=list(results),
                failed=failed,
            )
        )

    async def _handle_reach(
        self,
        conn: _Connection,
        request: protocol.ReachRequest,
        collect: Optional["asyncio.Future"] = None,
    ) -> None:
        """Serve one reach request (also the batch per-item path).

        With ``collect`` set (batch mode) the response is resolved into
        that future instead of written immediately — the batch envelope
        carries all item responses together.
        """
        self.counters.bump("requests")
        started = time.monotonic()

        async def _respond(message: Dict[str, object]) -> None:
            if collect is not None:
                if not collect.done():
                    collect.set_result(message)
            else:
                await conn.send(message)

        try:
            key = request.fingerprint()
        except Exception as error:  # CircuitError, OSError on bad paths
            self.counters.bump("errors")
            await _respond(protocol.error_response(request.id, str(error)))
            return

        entry = self.cache.lookup(key)
        if request.mode == "peek":
            if entry is None:
                status = "miss"
                message = protocol.response(request.id, "miss", key=key)
            else:
                status = "ok" if entry.status == COMPLETE else RESUMABLE
                message = protocol.response(
                    request.id,
                    status,
                    key=key,
                    cached=True,
                    result=entry.result.to_dict(),
                )
            self._emit_request(
                request, key, "peek", status, time.monotonic() - started
            )
            await _respond(message)
            return

        if entry is not None and entry.status == COMPLETE:
            self.counters.bump("cache_hits")
            self.counters.bump("ok")
            self._emit_request(
                request, key, "cache_hit", "ok", time.monotonic() - started
            )
            await _respond(
                protocol.response(
                    request.id,
                    "ok",
                    key=key,
                    cached=True,
                    result=entry.result.to_dict(),
                )
            )
            return

        def deliver(status: str, fields: Dict[str, object]) -> None:
            conn.waiters.pop(request.id, None)
            message = protocol.response(request.id, status, **fields)
            if collect is not None:
                if not collect.done():
                    collect.set_result(message)
            else:
                task = asyncio.ensure_future(conn.send(message))
                self._track(task)

        waiter, created = self.sessions.begin_or_attach(key, deliver)
        conn.waiters[request.id] = waiter
        if not created:
            self._emit_request(
                request, key, "dedup_hit", "wait", time.monotonic() - started
            )
            return

        session = waiter.session
        ticket = self.admission.try_admit(
            self.pool.size, request.max_seconds
        )
        if ticket is None:
            self.counters.bump("shed")
            hint = self.admission.retry_after(
                self.pool.stats(), TYPICAL_ATTEMPT_SECONDS
            )
            self._emit_request(
                request, key, "shed", "shed", time.monotonic() - started
            )
            self.sessions.finish(
                session, "shed", {"key": key, "retry_after": hint}
            )
            return

        resuming = self.cache.has_checkpoints(key)
        spec = AttemptSpec(
            circuit=request.circuit,
            engine=request.engine,
            order=request.order,
            max_seconds=ticket.max_seconds,
            max_live_nodes=request.max_nodes,
            max_iterations=request.max_iterations,
            checkpoint_dir=self.cache.checkpoint_dir(key),
            checkpoint_interval=self.checkpoint_interval,
            resume=True,
            count_states=request.count_states,
            # Per-iteration telemetry goes into the cache entry, next
            # to the checkpoints: that JSONL is what `subscribe` tails
            # while this attempt runs and what `trace` answers from
            # later.  (The server's own --trace-dir holds only the
            # serve_* events.)
            trace_dir=self.cache.trace_dir(key),
            faults=request.faults,
        )
        try:
            future = self.pool.submit(
                spec,
                token=session.token,
                budget_seconds=ticket.budget_seconds,
                max_rss_bytes=ticket.max_rss_bytes,
            )
        except RuntimeError as error:  # pool shut down mid-request
            self.admission.release()
            self.counters.bump("errors")
            self.sessions.finish(session, "error", {"error": str(error)})
            return

        async def _complete() -> None:
            try:
                result = await asyncio.wrap_future(future)
            finally:
                self.admission.release()
            status, fields, entry_status = self._classify(key, result)
            if entry_status is not None:
                # The entry's JSON write and fsyncs run off the event
                # loop, so hits on other keys are answered meanwhile; the
                # session stays open until the entry exists, so a repeat
                # of this request still dedups onto it.
                await asyncio.get_running_loop().run_in_executor(
                    None, self.cache.store, key, result, entry_status
                )
            if result.extra.get("resumed_from") is not None:
                self.counters.bump("resumes")
            disposition = (
                "resumed"
                if resuming and result.extra.get("resumed_from") is not None
                else "cold"
            )
            self._emit_request(
                request, key, disposition, status, time.monotonic() - started
            )
            self.sessions.finish(session, status, fields)

        self._track(asyncio.ensure_future(_complete()))

    # ------------------------------------------------------------------
    # Outcome classification
    # ------------------------------------------------------------------

    def _classify(self, key, result: ReachResult):
        """Map an attempt outcome to a response status, its fields and
        the cache entry status to store (None: store nothing)."""
        fields: Dict[str, object] = {
            "key": key,
            "result": result.to_dict(),
        }
        if result.completed:
            self.counters.bump("ok")
            return "ok", fields, COMPLETE
        if self.cache.has_checkpoints(key):
            # Budget ran out (or the attempt was killed) but a snapshot
            # survived: persist the partial result; re-asking resumes.
            self.counters.bump("resumable_stored")
            if result.failure == "cancelled":
                self.counters.bump("cancelled")
                return "cancelled", fields, RESUMABLE
            fields["retry_after"] = self.admission.policy.min_retry_after_seconds
            return "resumable", fields, RESUMABLE
        if result.failure == "cancelled":
            self.counters.bump("cancelled")
            return "cancelled", fields, None
        self.counters.bump("failed")
        return "failed", fields, None
