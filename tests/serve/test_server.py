"""End-to-end service tests over real sockets and supervised children.

Every test here drives a live :class:`repro.serve.ReachServer` through
the blocking client — the full serve → admission → session → pool →
supervisor → engine path, including the degradation ladder: cache hit,
in-flight dedup, cooperative cancel, load shed, crash-retry, and
timeout → resumable → resume.
"""

import socket
import threading
import time

import pytest

from repro.circuits.catalog import resolve
from repro.obs.report import render_trace_path
from repro.serve import AdmissionPolicy
from repro.sim import explicit_reachable

#: A fault plan that wedges the attempt long enough for a second
#: pipelined request to arrive, without tripping any watchdog.
SLOW = [{"kind": "hang", "at_iteration": 1, "seconds": 1.0}]

#: A fault plan that wedges the attempt until cancelled.
STUCK = [{"kind": "hang", "at_iteration": 1, "seconds": 60.0}]


def poll_status(client, predicate, timeout=20.0):
    """Poll ``status`` until ``predicate(reply)`` holds; returns the reply."""
    deadline = time.monotonic() + timeout
    while True:
        reply = client.status()
        if predicate(reply):
            return reply
        if time.monotonic() > deadline:
            raise AssertionError("status never satisfied: %r" % (reply,))
        time.sleep(0.05)


class TestReach:
    def test_completes_and_matches_oracle(self, serve_factory):
        handle = serve_factory()
        truth = explicit_reachable(resolve("traffic"))
        with handle.client() as client:
            reply = client.reach("traffic", max_seconds=60)
        assert reply["status"] == "ok", reply
        result = reply["result"]
        assert result["completed"] is True
        assert result["num_states"] == len(truth)
        assert "cached" not in reply

    def test_identical_request_is_a_cache_hit(self, serve_factory):
        handle = serve_factory()
        with handle.client() as client:
            first = client.reach("traffic", max_seconds=60)
            second = client.reach("traffic", max_seconds=60)
            status = client.status()
        assert first["status"] == "ok"
        assert second["status"] == "ok"
        assert second.get("cached") is True
        assert second["result"]["num_states"] == first["result"]["num_states"]
        assert status["counters"]["cache_hits"] == 1
        assert status["cache"]["complete"] == 1

    def test_budget_variant_hits_the_same_entry(self, serve_factory):
        # max_seconds is excluded from the fingerprint, so a retried
        # request with a different budget is still a cache hit.
        handle = serve_factory()
        with handle.client() as client:
            client.reach("traffic", max_seconds=60)
            again = client.reach("traffic", max_seconds=7)
        assert again.get("cached") is True

    def test_peek_never_starts_work(self, serve_factory):
        handle = serve_factory()
        with handle.client() as client:
            miss = client.reach("traffic", mode="peek")
            client.reach("traffic", max_seconds=60)
            hit = client.reach("traffic", mode="peek")
            status = client.status()
        assert miss["status"] == "miss"
        assert hit["status"] == "ok"
        assert hit.get("cached") is True
        # Only the run-mode request started a session.
        assert status["sessions"]["started"] == 1

    def test_malformed_lines_do_not_kill_the_connection(self, serve_factory):
        handle = serve_factory()
        with handle.client() as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            garbage = client.recv()
            assert garbage["status"] == "error"
            bad_op = client.call({"op": "launch_missiles"})
            assert bad_op["status"] == "error"
            reply = client.reach("traffic", max_seconds=60)
            assert reply["status"] == "ok"


class TestDedup:
    def test_concurrent_identical_requests_share_one_attempt(
        self, serve_factory
    ):
        handle = serve_factory()
        with handle.client() as client:
            # Pipeline two identical requests; the hang fault keeps the
            # first attempt in flight while the second arrives.
            first = client.send({"op": "reach", "circuit": "traffic",
                                 "max_seconds": 60, "faults": SLOW})
            second = client.send({"op": "reach", "circuit": "traffic",
                                  "max_seconds": 60, "faults": SLOW})
            reply_one = client.wait(first)
            reply_two = client.wait(second)
            status = client.status()
        assert reply_one["status"] == "ok"
        assert reply_two["status"] == "ok"
        assert reply_one["result"] == reply_two["result"]
        assert status["sessions"]["started"] == 1
        assert status["sessions"]["dedup_hits"] == 1
        # One attempt ran; the dedup waiter never touched the pool.
        assert status["pool"]["submitted"] == 1


class TestStoreOffTheLoop:
    def test_hit_is_answered_while_a_miss_is_being_stored(
        self, serve_factory
    ):
        handle = serve_factory(pool_size=1)
        cache = handle.server.cache
        with handle.client() as client:
            assert client.reach("traffic", max_seconds=60)["status"] == "ok"

        entered = threading.Event()
        release = threading.Event()
        original = cache.store

        def blocked_store(key, result, status):
            entered.set()
            release.wait(timeout=60)
            return original(key, result, status)

        cache.store = blocked_store
        try:
            with handle.client() as miss_client, handle.client(
                timeout=10
            ) as hit_client:
                miss = miss_client.send(
                    {"op": "reach", "circuit": "s27", "max_seconds": 60}
                )
                assert entered.wait(timeout=60), "store never started"
                # A repeat of the miss arriving mid-store still dedups.
                repeat = miss_client.send(
                    {"op": "reach", "circuit": "s27", "max_seconds": 60}
                )
                try:
                    hit = hit_client.reach("traffic", max_seconds=60)
                except socket.timeout:
                    pytest.fail("cache hit stalled behind a blocked store")
                assert not release.is_set()
                assert hit["status"] == "ok" and hit.get("cached") is True
                release.set()
                assert miss_client.wait(miss)["status"] == "ok"
                assert miss_client.wait(repeat)["status"] == "ok"
                status = hit_client.status()
        finally:
            release.set()
            cache.store = original
        assert status["sessions"]["dedup_hits"] == 1
        assert status["pool"]["submitted"] == 2


class TestCancel:
    def test_cancel_kills_the_attempt_and_keeps_a_resumable_entry(
        self, serve_factory
    ):
        handle = serve_factory()
        with handle.client() as client:
            request_id = client.send({"op": "reach", "circuit": "traffic",
                                      "max_seconds": 120, "faults": STUCK})
            time.sleep(0.3)  # let the attempt reach its first checkpoint
            ack = client.cancel(request_id)
            assert ack["status"] == "ok"
            cancelled = client.wait(request_id)
            assert cancelled["status"] == "cancelled"
            # The killed child left its checkpoint; the entry is stored
            # resumable once the supervisor reaps it.
            status = poll_status(
                client,
                lambda r: r["counters"]["resumable_stored"] >= 1,
            )
        assert status["counters"]["cancelled"] >= 1
        assert status["sessions"]["abandoned"] == 1
        assert status["cache"]["resumable"] == 1

    def test_cancel_unknown_target_is_an_error(self, serve_factory):
        handle = serve_factory()
        with handle.client() as client:
            reply = client.cancel("never-sent")
        assert reply["status"] == "error"

    def test_disconnect_abandons_the_attempt(self, serve_factory):
        handle = serve_factory()
        client = handle.client()
        client.send({"op": "reach", "circuit": "traffic",
                     "max_seconds": 120, "faults": STUCK})
        time.sleep(0.3)
        client.close()  # vanish without cancelling
        with handle.client() as watcher:
            status = poll_status(
                watcher,
                lambda r: r["counters"]["resumable_stored"] >= 1,
            )
        assert status["counters"]["disconnects"] == 1
        assert status["sessions"]["abandoned"] == 1


class TestShed:
    def test_overload_sheds_with_retry_after(self, serve_factory):
        handle = serve_factory(
            pool_size=1, policy=AdmissionPolicy(max_queue=0)
        )
        with handle.client() as client:
            busy = client.send({"op": "reach", "circuit": "traffic",
                                "max_seconds": 60, "faults": SLOW})
            shed = client.send({"op": "reach", "circuit": "s27",
                                "max_seconds": 60})
            shed_reply = client.wait(shed)
            busy_reply = client.wait(busy)
            status = client.status()
        assert shed_reply["status"] == "shed"
        assert shed_reply["retry_after"] >= 1.0
        assert busy_reply["status"] == "ok"
        assert status["counters"]["shed"] == 1
        assert status["admission"]["shed"] == 1
        # A shed leaves nothing behind: the key can be asked again.
        with handle.client() as client:
            retry = client.reach("s27", max_seconds=60)
        assert retry["status"] == "ok"


class TestResume:
    def test_timeout_then_bigger_budget_resumes(self, serve_factory):
        handle = serve_factory(pool_size=1)
        with handle.client(timeout=120) as client:
            partial = client.reach("counter8", max_seconds=0.2)
            assert partial["status"] == "resumable", partial
            assert partial["result"]["completed"] is False
            assert partial["result"]["failure"] == "time"
            assert partial["retry_after"] >= 1.0
            first_iterations = partial["result"]["iterations"]
            assert first_iterations >= 1

            peek = client.reach("counter8", mode="peek")
            assert peek["status"] == "resumable"

            final = client.reach("counter8", max_seconds=120)
            status = client.status()
        assert final["status"] == "ok", final
        result = final["result"]
        assert result["completed"] is True
        assert result["num_states"] == 256
        resumed_from = result["extra"]["resumed_from"]
        assert resumed_from >= 1
        # The resumed attempt did strictly less than a cold run: its
        # fresh iterations plus the inherited prefix cover the fixpoint.
        assert result["iterations"] - resumed_from < result["iterations"]
        assert status["counters"]["resumes"] == 1
        assert status["counters"]["resumable_stored"] >= 1
        assert status["cache"]["complete"] == 1

    def test_crash_is_retried_and_leaves_resumable_state(self, serve_factory):
        # A child that dies at every iteration exhausts the retry policy;
        # each retry resumes one iteration further, and the final answer
        # is a resumable partial result, not a hard failure.
        handle = serve_factory(pool_size=1)
        faults = [{"kind": "die", "at_iteration": 1, "max_hits": 1}]
        with handle.client(timeout=120) as client:
            reply = client.reach("traffic", max_seconds=60, faults=faults)
            status = client.status()
        assert reply["status"] == "resumable", reply
        result = reply["result"]
        assert result["failure"] == "crash"
        assert result["extra"]["retries_exhausted"] == 3
        assert status["counters"]["resumable_stored"] == 1


class TestBatch:
    def test_batch_mixes_fresh_dedup_and_cached(self, serve_factory):
        handle = serve_factory()
        with handle.client() as client:
            warm = client.reach("s27", max_seconds=60)
            assert warm["status"] == "ok"
            reply = client.batch(
                [
                    {"circuit": "traffic", "max_seconds": 60, "faults": SLOW},
                    {"circuit": "traffic", "max_seconds": 60, "faults": SLOW},
                    {"circuit": "s27", "max_seconds": 60},
                ]
            )
            status = client.status()
        assert reply["status"] == "ok"
        assert reply["failed"] == 0
        results = {item["id"]: item for item in reply["results"]}
        assert len(results) == 3
        first, second, cached = (
            results[key] for key in sorted(results)
        )
        assert first["result"] == second["result"]
        assert cached.get("cached") is True
        assert status["sessions"]["dedup_hits"] == 1

    def test_batch_reports_partial_failures(self, serve_factory):
        handle = serve_factory(
            pool_size=1, policy=AdmissionPolicy(max_queue=0)
        )
        with handle.client() as client:
            reply = client.batch(
                [
                    {"circuit": "traffic", "max_seconds": 60, "faults": SLOW},
                    {"circuit": "s27", "max_seconds": 60},
                ]
            )
        assert reply["status"] == "partial"
        assert reply["failed"] == 1
        statuses = sorted(item["status"] for item in reply["results"])
        assert statuses == ["ok", "shed"]


class TestTelemetry:
    def test_trace_renders_serve_section(self, serve_factory, tmp_path):
        handle = serve_factory()
        with handle.client() as client:
            client.reach("traffic", max_seconds=60)
            client.reach("traffic", max_seconds=60)
            client.status()
        rendered = render_trace_path(handle.server.trace_dir)
        assert "== serve ==" in rendered
        assert "cache_hit" in rendered
        assert "cache_hits 1" in rendered
        assert "cache: 1 complete" in rendered

    def test_status_snapshot_shape(self, serve_factory):
        handle = serve_factory()
        with handle.client() as client:
            status = client.status()
        for section in ("counters", "sessions", "admission", "pool", "cache"):
            assert section in status, section
        assert status["pool"]["size"] == 2


@pytest.mark.slow
class TestLoad:
    def test_many_concurrent_clients(self, serve_factory):
        # A miniature load test: concurrent duplicate requests across
        # connections all answer consistently, via one attempt + cache.
        import threading

        handle = serve_factory(pool_size=2)
        replies = []
        lock = threading.Lock()

        def one(index):
            with handle.client(timeout=120) as client:
                reply = client.reach(
                    "traffic", max_seconds=60,
                    faults=[{"kind": "hang", "at_iteration": 1, "seconds": 2.0}],
                )
            with lock:
                replies.append(reply)

        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(replies) == 8
        assert all(r["status"] == "ok" for r in replies)
        states = {r["result"]["num_states"] for r in replies}
        assert len(states) == 1
        with handle.client() as client:
            status = client.status()
        assert status["pool"]["submitted"] <= 2
        assert (
            status["sessions"]["dedup_hits"]
            + status["counters"]["cache_hits"]
            >= 6
        )
