"""The sharded client: circuit breakers, write-behind delivery, and
local-only degradation through every failure kind."""

import multiprocessing
import os
import time

import pytest

from repro import faults
from repro.cachenet.client import (
    CircuitBreaker,
    ShardedCacheClient,
    _PendingPut,
    shared_client,
)
from repro.faults import FaultPlan, FaultRule
from repro.pipeline.cache import ArtifactCache

KEY = "ab" + "0" * 62


def _envelope(value, fp="fp"):
    return ArtifactCache._encode(fp, value)


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_allows_exactly_one_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 6.0
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe slot
        assert not breaker.allow()   # a second caller must wait

    def test_failed_probe_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.state == "open"

    def test_successful_probe_closes(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 6.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()


class TestShardedClient:
    def test_needs_at_least_one_peer(self):
        with pytest.raises(ValueError):
            ShardedCacheClient([])

    def test_put_is_delivered_to_the_ring_owner(self, backend_factory):
        b1, b2 = backend_factory("one"), backend_factory("two")
        client = ShardedCacheClient([(b1.host, b1.port), (b2.host, b2.port)])
        try:
            assert client.put(KEY, _envelope(1))
            assert client.flush(5.0)
            owner = client.ring.node_for(KEY)
            owner_store = (
                b1 if owner == b1.address else b2
            ).server.cache
            assert owner_store.get(KEY) == ("fp", 1)
            assert client.get(KEY) == _envelope(1)
            stats = client.stats()
            assert stats["backends"][owner]["puts_sent"] == 1
            assert stats["backends"][owner]["hits"] == 1
        finally:
            client.close()

    def test_dead_backend_answers_misses_and_opens_breaker(self):
        # A port nothing listens on: connection refused immediately.
        client = ShardedCacheClient(
            [("127.0.0.1", 1)], timeout_s=0.2, breaker_threshold=2,
        )
        try:
            assert client.get(KEY) is None
            assert client.get(KEY) is None
            name = client.ring.node_for(KEY)
            assert client.breakers[name].state == "open"
            assert client.stats()["backends"][name]["errors"] == 2
            # Breaker open: an immediate miss, no connection attempt.
            started = time.monotonic()
            assert client.get(KEY) is None
            assert time.monotonic() - started < 0.1
        finally:
            client.close()

    def test_put_to_dead_backend_is_dropped_not_raised(self):
        client = ShardedCacheClient(
            [("127.0.0.1", 1)], timeout_s=0.2, breaker_threshold=1,
        )
        try:
            assert client.put(KEY, _envelope(1))  # enqueue accepted
            assert client.flush(5.0)
            assert client.stats()["puts_dropped"] >= 1
        finally:
            client.close()

    def test_full_queue_drops_puts(self):
        import socket

        # A listener that accepts but never answers: the write-behind
        # worker blocks on its first send until the socket timeout,
        # so the bounded queue (max 1) must refuse the burst behind it.
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(8)
        client = ShardedCacheClient(
            [sink.getsockname()], timeout_s=1.0, queue_max=1,
        )
        try:
            results = [client.put(f"{i:02d}" + "c" * 62, _envelope(i))
                       for i in range(10)]
            assert not all(results)
            stats = client.stats()
            # Queue refusals are counted; send failures may add more.
            assert stats["puts_dropped"] >= results.count(False)
            assert stats["puts_enqueued"] == results.count(True)
        finally:
            client.close(timeout_s=3.0)
            sink.close()

    def test_closed_client_refuses_puts(self, backend):
        client = ShardedCacheClient([(backend.host, backend.port)])
        client.close()
        assert not client.put(KEY, _envelope(1))


class TestInjectedTransportFaults:
    def test_reset_counts_as_backend_failure(self, backend):
        client = ShardedCacheClient(
            [(backend.host, backend.port)], breaker_threshold=1,
        )
        try:
            backend.server.cache.put(KEY, "fp", 1)
            plan = FaultPlan([FaultRule(point="cachenet.request",
                                        kind="reset", max_fires=1)])
            with faults.injected(plan):
                assert client.get(KEY) is None
            name = client.ring.node_for(KEY)
            assert client.breakers[name].state == "open"
        finally:
            client.close()

    def test_bitflipped_response_is_never_decoded(self, backend):
        """A corrupted wire reply must fail the CRC check downstream,
        not decode into a plausible wrong value."""
        client = ShardedCacheClient([(backend.host, backend.port)])
        try:
            backend.server.cache.put(KEY, "fp", {"payload": bytes(256)})
            plan = FaultPlan([FaultRule(point="cachenet.request",
                                        kind="bitflip", max_fires=1)])
            with faults.injected(plan):
                data = client.get(KEY)
            # The transport returned bytes, but they are damaged —
            # verify_envelope is the consumer-side gate.
            assert data is not None
            assert not ArtifactCache.verify_envelope(data)
        finally:
            client.close()


class TestSharedClient:
    def test_same_peers_reuse_one_client(self, backend):
        peers = [(backend.host, backend.port)]
        a = shared_client(peers)
        b = shared_client(list(peers))
        assert a is b
        a.close()
        c = shared_client(peers)  # a closed shared client is replaced
        assert c is not a
        c.close()


class TestWriterRevivalRaces:
    """Review regressions on the fork-revival path, reproduced without
    an actual fork by hand-killing the writer thread."""

    @staticmethod
    def _kill_writer(client):
        client._queue.put(None)  # writer consumes the sentinel and exits
        client._writer.join(timeout=5.0)
        assert not client._writer.is_alive()

    def test_revival_never_locks_the_inherited_queue(self, backend):
        # If the fork landed while the dead writer held the queue's
        # internal mutex, draining it with get_nowait() would block
        # forever in the child.  Model that exact state: a dead writer,
        # a pending item, and the stale queue's mutex held by "someone"
        # who will never release it from the revived side.
        import threading

        client = ShardedCacheClient([(backend.host, backend.port)])
        try:
            self._kill_writer(client)
            client._queue.put_nowait(_PendingPut(KEY, _envelope("pending")))
            done = threading.Event()

            def revive_and_put():
                if client.put("cd" + "4" * 62, _envelope("fresh")):
                    done.set()

            with client._queue.mutex:  # the frozen inherited mutex
                worker = threading.Thread(target=revive_and_put,
                                          daemon=True)
                worker.start()
                worker.join(timeout=5.0)
            assert done.is_set(), "revival deadlocked on the stale queue"
            assert client.flush(5.0)
            # Both the migrated and the fresh put were delivered.
            assert _wait_for_puts(backend.server, 2)
        finally:
            client.close()

    def test_concurrent_put_cannot_land_on_the_discarded_queue(
        self, backend, monkeypatch
    ):
        # put() must read self._queue under the writer lock: a racing
        # revival swaps the queue, and an unsynchronized read would
        # enqueue onto the stale (never drained) instance.
        client = ShardedCacheClient([(backend.host, backend.port)])
        try:
            self._kill_writer(client)
            stale_queue = client._queue
            assert client.put(KEY, _envelope(1))  # triggers revival
            assert client._queue is not stale_queue
            # The accepted put lives on the live queue, not the relic.
            assert client.flush(5.0)
            assert stale_queue.qsize() == 0
            assert _wait_for_puts(backend.server, 1)
        finally:
            client.close()


def _wait_for_puts(server, count, deadline_s=10.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if server.requests["put"] >= count:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)
class TestForkSafety:
    """Threads don't survive fork().  A pool worker forked after the
    parent resolved a tier-joined cache inherits a client whose
    write-behind drain thread is dead — its GETs work (synchronous)
    but every PUT would sit in the queue forever, which is how the
    tables/evaluate_many path silently lost all tier writes.  Both
    recovery layers are exercised: the pid-stamped shared_client memo
    and put()'s writer revival on a directly inherited client."""

    def test_fork_child_gets_a_fresh_shared_client(self, backend):
        peers = [(backend.host, backend.port)]
        parent = shared_client(peers)
        try:
            ctx = multiprocessing.get_context("fork")

            def child():
                client = shared_client(peers)
                ok = client is not parent or client._writer.is_alive()
                ok &= client.put("cd" + "1" * 62, _envelope("fork"))
                ok &= client.flush(5.0)
                os._exit(0 if ok else 1)

            proc = ctx.Process(target=child)
            proc.start()
            proc.join(timeout=30.0)
            assert proc.exitcode == 0
            assert _wait_for_puts(backend.server, 1)
        finally:
            parent.close()

    def test_inherited_client_revives_its_writer(self, backend):
        client = ShardedCacheClient([(backend.host, backend.port)])
        try:
            assert client.put("ab" + "2" * 62, _envelope("parent"))
            assert client.flush(5.0)
            ctx = multiprocessing.get_context("fork")

            def child():
                # The fork copied the object; its writer thread is dead
                # until put() notices and revives it.
                ok = not client._writer.is_alive()
                ok &= client.put("cd" + "3" * 62, _envelope("child"))
                ok &= client.flush(5.0)
                os._exit(0 if ok else 1)

            proc = ctx.Process(target=child)
            proc.start()
            proc.join(timeout=30.0)
            assert proc.exitcode == 0
            assert _wait_for_puts(backend.server, 2)
        finally:
            client.close()
