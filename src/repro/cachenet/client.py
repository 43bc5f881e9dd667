"""The sharded cache-tier client.

:class:`ShardedCacheClient` places every fingerprint on one backend of
a consistent-hash ring (:class:`~repro.cachenet.ring.HashRing`), reads
through synchronously on a local miss, and writes behind on a bounded
queue drained by one daemon thread — a put never blocks or fails the
caller.  Each backend sits behind a :class:`CircuitBreaker`: after
``failure_threshold`` consecutive errors the breaker opens and the
tier answers misses for that backend's keys until a half-open probe
succeeds, which is exactly degrading to local-only.  Because keys are
content-addressed, a miss only ever costs a recompute — correctness is
untouched by any of this machinery.

Every outbound request passes the ``cachenet.request`` failure point
(client side), where a chaos plan can reset the connection or corrupt
the response bytes; corrupted envelopes are caught by the CRC check in
:meth:`~repro.pipeline.cache.ArtifactCache.verify_envelope` before
anything is unpickled.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.cachenet import protocol
from repro.cachenet.ring import HashRing
from repro.logutil import get_logger, kv

__all__ = [
    "BackendStats",
    "CacheBackendClient",
    "CircuitBreaker",
    "ShardedCacheClient",
    "shared_client",
]

logger = get_logger("cachenet.client")

DEFAULT_TIMEOUT_S = 2.0
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 5.0
WRITE_QUEUE_MAX = 256


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe.

    Closed (normal) → ``failure_threshold`` consecutive failures →
    open (all requests refused locally) → after ``cooldown_s`` one
    probe is allowed through (half-open); its outcome closes or
    re-opens the breaker.
    """

    def __init__(
        self,
        failure_threshold: int = BREAKER_THRESHOLD,
        cooldown_s: float = BREAKER_COOLDOWN_S,
        clock=time.monotonic,
    ):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown_s:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May a request go out now?  Claims the half-open probe slot."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock() - self._opened_at < self.cooldown_s:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._probing = False
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._opened_at = self._clock()


@dataclass
class BackendStats:
    """Per-backend session counters (monotonic, thread-updated)."""

    hits: int = 0
    misses: int = 0
    errors: int = 0
    puts_sent: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "puts_sent": self.puts_sent,
        }


class CacheBackendClient:
    """One ``romfsm cached`` backend: per-call blocking sockets.

    Deliberately connectionless at this layer (one TCP connection per
    request): the request rate behind an L2 miss is low, and a fresh
    connection means a backend restart is invisible to the client.
    """

    def __init__(self, host: str, port: int,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 secret: Union[None, str, bytes] = None):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.name = f"{host}:{port}"
        self._secret = protocol.resolve_secret(secret)

    def request(self, op: str, payload: bytes) -> bytes:
        """One framed round trip; raises OSError/ProtocolError on failure."""
        action = faults.hit(
            "cachenet.request", backend=self.name, op=op.lower()
        )
        if action is not None and action.kind == "reset":
            raise ConnectionResetError(
                f"injected connection reset to {self.name}"
            )
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        ) as sock:
            protocol.send_frame(
                sock, protocol.wrap_auth(payload, self._secret)
            )
            reply = protocol.recv_frame(sock)
        # With a tier secret set this authenticates the *server* too: a
        # spoofed peer cannot produce bytes that survive unwrap_auth, so
        # nothing it sends is ever CRC-checked or unpickled by callers.
        reply = protocol.unwrap_auth(reply, self._secret)
        if action is not None:
            # truncate/bitflip model wire corruption of the *response*;
            # the caller's CRC validation must catch the damage.
            reply = faults.corrupt_bytes(action, reply)
        return reply

    def get(self, key: str) -> Optional[bytes]:
        """The entry envelope for ``key``, or None on a miss."""
        reply = self.request("get", b"GET\n" + key.encode("ascii"))
        status, rest = protocol.split_verb(reply)
        if status == "HIT":
            return rest
        if status == "MISS":
            return None
        raise protocol.ProtocolError(f"unexpected GET reply {status!r}")

    def put(self, key: str, data: bytes) -> bool:
        reply = self.request(
            "put", b"PUT\n" + key.encode("ascii") + b"\n" + data
        )
        status, _ = protocol.split_verb(reply)
        return status == "OK"

    def stats(self) -> Dict[str, Any]:
        import json

        reply = self.request("stats", b"STATS\n")
        status, rest = protocol.split_verb(reply)
        if status != "OK":
            raise protocol.ProtocolError(f"unexpected STATS reply {status!r}")
        return json.loads(rest.decode("utf-8"))

    def ping(self) -> bool:
        try:
            status, _ = protocol.split_verb(self.request("ping", b"PING\n"))
            return status == "OK"
        except (OSError, protocol.ProtocolError):
            return False


@dataclass
class _PendingPut:
    key: str
    data: bytes


class ShardedCacheClient:
    """Consistent-hash placement across N cache backends.

    ``get`` asks only the ring owner of the key — if its breaker is
    open the answer is an immediate miss (local-only degradation), not
    a hunt across the tier, so a dead backend costs recomputes for its
    ~1/N key range and nothing else.  ``put`` enqueues to the bounded
    write-behind queue; when the queue is full the entry is dropped and
    counted (losing a put loses only a future hit).
    """

    def __init__(
        self,
        peers: List[Tuple[str, int]],
        timeout_s: float = DEFAULT_TIMEOUT_S,
        breaker_threshold: int = BREAKER_THRESHOLD,
        breaker_cooldown_s: float = BREAKER_COOLDOWN_S,
        queue_max: int = WRITE_QUEUE_MAX,
        secret: Union[None, str, bytes] = None,
    ):
        if not peers:
            raise ValueError("a sharded cache client needs at least one peer")
        self.peers = list(peers)
        self.secret = protocol.resolve_secret(secret)
        self.backends: Dict[str, CacheBackendClient] = {}
        for host, port in peers:
            backend = CacheBackendClient(host, port, timeout_s=timeout_s,
                                         secret=self.secret)
            self.backends[backend.name] = backend
        self.ring = HashRing(list(self.backends))
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(breaker_threshold, breaker_cooldown_s)
            for name in self.backends
        }
        self.backend_stats: Dict[str, BackendStats] = {
            name: BackendStats() for name in self.backends
        }
        self.puts_enqueued = 0
        self.puts_dropped = 0
        self._queue: "queue.Queue[Optional[_PendingPut]]" = queue.Queue(
            maxsize=max(1, int(queue_max))
        )
        self._closed = False
        self._stats_lock = threading.Lock()
        self._writer_lock = threading.Lock()
        self._writer = self._start_writer()

    @classmethod
    def from_spec(cls, spec: str, **kwargs: Any) -> "ShardedCacheClient":
        """Build from a ``host:port,host:port`` peer spec."""
        return cls(protocol.parse_peer_spec(spec), **kwargs)

    # -- reads ----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The owner backend's envelope for ``key``, or None."""
        owner = self.ring.node_for(key)
        breaker = self.breakers[owner]
        if not breaker.allow():
            with self._stats_lock:
                self.backend_stats[owner].misses += 1
            return None
        try:
            data = self.backends[owner].get(key)
        except (OSError, protocol.ProtocolError) as exc:
            breaker.record_failure()
            with self._stats_lock:
                self.backend_stats[owner].errors += 1
            logger.info(kv("cachenet_get_failed", backend=owner,
                           error=type(exc).__name__))
            return None
        breaker.record_success()
        with self._stats_lock:
            stats = self.backend_stats[owner]
            if data is None:
                stats.misses += 1
            else:
                stats.hits += 1
        return data

    # -- writes ---------------------------------------------------------

    def _start_writer(self) -> threading.Thread:
        writer = threading.Thread(
            target=self._drain_puts, name="cachenet-write-behind", daemon=True
        )
        writer.start()
        return writer

    def _ensure_writer(self) -> None:
        """Revive the write-behind thread in a ``fork()`` child.

        Threads do not survive a fork: a child that inherits this
        client (directly, or through the :func:`shared_client` memo)
        gets the queue but not the daemon draining it, so every put
        would be accepted and then silently never delivered.  The
        process-pool driver forks workers under the platform-default
        start method on Linux, which is exactly that shape.
        """
        if self._closed or self._writer.is_alive():
            return
        with self._writer_lock:
            if self._closed or self._writer.is_alive():
                return
            # The inherited queue still carries the dead writer's waiter
            # on its not-empty condition: a put would notify the ghost
            # and the revived thread would sleep forever.  Swap in a
            # fresh queue, migrating whatever the fork copied over.
            # The migration must not touch the inherited queue's own
            # mutex either — if the fork landed while the dead writer
            # held it, get_nowait() would block forever in the child —
            # so read the underlying deque directly; this thread is the
            # only one that can see the stale queue once the swap above
            # is done under _writer_lock.
            stale, self._queue = self._queue, queue.Queue(
                maxsize=self._queue.maxsize
            )
            for item in list(getattr(stale, "queue", ())):
                if item is not None:
                    self._queue.put_nowait(item)
            logger.info(kv("cachenet_writer_revived", pid=os.getpid(),
                           migrated=self._queue.qsize()))
            self._writer = self._start_writer()

    def put(self, key: str, data: bytes) -> bool:
        """Enqueue a write-behind PUT; True if accepted for delivery."""
        if self._closed:
            return False
        self._ensure_writer()
        # Snapshot the queue under the writer lock: a concurrent
        # revival swaps self._queue, and an unsynchronized read here
        # could land the put on the discarded stale queue, silently
        # losing it.
        with self._writer_lock:
            pending_queue = self._queue
        try:
            pending_queue.put_nowait(_PendingPut(key, data))
        except queue.Full:
            with self._stats_lock:
                self.puts_dropped += 1
            return False
        with self._stats_lock:
            self.puts_enqueued += 1
        return True

    def _drain_puts(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                self._send_put(item)
            finally:
                self._queue.task_done()

    def _send_put(self, item: _PendingPut) -> None:
        owner = self.ring.node_for(item.key)
        breaker = self.breakers[owner]
        if not breaker.allow():
            with self._stats_lock:
                self.puts_dropped += 1
            return
        try:
            ok = self.backends[owner].put(item.key, item.data)
        except (OSError, protocol.ProtocolError) as exc:
            breaker.record_failure()
            with self._stats_lock:
                self.backend_stats[owner].errors += 1
                self.puts_dropped += 1
            logger.info(kv("cachenet_put_failed", backend=owner,
                           error=type(exc).__name__))
            return
        breaker.record_success()
        with self._stats_lock:
            if ok:
                self.backend_stats[owner].puts_sent += 1
            else:
                self.puts_dropped += 1

    def flush(self, timeout_s: float = 10.0) -> bool:
        """Wait for the write-behind queue to drain (tests, benches)."""
        self._ensure_writer()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._queue.unfinished_tasks == 0:
                return True
            time.sleep(0.01)
        return self._queue.unfinished_tasks == 0

    def close(self, timeout_s: float = 5.0) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._writer.join(timeout=timeout_s)

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            backends = {
                name: dict(self.backend_stats[name].as_dict(),
                           breaker=self.breakers[name].state)
                for name in sorted(self.backends)
            }
            return {
                "backends": backends,
                "puts_enqueued": self.puts_enqueued,
                "puts_dropped": self.puts_dropped,
                "queue_depth": self._queue.qsize(),
            }

    def __repr__(self) -> str:
        return f"ShardedCacheClient(backends={sorted(self.backends)!r})"


# One tier client per peer set and secret per process.  A pool worker
# unpickles a tiered cache once per job; without memoization every job
# would spin up its own write-behind thread and breaker state (and never
# close them).  The memo is pid-stamped: a fork child inherits the dict,
# but its clients' drain threads died with the fork, so the child starts
# over.
_shared_lock = threading.Lock()
_shared_clients: Dict[Tuple[Any, ...], ShardedCacheClient] = {}
_shared_pid = os.getpid()


def shared_client(
    peers: List[Tuple[str, int]], secret: Union[None, str, bytes] = None,
    **kwargs: Any
) -> ShardedCacheClient:
    """The process-wide :class:`ShardedCacheClient` for ``peers``."""
    global _shared_pid
    secret = protocol.resolve_secret(secret)
    key = (tuple(peers), secret)
    with _shared_lock:
        if _shared_pid != os.getpid():
            _shared_clients.clear()
            _shared_pid = os.getpid()
        client = _shared_clients.get(key)
        if client is None or client._closed:
            client = ShardedCacheClient(list(peers), secret=secret, **kwargs)
            _shared_clients[key] = client
        return client
