"""L2Cache: the cache tier slotted behind ``ArtifactCache.get/put``.

``resolve_cache(..., peers=..., secret=...)`` wraps the resolved local
disk cache in this adapter (the ``romfsm`` CLI fills those arguments
from ``REPRO_CACHE_PEERS`` / ``REPRO_CACHE_SECRET`` or ``--cache-peers``),
so every existing call site — pipeline stages, the sharded driver, the
service, tuning, the ECO path — gains the shared tier with no signature
or call-site changes: an :class:`L2Cache` *is an*
:class:`~repro.pipeline.cache.ArtifactCache` to its callers.  It
pickles as its spec (local root, peers, secret), so a pool worker that
is handed the cache rebuilds it on the worker's process-shared tier
client and joins the same tier.

Semantics:

* ``get`` — local disk first; on a miss, ask the tier.  A remote hit is
  CRC-verified by the usual ``_decode`` before anything is trusted,
  then backfilled onto local disk (via :meth:`ArtifactCache.put_raw`,
  so the fill is atomic and races with local writers exactly like any
  other writer).  A corrupt remote envelope counts as an error and a
  miss — never a value.
* ``put`` — local write first (authoritative), then a write-behind PUT
  of the encoded envelope to the tier; the caller never waits on the
  network.
* maintenance (``clear``, ``describe``, sizes) — local only.  The tier
  is shared infrastructure; ``romfsm cache clear`` on one machine must
  not vaporize every peer's warm entries.

Keys are content-addressed, so the tier cannot serve stale data — only
present or absent — and any backend failure degrades to plain local
caching with bit-identical results.

Trust boundary: a remote hit is ultimately ``pickle.loads``-ed (inside
``_decode``), and the envelope CRC proves integrity, not provenance —
a malicious or compromised backend could ship a pickle that executes
code on this client.  The tier must therefore only ever span fully
trusted, mutually administered machines on a private network; give
every peer the same ``secret`` to additionally require an
HMAC-SHA256 tag on each frame, which shuts out spoofed or unauthorized
peers entirely (see :mod:`repro.cachenet.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.cachenet.client import ShardedCacheClient, shared_client
from repro.logutil import get_logger, kv
from repro.pipeline.cache import ArtifactCache, CacheStats

__all__ = ["L2Cache", "L2Stats"]

logger = get_logger("cachenet.l2")


@dataclass
class L2Stats:
    """Session counters for the tier half of an :class:`L2Cache`."""

    hits: int = 0        # remote hit filled a local miss
    misses: int = 0      # remote had nothing either
    errors: int = 0      # corrupt/failed remote replies
    puts: int = 0        # write-behind puts accepted by the queue
    put_drops: int = 0   # puts the bounded queue refused

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "puts": self.puts,
            "put_drops": self.put_drops,
        }


class L2Cache(ArtifactCache):
    """Read-through / write-behind tier adapter over a local cache.

    Deliberately does **not** call ``ArtifactCache.__init__``: all
    state lives in the wrapped ``local`` cache, and the inherited
    attributes are re-exposed as delegating properties so callers (and
    ``/metrics``) observe the local store's truth.
    """

    def __init__(self, local: ArtifactCache, remote: ShardedCacheClient):
        # no super().__init__: see class docstring
        self.local = local
        self.remote = remote
        self.l2_stats = L2Stats()

    @classmethod
    def from_spec(cls, local: ArtifactCache, spec: str,
                  secret: Union[None, str, bytes] = None,
                  **kwargs: Any) -> "L2Cache":
        """Wrap ``local`` with the process-shared tier client for
        ``spec`` — every resolve of the same peer set reuses one
        write-behind queue and one set of breakers."""
        from repro.cachenet.protocol import parse_peer_spec

        return cls(local, shared_client(parse_peer_spec(spec), secret=secret,
                                        **kwargs))

    def __reduce__(self):
        spec = ",".join(f"{host}:{port}" for host, port in self.remote.peers)
        return (L2Cache.from_spec, (self.local, spec, self.remote.secret))

    # -- delegated identity --------------------------------------------

    @property
    def root(self) -> Path:  # type: ignore[override]
        return self.local.root

    @property
    def objects_dir(self) -> Path:  # type: ignore[override]
        return self.local.objects_dir

    @property
    def stats(self) -> CacheStats:  # type: ignore[override]
        return self.local.stats

    @property
    def degraded(self) -> bool:  # type: ignore[override]
        return self.local.degraded

    @property
    def memory_entries(self) -> int:
        return self.local.memory_entries

    @property
    def memory_bytes(self) -> int:
        return self.local.memory_bytes

    @property
    def entry_count(self) -> int:
        return self.local.entry_count

    @property
    def size_bytes(self) -> int:
        return self.local.size_bytes

    # -- the tiered read/write path ------------------------------------

    def get(self, key: str) -> Optional[Tuple[str, Any]]:
        entry = self.local.get(key)
        if entry is not None:
            return entry
        data = self.remote.get(key)
        if data is None:
            self.l2_stats.misses += 1
            return None
        try:
            fingerprint, value = self._decode(data)
        except Exception:
            # A backend (or the wire) handed us garbage; the CRC caught
            # it before deserialization could.  Treat as a miss.
            self.l2_stats.errors += 1
            logger.warning(kv("l2_corrupt_entry", key=key))
            return None
        # Backfill local disk so the next lookup is a pure local hit.
        # put_raw re-verifies and writes atomically; if local is
        # degraded it refuses and the value still flows to the caller.
        self.local.put_raw(key, data)
        self.l2_stats.hits += 1
        return fingerprint, value

    def put(self, key: str, fingerprint: str, value: Any) -> None:
        self.local.put(key, fingerprint, value)
        try:
            data = self._encode(fingerprint, value)
        except Exception:
            # Unpicklable values never reach disk either; nothing to share.
            return
        if self.remote.put(key, data):
            self.l2_stats.puts += 1
        else:
            self.l2_stats.put_drops += 1

    def __contains__(self, key: str) -> bool:
        # Presence probes answer from local only: a remote probe would
        # cost a round trip per coalescing check, and a "false" here
        # merely routes through get(), which still consults the tier.
        return key in self.local

    def get_raw(self, key: str) -> Optional[bytes]:
        return self.local.get_raw(key)

    def put_raw(self, key: str, data: bytes) -> bool:
        return self.local.put_raw(key, data)

    # -- maintenance (local-only by design) ----------------------------

    def clear(self) -> int:
        return self.local.clear()

    def describe(self) -> Dict[str, Any]:
        info = self.local.describe()
        info["l2"] = {
            "session": self.l2_stats.as_dict(),
            "tier": self.remote.stats(),
        }
        return info

    def flush(self, timeout_s: float = 10.0) -> bool:
        """Drain the write-behind queue (tests and benches only)."""
        return self.remote.flush(timeout_s)

    def close(self) -> None:
        self.remote.close()

    def __repr__(self) -> str:
        return f"L2Cache(local={self.local!r}, remote={self.remote!r})"
