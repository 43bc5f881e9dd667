"""The cache backend server (``romfsm cached``).

One asyncio loop serving the length-prefixed GET/PUT/STATS protocol
over a checksummed :class:`~repro.pipeline.cache.ArtifactCache`.
Entries move as raw envelope bytes (:meth:`ArtifactCache.get_raw` /
:meth:`put_raw`): the server never unpickles anything a client sent,
and the producer's CRC is re-verified both on arrival and by the final
reader.

Connections are persistent — a client (or its write-behind thread) can
issue many requests per connection — and every request passes the
``cachenet.request`` failure point, so a chaos plan shipped via
``REPRO_FAULTS``/``--faults`` can kill, stall, or corrupt a backend
mid-campaign deterministically.

:class:`CacheServerHandle` runs a server on a background thread with
its own event loop; tests and the multi-instance bench use it to stand
up a tier in-process.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Any, Dict, Optional, Union

from repro import faults
from repro.cachenet import protocol
from repro.logutil import get_logger, kv
from repro.pipeline.cache import ArtifactCache

__all__ = ["CacheServer", "CacheServerHandle", "run_cache_server"]

logger = get_logger("cachenet.server")


class CacheServer:
    """Asyncio frontend over one :class:`ArtifactCache` store."""

    def __init__(
        self,
        cache: ArtifactCache,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_CACHED_PORT,
        secret: Union[None, str, bytes] = None,
    ):
        self.cache = cache
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self._secret = protocol.resolve_secret(secret)
        self._server: Optional[asyncio.base_events.Server] = None
        # Created lazily inside the running loop: on Python 3.9 an
        # asyncio.Event binds the loop current at *construction*, and
        # CacheServerHandle constructs the server on the caller's
        # thread but runs it on a daemon thread's fresh loop.
        self._stopped: Optional[asyncio.Event] = None
        self.requests: Dict[str, int] = {"get": 0, "put": 0, "stats": 0,
                                         "ping": 0, "errors": 0}

    def _stop_event(self) -> asyncio.Event:
        if self._stopped is None:
            self._stopped = asyncio.Event()
        return self._stopped

    async def start(self) -> "CacheServer":
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(kv(
            "cached_start", host=self.host, port=self.port,
            root=str(self.cache.root),
        ))
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stop_event().set()

    async def serve_forever(self) -> None:
        await self._stop_event().wait()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.stop())
            )

    # -- request handling ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                header = await reader.readexactly(4)
                length = int.from_bytes(header, "big")
                if length > protocol.MAX_FRAME_BYTES:
                    raise protocol.ProtocolError(
                        f"client announced a {length}-byte frame"
                    )
                payload = await reader.readexactly(length)
                # Authentication gate: with a tier secret configured,
                # an unsigned or forged frame raises here and the
                # connection is dropped before any byte of it reaches
                # the store.
                payload = protocol.unwrap_auth(payload, self._secret)
                reply = self._handle_request(payload)
                writer.write(protocol.encode_frame(
                    protocol.wrap_auth(reply, self._secret)
                ))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError,
                BrokenPipeError):
            pass  # client done (EOF) or gone; either way, hang up
        except protocol.ProtocolError as exc:
            self.requests["errors"] += 1
            logger.warning(kv("cached_protocol_error", error=str(exc)))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _handle_request(self, payload: bytes) -> bytes:
        verb, rest = protocol.split_verb(payload)
        # Chaos hook (server side): "kill" takes the whole backend
        # process down mid-campaign, "stall" models a slow peer; the
        # sharded client must degrade to local-only either way.
        faults.hit("cachenet.request", op=verb.lower(), side="server")
        if verb == "GET":
            self.requests["get"] += 1
            key = rest.decode("ascii", "replace")
            # Boundary check: keys come off the network and become file
            # paths.  Anything that is not a hex fingerprint (e.g. a
            # "../.." traversal string) is refused before the cache —
            # and thus the filesystem — ever sees it.
            if not ArtifactCache.valid_key(key):
                self.requests["errors"] += 1
                logger.warning(kv("cached_bad_key", op="get"))
                return b"ERR\nmalformed key"
            data = self.cache.get_raw(key)
            if data is None:
                return b"MISS\n"
            return b"HIT\n" + data
        if verb == "PUT":
            self.requests["put"] += 1
            key_bytes, sep, data = rest.partition(b"\n")
            if not sep:
                raise protocol.ProtocolError("PUT without an entry body")
            key = key_bytes.decode("ascii", "replace")
            if not ArtifactCache.valid_key(key):
                self.requests["errors"] += 1
                logger.warning(kv("cached_bad_key", op="put"))
                return b"ERR\nmalformed key"
            if self.cache.put_raw(key, data):
                return b"OK\n"
            self.requests["errors"] += 1
            return b"ERR\nentry rejected (bad envelope or degraded store)"
        if verb == "STATS":
            self.requests["stats"] += 1
            return b"OK\n" + json.dumps(
                self.describe(), sort_keys=True
            ).encode("utf-8")
        if verb == "PING":
            self.requests["ping"] += 1
            return b"OK\n"
        raise protocol.ProtocolError(f"unknown verb {verb!r}")

    def describe(self) -> Dict[str, Any]:
        return {
            "root": str(self.cache.root),
            "entries": self.cache.entry_count,
            "size_bytes": self.cache.size_bytes,
            "degraded": self.cache.degraded,
            "requests": dict(self.requests),
            "session": self.cache.stats.as_dict(),
        }


class CacheServerHandle:
    """A :class:`CacheServer` on a daemon thread with its own loop."""

    def __init__(self, cache: ArtifactCache, host: str = "127.0.0.1",
                 port: int = 0, secret: Optional[bytes] = None):
        self.server = CacheServer(cache, host=host, port=port,
                                  secret=secret)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="romfsm-cached", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("cache backend thread did not start")

    def _run(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(body())

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), loop
            ).result(timeout=10.0)
        self._thread.join(timeout=10.0)


async def run_cache_server(
    cache: ArtifactCache, host: str, port: int, announce: bool = True,
    secret: Union[None, str, bytes] = None,
) -> None:
    """CLI entry: start, announce the bound port, serve until stopped.

    Logging is configured by the CLI main, not here — an in-process
    caller (the tests) must not have a handler bound to its transient
    stderr installed behind its back.
    """
    server = CacheServer(cache, host=host, port=port, secret=secret)
    await server.start()
    server.install_signal_handlers()
    if announce:
        # One machine-readable line so scripts (CI, the chaos suite, the
        # multi-instance bench) can bind port 0 and discover the result.
        print(json.dumps({
            "cachenet": {"host": host, "port": server.port,
                         "root": str(cache.root)},
        }), flush=True)
    await server.serve_forever()
