"""The cache backend server: verb handling, envelope verification,
persistent connections, and the stdout announce line."""

import json
import socket

import pytest

from repro.cachenet import protocol
from repro.cachenet.client import CacheBackendClient
from repro.pipeline.cache import ArtifactCache

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def _client(backend) -> CacheBackendClient:
    return CacheBackendClient(backend.host, backend.port)


class TestVerbs:
    def test_put_then_get_round_trips_envelope_bytes(self, backend):
        client = _client(backend)
        envelope = ArtifactCache._encode("fp", {"words": [1, 2, 3]})
        assert client.put(KEY, envelope)
        assert client.get(KEY) == envelope
        # The server stored it as a normal local entry.
        assert backend.server.cache.get(KEY) == ("fp", {"words": [1, 2, 3]})

    def test_get_miss(self, backend):
        assert _client(backend).get(OTHER) is None

    def test_put_rejects_corrupt_envelopes(self, backend):
        client = _client(backend)
        assert not client.put(KEY, b"garbage, not an envelope")
        data = bytearray(ArtifactCache._encode("fp", 1))
        data[-1] ^= 0x01  # CRC now wrong
        assert not client.put(KEY, bytes(data))
        assert client.get(KEY) is None
        assert backend.server.requests["errors"] == 2

    def test_ping(self, backend):
        assert _client(backend).ping()

    def test_stats_reports_store_and_requests(self, backend):
        client = _client(backend)
        client.put(KEY, ArtifactCache._encode("fp", 1))
        client.get(KEY)
        stats = client.stats()
        assert stats["entries"] == 1
        assert stats["requests"]["get"] == 1
        assert stats["requests"]["put"] == 1
        assert stats["degraded"] is False

    def test_unknown_verb_closes_connection_without_crash(self, backend):
        with socket.create_connection(
            (backend.host, backend.port), timeout=2.0
        ) as sock:
            protocol.send_frame(sock, b"EXPLODE\n")
            sock.settimeout(2.0)
            assert sock.recv(64) == b""  # server hung up
        # ...and still serves the next client.
        assert _client(backend).ping()


class TestKeyValidation:
    """Review regression: network-supplied keys become file paths, so
    anything that is not a hex fingerprint must be refused before the
    cache — and the filesystem — ever sees it."""

    EVIL_KEYS = [
        "../../../../../../tmp/owned",
        "..%2f..%2fescape",
        "/etc/passwd",
        "abc",                      # too short
        "AB" + "0" * 62,            # uppercase is not the digest form
        "xy" + "0" * 62,            # non-hex chars
    ]

    def test_put_with_traversal_key_writes_nothing(self, backend, tmp_path):
        envelope = ArtifactCache._encode("fp", 1)
        with socket.create_connection(
            (backend.host, backend.port), timeout=2.0
        ) as sock:
            for evil in self.EVIL_KEYS:
                protocol.send_frame(
                    sock, b"PUT\n" + evil.encode() + b"\n" + envelope
                )
                status, _ = protocol.split_verb(protocol.recv_frame(sock))
                assert status == "ERR"
        assert backend.server.cache.entry_count == 0
        # Nothing escaped the store root into the surrounding tree.
        stray = [p for p in tmp_path.rglob("*")
                 if p.is_file() and "store-" not in str(p)]
        assert stray == []
        assert backend.server.requests["errors"] == len(self.EVIL_KEYS)

    def test_get_with_traversal_key_is_refused(self, backend, tmp_path):
        # A .pkl outside the store that an unvalidated key would read
        # (objects/<xx>/../../../secret.pkl == <root>/../secret.pkl).
        outside = tmp_path / "secret.pkl"
        outside.write_bytes(ArtifactCache._encode("fp", "private"))
        with socket.create_connection(
            (backend.host, backend.port), timeout=2.0
        ) as sock:
            protocol.send_frame(sock, b"GET\n../../../secret")
            status, _ = protocol.split_verb(protocol.recv_frame(sock))
        assert status == "ERR"

    def test_raw_seams_also_reject_bad_keys(self, tmp_path):
        # Defense in depth: even a caller that skips the server boundary
        # cannot push a traversal key through the raw cache seams.
        cache = ArtifactCache(tmp_path / "store")
        envelope = ArtifactCache._encode("fp", 1)
        assert not cache.put_raw("../escape", envelope)
        assert cache.get_raw("../escape") is None
        assert not (tmp_path / "escape.pkl").exists()


class TestSharedSecret:
    """With a shared secret set, every frame carries an HMAC tag; a
    peer without the secret cannot get a byte past the gate."""

    SECRET = b"tier-secret"

    def _authed_backend(self, tmp_path):
        from repro.cachenet.server import CacheServerHandle

        return CacheServerHandle(
            ArtifactCache(tmp_path / "authed"), secret=self.SECRET
        )

    def test_authed_round_trip(self, tmp_path):
        handle = self._authed_backend(tmp_path)
        try:
            client = CacheBackendClient(handle.host, handle.port,
                                        secret=self.SECRET)
            envelope = ArtifactCache._encode("fp", {"words": [1]})
            assert client.put(KEY, envelope)
            assert client.get(KEY) == envelope
            assert client.ping()
        finally:
            handle.stop()

    def test_unauthenticated_client_is_refused(self, tmp_path):
        handle = self._authed_backend(tmp_path)
        try:
            bare = CacheBackendClient(handle.host, handle.port, secret=b"")
            assert not bare.ping()
            envelope = ArtifactCache._encode("fp", 1)
            with pytest.raises((OSError, protocol.ProtocolError)):
                bare.request("put", b"PUT\n" + KEY.encode() + b"\n" + envelope)
            assert handle.server.cache.entry_count == 0
        finally:
            handle.stop()

    def test_wrong_secret_is_refused(self, tmp_path):
        handle = self._authed_backend(tmp_path)
        try:
            impostor = CacheBackendClient(handle.host, handle.port,
                                          secret=b"wrong")
            assert not impostor.ping()
            assert handle.server.cache.entry_count == 0
        finally:
            handle.stop()

    def test_client_rejects_an_unsigned_reply(self):
        # A spoofed "backend" that answers without the secret: the
        # client must refuse the reply before anything downstream can
        # CRC-check or unpickle it.
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)

        def fake_backend():
            conn, _ = sink.accept()
            with conn:
                protocol.recv_frame(conn)
                conn.sendall(protocol.encode_frame(
                    b"HIT\n" + ArtifactCache._encode("fp", "evil")
                ))

        import threading

        thread = threading.Thread(target=fake_backend, daemon=True)
        thread.start()
        client = CacheBackendClient(*sink.getsockname(), secret=self.SECRET)
        try:
            with pytest.raises(protocol.ProtocolError):
                client.get(KEY)
        finally:
            thread.join(timeout=5.0)
            sink.close()


class TestPersistentConnections:
    def test_many_requests_on_one_connection(self, backend):
        with socket.create_connection(
            (backend.host, backend.port), timeout=2.0
        ) as sock:
            for index in range(8):
                key = f"{index:02d}" + "a" * 62
                envelope = ArtifactCache._encode("fp", index)
                protocol.send_frame(
                    sock, b"PUT\n" + key.encode() + b"\n" + envelope
                )
                assert protocol.recv_frame(sock) == b"OK\n"
            protocol.send_frame(sock, b"GET\n" + b"03" + b"a" * 62)
            status, rest = protocol.split_verb(protocol.recv_frame(sock))
            assert status == "HIT"
            assert ArtifactCache._decode(rest) == ("fp", 3)
        assert backend.server.cache.entry_count == 8


class TestLazyStopEvent:
    def test_stop_event_is_not_created_at_construction(self, tmp_path):
        # On Python 3.9 asyncio.Event() binds the loop current at
        # construction time; CacheServerHandle constructs the server on
        # the caller's thread but serves on a daemon thread's fresh
        # loop, so the event must be created lazily inside the loop.
        from repro.cachenet.server import CacheServer

        server = CacheServer(ArtifactCache(tmp_path))
        assert server._stopped is None


class TestAnnounce:
    def test_run_cache_server_announces_bound_port(self, tmp_path, capsys):
        import asyncio

        from repro.cachenet.server import run_cache_server

        lines = []

        async def body_collect():
            task = asyncio.ensure_future(run_cache_server(
                ArtifactCache(tmp_path), "127.0.0.1", 0
            ))
            for _ in range(200):
                await asyncio.sleep(0.01)
                out = capsys.readouterr().out
                if out:
                    lines.append(out)
                    break
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

        asyncio.run(body_collect())
        assert lines, "no announce line was printed"
        announced = json.loads(lines[0])["cachenet"]
        assert announced["host"] == "127.0.0.1"
        assert announced["port"] > 0
        assert announced["root"] == str(tmp_path)
