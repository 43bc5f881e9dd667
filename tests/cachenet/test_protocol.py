"""Wire-protocol framing and peer-spec parsing."""

import socket
import threading

import pytest

from repro.cachenet import protocol


class TestFrames:
    def test_encode_prefixes_length(self):
        frame = protocol.encode_frame(b"PING\n")
        assert frame[:4] == (5).to_bytes(4, "big")
        assert frame[4:] == b"PING\n"

    def test_oversize_frame_is_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    def test_round_trip_over_a_socket_pair(self):
        left, right = socket.socketpair()
        try:
            payload = b"PUT\nkey\n" + bytes(range(256)) * 64
            sender = threading.Thread(
                target=protocol.send_frame, args=(left, payload)
            )
            sender.start()
            assert protocol.recv_frame(right) == payload
            sender.join()
        finally:
            left.close()
            right.close()

    def test_recv_rejects_oversize_announcement(self):
        left, right = socket.socketpair()
        try:
            left.sendall(
                (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            )
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_short_read_is_a_connection_reset(self):
        left, right = socket.socketpair()
        try:
            left.sendall((100).to_bytes(4, "big") + b"only-part")
            left.close()
            with pytest.raises(ConnectionResetError):
                protocol.recv_frame(right)
        finally:
            right.close()


class TestSplitVerb:
    def test_verb_and_body(self):
        assert protocol.split_verb(b"GET\nabcdef") == ("GET", b"abcdef")

    def test_verb_without_body(self):
        assert protocol.split_verb(b"PING\n") == ("PING", b"")

    def test_binary_body_survives_newlines(self):
        verb, rest = protocol.split_verb(b"PUT\nkey\n\x00\n\x01")
        assert verb == "PUT"
        assert rest == b"key\n\x00\n\x01"

    def test_empty_frame_is_an_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.split_verb(b"")

    def test_unreadable_verb_is_an_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.split_verb(b"\xff\xfe\n")


class TestFrameAuth:
    """Shared-secret HMAC on frame payloads: the gate that keeps an
    unauthorized peer's bytes from ever being CRC-checked, stored, or
    unpickled."""

    SECRET = b"tier-secret"

    def test_wrap_unwrap_round_trip(self):
        payload = b"PUT\nkey\n" + bytes(range(256))
        wrapped = protocol.wrap_auth(payload, self.SECRET)
        assert wrapped != payload
        assert protocol.unwrap_auth(wrapped, self.SECRET) == payload

    def test_no_secret_is_a_no_op(self):
        assert protocol.wrap_auth(b"PING\n", None) == b"PING\n"
        assert protocol.unwrap_auth(b"PING\n", None) == b"PING\n"

    def test_unsigned_frame_is_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.unwrap_auth(b"GET\nabcd", self.SECRET)

    def test_forged_tag_is_rejected(self):
        wrapped = bytearray(protocol.wrap_auth(b"PING\n", self.SECRET))
        wrapped[8] ^= 0x01  # damage the MAC
        with pytest.raises(protocol.ProtocolError):
            protocol.unwrap_auth(bytes(wrapped), self.SECRET)

    def test_wrong_secret_is_rejected(self):
        wrapped = protocol.wrap_auth(b"PING\n", self.SECRET)
        with pytest.raises(protocol.ProtocolError):
            protocol.unwrap_auth(wrapped, b"other-secret")

    def test_tampered_body_is_rejected(self):
        wrapped = bytearray(protocol.wrap_auth(b"GET\nkey", self.SECRET))
        wrapped[-1] ^= 0x01  # damage the body, keep the MAC
        with pytest.raises(protocol.ProtocolError):
            protocol.unwrap_auth(bytes(wrapped), self.SECRET)

    def test_resolve_secret_prefers_explicit_over_environment(
        self, monkeypatch
    ):
        # Only the romfsm CLI reads REPRO_CACHE_SECRET; below it the
        # secret is an explicit value or absent.
        monkeypatch.setenv("REPRO_CACHE_SECRET", "from-env")
        assert protocol.resolve_secret(b"explicit") == b"explicit"
        assert protocol.resolve_secret("text") == b"text"
        assert protocol.resolve_secret() is None
        assert protocol.resolve_secret("") is None


class TestPeerSpec:
    def test_host_port_list(self):
        assert protocol.parse_peer_spec("a:1,b:2") == [("a", 1), ("b", 2)]

    def test_bare_host_gets_default_port(self):
        assert protocol.parse_peer_spec("cachehost") == [
            ("cachehost", protocol.DEFAULT_CACHED_PORT)
        ]

    def test_url_prefixes_are_stripped(self):
        assert protocol.parse_peer_spec("http://a:1,https://b:2/") == [
            ("a", 1), ("b", 2)
        ]

    def test_whitespace_and_empty_parts_tolerated(self):
        assert protocol.parse_peer_spec(" a:1 , ,b:2 ") == [
            ("a", 1), ("b", 2)
        ]

    @pytest.mark.parametrize("bad", ["", ",", "host:notaport", "h:0", "h:70000"])
    def test_bad_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            protocol.parse_peer_spec(bad)
