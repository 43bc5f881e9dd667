"""The cachenet wire protocol: length-prefixed frames, four verbs.

Every message (request or reply) is one frame::

    <4-byte big-endian payload length> <payload>

Request payloads are a verb line, optionally followed by a body::

    GET\\n<key>                 -> HIT\\n<envelope bytes> | MISS\\n
    PUT\\n<key>\\n<envelope>     -> OK\\n | ERR\\n<message>
    STATS\\n                    -> OK\\n<json>
    PING\\n                     -> OK\\n

The ``<envelope>`` bytes are exactly the checksummed on-disk entry
format of :class:`~repro.pipeline.cache.ArtifactCache` (magic + CRC32 +
pickle), moved verbatim: the server never unpickles network data, and
the CRC written by the original producer is verified again by the final
consumer — *accidental* corruption anywhere along disk → wire → disk is
caught.

Trust boundary: CRC32 is an integrity check, not authentication.  The
final consumer of a cache entry unpickles it, so every tier peer can
execute code on every tier client — backends and clients must trust
each other completely (same admin, private network).  When a
``secret`` is given (the ``romfsm`` CLI takes it from
``REPRO_CACHE_SECRET``), every frame payload additionally carries an
HMAC-SHA256 tag
(:func:`wrap_auth` / :func:`unwrap_auth`): a peer that does not hold
the shared secret cannot get its bytes past :func:`unwrap_auth`, so
nothing it sends is ever CRC-checked, stored, or unpickled.  Secrets
must match tier-wide; a mismatch looks like a dead backend (the breaker
opens, callers degrade to local-only).

Frames are capped at :data:`MAX_FRAME_BYTES`; anything larger (or any
malformed verb) is a :class:`ProtocolError`, which clients treat like
any other backend failure: count it, open the breaker, fall back to
the local cache.
"""

from __future__ import annotations

import hashlib
import hmac
import socket
from typing import List, Optional, Tuple, Union

__all__ = [
    "DEFAULT_CACHED_PORT",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "parse_peer_spec",
    "recv_frame",
    "resolve_secret",
    "send_frame",
    "split_verb",
    "unwrap_auth",
    "wrap_auth",
]

DEFAULT_CACHED_PORT = 8377
# Pipeline artifacts are at most a few MiB of pickled words; 64 MiB is
# a generous ceiling that still bounds a hostile or garbled peer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN_BYTES = 4


class ProtocolError(RuntimeError):
    """A malformed frame or verb; the connection is not reusable."""


_AUTH_MAGIC = b"RFA1"
_MAC_LEN = hashlib.sha256().digest_size
_AUTH_HEADER_LEN = len(_AUTH_MAGIC) + _MAC_LEN


def resolve_secret(
    secret: Union[None, str, bytes] = None
) -> Optional[bytes]:
    """The tier shared secret as bytes.

    Returns ``None`` (unauthenticated, trusted-network mode) when no
    secret is given.
    """
    if not secret:
        return None
    return secret.encode("utf-8") if isinstance(secret, str) else secret


def wrap_auth(payload: bytes, secret: Optional[bytes]) -> bytes:
    """Prefix ``payload`` with its HMAC-SHA256 tag (no-op without secret)."""
    if not secret:
        return payload
    mac = hmac.new(secret, payload, hashlib.sha256).digest()
    return _AUTH_MAGIC + mac + payload


def unwrap_auth(payload: bytes, secret: Optional[bytes]) -> bytes:
    """Verify and strip the HMAC prefix (no-op without secret).

    Raises :class:`ProtocolError` on a missing or wrong tag, *before*
    the caller can CRC-check, store, or unpickle anything — this is the
    authentication gate for every byte a peer sends.
    """
    if not secret:
        return payload
    if (len(payload) < _AUTH_HEADER_LEN
            or payload[:len(_AUTH_MAGIC)] != _AUTH_MAGIC):
        raise ProtocolError("peer sent an unauthenticated frame")
    mac = payload[len(_AUTH_MAGIC):_AUTH_HEADER_LEN]
    body = payload[_AUTH_HEADER_LEN:]
    if not hmac.compare_digest(
        mac, hmac.new(secret, body, hashlib.sha256).digest()
    ):
        raise ProtocolError("frame authentication failed")
    return body


def encode_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return len(payload).to_bytes(_LEN_BYTES, "big") + payload


def split_verb(payload: bytes) -> Tuple[str, bytes]:
    """Split a payload into its verb line and the rest."""
    verb, sep, rest = payload.partition(b"\n")
    try:
        name = verb.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ProtocolError("unreadable verb") from exc
    if not sep and not name:
        raise ProtocolError("empty frame")
    return name, rest


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> bytes:
    """Read one frame from a blocking socket (raises on short reads)."""
    header = _recv_exact(sock, _LEN_BYTES)
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionResetError(
                f"peer closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_peer_spec(spec: str) -> List[Tuple[str, int]]:
    """Parse ``"host:port,host:port"`` into ``[(host, port), ...]``.

    A bare ``host`` takes the default ``romfsm cached`` port.  Raises
    :class:`ValueError` on an empty or unparseable spec so callers can
    surface one friendly line instead of a traceback.
    """
    peers: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith(("http://", "https://")):
            part = part.split("://", 1)[1].rstrip("/")
        host, _, port_text = part.rpartition(":")
        if not host:
            host, port_text = part, str(DEFAULT_CACHED_PORT)
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"bad cache peer {part!r}: port is not a number")
        if not (0 < port < 65536):
            raise ValueError(f"bad cache peer {part!r}: port out of range")
        peers.append((host, port))
    if not peers:
        raise ValueError(f"cache-peer spec {spec!r} names no backends")
    return peers
