"""Hashable, serializable stage artifacts.

Every stage output is wrapped in an :class:`Artifact`: the value itself
plus a content *fingerprint* — a SHA-256 digest of a canonical recursive
encoding of the object graph, computed the first time it is read.
Downstream cache keys are derived from upstream fingerprints, so the
fingerprint must be stable across processes and interpreter sessions.
Pickle bytes are **not** (set iteration order depends on string-hash
randomization), which is why the walker below canonicalizes containers
itself:

- dict items and set elements are digested element-wise and sorted;
- dataclasses, ``__dict__`` objects and ``__slots__`` objects digest as
  (qualified class name, field map);
- an :class:`~repro.fsm.machine.FSM` digests as its name plus canonical
  KISS2 text, so the ``parse`` stage fingerprint is exactly the
  round-trippable on-disk representation.

Values are *stored* with pickle (loading gives an equal object; the
bytes themselves need not be canonical), only *keyed* by fingerprint.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Optional

from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM

__all__ = ["Artifact", "FingerprintError", "fingerprint"]


class FingerprintError(TypeError):
    """A value reached the fingerprint walker that it cannot canonicalize."""


def _frame(tag: bytes, payload: bytes) -> bytes:
    """Length-prefixed frame so adjacent fields cannot alias."""
    return tag + str(len(payload)).encode() + b":" + payload


def _digest(value: Any, _depth: int = 0) -> bytes:
    if _depth > 64:
        raise FingerprintError("object graph too deep to fingerprint")
    h = hashlib.sha256()
    if value is None:
        h.update(b"none")
    elif isinstance(value, bool):
        h.update(b"bool:" + (b"1" if value else b"0"))
    elif isinstance(value, int):
        h.update(_frame(b"int", str(value).encode()))
    elif isinstance(value, float):
        h.update(_frame(b"float", repr(value).encode()))
    elif isinstance(value, str):
        h.update(_frame(b"str", value.encode("utf-8")))
    elif isinstance(value, (bytes, bytearray)):
        h.update(_frame(b"bytes", bytes(value)))
    elif isinstance(value, FSM):
        # Canonical KISS2 text, plus the state list and reset state
        # explicitly — a dangling state never appears in a transition
        # line but still widens the encoding.
        h.update(_frame(b"fsm", value.name.encode("utf-8")))
        h.update(_digest(value.states, _depth + 1))
        h.update(_frame(b"reset", value.reset_state.encode("utf-8")))
        h.update(_frame(b"kiss", format_kiss(value).encode("utf-8")))
    elif isinstance(value, enum.Enum):
        h.update(_frame(b"enum", f"{type(value).__qualname__}.{value.name}".encode()))
    elif isinstance(value, (list, tuple)):
        h.update(b"seq:")
        for item in value:
            h.update(_digest(item, _depth + 1))
    elif isinstance(value, (set, frozenset)):
        h.update(b"set:")
        for d in sorted(_digest(item, _depth + 1) for item in value):
            h.update(d)
    elif isinstance(value, dict):
        h.update(b"map:")
        pairs = sorted(
            (_digest(k, _depth + 1), _digest(v, _depth + 1))
            for k, v in value.items()
        )
        for kd, vd in pairs:
            h.update(kd)
            h.update(vd)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(_frame(b"obj", type(value).__qualname__.encode()))
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        h.update(_digest(fields, _depth + 1))
    elif hasattr(value, "__dict__"):
        h.update(_frame(b"obj", type(value).__qualname__.encode()))
        h.update(_digest(vars(value), _depth + 1))
    elif hasattr(value, "__slots__"):
        h.update(_frame(b"obj", type(value).__qualname__.encode()))
        slots = {
            name: getattr(value, name)
            for name in type(value).__slots__
            if hasattr(value, name)
        }
        h.update(_digest(slots, _depth + 1))
    else:
        raise FingerprintError(
            f"cannot fingerprint {type(value).__qualname__!r} instances"
        )
    return h.digest()


def fingerprint(value: Any) -> str:
    """SHA-256 hex fingerprint of ``value``'s canonical encoding."""
    return _digest(value).hex()


class Artifact:
    """One stage output: the value plus its content fingerprint.

    The fingerprint is computed when first read, so a run that never
    keys a cache with it never pays for the walk.
    """

    __slots__ = ("value", "_fingerprint")

    def __init__(self, value: Any, fingerprint: Optional[str] = None):
        self.value = value
        self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> str:
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = fingerprint(self.value)
        return fp

    @classmethod
    def of(cls, value: Any) -> "Artifact":
        return cls(value)

    def __repr__(self) -> str:
        return f"Artifact(value={self.value!r}, fingerprint={self._fingerprint!r})"
