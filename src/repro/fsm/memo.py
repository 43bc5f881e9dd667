"""One content-keyed memo for products derived from a machine's STG.

Much of what the flows compute from an FSM depends only on its
state-transition graph plus a few small parameters: a strategy's state
assignment, the Markov stationary occupancy, the ROM mapping's
structural checks, its contents under an encoding, and the glue logic
(input multiplexer, Moore output LUTs, clock-control enable) it
synthesizes for an encoding and LUT size.  The tuner's grid revisits
the same handful of (encoding, k) pairs for every candidate, and each
pipeline evaluation unpickles a fresh FSM from the parse cache, so the
memo is keyed by *content* — the STG fingerprint — not by instance.

:func:`fsm_memo` returns ``build()``'s value for ``(stg_fingerprint(fsm),
key)``, computing it on first use.  Values are shared read-only between
callers; a caller that needs to change one copies it first.  The build
runs outside any lock (builds may nest: contents generation reads
``fsm.stg_table()``) and is published with ``dict.setdefault``, so two
threads racing on a cold entry both get the first published value.
The memo holds :data:`FSM_MEMO_MAX_MACHINES` machines and evicts the
oldest machine, with all its products, first.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable, Dict, Hashable

from repro.fsm.machine import FSM

__all__ = [
    "FSM_MEMO_MAX_MACHINES",
    "clear_fsm_memo",
    "fsm_memo",
    "stg_fingerprint",
]

FSM_MEMO_MAX_MACHINES = 64

_MEMO: Dict[str, Dict[Hashable, Any]] = {}
_LOCK = threading.Lock()  # guards machine insertion and eviction only
_MISSING = object()


def _compute_stg_fingerprint(fsm: FSM) -> str:
    from repro.fsm.kiss import format_kiss

    h = hashlib.sha256()
    h.update(fsm.name.encode("utf-8"))
    h.update(b"\x00")
    h.update("\x1f".join(fsm.states).encode("utf-8"))
    h.update(b"\x00")
    h.update(fsm.reset_state.encode("utf-8"))
    h.update(b"\x00")
    h.update(format_kiss(fsm).encode("utf-8"))
    return h.hexdigest()


def stg_fingerprint(fsm: FSM) -> str:
    """SHA-256 of the machine's name, state list, reset state and
    canonical KISS2 text; computed once per instance (see
    :meth:`FSM.derived`)."""
    return fsm.derived("_stg_fingerprint", _compute_stg_fingerprint)


def fsm_memo(fsm: FSM, key: Hashable, build: Callable[[], Any]) -> Any:
    """``build()``, memoised by ``(stg_fingerprint(fsm), key)``.

    ``key`` names the product and its parameters (a tuple whose first
    element names the product keeps products from colliding).  An
    exception from ``build`` propagates and nothing is stored.
    """
    fp = stg_fingerprint(fsm)
    products = _MEMO.get(fp)
    if products is not None:
        value = products.get(key, _MISSING)
        if value is not _MISSING:
            return value
    value = build()
    with _LOCK:
        products = _MEMO.get(fp)
        if products is None:
            while len(_MEMO) >= FSM_MEMO_MAX_MACHINES:
                del _MEMO[next(iter(_MEMO))]
            products = _MEMO[fp] = {}
    return products.setdefault(key, value)


def clear_fsm_memo() -> None:
    """Forget every memoised product of every machine."""
    with _LOCK:
        _MEMO.clear()
