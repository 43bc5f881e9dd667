"""The finite-state-machine model.

The paper (section 4) describes an FSM by the six-tuple ``(I, O, S, r0,
delta, Y)``.  :class:`FSM` stores exactly that, as a state-transition
graph whose edges carry *ternary input cubes* — the format of the MCNC
``.kiss2`` benchmarks the paper evaluates on.  Output patterns may also
contain don't-cares (``-``), which downstream flows resolve to 0 (the
convention SIS applies when it synthesizes the STG to logic).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.cube import Cube

__all__ = ["FsmError", "Transition", "FSM", "StgTable"]

# Dense tabulation bounds: 2^12 input vectors per state and 1M entries
# overall keep one build in the low milliseconds for every benchmark;
# above them a table row steps the STG per lookup instead.
STG_TABLE_MAX_INPUTS = 12
STG_TABLE_MAX_ENTRIES = 1_000_000

# Serializes derived-value builds (the StgTable, the STG fingerprint)
# with STG edits: machines are shared across threads (the service's
# thread executor), and each value is built once per instance.
_TABLE_LOCK = threading.Lock()

# Instance attributes derived from the STG: dropped when it grows, never
# pickled, never fingerprinted (the fingerprint reads the KISS2 text).
_DERIVED_ATTRS = ("_stg_table", "_stg_fingerprint")


class FsmError(ValueError):
    """Raised for structurally invalid machines or transitions."""


@dataclass(frozen=True)
class Transition:
    """One STG edge: ``src --input_cube / output--> dst``."""

    src: str
    dst: str
    inputs: Cube
    outputs: str  # pattern over {'0','1','-'}, one char per output

    def __post_init__(self) -> None:
        for ch in self.outputs:
            if ch not in "01-":
                raise FsmError(f"invalid output character {ch!r} in {self.outputs!r}")

    def resolved_outputs(self) -> str:
        """Output pattern with don't-cares resolved to '0'."""
        return self.outputs.replace("-", "0")

    def output_bits(self) -> int:
        """Resolved outputs as an int, bit ``i`` = output ``i``."""
        bits = 0
        for i, ch in enumerate(self.resolved_outputs()):
            if ch == "1":
                bits |= 1 << i
        return bits


class FSM:
    """A Mealy (or Moore-shaped Mealy) finite-state machine.

    Parameters
    ----------
    name:
        Circuit name (benchmark id).
    num_inputs / num_outputs:
        Bit widths of the input and output vectors.
    states:
        Ordered state names; order is meaningful (encoders follow it).
    reset_state:
        Initial state ``r0``; must appear in ``states``.
    transitions:
        STG edges.  Multiple edges may leave a state; their input cubes
        should be disjoint for a deterministic machine (checked by
        :meth:`check_deterministic`).
    """

    def __init__(
        self,
        name: str,
        num_inputs: int,
        num_outputs: int,
        states: Sequence[str],
        reset_state: str,
        transitions: Iterable[Transition] = (),
    ):
        if num_inputs < 0 or num_outputs < 0:
            raise FsmError("input/output counts must be non-negative")
        if not states:
            raise FsmError("an FSM needs at least one state")
        if len(set(states)) != len(states):
            raise FsmError("duplicate state names")
        if reset_state not in states:
            raise FsmError(f"reset state {reset_state!r} not in state list")
        self.name = name
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.states: List[str] = list(states)
        self.reset_state = reset_state
        self.transitions: List[Transition] = []
        self._by_src: Dict[str, List[Transition]] = {s: [] for s in self.states}
        for t in transitions:
            self.add_transition(t)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_transition(self, t: Transition) -> None:
        if t.src not in self._by_src:
            raise FsmError(f"unknown source state {t.src!r}")
        if t.dst not in self._by_src:
            raise FsmError(f"unknown destination state {t.dst!r}")
        if t.inputs.n_vars != self.num_inputs:
            raise FsmError(
                f"transition input cube has {t.inputs.n_vars} vars, "
                f"machine has {self.num_inputs} inputs"
            )
        if len(t.outputs) != self.num_outputs:
            raise FsmError(
                f"transition output pattern has {len(t.outputs)} bits, "
                f"machine has {self.num_outputs} outputs"
            )
        with _TABLE_LOCK:
            self.transitions.append(t)
            self._by_src[t.src].append(t)
            for attr in _DERIVED_ATTRS:  # stale once the STG grows
                self.__dict__.pop(attr, None)

    def add(self, src: str, inputs: str, dst: str, outputs: str) -> None:
        """Shorthand: ``fsm.add('A', '0-', 'B', '1')``."""
        self.add_transition(
            Transition(src=src, dst=dst, inputs=Cube.from_string(inputs),
                       outputs=outputs)
        )

    def copy(self, name: Optional[str] = None) -> "FSM":
        return FSM(
            name or self.name,
            self.num_inputs,
            self.num_outputs,
            self.states,
            self.reset_state,
            self.transitions,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def input_names(self) -> List[str]:
        return [f"in{i}" for i in range(self.num_inputs)]

    @property
    def output_names(self) -> List[str]:
        return [f"out{i}" for i in range(self.num_outputs)]

    def transitions_from(self, state: str) -> List[Transition]:
        if state not in self._by_src:
            raise FsmError(f"unknown state {state!r}")
        return list(self._by_src[state])

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise FsmError(f"unknown state {state!r}") from None

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def lookup(self, state: str, input_bits: int) -> Optional[Transition]:
        """The transition taken from ``state`` on ``input_bits``, or None.

        ``input_bits`` packs input ``i`` into bit ``i``.  Returns the
        first matching transition (for a deterministic machine there is
        at most one).  None means the behaviour is unspecified in the
        STG; simulation treats that as a hold (self-loop, outputs 0).
        """
        for t in self._by_src.get(state, ()):
            if t.inputs.contains_minterm(input_bits):
                return t
        return None

    def step(self, state: str, input_bits: int) -> Tuple[str, int]:
        """Next state and resolved output bits (unspecified -> hold, 0)."""
        t = self.lookup(state, input_bits)
        if t is None:
            return state, 0
        return t.dst, t.output_bits()

    def stg_table(self) -> "StgTable":
        """The machine's :class:`StgTable`, built on first use.

        Kept on the instance until :meth:`add_transition` changes the
        STG; it is never pickled (see :meth:`__getstate__`) and never
        fingerprinted (the fingerprint reads the KISS2 text).
        """
        return self.derived("_stg_table", StgTable.build)

    def derived(self, attr: str, build: Callable[["FSM"], Any]) -> Any:
        """``build(self)``, kept on the instance as ``attr`` (one of
        :data:`_DERIVED_ATTRS`) until :meth:`add_transition`."""
        value = self.__dict__.get(attr)
        if value is None:
            with _TABLE_LOCK:
                value = self.__dict__.get(attr)
                if value is None:
                    value = build(self)
                    setattr(self, attr, value)
        return value

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for attr in _DERIVED_ATTRS:
            state.pop(attr, None)
        return state

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------

    def check_deterministic(self) -> List[Tuple[Transition, Transition]]:
        """Return pairs of same-source transitions whose cubes overlap.

        Overlapping pairs with identical (dst, outputs) are benign and
        not reported; genuinely conflicting pairs are.
        """
        conflicts: List[Tuple[Transition, Transition]] = []
        for state in self.states:
            outgoing = self._by_src[state]
            for i, a in enumerate(outgoing):
                for b in outgoing[i + 1:]:
                    if a.inputs.intersect(b.inputs) is None:
                        continue
                    if a.dst == b.dst and a.outputs == b.outputs:
                        continue
                    conflicts.append((a, b))
        return conflicts

    def is_deterministic(self) -> bool:
        return not self.check_deterministic()

    def is_complete(self) -> bool:
        """True when every state specifies behaviour for every input."""
        from repro.logic.cube import Cover
        from repro.logic.minimize import is_tautology

        for state in self.states:
            cover = Cover(self.num_inputs, (t.inputs for t in self._by_src[state]))
            if not is_tautology(cover):
                return False
        return True

    def is_moore(self) -> bool:
        """True when the output depends only on the current state.

        In STG form that means all transitions *leaving* a given state
        carry the same (resolved) output pattern.  (Equivalently the
        output could be attached to states; the MCNC Moore benchmarks
        are stored this way.)
        """
        for state in self.states:
            outs = {t.resolved_outputs() for t in self._by_src[state]}
            if len(outs) > 1:
                return False
        return True

    def moore_output_of(self, state: str) -> Optional[str]:
        """The state's unique resolved output pattern, if Moore-shaped."""
        outs = {t.resolved_outputs() for t in self._by_src[state]}
        if len(outs) == 1:
            return next(iter(outs))
        if not outs:
            return "0" * self.num_outputs
        return None

    def validate(self) -> None:
        """Raise :class:`FsmError` on structural problems."""
        conflicts = self.check_deterministic()
        if conflicts:
            a, b = conflicts[0]
            raise FsmError(
                f"non-deterministic STG: state {a.src!r} has overlapping "
                f"cubes {a.inputs} and {b.inputs} with different behaviour"
            )

    def __repr__(self) -> str:
        return (
            f"FSM({self.name!r}, i={self.num_inputs}, o={self.num_outputs}, "
            f"s={self.num_states}, p={len(self.transitions)})"
        )


class _SteppedRow:
    """A table row too large to tabulate: each lookup steps the STG."""

    __slots__ = ("_fsm", "_state", "_index")

    def __init__(self, fsm: FSM, state: str, index: Dict[str, int]):
        self._fsm = fsm
        self._state = state
        self._index = index

    def __getitem__(self, input_bits: int) -> Tuple[int, int]:
        nxt, out = self._fsm.step(self._state, input_bits)
        return self._index[nxt], out


class StgTable:
    """The STG as a jump table: ``rows[s][bits] = (next index, outputs)``.

    ``s`` and the next index are positions in ``fsm.states``; the
    outputs are the resolved output bits :meth:`FSM.step` returns, and
    unspecified pairs hold the state with outputs 0.  Simulators and
    stimulus generators step this instead of scanning transition cubes.

    Within :data:`STG_TABLE_MAX_INPUTS` / :data:`STG_TABLE_MAX_ENTRIES`
    the rows are dense lists (``dense`` is true), filled from each
    cube's minterms in first-match order.  Above the bounds each row
    steps :meth:`FSM.step` on lookup, so readers never branch.  Rows
    are indexed by in-range input vectors only; :meth:`walk` masks.
    """

    __slots__ = ("rows", "dense", "reset", "input_mask")

    def __init__(self, rows: list, dense: bool, reset: int, input_mask: int):
        self.rows = rows
        self.dense = dense
        self.reset = reset
        self.input_mask = input_mask

    @classmethod
    def build(cls, fsm: FSM) -> "StgTable":
        index = {state: i for i, state in enumerate(fsm.states)}
        size = 1 << fsm.num_inputs
        dense = (
            fsm.num_inputs <= STG_TABLE_MAX_INPUTS
            and fsm.num_states * size <= STG_TABLE_MAX_ENTRIES
        )
        rows: list = []
        for i, state in enumerate(fsm.states):
            if not dense:
                rows.append(_SteppedRow(fsm, state, index))
                continue
            row = [(i, 0)] * size  # hold, outputs 0
            # Reverse order, overwriting: the first matching cube wins,
            # exactly as FSM.lookup scans.
            for t in reversed(fsm._by_src[state]):
                cube = t.inputs
                free = cube.zero_mask & cube.one_mask
                if (cube.zero_mask | cube.one_mask) != size - 1:
                    continue  # an empty cube matches nothing
                base = cube.one_mask ^ free
                entry = (index[t.dst], t.output_bits())
                sub = free
                while True:
                    row[base | sub] = entry
                    if not sub:
                        break
                    sub = (sub - 1) & free
            rows.append(row)
        return cls(rows, dense, index[fsm.reset_state], size - 1)

    def walk(self, stimulus: Iterable[int]) -> Tuple[List[int], List[int]]:
        """State indices (reset first, one per cycle after) and outputs.

        Input vectors are truncated to the machine's input width.
        """
        rows = self.rows
        mask = self.input_mask
        idx = self.reset
        states = [idx]
        outputs: List[int] = []
        for bits in stimulus:
            idx, out = rows[idx][bits & mask]
            states.append(idx)
            outputs.append(out)
        return states, outputs
