"""ROM content generation — the paper's "C program to automatically
generate the VHDL initialization string" (section 5), generalized.

The memory word layout follows the paper's Fig. 2b worked example:

* **address** = compacted (or raw) FSM inputs in the low bits, latched
  state bits above them (Fig. 2b: ``A0`` is the FSM input, ``A2-A1`` the
  next-state feedback);
* **data** = FSM outputs in the low bits, next-state code above them
  (Fig. 2b: ``D0`` is the output, ``D2-D1`` the next state) — unless the
  outputs are realized externally (Moore/Fig. 3), in which case the word
  holds only the next-state code.

Unspecified (state, input) addresses are programmed with the *hold*
word — same state, all-zero outputs — matching the reference simulation
semantics, so the ROM is a total function.  Addresses whose state field
is no encoded state hold word 0; they are unreachable because the state
feedback only ever carries real codes (the latch resets to code 0 = the
reset state, paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM, FsmError
from repro.romfsm.compaction import ColumnCompaction

__all__ = ["RomLayout", "generate_contents"]


@dataclass(frozen=True)
class RomLayout:
    """Bit placement of the FSM word inside the memory.

    Attributes
    ----------
    input_bits:
        Address bits carrying the (possibly compacted) FSM inputs.
    state_bits:
        Address/data bits carrying the state code.
    output_bits:
        Data bits carrying the outputs (0 when outputs are external).
    """

    input_bits: int
    state_bits: int
    output_bits: int

    @property
    def addr_bits(self) -> int:
        return self.input_bits + self.state_bits

    @property
    def data_bits(self) -> int:
        return self.output_bits + self.state_bits

    @property
    def depth(self) -> int:
        return 1 << self.addr_bits

    def make_address(self, state_code: int, input_value: int) -> int:
        """Pack (state, input) into an address (inputs at the LSB)."""
        if input_value >> self.input_bits:
            raise ValueError(f"input value {input_value:#x} too wide")
        if state_code >> self.state_bits:
            raise ValueError(f"state code {state_code:#x} too wide")
        return (state_code << self.input_bits) | input_value

    def make_word(self, next_code: int, outputs: int) -> int:
        """Pack (next state, outputs) into a data word (outputs at the LSB)."""
        if outputs >> max(1, self.output_bits) and self.output_bits == 0:
            raise ValueError("layout has no output bits but outputs given")
        if self.output_bits and outputs >> self.output_bits:
            raise ValueError(f"outputs {outputs:#x} too wide")
        if next_code >> self.state_bits:
            raise ValueError(f"state code {next_code:#x} too wide")
        return (next_code << self.output_bits) | outputs

    def split_word(self, word: int) -> "tuple[int, int]":
        """Unpack a data word into (next_state_code, outputs)."""
        outputs = word & ((1 << self.output_bits) - 1) if self.output_bits else 0
        next_code = word >> self.output_bits
        return next_code, outputs

    def split_address(self, addr: int) -> "tuple[int, int]":
        """Unpack an address into (state_code, input_value)."""
        inputs = addr & ((1 << self.input_bits) - 1) if self.input_bits else 0
        state_code = addr >> self.input_bits
        return state_code, inputs


def generate_contents(
    fsm: FSM,
    encoding: StateEncoding,
    layout: RomLayout,
    compaction: Optional[ColumnCompaction] = None,
) -> List[int]:
    """Program the STG into a word list of length ``layout.depth``.

    With ``compaction`` given, address input bits carry the per-state
    selected columns; a representative full input vector is rebuilt for
    each compacted value (sound because every cube of a state binds only
    that state's care columns).  Words for compacted positions a state
    does not use are replicated so the multiplexer tie-off value is
    irrelevant.
    """
    if encoding.encode(fsm.reset_state) != 0:
        raise FsmError(
            "ROM mapping requires the reset state at code 0: the BRAM "
            "output latch clears to 0 and must address the initial state"
        )
    if compaction is not None and compaction.num_inputs != fsm.num_inputs:
        raise FsmError("compaction table built for a different input count")
    expected_inputs = compaction.width if compaction is not None else fsm.num_inputs
    if layout.input_bits != expected_inputs:
        raise FsmError(
            f"layout has {layout.input_bits} input bits, expected {expected_inputs}"
        )
    if encoding.width != layout.state_bits:
        raise FsmError("layout state width does not match the encoding")

    words = [0] * layout.depth
    rows = fsm.stg_table().rows
    code_of = [encoding.encode(state) for state in fsm.states]
    for state, row, code in zip(fsm.states, rows, code_of):
        if compaction is None:
            for input_bits in range(1 << fsm.num_inputs):
                dst, out = row[input_bits]
                addr = layout.make_address(code, input_bits)
                words[addr] = layout.make_word(
                    code_of[dst], out if layout.output_bits else 0
                )
            continue
        cols = compaction.columns_for(state)
        used = len(cols)
        for compact_value in range(1 << layout.input_bits):
            base = compact_value & ((1 << used) - 1) if used else 0
            # Representative full input vector for this projection class.
            representative = 0
            for j, col in enumerate(cols):
                if (base >> j) & 1:
                    representative |= 1 << col
            dst, out = row[representative]
            addr = layout.make_address(code, compact_value)
            words[addr] = layout.make_word(
                code_of[dst], out if layout.output_bits else 0
            )
    return words
