"""The ROM-based FSM implementation object and its simulator.

:class:`RomFsmImplementation` bundles everything the paper's Fig. 1b/2b
structure contains: the configured block RAM(s) holding the STG, the
dense state encoding, the optional input multiplexer (column
compaction), the optional external Moore output LUTs, and the optional
idle-state enable logic.  :meth:`RomFsmImplementation.run` is the
cycle-accurate model used both for equivalence checking against the
reference FSM and for extracting the switching activities the power
estimator consumes.

Output timing note: outputs stored in the memory word are *registered*
(they appear in the BRAM output latch at the clock edge that consumes
the inputs), whereas the FF baseline's Mealy outputs are combinational.
Both produce the same output *sequence* for the same stimulus — cycle
``k`` of the returned stream is the output of transition ``k`` in both
cases — which is what the equivalence tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.bram import BlockRam, BramConfig
from repro.arch.device import Utilization
from repro.arch.memblock import MemoryBlockModel, resolve_backend
from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM, FsmError
from repro.logic.lutmap import LutMapping
from repro.romfsm.clock_control import ClockControl
from repro.romfsm.compaction import ColumnCompaction
from repro.romfsm.contents import RomLayout, generate_contents
from repro.synth.wordsim import (
    evaluate_mapping_words,
    pack_bit_column,
    pack_bit_columns,
    transpose_words,
    unpack_word,
    word_toggles,
)

__all__ = ["RomTrace", "RomFsmImplementation"]


@dataclass
class RomTrace:
    """Per-net switching statistics and streams from one ROM-FSM run."""

    num_cycles: int
    output_stream: List[int]
    state_stream: List[str]
    # Top-level signal toggle counts: address pins ("addr{i}"), data-out
    # pins ("q{i}"), primary inputs ("in{i}"), and "en".
    signal_toggles: Dict[str, int]
    # Internal LUT-net toggles of the three auxiliary mappings.
    mux_toggles: Dict[str, int]
    moore_toggles: Dict[str, int]
    control_toggles: Dict[str, int]
    enabled_edges: int
    # Per-cycle memory port streams: the address presented at edge k and
    # whether the edge was enabled.  The overlay replay interleaves these
    # onto a shared physical block (see :mod:`repro.overlay.replay`).
    address_stream: List[int] = field(default_factory=list)
    enable_stream: List[int] = field(default_factory=list)

    @property
    def enable_duty(self) -> float:
        """Fraction of edges with EN asserted (1.0 without clock control)."""
        if self.num_cycles == 0:
            return 1.0
        return self.enabled_edges / self.num_cycles

    def activity(self, signal: str) -> float:
        if self.num_cycles == 0:
            return 0.0
        return self.signal_toggles.get(signal, 0) / self.num_cycles


@dataclass
class RomFsmImplementation:
    """A fully mapped ROM-based FSM.

    Attributes
    ----------
    fsm / encoding / layout:
        The machine, its dense state encoding (reset at code 0), and the
        address/data word layout.
    config:
        Aspect ratio of each physical BRAM used.
    parallel_brams / series_brams:
        Physical block counts from the Fig. 5 joining steps; the total
        block count is their product.
    contents:
        The programmed words (logical view across parallel blocks).
    compaction / mux_mapping:
        Column-compaction table and its mapped input multiplexer, when
        the Fig. 4 path was taken.
    moore_output_mapping:
        LUT logic computing the outputs from the state bits (Fig. 3),
        when outputs are external; the ROM word then has no output field.
    clock_control:
        The §6 enable logic, when requested.
    backend:
        The memory-block technology model the mapping targeted (see
        :mod:`repro.arch.memblock`); ``None`` means the Virtex-II
        default.  Being a dataclass field, the backend participates in
        the artifact fingerprint, so mappings for different fabrics
        never collide in the content-addressed cache.
    """

    fsm: FSM
    encoding: StateEncoding
    layout: RomLayout
    config: BramConfig
    contents: List[int]
    parallel_brams: int = 1
    series_brams: int = 1
    compaction: Optional[ColumnCompaction] = None
    mux_mapping: Optional[LutMapping] = None
    moore_output_mapping: Optional[LutMapping] = None
    clock_control: Optional[ClockControl] = None
    backend: Optional[MemoryBlockModel] = None

    def __post_init__(self) -> None:
        if len(self.contents) != self.layout.depth:
            raise FsmError(
                f"contents length {len(self.contents)} != layout depth "
                f"{self.layout.depth}"
            )
        self._rom = BlockRam(
            BramConfig(self.layout.depth, max(1, self.layout.data_bits)),
            self.contents,
        )

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------

    @property
    def backend_model(self) -> MemoryBlockModel:
        """The resolved technology model (Virtex-II BRAM when unset)."""
        return resolve_backend(self.backend)

    @property
    def num_brams(self) -> int:
        return self.parallel_brams * self.series_brams

    @property
    def num_luts(self) -> int:
        total = 0
        if self.mux_mapping is not None:
            total += self.mux_mapping.num_luts
        if self.moore_output_mapping is not None:
            total += self.moore_output_mapping.num_luts
        if self.clock_control is not None:
            total += self.clock_control.num_luts
        return total

    @property
    def utilization(self) -> Utilization:
        return Utilization(luts=self.num_luts, ffs=0, brams=self.num_brams)

    @property
    def outputs_in_rom(self) -> bool:
        return self.layout.output_bits > 0

    @property
    def mux_levels(self) -> int:
        return self.mux_mapping.depth if self.mux_mapping is not None else 0

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    def _mux_values(
        self, state_code: int, input_bits: int
    ) -> Tuple[int, Dict[str, int]]:
        """Compacted input value and all mux-net values for one cycle."""
        assert self.mux_mapping is not None and self.compaction is not None
        values: Dict[str, int] = {}
        for b in range(self.encoding.width):
            values[self.encoding.bit_name(b)] = (state_code >> b) & 1
        for i in range(self.fsm.num_inputs):
            values[f"in{i}"] = (input_bits >> i) & 1
        nets = self.mux_mapping.evaluate_all_nets(values)
        out_nets = self.mux_mapping.outputs
        compacted = 0
        for j in range(self.compaction.width):
            if nets[out_nets[f"mux{j}"]]:
                compacted |= 1 << j
        return compacted, nets

    def _moore_values(self, state_code: int) -> Tuple[int, Dict[str, int]]:
        assert self.moore_output_mapping is not None
        values = {
            self.encoding.bit_name(b): (state_code >> b) & 1
            for b in range(self.encoding.width)
        }
        nets = self.moore_output_mapping.evaluate_all_nets(values)
        out_nets = self.moore_output_mapping.outputs
        out = 0
        for o in range(self.fsm.num_outputs):
            if nets[out_nets[f"out{o}"]]:
                out |= 1 << o
        return out, nets

    def _control_values(
        self, state_code: int, input_bits: int, latched_out: int
    ) -> Tuple[int, Dict[str, int]]:
        assert self.clock_control is not None
        cc = self.clock_control
        values: Dict[str, int] = {}
        for b in range(self.encoding.width):
            values[self.encoding.bit_name(b)] = (state_code >> b) & 1
        for i in range(self.fsm.num_inputs):
            values[f"in{i}"] = (input_bits >> i) & 1
        if cc.compares_outputs:
            for o in range(self.fsm.num_outputs):
                values[f"fb_out{o}"] = (latched_out >> o) & 1
        nets = cc.mapping.evaluate_all_nets(values)
        return nets[cc.mapping.outputs["en"]], nets

    def step(
        self, state_code: int, latched_out: int, input_bits: int
    ) -> Tuple[int, int, int, int]:
        """One clock edge without statistics.

        Returns ``(next_state_code, next_latched_out, observed_output, en)``.
        """
        if self.compaction is not None:
            compacted, _ = self._mux_values(state_code, input_bits)
        else:
            compacted = input_bits
        addr = self.layout.make_address(state_code, compacted)
        en = 1
        if self.clock_control is not None:
            en, _ = self._control_values(state_code, input_bits, latched_out)
        if self.moore_output_mapping is not None:
            observed, _ = self._moore_values(state_code)
        if en:
            word = self._rom.peek(addr)
            next_code, out_field = self.layout.split_word(word)
        else:
            next_code, out_field = state_code, latched_out
        if self.moore_output_mapping is None:
            observed = out_field
        return next_code, out_field, observed, en

    def run(self, stimulus: List[int], collect_nets: bool = True) -> RomTrace:
        """Simulate from reset; counts per-signal toggles for the power model.

        Word-parallel: the state/output trajectory is first derived from
        the STG (table lookups), the mux/Moore/enable LUT mappings are
        then evaluated over the whole trace as packed big-int words, and
        the trajectory is verified cycle by cycle against the actual ROM
        words and enable decisions.  Any disagreement (or an out-of-range
        input vector) drops to :meth:`run_reference`, the per-cycle
        oracle, so behaviour — including BRAM statistics and error
        semantics — is always identical to the reference evaluator.
        """
        num_cycles = len(stimulus)
        if num_cycles == 0:
            return self.run_reference(stimulus, collect_nets)
        fsm = self.fsm
        limit = 1 << fsm.num_inputs if fsm.num_inputs else 1
        for input_bits in stimulus:
            if not 0 <= input_bits < max(limit, 1):
                # The reference reproduces the partial-run statistics and
                # the exact ValueError the per-cycle loop raises.
                return self.run_reference(stimulus, collect_nets)

        encoding = self.encoding
        layout = self.layout
        width = encoding.width

        # Trajectory guess from the STG table; verified below against
        # the ROM.
        indices, ref_outs = fsm.stg_table().walk(stimulus)
        code_of = [encoding.encode(state) for state in fsm.states]
        codes: List[int] = [code_of[i] for i in indices]
        if not layout.output_bits:
            ref_outs = [0] * num_cycles

        current_codes = codes[:num_cycles]
        mask = (1 << num_cycles) - 1
        # One pack over all num_cycles + 1 codes per state bit: the
        # replay's hold check needs the next-state column as well.
        code_words = pack_bit_columns(codes, width)
        state_words = [word & mask for word in code_words]
        stim_words = pack_bit_columns(stimulus, fsm.num_inputs)

        def base_words() -> Dict[str, int]:
            words = {
                encoding.bit_name(b): state_words[b] for b in range(width)
            }
            for i in range(fsm.num_inputs):
                words[f"in{i}"] = stim_words[i]
            return words

        mux_nets: Optional[Dict[str, int]] = None
        if self.compaction is not None:
            assert self.mux_mapping is not None
            mux_nets = evaluate_mapping_words(
                self.mux_mapping, base_words(), mask
            )
            out_nets = self.mux_mapping.outputs
            compacted_list = transpose_words(
                [
                    mux_nets[out_nets[f"mux{j}"]]
                    for j in range(self.compaction.width)
                ],
                num_cycles,
            )
        else:
            compacted_list = list(stimulus)

        addrs = [
            layout.make_address(code, compacted)
            for code, compacted in zip(current_codes, compacted_list)
        ]

        ctl_nets: Optional[Dict[str, int]] = None
        if self.clock_control is not None:
            cc = self.clock_control
            words = base_words()
            if cc.compares_outputs:
                # fb_out sees the output latched *before* each cycle.
                fb = [0] + ref_outs[:-1]
                for o in range(fsm.num_outputs):
                    words[f"fb_out{o}"] = pack_bit_column(fb, o)
            ctl_nets = evaluate_mapping_words(cc.mapping, words, mask)
            en_word = ctl_nets[cc.mapping.outputs["en"]]
        else:
            en_word = mask

        moore_nets: Optional[Dict[str, int]] = None
        if self.moore_output_mapping is not None:
            moore_nets = evaluate_mapping_words(
                self.moore_output_mapping, base_words(), mask
            )
            out_nets = self.moore_output_mapping.outputs
            observed_list = transpose_words(
                [
                    moore_nets[out_nets[f"out{o}"]]
                    for o in range(fsm.num_outputs)
                ],
                num_cycles,
            )
        else:
            observed_list = ref_outs

        # Replay the memory reads: verify the guessed trajectory against
        # the actual programmed words.  By induction, a full match means
        # the per-cycle evaluator would compute exactly these states,
        # outputs and net values.
        outcome = _replay_rom(
            self._rom.words, addrs, codes, ref_outs, layout.output_bits,
            en_word, code_words,
        )
        if outcome is None:
            return self.run_reference(stimulus, collect_nets)
        enabled, last_read = outcome

        # Trajectory confirmed: commit the BRAM statistics the per-cycle
        # clock() calls would have accumulated.
        self._rom.total_edges += num_cycles
        self._rom.enabled_edges += enabled
        if last_read is not None:
            self._rom.output = last_read

        signal_toggles: Dict[str, int] = {}

        def count_word(tag: str, bit_words: List[int]) -> None:
            for b, word in enumerate(bit_words):
                toggles = word_toggles(word, num_cycles)
                if toggles:
                    signal_toggles[f"{tag}{b}"] = toggles

        count_word("in", stim_words)
        count_word("addr", pack_bit_columns(addrs, layout.addr_bits))
        count_word("en", [en_word])
        q_list = [
            layout.make_word(codes[k + 1], ref_outs[k])
            for k in range(num_cycles)
        ]
        count_word("q", pack_bit_columns(q_list, layout.data_bits))

        def net_toggle_counts(nets: Optional[Dict[str, int]]) -> Dict[str, int]:
            counts: Dict[str, int] = {}
            if collect_nets and nets is not None:
                for name, word in nets.items():
                    toggles = word_toggles(word, num_cycles)
                    if toggles:
                        counts[name] = toggles
            return counts

        return RomTrace(
            num_cycles=num_cycles,
            output_stream=observed_list,
            state_stream=(
                [fsm.reset_state]
                + [encoding.decode(code) for code in codes[1:]]
            ),
            signal_toggles=signal_toggles,
            mux_toggles=net_toggle_counts(mux_nets),
            moore_toggles=net_toggle_counts(moore_nets),
            control_toggles=net_toggle_counts(ctl_nets),
            enabled_edges=enabled,
            address_stream=addrs,
            enable_stream=unpack_word(en_word, num_cycles),
        )

    def run_reference(
        self, stimulus: List[int], collect_nets: bool = True
    ) -> RomTrace:
        """Per-cycle reference evaluator (the oracle for equivalence tests)."""
        state_code = self.encoding.encode(self.fsm.reset_state)
        latched_out = 0

        signal_toggles: Dict[str, int] = {}
        mux_toggles: Dict[str, int] = {}
        moore_toggles: Dict[str, int] = {}
        control_toggles: Dict[str, int] = {}
        prev: Dict[str, Dict[str, int]] = {}
        prev_bits: Dict[str, int] = {}

        def count_bits(tag: str, width: int, value: int) -> None:
            old = prev_bits.get(tag)
            if old is not None:
                changed = old ^ value
                for b in range(width):
                    if (changed >> b) & 1:
                        key = f"{tag}{b}"
                        signal_toggles[key] = signal_toggles.get(key, 0) + 1
            prev_bits[tag] = value

        def count_nets(
            store: Dict[str, int], key: str, nets: Dict[str, int]
        ) -> None:
            old = prev.get(key)
            if old is not None:
                for name, value in nets.items():
                    if old.get(name) != value:
                        store[name] = store.get(name, 0) + 1
            prev[key] = nets

        outputs: List[int] = []
        states: List[str] = [self.fsm.reset_state]
        addresses: List[int] = []
        enables: List[int] = []
        enabled = 0

        for input_bits in stimulus:
            limit = 1 << self.fsm.num_inputs if self.fsm.num_inputs else 1
            if not 0 <= input_bits < max(limit, 1):
                raise ValueError(f"input vector {input_bits:#x} out of range")
            if self.compaction is not None:
                compacted, mux_nets = self._mux_values(state_code, input_bits)
                if collect_nets:
                    count_nets(mux_toggles, "mux", mux_nets)
            else:
                compacted = input_bits
            addr = self.layout.make_address(state_code, compacted)
            en = 1
            if self.clock_control is not None:
                en, ctl_nets = self._control_values(
                    state_code, input_bits, latched_out
                )
                if collect_nets:
                    count_nets(control_toggles, "ctl", ctl_nets)
            observed: Optional[int] = None
            if self.moore_output_mapping is not None:
                observed, moore_nets = self._moore_values(state_code)
                if collect_nets:
                    count_nets(moore_toggles, "moore", moore_nets)

            count_bits("in", self.fsm.num_inputs, input_bits)
            count_bits("addr", self.layout.addr_bits, addr)
            count_bits("en", 1, en)
            addresses.append(addr)
            enables.append(1 if en else 0)

            word_after = self._rom.clock(addr, bool(en))
            if en:
                enabled += 1
                next_code, out_field = self.layout.split_word(word_after)
            else:
                next_code, out_field = state_code, latched_out
            count_bits(
                "q",
                self.layout.data_bits,
                self.layout.make_word(next_code, out_field if self.layout.output_bits else 0),
            )

            if observed is None:
                observed = out_field
            outputs.append(observed)
            state_code = next_code
            latched_out = out_field
            states.append(self.encoding.decode(state_code))

        return RomTrace(
            num_cycles=len(stimulus),
            output_stream=outputs,
            state_stream=states,
            signal_toggles=signal_toggles,
            mux_toggles=mux_toggles,
            moore_toggles=moore_toggles,
            control_toggles=control_toggles,
            enabled_edges=enabled,
            address_stream=addresses,
            enable_stream=enables,
        )

    # ------------------------------------------------------------------
    # In-field functionality change (paper §4.2 / ECO path)
    # ------------------------------------------------------------------

    def rewrite_contents(self, new_fsm: FSM) -> None:
        """Reprogram the memory for ``new_fsm`` without re-synthesis.

        This is the paper's engineering-change path: "changes can be made
        quickly by re-writing the memory location ... much faster than
        going through the complete synthesis and placement and routing
        process."  The new machine must keep the interface and the
        structural envelope fixed (state set, inputs, outputs, and —
        when compaction is in use — each state's care-column set must
        stay within the existing multiplexer table), because only memory
        words change; the fabric is untouched.
        """
        if (
            new_fsm.num_inputs != self.fsm.num_inputs
            or new_fsm.num_outputs != self.fsm.num_outputs
        ):
            raise FsmError("ECO rewrite cannot change the FSM interface")
        if set(new_fsm.states) != set(self.fsm.states):
            raise FsmError("ECO rewrite cannot add or remove states")
        if new_fsm.reset_state != self.fsm.reset_state:
            raise FsmError("ECO rewrite cannot move the reset state")
        new_fsm.validate()
        if self.moore_output_mapping is not None:
            raise FsmError(
                "outputs are baked into fabric LUTs (Moore/Fig. 3); "
                "an ECO that changes outputs requires re-synthesis"
            )
        if self.clock_control is not None:
            raise FsmError(
                "the idle-detection logic is baked into fabric LUTs; "
                "rewrite the contents before adding clock control"
            )
        if self.compaction is not None:
            from repro.romfsm.compaction import compact_columns

            new_compaction = compact_columns(new_fsm)
            for state in new_fsm.states:
                old_cols = set(self.compaction.columns_for(state))
                if not set(new_compaction.columns_for(state)) <= old_cols:
                    raise FsmError(
                        f"state {state!r} now reads input columns outside "
                        f"the existing multiplexer table; re-synthesis needed"
                    )
            # Reuse the existing selector table: content generation only
            # needs each cube's care columns to be a subset of it.
            contents = generate_contents(
                new_fsm, self.encoding, self.layout, self.compaction
            )
        else:
            contents = generate_contents(new_fsm, self.encoding, self.layout)
        self.contents = contents
        self._rom.load(contents)
        self.fsm = new_fsm


def _replay_rom(
    rom_words: List[int],
    addrs: List[int],
    codes: List[int],
    ref_outs: List[int],
    output_bits: int,
    en_word: int,
    code_words: List[int],
) -> Optional[Tuple[int, Optional[int]]]:
    """Check an STG-derived trajectory against the programmed ROM words.

    Returns ``(enabled_edges, last_read_word)``, or ``None`` on the first
    disagreement (the caller then runs the per-cycle oracle).  The
    expected word for an enabled edge ``k`` is
    ``codes[k + 1] << output_bits | ref_outs[k]``, which equals the
    stored word exactly when both the next-state and output fields
    match.  ``code_words`` are the packed bit columns of ``codes``.
    """
    n = len(addrs)
    mask = (1 << n) - 1
    disabled = ~en_word & mask
    if not disabled:
        # Every edge enabled (always, without clock control): one list
        # compare, no per-cycle Python.
        expected = [
            (codes[k + 1] << output_bits) | ref_outs[k] for k in range(n)
        ]
        if [rom_words[a] for a in addrs] != expected:
            return None
        return n, (expected[-1] if n else None)
    # A disabled edge must hold the state: any state-bit change on a
    # disabled cycle contradicts the latch ...
    change = 0
    for w in code_words:
        change |= w ^ (w >> 1)
    if change & disabled:
        return None
    # ... and hold the latched output: bit k of (w ^ (w << 1)) is
    # ref_outs[k] ^ ref_outs[k-1] (with the k=0 latch reset to 0).
    for w in pack_bit_columns(ref_outs, output_bits):
        if (w ^ (w << 1)) & disabled:
            return None
    enabled = 0
    last: Optional[int] = None
    bits = en_word & mask
    while bits:
        low = bits & -bits
        bits ^= low
        k = low.bit_length() - 1
        word = rom_words[addrs[k]]
        if word != (codes[k + 1] << output_bits) | ref_outs[k]:
            return None
        enabled += 1
        last = word
    return enabled, last
