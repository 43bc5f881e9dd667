"""Cycle-accurate simulation of the mapped FF netlist with per-net
switching statistics.

This is the ModelSim + ``.vcd`` stage of the paper's flow applied to the
FF baseline: the netlist is clocked through a stimulus and every net's
toggle count is recorded.  :mod:`repro.power.activity` converts the
counts into the switching activities the XPower-style estimator needs.

Two evaluators are provided.  :func:`simulate_ff_netlist` is
word-parallel: the state stream is derived first from the STG (cheap
table lookups), every combinational net is then evaluated over the whole
trace at once as one packed big-int word, and the derived state stream
is verified against the netlist's own next-state words — falling back to
the per-cycle oracle on any mismatch, so the result is always the
netlist's true behaviour.  :func:`simulate_ff_netlist_reference` is the
original one-call-per-cycle evaluator, kept as the reference oracle the
equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.synth import codegen
from repro.synth.ff_synth import FfImplementation
from repro.synth.wordsim import (
    pack_bit_column,
    popcount,
    transpose_words,
    word_toggles,
)

__all__ = ["NetlistTrace", "simulate_ff_netlist", "simulate_ff_netlist_reference"]


@dataclass
class NetlistTrace:
    """Result of simulating an FF netlist.

    Attributes
    ----------
    num_cycles:
        Clock cycles simulated.
    output_stream:
        Packed output bits per cycle (bit ``i`` = ``out{i}``).
    state_stream:
        Decoded state names (length ``num_cycles + 1``, reset first).
    net_toggles:
        Per-net 0<->1 transition counts over the run, covering every LUT
        output, every primary input, and the registered state bits.
    ff_output_toggles:
        Toggles of the state FF outputs only (clock-load accounting).
    """

    num_cycles: int
    output_stream: List[int]
    state_stream: List[str]
    net_toggles: Dict[str, int]
    ff_output_toggles: int

    def activity(self, net: str) -> float:
        """Average toggles per cycle for ``net`` (0.0 for unseen nets)."""
        if self.num_cycles == 0:
            return 0.0
        return self.net_toggles.get(net, 0) / self.num_cycles


def simulate_ff_netlist(
    impl: FfImplementation, stimulus: List[int]
) -> NetlistTrace:
    """Clock ``impl`` through ``stimulus`` from reset, counting toggles.

    The state register initializes to the reset state's code (the FPGA
    GSR behaviour); combinational nets settle once per cycle, which is
    the zero-delay model XPower's default (toggle-per-cycle) activity
    numbers correspond to.

    Word-parallel: the state trajectory comes from STG lookups, net
    values are computed for all cycles at once, and the trajectory is
    verified against the netlist's next-state words (bit-exact big-int
    compare).  A mismatch — a netlist that disagrees with its own STG —
    drops to :func:`simulate_ff_netlist_reference`.
    """
    num_cycles = len(stimulus)
    if num_cycles == 0:
        return simulate_ff_netlist_reference(impl, stimulus)

    if codegen.current_engine() == "codegen":
        try:
            trace = _simulate_ff_codegen(impl, stimulus)
        except Exception:
            codegen.count_fallback()
        else:
            if trace is not None:
                return trace
            codegen.note_engine("ff", "oracle-fallback")
            return simulate_ff_netlist_reference(impl, stimulus)

    fsm = impl.fsm
    encoding = impl.encoding
    width = encoding.width
    states, codes = _stg_trajectory(impl, stimulus)

    # Pack the input-net streams: state bits see codes[0..n-1] (the state
    # *during* each cycle), primary inputs see the stimulus columns.
    current_codes = codes[:num_cycles]
    input_words: Dict[str, int] = {}
    for i in range(width):
        input_words[encoding.bit_name(i)] = pack_bit_column(current_codes, i)
    for i in range(fsm.num_inputs):
        input_words[f"in{i}"] = pack_bit_column(stimulus, i)

    mask = (1 << num_cycles) - 1
    nets = codegen.evaluate_words(impl.mapping, input_words, mask, tag="ff")

    # Verify the STG-derived trajectory against the netlist's own
    # next-state outputs; by induction equality here means the per-cycle
    # simulation would visit exactly these states (and therefore compute
    # exactly these net values).
    out_nets = impl.mapping.outputs
    next_codes = codes[1:]
    for i in range(width):
        if nets[out_nets[f"ns{i}"]] != pack_bit_column(next_codes, i):
            codegen.note_engine("ff", "oracle-fallback")
            return simulate_ff_netlist_reference(impl, stimulus)

    output_words = [nets[out_nets[f"out{i}"]] for i in range(fsm.num_outputs)]
    outputs: List[int] = []
    for k in range(num_cycles):
        out = 0
        for i, word in enumerate(output_words):
            if word >> k & 1:
                out |= 1 << i
        outputs.append(out)

    net_toggles: Dict[str, int] = {}
    for name, word in nets.items():
        toggles = word_toggles(word, num_cycles)
        if toggles:
            net_toggles[name] = toggles

    ff_toggles = 0
    for i in range(width):
        ff_toggles += word_toggles(pack_bit_column(codes, i), num_cycles + 1)

    return NetlistTrace(
        num_cycles=num_cycles,
        output_stream=outputs,
        state_stream=states,
        net_toggles=net_toggles,
        ff_output_toggles=ff_toggles,
    )


def _stg_trajectory(
    impl: FfImplementation, stimulus: List[int]
) -> Tuple[List[str], List[int]]:
    """State names and codes along the STG trajectory, reset first.

    Walks the machine's :class:`~repro.fsm.machine.StgTable`, which
    truncates input vectors to the declared input count exactly as the
    netlist does.
    """
    fsm = impl.fsm
    encoding = impl.encoding
    indices, _ = fsm.stg_table().walk(stimulus)
    code_of = [encoding.encode(state) for state in fsm.states]
    return (
        [fsm.states[i] for i in indices],
        [code_of[i] for i in indices],
    )


def _simulate_ff_codegen(
    impl: FfImplementation, stimulus: List[int]
) -> "NetlistTrace | None":
    """The codegen-engine fast path (same contract, same results).

    Differences from the interpreter path are mechanical, not
    semantic: bit columns pack through
    :func:`repro.synth.codegen.pack_bit_columns`, the netlist is the
    compiled straight-line function, and the output stream is rebuilt
    with the sparse :func:`~repro.synth.wordsim.transpose_words`.
    Returns ``None`` when the netlist disagrees with the STG-derived
    trajectory (the caller then runs the per-cycle oracle) and raises
    on any internal failure (the caller then falls back to the
    interpreter engine and counts the fallback).
    """
    num_cycles = len(stimulus)
    fsm = impl.fsm
    encoding = impl.encoding
    width = encoding.width
    states, codes = _stg_trajectory(impl, stimulus)

    # One pack over all num_cycles + 1 samples per state bit: bits
    # 0..n-1 are the codes *during* each cycle, the word shifted right
    # by one gives the next-state column the verification needs.
    full_words = codegen.pack_bit_columns(codes, width)
    stim_words = codegen.pack_bit_columns(stimulus, fsm.num_inputs)

    mask = (1 << num_cycles) - 1
    input_words: Dict[str, int] = {
        encoding.bit_name(b): full_words[b] & mask for b in range(width)
    }
    for i in range(fsm.num_inputs):
        input_words[f"in{i}"] = stim_words[i]

    nets = codegen.evaluate_words(impl.mapping, input_words, mask, tag="ff")

    out_nets = impl.mapping.outputs
    for b in range(width):
        if nets[out_nets[f"ns{b}"]] != (full_words[b] >> 1) & mask:
            return None

    outputs = transpose_words(
        [nets[out_nets[f"out{i}"]] for i in range(fsm.num_outputs)],
        num_cycles,
    )

    net_toggles: Dict[str, int] = {}
    for name, word in nets.items():
        toggles = word_toggles(word, num_cycles)
        if toggles:
            net_toggles[name] = toggles

    ff_toggles = 0
    for word in full_words:
        ff_toggles += word_toggles(word, num_cycles + 1)

    return NetlistTrace(
        num_cycles=num_cycles,
        output_stream=outputs,
        state_stream=states,
        net_toggles=net_toggles,
        ff_output_toggles=ff_toggles,
    )


def simulate_ff_netlist_reference(
    impl: FfImplementation, stimulus: List[int]
) -> NetlistTrace:
    """Per-cycle reference evaluator (the oracle for equivalence tests)."""
    fsm = impl.fsm
    encoding = impl.encoding
    code = encoding.encode(fsm.reset_state)

    net_toggles: Dict[str, int] = {}
    prev_nets: Dict[str, int] = {}
    ff_toggles = 0
    outputs: List[int] = []
    states: List[str] = [fsm.reset_state]

    for input_bits in stimulus:
        values = impl.combinational_inputs(code, input_bits)
        nets = impl.mapping.evaluate_all_nets(values)
        for name, value in nets.items():
            prev = prev_nets.get(name)
            if prev is not None and prev != value:
                net_toggles[name] = net_toggles.get(name, 0) + 1
        prev_nets = nets

        out_nets = impl.mapping.outputs
        next_code = 0
        for i in range(encoding.width):
            if nets[out_nets[f"ns{i}"]]:
                next_code |= 1 << i
        out = 0
        for i in range(fsm.num_outputs):
            if nets[out_nets[f"out{i}"]]:
                out |= 1 << i
        ff_toggles += bin(code ^ next_code).count("1")
        code = next_code
        outputs.append(out)
        states.append(encoding.decode(code))

    return NetlistTrace(
        num_cycles=len(stimulus),
        output_stream=outputs,
        state_stream=states,
        net_toggles=net_toggles,
        ff_output_toggles=ff_toggles,
    )
