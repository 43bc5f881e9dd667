"""Unit tests for low-power state assignment."""

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.assign import (
    anneal_encoding,
    encoding_switching_cost,
    transition_weights,
)
from repro.fsm.encoding import binary_encoding
from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FSM, FsmError
from repro.fsm.simulate import FsmSimulator, random_stimulus
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import simulate_ff_netlist

DETECTOR = """
.i 1
.o 1
.r A
0 A B 0
1 A A 0
0 B B 0
1 B C 0
0 C D 0
1 C A 0
0 D B 0
1 D C 1
"""


class TestWeights:
    def test_self_loops_excluded(self):
        fsm = parse_kiss(DETECTOR, "det")
        weights = transition_weights(fsm)
        assert all(src != dst for src, dst in weights)

    def test_per_state_mass_normalised(self):
        fsm = parse_kiss(DETECTOR, "det")
        weights = transition_weights(fsm)
        # State A: one of its two equally-likely edges is a self-loop.
        assert weights[("A", "B")] == pytest.approx(0.5)
        # State D: both edges leave.
        assert weights[("D", "B")] + weights[("D", "C")] == pytest.approx(1.0)

    def test_wide_cubes_weigh_more(self):
        fsm = FSM("w", 2, 1, ["A", "B", "C"], "A")
        fsm.add("A", "1-", "B", "0")   # two minterms
        fsm.add("A", "01", "C", "0")   # one minterm
        fsm.add("A", "00", "A", "0")
        fsm.add("B", "--", "A", "0")
        fsm.add("C", "--", "A", "0")
        weights = transition_weights(fsm)
        assert weights[("A", "B")] > weights[("A", "C")]


class TestCost:
    def test_cost_counts_weighted_hamming(self):
        fsm = parse_kiss(DETECTOR, "det")
        weights = {("A", "B"): 1.0}
        enc = binary_encoding(fsm)
        diff = enc.encode("A") ^ enc.encode("B")
        assert encoding_switching_cost(enc, weights) == \
            pytest.approx(bin(diff).count("1"))


class TestAnneal:
    def test_never_worse_than_naive_binary(self):
        for name in ("dk14", "keyb", "tbk"):
            fsm = load_benchmark(name)
            weights = transition_weights(fsm)
            naive = encoding_switching_cost(binary_encoding(fsm), weights)
            annealed = encoding_switching_cost(
                anneal_encoding(fsm, seed=3), weights
            )
            assert annealed <= naive + 1e-9, name

    def test_reset_pinned_to_zero(self):
        fsm = load_benchmark("keyb")
        enc = anneal_encoding(fsm, seed=5)
        assert enc.encode(fsm.reset_state) == 0

    def test_injective_at_minimal_width(self):
        fsm = load_benchmark("planet")
        enc = anneal_encoding(fsm, iterations=500, seed=2)
        assert len(set(enc.codes.values())) == fsm.num_states
        assert enc.width == 6

    def test_deterministic_given_seed(self):
        fsm = load_benchmark("dk14")
        assert anneal_encoding(fsm, seed=7).codes == \
            anneal_encoding(fsm, seed=7).codes

    def test_ring_machine_gets_gray_like_cost(self):
        """On a pure 8-ring the optimum is one bit flip per step."""
        states = [f"r{i}" for i in range(8)]
        fsm = FSM("ring", 1, 1, states, "r0")
        for i, s in enumerate(states):
            fsm.add(s, "-", states[(i + 1) % 8], "0")
        weights = transition_weights(fsm)
        enc = anneal_encoding(fsm, iterations=8000, seed=1)
        assert encoding_switching_cost(enc, weights) <= 10.0  # optimum 8

    def test_single_state_machine(self):
        fsm = FSM("one", 1, 1, ["A"], "A")
        fsm.add("A", "-", "A", "0")
        enc = anneal_encoding(fsm)
        assert enc.encode("A") == 0

    def test_ff_flow_accepts_annealed_encoding(self):
        fsm = parse_kiss(DETECTOR, "det")
        enc = anneal_encoding(fsm, seed=1)
        impl = synthesize_ff(fsm, enc)
        stim = random_stimulus(1, 300, seed=6)
        trace = simulate_ff_netlist(impl, stim)
        assert trace.output_stream == FsmSimulator(fsm).run(stim).outputs

    def test_ff_flow_rejects_incomplete_encoding(self):
        fsm = parse_kiss(DETECTOR, "det")
        other = FSM("o", 1, 1, ["X", "Y"], "X")
        other.add("X", "-", "Y", "0")
        other.add("Y", "-", "X", "0")
        bad = anneal_encoding(other)
        with pytest.raises(FsmError):
            synthesize_ff(fsm, bad)

    def test_reduces_measured_state_toggles(self):
        """The point of the exercise: fewer register toggles at runtime."""
        fsm = load_benchmark("keyb")
        stim = random_stimulus(fsm.num_inputs, 500, seed=8)
        naive = simulate_ff_netlist(synthesize_ff(fsm, "binary"), stim)
        tuned = simulate_ff_netlist(
            synthesize_ff(fsm, anneal_encoding(fsm, seed=1)), stim
        )
        assert tuned.ff_output_toggles < naive.ff_output_toggles


class TestStrategyMemo:
    def test_memo_returns_the_shared_object(self):
        from repro.fsm.assign import make_strategy_encoding
        from repro.fsm.memo import clear_fsm_memo

        clear_fsm_memo()
        fsm = load_benchmark("dk14")
        first = make_strategy_encoding(fsm, "annealed@0")
        second = make_strategy_encoding(fsm, "annealed@0")
        assert first is second

    def test_memo_keyed_by_strategy_name(self):
        from repro.fsm.assign import make_strategy_encoding
        from repro.fsm.memo import clear_fsm_memo

        clear_fsm_memo()
        fsm = load_benchmark("dk14")
        binary = make_strategy_encoding(fsm, "binary")
        gray = make_strategy_encoding(fsm, "gray")
        assert binary is not gray
        assert binary.style != gray.style

    def test_memo_keyed_by_machine(self):
        from repro.fsm.assign import make_strategy_encoding
        from repro.fsm.memo import clear_fsm_memo
        from repro.fsm.kiss import parse_kiss

        clear_fsm_memo()
        a = load_benchmark("dk14")
        b = load_benchmark("donfile")
        assert (make_strategy_encoding(a, "binary")
                is not make_strategy_encoding(b, "binary"))

    def test_memo_hit_equals_fresh_computation(self):
        from repro.fsm.assign import make_strategy_encoding
        from repro.fsm.memo import clear_fsm_memo

        fsm = load_benchmark("dk14")
        clear_fsm_memo()
        first = make_strategy_encoding(fsm, "annealed@3")
        clear_fsm_memo()
        fresh = make_strategy_encoding(fsm, "annealed@3")
        assert first is not fresh
        assert first.codes == fresh.codes
        assert first.width == fresh.width

    def test_unknown_strategy_raises_typed_error(self):
        from repro.fsm.assign import make_strategy_encoding
        from repro.fsm.machine import FsmError

        with pytest.raises(FsmError):
            make_strategy_encoding(load_benchmark("dk14"), "mystery")
        with pytest.raises(FsmError):
            # Non-numeric seed suffix is not the parameterized family.
            make_strategy_encoding(load_benchmark("dk14"), "annealed@x")
