"""The FF netlist simulation must equal the per-cycle oracle.

:func:`simulate_ff_netlist` evaluates the LUT netlist as packed words
(:func:`repro.synth.wordsim.evaluate_mapping_words`) and verifies the
STG trajectory; :func:`simulate_ff_netlist_reference` is the oracle.
These cases pin the trace on a Mealy machine across word widths and on
a Moore machine under both state encodings.  The module keeps the name
it had when a compiled simulation engine existed, so the test ids stay
comparable across the history of the suite.
"""

import pytest

from repro.bench.generator import generate_fsm
from repro.fsm.simulate import random_stimulus
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import (
    simulate_ff_netlist,
    simulate_ff_netlist_reference,
)
from tests.romfsm.test_equivalence_properties import _make_spec


def assert_traces_equal(fast, ref):
    assert fast.num_cycles == ref.num_cycles
    assert fast.output_stream == ref.output_stream
    assert fast.state_stream == ref.state_stream
    assert fast.ff_output_toggles == ref.ff_output_toggles
    assert fast.net_toggles == ref.net_toggles


class TestEngineDispatch:
    @pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
    def test_codegen_trace_equals_reference_across_widths(self, cycles):
        fsm = generate_fsm(_make_spec(7, 3, 2, 0, 2, 0.5, 0.3, False, seed=7))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
        assert_traces_equal(simulate_ff_netlist(impl, stim),
                            simulate_ff_netlist_reference(impl, stim))

    @pytest.mark.parametrize("encoding", ["binary", "one-hot"])
    def test_codegen_trace_equals_reference_across_encodings(self, encoding):
        fsm = generate_fsm(_make_spec(8, 3, 3, 0, 2, 0.5, 0.35, True, seed=11))
        impl = synthesize_ff(fsm, encoding_style=encoding)
        stim = random_stimulus(fsm.num_inputs, 150, seed=1)
        assert_traces_equal(simulate_ff_netlist(impl, stim),
                            simulate_ff_netlist_reference(impl, stim))
