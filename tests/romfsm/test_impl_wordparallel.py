"""Word-parallel ROM-FSM simulation must equal the per-cycle oracle.

:meth:`RomFsmImplementation.run` guesses the trajectory from the STG,
evaluates the mux/Moore/enable mappings as packed words and replays the
ROM against the guess; :meth:`run_reference` is the retained per-cycle
evaluator.  Every observable — output and state streams, top-level
signal toggles, internal net toggles of all three auxiliary mappings,
and the mutable BRAM statistics (clock edges, enabled edges, latched
output word) — must agree for every mapper configuration (plain,
column-compacted, clock-controlled, Moore or Mealy output placement).
Where the ROM words or the enable logic disagree with the STG, the fast
path must detect it and run the oracle.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_fsm
from repro.fsm.kiss import parse_kiss
from repro.fsm.simulate import idle_biased_stimulus, random_stimulus
from repro.logic.lutmap import GND_NET
from repro.romfsm.impl import RomFsmImplementation
from repro.romfsm.mapper import map_fsm_to_rom
from tests.romfsm.test_equivalence_properties import _make_spec, spec_strategy

SETTINGS = settings(max_examples=10, deadline=None)

CONFIGS = [
    dict(),
    dict(clock_control=True),
    dict(force_compaction=True),
    dict(clock_control=True, force_compaction=True),
    dict(moore_outputs="internal"),
    dict(moore_outputs="external", clock_control=True),
]


def assert_rom_traces_equal(fast, ref):
    assert fast.num_cycles == ref.num_cycles
    assert fast.output_stream == ref.output_stream
    assert fast.state_stream == ref.state_stream
    assert fast.signal_toggles == ref.signal_toggles
    assert fast.mux_toggles == ref.mux_toggles
    assert fast.moore_toggles == ref.moore_toggles
    assert fast.control_toggles == ref.control_toggles
    assert fast.enabled_edges == ref.enabled_edges


def run_both(fsm, stim, collect_nets=True, **mapper_kwargs):
    """Run fast path and oracle on *separate* instances (stats mutate)."""
    fast_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    ref_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    fast = fast_impl.run(stim, collect_nets=collect_nets)
    ref = ref_impl.run_reference(stim, collect_nets=collect_nets)
    assert_rom_traces_equal(fast, ref)
    assert fast_impl._rom.total_edges == ref_impl._rom.total_edges
    assert fast_impl._rom.enabled_edges == ref_impl._rom.enabled_edges
    assert fast_impl._rom.output == ref_impl._rom.output


@given(spec=spec_strategy(), seed=st.integers(0, 999),
       cycles=st.integers(0, 150))
@SETTINGS
def test_matches_reference_on_random_fsms(spec, seed, cycles):
    fsm = generate_fsm(spec)
    stim = random_stimulus(fsm.num_inputs, cycles, seed=seed)
    run_both(fsm, stim, clock_control=True)


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: "-".join(sorted(c)) or "plain")
@pytest.mark.parametrize("moore", [False, True])
def test_matches_reference_across_configs(config, moore):
    if config.get("moore_outputs") == "external" and not moore:
        pytest.skip("external output placement requires a Moore machine")
    fsm = generate_fsm(_make_spec(9, 3, 3, 0, 2, 0.5, 0.35, moore, seed=11))
    stim = random_stimulus(fsm.num_inputs, 120, seed=3)
    run_both(fsm, stim, **config)


@pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
def test_matches_reference_across_word_widths(cycles):
    fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.6, 0.4, False, seed=5))
    stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
    run_both(fsm, stim, clock_control=True)


def test_matches_reference_on_idle_biased_stimulus():
    # Idle-heavy traces exercise the enable/hold path of the replay.
    fsm = generate_fsm(_make_spec(8, 3, 2, 0, 2, 0.5, 0.6, False, seed=23))
    stim = idle_biased_stimulus(fsm, 150, idle_fraction=0.6, seed=4)
    run_both(fsm, stim, clock_control=True)


def test_matches_reference_without_net_collection():
    fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=9))
    stim = random_stimulus(fsm.num_inputs, 90, seed=1)
    run_both(fsm, stim, collect_nets=False, clock_control=True)


@pytest.mark.parametrize("clock_control", [False, True])
def test_rom_that_disagrees_with_its_stg_runs_the_oracle(
        clock_control, monkeypatch):
    fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=9))
    stim = random_stimulus(fsm.num_inputs, 90, seed=1)
    probe = map_fsm_to_rom(fsm, clock_control=clock_control).run(stim)
    read = [a for a, en in zip(probe.address_stream, probe.enable_stream)
            if en]
    fast_impl, ref_impl = (
        map_fsm_to_rom(fsm, clock_control=clock_control) for _ in range(2)
    )
    assert fast_impl.layout.output_bits
    for impl in (fast_impl, ref_impl):
        words = list(impl.contents)
        words[read[len(read) // 2]] ^= 1  # an output bit of a read word
        impl._rom.load(words)

    calls = []
    real = RomFsmImplementation.run_reference
    monkeypatch.setattr(RomFsmImplementation, "run_reference",
                        lambda self, *a, **k: calls.append(1) or real(
                            self, *a, **k))
    fast = fast_impl.run(stim)
    assert calls == [1]
    assert_rom_traces_equal(fast, real(ref_impl, stim))
    assert fast_impl._rom.output == ref_impl._rom.output


MOORE_FSM = generate_fsm(_make_spec(9, 3, 3, 0, 2, 0.5, 0.35, True, seed=11))
# Never leaves its reset state; only the output depends on the input.
SELF_LOOP_FSM = parse_kiss(".i 1\n.o 1\n.s 2\n.r a\n"
                           "0 a a 1\n1 a a 0\n- b a 0\n", name="selfloop")


@pytest.mark.parametrize("fsm,config", [
    pytest.param(MOORE_FSM, dict(clock_control=True), id="outputs_in_rom"),
    pytest.param(MOORE_FSM,
                 dict(clock_control=True, moore_outputs="external"),
                 id="moore_outputs"),
    pytest.param(SELF_LOOP_FSM, dict(clock_control=True), id="self_loop"),
])
def test_disabled_edges_must_hold_state_and_outputs(fsm, config):
    # EN stuck low: the hardware holds its state and output latch while
    # the STG walk moves on, so the replay must reject the walk.  With
    # external Moore outputs only the state check can; on the self-loop
    # machine only the output check can.
    stim = random_stimulus(fsm.num_inputs, 120, seed=3)

    def stuck(impl):
        cc = impl.clock_control
        outputs = dict(cc.mapping.outputs, en=GND_NET)
        mapping = dataclasses.replace(cc.mapping, outputs=outputs)
        return dataclasses.replace(
            impl, clock_control=dataclasses.replace(cc, mapping=mapping))

    fast_impl, ref_impl = (
        stuck(map_fsm_to_rom(fsm, **config)) for _ in range(2)
    )
    fast = fast_impl.run(stim)
    ref = ref_impl.run_reference(stim)
    assert set(ref.state_stream) == {fsm.reset_state}
    assert_rom_traces_equal(fast, ref)


def test_out_of_range_input_matches_reference_error():
    fsm = generate_fsm(_make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=2))
    fast_impl = map_fsm_to_rom(fsm)
    ref_impl = map_fsm_to_rom(fsm)
    stim = [1, 2, 1 << fsm.num_inputs, 0]
    with pytest.raises(ValueError):
        fast_impl.run(stim)
    with pytest.raises(ValueError):
        ref_impl.run_reference(stim)
    # Partial statistics up to the failing cycle must also agree.
    assert fast_impl._rom.total_edges == ref_impl._rom.total_edges
    assert fast_impl._rom.enabled_edges == ref_impl._rom.enabled_edges
