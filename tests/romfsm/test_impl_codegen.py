"""The ROM replay must equal the per-cycle oracle on both memory fabrics.

Same contract as ``test_impl_wordparallel``, crossed with the
``backend`` axis: :meth:`RomFsmImplementation.run` packs the
trajectory once and replays the ROM as packed words, and every
observable must stay identical to :meth:`run_reference` for every
mapper configuration, both memory fabrics, and word widths across the
packing edge cases.  The module and two of its tests keep the names
they had when a compiled replay engine existed, so their ids stay
comparable across the history of the suite.
"""

import pytest

import repro.synth.netsim as netsim
from repro.bench.generator import generate_fsm
from repro.bench.suite import load_benchmark
from repro.fsm.simulate import idle_biased_stimulus, random_stimulus
from repro.romfsm.impl import RomFsmImplementation
from repro.romfsm.mapper import map_fsm_to_rom
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import simulate_ff_netlist
from tests.romfsm.test_equivalence_properties import _make_spec
from tests.romfsm.test_impl_wordparallel import (
    CONFIGS,
    assert_rom_traces_equal,
)

BACKENDS = ["virtex2-bram", "reram-1t1r"]


def run_both_backend(fsm, stim, collect_nets=True, **mapper_kwargs):
    fast_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    ref_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    fast = fast_impl.run(stim, collect_nets=collect_nets)
    ref = ref_impl.run_reference(stim, collect_nets=collect_nets)
    assert_rom_traces_equal(fast, ref)
    assert fast_impl._rom.total_edges == ref_impl._rom.total_edges
    assert fast_impl._rom.enabled_edges == ref_impl._rom.enabled_edges
    assert fast_impl._rom.output == ref_impl._rom.output


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: "-".join(sorted(c)) or "plain")
@pytest.mark.parametrize("moore", [False, True])
def test_matches_reference_across_configs_and_backends(config, moore, backend):
    if config.get("moore_outputs") == "external" and not moore:
        pytest.skip("external output placement requires a Moore machine")
    fsm = generate_fsm(_make_spec(9, 3, 3, 0, 2, 0.5, 0.35, moore, seed=11))
    stim = random_stimulus(fsm.num_inputs, 120, seed=3)
    run_both_backend(fsm, stim, backend=backend, **config)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
def test_matches_reference_across_word_widths(cycles, backend):
    fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.6, 0.4, False, seed=5))
    stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
    run_both_backend(fsm, stim, clock_control=True, backend=backend)


def test_matches_reference_on_idle_biased_stimulus():
    fsm = generate_fsm(_make_spec(8, 3, 2, 0, 2, 0.5, 0.6, False, seed=23))
    stim = idle_biased_stimulus(fsm, 150, idle_fraction=0.6, seed=4)
    run_both_backend(fsm, stim, clock_control=True)


def test_out_of_range_input_raises_under_codegen():
    fsm = generate_fsm(_make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=2))
    fast_impl = map_fsm_to_rom(fsm)
    ref_impl = map_fsm_to_rom(fsm)
    stim = [1, 2, 1 << fsm.num_inputs, 0]
    with pytest.raises(ValueError):
        fast_impl.run(stim)
    with pytest.raises(ValueError):
        ref_impl.run_reference(stim)
    assert fast_impl._rom.total_edges == ref_impl._rom.total_edges
    assert fast_impl._rom.enabled_edges == ref_impl._rom.enabled_edges


@pytest.mark.parametrize("name", ["dk14", "donfile", "ex1", "keyb", "planet",
                                  "prep4", "sand", "styr", "tbk"])
def test_paper_benchmarks_never_fall_back(name, monkeypatch):
    # The per-cycle oracles are only a safety net: on every paper
    # benchmark the fast paths must verify their own trajectories.
    fsm = load_benchmark(name)
    stim = random_stimulus(fsm.num_inputs, 200, seed=9)
    ff = synthesize_ff(fsm)
    roms = [map_fsm_to_rom(fsm), map_fsm_to_rom(fsm, clock_control=True)]

    def oracle(*args, **kwargs):
        raise AssertionError(f"{name}: fast path fell back to the oracle")

    monkeypatch.setattr(netsim, "simulate_ff_netlist_reference", oracle)
    monkeypatch.setattr(RomFsmImplementation, "run_reference", oracle)
    trace = simulate_ff_netlist(ff, stim)
    rom_traces = [rom.run(stim) for rom in roms]
    monkeypatch.undo()

    ref = netsim.simulate_ff_netlist_reference(ff, stim)
    assert trace.output_stream == ref.output_stream
    assert trace.state_stream == ref.state_stream
    assert trace.net_toggles == ref.net_toggles
    for rom, fast in zip(roms, rom_traces):
        assert_rom_traces_equal(fast, rom.run_reference(stim))
