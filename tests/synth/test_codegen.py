"""The compiled simulation engine must be invisible except for speed.

:mod:`repro.synth.codegen` compiles each LUT netlist into a
straight-line big-int function and memoises it in process;
:func:`simulate_ff_netlist` dispatches to it when the ``codegen``
engine is active.  These tests pin the contract: for every
machine/stimulus the codegen engine's trace equals the per-cycle
oracle's, compilation happens once per netlist structure, the fallback
counter stays at zero on the supported shapes, and engine selection
(env var, ``use_engine``) behaves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_fsm
from repro.fsm.simulate import random_stimulus
from repro.synth import codegen
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import (
    simulate_ff_netlist,
    simulate_ff_netlist_reference,
)
from repro.synth.wordsim import evaluate_mapping_words, pack_column
from tests.romfsm.test_equivalence_properties import _make_spec, spec_strategy

SETTINGS = settings(max_examples=10, deadline=None)


@pytest.fixture(autouse=True)
def fresh_codegen_state():
    codegen.clear_compilation_cache()
    codegen.reset_stats()
    codegen.reset_engine_notes()
    yield
    codegen.clear_compilation_cache()
    codegen.reset_stats()
    codegen.reset_engine_notes()


def assert_traces_equal(fast, ref):
    assert fast.num_cycles == ref.num_cycles
    assert fast.output_stream == ref.output_stream
    assert fast.state_stream == ref.state_stream
    assert fast.ff_output_toggles == ref.ff_output_toggles
    assert fast.net_toggles == ref.net_toggles


class TestCompiledMappingEquivalence:
    """compile_mapping(m)(W, mask) == evaluate_mapping_words(m, W, mask)."""

    @given(spec=spec_strategy(), seed=st.integers(0, 999),
           cycles=st.integers(0, 200))
    @SETTINGS
    def test_matches_interpreter_on_random_netlists(self, spec, seed, cycles):
        fsm = generate_fsm(spec)
        mapping = synthesize_ff(fsm).mapping
        rng_stim = random_stimulus(
            max(1, len(mapping.input_nets)), cycles, seed=seed
        )
        mask = (1 << cycles) - 1
        words = {
            net: pack_column([(s >> i) & 1 for s in rng_stim])
            for i, net in enumerate(mapping.input_nets)
        }
        compiled = codegen.compile_mapping(mapping)
        assert compiled(words, mask) == evaluate_mapping_words(
            mapping, words, mask
        )

    def test_source_is_deterministic(self):
        fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=3))
        mapping = synthesize_ff(fsm).mapping
        assert codegen.generate_source(mapping) == codegen.generate_source(
            mapping
        )
        assert codegen.mapping_fingerprint(
            mapping
        ) == codegen.mapping_fingerprint(mapping)

    def test_missing_input_word_raises_like_interpreter(self):
        fsm = generate_fsm(_make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=4))
        mapping = synthesize_ff(fsm).mapping
        compiled = codegen.compile_mapping(mapping)
        with pytest.raises(KeyError):
            compiled({}, 1)
        with pytest.raises(KeyError):
            evaluate_mapping_words(mapping, {}, 1)


class TestEngineDispatch:
    @pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
    def test_codegen_trace_equals_reference_across_widths(self, cycles):
        fsm = generate_fsm(_make_spec(7, 3, 2, 0, 2, 0.5, 0.3, False, seed=7))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
        with codegen.use_engine("codegen"):
            fast = simulate_ff_netlist(impl, stim)
        assert_traces_equal(fast, simulate_ff_netlist_reference(impl, stim))
        assert codegen.stats().fallbacks == 0

    @pytest.mark.parametrize("encoding", ["binary", "one-hot"])
    def test_codegen_trace_equals_reference_across_encodings(self, encoding):
        fsm = generate_fsm(_make_spec(8, 3, 3, 0, 2, 0.5, 0.35, True, seed=11))
        impl = synthesize_ff(fsm, encoding_style=encoding)
        stim = random_stimulus(fsm.num_inputs, 150, seed=1)
        with codegen.use_engine("codegen"):
            fast = simulate_ff_netlist(impl, stim)
        assert_traces_equal(fast, simulate_ff_netlist_reference(impl, stim))
        assert codegen.stats().fallbacks == 0

    def test_engines_agree_with_each_other(self):
        fsm = generate_fsm(_make_spec(9, 3, 3, 0, 2, 0.5, 0.35, False, seed=2))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, 180, seed=5)
        with codegen.use_engine("codegen"):
            fast = simulate_ff_netlist(impl, stim)
        with codegen.use_engine("interpreter"):
            slow = simulate_ff_netlist(impl, stim)
        assert_traces_equal(fast, slow)

    def test_compiles_once_then_memoises(self):
        fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=9))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, 80, seed=0)
        with codegen.use_engine("codegen"):
            simulate_ff_netlist(impl, stim)
            first = codegen.stats()
            simulate_ff_netlist(impl, stim)
            second = codegen.stats()
        assert first.compiles >= 1
        assert second.compiles == first.compiles
        assert second.memo_hits > first.memo_hits
        assert second.fallbacks == 0

    def test_interpreter_engine_counts_no_compiles(self):
        fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=9))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, 60, seed=0)
        with codegen.use_engine("interpreter"):
            simulate_ff_netlist(impl, stim)
        s = codegen.stats()
        assert s.compiles == 0
        assert s.interpreter_calls >= 1

    def test_engine_note_records_serving_engine(self):
        fsm = generate_fsm(_make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=1))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, 40, seed=0)
        with codegen.use_engine("codegen"):
            simulate_ff_netlist(impl, stim)
        assert codegen.engine_notes().get("ff") == "codegen"
        with codegen.use_engine("interpreter"):
            simulate_ff_netlist(impl, stim)
        assert codegen.engine_notes().get("ff") == "interpreter"


class TestEngineSelection:
    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv(codegen.ENGINE_ENV, "interpreter")
        assert codegen.current_engine() == "interpreter"
        monkeypatch.setenv(codegen.ENGINE_ENV, "codegen")
        assert codegen.current_engine() == "codegen"

    def test_bad_env_value_falls_back_to_codegen(self, monkeypatch):
        monkeypatch.setenv(codegen.ENGINE_ENV, "turbo")
        assert codegen.current_engine() == "codegen"

    def test_use_engine_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv(codegen.ENGINE_ENV, "interpreter")
        with codegen.use_engine("codegen"):
            assert codegen.current_engine() == "codegen"
        assert codegen.current_engine() == "interpreter"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with codegen.use_engine("turbo"):
                pass  # pragma: no cover


class TestNoPersistence:
    def test_compiling_never_fingerprints_or_touches_the_cache_dir(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        import repro.pipeline.artifact as artifact

        calls = []
        real = artifact.fingerprint
        monkeypatch.setattr(
            artifact, "fingerprint", lambda v: calls.append(v) or real(v)
        )

        fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=6))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, 70, seed=0)
        with codegen.use_engine("codegen"):
            first = simulate_ff_netlist(impl, stim)
            # A structurally identical netlist in a new object shares the
            # compilation through its source text.
            twin = synthesize_ff(fsm)
            second = simulate_ff_netlist(twin, stim)
        assert_traces_equal(first, second)
        s = codegen.stats()
        assert s.compiles == 1
        assert s.memo_hits >= 1
        assert s.fallbacks == 0
        assert calls == []
        assert not cache_dir.exists()
