"""The dense STG table must agree with ``FSM.step`` everywhere.

:meth:`FSM.stg_table` tabulates ``(next state, outputs)`` for every
state and input vector by filling cube minterms; ``FSM.step`` (a linear
cube scan) stays the oracle.  The stimulus digests pin the generators
that step the table to the streams the paper tables were produced from.
"""

import hashlib
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.bench.suite import clear_benchmark_memo, load_benchmark
from repro.flows.flow import evaluate_many
from repro.flows.tables import PAPER_BENCHMARKS
from repro.fsm import machine
from repro.fsm.machine import FSM, StgTable, Transition
from repro.fsm.simulate import (
    FsmSimulator,
    idle_biased_stimulus,
    random_stimulus,
)
from repro.logic.cube import Cube
from repro.pipeline.artifact import fingerprint

SETTINGS = settings(max_examples=25, deadline=None)


def spec_strategy(max_inputs=6):
    return st.builds(
        lambda states, inputs, outputs, care, bias, moore, seed: GeneratorSpec(
            name="tab",
            num_states=states,
            num_inputs=inputs,
            num_outputs=outputs,
            care_inputs=(min(care, inputs), min(care + 1, inputs)),
            self_loop_bias=bias,
            moore=moore,
            seed=seed,
        ),
        states=st.integers(1, 10),
        inputs=st.integers(0, max_inputs),
        outputs=st.integers(0, 4),
        care=st.integers(0, 3),
        bias=st.floats(0.0, 0.6),
        moore=st.booleans(),
        seed=st.integers(0, 10_000),
    )


def assert_matches_step(fsm: FSM, table: StgTable) -> None:
    index = {state: i for i, state in enumerate(fsm.states)}
    assert len(table.rows) == fsm.num_states
    for i, state in enumerate(fsm.states):
        for bits in range(1 << fsm.num_inputs):
            nxt, out = fsm.step(state, bits)
            assert table.rows[i][bits] == (index[nxt], out), (state, bits)


def drop_transitions(fsm: FSM, seed: int) -> FSM:
    """A copy missing about a third of the transitions (incomplete STG)."""
    rng = random.Random(seed)
    kept = [t for t in fsm.transitions if rng.random() > 0.35]
    return FSM(fsm.name, fsm.num_inputs, fsm.num_outputs, fsm.states,
               fsm.reset_state, kept)


class TestTableMatchesStep:
    @given(spec=spec_strategy())
    @SETTINGS
    def test_generated_machines(self, spec):
        fsm = generate_fsm(spec)
        table = fsm.stg_table()
        assert table.dense
        assert_matches_step(fsm, table)

    @given(spec=spec_strategy(), seed=st.integers(0, 999))
    @SETTINGS
    def test_incomplete_machines_hold_with_zero_outputs(self, spec, seed):
        fsm = drop_transitions(generate_fsm(spec), seed)
        assert_matches_step(fsm, fsm.stg_table())

    @given(spec=spec_strategy(), seed=st.integers(0, 999))
    @SETTINGS
    def test_overlapping_cubes_first_match_wins(self, spec, seed):
        fsm = generate_fsm(spec)
        rng = random.Random(seed)
        # Prepend wide cubes over existing ones: some benign (same
        # behaviour as what they shadow), some not; FSM.step takes the
        # first match either way.
        transitions = list(fsm.transitions)
        for t in list(transitions):
            if rng.random() < 0.3:
                wide = Cube.full(fsm.num_inputs)
                dst = t.dst if rng.random() < 0.5 else rng.choice(fsm.states)
                transitions.insert(
                    transitions.index(t),
                    Transition(t.src, dst, wide, t.outputs),
                )
        shadowed = FSM(fsm.name, fsm.num_inputs, fsm.num_outputs,
                       fsm.states, fsm.reset_state, transitions)
        assert_matches_step(shadowed, shadowed.stg_table())

    def test_benign_overlap(self):
        fsm = FSM("b", 2, 1, ["A", "B"], "A")
        fsm.add("A", "1-", "B", "1")
        fsm.add("A", "-1", "B", "1")  # overlaps 11 with the same behaviour
        fsm.add("B", "0-", "A", "-")
        assert fsm.is_deterministic()
        assert_matches_step(fsm, fsm.stg_table())
        assert fsm.stg_table().rows[1][0b11] == (1, 0)  # unspecified: hold

    def test_zero_input_machine(self):
        fsm = FSM("z", 0, 2, ["A", "B", "C"], "A")
        fsm.add("A", "", "B", "10")
        fsm.add("B", "", "C", "01")
        table = fsm.stg_table()
        assert table.dense
        assert [len(row) for row in table.rows] == [1, 1, 1]
        assert_matches_step(fsm, table)
        trace = FsmSimulator(fsm).run([0, 0, 0, 0])
        assert trace.states == ["A", "B", "C", "C", "C"]
        assert trace.outputs == [0b01, 0b10, 0, 0]

    @given(spec=spec_strategy(max_inputs=0))
    @settings(max_examples=5, deadline=None)
    def test_generated_zero_input_machines(self, spec):
        fsm = generate_fsm(spec)
        assert_matches_step(fsm, fsm.stg_table())


class TestOverLimitFallback:
    def test_too_many_inputs_steps_the_stg(self):
        n = machine.STG_TABLE_MAX_INPUTS + 1
        fsm = FSM("wide", n, 1, ["A", "B"], "A")
        fsm.add("A", "1" + "-" * (n - 1), "B", "1")
        fsm.add("B", "-" * (n - 1) + "0", "A", "0")
        table = fsm.stg_table()
        assert not table.dense
        rng = random.Random(0)
        for _ in range(500):
            bits = rng.randrange(1 << n)
            for i, state in enumerate(fsm.states):
                nxt, out = fsm.step(state, bits)
                assert table.rows[i][bits] == (fsm.state_index(nxt), out)
        stim = random_stimulus(n, 300, seed=4)
        trace = FsmSimulator(fsm).run(stim)
        state = fsm.reset_state
        for k, bits in enumerate(stim):
            state, out = fsm.step(state, bits)
            assert trace.states[k + 1] == state and trace.outputs[k] == out
        assert idle_biased_stimulus(fsm, 200, seed=1)  # steps, no table

    def test_entry_budget_applies(self, monkeypatch):
        fsm = generate_fsm(GeneratorSpec("budget", 6, 4, 2, (1, 2), seed=3))
        monkeypatch.setattr(machine, "STG_TABLE_MAX_ENTRIES",
                            fsm.num_states * 16 - 1)
        table = StgTable.build(fsm)
        assert not table.dense
        assert_matches_step(fsm, table)


class TestLifecycle:
    def test_built_once_and_reused(self):
        fsm = generate_fsm(GeneratorSpec("once", 5, 3, 2, (1, 2), seed=1))
        assert fsm.stg_table() is fsm.stg_table()

    def test_concurrent_first_use_builds_once(self, monkeypatch):
        fsm = generate_fsm(GeneratorSpec("race", 12, 8, 3, (2, 4), seed=8))
        built = []
        real = StgTable.build.__func__

        def counting(cls, machine_):
            built.append(machine_.name)
            return real(cls, machine_)

        monkeypatch.setattr(StgTable, "build", classmethod(counting))
        barrier = threading.Barrier(8)
        seen = []

        def worker():
            barrier.wait(timeout=10)
            seen.append(fsm.stg_table())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built == ["race"]
        assert len(seen) == 8 and all(t is seen[0] for t in seen)

    def test_add_transition_invalidates(self):
        fsm = FSM("grow", 1, 1, ["A", "B"], "A")
        fsm.add("A", "1", "B", "1")
        before = fsm.stg_table()
        assert before.rows[0][0] == (0, 0)  # unspecified: hold
        fsm.add("A", "0", "B", "0")
        after = fsm.stg_table()
        assert after is not before
        assert after.rows[0][0] == (1, 0)
        assert_matches_step(fsm, after)

    def test_one_build_per_machine_across_a_campaign(self, monkeypatch):
        """Stimulus, reference, FF and ROM simulation of one evaluation
        all share the parsed machine's single table."""
        clear_benchmark_memo()
        built = []
        real = StgTable.build.__func__

        def counting(cls, fsm):
            built.append(fsm.name)
            return real(cls, fsm)

        monkeypatch.setattr(StgTable, "build", classmethod(counting))
        try:
            evaluate_many(PAPER_BENCHMARKS, cache=False, num_cycles=100)
        finally:
            clear_benchmark_memo()
        assert sorted(built) == sorted(PAPER_BENCHMARKS)

    def test_walk_truncates_inputs_to_the_declared_width(self):
        fsm = generate_fsm(GeneratorSpec("mask", 4, 2, 1, (1, 2), seed=5))
        stim = random_stimulus(fsm.num_inputs, 50, seed=2)
        wide = [bits | (1 << 7) for bits in stim]
        assert fsm.stg_table().walk(wide) == fsm.stg_table().walk(stim)

    def test_simulator_keeps_out_of_range_error(self):
        fsm = FSM("r", 1, 1, ["A", "B"], "A")
        fsm.add("A", "1", "B", "1")
        sim = FsmSimulator(fsm)
        with pytest.raises(ValueError, match="out of range"):
            sim.run([1, 2])
        assert sim.state == "B"  # the cycles before the bad vector ran


class TestPickleAndFingerprintHygiene:
    def test_table_is_never_pickled_or_fingerprinted(self):
        fsm = load_benchmark("styr").copy()
        assert "_stg_table" not in vars(fsm)
        pickled, fp = pickle.dumps(fsm), fingerprint(fsm)
        fsm.stg_table()
        assert "_stg_table" in vars(fsm)
        assert pickle.dumps(fsm) == pickled
        assert fingerprint(fsm) == fp
        clone = pickle.loads(pickled)
        assert "_stg_table" not in vars(clone)
        assert clone.stg_table().rows == fsm.stg_table().rows


def _digest(stimulus):
    return hashlib.sha256(",".join(map(str, stimulus)).encode()).hexdigest()


# sha256 of the comma-joined stimulus at the paper inputs (2000 cycles,
# seed 2004, idle fraction 0.5), recorded from the cube-scanning
# generator before the table existed: (uniform, idle-biased).
PAPER_STIMULUS_DIGESTS = {
    "prep4": ("a406a3bd1c4ffbeaed64770697c035be1dbf180bc3f8c56d7cb992526dea83cd",
              "47d16bdaec2494d0aaf4ee8c27357f32fbe9ca0453c4cf232a90156418315e36"),
    "dk14": ("263531ccff0c4b1cfa6e0353383f1cff836258d6e13581fbf3545a1778d8a6b4",
             "26a248b0c53f6cd9c2683203aee1864fd9a810ee6889526404c6353e13b094b5"),
    "tbk": ("72e86c16ae6fc1a1caadd2807c786bbd531ed26bdf3e13787a355e9607e8c159",
            "c7d3f91dcc6cf226346a39f0a5389f6e19f6ff2879061b1990f264024851a25e"),
    "keyb": ("83058481f2c3b9b45ee0bf6a0701e46415d048cb41d331600fb996e470a68b2d",
             "1eaa3e7f83da4d6d4fe58282069b45ec402a180b52f2d9082ff3f694d41e3614"),
    "donfile": ("419fa1917d03f25bd8e6354201c9ca43eb728c75aecc767f254e79e9626153ab",
                "6fc9285c7cc72dd6bc90c8d8310617314d7914c5c3aba6b70136f6f6e8d50548"),
    "sand": ("7082e48244fc9a1dab9eebf326a1009b8d26367fbfd5ebd781345b6f853be598",
             "de6783a3f1ba827cabb35115e66d6039fcb365b6a643bf0ab4246a90ea8c8061"),
    "styr": ("a8f786d649cc398c203b93fcbea0df98a8c3b3ee7fa76d1d0d3370918a91eb68",
             "f1b5f430e16362c73ca74c8af2a725ab9bbf407701ddec11006980392689e622"),
    "ex1": ("a8f786d649cc398c203b93fcbea0df98a8c3b3ee7fa76d1d0d3370918a91eb68",
            "6b83bb325dd96bfc9339025a1350105820c9e0bdba8c76166270878e1c6c58ea"),
    "planet": ("83058481f2c3b9b45ee0bf6a0701e46415d048cb41d331600fb996e470a68b2d",
               "3f49fa28cdd61d46097f68d91e2ef37fc35582ca5a9629dad2abdabb0e7e4922"),
}


class TestPaperStimulus:
    def test_digests_cover_the_paper_benchmarks(self):
        assert sorted(PAPER_STIMULUS_DIGESTS) == sorted(PAPER_BENCHMARKS)

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_stimulus_digests(self, name):
        fsm = load_benchmark(name)
        uniform = random_stimulus(fsm.num_inputs, 2000, seed=2004)
        idle = idle_biased_stimulus(fsm, 2000, idle_fraction=0.5, seed=2004)
        assert (_digest(uniform), _digest(idle)) == PAPER_STIMULUS_DIGESTS[name]

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_table_matches_step(self, name):
        fsm = load_benchmark(name)
        assert_matches_step(fsm, fsm.stg_table())
