"""ROM mappings read their contents and glue logic through the FSM memo.

A memoised product is built once per (STG, encoding, k) and shared by
every implementation that needs it, so a mapping served from a warm
memo must be indistinguishable from one whose products were built for
it, and rewriting one implementation's memory must not reach its
siblings or the memo.
"""

from itertools import groupby

import pytest

from repro.arch.memblock import resolve_backend
from repro.bench.suite import load_benchmark
from repro.flows.tables import PAPER_BENCHMARKS
from repro.fsm.diff import apply_edits
from repro.fsm.machine import FSM, FsmError
from repro.fsm.memo import clear_fsm_memo
from repro.fsm.simulate import FsmSimulator, random_stimulus
from repro.pipeline.artifact import fingerprint
from repro.romfsm.mapper import MappingError, map_fsm_to_rom
from repro.tune.space import baseline_candidate, default_space


def grid_fingerprints(fsm, candidates, backend):
    out = {}
    for candidate in candidates:
        try:
            impl = map_fsm_to_rom(fsm, **candidate.mapper_kwargs(),
                                  backend=backend)
        except (MappingError, FsmError) as exc:
            out[candidate] = type(exc).__name__
        else:
            out[candidate] = fingerprint(impl)
    return out


def product_group(candidate):
    """The knobs the memoised products can depend on (all but aspect)."""
    return (candidate.encoding, candidate.moore_outputs,
            candidate.force_compaction, candidate.clock_control,
            candidate.lut_k)


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_warm_memo_mappings_equal_freshly_built_ones(name):
    """Over the full default tune grid.  The warm pass shares one memo
    across the grid; the fresh pass clears it between groups of
    candidates that differ only in aspect ratio, so every product it
    serves was built for that group alone."""
    fsm = load_benchmark(name)
    backend = resolve_backend(None)
    candidates = [baseline_candidate()] + default_space(fsm, backend).enumerate()
    clear_fsm_memo()
    warm = grid_fingerprints(fsm, candidates, backend)
    fresh = {}
    for _, group in groupby(sorted(candidates, key=product_group),
                            key=product_group):
        clear_fsm_memo()
        fresh.update(grid_fingerprints(fsm, list(group), backend))
    assert warm == fresh


def test_rewrite_contents_leaves_siblings_and_the_memo_alone():
    fsm = load_benchmark("dk14")
    clear_fsm_memo()
    impl = map_fsm_to_rom(fsm)
    sibling = map_fsm_to_rom(fsm)
    assert impl.contents is sibling.contents  # one shared product
    original = list(sibling.contents)
    sibling_fp = fingerprint(sibling)

    t = fsm.transitions[0]
    new_dst = next(s for s in fsm.states if s != t.dst)
    edited = apply_edits(fsm, [{"state": t.src, "input": str(t.inputs),
                                "next": new_dst, "outputs": t.outputs}])
    impl.rewrite_contents(edited)

    assert impl.contents != original
    assert sibling.contents == original
    assert fingerprint(sibling) == sibling_fp
    stim = random_stimulus(fsm.num_inputs, 300, seed=5)
    assert sibling.run(stim).output_stream == FsmSimulator(fsm).run(stim).outputs
    assert map_fsm_to_rom(fsm).contents == original


def test_forced_compaction_that_saves_no_bits_has_its_own_contents():
    """Same layout with and without compaction: state A's one care
    column moves to compacted position 0, so the words differ."""
    fsm = FSM("shift", 2, 1, ["A", "B"], "A")
    fsm.add("A", "-1", "B", "1")
    fsm.add("A", "-0", "A", "0")
    fsm.add("B", "11", "A", "0")
    fsm.add("B", "0-", "B", "1")
    fsm.add("B", "10", "B", "0")
    clear_fsm_memo()
    raw = map_fsm_to_rom(fsm)
    forced = map_fsm_to_rom(fsm, force_compaction=True)
    assert forced.layout == raw.layout
    assert forced.contents != raw.contents
    clear_fsm_memo()
    assert fingerprint(map_fsm_to_rom(fsm, force_compaction=True)) == (
        fingerprint(forced))
