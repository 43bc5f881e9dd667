"""Incremental ECO flow: patch in place, never drift from from-scratch.

The paper's §4.2 selling point is absorbing a functional change by
rewriting ROM words.  ``eco_evaluate`` must (1) produce exactly the
tables a from-scratch mapping of the edited machine produces, (2) share
the cached ``parse``/``rom-map`` artifacts with ordinary evaluations so
a warm edit skips synthesis, (3) reject everything outside the rewrite
envelope with a typed :class:`EcoError`, and (4) under an injected
cache-fault storm degrade to recomputation — never serve a stale ROM
image.
"""

import pytest

from repro import faults
from repro.bench.suite import load_benchmark
from repro.faults import FaultPlan, FaultRule
from repro.flows.eco import EcoError, eco_evaluate
from repro.flows.flow import evaluate_benchmark_detailed
from repro.fsm.diff import apply_edits, diff_fsm
from repro.pipeline.cache import ArtifactCache
from repro.romfsm.mapper import map_fsm_to_rom

SMALL = dict(num_cycles=200, frequencies_mhz=(100.0,), seed=11)

# dk14: smallest suite member whose outputs live in ROM words (no Moore
# LUTs, no compaction), so both output and next-state edits absorb.
BENCH = "dk14"


def one_edit(fsm, retarget=True):
    """A single-transition ROM-only edit for ``fsm``."""
    t = fsm.transitions[0]
    if retarget:
        new_dst = next(s for s in fsm.states if s != t.dst)
        return [{"state": t.src, "input": str(t.inputs),
                 "next": new_dst, "outputs": t.outputs}]
    flipped = "".join("1" if c in "0-" else "0" for c in t.outputs)
    return [{"state": t.src, "input": str(t.inputs),
             "next": t.dst, "outputs": flipped}]


class TestPatchedTablesMatchFromScratch:
    @pytest.mark.parametrize("retarget", [True, False],
                             ids=["next-state", "outputs"])
    def test_contents_equal_fresh_mapping(self, retarget):
        fsm = load_benchmark(BENCH)
        edits = one_edit(fsm, retarget=retarget)
        result, _ = eco_evaluate(BENCH, edits=edits, cache=False, **SMALL)
        fresh = map_fsm_to_rom(apply_edits(fsm, edits))
        assert result.impl.contents == fresh.contents
        assert result.changed_words > 0
        assert result.total_words == len(fresh.contents)
        assert result.old_rom_fingerprint != result.new_rom_fingerprint

    @pytest.mark.parametrize("backend", ["virtex2-bram", "reram-1t1r"])
    def test_power_equals_full_evaluation_of_edited_machine(self, backend):
        fsm = load_benchmark(BENCH)
        edits = one_edit(fsm)
        result, _ = eco_evaluate(
            BENCH, edits=edits, cache=False, backend=backend, **SMALL
        )
        full, _ = evaluate_benchmark_detailed(
            apply_edits(fsm, edits), cache=False,
            with_clock_control=False, backend=backend, **SMALL
        )
        assert result.rom_power == full.rom_power
        assert result.rom_timing == full.rom_timing

    def test_whole_machine_form_equals_edit_script_form(self):
        fsm = load_benchmark(BENCH)
        edits = one_edit(fsm)
        by_edits, _ = eco_evaluate(BENCH, edits=edits, cache=False, **SMALL)
        by_fsm, _ = eco_evaluate(
            BENCH, new=apply_edits(fsm, edits), cache=False, **SMALL
        )
        assert by_edits.impl.contents == by_fsm.impl.contents
        assert by_edits.new_rom_fingerprint == by_fsm.new_rom_fingerprint


class TestCacheSharing:
    def test_warm_edit_reuses_evaluation_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        evaluate_benchmark_detailed(BENCH, cache=cache, **SMALL)
        _, report = eco_evaluate(
            BENCH, edits=one_edit(load_benchmark(BENCH)),
            cache=cache, **SMALL
        )
        hits = {r.stage: r.cache_hit for r in report.records}
        assert hits["parse"] and hits["rom-map"]
        assert not hits["eco-patch"]

    def test_identical_edit_is_a_full_cache_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        edits = one_edit(load_benchmark(BENCH))
        first, _ = eco_evaluate(BENCH, edits=edits, cache=cache, **SMALL)
        second, report = eco_evaluate(BENCH, edits=edits, cache=cache, **SMALL)
        assert all(r.cache_hit for r in report.records)
        assert second.impl.contents == first.impl.contents

    def test_patch_does_not_mutate_cached_rom_map(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        baseline, _ = evaluate_benchmark_detailed(BENCH, cache=cache, **SMALL)
        eco_evaluate(
            BENCH, edits=one_edit(load_benchmark(BENCH)),
            cache=cache, **SMALL
        )
        again, report = evaluate_benchmark_detailed(
            BENCH, cache=cache, **SMALL
        )
        hits = {r.stage: r.cache_hit for r in report.records}
        assert hits["rom-map"]
        assert again.rom_power == baseline.rom_power


class TestEnvelope:
    def test_requires_exactly_one_edit_form(self):
        fsm = load_benchmark(BENCH)
        with pytest.raises(EcoError):
            eco_evaluate(BENCH, cache=False, **SMALL)
        with pytest.raises(EcoError):
            eco_evaluate(
                BENCH, new=fsm, edits=one_edit(fsm), cache=False, **SMALL
            )

    def test_non_rom_only_edit_rejected(self):
        # Dropping a state changes the envelope: not ROM-only.
        fsm = load_benchmark(BENCH)
        victim = next(s for s in fsm.states if s != fsm.reset_state)
        kept = [t for t in fsm.transitions
                if t.src != victim and t.dst != victim]
        from repro.fsm import FSM

        smaller = FSM(
            name=fsm.name,
            num_inputs=fsm.num_inputs,
            num_outputs=fsm.num_outputs,
            states=[s for s in fsm.states if s != victim],
            reset_state=fsm.reset_state,
            transitions=kept,
        )
        assert not diff_fsm(fsm, smaller).rom_only
        with pytest.raises(EcoError) as info:
            eco_evaluate(BENCH, new=smaller, cache=False, **SMALL)
        assert "not ROM-only" in str(info.value)

    def test_moore_fabric_output_edit_rejected(self):
        # ex1 maps its Moore outputs into fabric LUTs; an output change
        # cannot be absorbed by rewriting words.
        fsm = load_benchmark("ex1")
        with pytest.raises(EcoError) as info:
            eco_evaluate(
                "ex1", edits=one_edit(fsm, retarget=False),
                cache=False, **SMALL
            )
        assert "cannot be absorbed" in str(info.value)

    def test_nondeterministic_edit_rejected(self):
        # dk14's s1 has a transition on cube 01-; adding a specialized
        # 011 with different behaviour makes the machine non-deterministic.
        # The full flow's validate() would refuse to map it, so the ECO
        # shortcut must refuse to patch it.
        edits = [{"state": "s1", "input": "011",
                  "next": "s3", "outputs": "00000"}]
        with pytest.raises(EcoError) as info:
            eco_evaluate(BENCH, edits=edits, cache=False, **SMALL)
        assert "non-deterministic" in str(info.value)

    def test_stale_fingerprint_rejected(self):
        fsm = load_benchmark(BENCH)
        with pytest.raises(EcoError) as info:
            eco_evaluate(
                BENCH, edits=one_edit(fsm), cache=False,
                old_fingerprint="0" * 64, **SMALL
            )
        assert "stale edit" in str(info.value)

    def test_matching_fingerprint_accepted(self):
        fsm = load_benchmark(BENCH)
        _, report = eco_evaluate(
            BENCH, edits=one_edit(fsm), cache=False, **SMALL
        )
        fp = {r.stage: r.fingerprint for r in report.records}["rom-map"]
        result, _ = eco_evaluate(
            BENCH, edits=one_edit(fsm), cache=False,
            old_fingerprint=fp, **SMALL
        )
        assert result.changed_words > 0


class TestChaos:
    @pytest.fixture(autouse=True)
    def no_ambient_plan(self):
        faults.uninstall()
        yield
        faults.uninstall()

    def test_faulted_cache_degrades_never_serves_stale_image(self, tmp_path):
        """Bit-flipped/truncated cache reads during an ECO patch must be
        absorbed by recomputation — the patched tables stay identical to
        the clean-run tables, never a corrupt or stale ROM image."""
        fsm = load_benchmark(BENCH)
        edits = one_edit(fsm)
        baseline, _ = eco_evaluate(BENCH, edits=edits, cache=False, **SMALL)

        cache = ArtifactCache(tmp_path / "cache")
        evaluate_benchmark_detailed(BENCH, cache=cache, **SMALL)
        plan = FaultPlan(
            [
                FaultRule(point="cache.get", kind="bitflip", probability=0.5),
                FaultRule(point="cache.get", kind="truncate", probability=0.5),
                FaultRule(point="cache.put", kind="oserror", probability=0.5),
            ],
            seed=7,
        )
        with faults.injected(plan):
            for _ in range(3):
                result, _ = eco_evaluate(
                    BENCH, edits=edits, cache=cache, **SMALL
                )
                assert result.impl.contents == baseline.impl.contents
                assert result.new_rom_fingerprint == (
                    baseline.new_rom_fingerprint
                )
                assert result.rom_power == baseline.rom_power
