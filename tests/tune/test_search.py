"""Functional tests of the tuner search: frontier quality, pruning
exactness, dedupe, infeasibility handling, sidecar memoisation, the
machine searched, and replay."""

import contextlib

import pytest

import repro.tune.search as search_module
from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.fsm.kiss import format_kiss, parse_kiss
from repro.pipeline.artifact import fingerprint
from repro.romfsm.mapper import map_fsm_to_rom
from repro.tune import (
    TuneSpace,
    replay_point,
    tune_benchmark,
    tune_many,
)

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

# Small enough to run in seconds, rich enough to exercise every phase:
# 3 encodings x 2 compaction x 2 clock control = 12 candidates.
SPACE = TuneSpace()
SMALL = dict(space=SPACE, num_cycles=96, seed=7, jobs=1)


@contextlib.contextmanager
def _forbid(*names):
    """Make each named ``repro.tune.search`` binding raise when called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("this search must not map or evaluate")

    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            patch.setattr(search_module, name, forbidden)
        yield


class TestSearch:
    def test_best_power_never_worse_than_baseline(self):
        result = tune_benchmark("dk14", cache=False, **SMALL)
        assert result.best_power.power_mw <= result.baseline.power_mw
        assert result.best_power_saving_percent() >= 0.0

    def test_frontier_points_are_mutually_non_dominated(self):
        from repro.tune.frontier import dominates

        result = tune_benchmark("dk14", cache=False, **SMALL)
        for p in result.frontier:
            assert not any(
                dominates(q.objectives, p.objectives)
                for q in result.frontier if q is not p
            )

    def test_pruning_is_exact_versus_brute_force(self):
        pruned = tune_benchmark("dk14", cache=False, prune=True, **SMALL)
        brute = tune_benchmark("dk14", cache=False, prune=False, **SMALL)
        assert pruned.canonical_json() == brute.canonical_json()
        assert brute.stats["pruned"] == 0
        assert pruned.stats["evaluated"] <= brute.stats["evaluated"]

    def test_evaluated_plus_pruned_covers_every_structure(self):
        result = tune_benchmark("dk14", cache=False, **SMALL)
        s = result.stats
        assert s["evaluated"] + s["pruned"] == s["structures"]
        assert (s["structures"] + s["deduped"] + s["infeasible"]
                == s["candidates"] + 1)  # +1: the baseline candidate

    def test_pinning_the_heuristic_aspect_dedupes(self):
        fsm = parse_kiss(DETECTOR, "det")
        heuristic_aspect = map_fsm_to_rom(fsm).config.name
        space = TuneSpace(
            encodings=("binary",), clock_control=(False,),
            compaction=(False,), aspects=(None, heuristic_aspect),
        )
        result = tune_benchmark(
            fsm, space=space, cache=False, num_cycles=96, seed=7,
        )
        # aspect=None and the pinned heuristic aspect (and the baseline)
        # collapse onto one implementation.
        assert result.stats["deduped"] >= 2
        assert result.stats["structures"] == 1

    def test_infeasible_candidates_are_counted_not_fatal(self):
        fsm = parse_kiss(DETECTOR, "det")  # Mealy: external is illegal
        space = TuneSpace(moore_modes=("auto", "external"),
                          encodings=("binary",), clock_control=(False,),
                          compaction=(False,))
        result = tune_benchmark(
            fsm, space=space, cache=False, num_cycles=96, seed=7,
        )
        assert result.stats["infeasible"] >= 1
        assert result.frontier  # the feasible half still produced a front

    def test_ad_hoc_fsm_target(self):
        fsm = parse_kiss(DETECTOR, "det")
        result = tune_benchmark(fsm, cache=False, **SMALL)
        assert result.benchmark == "det"
        assert result.best_power.power_mw <= result.baseline.power_mw

    def test_tune_many_keyed_by_benchmark(self):
        results = tune_many(["dk14"], cache=False, **SMALL)
        assert list(results) == ["dk14"]


class TestSidecarMemos:
    def test_warm_search_runs_no_pipeline_stages(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = tune_benchmark("dk14", cache=cache, **SMALL)
        # Every bound answered from the tune-bounds sidecar (one entry
        # per grid candidate plus the baseline), every fitness from the
        # tune-point sidecar: zero mappings, zero pool dispatches.
        with _forbid("map_fsm_to_rom", "run_sharded"):
            warm = tune_benchmark("dk14", cache=cache, **SMALL)
        assert warm.canonical_json() == cold.canonical_json()
        s = warm.stats
        assert s["bounds_cache_hits"] == s["candidates"] + 1
        assert s["fitness_cache_hits"] == s["evaluated"]

    def test_infeasibility_marker_is_cached(self, tmp_path):
        fsm = parse_kiss(DETECTOR, "det")
        space = TuneSpace(moore_modes=("auto", "external"),
                          encodings=("binary",), clock_control=(False,),
                          compaction=(False,))
        cache = str(tmp_path / "cache")
        kwargs = dict(space=space, cache=cache, num_cycles=96, seed=7)
        cold = tune_benchmark(fsm, **kwargs)
        with _forbid("map_fsm_to_rom", "run_sharded"):
            warm = tune_benchmark(fsm, **kwargs)
        assert warm.canonical_json() == cold.canonical_json()
        assert warm.stats["infeasible"] == cold.stats["infeasible"] >= 1

    def test_collapsed_candidate_reuses_an_earlier_evaluation(self, tmp_path):
        # Pinning the aspect the heuristic picks maps onto the same
        # implementation as aspect=None: a later search over the pinned
        # candidate is answered from the point memo the first left.
        fsm = parse_kiss(DETECTOR, "det")
        pinned = map_fsm_to_rom(fsm, encoding="gray").config.name
        kwargs = dict(cache=str(tmp_path / "cache"), num_cycles=96, seed=7,
                      prune=False)
        first = tune_benchmark(fsm, space=TuneSpace(
            encodings=("gray",), clock_control=(False,), compaction=(False,),
        ), **kwargs)
        with _forbid("run_sharded"):
            second = tune_benchmark(fsm, space=TuneSpace(
                encodings=("gray",), clock_control=(False,),
                compaction=(False,), aspects=(pinned,),
            ), **kwargs)
        s = second.stats
        assert s["bounds_cache_hits"] == 1  # the baseline only
        assert s["evaluated"] == s["fitness_cache_hits"] == 2
        gray = {p.impl_fingerprint: p for p in first.frontier + [first.baseline]
                if p.candidate.encoding == "gray"}
        (point,) = [p for p in second.frontier + [second.baseline]
                    if p.candidate.encoding == "gray"]
        assert point.candidate.aspect == pinned
        assert point.fitness == gray[point.impl_fingerprint].fitness

    def test_cacheless_search_matches_cached_one(self, tmp_path):
        cached = tune_benchmark("dk14", cache=str(tmp_path / "c"), **SMALL)
        cacheless = tune_benchmark("dk14", cache=False, **SMALL)
        assert cached.canonical_json() == cacheless.canonical_json()


class TestReplay:
    def test_best_point_replays_bit_identically(self, tmp_path):
        cache = str(tmp_path / "cache")
        result = tune_benchmark("dk14", cache=cache, **SMALL)
        fresh = replay_point(result.best_power, "dk14", **result.settings)
        assert fresh == result.best_power.fitness

    def test_replay_from_written_artifact(self, tmp_path):
        from repro.tune import load_frontier

        result = tune_benchmark("dk14", cache=False, **SMALL)
        loaded = load_frontier(result.write(tmp_path / "frontier.json"))
        point = loaded.best_power
        fresh = replay_point(point, "dk14", **loaded.settings)
        assert fresh == point.fitness


class TestTargetMachine:
    """The tuner evaluates the FSM object it was given, not a re-parse
    of its KISS text (a round trip may renumber the states, which
    changes every encoding and so every implementation)."""

    def test_points_describe_the_callers_fsm(self):
        fsm = generate_fsm(GeneratorSpec(
            name="g3", num_states=12, num_inputs=5, num_outputs=3,
            care_inputs=(1, 3), seed=3,
        ))
        assert parse_kiss(format_kiss(fsm), "g3").states != fsm.states
        result = tune_benchmark(fsm, num_cycles=128, seed=7, cache=False)
        for p in [result.baseline] + result.frontier:
            impl = map_fsm_to_rom(fsm, **p.candidate.mapper_kwargs(),
                                  backend=result.backend)
            assert p.impl_fingerprint == fingerprint(impl)
            assert replay_point(p, fsm, **result.settings) == p.fitness
