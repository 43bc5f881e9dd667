"""Fingerprints are computed only where something reads them.

A run without a cache keys nothing, so it must take no content
fingerprint at all; the consumers that do read one (tune's structural
dedupe, ECO's ``rom-map``/``eco-patch`` identities, a record's
``fingerprint``) must see exactly the value a cached run produces.
"""

import pickle

import pytest

import repro.pipeline.artifact as artifact_module
import repro.pipeline.stage as stage_module
from repro.bench.suite import load_benchmark
from repro.flows.eco import eco_evaluate
from repro.flows.flow import evaluate_benchmark_detailed
from repro.pipeline.artifact import Artifact, fingerprint
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.pipeline import StageRecord
from repro.tune.fitness import build_tune_pipeline, tune_config
from tests.flows.test_eco import BENCH, SMALL, one_edit

KW = dict(num_cycles=150, seed=11)


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Count every call of the artifact fingerprint walker."""
    calls = []
    real = artifact_module.fingerprint

    def counting(value):
        calls.append(type(value).__name__)
        return real(value)

    monkeypatch.setattr(artifact_module, "fingerprint", counting)
    monkeypatch.setattr(stage_module, "fingerprint", counting)
    return calls


class TestUncachedRunTakesNoFingerprint:
    def test_evaluation_without_cache(self, fingerprint_calls):
        result, report = evaluate_benchmark_detailed("dk14", cache=False, **KW)
        assert result.rom_power
        assert fingerprint_calls == []
        assert all(r.key is None for r in report.records)

    def test_reading_a_record_fingerprint_computes_it(self, fingerprint_calls):
        _, report = evaluate_benchmark_detailed("dk14", cache=False, **KW)
        parse = report.records[0]
        assert parse.stage == "parse"
        assert len(parse.fingerprint) == 64
        assert fingerprint_calls == ["FSM"]
        parse.fingerprint  # memoised
        assert fingerprint_calls == ["FSM"]


class TestConsumersSeeCachedValues:
    def test_stage_fingerprints_match_cached_run(self, tmp_path):
        _, plain = evaluate_benchmark_detailed("dk14", cache=False, **KW)
        _, cached = evaluate_benchmark_detailed(
            "dk14", cache=ArtifactCache(tmp_path), **KW
        )
        assert [r.fingerprint for r in plain.records] == \
            [r.fingerprint for r in cached.records]
        assert all(r.key for r in cached.records)

    def test_tune_map_fingerprint(self, tmp_path):
        config = tune_config(("dk14", None), {"clock_control": True},
                             "virtex2-bram", num_cycles=100)
        plain = build_tune_pipeline().run(config)
        cold = build_tune_pipeline().run(config, cache=ArtifactCache(tmp_path))
        warm = build_tune_pipeline().run(config, cache=ArtifactCache(tmp_path))
        fp = plain.artifacts["tune-map"].fingerprint
        assert fp == fingerprint(plain.value("tune-map"))
        assert fp == cold.artifacts["tune-map"].fingerprint
        assert fp == warm.artifacts["tune-map"].fingerprint
        assert warm.report.hits == 3

    def test_eco_fingerprints(self, tmp_path):
        edits = one_edit(load_benchmark(BENCH))
        plain, _ = eco_evaluate(BENCH, edits=edits, cache=False, **SMALL)
        cache = ArtifactCache(tmp_path)
        cold, _ = eco_evaluate(BENCH, edits=edits, cache=cache, **SMALL)
        warm, report = eco_evaluate(BENCH, edits=edits, cache=cache, **SMALL)
        assert report.misses == 0
        for result in (cold, warm):
            assert result.old_rom_fingerprint == plain.old_rom_fingerprint
            assert result.new_rom_fingerprint == plain.new_rom_fingerprint


class TestLazyValues:
    def test_artifact_fingerprint_is_computed_once(self, fingerprint_calls):
        art = Artifact([1, 2, 3])
        assert fingerprint_calls == []
        assert art.fingerprint == art.fingerprint
        assert len(fingerprint_calls) == 1

    def test_given_fingerprint_is_trusted(self, fingerprint_calls):
        assert Artifact("v", "f" * 64).fingerprint == "f" * 64
        assert fingerprint_calls == []

    def test_pickled_record_carries_its_fingerprint(self):
        record = StageRecord("parse", "1", None, False, 0.5, Artifact([4]))
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.fingerprint == fingerprint([4])
