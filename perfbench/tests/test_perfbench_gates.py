"""Correctness gates reject tampered references; the environment scrub;
BENCHMARK.json in step with the metric catalogue."""

import json

import pytest

import benchlib
import gates
import metrics
import services

SIX = ("REPRO_CACHE_DIR", "REPRO_CACHE_PEERS", "REPRO_CACHE_SECRET",
       "REPRO_FAULTS", "REPRO_SIM_ENGINE", "REPRO_LOG_LEVEL")


class TestTablesGate:
    def test_reference_renders_and_matches_itself(self):
        reference = gates.expected_tables()
        rendered = "\n\n".join(
            (benchlib.RESULTS_DIR / f"table{i}.txt").read_text().rstrip("\n")
            for i in range(1, 5)) + "\n\n"
        assert gates.check_tables(rendered, reference) is None

    def test_tampered_reference_is_rejected(self):
        reference = gates.expected_tables()
        tampered = reference.replace("planet", "plenet", 1)
        assert tampered != reference
        reason = gates.check_tables(reference, tampered)
        assert reason and "planet" in reason

    def test_whitespace_inside_a_line_counts(self):
        reference = gates.expected_tables()
        line = next(line for line in reference.split("\n") if line.endswith(" "))
        tampered = reference.replace(line, line.rstrip(), 1)
        assert gates.check_tables(reference, tampered) is not None

    def test_missing_lines_are_rejected(self):
        reference = gates.expected_tables()
        assert gates.check_tables(reference.rsplit("\n", 3)[0], reference)


class TestTuneGate:
    def test_golden_matches_itself(self):
        golden = gates.TUNE_GOLDEN.read_text()
        assert gates.check_tune(golden, golden) is None

    def test_tampered_golden_is_rejected(self):
        golden = gates.TUNE_GOLDEN.read_text()
        data = json.loads(golden)
        data["baseline"]["fitness"]["luts"] += 1
        tampered = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert gates.check_tune(golden, tampered) is not None


PAYLOAD = {"name": "dk14", "power_mw": {"100.0": {"ff_mw": 1.5}},
           "rom": {"brams": 1}}


class TestReplyGates:
    def test_matching_reply_passes(self):
        reply = {"ok": True, "result": json.loads(json.dumps(PAYLOAD))}
        assert gates.check_reply(reply, gates.normalise(PAYLOAD)) is None

    def test_tampered_expected_payload_is_rejected(self):
        reply = {"ok": True, "result": gates.normalise(PAYLOAD)}
        tampered = gates.normalise(PAYLOAD)
        tampered["power_mw"]["100.0"]["ff_mw"] = 1.5000001
        assert gates.check_reply(reply, tampered) is not None

    def test_error_reply_is_rejected(self):
        reply = {"ok": False, "error": "timeout", "message": "slow"}
        assert "timeout" in gates.check_reply(reply, PAYLOAD)

    def test_campaign_items_checked_once_each(self):
        expected = [gates.normalise(PAYLOAD), {"name": "other"}]
        good = [{"campaign": True},
                {"item": 1, "ok": True, "result": {"name": "other"}},
                {"item": 0, "ok": True, "result": gates.normalise(PAYLOAD)},
                {"done": True}]
        assert gates.check_campaign(good, expected) == []
        tampered = [dict(expected[0]), {"name": "tampered"}]
        assert gates.check_campaign(good, tampered) == [
            "item 1: result differs from the in-process evaluation"]
        repeated = good[:2] + [good[1]]
        reasons = gates.check_campaign(repeated, expected)
        assert "item 1 unexpected or repeated" in reasons
        assert "item 0 missing" in reasons


class TestEnvironment:
    def test_scrub_drops_every_repro_variable(self):
        env = {name: "x" for name in SIX}
        env.update(REPRO_SOMETHING_NEW="1", PATH="/bin", HOME="/h")
        assert benchlib.scrub_env(env) == {"PATH": "/bin", "HOME": "/h"}

    def test_child_env_is_scrubbed_and_imports_the_checkout(self, monkeypatch):
        for name in SIX:
            monkeypatch.setenv(name, "leak")
        env = benchlib.child_env()
        assert not [k for k in env if k.startswith("REPRO_")]
        assert env["PYTHONPATH"] == str(benchlib.SRC_DIR)
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"

    def test_record_names_the_machine(self):
        record = benchlib.environment_record("codegen")
        assert set(record) == {"cores", "python", "platform", "sim_engine",
                               "commit"}
        assert record["cores"] >= 1


class TestInputs:
    def test_seed_draws_the_inputs(self):
        assert services.service_mix(3) == services.service_mix(3)
        assert services.service_mix(3) != services.service_mix(4)
        assert services.campaign_items(3) == services.campaign_items(3)
        assert services.campaign_items(3) != services.campaign_items(4)

    def test_items_are_distinct(self):
        for configs in (services.service_mix(5), services.campaign_items(5)):
            keys = {json.dumps(c, sort_keys=True) for c in configs}
            assert len(keys) == len(configs)

    def test_block_walls(self):
        done = [0.5 * i for i in range(1, 7)]  # 0.5 .. 3.0
        assert services.block_walls(done, 0.0, block=2) == [1.0, 1.0, 1.0]
        assert services.block_walls([0.4], 0.0, block=2) == [0.4]


class TestCatalogue:
    def test_benchmark_json_lists_the_catalogue(self):
        spec = json.loads((benchlib.REPO_ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
        assert [(m["name"], m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]] == [
            m[:4] for m in metrics.END_TO_END]
        assert [(m["name"], m["unit"], m["better"])
                for m in spec["per_layer"]] == [
            layer[:3] for layer in metrics.PER_LAYER]

    def test_paper_benchmarks_match_the_suite(self):
        from repro.bench.suite import PAPER_BENCHMARKS

        assert tuple(PAPER_BENCHMARKS) == metrics.PAPER_BENCHMARKS

    @pytest.mark.parametrize("name", sorted(metrics.WORKLOADS))
    def test_every_workload_declares_its_layers(self, name):
        assert metrics.EXERCISED[name]
