"""Unit tests for the fault-plan model and the runtime switchboard."""

import pytest

from repro import faults
from repro.faults import FaultInjected, FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def no_ambient_plan():
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(point="cache.get", kind="explode")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(point="cache.get", kind="oserror", probability=1.5)

    def test_dict_round_trip(self):
        rule = FaultRule(
            point="driver.worker", kind="kill", probability=0.25,
            max_fires=3, skip=2, match={"attempt": 0}, delay_s=0.5,
        )
        assert FaultRule.from_dict(rule.as_dict()) == rule

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-rule"):
            FaultRule.from_dict({"point": "x", "kind": "raise", "bogus": 1})


class TestFaultPlanFiring:
    def test_pattern_and_match_filtering(self):
        plan = FaultPlan(
            [FaultRule(point="cache.*", kind="truncate", match={"key": "k1"})]
        )
        assert plan.fire("driver.worker") is None
        assert plan.fire("cache.get", key="other") is None
        action = plan.fire("cache.put", key="k1")
        assert action is not None and action.kind == "truncate"

    def test_skip_and_max_fires(self):
        plan = FaultPlan(
            [FaultRule(point="p", kind="raise", skip=1, max_fires=2)]
        )
        fired = [plan.fire("p") is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_probability_is_deterministic_per_seed(self):
        def pattern(seed):
            plan = FaultPlan(
                [FaultRule(point="p", kind="raise", probability=0.5)],
                seed=seed,
            )
            return [plan.fire("p") is not None for _ in range(64)]

        first = pattern(7)
        assert pattern(7) == first          # same seed, same firing trace
        assert pattern(8) != first          # another seed, another trace
        assert 10 < sum(first) < 54         # roughly half fire

    def test_reset_replays_identically(self):
        plan = FaultPlan(
            [FaultRule(point="p", kind="raise", probability=0.3)], seed=3
        )
        first = [plan.fire("p") is not None for _ in range(32)]
        plan.reset()
        assert [plan.fire("p") is not None for _ in range(32)] == first

    def test_first_matching_rule_wins(self):
        plan = FaultPlan([
            FaultRule(point="cache.get", kind="truncate"),
            FaultRule(point="cache.*", kind="bitflip"),
        ])
        assert plan.fire("cache.get").kind == "truncate"
        assert plan.fire("cache.put").kind == "bitflip"


class TestSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                FaultRule(point="cache.get", kind="bitflip", probability=0.1),
                FaultRule(point="driver.worker", kind="kill",
                          match={"attempt": 0}),
            ],
            seed=42,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == 42
        assert clone.rules == plan.rules

    def test_from_spec_inline_and_file(self, tmp_path):
        text = '{"seed": 1, "rules": [{"point": "p", "kind": "stall"}]}'
        inline = FaultPlan.from_spec(text)
        path = tmp_path / "plan.json"
        path.write_text(text)
        from_file = FaultPlan.from_spec(str(path))
        assert inline.rules == from_file.rules
        assert inline.seed == from_file.seed == 1

    def test_from_spec_bad_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_spec("{broken")
        with pytest.raises(ValueError, match="cannot read"):
            FaultPlan.from_spec(str(tmp_path / "missing.json"))
        with pytest.raises(ValueError, match="unknown fault-plan"):
            FaultPlan.from_spec('{"seed": 0, "surprise": true}')


class TestRuntime:
    def test_no_plan_is_a_noop(self):
        assert faults.hit("cache.get", key="k") is None

    def test_injected_scopes_plan_and_env(self):
        plan = FaultPlan([FaultRule(point="p", kind="raise")])
        import os
        with faults.injected(plan):
            assert faults.active_plan() is plan
            # The plan reaches pool workers as an argument, never
            # through the environment.
            assert "REPRO_FAULTS" not in os.environ
            with pytest.raises(FaultInjected, match="injected fault at 'p'"):
                faults.hit("p")
        assert faults.active_plan() is None

    def test_env_activation(self, monkeypatch):
        # REPRO_FAULTS activates a plan through the romfsm CLI.
        from repro.flows.cli import _install_faults, build_parser

        plan = FaultPlan([FaultRule(point="p", kind="oserror")], seed=9)
        monkeypatch.setenv("REPRO_FAULTS", plan.to_json())
        _install_faults(build_parser().parse_args(["tables"]))
        active = faults.active_plan()
        assert active is not None and active.seed == 9
        with pytest.raises(OSError, match="injected I/O error"):
            faults.hit("p")

    def test_invalid_env_is_ignored(self, monkeypatch):
        # Below the CLI the environment is never read at all.
        monkeypatch.setenv("REPRO_FAULTS", "{nope")
        assert faults.active_plan() is None
        assert faults.hit("p") is None

    def test_adopt_reinstalls_only_on_change(self):
        plan = FaultPlan([FaultRule(point="p", kind="raise", max_fires=1)])
        spec = plan.to_json()
        faults.adopt(spec)
        held = faults.active_plan()
        with pytest.raises(FaultInjected):
            faults.hit("p")
        faults.adopt(spec)  # same plan: the fire counter carries on
        assert faults.active_plan() is held
        assert faults.hit("p") is None
        faults.adopt(FaultPlan([FaultRule(point="p", kind="raise")],
                               seed=1).to_json())
        assert faults.active_plan() is not held
        faults.adopt(None)
        assert faults.active_plan() is None

    def test_disk_full_errno(self):
        import errno
        plan = FaultPlan([FaultRule(point="p", kind="disk_full")])
        with faults.injected(plan):
            with pytest.raises(OSError) as info:
                faults.hit("p")
        assert info.value.errno == errno.ENOSPC

    def test_stall_sleeps_then_continues(self):
        import time
        plan = FaultPlan(
            [FaultRule(point="p", kind="stall", delay_s=0.05, max_fires=1)]
        )
        with faults.injected(plan):
            start = time.perf_counter()
            assert faults.hit("p") is None
            assert time.perf_counter() - start >= 0.04
            assert faults.hit("p") is None  # max_fires exhausted: no delay

    def test_corrupt_bytes_deterministic(self):
        from repro.faults import FaultAction, corrupt_bytes
        payload = bytes(range(32))
        truncated = corrupt_bytes(FaultAction("truncate", "p"), payload)
        assert truncated == payload[:16]
        flipped = corrupt_bytes(FaultAction("bitflip", "p"), payload)
        assert len(flipped) == len(payload)
        assert flipped != payload
        assert corrupt_bytes(FaultAction("bitflip", "p"), payload) == flipped
