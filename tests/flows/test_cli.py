"""Unit tests for the command-line interface."""

import pytest

from repro.flows.cli import build_parser, main

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


@pytest.fixture
def kiss_file(tmp_path):
    path = tmp_path / "det.kiss2"
    path.write_text(DETECTOR)
    return str(path)


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["tables", "--cycles", "10"])
        assert args.cycles == 10
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_pipeline_options(self):
        args = build_parser().parse_args(
            ["tables", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--manifest", "m.json"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.manifest == "m.json"

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert args.action == "stats"
        args = build_parser().parse_args(
            ["cache", "clear", "--cache-dir", "/tmp/c"]
        )
        assert args.action == "clear"
        assert args.cache_dir == "/tmp/c"

    def test_map_options(self):
        args = build_parser().parse_args(
            ["map", "f.kiss2", "--clock-control", "--vhdl", "out.vhd"]
        )
        assert args.clock_control
        assert args.vhdl == "out.vhd"

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_options(self):
        args = build_parser().parse_args([
            "serve", "--port", "9100", "--jobs", "4", "--max-queue", "16",
            "--timeout", "30", "--executor", "thread",
        ])
        assert args.port == 9100
        assert args.jobs == 4
        assert args.max_queue == 16
        assert args.timeout == 30.0
        assert args.executor == "thread"

    def test_submit_options(self):
        args = build_parser().parse_args([
            "submit", "--benchmark", "dk14", "--port", "9100",
            "--freq", "50", "100",
        ])
        assert args.benchmark == "dk14"
        assert args.freq == [50.0, 100.0]
        assert args.file is None

    def test_log_level_flag(self):
        args = build_parser().parse_args(["--log-level", "debug", "bench-stats"])
        assert args.log_level == "debug"


class TestCommands:
    def test_bench_stats(self, capsys):
        assert main(["bench-stats"]) == 0
        out = capsys.readouterr().out
        assert "planet" in out
        assert "dc-density" in out

    def test_map_reports_resources(self, kiss_file, capsys):
        assert main(["map", kiss_file]) == 0
        out = capsys.readouterr().out
        assert "memory config" in out
        assert "backend       : virtex2-bram" in out
        assert "512x36" in out

    def test_map_writes_vhdl(self, kiss_file, tmp_path, capsys):
        target = str(tmp_path / "out.vhd")
        assert main(["map", kiss_file, "--vhdl", target]) == 0
        text = (tmp_path / "out.vhd").read_text()
        assert "entity det_romfsm is" in text

    def test_map_with_clock_control(self, kiss_file, capsys):
        assert main(["map", kiss_file, "--clock-control"]) == 0
        assert "clock control" in capsys.readouterr().out

    def test_eval_prints_power_table(self, kiss_file, capsys):
        assert main([
            "eval", kiss_file, "--cycles", "150", "--freq", "50", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "FF (mW)" in out
        assert "saving @ 100 MHz" in out
        assert "fmax" in out

    def test_eval_profile_prints_stage_table(self, kiss_file, capsys):
        assert main([
            "eval", kiss_file, "--cycles", "150", "--freq", "100",
            "--profile",
        ]) == 0
        out = capsys.readouterr().out
        # Stage table precedes the power table, one row per stage.
        assert out.index("seconds") < out.index("FF (mW)")
        for stage in ("parse", "ff-synth", "rom-map", "simulate",
                      "activity", "power", "total"):
            assert stage in out

    def test_eval_without_profile_omits_stage_table(self, kiss_file, capsys):
        assert main(["eval", kiss_file, "--cycles", "150"]) == 0
        assert "ff-synth" not in capsys.readouterr().out

    def test_blif_to_stdout(self, kiss_file, capsys):
        assert main(["blif", kiss_file]) == 0
        out = capsys.readouterr().out
        assert ".model det" in out
        assert ".latch" in out

    def test_blif_to_files(self, kiss_file, tmp_path, capsys):
        blif = str(tmp_path / "det.blif")
        vhdl = str(tmp_path / "det.vhd")
        assert main(["blif", kiss_file, "--out", blif, "--vhdl", vhdl]) == 0
        assert ".model det" in (tmp_path / "det.blif").read_text()
        assert "entity det_ff is" in (tmp_path / "det.vhd").read_text()

    def test_map_structural_vhdl(self, kiss_file, tmp_path, capsys):
        target = str(tmp_path / "out.vhd")
        assert main([
            "map", kiss_file, "--vhdl", target, "--structural",
        ]) == 0
        text = (tmp_path / "out.vhd").read_text()
        assert "RAMB16_S36" in text
        assert "structural RAMB16" in capsys.readouterr().out

    def test_dump_bench_writes_kiss_files(self, tmp_path, capsys):
        from repro.fsm.kiss import load_kiss_file

        assert main(["dump-bench", str(tmp_path / "suite")]) == 0
        dk14 = load_kiss_file(tmp_path / "suite" / "dk14.kiss2")
        assert dk14.num_states == 7
        planet = load_kiss_file(tmp_path / "suite" / "planet.kiss2")
        assert planet.num_states == 48

    def test_tables_written_to_directory(self, tmp_path, capsys):
        target = str(tmp_path / "tables")
        assert main([
            "tables", "--cycles", "60", "--seed", "1", "--out", target,
        ]) == 0
        for index in range(1, 5):
            text = (tmp_path / "tables" / f"table{index}.txt").read_text()
            assert f"Table {index}" in text

    def test_tables_with_jobs_cache_and_manifest(self, tmp_path, capsys):
        import json

        from repro.flows.tables import clear_results_memo

        clear_results_memo()
        manifest = tmp_path / "manifest.json"
        cache_dir = tmp_path / "cache"
        assert main([
            "tables", "--cycles", "60", "--seed", "2",
            "--jobs", "2", "--cache-dir", str(cache_dir),
            "--manifest", str(manifest),
        ]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "[pipeline]" in captured.err
        data = json.loads(manifest.read_text())
        assert data["jobs"] == 2
        assert data["items"] == 9
        assert data["cache_misses"] == data["stage_runs"]
        assert (cache_dir / "objects").is_dir()
        clear_results_memo()

    def test_eval_accepts_benchmark_name(self, capsys):
        assert main([
            "eval", "dk14", "--cycles", "100", "--freq", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "saving @ 100 MHz" in out
        assert "backend  : virtex2-bram" in out

    def test_eval_with_reram_backend(self, capsys):
        assert main([
            "eval", "dk14", "--cycles", "100", "--freq", "100",
            "--no-cache", "--backend", "reram-1t1r",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend  : reram-1t1r" in out
        assert "saving @ 100 MHz" in out

    def test_unknown_backend_is_one_line_exit_2(self, capsys):
        for argv in (
            ["eval", "dk14", "--backend", "nosuch"],
            ["map", "dk14", "--backend", "nosuch"],
            ["tables", "--backend", "nosuch"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(
                "romfsm: error: unknown backend 'nosuch'")
            assert "virtex2-bram" in captured.err
            assert len(captured.err.strip().splitlines()) == 1

    def test_backends_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "virtex2-bram" in out
        assert "reram-1t1r" in out
        assert "512x36" in out      # BRAM's widest ratio
        assert "512x32" in out      # ReRAM's widest ratio
        assert "non-volatile" in out

    def test_map_with_reram_backend(self, capsys):
        assert main(["map", "dk14", "--backend", "reram-1t1r"]) == 0
        out = capsys.readouterr().out
        assert "backend       : reram-1t1r" in out
        assert "memory config" in out

    def test_map_accepts_benchmark_name(self, capsys):
        assert main(["map", "dk14"]) == 0
        assert "memory config" in capsys.readouterr().out

    def test_no_cache_overrides_environment(
        self, kiss_file, tmp_path, capsys, monkeypatch
    ):
        env_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        assert main([
            "eval", kiss_file, "--cycles", "100", "--freq", "100",
            "--no-cache",
        ]) == 0
        assert not env_dir.exists()

    def test_eval_populates_cache(self, kiss_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "eval", kiss_file, "--cycles", "100", "--freq", "100",
            "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries    : 8" in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 8" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries    : 0" in capsys.readouterr().out


class TestFriendlyErrors:
    """User mistakes exit 2 with one ``romfsm: error:`` line, no traceback."""

    def _assert_one_line_error(self, capsys, needle):
        captured = capsys.readouterr()
        lines = [l for l in captured.err.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("romfsm: error:")
        assert needle in lines[0]
        assert "Traceback" not in captured.err

    def test_eval_unknown_benchmark(self, capsys):
        assert main(["eval", "nosuchbench"]) == 2
        self._assert_one_line_error(capsys, "nosuchbench")

    def test_map_unknown_benchmark(self, capsys):
        assert main(["map", "nosuchbench"]) == 2
        self._assert_one_line_error(capsys, "nosuchbench")

    def test_eval_unparseable_kiss(self, tmp_path, capsys):
        bad = tmp_path / "bad.kiss2"
        bad.write_text("this is not kiss2\n")
        assert main(["eval", str(bad)]) == 2
        self._assert_one_line_error(capsys, "cannot parse")

    def test_map_unparseable_kiss(self, tmp_path, capsys):
        bad = tmp_path / "bad.kiss2"
        bad.write_text(".i 1\n.o 1\nbroken line here\n")
        assert main(["map", str(bad)]) == 2
        self._assert_one_line_error(capsys, "cannot parse")

    def test_missing_file_lists_benchmarks(self, capsys):
        assert main(["eval", "missing.kiss2"]) == 2
        self._assert_one_line_error(capsys, "dk14")

    def test_submit_without_target(self, capsys):
        assert main(["submit"]) == 2
        self._assert_one_line_error(capsys, "--benchmark")

    def test_submit_unreachable_server(self, tmp_path, capsys):
        kiss = tmp_path / "x.kiss2"
        kiss.write_text(DETECTOR)
        assert main([
            "submit", str(kiss), "--port", "1", "--timeout", "2",
        ]) == 2
        self._assert_one_line_error(capsys, "unreachable")


class TestTuneCommand:
    def test_tune_options_registered(self):
        args = build_parser().parse_args(
            ["tune", "dk14", "--cycles", "96", "--seed", "7",
             "--jobs", "2", "--no-prune", "--out", "f.json"]
        )
        assert args.cycles == 96
        assert args.seed == 7
        assert args.jobs == 2
        assert args.no_prune
        assert args.out == "f.json"

    def test_tune_prints_frontier_and_writes_artifact(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        printed = capsys.readouterr().out
        assert "Pareto frontier" in printed
        assert "baseline (fixed heuristic)" in printed
        assert f"wrote {out}" in printed

        from repro.tune import load_frontier
        result = load_frontier(out)
        assert result.benchmark == "det"
        assert result.frontier

    def test_eval_tuned_applies_stored_config(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", kiss_file, "--cycles", "96", "--no-cache",
            "--tuned", out, "--profile",
        ]) == 0
        printed = capsys.readouterr().out
        # The provenance note names the artifact, the point index, and
        # the candidate fingerprint prefix.
        assert "[tuned] mapper config from" in printed
        assert out in printed
        assert "candidate " in printed

    def test_eval_tuned_without_profile_is_silent_about_provenance(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", kiss_file, "--cycles", "96", "--no-cache",
            "--tuned", out,
        ]) == 0
        assert "[tuned]" not in capsys.readouterr().out

    def test_eval_tuned_point_out_of_range(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", kiss_file, "--tuned", out, "--tuned-point", "99",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("romfsm: error:")
        assert "out of range" in err

    def test_eval_tuned_benchmark_mismatch(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", "dk14", "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main(["eval", kiss_file, "--tuned", out]) == 2
        err = capsys.readouterr().err
        assert "tuned for 'dk14'" in err

    def test_eval_tuned_missing_artifact(self, kiss_file, capsys):
        assert main([
            "eval", kiss_file, "--tuned", "nosuch.json",
        ]) == 2
        err = capsys.readouterr().err
        assert "no such frontier artifact" in err


def _stored(root):
    """Entry files a store holds on disk."""
    return sorted((root / "objects").rglob("*.pkl")) if root.exists() else []


class TestEnvironmentSettings:
    """Each ``REPRO_*`` variable still takes effect, read by ``romfsm``
    itself: the library below the CLI never looks at the environment."""

    @pytest.fixture
    def tier(self, tmp_path):
        from repro.cachenet.server import CacheServerHandle
        from repro.pipeline.cache import ArtifactCache

        handles = []

        def start(secret=None):
            handle = CacheServerHandle(
                ArtifactCache(tmp_path / f"tier-{len(handles)}"),
                secret=secret,
            )
            handles.append(handle)
            return handle

        yield start
        for handle in handles:
            handle.stop()

    @staticmethod
    def _eval(kiss_file, *extra):
        assert main(["eval", kiss_file, "--cycles", "60", "--freq", "100",
                     *extra]) == 0

    @staticmethod
    def _wait_for_entries(root, count, timeout_s=10.0):
        import time

        deadline = time.monotonic() + timeout_s
        while len(_stored(root)) < count and time.monotonic() < deadline:
            time.sleep(0.05)
        return len(_stored(root))

    @pytest.mark.parametrize("variable", [
        "REPRO_CACHE_DIR", "REPRO_CACHE_PEERS", "REPRO_CACHE_SECRET",
        "REPRO_FAULTS", "REPRO_LOG_LEVEL",
    ])
    def test_variable_takes_effect(
        self, variable, kiss_file, tmp_path, monkeypatch, capsys, tier
    ):
        from repro import faults

        local = tmp_path / "local"
        if variable == "REPRO_CACHE_DIR":
            monkeypatch.setenv(variable, str(local))
            self._eval(kiss_file)
            assert len(_stored(local)) == 8
        elif variable == "REPRO_CACHE_PEERS":
            backend = tier()
            monkeypatch.setenv(variable, backend.address)
            self._eval(kiss_file, "--cache-dir", str(local))
            assert self._wait_for_entries(backend.server.cache.root, 8) == 8
        elif variable == "REPRO_CACHE_SECRET":
            # An authenticated backend refuses every unsigned frame, so
            # entries arrive only if the secret reached the tier client.
            backend = tier(secret=b"tier-secret")
            monkeypatch.setenv("REPRO_CACHE_PEERS", backend.address)
            monkeypatch.setenv(variable, "tier-secret")
            self._eval(kiss_file, "--cache-dir", str(local))
            assert self._wait_for_entries(backend.server.cache.root, 8) == 8
        elif variable == "REPRO_FAULTS":
            plan = faults.FaultPlan([faults.FaultRule(
                point="cache.put", kind="disk_full")])
            monkeypatch.setenv(variable, plan.to_json())
            try:
                self._eval(kiss_file, "--cache-dir", str(local))
                assert faults.active_plan() is not None
            finally:
                faults.uninstall()
            # Every disk write failed: the store degraded to memory.
            assert _stored(local) == []
        else:
            import logging

            root = logging.getLogger("repro")
            previous = root.level
            monkeypatch.setenv(variable, "debug")
            try:
                assert main(["bench-stats"]) == 0
                assert root.level == logging.DEBUG
            finally:
                root.setLevel(previous)
        capsys.readouterr()


class TestSettingsBoundary:
    def test_only_the_cli_reads_the_environment(self):
        import re
        from pathlib import Path

        import repro

        package = Path(repro.__file__).parent
        pattern = re.compile(r"os\.environ|getenv")
        readers = sorted(
            str(path.relative_to(package))
            for path in package.rglob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))
        )
        assert readers == ["flows/cli.py"]
