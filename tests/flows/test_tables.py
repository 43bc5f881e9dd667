"""Integration tests for the paper-table regeneration.

Uses a reduced cycle count to keep runtime reasonable, except for the
paper gate, which regenerates the committed tables at the paper inputs.
"""

from pathlib import Path

import pytest

from repro.bench.suite import PAPER_BENCHMARKS
from repro.flows.tables import run_all, table1, table2, table3, table4

CYCLES = 400


@pytest.fixture(scope="module")
def results():
    return run_all(num_cycles=CYCLES, seed=77, idle_fraction=0.5)


class TestTable1:
    def test_one_row_per_benchmark(self, results):
        table = table1(results)
        assert [row[0] for row in table.rows] == PAPER_BENCHMARKS

    def test_ff_side_uses_logic_rom_side_uses_brams(self, results):
        table = table1(results)
        for row in table.rows:
            name, ff_lut, ff_ff, ff_slice, emb_lut, emb_slice, emb_bram = row
            assert ff_lut > 0 and ff_ff > 0 and ff_slice > 0
            assert emb_bram >= 1
            assert emb_lut < ff_lut, f"{name}: EMB should use far fewer LUTs"

    def test_row_lookup(self, results):
        row = table1(results).row_for("dk14")
        assert row[0] == "dk14"
        with pytest.raises(KeyError):
            table1(results).row_for("nope")


class TestTable2:
    def test_savings_positive_for_all_benchmarks(self, results):
        """The paper's headline: the EMB approach always saves power."""
        table = table2(results)
        for row in table.rows:
            assert row[-1] > 0, f"{row[0]} shows no saving"

    def test_savings_within_extended_paper_band(self, results):
        """Paper band is 4-26%; we accept a slightly wider envelope
        (see EXPERIMENTS.md for the per-benchmark comparison)."""
        table = table2(results)
        savings = [row[-1] for row in table.rows]
        assert all(0 < s < 40 for s in savings)
        assert 5 < sum(savings) / len(savings) < 30

    def test_power_grows_with_frequency(self, results):
        table = table2(results)
        for row in table.rows:
            name, f50, f85, f100 = row[0], row[1], row[2], row[3]
            assert f50 < f85 < f100

    def test_formatted_text(self, results):
        text = table2(results).text
        assert "Table 2" in text
        assert "planet" in text


class TestTable3:
    def test_clock_control_recovers_more_power(self, results):
        """Table 3's savings must beat Table 2's on every circuit."""
        t2 = {row[0]: row[-1] for row in table2(results).rows}
        for row in table3(results).rows:
            name, cc_saving = row[0], row[4]
            assert cc_saving > t2[name], name

    def test_achieved_idle_reported(self, results):
        for row in table3(results).rows:
            assert 20.0 <= row[5] <= 70.0  # percent

    def test_cc_power_below_plain_rom(self, results):
        t2 = table2(results)
        t3 = table3(results)
        for name in PAPER_BENCHMARKS:
            rom_100 = t2.row_for(name)[6]
            cc_100 = t3.row_for(name)[3]
            assert cc_100 < rom_100, name


class TestTable4:
    def test_overhead_is_small(self, results):
        """Clock control costs a handful of LUTs, not a redesign."""
        for row in table4(results).rows:
            name, luts, slices = row
            assert 1 <= luts <= 60
            assert slices == -(-luts // 2)

    def test_all_tables_render(self, results):
        for table in (table1, table2, table3, table4):
            text = table(results).text
            assert len(text.splitlines()) >= 11  # title + header + 9 rows


RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"


def _non_blank_lines(text):
    return [line for line in text.splitlines() if line.strip()]


@pytest.fixture(scope="module")
def paper_results():
    """The paper inputs behind the committed ``results/`` tables."""
    return run_all(num_cycles=2000, seed=2004, backend="virtex2-bram")


class TestPaperGate:
    """Regenerated Tables 1-4 equal ``results/table1..4.txt`` byte for
    byte, apart from blank separator lines.  A deliberate change to the
    numbers updates ``results/`` (and EXPERIMENTS.md) alongside it."""

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_table_matches_committed_result(self, paper_results, index):
        table = (table1, table2, table3, table4)[index - 1](paper_results)
        committed = (RESULTS_DIR / f"table{index}.txt").read_text()
        assert _non_blank_lines(table.text) == _non_blank_lines(committed)
