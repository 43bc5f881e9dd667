"""Unit and property tests for the word-parallel evaluation primitives.

Every helper in :mod:`repro.synth.wordsim` has a trivially-correct
per-cycle formulation; these tests pin the packed big-int versions to
it, including :meth:`TruthTable.evaluate_word` against per-assignment
:meth:`TruthTable.evaluate` and :func:`evaluate_mapping_words` against
:meth:`LutMapping.evaluate_all_nets`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fsm.simulate import toggle_counts
from repro.logic.truthtable import TruthTable
from repro.synth.ff_synth import synthesize_ff
from repro.synth.wordsim import (
    evaluate_mapping_words,
    pack_bit_column,
    pack_bit_columns,
    pack_column,
    popcount,
    transpose_words,
    unpack_word,
    word_toggles,
)
from tests.romfsm.test_equivalence_properties import _make_spec
from repro.bench.generator import generate_fsm

SETTINGS = settings(max_examples=40, deadline=None)

bit_columns = st.lists(st.integers(0, 1), min_size=0, max_size=130)


class TestPacking:
    @given(column=bit_columns)
    @SETTINGS
    def test_pack_unpack_roundtrip(self, column):
        word = pack_column(column)
        assert unpack_word(word, len(column)) == column

    @given(column=st.lists(st.integers(0, 255), max_size=80),
           bit=st.integers(0, 7))
    @SETTINGS
    def test_pack_bit_column_matches_manual(self, column, bit):
        word = pack_bit_column(column, bit)
        assert unpack_word(word, len(column)) == [
            (v >> bit) & 1 for v in column
        ]

    @pytest.mark.parametrize("width", [0, 1, 7, 64, 70])
    @pytest.mark.parametrize("length", [0, 5, 64, 200])
    def test_pack_bit_columns_matches_per_bit_packing(self, width, length):
        # Covers the numpy path (>= 64 samples of <= 64 bits) and both
        # pure-Python fallbacks (short columns, samples wider than uint64).
        rng = random.Random(width * 1000 + length)
        column = [rng.getrandbits(width) for _ in range(length)]
        assert pack_bit_columns(column, width) == [
            pack_bit_column(column, b) for b in range(width)
        ]

    @given(column=st.lists(st.integers(0, 1023), max_size=64))
    @SETTINGS
    def test_transpose_words_inverts_bit_packing(self, column):
        bit_words = [pack_bit_column(column, i) for i in range(10)]
        assert transpose_words(bit_words, len(column)) == column

    @given(x=st.integers(min_value=0))
    @SETTINGS
    def test_popcount(self, x):
        assert popcount(x) == bin(x).count("1")


class TestWordToggles:
    @given(column=bit_columns)
    @SETTINGS
    def test_matches_per_cycle_toggle_counts(self, column):
        word = pack_column(column)
        assert word_toggles(word, len(column)) == toggle_counts(column)

    def test_degenerate_lengths(self):
        assert word_toggles(0, 0) == 0
        assert word_toggles(1, 1) == 0
        assert word_toggles(0b10, 2) == 1

    def test_ignores_bits_beyond_num_samples(self):
        # Stale high bits above the sample window must not count.
        assert word_toggles(0b111100, 3) == 1


class TestEvaluateWord:
    @given(n_inputs=st.integers(1, 4), bits=st.integers(0, 2 ** 16 - 1),
           seed=st.integers(0, 999), cycles=st.integers(1, 70))
    @SETTINGS
    def test_matches_per_assignment_evaluate(
        self, n_inputs, bits, seed, cycles
    ):
        table = TruthTable(n_inputs, bits & ((1 << (1 << n_inputs)) - 1))
        rng = random.Random(seed)
        columns = [
            [rng.randint(0, 1) for _ in range(cycles)]
            for _ in range(n_inputs)
        ]
        words = [pack_column(col) for col in columns]
        mask = (1 << cycles) - 1
        expected = pack_column([
            table.evaluate(
                sum(columns[i][k] << i for i in range(n_inputs))
            )
            for k in range(cycles)
        ])
        assert table.evaluate_word(words, mask) == expected


class TestEvaluateMappingWords:
    @given(seed=st.integers(0, 200), cycles=st.integers(1, 40))
    @SETTINGS
    def test_matches_evaluate_all_nets(self, seed, cycles):
        spec = _make_spec(5, 2, 2, 0, 2, 0.5, 0.2, False, seed)
        mapping = synthesize_ff(generate_fsm(spec)).mapping
        rng = random.Random(seed)
        per_cycle = [
            {name: rng.randint(0, 1) for name in mapping.input_nets}
            for _ in range(cycles)
        ]
        input_words = {
            name: pack_column([cyc[name] for cyc in per_cycle])
            for name in mapping.input_nets
        }
        mask = (1 << cycles) - 1
        words = evaluate_mapping_words(mapping, input_words, mask)
        for k, assignment in enumerate(per_cycle):
            nets = mapping.evaluate_all_nets(assignment)
            for name, value in nets.items():
                assert (words[name] >> k) & 1 == value, (name, k)

    def test_missing_input_word_raises(self):
        spec = _make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=4)
        mapping = synthesize_ff(generate_fsm(spec)).mapping
        with pytest.raises(KeyError):
            evaluate_mapping_words(mapping, {}, 1)
