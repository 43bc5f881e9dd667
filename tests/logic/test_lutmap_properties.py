"""Property-based tests: LUT mapping preserves function."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.cube import Cover, Cube
from repro.logic.lutmap import (
    _cone_truth_table,
    _enumerate_cuts,
    map_network,
    map_truth_tables,
)
from repro.logic.network import NodeKind, sop_to_network
from repro.logic.truthtable import TruthTable

N_VARS = 5
NAMES = [f"x{i}" for i in range(N_VARS)]


def cover_strategy(max_cubes=6):
    cube = st.text(alphabet="01-", min_size=N_VARS, max_size=N_VARS).map(
        Cube.from_string
    )
    return st.lists(cube, max_size=max_cubes).map(
        lambda cubes: Cover(N_VARS, cubes)
    )


def multi_output_strategy():
    return st.dictionaries(
        keys=st.sampled_from(["f", "g", "h"]),
        values=cover_strategy(),
        min_size=1,
        max_size=3,
    )


@given(multi_output_strategy(), st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=40, deadline=None)
def test_mapping_matches_network(covers, k):
    network = sop_to_network(covers, NAMES)
    mapping = map_network(network, k=k)
    for m in range(1 << N_VARS):
        values = {name: (m >> i) & 1 for i, name in enumerate(NAMES)}
        assert mapping.evaluate(values) == network.evaluate(values)


@given(multi_output_strategy())
@settings(max_examples=40, deadline=None)
def test_lut_arity_respected(covers):
    mapping = map_network(sop_to_network(covers, NAMES), k=4)
    for lut in mapping.luts:
        assert 1 <= len(lut.input_nets) <= 4


@given(multi_output_strategy())
@settings(max_examples=30, deadline=None)
def test_levels_consistent(covers):
    mapping = map_network(sop_to_network(covers, NAMES), k=4)
    level = {}
    for lut in mapping.luts:
        expected = 1 + max(
            (level.get(src, 0) for src in lut.input_nets), default=0
        )
        assert lut.level == expected
        level[lut.name] = lut.level


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
@settings(max_examples=40, deadline=None)
def test_shannon_mapper_matches_table(bits):
    table = TruthTable(5, bits)
    names = tuple(NAMES)
    mapping = map_truth_tables({"f": (names, table)}, k=4)
    for m in range(32):
        values = {name: (m >> i) & 1 for i, name in enumerate(NAMES)}
        assert mapping.evaluate(values)["f"] == table.evaluate(m)


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
@settings(max_examples=30, deadline=None)
def test_shannon_mapper_within_bound(bits):
    """A 5-input function costs at most 3 4-LUTs via Shannon."""
    table = TruthTable(5, bits)
    mapping = map_truth_tables({"f": (tuple(NAMES), table)}, k=4)
    assert mapping.num_luts <= 3


def _evaluate_cone(network, nid, leaf_values):
    """Oracle: one assignment at a time, recursively from the root."""
    if nid in leaf_values:
        return leaf_values[nid]
    node = network.node(nid)
    args = [_evaluate_cone(network, f, leaf_values) for f in node.fanins]
    return {
        NodeKind.CONST0: lambda: 0,
        NodeKind.CONST1: lambda: 1,
        NodeKind.NOT: lambda: args[0] ^ 1,
        NodeKind.AND: lambda: args[0] & args[1],
        NodeKind.OR: lambda: args[0] | args[1],
        NodeKind.XOR: lambda: args[0] ^ args[1],
    }[node.kind]()


@given(multi_output_strategy(), st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=30, deadline=None)
def test_bit_parallel_cone_tables_match_per_assignment_evaluation(covers, k):
    network = sop_to_network(covers, NAMES)
    ins = network.inputs
    network.set_output("x", network.xor_(ins["x0"], network.not_(ins["x1"])))
    for nid, cuts in _enumerate_cuts(network, k, 12).items():
        for cut in cuts:
            leaves = sorted(cut)
            table = _cone_truth_table(network, nid, leaves)
            for a in range(1 << len(leaves)):
                values = {leaf: (a >> i) & 1 for i, leaf in enumerate(leaves)}
                assert table.evaluate(a) == _evaluate_cone(network, nid, values)
