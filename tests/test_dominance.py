from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcycle import (
    Allocation,
    Partition,
    SpaceTooLargeError,
    analyze,
    build_graph,
    counter_strategy,
    matchup_table,
)
from capcycle.dominance import (
    _margins,
    _row_bitmasks,
    best_counters,
    find_three_cycles,
    strongly_connected_components,
    undominated,
)
from capcycle.matchups import SeriesOutcome, series_outcome

from . import _oracles

# Frozen from the naive oracle at budget 6, k 3 (node indices follow
# enumerate_partitions order: 600, 510, 420, 411, 330, 321, 222).
NODES_6_3 = [(6, 0, 0), (5, 1, 0), (4, 2, 0), (4, 1, 1), (3, 3, 0), (3, 2, 1), (2, 2, 2)]
EDGES_6_3 = [
    (1, 0, 1),
    (2, 0, 1),
    (3, 0, 3),
    (3, 1, 1),
    (3, 4, 1),
    (4, 0, 1),
    (4, 5, 1),
    (4, 6, 3),
    (5, 0, 3),
    (5, 1, 2),
    (5, 3, 1),
    (6, 0, 3),
    (6, 1, 3),
    (6, 3, 3),
]
DRAWS_6_3 = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6), (5, 6)]
CYCLES_6_3 = [
    ((2, 2, 2), (4, 1, 1), (3, 3, 0)),
    ((3, 2, 1), (4, 1, 1), (3, 3, 0)),
]

small_spaces = st.tuples(
    st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=4)
)


def bitmask_oracle(graph):
    """The oracle's bitmask walk over the strict edges of ``graph``."""
    return _oracles.bitmask_three_cycles(
        _row_bitmasks(graph.beats), _row_bitmasks(graph.beats.T)
    )


def assert_blocks_match_bitmask_oracle(graph):
    """index_blocks, concatenated, is the oracle's bitmask walk; compared one
    block at a time so large spaces stay small in memory."""
    oracle = bitmask_oracle(graph)
    for block in find_three_cycles(graph).index_blocks():
        assert block.dtype == np.int32 and block.shape[1:] == (3,)
        assert len(block) and (block[:, 0] == block[0, 0]).all()
        assert block.tolist() == [list(t) for t in islice(oracle, len(block))]
    assert next(oracle, None) is None


@pytest.fixture(scope="module")
def graph_6_3():
    return build_graph(6, 3)


class TestBuildGraph:
    def test_frozen_nodes(self, graph_6_3):
        assert [p.values for p in graph_6_3.nodes] == NODES_6_3
        assert graph_6_3.budget == 6
        assert graph_6_3.k == 3

    def test_frozen_edges(self, graph_6_3):
        assert sorted(graph_6_3.edges) == EDGES_6_3

    def test_edges_emitted_in_sorted_order(self, graph_6_3):
        assert list(graph_6_3.edges) == sorted(graph_6_3.edges)

    def test_frozen_draws(self, graph_6_3):
        assert list(graph_6_3.draw_pairs) == DRAWS_6_3

    @given(small_spaces)
    def test_matches_oracle(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        nodes = [p.values for p in graph.nodes]
        oracle_edges, oracle_draws = _oracles.graph_relations(nodes)
        assert nodes == _oracles.partitions(budget, k)
        assert sorted(graph.edges) == sorted(oracle_edges)
        assert sorted(graph.draw_pairs) == sorted(oracle_draws)

    @given(small_spaces)
    def test_every_pair_classified_once(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        n = len(graph.nodes)
        seen = set()
        for w, l, _ in graph.edges:
            seen.add((min(w, l), max(w, l)))
        for i, j in graph.draw_pairs:
            assert i < j
            seen.add((i, j))
        expected = {(i, j) for i in range(n) for j in range(i + 1, n)}
        assert seen == expected
        assert len(graph.edges) + len(graph.draw_pairs) == n * (n - 1) // 2

    @given(small_spaces)
    def test_edge_soundness(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        for w, l, m in graph.edges:
            t = matchup_table(graph.nodes[w], graph.nodes[l])
            assert m == t.wins_a - t.wins_b > 0

    def test_space_guard(self):
        with pytest.raises(SpaceTooLargeError):
            build_graph(6, 3, limit=3)

    def test_determinism(self, graph_6_3):
        again = build_graph(6, 3)
        assert again == graph_6_3


def assert_blocks_concatenate(graph, rows):
    """pair_blocks, concatenated, lists the strict edges and the draws of the
    whole matrix in order, with no block over max(rows, n - 1) pairs.
    Returns the block sizes, strict then draw."""
    n = len(graph.nodes)
    wholes = (np.nonzero(graph.beats), np.nonzero(np.triu(graph.margin == 0, 1)))
    sizes = []
    for strict, whole in zip((True, False), wholes):
        blocks = list(graph.pair_blocks(strict, rows))
        assert len(blocks) == -(-n // max(1, rows // n))
        sizes.append([len(first) for first, _ in blocks])
        assert max(sizes[-1]) <= max(rows, n - 1)
        for got, want in zip(zip(*blocks), whole):
            assert np.concatenate(got).tolist() == want.tolist()
    return sizes


# Pairs asked per block, as a function of the node count n.
BLOCK_ROWS = {
    "1": lambda n: 1,
    "2": lambda n: 2,
    "n - 1": lambda n: n - 1,
    "n": lambda n: n,
    "10**6": lambda n: 10**6,
}


class TestPairBlocks:
    @given(small_spaces, st.sampled_from(sorted(BLOCK_ROWS)))
    def test_blocks_concatenate_to_the_whole_listing(self, space, rows):
        graph = build_graph(*space)
        assert_blocks_concatenate(graph, BLOCK_ROWS[rows](len(graph.nodes)))

    def test_empty_blocks(self, graph_6_3):
        # One row a block: 6,0,0 beats nothing and 4,1,1 draws no later
        # node, so row 0's strict block and row 3's draw block are empty.
        strict, draws = assert_blocks_concatenate(graph_6_3, 1)
        assert strict == [0, 1, 1, 3, 3, 3, 3]
        assert draws == [0, 2, 4, 0, 0, 1, 0]

    def test_blocks_are_index_arrays(self, graph_6_3):
        for strict in (True, False):
            for first, second in graph_6_3.pair_blocks(strict, 14):
                assert first.dtype == second.dtype == np.intp
                assert first.shape == second.shape


class TestMarginKernel:
    @given(small_spaces)
    def test_margin_is_the_cell_difference(self, space):
        graph = build_graph(*space)
        nodes = graph.nodes
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                t = matchup_table(a, b)
                assert graph.margin[i, j] == t.wins_a - t.wins_b
        assert graph.beats.dtype == np.bool_
        assert (graph.beats == (graph.margin > 0)).all()

    @pytest.mark.parametrize("k, dtype", [(11, np.int8), (12, np.int16)])
    def test_narrow_dtype_equals_int64_oracle(self, k, dtype):
        graph = build_graph(10, k)
        nodes = [p.values for p in graph.nodes]
        counts = [[_oracles.cell_counts(a, b) for b in nodes] for a in nodes]
        oracle = np.array([[wa - wb for wa, wb, _ in row] for row in counts], dtype=np.int64)
        assert graph.margin.dtype == dtype
        assert (graph.margin.astype(np.int64) == oracle).all()

    @pytest.mark.parametrize(
        "k, dtype",
        [(1, np.int8), (11, np.int8), (12, np.int16), (181, np.int16), (182, np.int32)],
    )
    def test_widest_margin_fits_its_dtype(self, k, dtype):
        # Every cell won: the largest margin k^2 and its negation.
        ones, zeros = (1,) * k, (0,) * k
        margin = _margins([ones, zeros], [zeros, ones])
        assert margin.dtype == dtype
        assert margin.tolist() == [[k * k, 0], [0, -k * k]]

    def test_two_bytes_per_node_pair(self):
        graph = build_graph(30, 6)
        assert graph.margin.nbytes + graph.beats.nbytes == 2 * len(graph.nodes) ** 2

    @pytest.mark.parametrize("top", [2**63, 2**64, 10**30])
    def test_faces_past_int64_stay_exact(self, top):
        # Mixed with small values, faces from 2^63 up would be inferred as
        # float64, where top + 1 and top are the same number.
        rows = [Allocation((top + 1, 0)), Allocation((top, 1))]
        values = [a.values for a in rows]
        margin = _margins(values, values)
        assert margin.tolist() == [[0, 0], [0, 0]]
        t = matchup_table(*rows)
        assert (t.wins_a, t.wins_b) == (2, 2)
        assert _margins([(top + 1, top)], [(top, top)]).tolist() == [[2]]


class TestThreeCycles:
    def test_frozen_showcase_cycles(self, graph_6_3):
        got = [tuple(p.values for p in c) for c in find_three_cycles(graph_6_3)]
        assert got == CYCLES_6_3

    def test_cycle_members_dominate_in_order(self, graph_6_3):
        for cycle in find_three_cycles(graph_6_3):
            x, y, z = cycle
            for a, b in [(x, y), (y, z), (z, x)]:
                assert series_outcome(matchup_table(a, b)) is SeriesOutcome.A_WINS
                assert _oracles.beats(a.values, b.values)

    @given(small_spaces)
    def test_matches_oracle(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        got = [tuple(p.values for p in c) for c in find_three_cycles(graph)]
        nodes = [p.values for p in graph.nodes]
        oracle_edges, _ = _oracles.graph_relations(nodes)
        assert sorted(got) == _oracles.three_cycles(nodes, oracle_edges)

    def test_output_sorted_by_values(self):
        graph = build_graph(10, 3)
        got = [tuple(p.values for p in c) for c in find_three_cycles(graph)]
        assert len(got) == 22
        assert got == sorted(got)

    def test_no_cycles_without_edges(self):
        graph = build_graph(0, 3)
        assert find_three_cycles(graph) == []

    @given(small_spaces)
    def test_count_matches_listing_and_oracle(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        cycles = find_three_cycles(graph)
        nodes = [p.values for p in graph.nodes]
        oracle_edges, _ = _oracles.graph_relations(nodes)
        oracle = _oracles.three_cycles(nodes, oracle_edges)
        assert len(cycles) == len(list(cycles)) == len(oracle)

    @pytest.mark.parametrize(
        "budget, k, count", [(40, 4, 1_260_582), (30, 6, 7_728_511)]
    )
    def test_pinned_counts_without_listing(self, budget, k, count):
        assert len(find_three_cycles(build_graph(budget, k))) == count

    @given(small_spaces)
    def test_index_blocks_match_bitmask_oracle(self, space):
        assert_blocks_match_bitmask_oracle(build_graph(*space))

    @pytest.mark.parametrize("budget, k", [(20, 5), (40, 4)])
    def test_pinned_index_blocks_match_bitmask_oracle(self, budget, k):
        assert_blocks_match_bitmask_oracle(build_graph(budget, k))

    def test_iteration_matches_bitmask_oracle_across_block_slices(self):
        graph = build_graph(20, 5)  # blocks of up to 1,225 cycles
        nodes = graph.nodes
        oracle = bitmask_oracle(graph)
        assert list(find_three_cycles(graph)) == [tuple(nodes[i] for i in t) for t in oracle]

    def test_first_cycles_walk_one_block(self):
        graph = build_graph(60, 4)
        cycles = find_three_cycles(graph)
        walk, pulled = cycles.index_blocks, []

        def counted():
            for block in walk():
                pulled.append(len(block))
                yield block

        cycles.index_blocks = counted
        nodes = [p.values for p in graph.nodes]
        oracle = bitmask_oracle(graph)
        expected = [tuple(nodes[i] for i in t) for t in islice(oracle, 10)]
        assert [tuple(p.values for p in c) for c in islice(cycles, 10)] == expected
        assert pulled == [394]  # of 32,143,068 cycles, only the first block's

    def test_compares_elementwise(self, graph_6_3):
        cycles = find_three_cycles(graph_6_3)
        listed = list(cycles)
        assert list(cycles) == listed  # every iteration lists them again
        assert cycles == listed
        assert cycles == tuple(listed)
        assert cycles == find_three_cycles(build_graph(6, 3))
        assert cycles != listed[:1]
        assert cycles != listed[::-1]
        assert cycles != find_three_cycles(build_graph(10, 3))


class TestComponents:
    def test_frozen_showcase_sccs(self, graph_6_3):
        assert strongly_connected_components(graph_6_3) == [
            (0,),
            (1,),
            (2,),
            (3, 4, 5, 6),
        ]

    @given(small_spaces)
    def test_sizes_match_oracle(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        nodes = [p.values for p in graph.nodes]
        oracle_edges, _ = _oracles.graph_relations(nodes)
        sccs = strongly_connected_components(graph)
        assert sccs == _oracles.strong_components(len(nodes), oracle_edges)

    def test_components_partition_nodes(self, graph_6_3):
        sccs = strongly_connected_components(graph_6_3)
        flat = [i for group in sccs for i in group]
        assert sorted(flat) == list(range(len(graph_6_3.nodes)))

    def test_cycle_nodes_share_a_component(self, graph_6_3):
        sccs = strongly_connected_components(graph_6_3)
        by_node = {}
        for gi, group in enumerate(sccs):
            for i in group:
                by_node[i] = gi
        index = {p: i for i, p in enumerate(graph_6_3.nodes)}
        for cycle in find_three_cycles(graph_6_3):
            labels = {by_node[index[p]] for p in cycle}
            assert len(labels) == 1
            assert len(sccs[labels.pop()]) >= 3


class TestUndominated:
    def test_frozen_showcase(self, graph_6_3):
        assert [p.values for p in undominated(graph_6_3)] == [(4, 2, 0)]

    @given(small_spaces)
    def test_matches_oracle(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        nodes = [p.values for p in graph.nodes]
        oracle_edges, _ = _oracles.graph_relations(nodes)
        got = [p.values for p in undominated(graph)]
        assert got == _oracles.undominated(nodes, oracle_edges)

    def test_undominated_can_still_draw(self, graph_6_3):
        free = undominated(graph_6_3)[0]
        index = {p: i for i, p in enumerate(graph_6_3.nodes)}
        i = index[free]
        drawn = [pair for pair in graph_6_3.draw_pairs if i in pair]
        assert drawn


class TestCounterStrategy:
    def test_spot_values(self):
        assert counter_strategy(Allocation((3, 3, 0))) == (Partition((4, 1, 1)), 1)
        assert counter_strategy(Allocation((6, 0, 0))) == (Partition((2, 2, 2)), 3)
        assert counter_strategy(Allocation((4, 2, 0))) is None

    def test_order_of_entries_is_irrelevant(self):
        assert counter_strategy(Allocation((0, 3, 3))) == (Partition((4, 1, 1)), 1)

    def test_explicit_budget_must_match(self):
        with pytest.raises(ValueError):
            counter_strategy(Allocation((3, 3, 0)), budget=7)
        assert counter_strategy(Allocation((3, 3, 0)), budget=6) is not None

    def test_max_margin_then_lex_tiebreak(self):
        # (6,0,0) is beaten with margin 3 by 2,2,2 / 3,2,1 / 4,1,1.
        found = counter_strategy(Allocation((6, 0, 0)))
        assert found is not None
        counter, margin = found
        rival_margins = []
        for p in build_graph(6, 3).nodes:
            t = matchup_table(p, Allocation((6, 0, 0)))
            rival_margins.append(t.wins_a - t.wins_b)
        assert margin == max(rival_margins) == 3
        assert counter.values == (2, 2, 2)

    @pytest.mark.parametrize("budget", range(0, 13))
    def test_matches_oracle_through_budget_12(self, budget):
        candidates = _oracles.partitions(budget, 3)
        for values in candidates:
            got = counter_strategy(Allocation(values))
            expected = _oracles.counter(values, candidates)
            if expected is None:
                assert got is None
            else:
                assert (got[0].values, got[1]) == expected

    def test_space_guard(self):
        with pytest.raises(SpaceTooLargeError):
            counter_strategy(Allocation((3, 3, 0)), limit=3)

    def test_makes_one_partition(self, monkeypatch):
        # The candidates are ranked as value tuples; only the winner is
        # wrapped, not each of the 632 partitions of 40 into 4 parts.
        made = []
        check = Partition.__post_init__

        def counted(self):
            made.append(self.values)
            check(self)

        monkeypatch.setattr(Partition, "__post_init__", counted)
        found = counter_strategy(Allocation((40, 0, 0, 0)))
        assert found is not None and len(made) <= 1


class TestBestCounters:
    @given(small_spaces)
    def test_agrees_with_counter_strategy(self, space):
        budget, k = space
        graph = build_graph(budget, k)
        candidates = [p.values for p in graph.nodes]
        fast = best_counters(graph)
        for node, entry in zip(graph.nodes, fast):
            slow = counter_strategy(node)
            expected = _oracles.counter(node.values, candidates)
            if expected is None:
                assert entry is None and slow is None
            else:
                assert (entry[0].values, entry[1]) == expected
                assert entry == slow


class TestClaim:
    def test_showcase_fails_on_420(self):
        verdict = analyze(6, 3).claim
        assert verdict.holds is False
        assert [p.values for p in verdict.counterexamples] == [(4, 2, 0)]
        assert verdict.budget == 6 and verdict.k == 3

    def test_single_strategy_space(self):
        verdict = analyze(0, 1).claim
        assert verdict.holds is False
        assert [p.values for p in verdict.counterexamples] == [(0,)]

    def test_holds_at_budget_7(self):
        verdict = analyze(7, 3).claim
        assert verdict.holds is True
        assert verdict.counterexamples == ()

    def test_showcase_teams_are_all_dominated(self):
        for values in [(1, 1, 4), (2, 2, 2), (3, 3, 0)]:
            assert counter_strategy(Allocation(values)) is not None

    @given(small_spaces)
    def test_holds_iff_no_counterexamples(self, space):
        budget, k = space
        verdict = analyze(budget, k).claim
        assert verdict.holds == (len(verdict.counterexamples) == 0)
        for p in verdict.counterexamples:
            assert counter_strategy(p) is None


class TestAnalysisSummary:
    def test_showcase_bundle(self):
        report = analyze(6, 3)
        assert [tuple(p.values for p in c) for c in report.three_cycles] == CYCLES_6_3
        assert report.scc_sizes == (4, 1, 1, 1)
        assert [p.values for p in report.undominated] == [(4, 2, 0)]
