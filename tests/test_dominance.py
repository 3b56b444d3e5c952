import gc
import tracemalloc
import weakref
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcycle import (
    Allocation,
    Partition,
    SpaceTooLargeError,
    analyze,
    counter_strategy,
    matchup_json_dict,
    matchup_table,
)
import capcycle.dominance as dominance_module
from capcycle.dominance import (
    ThreeCycles,
    _margins,
    best_counters,
    build_graph,
    find_three_cycles,
    strongly_connected_components,
    undominated,
)

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
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=4)
)

# Values of the one block rule, _block_rows: the margin kernel's column
# blocks, the 3-cycle count's row tiles, and the row blocks of the SCC search
# and the counter table. Sizes that split small spaces, and the smallest real
# size, which no small space exceeds. Every value is a multiple of 8, as
# _block_rows' are, so a block of columns fills whole bytes of the plane.
TILE_ROWS = [8, 16, 128]


def margin_matrix(values):
    """The margin kernel's column blocks joined into the whole matrix. Each
    block is copied: the next one refills its buffer."""
    return np.concatenate([block.copy() for _, block in _margins(values)], axis=1)


def oracle_margins(graph):
    """The oracle's margin matrix over the nodes of ``graph``, as int64."""
    return np.array(_oracles.margins([p.values for p in graph.nodes]), dtype=np.int64)


def adjacency(graph):
    """The plane unpacked: entry (i, j) is True when node i beats node j."""
    return np.unpackbits(graph.beats, axis=1, count=len(graph.nodes)).view(bool)


def bitmask_oracle(graph):
    """The oracle's bitmask walk over the strict edges of ``graph``."""
    return _oracles.bitmask_three_cycles(len(graph.nodes), graph.edges)


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

    def test_space_guard(self, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "3")
        with pytest.raises(SpaceTooLargeError):
            build_graph(6, 3)

    def test_determinism(self, graph_6_3):
        again = build_graph(6, 3)
        assert again == graph_6_3


def assert_blocks_concatenate(graph, rows):
    """pair_blocks, with blocks of ``rows`` pairs asked, concatenated, lists
    the strict edges and the draws of the whole matrix in order. Its blocks
    are the pairs of max(1, rows // n) matrix rows at a time, cut into
    blocks of ``rows``, and none is empty. The blocks of consecutive slices
    of the rows join into the same listing. Returns the block sizes, strict
    then draw."""
    n = len(graph.nodes)
    step = max(1, rows // n)
    margin = oracle_margins(graph)
    wholes = (np.nonzero(margin > 0), np.nonzero(np.triu(margin == 0, 1)))
    sizes = []
    for strict, whole in zip((True, False), wholes):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "_RECORD_ROWS", rows)
            blocks = list(graph.pair_blocks(strict))
            for span in (1, 5):
                joined = [], []
                for start in range(0, n, span):
                    for first, second in graph.pair_blocks(strict, slice(start, start + span)):
                        assert start <= first.min() and first.max() < start + span
                        joined[0].extend(first.tolist())
                        joined[1].extend(second.tolist())
                assert list(joined) == [want.tolist() for want in whole]
        sizes.append([len(first) for first, _ in blocks])
        per_row_block = np.bincount(whole[0] // step, minlength=-(-n // step)).tolist()
        assert sizes[-1] == [
            min(rows, pairs - start)
            for pairs in per_row_block
            for start in range(0, pairs, rows)
        ]
        for got, want in zip(zip(*blocks), whole):  # no blocks: sizes held it empty
            assert np.concatenate(got).tolist() == want.tolist()
    return sizes


# Pairs asked per block, as a function of the node count n; a block holds
# at least one pair.
BLOCK_ROWS = {
    "1": lambda n: 1,
    "2": lambda n: 2,
    "n - 1": lambda n: max(1, n - 1),
    "n": lambda n: n,
    "10**6": lambda n: 10**6,
}


class TestPairBlocks:
    @given(small_spaces, st.sampled_from(sorted(BLOCK_ROWS)))
    def test_blocks_concatenate_to_the_whole_listing(self, space, rows):
        graph = build_graph(*space)
        assert_blocks_concatenate(graph, BLOCK_ROWS[rows](len(graph.nodes)))

    def test_empty_blocks(self, graph_6_3):
        # Two pairs a block, one row at a time: rows hold 0, 1, 1, 3, 3, 3, 3
        # strict pairs and 0, 2, 4, 0, 0, 1, 0 draws, so a row with none
        # makes no block and a row with three makes two.
        strict, draws = assert_blocks_concatenate(graph_6_3, 2)
        assert strict == [1, 1, 2, 1, 2, 1, 2, 1, 2, 1]
        assert draws == [2, 2, 2, 1]

    def test_blocks_are_index_arrays(self, graph_6_3, monkeypatch):
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", 14)
        for strict in (True, False):
            for first, second in graph_6_3.pair_blocks(strict):
                assert first.dtype == second.dtype == np.intp
                assert first.shape == second.shape


class TestMarginKernel:
    @given(small_spaces)
    def test_margin_is_the_cell_difference(self, space):
        graph = build_graph(*space)
        nodes = graph.nodes
        margin = margin_matrix([p.values for p in nodes])
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                t = matchup_table(a, b)
                assert margin[i, j] == t.wins_a - t.wins_b
        assert (margin == -margin.T).all()
        assert graph.n_edges == np.count_nonzero(margin > 0)

    @given(small_spaces, st.sampled_from(TILE_ROWS))
    def test_plane_bits_are_the_oracle_relation(self, space, rows):
        # Column blocks of 8 and 16 split the larger spaces, each block
        # filling whole bytes of the plane.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "_block_rows", lambda n: rows)
            graph = build_graph(*space)
        nodes = [p.values for p in graph.nodes]
        n = len(nodes)
        assert graph.beats.dtype == np.uint8 and graph.beats.shape == (n, -(-n // 8))
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                bit = graph.beats[i, j >> 3] >> (7 - (j & 7)) & 1
                assert bit == _oracles.beats(a, b)

    @pytest.mark.parametrize("k, dtype", [(11, np.int8), (12, np.int16)])
    def test_narrow_dtype_equals_int64_oracle(self, k, dtype):
        graph = build_graph(10, k)
        margin = margin_matrix([p.values for p in graph.nodes])
        assert margin.dtype == dtype
        assert (margin.astype(np.int64) == oracle_margins(graph)).all()

    @pytest.mark.parametrize(
        "k, dtype",
        [(1, np.int8), (11, np.int8), (12, np.int16), (181, np.int16), (182, np.int32)],
    )
    def test_widest_margin_fits_its_dtype(self, k, dtype):
        # Every cell won: the largest margin k^2 and its negation.
        ones, zeros = (1,) * k, (0,) * k
        margin = margin_matrix([ones, zeros])
        assert margin.dtype == dtype
        assert margin.tolist() == [[0, k * k], [-k * k, 0]]

    def test_one_bit_per_node_pair(self):
        # Every stage of the report reads plane blocks or margin blocks made
        # again: the graph keeps no other array.
        graph = analyze(30, 6)
        graph.scc, graph.undominated, graph.counters, len(graph.three_cycles)
        next(graph.three_cycles.index_blocks())
        n = len(graph.nodes)
        assert graph.beats.nbytes == n * -(-n // 8)
        arrays = [name for name, value in vars(graph).items() if isinstance(value, np.ndarray)]
        assert arrays == ["beats"]

    def test_dense_faces_score_in_column_blocks(self):
        # 3,001 nodes over 6,001 distinct faces: a score table of every column
        # peaked at 70 MB for the 9 MB int8 margin matrix.
        values = [p.values for p in build_graph(6000, 2).nodes]
        tracemalloc.start()
        try:
            dtypes = {block.dtype for _, block in _margins(values)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dtypes == {np.dtype(np.int8)}
        assert peak < 2 * len(values) ** 2

    @given(small_spaces, st.sampled_from(TILE_ROWS))
    def test_column_blocks_keep_values_and_dtype(self, space, rows):
        # small_spaces fit in one block of the real size; smaller blocks take
        # the path with several blocks and a short last one.
        budget, k = space
        nodes = build_graph(budget, k).nodes
        values = [p.values for p in nodes]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "_block_rows", lambda n: rows)
            parts, blocks = zip(*((part, block.copy()) for part, block in _margins(values)))
        assert all(block.shape[1] == rows for block in blocks[:-1])
        # Each part names the margin columns its block holds, all of them in order.
        columns = [range(len(nodes))[part] for part in parts]
        assert [j for held in columns for j in held] == list(range(len(nodes)))
        assert [len(held) for held in columns] == [block.shape[1] for block in blocks]
        margin = np.concatenate(blocks, axis=1)
        assert margin.dtype == np.min_scalar_type(-k * k)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                t = matchup_table(a, b)
                assert margin[i, j] == t.wins_a - t.wins_b

    @pytest.mark.parametrize("top", [2**63, 2**64, 10**30])
    def test_faces_past_int64_stay_exact(self, top):
        # Mixed with small values, faces from 2^63 up would be inferred as
        # float64, where top + 1 and top are the same number.
        rows = [Allocation((top + 1, 0)), Allocation((top, 1))]
        values = [a.values for a in rows]
        assert margin_matrix(values).tolist() == [[0, 0], [0, 0]]
        t = matchup_table(*rows)
        assert (t.wins_a, t.wins_b) == (2, 2)
        assert margin_matrix([(top + 1, top), (top, top)]).tolist() == [[0, 2], [-2, 0]]


class TestThreeCycles:
    def test_frozen_showcase_cycles(self, graph_6_3):
        got = [tuple(p.values for p in c) for c in find_three_cycles(graph_6_3)]
        assert got == CYCLES_6_3

    def test_cycle_members_dominate_in_order(self, graph_6_3):
        for cycle in find_three_cycles(graph_6_3):
            x, y, z = cycle
            for a, b in [(x, y), (y, z), (z, x)]:
                assert matchup_json_dict(matchup_table(a, b))["outcome"] == "A"
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
        assert list(find_three_cycles(graph)) == []

    @given(small_spaces, st.sampled_from(TILE_ROWS))
    def test_count_matches_listing_and_oracle(self, space, rows):
        # small_spaces fit in one tile of the real size; smaller tiles take
        # the multi-tile path.
        budget, k = space
        graph = build_graph(budget, k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "_block_rows", lambda n: rows)
            count = len(find_three_cycles(graph))
        nodes = [p.values for p in graph.nodes]
        oracle_edges, _ = _oracles.graph_relations(nodes)
        oracle = _oracles.three_cycles(nodes, oracle_edges)
        assert count == len(list(find_three_cycles(graph))) == len(oracle)
        assert count == _oracles.three_cycle_count(oracle_margins(graph) > 0)

    @pytest.mark.parametrize(
        "budget, k, count",
        [(6, 3, 2), (12, 4, 139), (40, 4, 1_260_582), (30, 6, 7_728_511), (60, 4, 32_143_068)],
    )
    def test_pinned_counts_without_listing(self, budget, k, count):
        # (40, 4), (30, 6) and (60, 4) have 632, 1,206 and 1,906 nodes: 5, 10
        # and 15 tiles of the real size, 128 rows.
        graph = build_graph(budget, k)
        oracle = _oracles.three_cycle_count(adjacency(graph))
        assert len(find_three_cycles(graph)) == oracle == count

    def test_count_memory_stays_in_tiles(self):
        # 1,206 and 1,906 nodes, both in 128-row tiles: the bound is a few
        # 128 x 128 float32 tiles whatever n is. tracemalloc sees numpy's
        # arrays, not BLAS's own buffers.
        for budget, k, count in [(30, 6, 7_728_511), (60, 4, 32_143_068)]:
            graph = build_graph(budget, k)
            assert dominance_module._block_rows(len(graph.nodes)) == 128
            tracemalloc.start()
            try:
                assert len(find_three_cycles(graph)) == count
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 128 * 128 * 4, (budget, k, peak)

    def test_count_refuses_where_float32_sums_stop_being_exact(self):
        # Paths are summed in float32, exact for integers below 2^24. The
        # plane has no columns, so nothing of its size is allocated.
        graph = SimpleNamespace(beats=np.zeros((2**24, 0), np.uint8), nodes=())
        with pytest.raises(SpaceTooLargeError, match=r"2\^24 = 16777216"):
            len(ThreeCycles(graph))

    @pytest.mark.parametrize(
        "n, rows", [(1, 128), (632, 128), (1206, 128), (2048, 256), (8037, 512), (10**5, 1024)]
    )
    def test_count_tiles_grow_with_n(self, n, rows):
        assert dominance_module._block_rows(n) == rows

    @pytest.mark.parametrize("n", [1, 7, 8, 127, 1206, 8037, 10**8])
    def test_blocks_fill_whole_plane_bytes(self, n):
        # The plane is packed from, and the count reads, blocks of columns
        # that start on a byte.
        assert dominance_module._block_rows(n) % 8 == 0

    @given(small_spaces, st.sampled_from(TILE_ROWS))
    def test_index_blocks_match_bitmask_oracle(self, space, rows):
        # Smaller blocks cut one x's candidate rows into several slices.
        graph = build_graph(*space)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "_block_rows", lambda n: rows)
            assert_blocks_match_bitmask_oracle(graph)

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
        assert pulled == [177]  # of 32,143,068 cycles, only the first block's

    def test_walk_memory_stays_in_row_blocks(self):
        # Gathering every candidate row of an x at once peaked at 23.8 and
        # 39.3 B·n bytes. The bound is _block_rows' c for the walk, with d the
        # densest block's share of its B x n cells.
        for budget, k in [(30, 6), (60, 4)]:
            graph = build_graph(budget, k)
            n = len(graph.nodes)
            rows = dominance_module._block_rows(n)
            walk = find_three_cycles(graph).index_blocks()
            tracemalloc.start()
            try:
                densest = max(len(block) for block in walk) / (rows * n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (3 + 48 * densest) * rows * n < 13 * rows * n

    def test_compares_elementwise(self, graph_6_3):
        cycles = find_three_cycles(graph_6_3)
        listed = list(cycles)
        assert list(cycles) == listed  # every iteration lists them again
        assert list(find_three_cycles(build_graph(6, 3))) == listed
        assert list(find_three_cycles(build_graph(10, 3))) != listed


class TestComponents:
    def test_frozen_showcase_sccs(self, graph_6_3):
        assert strongly_connected_components(graph_6_3) == [
            (0,),
            (1,),
            (2,),
            (3, 4, 5, 6),
        ]

    @given(small_spaces, st.sampled_from(TILE_ROWS))
    def test_sizes_match_oracle(self, space, rows):
        budget, k = space
        graph = build_graph(budget, k)
        nodes = [p.values for p in graph.nodes]
        oracle_edges, _ = _oracles.graph_relations(nodes)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "_block_rows", lambda n: rows)
            sccs = strongly_connected_components(graph)
        assert sccs == _oracles.strong_components(len(nodes), oracle_edges)

    @pytest.mark.parametrize("budget, k", [(0, 3), (20, 2), (30, 3)])
    def test_pinned_spaces_match_oracle(self, budget, k):
        # Past small_spaces: budget 0 has one node, every pair of (20, 2)
        # draws, and 88 of the 91 nodes of (30, 3) share one component.
        graph = build_graph(budget, k)
        nodes = [p.values for p in graph.nodes]
        oracle_edges, _ = _oracles.graph_relations(nodes)
        sccs = strongly_connected_components(graph)
        assert sccs == _oracles.strong_components(len(nodes), oracle_edges)
        assert max(map(len, sccs)) == {0: 1, 20: 1, 30: 88}[budget]

    def test_search_memory_stays_in_row_blocks(self):
        # A block gathers _block_rows(n) rows or columns of the plane and
        # unpacks them; the whole search once gathered every frontier row at
        # a time.
        for (budget, k), largest in [((30, 6), 1186), ((60, 4), 1885)]:
            graph = build_graph(budget, k)
            n = len(graph.nodes)
            tracemalloc.start()
            try:
                sccs = strongly_connected_components(graph)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert max(map(len, sccs)) == largest
            assert peak < 3 * dominance_module._block_rows(n) * n

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

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("budget, k", [(10, 3), (12, 4)])
    def test_batches_match_oracle(self, budget, k, rows, monkeypatch):
        # Candidates ranked ``rows`` at a time: a later batch must win a tie
        # on margin, as the lexicographically smaller partition.
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", rows)
        candidates = _oracles.partitions(budget, k)
        tied_across_batches = 0
        for values in candidates:
            counts = (_oracles.cell_counts(p, values) for p in candidates)
            margins = [wa - wb for wa, wb, _ in counts]
            top = max(margins)
            batches = {i // rows for i, m in enumerate(margins) if m == top}
            tied_across_batches += top > 0 and len(batches) > 1
            got = counter_strategy(Allocation(values))
            expected = _oracles.counter(values, candidates)
            if expected is None:
                assert got is None
            else:
                assert (got[0].values, got[1]) == expected
        assert tied_across_batches >= 7

    def test_space_guard(self, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "3")
        with pytest.raises(SpaceTooLargeError):
            counter_strategy(Allocation((3, 3, 0)))

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


def assert_counters_match_oracle(graph, rows):
    """best_counters at ``rows``-row blocks and counter_strategy of every node
    equal the oracle, with Python-int margins."""
    candidates = [p.values for p in graph.nodes]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dominance_module, "_block_rows", lambda n: rows)
        fast = best_counters(graph)
    assert [entry.node for entry in fast] == list(graph.nodes)
    for entry in fast:
        slow = counter_strategy(entry.node)
        expected = _oracles.counter(entry.node.values, candidates)
        if expected is None:
            assert entry.counter is None and entry.margin is None and slow is None
        else:
            assert (entry.counter.values, entry.margin) == expected
            assert (entry.counter, entry.margin) == slow
            assert type(entry.margin) is int and type(slow[1]) is int


class TestBestCounters:
    @given(small_spaces, st.sampled_from(TILE_ROWS))
    def test_agrees_with_counter_strategy(self, space, rows):
        # Each block of rows answers its nodes in full, whatever its size;
        # only counter_strategy's batches pass ties on to a later batch.
        budget, k = space
        assert_counters_match_oracle(build_graph(budget, k), rows)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_int16_margin_matches_oracle(self, rows):
        # small_spaces have k <= 4, so int8 margins; (10, 12) has 42 nodes
        # and needs int16.
        graph = build_graph(10, 12)
        assert next(_margins([p.values for p in graph.nodes]))[1].dtype == np.int16
        assert_counters_match_oracle(graph, rows)

    def test_counter_table_reads_column_blocks(self):
        # An argmax over the whole reversed margin matrix copied all of it.
        for budget, k in [(30, 6), (60, 4)]:
            graph = build_graph(budget, k)
            n = len(graph.nodes)
            tracemalloc.start()
            try:
                best = best_counters(graph)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(entry.counter is None for entry in best) == len(undominated(graph))
            assert peak < 2 * dominance_module._block_rows(n) * n < n**2


class TestClaim:
    # The claim holds exactly when no strategy is undominated; those that
    # are undominated are its counterexamples.
    def test_showcase_fails_on_420(self):
        assert [p.values for p in analyze(6, 3).undominated] == [(4, 2, 0)]

    def test_single_strategy_space(self):
        assert [p.values for p in analyze(0, 1).undominated] == [(0,)]

    def test_holds_at_budget_7(self):
        assert analyze(7, 3).undominated == ()

    def test_showcase_teams_are_all_dominated(self):
        for values in [(1, 1, 4), (2, 2, 2), (3, 3, 0)]:
            assert counter_strategy(Allocation(values)) is not None

    @given(small_spaces)
    def test_undominated_have_no_counter(self, space):
        budget, k = space
        graph = analyze(budget, k)
        for p in graph.undominated:
            assert counter_strategy(p) is None
        assert graph.undominated == tuple(e.node for e in graph.counters if e.counter is None)


class TestAnalysisSummary:
    def test_dropped_analysis_is_freed_at_once(self):
        # The graph caches its derived fields; none may refer back to it, or
        # its plane would outlive it until a garbage collector pass.
        graph = analyze(6, 3)
        graph.scc, graph.undominated, graph.counters, len(graph.three_cycles)
        freed = weakref.ref(graph)
        gc.disable()
        try:
            del graph
            assert freed() is None
        finally:
            gc.enable()

    def test_stages_past_the_build_stay_under_a_quarter_byte_per_pair(self):
        # (60, 4) has 1,906 nodes. Once the graph is built, the plane is all
        # it holds; the stages read it or make margin blocks again, and the
        # int8 margin matrix they once read was n^2 bytes on its own.
        graph = build_graph(60, 4)
        n = len(graph.nodes)
        tracemalloc.start()
        try:
            assert len(graph.three_cycles) == 32_143_068
            assert max(graph.scc_sizes) == 1885
            graph.undominated, graph.counters
            edges = sum(len(winners) for winners, _, _ in graph.edge_blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges == graph.n_edges
        assert peak < n**2 / 4

    def test_showcase_bundle(self):
        report = analyze(6, 3)
        assert [tuple(p.values for p in c) for c in report.three_cycles] == CYCLES_6_3
        assert report.scc_sizes == (4, 1, 1, 1)
        assert [p.values for p in report.undominated] == [(4, 2, 0)]
