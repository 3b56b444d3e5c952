"""Strict-dominance digraph over all capped strategies, and its analysis.

Nodes are canonical partitions of the budget; a directed edge means the
winner takes strictly more matchup cells than the loser. The interesting
structure is the intransitive part: directed 3-cycles and nontrivial
strongly connected components, plus the set of strategies nothing beats.
The graph is the analysis: those and the counter table are its properties,
each computed by this module's functions on first read. The universal-counter
claim holds exactly when the undominated set is empty.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .allocations import (
    Allocation,
    Partition,
    composition_count,
    enumerate_partitions,
    partition_tuples,
)

Edge = tuple[int, int, int]  # (winner index, loser index, margin > 0)
Cycle = tuple[Partition, Partition, Partition]

# Pairs, candidates or records handled at a time: a block of the pair
# listings and the counter search, and a piece of every written listing.
# A block and its text take a few MB whatever the space's size.
_RECORD_ROWS = 8_192


def _block_rows(n: int) -> int:
    """Rows or columns of a matrix over n nodes that a stage reads or fills
    at once: the margin kernel's column blocks, the 3-cycle count tiles,
    the 3-cycle walk's candidate rows, SCC's degree sums, trim and frontier
    gathers, and the counter table's reduction. The largest power of two at
    most n / 8, clamped to [128, 1024], so 128 at the 1,206 nodes of
    (30, 6) and 512 at the 8,037 of (100, 4).

    Each stage's transients are a few arrays of B x n values for B rows, at
    most c * B * n bytes, where the margin kernel's n counts the distinct
    faces too. The walk's c is 3 + 48 * d, where d < 1 is the share of a
    block's B x n cells that are cycles: a B x n int8 gather, the columns
    it keeps and their compare, then 36 bytes a cycle while its block is
    made (two intp indices, one gathered column and the int32 row) and 12
    while its reader holds it. The densest block has d = 0.21 at (30, 6)
    and 0.16 at (60, 4), so c < 13 there. B <= n / 8 from n = 1,024 up, so
    c * B * n is at most c/8 of the int8 margin's n^2 bytes; below, it is
    at most 128 * c * n bytes. The 3-cycle count holds c * B^2 bytes
    whatever n is, with c = 16: four float32 B x B tiles, beside einsum's
    fixed 130 KB of cast buffers.
    Larger blocks make fewer, faster BLAS calls, so B grows with n: on a
    2-vCPU host, (100, 4) took 4.9 s with 128-row tiles and 3.6 s with 512.
    """
    return min(1024, max(128, 1 << (max(1, n // 8).bit_length() - 1)))


def _slices(length: int, size: int) -> Iterator[slice]:
    """range(length) as consecutive slices of ``size``, the last one shorter."""
    return (slice(start, start + size) for start in range(0, length, size))


@dataclass(frozen=True)
class CounterEntry:
    """One row of the counter-strategy table."""

    node: Partition
    counter: Partition | None
    margin: int | None


@dataclass(frozen=True)
class DominanceGraph:
    """Exhaustive pairwise classification of the capped strategy space, and
    the analysis read from it.

    The relation is held once, as the n x n ``margin`` matrix, computed
    from the nodes at the narrowest exact integer dtype: one byte per node
    pair up to k = 11. Node i beats node j when margin[i, j] > 0, and the
    matrix is antisymmetric. Edges, draws, cycles, components, counters and
    the undominated set are read from it a block of rows at a time, or by a
    reduction that copies nothing.
    Every unordered node pair appears exactly once, either as a strict
    edge (with its positive win margin) or as a draw pair. Nodes are in
    lexicographically descending order, matching enumerate_partitions.
    The 3-cycles, components, undominated set and counter table are
    computed on first read and then kept; reading one computes only what
    it needs.
    """

    budget: int
    k: int
    nodes: tuple[Partition, ...]

    @cached_property
    def margin(self) -> np.ndarray:
        """margin[i, j] = cells node i takes from node j minus cells j takes from i."""
        return _margins([p.values for p in self.nodes])

    @property
    def n_edges(self) -> int:
        """The number of strict edges: each is a pair of nonzero margins."""
        return np.count_nonzero(self.margin) // 2

    def pair_blocks(self, strict: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Index arrays (first, second) of the strict edges (winner, loser),
        or of the drawn pairs (first < second) when not ``strict``, in blocks
        of at most _RECORD_ROWS pairs: each written listing piece is a block.

        The pairs of max(1, _RECORD_ROWS // n) matrix rows are found at a
        time and cut into blocks of _RECORD_ROWS, the last one shorter; rows
        with no pair make no block. Concatenated, the blocks list every pair
        once, sorted by first and then second, and no index array of the
        whole listing is ever held.
        """
        n = len(self.nodes)
        pairs = _RECORD_ROWS
        for rows in _slices(n, max(1, pairs // max(n, 1))):
            if strict:
                block = self.margin[rows] > 0
            else:  # row start + i draws column j > start + i
                block = np.triu(self.margin[rows] == 0, rows.start + 1)
            first, second = np.nonzero(block)
            first += rows.start
            for part in _slices(len(first), pairs):
                yield first[part], second[part]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Strict edges (winner, loser, margin), sorted by winner then loser."""
        return tuple(
            edge
            for winners, losers in self.pair_blocks(True)
            for edge in zip(
                winners.tolist(), losers.tolist(), self.margin[winners, losers].tolist()
            )
        )

    @cached_property
    def draw_pairs(self) -> tuple[tuple[int, int], ...]:
        """Drawn pairs (i, j) with i < j, sorted."""
        return tuple(
            pair
            for first, second in self.pair_blocks(False)
            for pair in zip(first.tolist(), second.tolist())
        )

    @property
    def composition_count(self) -> int:
        """Ordered allocations of the budget across the k categories."""
        return composition_count(self.budget, self.k)

    @property
    def partition_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def three_cycles(self) -> ThreeCycles:
        return find_three_cycles(self)

    @cached_property
    def scc(self) -> tuple[tuple[int, ...], ...]:
        return tuple(strongly_connected_components(self))

    @property
    def scc_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(map(len, self.scc), reverse=True))

    @cached_property
    def undominated(self) -> tuple[Partition, ...]:
        return tuple(undominated(self))

    @cached_property
    def counters(self) -> tuple[CounterEntry, ...]:
        """One entry per node, in node order: its best counter, or none."""
        return tuple(best_counters(self))


def _margins(values: Sequence[tuple[int, ...]]) -> np.ndarray:
    """margin[i, j] = cells values[i] takes from values[j] minus cells values[j]
    takes back, where values holds allocations' value tuples.

    Score table: a face of rank v (among the distinct face values) nets
    score[v, j] against values[j], the number of its faces below v minus
    the number above v. The table is as long as the number of distinct
    faces, whatever the budget, and is made for _block_rows(len(values))
    columns at a time. Those columns of the margin sum the scores of the
    rows' faces, one face position at a time.
    """
    # Faces of 2^63 and up are ranked as Python ints: a mix of those and
    # small values would otherwise be inferred as float64 and lose bits.
    exact = np.int64 if max(map(max, values)) < 2**63 else object
    faces = np.array(values, dtype=exact)
    # With return_inverse, np.unique sorts: numpy >= 2.3's hash path for the
    # bare call imports numpy.ma for a masked-array check, about 15 ms and
    # 1 MB of every process. Object faces compare as Python ints, so they
    # stay exact.
    distinct, ranks = np.unique(faces, return_inverse=True)
    n, k = ranks.shape
    # Every score is in [-k, k], and every partial sum of k of them in
    # [-k^2, k^2], so the smallest signed dtype that holds -k^2 is exact:
    # int8 for k <= 11, int16 for k <= 181.
    dtype = np.min_scalar_type(-k * k)
    margin = np.empty((n, n), dtype=dtype)
    for part in _slices(n, _block_rows(n)):
        block = ranks[part]
        # counts[j, v + 1] is how many faces of column j have rank v, so
        # below[j, v] counts its faces under rank v and score = below - (k -
        # faces up to v). Each of these lies in [-k, 2k]: inside +-k^2 for
        # k >= 2, and int8 holds it at k = 1, so none is wider than the margin.
        # The sums run along contiguous rows, then the table is transposed
        # once: down the columns of a (faces x columns) table they took twice
        # as long at (6000, 2) once 256 columns outgrew the cache.
        counts = np.zeros((len(block), len(distinct) + 1), dtype=dtype)
        for face in block.T:
            counts[np.arange(len(block)), face + 1] += 1  # one face per column: no pair repeats
        below = np.cumsum(counts, axis=1, dtype=dtype)
        score = np.ascontiguousarray((below[:, :-1] + below[:, 1:] - k).T)
        total = score[ranks[:, 0]]
        for face in ranks.T[1:]:
            total += score[face]
        margin[:, part] = total
    return margin


def _strongest_beaters(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of margins, one node against the candidate columns: the
    highest column that holds the row's smallest entry, and minus that
    entry, in the margin's dtype.

    That column is the candidate that beats the node by the most, and the
    value is its margin over the node, positive only if it beats the node at
    all. Ties go to the highest column: with candidates in descending node
    order, that is the lexicographically smallest partition.
    """
    columns = rows.shape[1] - 1 - np.argmin(rows[:, ::-1], axis=1)
    return columns, -rows[np.arange(len(rows)), columns]


def build_graph(budget: int, k: int) -> DominanceGraph:
    """Classify every pair of capped partitions into strict edges and draws."""
    graph = DominanceGraph(budget, k, tuple(enumerate_partitions(budget, k)))
    graph.margin  # computed eagerly: building the graph includes the matrix
    return graph


class ThreeCycles:
    """The directed 3-cycles of a graph: counted exactly, listed on iteration.

    ``len()`` counts them exactly on first use, without listing any: each
    cycle once, in the tile of ``margin`` rows that holds its highest node
    index (see ``_count``). ``index_blocks`` walks the margin one node x at
    a time, a block of candidate rows at a time, and yields the cycles as
    node-index arrays; iterating maps those to partitions. Each cycle comes
    once, smallest node (by value) first, sorted by ascending node values.
    """

    def __init__(self, graph: DominanceGraph) -> None:
        # The graph caches this object, so it keeps what it reads rather than
        # the graph: a reference cycle would keep a dropped graph's margin
        # alive until a garbage collector pass.
        self.margin, self.nodes = graph.margin, graph.nodes

    @cached_property
    def _count(self) -> int:
        """Cycles whose highest index lies in the row tile M = [b0, b1), summed
        over the tiles of the strict-edge adjacency A = (margin > 0), whose
        B rows come from _block_rows(n).

        Those wholly inside M number trace(A_MM^3) / 3. Every other one has
        exactly one rotation x -> y -> z with x in M, y < b0 and z < b1, so the
        rest of the tile's count is the sum, over column tiles C of [0, b1),
        of paths = A[M, :b0] @ A[:b0, C] under the mask A[C, M]^T. paths is
        summed over the y-slices Y of B rows below b0, A[M, Y] @ A[Y, C], as
        blocked matrix products split their inner index, so every operand is
        B x B and the work is still about n^3 / 3 multiply-adds. Four float32
        B x B tiles (left, right, product, paths) are made once and refilled
        in place: each compare writes its 0/1 result straight into a tile and
        each product into the product tile, so nothing grows with n. Every
        entry of paths counts two-step paths, at most n < 2^24, so the
        float32 sums are exact; the masked sums are float64 and the traces at
        most 1024^3, all far below 2^53, so exact.
        """
        margin = self.margin
        n = len(margin)
        rows = _block_rows(n)
        side = min(rows, n)
        left, right, product, paths = np.empty((4, side, side), dtype=np.float32)
        count = 0
        for b0 in range(0, n, rows):
            b1 = min(b0 + rows, n)
            m = b1 - b0
            inside = np.greater(margin[b0:b1, b0:b1], 0, out=left[:m, :m])
            squared = np.matmul(inside, inside, out=product[:m, :m])
            count += int(np.einsum("ij,ji->", squared, inside, dtype=np.float64)) // 3
            for c0 in range(0, b1, rows):
                c1 = min(c0 + rows, b1)
                c = c1 - c0
                summed = paths[:m, :c]
                summed.fill(0)
                for y0 in range(0, b0, rows):  # b0 is a multiple of rows
                    y1 = y0 + rows
                    out = np.greater(margin[b0:b1, y0:y1], 0, out=left[:m])  # x beats y
                    on = np.greater(margin[y0:y1, c0:c1], 0, out=right[:, :c])  # y beats z
                    summed += np.matmul(out, on, out=product[:m, :c])
                closing = np.greater(margin[c0:c1, b0:b1], 0, out=right[:c, :m])  # z beats x
                count += int(np.einsum("ij,ji->", summed, closing, dtype=np.float64))
        return count

    def __len__(self) -> int:
        return self._count

    def index_blocks(self) -> Iterator[np.ndarray]:
        """The cycles (x, y, z) as (m, 3) int32 node-index arrays: one per x
        and per slice of _block_rows(n) of the nodes y that x beats, whose
        margin rows are read one slice at a time.

        With nodes in descending value order, the lexicographically
        smallest node of a cycle is its highest index x, so x runs from
        high to low, the slices of y descend, and within a block y and then
        z descend: the canonical order. Lazy: taking the first few cycles
        computes only the first blocks. Slices with no cycle yield no block.
        """
        margin = self.margin
        size = _block_rows(len(margin))
        for x in range(len(margin) - 1, -1, -1):
            row = margin[x, :x]
            ys = np.flatnonzero(row > 0)[::-1]  # x beats y
            zs = np.flatnonzero(row < 0)[::-1]  # z beats x
            for part in _slices(len(ys), size):
                rows, cols = np.nonzero(margin[ys[part]][:, zs] > 0)  # y beats z
                if rows.size:
                    block = np.empty((rows.size, 3), dtype=np.int32)
                    block[:, 0] = x
                    block[:, 1] = ys[part][rows]
                    block[:, 2] = zs[cols]
                    del rows, cols
                    yield block

    def __iter__(self) -> Iterator[Cycle]:
        nodes = self.nodes
        for block in self.index_blocks():
            # A block can hold thousands of cycles; converting it a slice at
            # a time keeps a short listing from building them all as ints.
            for start in range(0, len(block), 256):
                for x, y, z in block[start : start + 256].tolist():
                    yield nodes[x], nodes[y], nodes[z]


def find_three_cycles(graph: DominanceGraph) -> ThreeCycles:
    """All directed 3-cycles of ``graph``: ``len()`` counts them, iterating lists them."""
    return ThreeCycles(graph)


def _reach(
    rows: Callable[[np.ndarray], np.ndarray], root: int, allowed: np.ndarray
) -> np.ndarray:
    """Mask of the nodes that ``root`` reaches within ``allowed``, which holds
    root, where ``rows(block)`` gives the boolean adjacency rows of the nodes
    in ``block``: _block_rows(len(allowed)) frontier rows are gathered at a
    time."""
    seen = np.zeros_like(allowed)
    seen[root] = True
    frontier = seen.copy()
    while frontier.any():
        step = np.zeros_like(seen)
        nodes = np.flatnonzero(frontier)
        for part in _slices(len(nodes), _block_rows(len(allowed))):
            step |= rows(nodes[part]).any(axis=0)
        frontier = step & allowed & ~seen
        seen |= frontier
    return seen


def strongly_connected_components(graph: DominanceGraph) -> list[tuple[int, ...]]:
    """SCCs over strict edges as sorted index tuples, ordered by smallest member.

    First the trim step of McLendon et al. (JPDC 2005): a node with no
    in-edge or no out-edge from the unassigned nodes is its own component,
    and assigning it can leave more such nodes. Then forward-backward search
    (Fleischer, Hendrickson & Pinar, 2000) over boolean node masks: the
    component of the lowest unassigned node is what it reaches forward along
    rows of ``margin > 0``, searched backward from it within that set. Both
    read matrix rows only: the nodes that beat i are row i of ``margin < 0``.
    """
    margin = graph.margin

    def successors(block: np.ndarray | slice) -> np.ndarray:
        return margin[block] > 0

    def predecessors(block: np.ndarray | slice) -> np.ndarray:
        return margin[block] < 0

    n = len(margin)
    rows = _block_rows(n)
    in_degree = np.empty(n, dtype=np.intp)
    out_degree = np.empty(n, dtype=np.intp)
    for block in _slices(n, rows):  # views of the margin, not copies
        out_degree[block] = successors(block).sum(axis=1)
        in_degree[block] = predecessors(block).sum(axis=1)
    unassigned = np.ones(n, dtype=bool)
    components = []
    while True:
        trimmed = np.flatnonzero(unassigned & ((in_degree == 0) | (out_degree == 0)))
        if not trimmed.size:
            break
        unassigned[trimmed] = False
        components += ((i,) for i in trimmed.tolist())
        for part in _slices(len(trimmed), rows):
            in_degree -= successors(trimmed[part]).sum(axis=0)
            out_degree -= predecessors(trimmed[part]).sum(axis=0)
    while unassigned.any():
        root = int(np.argmax(unassigned))
        forward = _reach(successors, root, unassigned)
        component = _reach(predecessors, root, forward)
        unassigned &= ~component
        components.append(tuple(np.flatnonzero(component).tolist()))
    components.sort()
    return components


def undominated(graph: DominanceGraph) -> list[Partition]:
    """Nodes with no incoming strict edge, in node order."""
    beaten = graph.margin.max(axis=0) > 0
    return [graph.nodes[i] for i in np.flatnonzero(~beaten).tolist()]


def counter_strategy(a: Allocation) -> tuple[Partition, int] | None:
    """Best same-cap answer to ``a``: a strict dominator of maximum margin.

    Ties on margin break to the lexicographically smallest partition.
    Returns None when nothing beats ``a``, which is a legitimate finding,
    not an error.
    """
    # Scored as value tuples, _RECORD_ROWS at a time: only the winner becomes
    # a Partition. A candidate's face v takes #{a's faces < v} - #{a's faces
    # > v} cells net: the sum of v's two searchsorted positions in a's sorted
    # faces, minus k. So a's row against the batch is k^2 minus the row sums
    # of those positions. Faces of 2^63 and up stay Python ints, as in
    # _margins. A later batch wins a tie, as the higher column does within one.
    exact = np.int64 if a.budget < 2**63 else object
    faces = np.array(sorted(a.values), dtype=exact)
    candidates = partition_tuples(a.budget, a.k)
    best = None
    while batch := list(islice(candidates, _RECORD_ROWS)):
        values = np.array(batch, dtype=exact)
        taken = np.searchsorted(faces, values, "left") + np.searchsorted(faces, values, "right")
        (column,), (value,) = _strongest_beaters(a.k * a.k - taken.sum(axis=1)[None])
        if value > 0 and (best is None or value >= best[1]):
            best = batch[column], int(value)
    return None if best is None else (Partition(best[0]), best[1])


def best_counters(graph: DominanceGraph) -> list[CounterEntry]:
    """Per node, in node order, its maximum-margin strict dominator (same
    tie-break) and margin, or None for both.

    Same answer as running counter_strategy on every node, read off the
    rows of the margin matrix: the nodes that beat node j are the negative
    entries of row j. Each block of _block_rows(n) rows is answered in full,
    so nothing is merged across blocks.
    """
    margin = graph.margin
    n = len(margin)
    columns = np.empty(n, dtype=np.intp)
    values = np.empty(n, dtype=margin.dtype)
    for part in _slices(n, _block_rows(n)):
        columns[part], values[part] = _strongest_beaters(margin[part])
    nodes = graph.nodes
    return [
        CounterEntry(node, nodes[column], value) if value > 0 else CounterEntry(node, None, None)
        for node, column, value in zip(nodes, columns.tolist(), values.tolist())
    ]
