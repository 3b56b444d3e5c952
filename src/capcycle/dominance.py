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
from .errors import SpaceTooLargeError

Edge = tuple[int, int, int]  # (winner index, loser index, margin > 0)
Cycle = tuple[Partition, Partition, Partition]

# Pairs or candidates handled at a time: a block of the pair listings and
# a batch of the counter search, and about the values of an enumerate piece.
# The DOT and JSON listings are written in pieces bounded in bytes instead
# (report._PIECE_BYTES), at most one block each. A block takes a few hundred
# KB whatever the space's size.
_RECORD_ROWS = 8_192


def _block_rows(n: int) -> int:
    """Rows or columns of a matrix over n nodes that a stage reads or fills
    at once: the margin kernel's column blocks and the score-table rows it
    gathers, the 3-cycle count tiles, the 3-cycle walk's candidate rows,
    SCC's degree sums, trim and frontier gathers, and the counter table's
    candidate rows. The largest power of two at most n / 8, clamped to
    [128, 1024], so 128 at the 1,206 nodes of (30, 6) and 512 at the 8,037
    of (100, 4). It is a multiple of 8, so a block of columns fills whole
    bytes of the sign plane.

    Each stage's transients are a few arrays of B x n values for B rows, at
    most c * B * n bytes, where the margin kernel's n counts the distinct
    faces too. The walk's c is 3 + 48 * d, where d < 1 is the share of a
    block's B x n cells that are cycles: a gather of B packed rows, their
    unpacked bits and the columns it keeps, then 36 bytes a cycle while its
    block is made (two intp indices, one gathered column and the int32 row)
    and 12 while its reader holds it. The densest block has d = 0.21 at
    (30, 6) and 0.16 at (60, 4), so c < 13 there. B <= n / 8 from n = 1,024
    up, so c * B * n is at most c times the n^2 / 8 bytes of the sign plane;
    below, it is at most 128 * c * n bytes. The 3-cycle count holds c * B^2
    bytes whatever n is, with c = 16: four float32 B x B tiles, beside
    einsum's fixed 130 KB of cast buffers.
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

    The relation is held once, as the packed sign plane ``beats``: one bit
    per ordered node pair, n^2 / 8 bytes whatever k is. The margin is
    antisymmetric, so bit (i, j) set means node i beats node j, bit (j, i)
    set means j beats i, and neither means a draw. The count, the walk,
    components, draws and the undominated set read those bits a block of
    rows or columns at a time. The margin kernel's column blocks fill whole
    bytes of the plane. The win margins themselves are not held: the
    counter table and the edge listings with margins (edge_blocks, edges)
    run the kernel again, and an edge's margin is read from the column
    block that holds its winner.
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
    def beats(self) -> np.ndarray:
        """Row i is np.packbits(margin[i] > 0): bit j, in packbits' order, is
        set when node i beats node j. An (n, ceil(n / 8)) uint8 array, filled
        from the margin kernel's column blocks, so no n x n array is made."""
        n = len(self.nodes)
        plane = np.zeros((n, -(-n // 8)), dtype=np.uint8)
        for part, block in _margins([p.values for p in self.nodes]):
            plane[:, part.start >> 3 : (part.stop + 7) >> 3] = np.packbits(block > 0, axis=1)
        return plane

    @property
    def n_edges(self) -> int:
        """The number of strict edges: the set bits of the plane."""
        return int(np.bitwise_count(self.beats).sum())

    def pair_blocks(
        self, strict: bool, rows: slice = slice(None)
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Index arrays (first, second) of the strict edges (winner, loser),
        or of the drawn pairs (first < second) when not ``strict``, whose
        first index is in ``rows`` (all nodes by default), in blocks of at
        most _RECORD_ROWS pairs; a written listing cuts each block into
        pieces of at most report._PIECE_BYTES.

        The pairs of max(1, _RECORD_ROWS // n) plane rows are found at a
        time and cut into blocks of _RECORD_ROWS, the last one shorter; rows
        with no pair make no block. Concatenated, the blocks list every pair
        once, sorted by first and then second, and no index array of the
        whole listing is ever held. A drawn pair is one whose two bits are
        both clear, so the draws read the plane's columns of the rows too.
        """
        plane = self.beats
        n = len(plane)
        pairs = _RECORD_ROWS
        span, step = range(n)[rows], max(1, pairs // n)
        for start in span[::step]:
            stop = min(start + step, span.stop)
            block = _row_bits(plane[start:stop], n)
            if not strict:  # row start + i draws column j > start + i
                beaten = _column_bits(plane, np.arange(start, stop)).T
                block = np.triu(~(block | beaten), start + 1)
            first, second = np.nonzero(block)
            first += start
            for part in _slices(len(first), pairs):
                yield first[part], second[part]

    def edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """pair_blocks(True) with each edge's margin: (winners, losers,
        margins) arrays. The plane holds no margins, so the margin kernel
        runs again, and each of its column blocks lists the edges of the
        winners it holds: margin[w, l] is minus its entry (l, w - part.start).
        """
        for part, block in _margins([p.values for p in self.nodes]):
            for w, l in self.pair_blocks(True, part):
                yield w, l, -block[l, w - part.start]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Strict edges (winner, loser, margin), sorted by winner then loser."""
        return tuple(
            edge
            for winners, losers, margins in self.edge_blocks()
            for edge in zip(winners.tolist(), losers.tolist(), margins.tolist())
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


def _margins(values: Sequence[tuple[int, ...]]) -> Iterator[tuple[slice, np.ndarray]]:
    """The margin matrix as column blocks: (part, margin[:, part]) for each
    slice part of _slices(n, _block_rows(n)), an (n, len(part)) array, where
    margin[i, j] = cells values[i] takes from values[j] minus cells values[j]
    takes back and values holds allocations' value tuples. The matrix is
    antisymmetric, so a row block is minus a column block transposed. The
    blocks are views of one (n, B) buffer, refilled for each: a block is
    valid until the next one is made.

    Score table: a face of rank v (among the distinct face values) nets
    score[v, j] against values[j], the number of its faces below v minus
    the number above v. The table is as long as the number of distinct
    faces, whatever the budget, and is made for one block's columns. A row
    of the block sums the scores of that node's faces, and the block is
    accumulated in place from _block_rows(n) rows at a time, so besides it
    the kernel holds only B x B gathers of the table.
    """
    # Faces of 2^63 and up are ranked as Python ints: a mix of those and
    # small values would otherwise be inferred as float64 and lose bits.
    exact = np.int64 if max(map(max, values)) < 2**63 else object
    faces = np.array(values, dtype=exact)
    # The distinct faces come from one sort, not np.unique: its inverse
    # takes four n x k intp arrays, and numpy >= 2.3's hash path for the bare
    # call imports numpy.ma for a masked-array check, about 15 ms and 1 MB of
    # every process. Object faces compare as Python ints, so they stay exact.
    distinct = np.sort(faces, axis=None)
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    # Ranks at the narrowest dtype that holds len(distinct), which face + 1
    # below reaches: each pass holds them whole.
    ranks = np.searchsorted(distinct, faces).astype(np.min_scalar_type(len(distinct)))
    del faces
    n, k = ranks.shape
    # Every score is in [-k, k], and every partial sum of k of them in
    # [-k^2, k^2], so the smallest signed dtype that holds -k^2 is exact:
    # int8 for k <= 11, int16 for k <= 181.
    dtype = np.min_scalar_type(-k * k)
    size = _block_rows(n)
    margin = np.empty((n, min(size, n)), dtype=dtype)  # refilled for every block
    for part in _slices(n, size):
        columns = ranks[part]
        # counts[j, v + 1] is how many faces of column j have rank v, so
        # below[j, v] counts its faces under rank v and score = below - (k -
        # faces up to v). Each of these lies in [-k, 2k]: inside +-k^2 for
        # k >= 2, and int8 holds it at k = 1, so none is wider than the margin.
        # The sums run along contiguous rows, then the table is transposed
        # once: down the columns of a (faces x columns) table they took twice
        # as long at (6000, 2) once 256 columns outgrew the cache.
        counts = np.zeros((len(columns), len(distinct) + 1), dtype=dtype)
        for face in columns.T:
            counts[np.arange(len(columns)), face + 1] += 1  # one face per column: no pair repeats
        below = np.cumsum(counts, axis=1, dtype=dtype)
        score = np.ascontiguousarray((below[:, :-1] + below[:, 1:] - k).T)
        block = margin[:, : len(columns)]
        block.fill(0)
        for rows in _slices(n, size):
            total = block[rows]
            for face in ranks[rows].T:
                total += score[face]
        yield part, block


def _strongest_beaters(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of a margin block, one node's column against the
    candidate rows: the highest row that holds the column's largest entry,
    and that entry, in the block's dtype.

    That row is the candidate that beats the node by the most, and the
    value is its margin over the node, positive only if it beats the node at
    all. Ties go to the highest row: with candidates in descending node
    order, that is the lexicographically smallest partition. argmax copies
    the block to make each column contiguous, so callers pass a few rows.
    """
    rows = len(block) - 1 - np.argmax(block[::-1], axis=0)
    return rows, block[rows, np.arange(block.shape[1])]


def build_graph(budget: int, k: int) -> DominanceGraph:
    """Classify every pair of capped partitions into strict edges and draws."""
    graph = DominanceGraph(budget, k, tuple(enumerate_partitions(budget, k)))
    graph.beats  # computed eagerly: building the graph includes the relation
    return graph


def _row_bits(rows: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` columns of packed plane rows, unpacked: a bool
    (len(rows), count) array."""
    return np.unpackbits(rows[:, : (count + 7) >> 3], axis=1, count=count).view(bool)


def _column_bits(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The given columns of packed plane rows: a bool (len(rows),
    len(columns)) array. Column c is byte c >> 3 shifted right by
    7 - (c & 7)."""
    bits = rows[:, columns >> 3]
    bits >>= (7 - (columns & 7)).astype(np.uint8)
    bits &= 1
    return bits.view(bool)


class ThreeCycles:
    """The directed 3-cycles of a graph: counted exactly, listed on iteration.

    ``len()`` counts them exactly on first use, without listing any: each
    cycle once, in the tile of plane rows that holds its highest node index
    (see ``_count``). ``index_blocks`` walks the plane one node x at a time,
    a block of candidate rows at a time, and yields the cycles as
    node-index arrays; iterating maps those to partitions. Each cycle comes
    once, smallest node (by value) first, sorted by ascending node values.
    """

    def __init__(self, graph: DominanceGraph) -> None:
        # The graph caches this object, so it keeps what it reads rather than
        # the graph: a reference cycle would keep a dropped graph's plane
        # alive until a garbage collector pass.
        self.beats, self.nodes = graph.beats, graph.nodes

    @cached_property
    def _count(self) -> int:
        """Cycles whose highest index lies in the row tile M = [b0, b1), summed
        over the tiles of the strict-edge adjacency A (the plane's bits),
        whose B rows come from _block_rows(n).

        Those wholly inside M number trace(A_MM^3) / 3. Every other one has
        exactly one rotation x -> y -> z with x in M, y < b0 and z < b1, so the
        rest of the tile's count is the sum, over column tiles C of [0, b1),
        of paths = A[M, :b0] @ A[:b0, C] under the mask A[C, M]^T. paths is
        summed over the y-slices Y of B rows below b0, A[M, Y] @ A[Y, C], as
        blocked matrix products split their inner index, so every operand is
        B x B and the work is still about n^3 / 3 multiply-adds. Four float32
        B x B tiles (left, right, product, paths) are made once and refilled
        in place: each tile of bits is unpacked and copied into one as 0/1,
        and each product goes into the product tile, so nothing grows with n.
        Every entry of paths counts two-step paths, at most n, so the float32
        sums are exact while n < 2^24; a larger graph is refused before the
        first tile. The masked sums are float64 and the traces at most
        1024^3, all far below 2^53, so exact.
        """
        plane = self.beats
        n = len(plane)
        if n >= 2**24:
            raise SpaceTooLargeError(
                f"{n} nodes: the 3-cycle count sums paths in float32, "
                f"which is exact only below 2^24 = {2**24} nodes"
            )

        def bits(tile: np.ndarray, r0: int, c0: int) -> np.ndarray:
            """``tile`` refilled with the bits of the plane's rows and columns
            from (r0, c0) on, as 0/1. c0 is a multiple of the block size, so
            column c0 starts byte c0 >> 3."""
            m, c = tile.shape
            np.copyto(tile, _row_bits(plane[r0 : r0 + m, c0 >> 3 :], c))
            return tile

        rows = _block_rows(n)
        side = min(rows, n)
        left, right, product, paths = np.empty((4, side, side), dtype=np.float32)
        count = 0
        for b0 in range(0, n, rows):
            b1 = min(b0 + rows, n)
            m = b1 - b0
            inside = bits(left[:m, :m], b0, b0)
            squared = np.matmul(inside, inside, out=product[:m, :m])
            count += int(np.einsum("ij,ji->", squared, inside, dtype=np.float64)) // 3
            for c0 in range(0, b1, rows):
                c = min(c0 + rows, b1) - c0
                summed = paths[:m, :c]
                summed.fill(0)
                for y0 in range(0, b0, rows):  # b0 is a multiple of rows
                    out = bits(left[:m], b0, y0)  # x beats y
                    on = bits(right[:, :c], y0, c0)  # y beats z
                    summed += np.matmul(out, on, out=product[:m, :c])
                closing = bits(right[:c, :m], c0, b0)  # z beats x
                count += int(np.einsum("ij,ji->", summed, closing, dtype=np.float64))
        return count

    def __len__(self) -> int:
        return self._count

    def index_blocks(self) -> Iterator[np.ndarray]:
        """The cycles (x, y, z) as (m, 3) int32 node-index arrays: one per x
        and per slice of _block_rows(n) of the nodes y that x beats, whose
        plane rows are read one slice at a time.

        With nodes in descending value order, the lexicographically
        smallest node of a cycle is its highest index x, so x runs from
        high to low, the slices of y descend, and within a block y and then
        z descend: the canonical order. Lazy: taking the first few cycles
        computes only the first blocks. Slices with no cycle yield no block.
        """
        plane = self.beats
        size = _block_rows(len(plane))
        for x in range(len(plane) - 1, -1, -1):
            ys = np.flatnonzero(_row_bits(plane[x : x + 1], x))[::-1]  # x beats y
            zs = np.flatnonzero(_column_bits(plane[:x], np.array([x])))[::-1]  # z beats x
            for part in _slices(len(ys), size):
                found = np.flatnonzero(_row_bits(plane[ys[part]], x)[:, zs])  # y beats z
                rows, cols = np.divmod(found, len(zs))
                del found
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
    the rows of the plane, searched backward from it within that set along
    the plane's columns: the nodes that beat i are the set bits of column i.
    """
    plane = graph.beats
    n = len(plane)

    def successors(block: np.ndarray | slice) -> np.ndarray:
        return _row_bits(plane[block], n)

    def predecessors(block: np.ndarray) -> np.ndarray:
        return _column_bits(plane, block).T

    rows = _block_rows(n)
    in_degree = np.zeros(n, dtype=np.intp)
    out_degree = np.empty(n, dtype=np.intp)
    for block in _slices(n, rows):
        beaten = successors(block)
        out_degree[block] = beaten.sum(axis=1)
        in_degree += beaten.sum(axis=0)
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
    """Nodes with no incoming strict edge, in node order: the clear bits of
    the OR of every plane row."""
    plane = graph.beats
    beaten = _row_bits(np.bitwise_or.reduce(plane, axis=0, keepdims=True), len(plane))
    return [graph.nodes[i] for i in np.flatnonzero(~beaten[0]).tolist()]


def counter_strategy(a: Allocation) -> tuple[Partition, int] | None:
    """Best same-cap answer to ``a``: a strict dominator of maximum margin.

    Ties on margin break to the lexicographically smallest partition.
    Returns None when nothing beats ``a``, which is a legitimate finding,
    not an error.
    """
    # Scored as value tuples, _RECORD_ROWS at a time: only the winner becomes
    # a Partition. A candidate's face v takes #{a's faces < v} - #{a's faces
    # > v} cells net: the sum of v's two searchsorted positions in a's sorted
    # faces, minus k. So the batch's margins over a are the row sums of
    # those positions minus k^2. Faces of 2^63 and up stay Python ints, as
    # in _margins. A later batch wins a tie, as the higher row does within one.
    exact = np.int64 if a.budget < 2**63 else object
    faces = np.array(sorted(a.values), dtype=exact)
    candidates = partition_tuples(a.budget, a.k)
    best = None
    while batch := list(islice(candidates, _RECORD_ROWS)):
        values = np.array(batch, dtype=exact)
        taken = np.searchsorted(faces, values, "left") + np.searchsorted(faces, values, "right")
        (row,), (value,) = _strongest_beaters(taken.sum(axis=1)[:, None] - a.k * a.k)
        if value > 0 and (best is None or value >= best[1]):
            best = batch[row], int(value)
    return None if best is None else (Partition(best[0]), best[1])


def best_counters(graph: DominanceGraph) -> list[CounterEntry]:
    """Per node, in node order, its maximum-margin strict dominator (same
    tie-break) and margin, or None for both.

    Same answer as running counter_strategy on every node, read off the
    margin kernel's column blocks: the nodes that beat node j are the
    positive entries of column j. A block's candidates are answered
    _block_rows(n) rows at a time, and a later slice of rows wins a tie, as
    in counter_strategy, so argmax copies only B x B values at a time.
    """
    nodes = graph.nodes
    n = len(nodes)
    size = _block_rows(n)
    rows = np.zeros(n, dtype=np.intp)
    values = np.full(n, -1, dtype=np.intp)  # a column's largest entry is >= 0, its node's own
    for part, block in _margins([p.values for p in nodes]):
        best_rows, best = rows[part], values[part]
        for candidates in _slices(n, size):
            found, value = _strongest_beaters(block[candidates])
            later = value >= best
            best_rows[later] = candidates.start + found[later]
            best[later] = value[later]
    del block  # a view of the kernel's buffer: free it before the entries are made
    return [
        CounterEntry(node, nodes[row], value) if value > 0 else CounterEntry(node, None, None)
        for node, row, value in zip(nodes, rows.tolist(), values.tolist())
    ]
