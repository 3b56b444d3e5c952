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
from itertools import chain

import numpy as np

from .allocations import Partition, composition_count, enumerate_partitions
from .errors import DimensionMismatchError, SpaceTooLargeError

Edge = tuple[int, int, int]  # (winner index, loser index, margin > 0)
Cycle = tuple[Partition, Partition, Partition]

# Pairs handled at a time: a block of the edge and draw listings. The DOT
# and JSON listings are written in pieces bounded in bytes instead
# (report._PIECE_BYTES), at most one block each. A block takes a few hundred
# KB whatever the space's size.
_RECORD_ROWS = 8_192


def _block_rows(n: int) -> int:
    """Rows or columns of a matrix over n nodes that a stage reads or fills
    at once: the margin kernel's column blocks and the score-table rows it
    gathers, the 3-cycle count tiles, the 3-cycle walk's candidate rows,
    the rows SCC tests against a node set, and, B / 8 at a time, the
    counter table's candidate rows. The largest power of two at most n / 8,
    clamped to [128, 1024], so 128 at the 1,206 nodes of (30, 6) and 512 at
    the 8,037 of (100, 4). It is a multiple of 8, so a block of columns
    fills whole bytes of the sign plane.

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
    einsum's fixed 130 KB of cast buffers; the counter table's, with c = 1,
    an intp key tile of B / 8 x B keys beside the kernel's block.
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

    def __post_init__(self) -> None:
        for node in self.nodes:
            if node.k != self.k:
                raise DimensionMismatchError(f"node {node} has {node.k} values, not k = {self.k}")

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
    # Faces are ranked as Python ints, so every face stays exact, and by
    # sorted: a process's first numpy sort adds 384 KB to its peak RSS. The
    # ranks take the narrowest dtype that holds them: each pass holds them
    # whole. fromiter reads n * k faces, so DominanceGraph checks each length.
    n, k = len(values), len(values[0])
    rank = {face: r for r, face in enumerate(sorted({f for v in values for f in v}))}
    faces = map(rank.__getitem__, chain.from_iterable(values))
    ranks = np.fromiter(faces, np.min_scalar_type(len(rank) - 1), n * k).reshape(n, k)
    # Every score is in [-k, k], and every partial sum of k of them in
    # [-k^2, k^2], so the smallest signed dtype that holds -k^2 is exact:
    # int8 for k <= 11, int16 for k <= 181.
    dtype = np.min_scalar_type(-k * k)
    size = _block_rows(n)
    levels = np.arange(len(rank), dtype=ranks.dtype)[:, None]
    margin = np.empty((n, min(size, n)), dtype=dtype)  # refilled for every block
    for part in _slices(n, size):
        columns = ranks[part]
        score = np.zeros((len(rank), len(columns)), dtype=dtype)
        # The comparisons are added as 0/1 int8 bytes: adding bools to int8
        # casts through a buffer, which raised the peak RSS of (30, 6) 128 KB.
        for face in columns.T:
            score += (levels > face).view(np.int8)
            score -= (levels < face).view(np.int8)
        block = margin[:, : len(columns)]
        block.fill(0)
        for rows in _slices(n, size):
            total = block[rows]
            for face in ranks[rows].T:
                total += score[face]
        yield part, block


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


def _beaten(plane: np.ndarray, among: np.ndarray) -> np.ndarray:
    """Mask of the nodes that some node of the mask ``among`` beats: the set
    bits of the OR of those nodes' plane rows, which copies no row."""
    union = np.bitwise_or.reduce(plane, axis=0, where=among[:, None], keepdims=True)
    return _row_bits(union, len(plane))[0]


def _beating(plane: np.ndarray, among: np.ndarray) -> np.ndarray:
    """Mask of the nodes that beat some node of the mask ``among``: the plane
    rows that share a bit with np.packbits(among), read _block_rows(n) rows
    at a time."""
    n = len(plane)
    packed = np.packbits(among)
    found = np.empty(n, dtype=bool)
    for rows in _slices(n, _block_rows(n)):
        np.any(plane[rows] & packed, axis=1, out=found[rows])
    return found


def strongly_connected_components(graph: DominanceGraph) -> list[tuple[int, ...]]:
    """SCCs over strict edges as sorted index tuples, ordered by smallest member.

    Two steps over node masks do all the work: the nodes that a set beats
    (_beaten) and the nodes that beat it (_beating). While some unassigned
    node has no in-edge or no out-edge from the unassigned nodes, each such
    node is its own component: the trim step of McLendon et al. (JPDC
    2005). Otherwise forward-backward search (Fleischer, Hendrickson &
    Pinar, 2000) takes the component of the lowest unassigned node: what
    it reaches forward, searched backward from it within that set.
    """
    plane = graph.beats

    def reach(step: Callable[..., np.ndarray], allowed: np.ndarray) -> np.ndarray:
        """Mask of the nodes that the lowest node of allowed reaches within
        it, one step of the whole frontier at a time."""
        seen = np.zeros_like(allowed)
        seen[np.argmax(allowed)] = True
        frontier = seen
        while frontier.any():
            frontier = step(plane, frontier) & allowed & ~seen
            seen |= frontier
        return seen

    unassigned = np.ones(len(plane), dtype=bool)
    components = []
    while unassigned.any():
        assigned = unassigned & ~(_beaten(plane, unassigned) & _beating(plane, unassigned))
        if assigned.any():  # trimmed: each is its own component
            components += ((i,) for i in np.flatnonzero(assigned).tolist())
        else:  # the lowest unassigned node is also the lowest that it reaches
            assigned = reach(_beating, reach(_beaten, unassigned))
            components.append(tuple(np.flatnonzero(assigned).tolist()))
        unassigned &= ~assigned
    components.sort()
    return components


def undominated(graph: DominanceGraph) -> list[Partition]:
    """Nodes with no incoming strict edge, in node order: those no node beats."""
    beaten = _beaten(graph.beats, np.ones(len(graph.nodes), dtype=bool))
    return [graph.nodes[i] for i in np.flatnonzero(~beaten).tolist()]


def best_counters(graph: DominanceGraph) -> list[CounterEntry]:
    """Per node, in node order, its maximum-margin strict dominator and
    margin, or None for both.

    Same answer as running matchups.counter_strategy on every node, read off
    the margin kernel's column blocks: the nodes that beat node j are the
    positive entries of column j. Each entry becomes one intp key, margin *
    n + row, and each column keeps its largest key: the largest margin and,
    among equal margins, the highest row, which in descending node order is
    the lexicographically smallest partition, the one that
    counter_strategy's scan keeps last. np.divmod gives back the margin, at
    least the 0 of the node's own entry, and the row. Keys are made max(1,
    _block_rows(n) // 8) rows at a time, so a key tile takes B^2 bytes, from
    the last row up: a block is done once each column holds a key of its
    largest entry.
    """
    nodes = graph.nodes
    n = len(nodes)
    keys, index = np.zeros(n, dtype=np.intp), np.arange(n)[:, None]
    upward = list(_slices(n, max(1, _block_rows(n) // 8)))[::-1]
    for part, block in _margins([p.values for p in nodes]):
        best, top = keys[part], block.max(axis=0).astype(np.intp) * n
        for rows in upward:
            tile = block[rows].astype(np.intp)
            tile *= n
            tile += index[rows]
            np.maximum(best, tile.max(axis=0), out=best)
            if (best >= top).all():
                break
    del block  # a view of the kernel's buffer: free it before the entries are made
    margins, rows = np.divmod(keys, n)
    return [
        CounterEntry(node, nodes[row], margin) if margin > 0 else CounterEntry(node, None, None)
        for node, row, margin in zip(nodes, rows.tolist(), margins.tolist())
    ]
