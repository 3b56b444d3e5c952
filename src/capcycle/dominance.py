"""Strict-dominance digraph over all capped strategies.

Nodes are canonical partitions of the budget; a directed edge means the
winner takes strictly more matchup cells than the loser. The interesting
structure is the intransitive part: directed 3-cycles and nontrivial
strongly connected components, plus the set of strategies nothing beats.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .allocations import (
    DEFAULT_SPACE_LIMIT,
    Allocation,
    Partition,
    enumerate_partitions,
    partition_tuples,
)

Edge = tuple[int, int, int]  # (winner index, loser index, margin > 0)
Cycle = tuple[Partition, Partition, Partition]


@dataclass(frozen=True)
class DominanceGraph:
    """Exhaustive pairwise classification of the capped strategy space.

    The relation is held once: the n x n ``margin`` matrix, computed from
    the nodes at the narrowest exact integer dtype, and ``beats``, its
    strict-edge adjacency. Edges, draws, cycles, components, counters and
    the undominated set are views of these two.
    Every unordered node pair appears exactly once, either as a strict
    edge (with its positive win margin) or as a draw pair. Nodes are in
    lexicographically descending order, matching enumerate_partitions.
    """

    budget: int
    k: int
    nodes: tuple[Partition, ...]

    @cached_property
    def margin(self) -> np.ndarray:
        """margin[i, j] = cells node i takes from node j minus cells j takes from i."""
        values = [p.values for p in self.nodes]
        return _margins(values, values)

    @cached_property
    def beats(self) -> np.ndarray:
        """beats[i, j] is True when node i strictly beats node j."""
        return self.margin > 0

    def pair_blocks(self, strict: bool, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Index arrays (first, second) of the strict edges (winner, loser),
        or of the drawn pairs (first < second) when not ``strict``, made
        max(1, rows // n) matrix rows at a time.

        A block holds at most max(rows, n - 1) pairs, and may hold none.
        Concatenated, the blocks list every pair once, sorted by first and
        then second, and no index array of the whole listing is ever held.
        """
        n = len(self.nodes)
        step = max(1, rows // max(n, 1))
        for start in range(0, n, step):
            if strict:
                block = self.beats[start : start + step]
            else:  # row start + i draws column j > start + i
                block = np.triu(self.margin[start : start + step] == 0, start + 1)
            first, second = np.nonzero(block)
            first += start
            yield first, second

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Strict edges (winner, loser, margin), sorted by winner then loser."""
        # One matrix row a block: the tuples, not the arrays, are the cost.
        return tuple(
            edge
            for winners, losers in self.pair_blocks(True, 1)
            for edge in zip(
                winners.tolist(), losers.tolist(), self.margin[winners, losers].tolist()
            )
        )

    @cached_property
    def draw_pairs(self) -> tuple[tuple[int, int], ...]:
        """Drawn pairs (i, j) with i < j, sorted."""
        return tuple(
            pair
            for first, second in self.pair_blocks(False, 1)
            for pair in zip(first.tolist(), second.tolist())
        )


@dataclass(frozen=True)
class ClaimVerdict:
    """Whether every capped strategy has a strictly better same-cap answer.

    ``counterexamples`` lists the strategies with no strict dominator;
    the claim holds exactly when that list is empty.
    """

    holds: bool
    counterexamples: tuple[Partition, ...]
    budget: int
    k: int


def _margins(rows: Sequence[tuple[int, ...]], cols: Sequence[tuple[int, ...]]) -> np.ndarray:
    """margin[i, j] = cells rows[i] takes from cols[j] minus cells cols[j] takes back,
    where rows and cols hold allocations' value tuples.

    Score table: a face of rank v (among the distinct face values) nets
    score[j, v] against cols[j], the number of its faces below v minus
    the number above v. The table is as wide as the number of distinct
    faces, whatever the budget. The margin sums the scores of rows'
    faces, one face position at a time.
    """
    values = [*rows, *cols]
    # Faces of 2^63 and up are ranked as Python ints: a mix of those and
    # small values would otherwise be inferred as float64 and lose bits.
    exact = np.int64 if max(map(max, values)) < 2**63 else object
    faces = np.array(values, dtype=exact)
    distinct = np.unique(faces)
    ranks = np.searchsorted(distinct, faces)
    k = ranks.shape[1]
    # Every score is in [-k, k], and every partial sum of k of them in
    # [-k^2, k^2], so the smallest signed dtype that holds -k^2 is exact:
    # int8 for k <= 11, int16 for k <= 181.
    dtype = np.min_scalar_type(-k * k)
    # counts[j, v + 1] is how many faces of cols[j] have rank v, so below[j, v]
    # counts its faces under rank v and score = below - (k - faces up to v).
    # Each of these lies in [-k, 2k]: inside +-k^2 for k >= 2, and int8 holds
    # it at k = 1, so no intermediate is wider than the margin.
    counts = np.zeros((len(cols), len(distinct) + 1), dtype=dtype)
    for face in ranks[len(rows) :].T:
        counts[np.arange(len(cols)), face + 1] += 1  # one face per row: no pair repeats
    below = np.cumsum(counts, axis=1, dtype=dtype)
    score = below[:, :-1] + below[:, 1:] - k
    margin = np.zeros((len(rows), len(cols)), dtype=dtype)
    for face in ranks[: len(rows)].T:
        margin += score[:, face].T
    return margin


def _row_bitmasks(adjacency: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as an int whose bit j is adjacency[i, j]."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _best_dominators(margin: np.ndarray) -> list[tuple[int, int] | None]:
    """Per column j, (row, margin) of its largest positive margin, or None.

    Ties go to the highest row index: with rows in descending node order,
    that is the lexicographically smallest partition.
    """
    best_rows = len(margin) - 1 - np.argmax(margin[::-1], axis=0)
    best = margin[best_rows, np.arange(margin.shape[1])]
    return [
        (row, value) if value > 0 else None
        for row, value in zip(best_rows.tolist(), best.tolist())
    ]


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reachable(root: int, adjacency: list[int], allowed: int) -> int:
    """Bitmask of nodes reachable from ``root`` through nodes in ``allowed``."""
    seen = frontier = 1 << root
    while frontier:
        step = 0
        for i in _bits(frontier):
            step |= adjacency[i]
        frontier = step & allowed & ~seen
        seen |= frontier
    return seen


def build_graph(budget: int, k: int, limit: int = DEFAULT_SPACE_LIMIT) -> DominanceGraph:
    """Classify every pair of capped partitions into strict edges and draws."""
    graph = DominanceGraph(budget, k, tuple(enumerate_partitions(budget, k, limit)))
    graph.margin  # computed eagerly: building the graph includes the matrix
    return graph


class ThreeCycles:
    """The directed 3-cycles of a graph: counted exactly, listed on iteration.

    ``len()`` is trace(A^3) / 3 for the strict-edge adjacency A, computed
    on first use without listing anything. ``index_blocks`` walks the
    adjacency one row at a time and yields the cycles as node-index
    arrays; iterating maps those to partitions. Each cycle comes once,
    smallest node (by value) first, sorted by ascending node values.
    Compares equal to any sequence that holds the same cycles in the same
    order.
    """

    def __init__(self, graph: DominanceGraph) -> None:
        self.graph = graph

    @cached_property
    def _count(self) -> int:
        # Every entry of A @ A counts paths of length two, at most n < 2^24,
        # so the float32 product is exact; the trace sums at most n^3 < 2^53
        # in float64, so it is exact too. The matrices take at least n^2
        # bytes each, which keeps n far below both bounds.
        adjacency = self.graph.beats.astype(np.float32)
        two_paths = adjacency @ adjacency
        trace = np.einsum("ij,ji->", two_paths, adjacency, dtype=np.float64)
        return int(trace) // 3

    def __len__(self) -> int:
        return self._count

    def index_blocks(self) -> Iterator[np.ndarray]:
        """The cycles (x, y, z) as (m, 3) int32 node-index arrays, one per x.

        With nodes in descending value order, the lexicographically
        smallest node of a cycle is its highest index x, so x runs from
        high to low, and within a block y and then z descend: the
        canonical order. Lazy: taking the first few cycles computes only
        the first blocks. Rows with no cycle yield no block.
        """
        beats = self.graph.beats
        for x in range(len(beats) - 1, -1, -1):
            ys = np.flatnonzero(beats[x, :x])[::-1]  # x beats y
            zs = np.flatnonzero(beats[:x, x])[::-1]  # z beats x
            rows, cols = np.nonzero(beats[np.ix_(ys, zs)])  # y beats z
            if rows.size:
                block = np.empty((rows.size, 3), dtype=np.int32)
                block[:, 0] = x
                block[:, 1] = ys[rows]
                block[:, 2] = zs[cols]
                yield block

    def __iter__(self) -> Iterator[Cycle]:
        nodes = self.graph.nodes
        for block in self.index_blocks():
            # A block can hold thousands of cycles; converting it a slice at
            # a time keeps a short listing from building them all as ints.
            for start in range(0, len(block), 256):
                for x, y, z in block[start : start + 256].tolist():
                    yield nodes[x], nodes[y], nodes[z]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ThreeCycles) and other.graph == self.graph:
            return True
        if not isinstance(other, (ThreeCycles, Sequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # equal to lists, which are unhashable

    def __repr__(self) -> str:
        g = self.graph
        return f"ThreeCycles(budget={g.budget}, k={g.k}, count={len(self)})"


def find_three_cycles(graph: DominanceGraph) -> ThreeCycles:
    """All directed 3-cycles of ``graph``: ``len()`` counts them, iterating lists them."""
    return ThreeCycles(graph)


def strongly_connected_components(graph: DominanceGraph) -> list[tuple[int, ...]]:
    """SCCs over strict edges as sorted index tuples, ordered by smallest member.

    Forward-backward search: the component of the lowest unassigned node
    is what it reaches forward, searched backward from it within that set.
    """
    succ = _row_bitmasks(graph.beats)
    pred = _row_bitmasks(graph.beats.T)
    unassigned = (1 << len(graph.nodes)) - 1
    components = []
    while unassigned:
        root = (unassigned & -unassigned).bit_length() - 1
        forward = _reachable(root, succ, unassigned)
        component = _reachable(root, pred, forward)
        unassigned &= ~component
        components.append(tuple(_bits(component)))
    return components


def undominated(graph: DominanceGraph) -> list[Partition]:
    """Nodes with no incoming strict edge, in node order."""
    beaten = graph.beats.any(axis=0)
    return [graph.nodes[i] for i in np.flatnonzero(~beaten).tolist()]


def counter_strategy(
    a: Allocation, budget: int | None = None, limit: int = DEFAULT_SPACE_LIMIT
) -> tuple[Partition, int] | None:
    """Best same-cap answer to ``a``: a strict dominator of maximum margin.

    Ties on margin break to the lexicographically smallest partition.
    Returns None when nothing beats ``a``, which is a legitimate finding,
    not an error.
    """
    if budget is None:
        budget = a.budget
    elif budget != a.budget:
        raise ValueError(
            f"counter search budget {budget} must equal the allocation's budget {a.budget}"
        )
    # Ranked as value tuples: only the winner becomes a Partition.
    candidates = list(partition_tuples(budget, a.k, limit))
    (best,) = _best_dominators(_margins(candidates, [a.values]))
    return None if best is None else (Partition(candidates[best[0]]), best[1])


def best_counters(graph: DominanceGraph) -> list[tuple[Partition, int] | None]:
    """Per node, the maximum-margin strict dominator (same tie-break), or None.

    Same answer as running counter_strategy on every node, read off the
    columns of the margin matrix.
    """
    nodes = graph.nodes
    return [
        None if best is None else (nodes[best[0]], best[1])
        for best in _best_dominators(graph.margin)
    ]
