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
)

Edge = tuple[int, int, int]  # (winner index, loser index, margin > 0)
Cycle = tuple[Partition, Partition, Partition]


@dataclass(frozen=True)
class DominanceGraph:
    """Exhaustive pairwise classification of the capped strategy space.

    The relation is the n x n ``margin`` matrix, computed once from the
    nodes; edges, draws, adjacency bitmasks and counters are views of it.
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
        return _margins(self.nodes, self.nodes, self.budget)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Strict edges (winner, loser, margin), sorted by winner then loser."""
        winners, losers = np.nonzero(self.margin > 0)
        margins = self.margin[winners, losers]
        return tuple(zip(winners.tolist(), losers.tolist(), margins.tolist()))

    @cached_property
    def draw_pairs(self) -> tuple[tuple[int, int], ...]:
        """Drawn pairs (i, j) with i < j, sorted."""
        first, second = np.nonzero(np.triu(self.margin == 0, k=1))
        return tuple(zip(first.tolist(), second.tolist()))

    @cached_property
    def _succ_masks(self) -> list[int]:
        return _row_bitmasks(self.margin > 0)

    @cached_property
    def _pred_masks(self) -> list[int]:
        return _row_bitmasks(self.margin < 0)


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


def _margins(
    rows: Sequence[Allocation], cols: Sequence[Allocation], budget: int
) -> np.ndarray:
    """margin[i, j] = cells rows[i] takes from cols[j] minus cells cols[j] takes back.

    Histogram trick: a face showing v nets score[j, v] against cols[j], the
    number of its faces below v minus the number above v, read off the
    cumulative face-count histogram over values 0..budget. The margin is
    the product of rows' histograms with that score table, summed one face
    position at a time so the row histograms are never built. All
    arithmetic is int64, so the counts are exact.
    """
    cols_values = np.array([a.values for a in cols], dtype=np.int64)
    n_cols, k = cols_values.shape
    width = budget + 1
    offsets = np.arange(n_cols)[:, None] * width
    counts = np.bincount((offsets + cols_values).ravel(), minlength=n_cols * width)
    counts = counts.reshape(n_cols, width)
    at_most = np.cumsum(counts, axis=1)
    score = (at_most - counts) - (k - at_most)

    rows_values = np.array([a.values for a in rows], dtype=np.int64)
    margin = np.zeros((len(rows), n_cols), dtype=np.int64)
    for face in rows_values.T:
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
    last = margin.shape[0] - 1
    best_rows = last - np.argmax(margin[::-1], axis=0)
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
        # in float64, so it is exact too. The int64 margin matrix (8 n^2
        # bytes) keeps n far below both bounds.
        adjacency = (self.graph.margin > 0).astype(np.float32)
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
        margin = self.graph.margin
        for x in range(len(margin) - 1, -1, -1):
            row = margin[x, :x]
            ys = np.flatnonzero(row > 0)[::-1]  # x beats y
            zs = np.flatnonzero(row < 0)[::-1]  # z beats x
            rows, cols = np.nonzero(margin[np.ix_(ys, zs)] > 0)  # y beats z
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
    succ, pred = graph._succ_masks, graph._pred_masks
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
    beaten = (graph.margin > 0).any(axis=0)
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
    candidates = enumerate_partitions(budget, a.k, limit)
    (best,) = _best_dominators(_margins(candidates, [a], budget))
    return None if best is None else (candidates[best[0]], best[1])


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
