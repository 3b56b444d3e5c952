"""Exact head-to-head matchup tables and the majority series rule.

Two allocations with k categories meet in k x k independent cells, one per
ordered pair of category values; the strictly larger value wins a cell.
A series goes to whichever side wins more cells, ties being neutral.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import repeat

from .allocations import Allocation
from .errors import AllTiesError, DimensionMismatchError


class Cell(Enum):
    """Outcome of a single category-vs-category comparison."""

    A_WIN = "A"
    B_WIN = "B"
    TIE = "tie"


class SeriesOutcome(Enum):
    """Majority verdict over all k*k cells."""

    A_WINS = "A"
    B_WINS = "B"
    DRAW = "draw"


class TiePolicy(Enum):
    """How tied cells are treated when sampling individual games.

    REROLL conditions on decisive cells (sudden-death reroll); NOGAME keeps
    tied rolls on the books but excludes them from win frequencies. The
    policy never changes the analytic series outcome, which compares raw
    decisive counts.
    """

    REROLL = "reroll"
    NOGAME = "nogame"


@dataclass(frozen=True)
class MatchupTable:
    """The matchup between two allocations: aggregate cell counts, computed
    when the table is made, and the k x k cell grid, built on first read.

    Tables compare and hash by both sides' values and the counts, so two
    matchups with the same grid but different salaries are not equal.
    matchup_table makes one per call without running the generated
    ``__init__`` (see _table): the fields go straight into the instance
    dict, which is what that ``__init__`` fills, so the table is the same
    object either way.
    """

    a_values: tuple[int, ...]
    b_values: tuple[int, ...]
    wins_a: int
    wins_b: int
    ties: int
    k: int

    @cached_property
    def cells(self) -> tuple[tuple[Cell, ...], ...]:
        """Row i, column j: the outcome of a's i-th value against b's j-th."""
        return tuple(
            tuple(
                Cell.A_WIN if x > y else Cell.B_WIN if x < y else Cell.TIE
                for y in self.b_values
            )
            for x in self.a_values
        )


def require_same_k(a: Allocation, b: Allocation) -> None:
    """Raise DimensionMismatchError unless both sides have the same k."""
    if a.k != b.k:
        raise DimensionMismatchError(
            f"allocations have different category counts: {a.k} vs {b.k}"
        )


def _table(
    a_values: tuple[int, ...],
    b_values: tuple[int, ...],
    wins_a: int,
    wins_b: int,
    ties: int,
    k: int,
) -> MatchupTable:
    """MatchupTable(a_values, b_values, wins_a, wins_b, ties, k), made without
    its generated ``__init__``.

    Being frozen, that ``__init__`` sets each field through
    object.__setattr__, a third of a matchup_table call. MatchupTable has
    no slots, defaults or __post_init__, so its ``__init__`` does nothing
    but fill the instance dict in field order; filling it here in the
    same order gives a table that compares, hashes, prints and caches
    ``cells`` exactly as the constructed one.
    """
    table = object.__new__(MatchupTable)
    vars(table).update(
        a_values=a_values, b_values=b_values, wins_a=wins_a, wins_b=wins_b, ties=ties, k=k
    )
    return table


def matchup_table(a: Allocation, b: Allocation) -> MatchupTable:
    """Compare every category of ``a`` against every category of ``b``.

    The counts are computed now, by bisecting b's sorted values: a face x
    beats the faces below it and ties those equal to it. Every comparison
    is between Python ints, so the counts stay exact past 2^63. The
    ``cells`` grid is built on first read. The budgets need not match; the
    cap constraint lives at enumeration time, not here.
    """
    xs, ys = a.values, b.values
    k = len(xs)
    if len(ys) != k:
        require_same_k(a, b)
    faces = sorted(ys)
    wins_a = sum(map(bisect_left, repeat(faces, k), xs))
    at_most = sum(map(bisect_right, repeat(faces, k), xs))
    return _table(xs, ys, wins_a, k * k - at_most, at_most - wins_a, k)


def series_outcome(table: MatchupTable) -> SeriesOutcome:
    """Majority rule: more cell wins takes the series; equal counts draw."""
    if table.wins_a > table.wins_b:
        return SeriesOutcome.A_WINS
    if table.wins_b > table.wins_a:
        return SeriesOutcome.B_WINS
    return SeriesOutcome.DRAW


def win_probability(table: MatchupTable, policy: TiePolicy) -> Fraction:
    """Exact per-game win probability for side A under a tie policy.

    REROLL conditions on decisive cells: wins_a / (wins_a + wins_b).
    NOGAME divides by all cells: wins_a / k**2. Always an exact rational.
    """
    if policy is TiePolicy.REROLL:
        decisive = table.wins_a + table.wins_b
        if decisive == 0:
            raise AllTiesError("every cell ties; reroll probability is undefined")
        return Fraction(table.wins_a, decisive)
    return Fraction(table.wins_a, table.k * table.k)
