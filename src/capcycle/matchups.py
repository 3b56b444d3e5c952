"""Exact head-to-head matchup tables and the majority series rule.

Two allocations with k categories meet in k x k independent cells, one per
ordered pair of category values; the strictly larger value wins a cell.
A series goes to whichever side wins more cells, ties being neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

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
    """The k x k cell grid between two allocations, with aggregate counts."""

    cells: tuple[tuple[Cell, ...], ...]
    wins_a: int
    wins_b: int
    ties: int
    k: int


def require_same_k(a: Allocation, b: Allocation) -> None:
    """Raise DimensionMismatchError unless both sides have the same k."""
    if a.k != b.k:
        raise DimensionMismatchError(
            f"allocations have different category counts: {a.k} vs {b.k}"
        )


def matchup_table(a: Allocation, b: Allocation) -> MatchupTable:
    """Compare every category of ``a`` against every category of ``b``.

    The budgets need not match; the cap constraint lives at enumeration
    time, not here.
    """
    require_same_k(a, b)
    wins_a = wins_b = ties = 0
    rows = []
    for x in a.values:
        row = []
        for y in b.values:
            if x > y:
                row.append(Cell.A_WIN)
                wins_a += 1
            elif x < y:
                row.append(Cell.B_WIN)
                wins_b += 1
            else:
                row.append(Cell.TIE)
                ties += 1
        rows.append(tuple(row))
    return MatchupTable(tuple(rows), wins_a, wins_b, ties, a.k)


def series_outcome(table: MatchupTable) -> SeriesOutcome:
    """Majority rule: more cell wins takes the series; equal counts draw."""
    if table.wins_a > table.wins_b:
        return SeriesOutcome.A_WINS
    if table.wins_b > table.wins_a:
        return SeriesOutcome.B_WINS
    return SeriesOutcome.DRAW


def dominates(a: Allocation, b: Allocation) -> bool:
    """True iff ``a`` strictly wins the series against ``b``."""
    return series_outcome(matchup_table(a, b)) is SeriesOutcome.A_WINS


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
