"""Exact head-to-head matchup tables and the majority series rule.

Two allocations with k categories meet in k x k independent cells, one per
ordered pair of category values; the strictly larger value wins a cell.
A series goes to whichever side wins more cells, ties being neutral.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .allocations import Allocation
from .errors import AllTiesError, DimensionMismatchError


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


class MatchupTable(NamedTuple):
    """The matchup between two allocations: both sides' values and the
    aggregate cell counts, computed when the table is made.

    Tables compare and hash by both sides' values and the counts, so two
    matchups with the same grid but different salaries are not equal.
    """

    a_values: tuple[int, ...]
    b_values: tuple[int, ...]
    wins_a: int
    wins_b: int
    ties: int


def matchup_table(a: Allocation, b: Allocation) -> MatchupTable:
    """Compare every category of ``a`` against every category of ``b``.

    The counts are computed now, by bisecting b's sorted values: a face x
    beats the faces below it and ties those equal to it. Every comparison
    is between Python ints, so the counts stay exact past 2^63. The
    budgets need not match; the cap constraint lives at enumeration time,
    not here.
    """
    xs, ys = a.values, b.values
    k = len(xs)
    if len(ys) != k:
        raise DimensionMismatchError(
            f"allocations have different category counts: {a.k} vs {b.k}"
        )
    faces = sorted(ys)
    wins_a = sum(map(bisect_left, repeat(faces, k), xs))
    at_most = sum(map(bisect_right, repeat(faces, k), xs))
    return MatchupTable(xs, ys, wins_a, k * k - at_most, at_most - wins_a)


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
    NOGAME divides by all k**2 cells: wins_a / (wins_a + wins_b + ties).
    Always an exact rational.
    """
    if policy is TiePolicy.REROLL:
        decisive = table.wins_a + table.wins_b
        if decisive == 0:
            raise AllTiesError("every cell ties; reroll probability is undefined")
        return Fraction(table.wins_a, decisive)
    return Fraction(table.wins_a, table.wins_a + table.wins_b + table.ties)
