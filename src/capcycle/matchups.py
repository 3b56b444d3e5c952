"""Exact head-to-head matchup tables and their renderings.

Two allocations with k categories meet in k x k independent cells, one per
ordered pair of category values; the strictly larger value wins a cell.
A series goes to whichever side wins more cells, ties being neutral.
The grid, CSV and JSON that ``matchup`` prints are made here from the
table alone, and so is ``counter``'s answer, a scan of the same cap's
partitions. This module imports no numpy, so neither do those commands.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from functools import partial
from numbers import Rational
from typing import Any, NamedTuple

from .allocations import Allocation, Partition, partition_tuples
from .errors import AllTiesError, DimensionMismatchError

# Below this budget counter_strategy reads each value's score from a table
# of at most 32 KiB, a third faster than bisecting each face.
_TABLE_BUDGET = 4_096


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

    The counts are computed now, in one pass over a's values with two
    bisections each into b's sorted values: a face x beats the faces below
    it and ties those equal to it. Every comparison is between Python ints,
    so the counts stay exact past 2^63. The budgets need not match; the cap
    constraint lives at enumeration time, not here.
    """
    xs, ys = a.values, b.values
    k = len(xs)
    if len(ys) != k:
        raise DimensionMismatchError(
            f"allocations have different category counts: {a.k} vs {b.k}"
        )
    faces = sorted(ys)
    wins_a = at_most = 0
    for x in xs:
        wins_a += bisect_left(faces, x)
        at_most += bisect_right(faces, x)
    # _make skips the generated __new__, which a DOT export pays once an edge.
    return MatchupTable._make((xs, ys, wins_a, k * k - at_most, at_most - wins_a))


def win_probability(table: MatchupTable, policy: TiePolicy) -> Rational:
    """Exact per-game win probability for side A under a tie policy.

    REROLL conditions on decisive cells: wins_a / (wins_a + wins_b).
    NOGAME divides by all k**2 cells: wins_a / (wins_a + wins_b + ties).
    Always an exact rational, a Fraction.
    """
    from fractions import Fraction  # only simulate needs exact p

    if policy is TiePolicy.REROLL:
        decisive = table.wins_a + table.wins_b
        if decisive == 0:
            raise AllTiesError("every cell ties; reroll probability is undefined")
        return Fraction(table.wins_a, decisive)
    return Fraction(table.wins_a, table.wins_a + table.wins_b + table.ties)


def counter_strategy(a: Allocation) -> tuple[Partition, int] | None:
    """Best same-cap answer to ``a``: a strict dominator of maximum margin.

    Ties on margin break to the lexicographically smallest partition.
    Returns None when nothing beats ``a``, which is a legitimate finding,
    not an error.
    """
    # A candidate's face v nets #{a's faces f < v} - #{f > v} cells: its
    # bisection into the faces and the faces plus one, less k. Candidates
    # come in descending order, so the last of the largest margin is the
    # smallest partition, and only it becomes a Partition.
    taken = partial(bisect_right, sorted([*a.values, *(f + 1 for f in a.values)]))
    if a.budget < _TABLE_BUDGET:
        taken = list(map(taken, range(a.budget + 1))).__getitem__
    best, top = None, a.k * a.k + 1
    for c in partition_tuples(a.budget, a.k):
        cells = sum(map(taken, c))
        if cells >= top:
            best, top = c, cells
    return None if best is None else (Partition(best), top - a.k * a.k)


# ---------------------------------------------------------------------------
# matchup grid rendering


def _matchup_rows(
    table: MatchupTable, label_a: str, label_b: str, corner: str
) -> list[list[str]]:
    """The matchup grid as text rows: ``corner`` and b's values head the
    columns, then one row per a value x: x, then per b value y the winner,
    ``label_a`` if x > y, ``label_b`` if x < y, else "tie"."""
    ys = table.b_values
    return [[corner, *map(str, ys)]] + [
        [str(x), *(label_a if x > y else label_b if x < y else "tie" for y in ys)]
        for x in table.a_values
    ]


def emit_matchup_grid(table: MatchupTable, label_a: str = "A", label_b: str = "B") -> str:
    """Text grid of the table: b's values head the columns, a's the rows,
    each interior cell names the winning side or "tie"."""
    rows = _matchup_rows(table, label_a, label_b, f"{label_a}\\{label_b}")
    col_w = max(len(label_a), len(label_b), 3, *map(len, rows[0][1:]))
    head_w = max(len(row[0]) for row in rows)
    lines = [
        row[0].rjust(head_w) + " |" + "".join(f" {t.rjust(col_w)}" for t in row[1:])
        for row in rows
    ]
    lines.insert(1, "-" * head_w + "-+" + "-" * (len(table.b_values) * (col_w + 1)))
    return "\n".join(lines)


def _verdict(table: MatchupTable, label_a: str, label_b: str) -> str:
    """The long-series verdict: the side that wins more cells, or "draw"."""
    margin = table.wins_a - table.wins_b
    return label_a if margin > 0 else label_b if margin < 0 else "draw"


def matchup_summary_line(
    table: MatchupTable, label_a: str = "A", label_b: str = "B"
) -> str:
    """One-line tally plus the majority verdict."""
    return (
        f"{label_a} wins {table.wins_a}, {label_b} wins {table.wins_b}, "
        f"ties {table.ties}; outcome: {_verdict(table, label_a, label_b)}"
    )


def emit_matchup_csv(table: MatchupTable, label_a: str = "A", label_b: str = "B") -> str:
    """CSV grid of the table: header row/column carry its values, cells the winner."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_matchup_rows(table, label_a, label_b, ""))
    return buf.getvalue().rstrip("\n")


def matchup_json_dict(table: MatchupTable) -> dict[str, Any]:
    """The matchup as a dict for json.dumps; each budget is its side's sum."""
    return {
        "a": list(table.a_values),
        "b": list(table.b_values),
        "k": len(table.a_values),
        "a_budget": sum(table.a_values),
        "b_budget": sum(table.b_values),
        "wins_a": table.wins_a,
        "wins_b": table.wins_b,
        "ties": table.ties,
        "outcome": _verdict(table, "A", "B"),
        "cells": [row[1:] for row in _matchup_rows(table, "A", "B", "")[1:]],
    }
