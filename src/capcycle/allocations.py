"""Budget allocations and enumeration of the capped strategy space.

An :class:`Allocation` divides an integer budget into ``k`` nonnegative
integer category salaries; it doubles as a ``k``-faced die whose faces are
the salary values. A :class:`Partition` is the canonical (non-increasing)
representative of an allocation's permutation class. Matchup counts only
depend on the multiset of values, so partitions index the strategy space
without loss.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import AllocationError, SpaceTooLargeError

# Enumeration guard: refuse to materialize strategy spaces bigger than this,
# unless the CAPCYCLE_MAX_SPACE environment variable sets another limit.
DEFAULT_SPACE_LIMIT = 100_000_000


@dataclass(frozen=True)
class Allocation:
    """An ordered division of a budget into nonnegative integer salaries."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if len(vals) == 0:
            raise AllocationError("allocation needs at least one category")
        checked = []
        for v in vals:
            try:
                v = operator.index(v)
            except TypeError:
                raise AllocationError(f"salaries must be whole numbers, got {v!r}") from None
            if v < 0:
                raise AllocationError(f"salaries must be nonnegative, got {v}")
            checked.append(v)
        object.__setattr__(self, "values", tuple(checked))

    @property
    def budget(self) -> int:
        return sum(self.values)

    @property
    def k(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return format_allocation(self)


class Partition(Allocation):
    """An allocation in canonical non-increasing order."""

    def __post_init__(self) -> None:
        super().__post_init__()
        vals = self.values
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise AllocationError(f"partition values must be non-increasing, got {vals}")


def parse_allocation(text: str) -> Allocation:
    """Parse the comma-separated text form, e.g. ``"1,1,4"``.

    Raises :class:`AllocationError` on malformed input, and on a budget
    with more digits than ``sys.get_int_max_str_digits()`` lets an int
    turn into text, since no output could print it.
    """
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise AllocationError("empty allocation text")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise AllocationError(
                f"allocation entries must be whole numbers, got {tok!r} in {text!r}"
            ) from None
    allocation = Allocation(tuple(values))
    try:
        str(allocation.budget)
    except ValueError:
        raise AllocationError("the budget has too many digits to print") from None
    return allocation


def format_allocation(a: Allocation | Sequence[int]) -> str:
    """Render values in the comma-separated text form used everywhere."""
    values = a.values if isinstance(a, Allocation) else tuple(a)
    return ",".join(map(str, values))


def _space_limit() -> int:
    """The enumeration limit: CAPCYCLE_MAX_SPACE, a nonnegative integer, or
    DEFAULT_SPACE_LIMIT when it is unset. Read by each guard as it runs, so
    library calls and the CLI honour the same setting."""
    raw = os.environ.get("CAPCYCLE_MAX_SPACE")
    if raw is None:
        return DEFAULT_SPACE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"CAPCYCLE_MAX_SPACE must be a nonnegative integer, got {raw!r}")
    return limit


def _check_budget_k(budget: int, k: int) -> None:
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def composition_count(budget: int, k: int) -> int:
    """Count ordered k-part divisions of the budget: C(budget+k-1, k-1), exactly."""
    _check_budget_k(budget, k)
    return math.comb(budget + k - 1, k - 1)


def partition_count(budget: int, k: int, limit: int = DEFAULT_SPACE_LIMIT) -> int:
    """Count partitions of the budget into at most ``k`` nonzero parts.

    Equals the number of non-increasing k-tuples summing to the budget
    (trailing zeros pad shorter partitions). Exact up to ``limit``, by
    closed forms up to two parts and the standard parts-bounded
    recurrence above that. A count over ``limit`` may come back as a
    lower bound that is over it too: the lower bounds are checked before
    any list is made, and the recurrence stops once it passes the limit,
    so the work stays bounded whatever the budget.
    """
    _check_budget_k(budget, k)
    parts = min(k, budget)  # a partition of the budget has at most budget parts
    if parts <= 2:
        return budget // 2 + 1 if parts == 2 else 1
    # Lower bounds: the partitions into at most 3 parts, and the
    # compositions into `parts` parts over parts!, since a partition comes
    # from at most parts! of them.
    three_parts = ((budget + 3) ** 2 + 6) // 12
    if three_parts > limit:
        return three_parts
    at_least = -(-math.comb(budget + parts - 1, parts - 1) // math.factorial(parts))
    if at_least > limit:
        return at_least
    # Conjugate view: partitions into at most k parts == partitions into
    # parts of size at most k. The count only grows with each part size.
    counts = [1] + [0] * budget
    for part in range(1, parts + 1):
        for n in range(part, budget + 1):
            counts[n] += counts[n - part]
        if counts[budget] > limit:
            break
    return counts[budget]


def _descending_tuples(budget: int, k: int, capped: bool) -> Iterator[tuple[int, ...]]:
    """Every k-tuple of nonnegative ints summing to the budget, in
    lexicographically descending order; with ``capped``, only the
    non-increasing ones.

    Not recursive, so k may be any size. The head (every part but the
    last two) steps to the next one by dropping its rightmost part that
    can drop by one and refilling the parts after it greedily, each as
    large as allowed: capped by the dropped part for partitions. The last
    two parts run through every split of what the head leaves.
    """
    if k == 1:
        yield (budget,)
        return
    head = ([budget] + [0] * k)[: k - 2]
    rest = budget - sum(head)
    while True:
        cap = head[-1] if capped and head else rest
        low = (rest + 1) // 2 if capped else 0
        prefix = tuple(head)
        for a in range(min(cap, rest), low - 1, -1):
            yield (*prefix, a, rest - a)
        tail = rest + 1  # what follows part i once it drops by one
        for i in range(len(head) - 1, -1, -1):
            part = head[i] - 1
            if part >= 0 and (not capped or part * (k - 1 - i) >= tail):
                break
            tail += head[i]
        else:
            return
        head[i] = part
        for j in range(i + 1, len(head)):
            head[j] = min(part, tail) if capped else tail
            tail -= head[j]
        rest = tail


def composition_tuples(budget: int, k: int) -> Iterator[tuple[int, ...]]:
    """All ordered k-tuples of nonnegative ints summing to the budget, in
    lexicographically descending order, made as they are read: the lines
    that ``enumerate`` prints.

    Raises SpaceTooLargeError when called, before any tuple is made, if
    there are more of them than the enumeration limit (see _space_limit).
    """
    limit = _space_limit()
    count = composition_count(budget, k)
    if count > limit:
        raise SpaceTooLargeError(
            f"{count} compositions for budget {budget}, k {k} exceeds limit {limit}"
        )
    return _descending_tuples(budget, k, capped=False)


def partition_tuples(budget: int, k: int) -> Iterator[tuple[int, ...]]:
    """The value tuples of enumerate_partitions, made as they are read;
    refuses above the enumeration limit as composition_tuples does."""
    limit = _space_limit()
    count = partition_count(budget, k, limit)
    if count > limit:
        raise SpaceTooLargeError(
            f"at least {count} partitions for budget {budget}, k {k} exceeds limit {limit}"
        )
    return _descending_tuples(budget, k, capped=True)


def enumerate_partitions(budget: int, k: int) -> list[Partition]:
    """All non-increasing k-tuples summing to the budget, lexicographically
    descending: the lines that ``enumerate --partitions`` prints, and the
    nodes of the dominance graph.
    """
    return [Partition(values) for values in partition_tuples(budget, k)]
