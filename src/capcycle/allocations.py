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
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    AllocationError,
    EmptyAllocationError,
    NegativeEntryError,
    SpaceTooLargeError,
)

# Enumeration guard: refuse to materialize strategy spaces bigger than this.
DEFAULT_SPACE_LIMIT = 100_000_000

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class Allocation:
    """An ordered division of a budget into nonnegative integer salaries."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if len(vals) == 0:
            raise EmptyAllocationError("allocation needs at least one category")
        checked = []
        for v in vals:
            if not isinstance(v, numbers.Integral):
                raise AllocationError(f"salaries must be whole numbers, got {v!r}")
            v = int(v)
            if v < 0:
                raise NegativeEntryError(f"salaries must be nonnegative, got {v}")
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


def canonicalize(a: Allocation) -> Partition:
    """Sort an allocation's values into non-increasing canonical order."""
    return Partition(tuple(sorted(a.values, reverse=True)))


def parse_allocation(text: str) -> Allocation:
    """Parse the comma-separated text form, e.g. ``"1,1,4"``.

    Raises :class:`AllocationError` (or a subclass) on malformed input.
    """
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise EmptyAllocationError("empty allocation text")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise AllocationError(
                f"allocation entries must be whole numbers, got {tok!r} in {text!r}"
            ) from None
    return Allocation(tuple(values))


def format_allocation(a: Allocation | Sequence[int]) -> str:
    """Render values in the comma-separated text form used everywhere."""
    values = a.values if isinstance(a, Allocation) else tuple(a)
    return ",".join(str(v) for v in values)


def _check_budget_k(budget: int, k: int) -> None:
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def composition_count(budget: int, k: int) -> int:
    """Count ordered k-part divisions of the budget: C(budget+k-1, k-1).

    Raises ``OverflowError`` if the exact count exceeds the unsigned 64-bit
    range, which keeps the value usable as a size in any runtime.
    """
    _check_budget_k(budget, k)
    count = math.comb(budget + k - 1, k - 1)
    if count > _UINT64_MAX:
        raise OverflowError(f"composition count for ({budget}, {k}) exceeds 64-bit range")
    return count


@lru_cache(maxsize=None)
def partition_count(budget: int, k: int) -> int:
    """Count partitions of the budget into at most ``k`` nonzero parts.

    Equals the number of non-increasing k-tuples summing to the budget
    (trailing zeros pad shorter partitions). Computed by the standard
    parts-bounded recurrence, exactly.
    """
    _check_budget_k(budget, k)
    # Conjugate view: partitions into at most k parts == partitions into
    # parts of size at most k.
    counts = [1] + [0] * budget
    for part in range(1, k + 1):
        for n in range(part, budget + 1):
            counts[n] += counts[n - part]
    return counts[budget]


def _compositions(budget: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (budget,)
        return
    for first in range(budget, -1, -1):
        for rest in _compositions(budget - first, k - 1):
            yield (first,) + rest


def _partitions(budget: int, k: int, cap: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        if budget <= cap:
            yield (budget,)
        return
    for first in range(min(budget, cap), -1, -1):
        if first * k < budget:
            return
        for rest in _partitions(budget - first, k - 1, first):
            yield (first,) + rest


def composition_tuples(
    budget: int, k: int, limit: int = DEFAULT_SPACE_LIMIT
) -> Iterator[tuple[int, ...]]:
    """The value tuples of enumerate_compositions, made as they are read.

    Raises SpaceTooLargeError when called, before any tuple is made, if
    there are more than ``limit`` of them.
    """
    _check_budget_k(budget, k)
    count = math.comb(budget + k - 1, k - 1)
    if count > limit:
        raise SpaceTooLargeError(
            f"{count} compositions for budget {budget}, k {k} exceeds limit {limit}"
        )
    return _compositions(budget, k)


def partition_tuples(
    budget: int, k: int, limit: int = DEFAULT_SPACE_LIMIT
) -> Iterator[tuple[int, ...]]:
    """The value tuples of enumerate_partitions, made as they are read;
    refuses above ``limit`` as composition_tuples does."""
    _check_budget_k(budget, k)
    count = partition_count(budget, k)
    if count > limit:
        raise SpaceTooLargeError(
            f"{count} partitions for budget {budget}, k {k} exceeds limit {limit}"
        )
    return _partitions(budget, k, budget)


def enumerate_compositions(
    budget: int, k: int, limit: int = DEFAULT_SPACE_LIMIT
) -> list[Allocation]:
    """All ordered k-tuples summing to the budget, lexicographically descending."""
    return [Allocation(values) for values in composition_tuples(budget, k, limit)]


def enumerate_partitions(
    budget: int, k: int, limit: int = DEFAULT_SPACE_LIMIT
) -> list[Partition]:
    """All non-increasing k-tuples summing to the budget, lexicographically descending.

    This is the deduplicated image of :func:`enumerate_compositions` under
    :func:`canonicalize`.
    """
    return [Partition(values) for values in partition_tuples(budget, k, limit)]
