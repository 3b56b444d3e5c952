import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcycle import (
    Allocation,
    AllocationError,
    EmptyAllocationError,
    NegativeEntryError,
    Partition,
    SpaceTooLargeError,
    canonicalize,
    enumerate_compositions,
    enumerate_partitions,
    format_allocation,
    parse_allocation,
)
from capcycle.allocations import composition_count, partition_count

from . import _oracles

small_values = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6)


class TestAllocation:
    def test_basic_fields(self):
        a = Allocation((1, 1, 4))
        assert a.values == (1, 1, 4)
        assert a.budget == 6
        assert a.k == 3
        assert str(a) == "1,1,4"

    def test_zero_values_allowed(self):
        a = Allocation((0, 0))
        assert a.budget == 0
        assert a.k == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyAllocationError):
            Allocation(())

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            Allocation((3, -1))

    def test_non_integer_rejected(self):
        with pytest.raises(AllocationError):
            Allocation((1.5, 2))

    def test_new_allocation_accepts_iterables(self):
        assert Allocation(iter([2, 2, 2])) == Allocation((2, 2, 2))

    def test_errors_are_value_errors(self):
        # callers that only know ValueError still catch validation failures
        with pytest.raises(ValueError):
            Allocation((-1,))
        with pytest.raises(ValueError):
            parse_allocation("nope")


class TestPartition:
    def test_accepts_non_increasing(self):
        p = Partition((4, 2, 0))
        assert p.values == (4, 2, 0)

    def test_rejects_increasing(self):
        with pytest.raises(AllocationError):
            Partition((1, 1, 4))

    def test_is_an_allocation(self):
        assert isinstance(Partition((3, 3, 0)), Allocation)

    @given(small_values)
    def test_canonicalize_sorts_descending(self, values):
        p = canonicalize(Allocation(tuple(values)))
        assert p.values == tuple(sorted(values, reverse=True))
        assert p.budget == sum(values)

    @given(small_values)
    def test_canonicalize_idempotent(self, values):
        once = canonicalize(Allocation(tuple(values)))
        assert canonicalize(once) == once


class TestParsing:
    def test_parse_simple(self):
        assert parse_allocation("1,1,4").values == (1, 1, 4)

    def test_parse_tolerates_spaces(self):
        assert parse_allocation(" 3 , 3 , 0 ").values == (3, 3, 0)

    def test_parse_single_value(self):
        assert parse_allocation("6").values == (6,)

    def test_parse_empty_text(self):
        with pytest.raises(EmptyAllocationError):
            parse_allocation("")

    @pytest.mark.parametrize("text", ["1,x", "1.5,2", "1,,2", "3 3"])
    def test_parse_garbage(self, text):
        with pytest.raises(AllocationError):
            parse_allocation(text)

    def test_parse_negative(self):
        with pytest.raises(NegativeEntryError):
            parse_allocation("-1,7")

    @given(small_values)
    def test_format_parse_round_trip(self, values):
        a = Allocation(tuple(values))
        assert parse_allocation(format_allocation(a)) == a

    def test_format_accepts_bare_sequences(self):
        assert format_allocation([4, 2, 0]) == "4,2,0"


class TestCounts:
    def test_showcase_counts(self):
        assert composition_count(6, 3) == 28
        assert partition_count(6, 3) == 7

    @pytest.mark.parametrize("budget", range(0, 11))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_counts_match_enumeration(self, budget, k):
        assert composition_count(budget, k) == len(_oracles.compositions(budget, k))
        assert partition_count(budget, k) == len(_oracles.partitions(budget, k))

    def test_composition_count_formula(self):
        assert composition_count(40, 4) == math.comb(43, 3)

    def test_composition_count_is_exact_past_64_bits(self):
        assert composition_count(2**40, 7) == math.comb(2**40 + 6, 6)

    @pytest.mark.parametrize("func", [composition_count, partition_count])
    def test_counts_reject_bad_inputs(self, func):
        with pytest.raises(ValueError):
            func(-1, 3)
        with pytest.raises(ValueError):
            func(6, 0)

    def test_zero_budget(self):
        assert composition_count(0, 4) == 1
        assert partition_count(0, 4) == 1


class TestEnumeration:
    def test_compositions_match_oracle(self):
        got = [a.values for a in enumerate_compositions(6, 3)]
        assert sorted(got) == sorted(_oracles.compositions(6, 3))
        assert len(got) == len(set(got)) == 28

    def test_compositions_descending_order(self):
        got = [a.values for a in enumerate_compositions(5, 3)]
        assert got == sorted(got, reverse=True)

    def test_partitions_frozen_order(self):
        got = [p.values for p in enumerate_partitions(6, 3)]
        assert got == [
            (6, 0, 0),
            (5, 1, 0),
            (4, 2, 0),
            (4, 1, 1),
            (3, 3, 0),
            (3, 2, 1),
            (2, 2, 2),
        ]

    @pytest.mark.parametrize("budget", range(0, 11))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_partitions_match_oracle(self, budget, k):
        got = [p.values for p in enumerate_partitions(budget, k)]
        assert got == _oracles.partitions(budget, k)

    @given(st.integers(min_value=0, max_value=14), st.integers(min_value=1, max_value=4))
    def test_partitions_are_canonical_sums(self, budget, k):
        for p in enumerate_partitions(budget, k):
            assert p.budget == budget
            assert p.values == tuple(sorted(p.values, reverse=True))

    def test_single_category(self):
        assert [a.values for a in enumerate_compositions(9, 1)] == [(9,)]
        assert [p.values for p in enumerate_partitions(9, 1)] == [(9,)]

    def test_space_guard_compositions(self):
        with pytest.raises(SpaceTooLargeError):
            enumerate_compositions(6, 3, limit=27)
        assert len(enumerate_compositions(6, 3, limit=28)) == 28

    def test_space_guard_partitions(self):
        with pytest.raises(SpaceTooLargeError):
            enumerate_partitions(6, 3, limit=6)
        assert len(enumerate_partitions(6, 3, limit=7)) == 7

    def test_guard_message_names_the_space(self):
        with pytest.raises(SpaceTooLargeError, match="28 compositions"):
            enumerate_compositions(6, 3, limit=5)
