import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcycle import (
    Allocation,
    AllocationError,
    Partition,
    SpaceTooLargeError,
    enumerate_partitions,
    format_allocation,
    parse_allocation,
)
from capcycle.allocations import composition_count, composition_tuples, partition_count

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
        with pytest.raises(AllocationError, match="allocation needs at least one category"):
            Allocation(())

    def test_negative_rejected(self):
        with pytest.raises(AllocationError, match="salaries must be nonnegative, got -1"):
            Allocation((3, -1))

    def test_non_integer_rejected(self):
        with pytest.raises(AllocationError):
            Allocation((1.5, 2))

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ((1, 2.0, -1), AllocationError, "salaries must be whole numbers, got 2.0"),
            ((1, -1, 2.0), AllocationError, "salaries must be nonnegative, got -1"),
            ((Fraction(1, 2), 1), AllocationError, "salaries must be whole numbers, got Fraction(1, 2)"),
            (("3",), AllocationError, "salaries must be whole numbers, got '3'"),
            ((np.int64(3), 1.5), AllocationError, "salaries must be whole numbers, got 1.5"),
            ((True, -2), AllocationError, "salaries must be nonnegative, got -2"),
        ],
    )
    def test_first_bad_value_is_reported(self, values, error, message):
        with pytest.raises(AllocationError) as caught:
            Allocation(values)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_integer_types_become_ints(self):
        values = Allocation((np.int64(3), True, 0)).values
        assert values == (3, 1, 0)
        assert all(type(v) is int for v in values)

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


class TestParsing:
    def test_parse_simple(self):
        assert parse_allocation("1,1,4").values == (1, 1, 4)

    def test_parse_tolerates_spaces(self):
        assert parse_allocation(" 3 , 3 , 0 ").values == (3, 3, 0)

    def test_parse_single_value(self):
        assert parse_allocation("6").values == (6,)

    def test_parse_empty_text(self):
        with pytest.raises(AllocationError, match="empty allocation text"):
            parse_allocation("")

    @pytest.mark.parametrize("text", ["1,x", "1.5,2", "1,,2", "3 3"])
    def test_parse_garbage(self, text):
        with pytest.raises(AllocationError):
            parse_allocation(text)

    def test_parse_negative(self):
        with pytest.raises(AllocationError, match="salaries must be nonnegative, got -1"):
            parse_allocation("-1,7")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python turns ints of any length into text",
    )
    def test_parse_budget_too_long_to_print(self):
        # the budget of the largest salary that parses still prints; one more is refused
        digits = sys.get_int_max_str_digits()
        assert parse_allocation("9" * digits + ",0").budget == 10**digits - 1
        with pytest.raises(AllocationError, match="too many digits to print"):
            parse_allocation("9" * digits + ",1")

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

    @pytest.mark.parametrize("k", range(1, 7))
    def test_limited_count_is_exact_or_a_lower_bound_above_the_limit(self, k):
        for budget in range(0, 13):
            exact = len(_oracles.partitions(budget, k))
            for limit in (0, 1, 5, 30, 10**8):
                count = partition_count(budget, k, limit)
                if exact <= limit:
                    assert count == exact
                else:
                    assert limit < count <= exact

    def test_closed_forms_up_to_two_parts(self):
        assert partition_count(10**20, 1) == 1
        assert partition_count(10**20, 2) == 5 * 10**19 + 1
        assert partition_count(10**20 + 1, 2) == 5 * 10**19 + 1
        assert partition_count(1, 500) == 1

    @pytest.mark.parametrize(
        "budget, k, count",
        [
            (10**12, 3, 83333333333833333333334),  # three parts, exactly
            (10**12, 1000, 83333333333833333333334),  # at least the three-part count
            (1000, 10, 794247013462658),  # at least C(1009, 9) / 10!
        ],
    )
    def test_lower_bounds_refuse_before_any_list(self, budget, k, count):
        assert partition_count(budget, k, 10**8) == count


class TestEnumeration:
    def test_compositions_match_oracle(self):
        got = list(composition_tuples(6, 3))
        assert sorted(got) == sorted(_oracles.compositions(6, 3))
        assert len(got) == len(set(got)) == 28

    def test_compositions_descending_order(self):
        got = list(composition_tuples(5, 3))
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
        assert list(composition_tuples(9, 1)) == [(9,)]
        assert [p.values for p in enumerate_partitions(9, 1)] == [(9,)]

    def test_space_guard_compositions(self, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "27")
        with pytest.raises(SpaceTooLargeError):
            composition_tuples(6, 3)
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "28")
        assert len(list(composition_tuples(6, 3))) == 28

    def test_space_guard_partitions(self, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "6")
        with pytest.raises(SpaceTooLargeError):
            enumerate_partitions(6, 3)
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "7")
        assert len(enumerate_partitions(6, 3)) == 7

    @pytest.mark.parametrize(
        "budget, k, limit", [(10**12, 3, 10**8), (1000, 10, 10**8), (6, 3, 6)]
    )
    def test_partition_refusal_says_at_least(self, budget, k, limit, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", str(limit))
        with pytest.raises(SpaceTooLargeError, match=r"^at least \d+ partitions"):
            enumerate_partitions(budget, k)

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=7))
    def test_orders_match_oracle_past_four_parts(self, budget, k):
        compositions = list(composition_tuples(budget, k))
        assert compositions == sorted(_oracles.compositions(budget, k), reverse=True)
        partitions = [p.values for p in enumerate_partitions(budget, k)]
        assert partitions == _oracles.partitions(budget, k)

    def test_many_parts_without_recursion(self):
        zeros = (0,) * 1997
        assert [p.values for p in enumerate_partitions(3, 2000)] == [
            (3, 0, 0) + zeros,
            (2, 1, 0) + zeros,
            (1, 1, 1) + zeros,
        ]
        compositions = list(composition_tuples(1, 1500))
        assert compositions == [tuple(int(i == j) for j in range(1500)) for i in range(1500)]

    def test_guard_message_names_the_space(self, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "5")
        with pytest.raises(SpaceTooLargeError, match="28 compositions"):
            composition_tuples(6, 3)
