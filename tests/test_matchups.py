from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcycle import (
    Allocation,
    AllTiesError,
    DimensionMismatchError,
    Partition,
    TiePolicy,
    matchup_json_dict,
    matchup_table,
    win_probability,
)
from capcycle.matchups import MatchupTable

from . import _oracles

MTL = Allocation((1, 1, 4))
BOS = Allocation((2, 2, 2))
NY = Allocation((3, 3, 0))

values_k = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(min_value=0, max_value=9), min_size=k, max_size=k),
        st.lists(st.integers(min_value=0, max_value=9), min_size=k, max_size=k),
    )
)


def _two_sides(k: int, faces):
    side = st.lists(faces, min_size=k, max_size=k)
    return st.tuples(side, side)


# Unsorted sides up to k = 8: small values with many ties, values past 2^63,
# and values around 2^64 that differ by less than float64 can tell apart.
wide_values_k = st.builds(
    _two_sides,
    st.integers(min_value=1, max_value=8),
    st.sampled_from(
        [
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=2**65),
            st.integers(min_value=2**64 - 4, max_value=2**64 + 4),
        ]
    ),
).flatmap(lambda sides: sides)


def _operands(a, b):
    """Each side as an Allocation and as a Partition of the same values, in
    all four pairings."""
    sides = [
        [Allocation(tuple(values)), Partition(tuple(sorted(values, reverse=True)))]
        for values in (a, b)
    ]
    return [(x, y) for x in sides[0] for y in sides[1]]


def wins_series(x, y):
    return matchup_json_dict(matchup_table(x, y))["outcome"] == "A"


class TestShowcaseGrids:
    def test_bos_beats_mtl_6_of_9(self):
        t = matchup_table(MTL, BOS)
        assert (t.wins_a, t.wins_b, t.ties) == (3, 6, 0)
        assert matchup_json_dict(t)["outcome"] == "B"

    def test_ny_beats_bos_6_of_9(self):
        t = matchup_table(BOS, NY)
        assert (t.wins_a, t.wins_b, t.ties) == (3, 6, 0)
        assert matchup_json_dict(t)["outcome"] == "B"

    def test_mtl_beats_ny_5_of_9(self):
        t = matchup_table(MTL, NY)
        assert (t.wins_a, t.wins_b, t.ties) == (5, 4, 0)
        assert matchup_json_dict(t)["outcome"] == "A"

    def test_mtl_ny_cell_layout(self):
        t = matchup_table(MTL, NY)
        assert matchup_json_dict(t)["cells"] == [
            ["B", "B", "A"],
            ["B", "B", "A"],
            ["A", "A", "A"],
        ]

    def test_cycle_closes(self):
        for x, y in [(BOS, MTL), (NY, BOS), (MTL, NY)]:
            assert wins_series(x, y)
            assert _oracles.beats(x.values, y.values)


class TestMatchupTable:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matchup_table(Allocation((1, 2)), NY)

    def test_budgets_may_differ(self):
        t = matchup_table(Allocation((5, 5, 5)), NY)
        assert (t.wins_a, t.wins_b, t.ties) == (9, 0, 0)

    def test_tie_cells(self):
        t = matchup_table(BOS, Allocation((3, 2, 1)))
        assert (t.wins_a, t.wins_b, t.ties) == (3, 3, 3)
        assert matchup_json_dict(t)["outcome"] == "draw"

    @given(values_k)
    def test_counts_match_oracle(self, pair):
        a, b = pair
        for x, y in _operands(a, b):
            t = matchup_table(x, y)
            assert (t.a_values, t.b_values) == (x.values, y.values)
            assert (t.wins_a, t.wins_b, t.ties) == _oracles.cell_counts(tuple(a), tuple(b))

    @given(values_k)
    def test_conservation(self, pair):
        a, b = pair
        t = matchup_table(Allocation(tuple(a)), Allocation(tuple(b)))
        assert t.wins_a + t.wins_b + t.ties == len(t.a_values) ** 2

    @given(values_k)
    def test_mirror_symmetry(self, pair):
        a, b = pair
        fwd = matchup_table(Allocation(tuple(a)), Allocation(tuple(b)))
        rev = matchup_table(Allocation(tuple(b)), Allocation(tuple(a)))
        assert (fwd.wins_a, fwd.wins_b, fwd.ties) == (rev.wins_b, rev.wins_a, rev.ties)
        swap = {"A": "B", "B": "A", "tie": "tie"}
        fwd_cells, rev_cells = matchup_json_dict(fwd)["cells"], matchup_json_dict(rev)["cells"]
        for i in range(len(a)):
            for j in range(len(b)):
                assert rev_cells[j][i] == swap[fwd_cells[i][j]]

    @given(values_k)
    def test_dominance_antisymmetric(self, pair):
        a, b = pair
        x, y = Allocation(tuple(a)), Allocation(tuple(b))
        assert not (wins_series(x, y) and wins_series(y, x))
        assert wins_series(x, y) == _oracles.beats(x.values, y.values)

    @given(wide_values_k)
    def test_cells_match_oracle_grid(self, pair):
        a, b = pair
        t = matchup_table(Allocation(tuple(a)), Allocation(tuple(b)))
        assert matchup_json_dict(t)["cells"] == _oracles.cell_grid(a, b)
        assert (t.wins_a, t.wins_b, t.ties) == _oracles.cell_counts(a, b)
        # Partition operands, faces of 2^63 and up among them: the counts
        # stay those of the unsorted sides.
        for x, y in _operands(a, b):
            t = matchup_table(x, y)
            assert matchup_json_dict(t)["cells"] == _oracles.cell_grid(x.values, y.values)
            assert (t.wins_a, t.wins_b, t.ties) == _oracles.cell_counts(a, b)

    @given(wide_values_k)
    def test_same_table_as_the_dataclass_builds(self, pair):
        a, b = (Allocation(tuple(side)) for side in pair)
        made = matchup_table(a, b)
        built = MatchupTable(a.values, b.values, *_oracles.cell_counts(a.values, b.values))
        assert made == built and built == made
        assert hash(made) == hash(built)
        assert repr(made) == repr(built)
        assert matchup_json_dict(made)["cells"] == matchup_json_dict(built)["cells"]
        with pytest.raises(AttributeError):
            made.wins_a = 0

    def test_equality_and_hash_follow_the_values(self):
        t, again = matchup_table(MTL, NY), matchup_table(MTL, NY)
        assert t == again
        assert hash(t) == hash(again)
        # Same grid and counts, other salaries: a different matchup.
        scaled = matchup_table(Allocation((2, 2, 8)), Allocation((6, 6, 0)))
        assert matchup_json_dict(scaled)["cells"] == matchup_json_dict(t)["cells"]
        assert scaled != t


class TestWinProbability:
    def test_reroll_showcase(self):
        assert win_probability(matchup_table(MTL, NY), TiePolicy.REROLL) == Fraction(5, 9)

    def test_nogame_divides_by_all_cells(self):
        t = matchup_table(BOS, Allocation((3, 2, 1)))
        assert win_probability(t, TiePolicy.NOGAME) == Fraction(1, 3)
        assert win_probability(t, TiePolicy.REROLL) == Fraction(1, 2)

    def test_all_ties_reroll_undefined(self):
        t = matchup_table(Allocation((2, 2)), Allocation((2, 2)))
        with pytest.raises(AllTiesError):
            win_probability(t, TiePolicy.REROLL)

    def test_all_ties_nogame_is_zero(self):
        t = matchup_table(Allocation((2, 2)), Allocation((2, 2)))
        assert win_probability(t, TiePolicy.NOGAME) == 0

    @given(values_k)
    def test_probabilities_complement(self, pair):
        a, b = pair
        fwd = matchup_table(Allocation(tuple(a)), Allocation(tuple(b)))
        rev = matchup_table(Allocation(tuple(b)), Allocation(tuple(a)))
        if fwd.wins_a + fwd.wins_b > 0:
            p = win_probability(fwd, TiePolicy.REROLL)
            q = win_probability(rev, TiePolicy.REROLL)
            assert p + q == 1
            assert 0 <= p <= 1
