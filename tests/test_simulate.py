from dataclasses import astuple
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capcycle import (
    Allocation,
    AllTiesError,
    DimensionMismatchError,
    SimConfig,
    TiePolicy,
    simulate_best_of,
    simulate_games,
)
import capcycle.simulate as simulate_module
from capcycle.simulate import _BLOCK, _GAMMA, _outputs

from . import _oracles

MTL = Allocation((1, 1, 4))
NY = Allocation((3, 3, 0))
BOS = Allocation((2, 2, 2))

# Reference splitmix64 outputs from state 0 (also reproduced by the
# independently transcribed oracle below).
REF_FROM_ZERO = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def _first_roll(a, b, seed):
    """+1 if a wins the first roll from ``seed``, -1 if b wins, 0 on a tie."""
    stats = simulate_games(a, b, SimConfig(seed, 1, TiePolicy.NOGAME))
    return stats.a_game_wins - stats.b_game_wins


class TestPrng:
    def test_reference_sequence_from_zero(self):
        assert _outputs(0, 3).tolist() == REF_FROM_ZERO

    def test_state_advances_by_gamma(self):
        # one step moves the state by gamma: the stream from gamma is the
        # stream from 0 less its first output, and the state wraps mod 2^64
        assert _GAMMA == 0x9E3779B97F4A7C15
        assert _outputs(_GAMMA, 2).tolist() == REF_FROM_ZERO[1:]
        assert _outputs((2 * _GAMMA) % 2**64, 1).tolist() == REF_FROM_ZERO[2:]

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_matches_oracle_transcription(self, seed):
        assert _outputs(seed, 4).tolist() == _oracles.splitmix64_outputs(seed, 4)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_output_range(self, seed):
        (out,) = _outputs(seed, 1).tolist()
        assert isinstance(out, int) and 0 <= out < 2**64


class TestSimConfig:
    def test_defaults(self):
        c = SimConfig(seed=1, n_games=10)
        assert c.tie_policy is TiePolicy.REROLL
        assert c.best_of is None
        assert c.n_series == 1

    def test_seed_wraps_to_64_bits(self):
        assert SimConfig(seed=2**64 + 5, n_games=1).seed == 5
        assert SimConfig(seed=-1, n_games=1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_games": 0},
            {"n_games": 1, "n_series": 0},
            {"n_games": 1, "n_series": 10**6 + 1},
            {"n_games": 1, "best_of": 2},
            {"n_games": 1, "best_of": -3},
            {"n_games": 1, "best_of": 10**6 + 1},
            {"n_games": 10**8 + 1},
            {"n_games": 1, "best_of": 999_999, "n_series": 10**6},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(seed=0, **kwargs)

    def test_large_odd_best_of_allowed(self):
        assert SimConfig(seed=0, n_games=1, best_of=999_999).best_of == 999_999


class TestSeriesSeedStates:
    def test_states_are_outputs_of_master_stream(self):
        assert _outputs(0, 3).tolist() == REF_FROM_ZERO

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_matches_oracle(self, seed):
        assert _outputs(seed, 5).tolist() == _oracles.splitmix64_outputs(seed, 5)

    def test_distinct_for_small_runs(self):
        states = _outputs(123, 100).tolist()
        assert len(set(states)) == 100


class TestSimulateGames:
    def test_reroll_replays_oracle(self):
        stats = simulate_games(MTL, NY, SimConfig(seed=123, n_games=500))
        a, b, ties = _oracles.sim_games(MTL.values, NY.values, 123, 500, reroll=True)
        assert (stats.a_game_wins, stats.b_game_wins, stats.tie_games) == (a, b, ties)
        assert stats.games_played == 500

    def test_nogame_replays_oracle(self):
        drawish = Allocation((3, 2, 1))
        config = SimConfig(seed=9, n_games=300, tie_policy=TiePolicy.NOGAME)
        stats = simulate_games(Allocation((2, 2, 2)), drawish, config)
        a, b, ties = _oracles.sim_games((2, 2, 2), drawish.values, 9, 300, reroll=False)
        assert (stats.a_game_wins, stats.b_game_wins, stats.tie_games) == (a, b, ties)
        assert stats.games_played == 300
        assert stats.a_game_wins + stats.b_game_wins + stats.tie_games == 300
        assert stats.tie_games > 0

    def test_reroll_discards_ties_from_games(self):
        config = SimConfig(seed=9, n_games=300, tie_policy=TiePolicy.REROLL)
        stats = simulate_games(Allocation((2, 2, 2)), Allocation((3, 2, 1)), config)
        assert stats.games_played == 300
        assert stats.a_game_wins + stats.b_game_wins == 300
        assert stats.tie_games > 0  # rerolled, not played

    def test_reproducible_and_seed_sensitive(self):
        one = simulate_games(MTL, NY, SimConfig(seed=5, n_games=2000))
        two = simulate_games(MTL, NY, SimConfig(seed=5, n_games=2000))
        other = simulate_games(MTL, NY, SimConfig(seed=6, n_games=2000))
        assert one == two
        assert one != other

    def test_all_ties_reroll_rejected(self):
        with pytest.raises(AllTiesError):
            simulate_games(Allocation((1, 1)), Allocation((1, 1)), SimConfig(seed=0, n_games=5))

    def test_all_ties_nogame_allowed(self):
        config = SimConfig(seed=0, n_games=100, tie_policy=TiePolicy.NOGAME)
        stats = simulate_games(Allocation((2, 2, 2)), Allocation((2, 2, 2)), config)
        assert stats.tie_games == 100
        assert stats.a_game_wins == stats.b_game_wins == 0
        assert stats.empirical_a_frequency is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            simulate_games(Allocation((1, 2)), NY, SimConfig(seed=0, n_games=1))

    def test_one_game_matches_manual_replay(self):
        # one NOGAME game is one roll, replayed by the oracle: a's index, then b's
        assert _first_roll(MTL, NY, 7) == _oracles.roll(MTL.values, NY.values, 7)[1]

    def test_salaries_past_two_to_the_63_replay_oracle(self):
        # as numpy arrays these would be uint64, where 0 - 2^63 wraps
        a, b = (2**63 + 1, 0), (2**63, 1)
        stats = simulate_games(Allocation(a), Allocation(b), SimConfig(seed=0, n_games=1000))
        tallies = (stats.a_game_wins, stats.b_game_wins, stats.tie_games)
        assert tallies == _oracles.sim_games(a, b, 0, 1000, reroll=True) == (450, 550, 0)

    def test_empirical_frequency(self):
        stats = simulate_games(MTL, NY, SimConfig(seed=42, n_games=90000))
        assert stats.empirical_a_frequency == stats.a_game_wins / 90000
        assert abs(stats.empirical_a_frequency - 5 / 9) < 0.005

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_convergence_within_four_sigma(self, seed):
        n = 100_000
        p = 5 / 9
        bound = 4 * (p * (1 - p) / n) ** 0.5
        stats = simulate_games(MTL, NY, SimConfig(seed=seed, n_games=n))
        assert abs(stats.empirical_a_frequency - p) < bound

    def test_lone_row_draws_a_full_block(self, monkeypatch):
        # a run of games is one row, and its blocks are as wide as the whole
        # budget: at least 4,096 rolls (8,192 outputs) each
        drawn = []

        def counted(state, n):
            drawn.append(np.size(state) * n)
            return _outputs(state, n)

        monkeypatch.setattr(simulate_module, "_outputs", counted)
        n = 100_000
        stats = simulate_games(MTL, NY, SimConfig(7, n, TiePolicy.NOGAME))
        assert stats.a_game_wins + stats.b_game_wins + stats.tie_games == n
        assert drawn == [_BLOCK] * len(drawn)
        assert len(drawn) <= -(-n // 4096)


class TestSimulateBestOf:
    def test_requires_best_of(self):
        with pytest.raises(ValueError):
            simulate_best_of(MTL, NY, SimConfig(seed=0, n_games=1))

    def test_best_of_one_is_one_decisive_game(self):
        config = SimConfig(seed=11, n_games=1, best_of=1, n_series=200)
        stats = simulate_best_of(MTL, NY, config)
        assert stats.a_series_wins + stats.b_series_wins == 200
        assert stats.a_game_wins == stats.a_series_wins
        assert stats.b_game_wins == stats.b_series_wins
        assert stats.games_played == 200

    def test_score_reaches_majority_exactly(self):
        config = SimConfig(seed=3, n_games=1, best_of=7, n_series=50)
        stats = simulate_best_of(MTL, NY, config)
        assert stats.a_series_wins + stats.b_series_wins == 50
        # every series ends the moment one side reaches 4 wins
        assert stats.games_played <= 50 * 7
        assert stats.games_played >= 50 * 4

    def test_long_series_favor_majority_winner(self):
        config = SimConfig(seed=7, n_games=1, best_of=301, n_series=1000)
        stats = simulate_best_of(MTL, NY, config)
        assert stats.a_series_wins + stats.b_series_wins == 1000
        assert stats.a_series_wins >= 900

    def test_replays_oracle_with_split_streams(self):
        stats = simulate_best_of(MTL, NY, SimConfig(seed=99, n_games=1, best_of=5, n_series=4))
        assert astuple(stats) == _oracles.sim_series(
            MTL.values, NY.values, 99, best_of=5, n_series=4, reroll=True
        )

    @pytest.mark.parametrize("best_of, n_series", [(7, 4000), (31, 2000), (301, 1000)])
    def test_series_share_matches_exact_probability(self, best_of, n_series):
        p = float(_oracles.series_win_probability(5, 4, best_of))
        stats = simulate_best_of(
            MTL, NY, SimConfig(seed=best_of, n_games=1, best_of=best_of, n_series=n_series)
        )
        sigma = (p * (1 - p) / n_series) ** 0.5
        assert abs(stats.a_series_wins / n_series - p) < 4 * sigma

    def test_nogame_counts_tied_rolls_as_games(self):
        config = SimConfig(
            seed=21, n_games=1, best_of=9, n_series=40, tie_policy=TiePolicy.NOGAME
        )
        stats = simulate_best_of(Allocation((2, 2, 2)), Allocation((3, 2, 1)), config)
        assert stats.games_played == (
            stats.a_game_wins + stats.b_game_wins + stats.tie_games
        )
        assert stats.tie_games > 0

    def test_reroll_excludes_tied_rolls_from_games(self):
        config = SimConfig(seed=21, n_games=1, best_of=9, n_series=40)
        stats = simulate_best_of(Allocation((2, 2, 2)), Allocation((3, 2, 1)), config)
        assert stats.games_played == stats.a_game_wins + stats.b_game_wins

    def test_all_ties_rejected_under_both_policies(self):
        for policy in TiePolicy:
            config = SimConfig(seed=0, n_games=1, best_of=3, tie_policy=policy)
            with pytest.raises(AllTiesError):
                simulate_best_of(Allocation((1, 1)), Allocation((1, 1)), config)

    def test_longer_series_amplify_the_edge(self):
        # per-game p(MTL) = 5/9 > 1/2, so the series-win share must climb
        # with series length, up to 2 sigma of sampling noise
        n_series = 500
        slack = 2 * (0.25 / n_series) ** 0.5
        freqs = []
        for best_of in (1, 31, 301):
            stats = simulate_best_of(
                MTL, NY, SimConfig(seed=13, n_games=1, best_of=best_of, n_series=n_series)
            )
            freqs.append(stats.a_series_wins / n_series)
        assert freqs[1] >= freqs[0] - slack
        assert freqs[2] >= freqs[1] - slack
        assert freqs[2] > 0.9

    def test_series_share_blocks(self, monkeypatch):
        # every series is a row of a batched block, not a stream of its own
        calls = []

        def counted(*args):
            calls.append(args)
            return _outputs(*args)

        monkeypatch.setattr(simulate_module, "_outputs", counted)
        stats = simulate_best_of(MTL, NY, SimConfig(7, 1, best_of=1, n_series=10_000))
        assert stats.a_series_wins + stats.b_series_wins == 10_000
        assert len(calls) <= 30

    @pytest.mark.parametrize("block", [1, 7, 250])
    def test_series_blocks_continue_the_seed_stream(self, block, monkeypatch):
        # A block of series draws its seeds where the previous block stopped,
        # so the tallies do not depend on how the series are blocked.
        config = SimConfig(11, 1, best_of=5, n_series=1000)
        whole = simulate_best_of(MTL, NY, config)
        monkeypatch.setattr(simulate_module, "_SERIES_BLOCK", block)
        assert simulate_best_of(MTL, NY, config) == whole

    @pytest.mark.parametrize("block", [2, 3, 64])
    @pytest.mark.parametrize("policy", TiePolicy)
    def test_tallies_do_not_depend_on_the_block_budget(self, block, policy, monkeypatch):
        # A block's shape follows its budget of outputs, and at a budget of 2
        # a row plays one roll a block; the tallies stay those of the default.
        drawish = Allocation((3, 2, 1))  # 1/3 of rolls tie against BOS

        def run():
            games = simulate_games(BOS, drawish, SimConfig(11, 700, policy))
            series = SimConfig(11, 1, policy, best_of=5, n_series=300)
            return games, simulate_best_of(BOS, drawish, series)

        default = run()
        monkeypatch.setattr(simulate_module, "_BLOCK", block)
        assert run() == default

    def test_large_k_draws_few_outputs_per_series(self, monkeypatch):
        # 2,000 best-of-1 series need about 4,000 outputs; a block need not
        # give each series k + 1 of them (40 million at k = 20,000)
        drawn = []

        def counted(state, n):
            drawn.append(np.size(state) * n)
            return _outputs(state, n)

        monkeypatch.setattr(simulate_module, "_outputs", counted)
        k = 20_000
        a, b = Allocation(tuple(range(k))), Allocation(tuple(range(k, 0, -1)))
        stats = simulate_best_of(a, b, SimConfig(5, 1, best_of=1, n_series=2000))
        assert stats.a_series_wins + stats.b_series_wins == 2000
        assert sum(drawn) < 10 * 4000

    def test_even_pair_splits_series_evenly(self):
        # (4,2,0) vs (5,1,0) is a 4-4 draw pair, so p = 1/2 under reroll
        n_series = 400
        stats = simulate_best_of(
            Allocation((4, 2, 0)),
            Allocation((5, 1, 0)),
            SimConfig(seed=17, n_games=1, best_of=5, n_series=n_series),
        )
        bound = 3 * (0.25 / n_series) ** 0.5
        assert abs(stats.a_series_wins / n_series - 0.5) < bound


class TestMemory:
    @pytest.mark.parametrize(
        "run, config",
        [
            (simulate_games, SimConfig(seed=3, n_games=1000)),
            (simulate_best_of, SimConfig(seed=3, n_games=1, best_of=3, n_series=100)),
        ],
    )
    def test_peak_does_not_grow_as_k_squared(self, run, config):
        # at k = 2,000 a k x k grid of int64 counts alone would take 32 MB
        k = 2000
        a, b = Allocation(tuple(range(k))), Allocation(tuple(range(k, 0, -1)))
        tracemalloc.start()
        try:
            run(a, b, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_series_peak_at_large_k(self):
        # 2,000 series at k = 20,000 share blocks of _BLOCK outputs
        k = 20_000
        a, b = Allocation(tuple(range(k))), Allocation(tuple(range(k, 0, -1)))
        config = SimConfig(seed=3, n_games=1, best_of=3, n_series=2000)
        tracemalloc.start()
        try:
            simulate_best_of(a, b, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestIndexSampling:
    def test_face_frequencies_unbiased(self):
        # against a constant side, a roll's outcome names the other side's
        # face: one million faces per side, checked at 4 sigma
        k, n = 3, 1_000_000
        sigma = ((1 / k) * (1 - 1 / k) / n) ** 0.5
        config = SimConfig(seed=2024, n_games=n, tie_policy=TiePolicy.NOGAME)
        for a, b in [((0, 1, 2), (1, 1, 1)), ((1, 1, 1), (2, 1, 0))]:
            stats = simulate_games(Allocation(a), Allocation(b), config)
            for c in (stats.a_game_wins, stats.b_game_wins, stats.tie_games):
                assert abs(c / n - 1 / k) < 4 * sigma

    @pytest.mark.parametrize(
        "m", [0, 1, 3, 4, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1]
    )
    def test_forced_rejection_replays_oracle(self, m):
        # 2^64 - 1 is the one output k = 3 rejects; put it at stream position m,
        # next to the first and second block boundaries of a run of games
        seed = _oracles.splitmix64_seed_for(2**64 - 1, m)
        assert _oracles.splitmix64_outputs(seed, m + 1)[m] == 2**64 - 1
        assert _first_roll(MTL, NY, seed) == _oracles.roll(MTL.values, NY.values, seed)[1]

        drawish = Allocation((3, 2, 1))  # 1/3 of rolls tie against BOS
        # a game takes at least one roll of two outputs, so 5/4 _BLOCK games pass 2 * _BLOCK + 1
        n_games = 5 * _BLOCK // 4
        for policy in TiePolicy:
            reroll = policy is TiePolicy.REROLL
            stats = simulate_games(BOS, drawish, SimConfig(seed, n_games, policy))
            tallies = _oracles.sim_games(BOS.values, drawish.values, seed, n_games, reroll)
            assert (stats.a_game_wins, stats.b_game_wins, stats.tie_games) == tallies
            assert 2 * sum(tallies) > m  # the stream reached position m

            # the first series starts from the crafted seed
            master = _oracles.splitmix64_seed_for(seed, 0)
            for best_of in (1, 301):
                config = SimConfig(master, 1, policy, best_of=best_of, n_series=3)
                assert astuple(simulate_best_of(BOS, drawish, config)) == _oracles.sim_series(
                    BOS.values, drawish.values, master, best_of, 3, reroll
                )

    @pytest.mark.parametrize(
        "best_of, n_series, row, m",
        [
            (1, 2100, 2050, 0),
            (1, 2100, 2050, 1),
            (3, 2100, 700, 3),
            (301, 20, 13, 301),
            (1, 5000, 4500, 0),
            (1, 5000, 2000, 1),
        ],
    )
    def test_forced_rejection_in_a_later_row_replays_oracle(self, best_of, n_series, row, m):
        # series `row` starts from a seed whose output m is the one k = 3
        # rejects. The first block gives each of its first `rows` series
        # `width` outputs, and the crafted row plays beside earlier rows. At
        # width 2, a rejection at m < 2 leaves its row no roll, so the block
        # is replayed wider; past `rows`, the row waits for a later block.
        width = max(2, _BLOCK // n_series)
        rows = _BLOCK // width
        assert 0 < row < n_series and rows > 1
        crafted = _oracles.splitmix64_seed_for(2**64 - 1, m)
        master = _oracles.splitmix64_seed_for(crafted, row)
        assert _outputs(master, row + 1).tolist()[row] == crafted
        drawish = Allocation((3, 2, 1))
        for policy in TiePolicy:
            config = SimConfig(master, 1, policy, best_of=best_of, n_series=n_series)
            assert astuple(simulate_best_of(BOS, drawish, config)) == _oracles.sim_series(
                BOS.values, drawish.values, master, best_of, n_series, policy is TiePolicy.REROLL
            )

    def test_rejection_threshold_is_multiple_of_k(self):
        from capcycle.simulate import _rejection_threshold

        for k in range(1, 9):
            t = _rejection_threshold(k)
            assert t % k == 0
            assert t <= 2**64
            assert 2**64 - t < k


def _allocation_pairs(k):
    # faces at and past 2^63 do not fit int64, so the simulator must rank them as Python ints
    wide = st.sampled_from((2**63 - 1, 2**63, 2**64 + 7))
    side = st.tuples(*[st.one_of(st.integers(min_value=0, max_value=4), wide)] * k)
    return st.tuples(side, side)


class TestOracleCrossCheck:
    @settings(max_examples=40)
    @given(
        pair=st.integers(min_value=1, max_value=6).flatmap(_allocation_pairs),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        # the long runs fill more than one block of outputs
        n_games=st.one_of(st.integers(1, 50), st.integers(4100, 6000)),
        best_of=st.integers(0, 15).map(lambda i: 2 * i + 1),
        n_series=st.integers(1, 4),
        policy=st.sampled_from(TiePolicy),
    )
    def test_games_and_series_match_oracles(self, pair, seed, n_games, best_of, n_series, policy):
        a, b = pair
        wins_a, wins_b, _ = _oracles.cell_counts(a, b)
        assume(4 * (wins_a + wins_b) >= len(a) ** 2)  # keeps the scalar replay short
        reroll = policy is TiePolicy.REROLL
        stats = simulate_games(Allocation(a), Allocation(b), SimConfig(seed, n_games, policy))
        assert (stats.a_game_wins, stats.b_game_wins, stats.tie_games) == _oracles.sim_games(
            a, b, seed, n_games, reroll
        )
        config = SimConfig(seed, 1, policy, best_of=best_of, n_series=n_series)
        assert astuple(simulate_best_of(Allocation(a), Allocation(b), config)) == (
            _oracles.sim_series(a, b, seed, best_of, n_series, reroll)
        )
