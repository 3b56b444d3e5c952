"""Seeded Monte Carlo play between two allocations.

A game is one joint roll: one category index drawn uniformly per side, the
larger salary wins. The generator is pinned to splitmix64 with rejection
sampling for the indices, so identical configurations reproduce identical
tallies on any platform. Long runs converge to the exact cell
probabilities; long best-of series converge to the analytic majority
winner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocations import Allocation
from .errors import AllTiesError
from .matchups import Cell, TiePolicy, matchup_table, require_same_k

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

MAX_BEST_OF = 10**6
MAX_SERIES = 10**6


def prng_next(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, 64-bit output)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def _uniform_index(state: int, k: int, threshold: int) -> tuple[int, int]:
    # Unbiased via rejection: discard outputs >= floor(2^64 / k) * k.
    while True:
        state, out = prng_next(state)
        if out < threshold:
            return state, out % k


def _rejection_threshold(k: int) -> int:
    return (2**64 // k) * k


def sample_cell(a: Allocation, b: Allocation, state: int) -> tuple[int, Cell]:
    """Roll both dice once: returns (new_state, cell outcome).

    Draws a's index first, then b's, each by rejection-sampled uniform
    draws over 0..k-1.
    """
    require_same_k(a, b)
    threshold = _rejection_threshold(a.k)
    state, i = _uniform_index(state, a.k, threshold)
    state, j = _uniform_index(state, b.k, threshold)
    x, y = a.values[i], b.values[j]
    if x > y:
        return state, Cell.A_WIN
    if x < y:
        return state, Cell.B_WIN
    return state, Cell.TIE


@dataclass(frozen=True)
class SimConfig:
    """Reproducible simulation parameters.

    ``n_games`` drives flat game simulation; ``best_of`` (odd) with
    ``n_series`` drives series simulation. The seed is a 64-bit unsigned
    state for splitmix64.
    """

    seed: int
    n_games: int
    tie_policy: TiePolicy = TiePolicy.REROLL
    best_of: int | None = None
    n_series: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        if self.n_games < 1:
            raise ValueError(f"n_games must be positive, got {self.n_games}")
        if self.n_series < 1:
            raise ValueError(f"n_series must be positive, got {self.n_series}")
        if self.n_series > MAX_SERIES:
            raise ValueError(f"n_series capped at {MAX_SERIES}, got {self.n_series}")
        if self.best_of is not None:
            if self.best_of < 1 or self.best_of % 2 == 0:
                raise ValueError(f"best_of must be odd and positive, got {self.best_of}")
            if self.best_of > MAX_BEST_OF:
                raise ValueError(f"best_of capped at {MAX_BEST_OF}, got {self.best_of}")


@dataclass(frozen=True)
class SeriesStats:
    """Exact tallies from a simulation run.

    Under REROLL only decisive rolls are games; tie_games counts the
    discarded rolls. Under NOGAME every roll is a game and tie_games is
    the tied subset.
    """

    games_played: int
    a_game_wins: int
    b_game_wins: int
    tie_games: int
    a_series_wins: int = 0
    b_series_wins: int = 0

    @property
    def empirical_a_frequency(self) -> float | None:
        """Share of decisive games won by A, or None if none were decisive."""
        decisive = self.a_game_wins + self.b_game_wins
        if decisive == 0:
            return None
        return self.a_game_wins / decisive


def series_seed_states(seed: int, n_series: int) -> list[int]:
    """Independent initial states for each series, split from the master seed.

    Series i starts from the i+1-th splitmix64 output of the master seed,
    so series can run in parallel yet reproduce the sequential result.
    """
    states = []
    state = seed & _MASK64
    for _ in range(n_series):
        state, out = prng_next(state)
        states.append(out)
    return states


def simulate_games(a: Allocation, b: Allocation, config: SimConfig) -> SeriesStats:
    """Play config.n_games games from the master seed and tally outcomes."""
    require_same_k(a, b)
    table = matchup_table(a, b)
    reroll = config.tie_policy is TiePolicy.REROLL
    if reroll and table.wins_a + table.wins_b == 0:
        raise AllTiesError("every cell ties; reroll play can never finish a game")

    k = a.k
    threshold = _rejection_threshold(k)
    av, bv = a.values, b.values
    state = config.seed
    a_wins = b_wins = tie_games = 0

    for _ in range(config.n_games):
        while True:
            state, i = _uniform_index(state, k, threshold)
            state, j = _uniform_index(state, k, threshold)
            x, y = av[i], bv[j]
            if x > y:
                a_wins += 1
                break
            if x < y:
                b_wins += 1
                break
            tie_games += 1
            if not reroll:
                break

    games_played = a_wins + b_wins if reroll else config.n_games
    return SeriesStats(games_played, a_wins, b_wins, tie_games)


def simulate_best_of(a: Allocation, b: Allocation, config: SimConfig) -> SeriesStats:
    """Run config.n_series independent best-of-config.best_of series.

    A series ends when one side reaches (best_of + 1) / 2 decisive-game
    wins. Ties never advance the score, so a matchup with no decisive
    cells cannot finish under either policy and is rejected.
    """
    if config.best_of is None:
        raise ValueError("config.best_of must be set for series simulation")
    require_same_k(a, b)
    table = matchup_table(a, b)
    if table.wins_a + table.wins_b == 0:
        raise AllTiesError("every cell ties; a best-of series can never be decided")

    k = a.k
    threshold = _rejection_threshold(k)
    av, bv = a.values, b.values
    reroll = config.tie_policy is TiePolicy.REROLL
    need = (config.best_of + 1) // 2

    games_played = a_wins = b_wins = tie_games = 0
    a_series = b_series = 0
    for state in series_seed_states(config.seed, config.n_series):
        sa = sb = 0
        while sa < need and sb < need:
            state, i = _uniform_index(state, k, threshold)
            state, j = _uniform_index(state, k, threshold)
            x, y = av[i], bv[j]
            if x > y:
                sa += 1
                games_played += 1
            elif x < y:
                sb += 1
                games_played += 1
            else:
                tie_games += 1
                if not reroll:
                    games_played += 1
        a_wins += sa
        b_wins += sb
        if sa >= need:
            a_series += 1
        else:
            b_series += 1

    return SeriesStats(games_played, a_wins, b_wins, tie_games, a_series, b_series)
