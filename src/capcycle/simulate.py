"""Seeded Monte Carlo play between two allocations.

A game is one joint roll: one category index drawn uniformly per side, the
larger salary wins. The generator is pinned to splitmix64 with rejection
sampling for the indices, so identical configurations reproduce identical
tallies on any platform. Long runs converge to the exact cell
probabilities; long best-of series converge to the analytic majority
winner.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .allocations import Allocation
from .errors import AllTiesError
from .matchups import Cell, MatchupTable, TiePolicy, matchup_table

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 8192  # outputs per block; bounds the simulator's working memory

MAX_BEST_OF = 10**6
MAX_SERIES = 10**6
MAX_GAMES = 10**8

_SIGN = {Cell.A_WIN: 1, Cell.B_WIN: -1, Cell.TIE: 0}
_CELL_BY_SIGN = (Cell.TIE, Cell.A_WIN, Cell.B_WIN)  # sign -1 indexes B_WIN


def _outputs(state: int, n: int) -> np.ndarray:
    """The next n splitmix64 outputs after ``state``, as a wrapping uint64 block.

    Output m (from 1) is the mix of ``state + m * gamma``, so no stepping is needed.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(state & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _rejection_threshold(k: int) -> int:
    return (2**64 // k) * k


def _rolls(table: MatchupTable, state: int, block: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Endless joint rolls from ``state`` as (signs, states after each roll) blocks.

    Outputs at or above floor(2^64 / k) * k are rejected; kept ones pair up
    as (a's index, b's index) mod k. A roll cut by the block's end is redrawn
    from the end of the last whole roll; a block with no whole roll doubles.
    """
    state &= _MASK64
    k = np.uint64(table.k)
    # threshold - 1, because the threshold at k = 1 is 2^64, which uint64 cannot hold
    last_kept = np.uint64(_rejection_threshold(table.k) - 1)
    grid = np.array([[_SIGN[c] for c in row] for row in table.cells], dtype=np.int8)
    while True:
        out = _outputs(state, block)
        kept = np.flatnonzero(out <= last_kept)
        n = len(kept) // 2
        if n == 0:
            block *= 2
            continue
        faces = (out[kept[: 2 * n]] % k).astype(np.intp).reshape(n, 2)
        states = (kept[1 : 2 * n : 2] + 1).astype(np.uint64) * np.uint64(_GAMMA) + np.uint64(state)
        yield grid[faces[:, 0], faces[:, 1]], states
        state = int(states[-1])


def _play(table: MatchupTable, state: int, done: Callable, block: int) -> tuple[int, int, int]:
    """(a wins, b wins, ties) at the first roll where ``done(a, b, ties)`` holds.

    ``done`` maps arrays of running tallies to a boolean array.
    """
    wins_a = wins_b = ties = 0
    for signs, _ in _rolls(table, state, block):
        ta = wins_a + np.cumsum(signs > 0)
        tb = wins_b + np.cumsum(signs < 0)
        tt = ties + np.cumsum(signs == 0)
        stop = np.flatnonzero(done(ta, tb, tt))
        if stop.size:
            r = stop[0]
            return int(ta[r]), int(tb[r]), int(tt[r])
        wins_a, wins_b, ties = int(ta[-1]), int(tb[-1]), int(tt[-1])


def sample_cell(a: Allocation, b: Allocation, state: int) -> tuple[int, Cell]:
    """Roll both dice once: returns (new_state, cell outcome).

    Draws a's index first, then b's, each by rejection-sampled uniform
    draws over 0..k-1.
    """
    signs, states = next(_rolls(matchup_table(a, b), state, 2))
    return int(states[0]), _CELL_BY_SIGN[signs[0]]


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
        if self.n_games > MAX_GAMES:
            raise ValueError(f"n_games capped at {MAX_GAMES}, got {self.n_games}")
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
    return _outputs(seed, n_series).tolist()


def simulate_games(a: Allocation, b: Allocation, config: SimConfig) -> SeriesStats:
    """Play config.n_games games from the master seed and tally outcomes."""
    table = matchup_table(a, b)
    reroll = config.tie_policy is TiePolicy.REROLL
    if reroll and table.wins_a + table.wins_b == 0:
        raise AllTiesError("every cell ties; reroll play can never finish a game")

    n = config.n_games
    tallies = _play(
        table, config.seed, lambda wa, wb, ties: wa + wb + (0 if reroll else ties) >= n, _BLOCK
    )
    return SeriesStats(n, *tallies)


def simulate_best_of(a: Allocation, b: Allocation, config: SimConfig) -> SeriesStats:
    """Run config.n_series independent best-of-config.best_of series.

    A series ends when one side reaches (best_of + 1) / 2 decisive-game
    wins. Ties never advance the score, so a matchup with no decisive
    cells cannot finish under either policy and is rejected.
    """
    if config.best_of is None:
        raise ValueError("config.best_of must be set for series simulation")
    table = matchup_table(a, b)
    if table.wins_a + table.wins_b == 0:
        raise AllTiesError("every cell ties; a best-of series can never be decided")

    need = (config.best_of + 1) // 2
    # A series lasts at most best_of decisive rolls of two outputs; twice that leaves room for ties.
    block = min(_BLOCK, 4 * config.best_of)
    a_wins = b_wins = tie_games = a_series = 0
    for state in series_seed_states(config.seed, config.n_series):
        sa, sb, st = _play(table, state, lambda wa, wb, _: np.maximum(wa, wb) >= need, block)
        a_wins, b_wins, tie_games = a_wins + sa, b_wins + sb, tie_games + st
        a_series += sa == need
    nogame = config.tie_policy is TiePolicy.NOGAME
    games_played = a_wins + b_wins + (tie_games if nogame else 0)
    return SeriesStats(
        games_played, a_wins, b_wins, tie_games, a_series, config.n_series - a_series
    )
