"""Seeded Monte Carlo play between two allocations.

A game is one joint roll: one category index drawn uniformly per side, the
larger salary wins. The generator is pinned to splitmix64 with rejection
sampling for the indices, so identical configurations reproduce identical
tallies on any platform. Long runs converge to the exact cell
probabilities; long best-of series converge to the analytic majority
winner.

One core, ``_play``, turns the stream into rolls: a run of games is one
row, and each series a row started from the next output of the master
seed. Many rows share a block.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .allocations import Allocation
from .errors import AllTiesError
from .matchups import MatchupTable, TiePolicy, matchup_table

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096  # outputs per block; bounds the simulator's working memory
_SERIES_BLOCK = 32_768  # series played at a time, about 48 bytes of state each

MAX_BEST_OF = 10**6
MAX_SERIES = 10**6
MAX_GAMES = 10**8


def _outputs(state: int | np.ndarray, n: int) -> np.ndarray:
    """The next n splitmix64 outputs after ``state``, as wrapping uint64.

    Output m (from 1) is the mix of ``state + m * gamma``, so no stepping is
    needed. A 1-D array of states gives one row of outputs per state.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = z + np.asarray(state, dtype=np.uint64)[..., None]
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _rejection_threshold(k: int) -> int:
    return (2**64 // k) * k


def _play(table: MatchupTable, states: np.ndarray | list[int], done: Callable) -> np.ndarray:
    """Roll one row per state until ``done``; returns the tallies: a wins,
    b wins and ties, one column per row.

    Outputs at or above floor(2^64 / k) * k are rejected; a row's kept
    outputs pair up in stream order as (a's index, b's index) mod k. A row
    stops at the first roll where ``done`` holds for its running tallies.
    A block draws ``width`` outputs for each of its rows, about _BLOCK in
    all: the rows still playing share _BLOCK evenly, but a row never gets
    fewer outputs than ``floor``. It plays the whole rolls that every one of
    its rows holds, so no tally depends on the width or on which rows share
    a block.
    """
    k = len(table.a_values)
    # threshold - 1, because the threshold at k = 1 is 2^64, which uint64 cannot hold
    last_kept = np.uint64(_rejection_threshold(k) - 1)
    # Ranks in the union of both sides' faces, ranked as Python ints so faces
    # of 2^63 and up stay exact; a's are offset by d - 1, so ra[i] - rb[j] is
    # d - 1 at a tie, below it where b's face is larger and above where a's is.
    rank = {face: r for r, face in enumerate(sorted({*table.a_values, *table.b_values}))}
    d = len(rank)
    ra = np.array([rank[x] + d - 1 for x in table.a_values], dtype=np.intp)
    rb = np.array([rank[y] for y in table.b_values], dtype=np.intp)
    # a's wins add 1 and b's 2^32, so one cumsum counts both; a block holds far fewer than 2^32 rolls
    count = np.repeat(np.array([1 << 32, 0, 1], dtype=np.int64), [d - 1, 1, d - 1])
    states = np.array(states, dtype=np.uint64)
    tallies = np.zeros((3, states.size), dtype=np.int64)
    # unfinished rows of the last block first, then the rows not yet started
    live, floor = np.arange(states.size), 2
    while live.size:
        width = max(floor, _BLOCK // live.size)
        rows = live[: max(1, _BLOCK // width)]
        out = _outputs(states[rows], width)
        rejected = out > last_kept
        rolls = (width - rejected.sum(axis=1).max()) // 2
        if rolls == 0:
            # Nothing was consumed, so the block is replayed twice as wide.
            # Fewer than k outputs of a period are rejected (the mix is a
            # bijection of the counter), so the doubling ends by width k + 1.
            floor = 2 * width
            continue
        row = np.arange(rows.size)
        # each row's first 2 * rolls kept columns, in stream order
        cols = np.argsort(rejected, axis=1, kind="stable")[:, : 2 * rolls]
        x = out.ravel()[cols + width * row[:, None]]
        faces = (x - x // np.uint64(k) * np.uint64(k)).astype(np.intp)  # x % k, but faster
        run = np.cumsum(count[ra[faces[:, ::2]] - rb[faces[:, 1::2]]], axis=1)
        a0, b0, t0 = tallies[:, rows, None]
        ta, tb = a0 + (run & 0xFFFFFFFF), b0 + (run >> 32)
        tt = a0 + b0 + t0 + np.arange(1, rolls + 1) - ta - tb
        stop = done(ta, tb, tt)
        over = stop.any(axis=1)
        last = np.where(over, stop.argmax(axis=1), rolls - 1)
        tallies[:, rows] = ta[row, last], tb[row, last], tt[row, last]
        states[rows] += (cols[row, 2 * last + 1] + 1).astype(np.uint64) * np.uint64(_GAMMA)
        unfinished = rows[~over]
        live = live[rows.size - unfinished.size :]
        live[: unfinished.size] = unfinished
        if rows.size > 1 and not over.any():
            # the rows outlast their width: fewer, longer rows cost less per roll
            floor = 2 * width
    return tallies


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
            if self.best_of * self.n_series > MAX_GAMES:
                raise ValueError(f"best_of * n_series capped at {MAX_GAMES}")


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


def simulate_games(a: Allocation, b: Allocation, config: SimConfig) -> SeriesStats:
    """Play config.n_games games from the master seed and tally outcomes."""
    table = matchup_table(a, b)
    reroll = config.tie_policy is TiePolicy.REROLL
    if reroll and table.wins_a + table.wins_b == 0:
        raise AllTiesError("every cell ties; reroll play can never finish a game")

    n = config.n_games
    tallies = _play(
        table, [config.seed], lambda wa, wb, ties: wa + wb + (0 if reroll else ties) >= n
    )
    return SeriesStats(n, *tallies[:, 0].tolist())


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
    # Only the sums of a block of series are kept. Series s (from 0) starts
    # from master output s + 1, the mix of seed + (s + 1) * gamma, so the
    # block from series ``start`` draws its seeds from seed + start * gamma.
    totals, a_series = np.zeros(3, dtype=np.int64), 0
    for start in range(0, config.n_series, _SERIES_BLOCK):
        seeds = _outputs(
            (config.seed + start * _GAMMA) & _MASK64,
            min(_SERIES_BLOCK, config.n_series - start),
        )
        tallies = _play(table, seeds, lambda wa, wb, _: np.maximum(wa, wb) >= need)
        totals += tallies.sum(axis=1)
        a_series += int(np.count_nonzero(tallies[0] == need))
    a_wins, b_wins, ties = totals.tolist()
    games = a_wins + b_wins + (ties if config.tie_policy is TiePolicy.NOGAME else 0)
    return SeriesStats(games, a_wins, b_wins, ties, a_series, config.n_series - a_series)
