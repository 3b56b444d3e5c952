"""Reproduce the headline results for the classic 6-across-3 cap.

Prints the three showcase matchup grids, the full strategy-space
analysis, the counter-strategy for each showcase team, and a seeded
convergence run of the simulator against the exact game probability.
Everything is deterministic; rerunning gives identical output.

Usage: python scripts/reproduce_headline_results.py
"""

from fractions import Fraction

from capcycle import (
    Allocation,
    SimConfig,
    TiePolicy,
    analyze,
    counter_strategy,
    emit_matchup_grid,
    matchup_summary_line,
    matchup_table,
    render_analysis_text,
    simulate_best_of,
    simulate_games,
    win_probability,
)

TEAMS = [
    ("MTL", Allocation((1, 1, 4))),
    ("BOS", Allocation((2, 2, 2))),
    ("NY", Allocation((3, 3, 0))),
]


def banner(title: str) -> None:
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main() -> None:
    banner("head-to-head grids (budget 6, three categories)")
    for i in range(len(TEAMS)):
        name_a, a = TEAMS[i]
        name_b, b = TEAMS[(i + 1) % len(TEAMS)]
        table = matchup_table(a, b)
        print()
        print(emit_matchup_grid(table, name_a, name_b))
        print(matchup_summary_line(table, name_a, name_b))

    banner("full strategy-space analysis at budget 6")
    print(render_analysis_text(analyze(6, 3)))

    banner("same-cap counters for the showcase teams")
    for name, team in TEAMS:
        found = counter_strategy(team)
        counter, margin = found
        print(f"{name} ({team}): beaten by {counter} with margin {margin}")

    banner("seeded convergence: MTL vs NY, reroll policy")
    mtl, ny = TEAMS[0][1], TEAMS[2][1]
    exact = win_probability(matchup_table(mtl, ny), TiePolicy.REROLL)
    print(f"exact per-game p(MTL) = {exact} = {float(exact):.6f}")
    for n_games in (100, 1000, 10000, 100000):
        stats = simulate_games(mtl, ny, SimConfig(seed=42, n_games=n_games))
        freq = stats.empirical_a_frequency
        gap = abs(Fraction(stats.a_game_wins, n_games) - exact)
        print(
            f"n={n_games:>6}: empirical {freq:.6f}  |gap| = {float(gap):.6f}"
        )

    print()
    print("long best-of series amplify the per-game edge:")
    for best_of in (7, 31, 301):
        stats = simulate_best_of(
            mtl, ny, SimConfig(seed=7, n_games=1, best_of=best_of, n_series=1000)
        )
        print(
            f"best-of-{best_of:>3} x 1000 series: "
            f"MTL {stats.a_series_wins}, NY {stats.b_series_wins}"
        )


if __name__ == "__main__":
    main()
