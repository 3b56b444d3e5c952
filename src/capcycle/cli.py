"""Command-line front end.

Subcommands: matchup, enumerate, graph, counter, analyze, simulate.
Exit codes: 0 success, 1 usage error or output that cannot be written,
2 invalid allocation input, 3 strategy space over the enumeration limit,
or a JSON export with more 3-cycles to list than report.MAX_LISTED_CYCLES.
The enumeration limit is read by the library's guard in allocations, from
the CAPCYCLE_MAX_SPACE environment variable when it is set, so only the
commands that enumerate read it, and a bad value exits 1 as a ValueError.

Each command imports the modules it runs only when it is run. matchup,
counter, enumerate, --help and a usage error load allocations, errors and
matchups, and no numpy; simulate adds simulate; analyze and graph add
report and dominance, and neither loads simulate.

Output is written as it is produced, one write call a piece: the JSON and
DOT listings in pieces of at most report._PIECE_BYTES of text or one record,
enumerate in pieces of about allocations._PIECE_VALUES values, so no output
is held whole. Every refusal happens before the first byte is written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from numbers import Rational

from .allocations import (
    allocation_lines,
    composition_tuples,
    format_allocation,
    parse_allocation,
    partition_tuples,
)
from .errors import AllocationError, SpaceTooLargeError
from .matchups import (
    TiePolicy,
    counter_strategy,
    emit_matchup_csv,
    emit_matchup_grid,
    matchup_json_dict,
    matchup_summary_line,
    matchup_table,
    win_probability,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, and "-1,2" or
    "-.5" read as a value, so it reaches the allocation check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="capcycle",
        description="Exact analysis and seeded simulation of budget-capped "
        "allocation games (salary-cap dice).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
        p.set_defaults(run=run)
        return p

    p = add("matchup", _cmd_matchup, "head-to-head grid between two allocations")
    p.add_argument("--a", required=True, metavar="CSV", help='first allocation, e.g. "1,1,4"')
    p.add_argument("--b", required=True, metavar="CSV", help='second allocation, e.g. "3,3,0"')
    p.add_argument("--format", choices=["grid", "json", "csv"], default="grid")
    p.add_argument("--label-a", default="A", help="display label for the first side")
    p.add_argument("--label-b", default="B", help="display label for the second side")

    p = add("enumerate", _cmd_enumerate, "list the capped strategy space")
    p.add_argument("--budget", type=int, default=6)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--partitions", action="store_true", help="canonical partitions only")

    p = add("graph", _cmd_graph, "dominance digraph export")
    p.add_argument("--budget", type=int, default=6)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--format", choices=["dot", "json"], default="dot")

    p = add("counter", _cmd_counter, "best same-cap counter-strategy")
    p.add_argument("--a", required=True, metavar="CSV")
    p.add_argument("--budget", type=int, default=None, help="must equal the sum of --a")

    p = add("analyze", _cmd_analyze, "full strategy-space report")
    p.add_argument("--budget", type=int, default=6)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--format", choices=["json", "text"], default="text")

    p = add("simulate", _cmd_simulate, "seeded Monte Carlo games and series")
    p.add_argument("--a", required=True, metavar="CSV")
    p.add_argument("--b", required=True, metavar="CSV")
    p.add_argument("--games", required=True, type=int, metavar="N")
    p.add_argument("--seed", required=True, type=int, metavar="N")
    p.add_argument("--tie-policy", choices=["reroll", "nogame"], default="reroll")
    p.add_argument("--best-of", type=int, default=None, metavar="ODD")
    p.add_argument("--series", type=int, default=None, metavar="N")
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _fraction_text(p: Rational) -> str:
    return f"{p.numerator}/{p.denominator} ({float(p):.4f})"


def _cmd_matchup(args) -> str:
    a = parse_allocation(args.a)
    b = parse_allocation(args.b)
    table = matchup_table(a, b)
    if args.format == "json":
        return json.dumps(matchup_json_dict(table))
    if args.format == "csv":
        return emit_matchup_csv(table, args.label_a, args.label_b)
    lines = [
        emit_matchup_grid(table, args.label_a, args.label_b),
        matchup_summary_line(table, args.label_a, args.label_b),
    ]
    if a.budget != b.budget:
        lines.append(
            f"note: budgets differ ({args.label_a} {a.budget} vs {args.label_b} {b.budget})"
        )
    return "\n".join(lines)


def _cmd_enumerate(args) -> Iterator[str]:
    tuples = partition_tuples if args.partitions else composition_tuples
    return allocation_lines(tuples(args.budget, args.k), args.k)


def _cmd_graph(args) -> Iterator[str]:
    from .report import analyze, dot_pieces, graph_json_pieces

    graph = analyze(args.budget, args.k)
    return graph_json_pieces(graph) if args.format == "json" else dot_pieces(graph)


def _cmd_counter(args) -> str:
    a = parse_allocation(args.a)
    if args.budget is not None and args.budget != a.budget:
        raise ValueError(
            f"counter search budget {args.budget} must equal the allocation's budget {a.budget}"
        )
    found = counter_strategy(a)
    if found is None:
        return "counter: none"
    counter, margin = found
    return f"counter: {format_allocation(counter)} (margin {margin})"


def _cmd_analyze(args) -> str | Iterator[str]:
    from .report import analysis_json_pieces, analyze, render_analysis_text

    graph = analyze(args.budget, args.k)
    if args.format == "json":
        return analysis_json_pieces(graph)
    return render_analysis_text(graph)


def _cmd_simulate(args) -> str:
    from .simulate import SimConfig, simulate_best_of, simulate_games, simulation_json_dict

    if args.series is not None and args.best_of is None:
        raise ValueError("--series requires --best-of")
    a = parse_allocation(args.a)
    b = parse_allocation(args.b)
    policy = TiePolicy(args.tie_policy)
    config = SimConfig(
        seed=args.seed,
        n_games=args.games,
        tie_policy=policy,
        best_of=args.best_of,
        n_series=args.series if args.series is not None else 1,
    )
    if config.best_of is not None:
        stats = simulate_best_of(a, b, config)
    else:
        stats = simulate_games(a, b, config)

    exact_p = win_probability(matchup_table(a, b), policy)
    if args.format == "json":
        return json.dumps(simulation_json_dict(config, stats, exact_p))

    tie_word = "ties rerolled" if policy is TiePolicy.REROLL else "ties"
    lines = [
        f"a: {format_allocation(a)} (budget {a.budget})",
        f"b: {format_allocation(b)} (budget {b.budget})",
        f"policy: {policy.value}, seed {config.seed}",
        f"games played: {stats.games_played} "
        f"(a {stats.a_game_wins}, b {stats.b_game_wins}, {tie_word} {stats.tie_games})",
    ]
    freq = stats.empirical_a_frequency
    if freq is None:
        lines.append("empirical a frequency: undefined (no decisive games)")
    else:
        lines.append(f"empirical a frequency: {freq:.4f}")
    lines.append(f"exact p(a): {_fraction_text(exact_p)}")
    if config.best_of is not None:
        lines.append(f"series: best-of-{config.best_of} x {config.n_series}")
        lines.append(f"series wins: a {stats.a_series_wins}, b {stats.b_series_wins}")
    return "\n".join(lines)


def _write(output: str | Iterable[str], out_path: str | None) -> int:
    """Write the output, one text or its pieces in order, then a newline, to
    out_path or stdout; returns the exit code, 1 if it cannot be written."""
    try:
        stream = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
        with stream if out_path else contextlib.nullcontext():  # closes a file, not stdout
            for piece in [output] if isinstance(output, str) else output:
                stream.write(piece)
                del piece  # freed before the generator makes the next piece
            stream.write("\n")
            stream.flush()
    except OSError as exc:
        if not out_path:
            # Point stdout at the null device, so the flush at interpreter exit
            # does not fail again. A closed pipe means the reader has gone: quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 1
        print(f"capcycle: cannot write {out_path or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)

    try:
        output = args.run(args)
    except AllocationError as exc:
        print(f"capcycle: invalid allocation: {exc}", file=sys.stderr)
        return 2
    except SpaceTooLargeError as exc:
        print(f"capcycle: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DimensionMismatchError and AllTiesError among them
        print(f"capcycle: {exc}", file=sys.stderr)
        return 1

    return _write(output, args.out)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
