"""Report assembly and rendering: grids, DOT, JSON, and the text analysis.

Everything here is deterministic: fixed node order, fixed edge order,
fixed serialization, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from typing import Any

import numpy as np

from .allocations import (
    DEFAULT_SPACE_LIMIT,
    Allocation,
    Partition,
    composition_count,
    format_allocation,
)
from .dominance import (
    ClaimVerdict,
    Cycle,
    DominanceGraph,
    ThreeCycles,
    best_counters,
    build_graph,
    find_three_cycles,
    strongly_connected_components,
    undominated,
)
from .errors import SpaceTooLargeError
from .matchups import Cell, MatchupTable, SeriesOutcome, matchup_table, series_outcome
from .simulate import SeriesStats, SimConfig

# The three showcase teams at the classic 6-across-3 cap.
SHOWCASE_BUDGET = 6
SHOWCASE_K = 3
SHOWCASE_TEAMS = (
    ("MTL", (1, 1, 4)),
    ("BOS", (2, 2, 2)),
    ("NY", (3, 3, 0)),
)

_TEXT_CYCLE_CAP = 20  # text report prints all cycles up to this many

# JSON exports list every 3-cycle; above this many the listing alone runs to
# gigabytes, so they refuse and leave the count to the text report.
MAX_LISTED_CYCLES = 10**7


@dataclass(frozen=True)
class CounterEntry:
    """One row of the counter-strategy table."""

    node: Partition
    counter: Partition | None
    margin: int | None


@dataclass(frozen=True)
class AnalysisReport:
    """Full strategy-space report for one (budget, k).

    ``three_cycles`` is a ThreeCycles from analyze and a tuple when rebuilt
    from JSON; the two compare equal.
    """

    graph: DominanceGraph
    composition_count: int
    partition_count: int
    three_cycles: ThreeCycles | tuple[Cycle, ...]
    scc: tuple[tuple[int, ...], ...]
    undominated: tuple[Partition, ...]
    claim: ClaimVerdict
    counters: tuple[CounterEntry, ...]

    @property
    def budget(self) -> int:
        return self.graph.budget

    @property
    def k(self) -> int:
        return self.graph.k

    @property
    def scc_sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(s) for s in self.scc), reverse=True))


def analyze(budget: int, k: int, limit: int = DEFAULT_SPACE_LIMIT) -> AnalysisReport:
    """Build the complete report for the capped strategy space."""
    graph = build_graph(budget, k, limit)
    counters = tuple(
        CounterEntry(node, pair[0] if pair else None, pair[1] if pair else None)
        for node, pair in zip(graph.nodes, best_counters(graph))
    )
    free = tuple(undominated(graph))
    return AnalysisReport(
        graph=graph,
        composition_count=composition_count(budget, k),
        partition_count=len(graph.nodes),
        three_cycles=find_three_cycles(graph),
        scc=tuple(strongly_connected_components(graph)),
        undominated=free,
        claim=ClaimVerdict(not free, free, budget, k),
        counters=counters,
    )


# ---------------------------------------------------------------------------
# matchup grid rendering


def emit_matchup_grid(
    a: Allocation,
    b: Allocation,
    table: MatchupTable,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Text grid: b's values head the columns, a's values head the rows,
    each interior cell names the winning side or "tie"."""
    corner = f"{label_a}\\{label_b}"
    cell_texts = {Cell.A_WIN: label_a, Cell.B_WIN: label_b, Cell.TIE: "tie"}
    col_w = max(
        len(label_a), len(label_b), 3, *(len(str(v)) for v in b.values)
    )
    head_w = max(len(corner), *(len(str(v)) for v in a.values))

    lines = [
        corner.rjust(head_w)
        + " |"
        + "".join(f" {str(v).rjust(col_w)}" for v in b.values)
    ]
    lines.append("-" * head_w + "-+" + "-" * (table.k * (col_w + 1)))
    for value, row in zip(a.values, table.cells):
        lines.append(
            str(value).rjust(head_w)
            + " |"
            + "".join(f" {cell_texts[c].rjust(col_w)}" for c in row)
        )
    return "\n".join(lines)


def matchup_summary_line(
    table: MatchupTable, label_a: str = "A", label_b: str = "B"
) -> str:
    """One-line tally plus the majority verdict."""
    outcome = series_outcome(table)
    verdict = {
        SeriesOutcome.A_WINS: label_a,
        SeriesOutcome.B_WINS: label_b,
        SeriesOutcome.DRAW: "draw",
    }[outcome]
    return (
        f"{label_a} wins {table.wins_a}, {label_b} wins {table.wins_b}, "
        f"ties {table.ties}; outcome: {verdict}"
    )


def emit_matchup_csv(
    a: Allocation,
    b: Allocation,
    table: MatchupTable,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """CSV grid: header row/column carry the input values, cells the winner."""
    import csv
    import io

    cell_texts = {Cell.A_WIN: label_a, Cell.B_WIN: label_b, Cell.TIE: "tie"}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [str(v) for v in b.values])
    for value, row in zip(a.values, table.cells):
        writer.writerow([str(value)] + [cell_texts[c] for c in row])
    return buf.getvalue().rstrip("\n")


def matchup_json_dict(a: Allocation, b: Allocation, table: MatchupTable) -> dict[str, Any]:
    return {
        "a": list(a.values),
        "b": list(b.values),
        "k": table.k,
        "a_budget": a.budget,
        "b_budget": b.budget,
        "wins_a": table.wins_a,
        "wins_b": table.wins_b,
        "ties": table.ties,
        "outcome": series_outcome(table).value,
        "cells": [[c.value for c in row] for row in table.cells],
    }


# ---------------------------------------------------------------------------
# graph exports


def emit_dot(graph: DominanceGraph) -> str:
    """DOT digraph: margin-labelled strict edges, dashed undirected draws."""
    lines = ["digraph dominance {", "  rankdir=LR;"]
    for i, node in enumerate(graph.nodes):
        lines.append(f'  n{i} [label="{format_allocation(node)}"];')
    for w, l, _ in graph.edges:
        t = matchup_table(graph.nodes[w], graph.nodes[l])
        lines.append(f'  n{w} -> n{l} [label="{t.wins_a}-{t.wins_b}"];')
    for i, j in graph.draw_pairs:
        lines.append(f"  n{i} -> n{j} [dir=none, style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def _json_members(fields: dict[str, Any]) -> str:
    """``fields`` as JSON object members, without the enclosing braces."""
    return json.dumps(fields)[1:-1]


_EDGE_JSON = '{"winner": %d, "loser": %d, "margin": %d}'


def _cycle_blocks(report: AnalysisReport) -> Iterable[np.ndarray]:
    """The report's 3-cycles as int32 node-index blocks whose rows share
    their first node."""
    cycles = report.three_cycles
    if isinstance(cycles, ThreeCycles):
        return cycles.index_blocks()
    if not cycles:
        return []
    # A report rebuilt from JSON holds its cycles as partitions: index them
    # and split wherever the first node changes.
    index = {p: i for i, p in enumerate(report.graph.nodes)}
    triples = np.array([[index[p] for p in c] for c in cycles], dtype=np.int32)
    return np.split(triples, np.flatnonzero(np.diff(triples[:, 0])) + 1)


def _cycle_pieces(report: AnalysisReport, node_texts: list[str]) -> list[str]:
    """The members of the "three_cycles" list as JSON text, one piece per
    block with ", " pieces between, so the final join is the only copy."""
    pieces = []
    for block in _cycle_blocks(report):
        head = f"[{node_texts[block[0, 0]]}, "
        tails = block[:, 1:].tolist()
        pieces += (", ", ", ".join([f"{head}{node_texts[y]}, {node_texts[z]}]" for y, z in tails]))
    return pieces[1:]


def _graph_json_pieces(report: AnalysisReport) -> list[str]:
    """The graph schema as JSON text pieces, from its "{" up to, but not
    including, its closing "}".

    Raises SpaceTooLargeError, before listing anything, when the report
    has more than MAX_LISTED_CYCLES 3-cycles to list.
    """
    n_cycles = len(report.three_cycles)
    if n_cycles > MAX_LISTED_CYCLES:
        raise SpaceTooLargeError(
            f"{n_cycles} 3-cycles exceed the JSON listing limit {MAX_LISTED_CYCLES}; "
            "the text format reports the count"
        )
    g = report.graph
    node_texts = [json.dumps(list(p.values)) for p in g.nodes]
    winners, losers = np.nonzero(g.margin > 0)
    margins = g.margin[winners, losers]
    edges = zip(winners.tolist(), losers.tolist(), margins.tolist())
    first, second = np.nonzero(np.triu(g.margin == 0, k=1))
    draws = zip(first.tolist(), second.tolist())
    return [
        "{",
        _json_members({"budget": g.budget, "k": g.k}),
        ', "nodes": [',
        ", ".join(node_texts),
        '], "edges": [',
        ", ".join(_EDGE_JSON % edge for edge in edges),
        '], "draws": [',
        ", ".join(f"[{i}, {j}]" for i, j in draws),
        '], "three_cycles": [',
        *_cycle_pieces(report, node_texts),
        "], ",
        _json_members(
            {
                "scc": [list(group) for group in report.scc],
                "undominated": [list(p.values) for p in report.undominated],
                "claim": {
                    "holds": report.claim.holds,
                    "counterexamples": [
                        list(p.values) for p in report.claim.counterexamples
                    ],
                },
            }
        ),
    ]


def graph_json_text(report: AnalysisReport) -> str:
    """The dominance-graph export schema (no counter table) as JSON text.

    Byte for byte what json.dumps gives for the schema, written straight
    from the margin matrix and the 3-cycle index blocks, so no per-cycle
    lists are built. Raises SpaceTooLargeError, before listing anything,
    when the report has more than MAX_LISTED_CYCLES 3-cycles to list.
    """
    pieces = _graph_json_pieces(report)
    pieces.append("}")
    return "".join(pieces)


def analysis_json_text(report: AnalysisReport) -> str:
    """Graph schema plus census counts and the counter-strategy table, as JSON text."""
    pieces = _graph_json_pieces(report)
    counters = [
        {
            "node": list(entry.node.values),
            "counter": list(entry.counter.values) if entry.counter else None,
            "margin": entry.margin,
        }
        for entry in report.counters
    ]
    pieces += [
        ", ",
        _json_members(
            {
                "composition_count": report.composition_count,
                "partition_count": report.partition_count,
                "counters": counters,
            }
        ),
        "}",
    ]
    return "".join(pieces)


def graph_json_dict(report: AnalysisReport) -> dict[str, Any]:
    """graph_json_text parsed: the same schema as a dict."""
    return json.loads(graph_json_text(report))


def analysis_json_dict(report: AnalysisReport) -> dict[str, Any]:
    """analysis_json_text parsed: the same schema as a dict."""
    return json.loads(analysis_json_text(report))


def analysis_from_json_dict(payload: dict[str, Any]) -> AnalysisReport:
    """Rebuild an AnalysisReport from its JSON form (field-for-field equal)."""
    nodes = tuple(Partition(tuple(v)) for v in payload["nodes"])
    graph = DominanceGraph(budget=payload["budget"], k=payload["k"], nodes=nodes)
    return AnalysisReport(
        graph=graph,
        composition_count=payload["composition_count"],
        partition_count=payload["partition_count"],
        three_cycles=tuple(
            tuple(Partition(tuple(v)) for v in cyc) for cyc in payload["three_cycles"]
        ),
        scc=tuple(tuple(group) for group in payload["scc"]),
        undominated=tuple(Partition(tuple(v)) for v in payload["undominated"]),
        claim=ClaimVerdict(
            holds=payload["claim"]["holds"],
            counterexamples=tuple(
                Partition(tuple(v)) for v in payload["claim"]["counterexamples"]
            ),
            budget=payload["budget"],
            k=payload["k"],
        ),
        counters=tuple(
            CounterEntry(
                node=Partition(tuple(c["node"])),
                counter=Partition(tuple(c["counter"])) if c["counter"] else None,
                margin=c["margin"],
            )
            for c in payload["counters"]
        ),
    )


def to_json_text(payload: dict[str, Any]) -> str:
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# text analysis report


def _cycle_line(cycle: Cycle) -> str:
    x, y, z = cycle
    parts = [format_allocation(p) for p in (x, y, z, x)]
    return " -> ".join(parts)


def _showcase_lines(report: AnalysisReport) -> list[str]:
    lines = [
        "showcase teams: "
        + " / ".join(f"{name} {format_allocation(v)}" for name, v in SHOWCASE_TEAMS)
    ]
    results = []
    for (name_i, vi), (name_j, vj) in [
        (SHOWCASE_TEAMS[1], SHOWCASE_TEAMS[0]),  # BOS vs MTL
        (SHOWCASE_TEAMS[2], SHOWCASE_TEAMS[1]),  # NY vs BOS
        (SHOWCASE_TEAMS[0], SHOWCASE_TEAMS[2]),  # MTL vs NY
    ]:
        t = matchup_table(Allocation(vi), Allocation(vj))
        results.append(f"{name_i} beats {name_j} {t.wins_a}-{t.wins_b}")
    lines.append("  " + "; ".join(results))
    by_node = {entry.node.values: entry for entry in report.counters}
    counter_bits = []
    all_covered = True
    for name, values in SHOWCASE_TEAMS:
        entry = by_node[tuple(sorted(values, reverse=True))]
        if entry.counter is None:
            all_covered = False
            counter_bits.append(f"{name} -> none")
        else:
            counter_bits.append(f"{name} -> {format_allocation(entry.counter)}")
    coverage = "every" if all_covered else "not every"
    lines.append(
        f"  {coverage} showcase team has a same-cap counter: " + "; ".join(counter_bits)
    )
    return lines


def render_analysis_text(report: AnalysisReport) -> str:
    """Human-readable report; states the counter-claim verdict explicitly."""
    n = len(report.graph.nodes)
    n_edges = int(np.count_nonzero(report.graph.margin > 0))
    n_draws = n * (n - 1) // 2 - n_edges  # every other unordered pair draws
    n_cycles = len(report.three_cycles)
    lines = [
        f"strategy space at budget {report.budget} across {report.k} categories",
        f"compositions (ordered allocations): {report.composition_count}",
        f"partitions (canonical strategies): {report.partition_count}",
        f"strict dominance edges: {n_edges}",
        f"draw pairs: {n_draws}",
        f"intransitive 3-cycles: {n_cycles}",
    ]
    shown = n_cycles if n_cycles <= _TEXT_CYCLE_CAP else 10
    for cycle in islice(report.three_cycles, shown):
        lines.append("  " + _cycle_line(cycle))
    if n_cycles > _TEXT_CYCLE_CAP:
        if n_cycles <= MAX_LISTED_CYCLES:
            rest = "use json format for the full list"
        else:
            rest = f"the JSON formats refuse above {MAX_LISTED_CYCLES}"
        lines.append(f"  ... ({n_cycles - 10} more; {rest})")
    lines.append(
        "strongly connected component sizes: "
        + ",".join(str(s) for s in report.scc_sizes)
    )
    if report.undominated:
        lines.append(
            "undominated strategies: "
            + "; ".join(format_allocation(p) for p in report.undominated)
        )
    else:
        lines.append("undominated strategies: none")
    if report.claim.holds:
        lines.append(
            "universal counter claim: HOLDS "
            f"(every allocation of {report.budget} across {report.k} categories "
            "has a strictly better same-cap answer)"
        )
    else:
        ce = "; ".join(format_allocation(p) for p in report.claim.counterexamples)
        lines.append(
            "universal counter claim: FAILS "
            f"({len(report.claim.counterexamples)} undominated strateg"
            f"{'y' if len(report.claim.counterexamples) == 1 else 'ies'}: {ce})"
        )
    if report.budget == SHOWCASE_BUDGET and report.k == SHOWCASE_K:
        lines.extend(_showcase_lines(report))
    lines.append("counter-strategy table:")
    for entry in report.counters:
        if entry.counter is None:
            lines.append(f"  {format_allocation(entry.node)}: none")
        else:
            lines.append(
                f"  {format_allocation(entry.node)}: counter "
                f"{format_allocation(entry.counter)} (margin {entry.margin})"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# simulation serialization


def simulation_json_dict(config: SimConfig, stats: SeriesStats, exact_p) -> dict[str, Any]:
    """The "simulation" report block; exact_p is a Fraction or None."""
    return {
        "simulation": {
            "seed": config.seed,
            "n_games": config.n_games,
            "tie_policy": config.tie_policy.value,
            "best_of": config.best_of,
            "n_series": config.n_series,
            "a_game_wins": stats.a_game_wins,
            "b_game_wins": stats.b_game_wins,
            "tie_games": stats.tie_games,
            "a_series_wins": stats.a_series_wins,
            "b_series_wins": stats.b_series_wins,
            "exact_p": (
                {"num": exact_p.numerator, "den": exact_p.denominator}
                if exact_p is not None
                else None
            ),
        }
    }
