"""Rendering of the analysis: DOT, JSON, the text report and allocation lines.

The analysis itself is the DominanceGraph (see dominance); this module only
writes it out. Everything here is deterministic: fixed node order, fixed
edge order, fixed serialization, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from operator import attrgetter
from typing import Any, Iterable, Iterator

import numpy as np

from .allocations import Allocation, format_allocation
from .dominance import Cycle, DominanceGraph, build_graph as analyze
from .errors import SpaceTooLargeError
from .matchups import matchup_table

# The three showcase teams at the classic 6-across-3 cap.
SHOWCASE_TEAMS = (
    ("MTL", (1, 1, 4)),
    ("BOS", (2, 2, 2)),
    ("NY", (3, 3, 0)),
)

_TEXT_CYCLE_CAP = 20  # text report prints all cycles up to this many

# JSON exports list every 3-cycle; above this many the listing alone runs to
# gigabytes, so they refuse and leave the count to the text report.
MAX_LISTED_CYCLES = 10**7

# Padded bytes of a written listing piece, at least one record: Linux's
# default pipe capacity. A piece's size depends on neither its block's
# record count nor k.
_PIECE_BYTES = 1 << 16


# ---------------------------------------------------------------------------
# listings, made in pieces: DOT, the JSON exports and allocation lines


def _text_rows(texts: Iterable[str]) -> np.ndarray:
    """ASCII ``texts`` as a 1-D ``V{w}`` array, zero-padded on the right to
    the longest text's width ``w``."""
    rows = np.array([text.encode("ascii") for text in texts], dtype=bytes)
    return rows.view(f"V{rows.itemsize}")


def _records(fields: list[bytes | tuple[np.ndarray, np.ndarray]]) -> Iterator[str]:
    """The text of every row run together, in pieces of at most _PIECE_BYTES
    padded bytes and at least one row; a row is the concatenation of
    ``fields``.

    A field is a literal byte string, the same in every row, or a pair
    (texts, index): the ``_text_rows`` array ``texts`` read at the index
    array ``index``, one entry per row. A piece's texts are gathered only
    when that piece is made, so no field is held for more rows than a piece.
    """
    n_rows = next(len(field[1]) for field in fields if isinstance(field, tuple))
    dtype = np.dtype(
        [
            (f"f{i}", f"S{len(field)}" if isinstance(field, bytes) else field[0].dtype)
            for i, field in enumerate(fields)
        ]
    )
    size = max(1, _PIECE_BYTES // dtype.itemsize)
    for start in range(0, n_rows, size):
        yield _piece(fields, dtype, slice(start, min(start + size, n_rows)))


def _piece(
    fields: list[bytes | tuple[np.ndarray, np.ndarray]], dtype: np.dtype, rows: slice
) -> str:
    """The text of ``rows`` of _records' ``fields``.

    The rows are filled into a fresh byte buffer, viewed as one structured
    array, and the buffer is read out without the zero padding. That is
    exact because every text comes from json.dumps or str, and neither
    writes a NUL byte. The padded buffer is freed before the text is
    decoded, so a piece is held at most twice, and none of it is kept once
    the text is returned.
    """
    text = bytearray((rows.stop - rows.start) * dtype.itemsize)
    rec = np.frombuffer(text, dtype=dtype)
    for i, field in enumerate(fields):
        if isinstance(field, tuple):
            texts, index = field
            field = texts[index[rows]]
        rec[f"f{i}"] = field
    del rec
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def _numbers(graph: DominanceGraph) -> np.ndarray:
    """The text of every integer a listing writes, as a _text_rows array
    indexed by value.

    Those are node indices, up to n - 1, and the cell counts of an edge:
    the margin and each side's wins. A side wins a cell only with a
    nonzero face, each beating at most k faces, so every count lies in
    [0, k * (most nonzero faces of a node)]: at most k * min(k, budget),
    far below k^2 when many parts are zero.
    """
    faces = max((len(p.values) - p.values.count(0) for p in graph.nodes), default=0)
    largest = max(len(graph.nodes) - 1, graph.k * faces)
    return _text_rows(map(str, range(largest + 1)))


def dot_pieces(graph: DominanceGraph) -> Iterator[str]:
    """DOT digraph, strict edges labelled with their cell score and dashed
    draws, in pieces: the header and node lines, then the edge lines and the
    draw lines in pieces of at most _PIECE_BYTES, then the closing brace."""
    nodes = graph.nodes
    yield "\n".join(
        ["digraph dominance {", "  rankdir=LR;"]
        + [f'  n{i} [label="{format_allocation(node)}"];' for i, node in enumerate(nodes)]
    )
    numbers = _numbers(graph)
    node = np.array(nodes, dtype=object)
    for w, l in graph.pair_blocks(True):
        tables = map(matchup_table, node[w], node[l])
        # Flat, then reshaped: fromiter with an (intp, 2) dtype took 20% longer.
        counts = chain.from_iterable(map(attrgetter("wins_a", "wins_b"), tables))
        wins = np.fromiter(counts, dtype=np.intp, count=2 * len(w)).reshape(-1, 2)
        yield from _records(
            [
                b"\n  n",
                (numbers, w),
                b" -> n",
                (numbers, l),
                b' [label="',
                (numbers, wins[:, 0]),
                b"-",
                (numbers, wins[:, 1]),
                b'"];',
            ]
        )
    for first, second in graph.pair_blocks(False):
        yield from _records(
            [
                b"\n  n",
                (numbers, first),
                b" -> n",
                (numbers, second),
                b" [dir=none, style=dashed];",
            ]
        )
    yield "\n}"


def emit_dot(graph: DominanceGraph) -> str:
    """dot_pieces joined into one text."""
    return "".join(dot_pieces(graph))


def _json_members(fields: dict[str, Any]) -> str:
    """``fields`` as JSON object members, without the enclosing braces."""
    return json.dumps(fields)[1:-1]


def _list_body(pieces: Iterable[str]) -> Iterator[str]:
    """``pieces``, whose every record starts with ", ", as the body of a JSON
    list: the separator before the first record is dropped."""
    pieces = iter(pieces)
    first = next(pieces, None)
    if first is not None:
        yield first[2:]
        yield from pieces


def _graph_tail(graph: DominanceGraph) -> str:
    """The graph schema's members after "three_cycles".

    Raises SpaceTooLargeError when the graph has more than
    MAX_LISTED_CYCLES 3-cycles to list. The JSON writers call this before
    they return their pieces, so a refusal comes before the first byte,
    and the graph fields these members compute on first read run while
    the heap is still small.
    """
    n_cycles = len(graph.three_cycles)
    if n_cycles > MAX_LISTED_CYCLES:
        raise SpaceTooLargeError(
            f"{n_cycles} 3-cycles exceed the JSON listing limit {MAX_LISTED_CYCLES}; "
            "the text format reports the count"
        )
    undominated = [list(p.values) for p in graph.undominated]
    return _json_members(
        {
            "scc": [list(group) for group in graph.scc],
            "undominated": undominated,
            "claim": {"holds": not undominated, "counterexamples": undominated},
        }
    )


def _json_pieces(graph: DominanceGraph, tail: str) -> Iterator[str]:
    """The graph schema's members up to "three_cycles", then ``tail``, as a
    JSON object in pieces."""
    node_texts = [json.dumps(list(p.values)) for p in graph.nodes]
    yield "{" + _json_members({"budget": graph.budget, "k": graph.k}) + ', "nodes": ['
    yield ", ".join(node_texts)
    numbers = _numbers(graph)
    yield '], "edges": ['
    yield from _list_body(
        piece
        for w, l, m in graph.edge_blocks()
        for piece in _records(
            [
                b', {"winner": ',
                (numbers, w),
                b', "loser": ',
                (numbers, l),
                b', "margin": ',
                (numbers, m),
                b"}",
            ]
        )
    )
    yield '], "draws": ['
    yield from _list_body(
        piece
        for first, second in graph.pair_blocks(False)
        for piece in _records([b", [", (numbers, first), b", ", (numbers, second), b"]"])
    )
    yield '], "three_cycles": ['
    # Every cycle of an index block starts at the same x, so that node's
    # text is part of a literal field, not gathered for each row.
    node_rows = _text_rows(node_texts)
    yield from _list_body(
        piece
        for block in graph.three_cycles.index_blocks()
        for piece in _records(
            [
                f", [{node_texts[block[0, 0]]}, ".encode("ascii"),
                (node_rows, block[:, 1]),
                b", ",
                (node_rows, block[:, 2]),
                b"]",
            ]
        )
    )
    yield "], " + tail + "}"


def graph_json_pieces(graph: DominanceGraph) -> Iterator[str]:
    """The dominance-graph export schema (no counter table) as JSON text
    pieces, made as they are read.

    Byte for byte what json.dumps gives for the schema, written straight
    from the graph's pair blocks and the 3-cycle index blocks. Raises
    SpaceTooLargeError when called, before any piece is made, if the
    graph has more than MAX_LISTED_CYCLES 3-cycles to list.
    """
    return _json_pieces(graph, _graph_tail(graph))


def analysis_json_pieces(graph: DominanceGraph) -> Iterator[str]:
    """Graph schema plus census counts and the counter-strategy table, as
    JSON text pieces; refuses as graph_json_pieces does."""
    graph_tail = _graph_tail(graph)
    counters = [
        {
            "node": list(entry.node.values),
            "counter": list(entry.counter.values) if entry.counter else None,
            "margin": entry.margin,
        }
        for entry in graph.counters
    ]
    tail = _json_members(
        {
            "composition_count": graph.composition_count,
            "partition_count": graph.partition_count,
            "counters": counters,
        }
    )
    return _json_pieces(graph, f"{graph_tail}, {tail}")


def analysis_json_dict(graph: DominanceGraph) -> dict[str, Any]:
    """analysis_json_pieces parsed: the same schema as a dict."""
    return json.loads("".join(analysis_json_pieces(graph)))


def to_json_text(payload: dict[str, Any]) -> str:
    # No product caller: perfbench/traced.py still wraps it by name.
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# text analysis report


def _cycle_line(cycle: Cycle) -> str:
    x, y, z = cycle
    parts = [format_allocation(p) for p in (x, y, z, x)]
    return " -> ".join(parts)


def _showcase_lines(graph: DominanceGraph) -> list[str]:
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
    by_node = {entry.node.values: entry for entry in graph.counters}
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


def render_analysis_text(graph: DominanceGraph) -> str:
    """Human-readable report; states the counter-claim verdict explicitly."""
    n = graph.partition_count
    n_edges = graph.n_edges
    n_draws = n * (n - 1) // 2 - n_edges  # every other unordered pair draws
    n_cycles = len(graph.three_cycles)
    lines = [
        f"strategy space at budget {graph.budget} across {graph.k} categories",
        f"compositions (ordered allocations): {graph.composition_count}",
        f"partitions (canonical strategies): {graph.partition_count}",
        f"strict dominance edges: {n_edges}",
        f"draw pairs: {n_draws}",
        f"intransitive 3-cycles: {n_cycles}",
    ]
    shown = n_cycles if n_cycles <= _TEXT_CYCLE_CAP else 10
    for cycle in islice(graph.three_cycles, shown):
        lines.append("  " + _cycle_line(cycle))
    if n_cycles > _TEXT_CYCLE_CAP:
        if n_cycles <= MAX_LISTED_CYCLES:
            rest = "use json format for the full list"
        else:
            rest = f"the JSON formats refuse above {MAX_LISTED_CYCLES}"
        lines.append(f"  ... ({n_cycles - 10} more; {rest})")
    lines.append(
        "strongly connected component sizes: "
        + ",".join(str(s) for s in graph.scc_sizes)
    )
    # The universal-counter claim holds exactly when no strategy is undominated.
    free = graph.undominated
    if free:
        listed = "; ".join(format_allocation(p) for p in free)
        lines.append(f"undominated strategies: {listed}")
        lines.append(
            "universal counter claim: FAILS "
            f"({len(free)} undominated strateg{'y' if len(free) == 1 else 'ies'}: {listed})"
        )
    else:
        lines.append("undominated strategies: none")
        lines.append(
            "universal counter claim: HOLDS "
            f"(every allocation of {graph.budget} across {graph.k} categories "
            "has a strictly better same-cap answer)"
        )
    showcase = SHOWCASE_TEAMS[0][1]
    if graph.budget == sum(showcase) and graph.k == len(showcase):
        lines.extend(_showcase_lines(graph))
    lines.append("counter-strategy table:")
    for entry in graph.counters:
        if entry.counter is None:
            lines.append(f"  {format_allocation(entry.node)}: none")
        else:
            lines.append(
                f"  {format_allocation(entry.node)}: counter "
                f"{format_allocation(entry.counter)} (margin {entry.margin})"
            )
    return "\n".join(lines)

