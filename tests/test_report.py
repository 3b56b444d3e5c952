import csv
import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import capcycle.dominance as dominance_module
import capcycle.report as report_module
from capcycle import (
    Allocation,
    DominanceGraph,
    Partition,
    SimConfig,
    SpaceTooLargeError,
    analysis_json_pieces,
    analyze,
    dot_pieces,
    emit_matchup_csv,
    emit_matchup_grid,
    format_allocation,
    graph_json_pieces,
    matchup_json_dict,
    matchup_summary_line,
    matchup_table,
    render_analysis_text,
    simulate_games,
    simulation_json_dict,
)
from capcycle.allocations import composition_tuples
from capcycle.dominance import _margins, build_graph
from capcycle.report import _allocation_lines, analysis_json_dict, emit_dot, to_json_text

from . import _oracles
from .test_dominance import small_spaces

MTL = Allocation((1, 1, 4))
BOS = Allocation((2, 2, 2))
NY = Allocation((3, 3, 0))

EXPECTED_GRID = """\
MTL\\NY |   3   3   0
-------+------------
     1 |  NY  NY MTL
     1 |  NY  NY MTL
     4 | MTL MTL MTL"""

EXPECTED_CSV = """\
,3,3,0
1,NY,NY,MTL
1,NY,NY,MTL
4,MTL,MTL,MTL"""

EXPECTED_DOT = """\
digraph dominance {
  rankdir=LR;
  n0 [label="6,0,0"];
  n1 [label="5,1,0"];
  n2 [label="4,2,0"];
  n3 [label="4,1,1"];
  n4 [label="3,3,0"];
  n5 [label="3,2,1"];
  n6 [label="2,2,2"];
  n1 -> n0 [label="4-3"];
  n2 -> n0 [label="4-3"];
  n3 -> n0 [label="6-3"];
  n3 -> n1 [label="4-3"];
  n3 -> n4 [label="5-4"];
  n4 -> n0 [label="4-3"];
  n4 -> n5 [label="4-3"];
  n4 -> n6 [label="6-3"];
  n5 -> n0 [label="6-3"];
  n5 -> n1 [label="5-3"];
  n5 -> n3 [label="4-3"];
  n6 -> n0 [label="6-3"];
  n6 -> n1 [label="6-3"];
  n6 -> n3 [label="6-3"];
  n1 -> n2 [dir=none, style=dashed];
  n1 -> n4 [dir=none, style=dashed];
  n2 -> n3 [dir=none, style=dashed];
  n2 -> n4 [dir=none, style=dashed];
  n2 -> n5 [dir=none, style=dashed];
  n2 -> n6 [dir=none, style=dashed];
  n5 -> n6 [dir=none, style=dashed];
}"""


@pytest.fixture(scope="module")
def report_6_3():
    return analyze(6, 3)


def _listing_pieces(pieces: list[str], dot: bool) -> list[str]:
    """The pieces of a DOT or JSON export that list edges, draws or 3-cycles:
    all but the header, the node list, the list openers and the tail."""
    if dot:
        return pieces[1:-1]
    openers = {'], "edges": [', '], "draws": [', '], "three_cycles": ['}
    return [piece for piece in pieces[3:-1] if piece not in openers]


def assert_text_matches_oracle(report):
    assert "".join(graph_json_pieces(report)) == json.dumps(_oracles.graph_json_dict(report))
    assert "".join(analysis_json_pieces(report)) == json.dumps(
        _oracles.analysis_json_dict(report)
    )


@st.composite
def matchup_sides(draw):
    """Two sides of 1 to 6 values with unequal budgets, a's holding one
    value of at least 2^63."""
    k = draw(st.integers(min_value=1, max_value=6))
    value = st.one_of(st.integers(0, 9), st.integers(0, 2**64))
    a, b = (draw(st.lists(value, min_size=k, max_size=k)) for _ in range(2))
    a[draw(st.integers(0, k - 1))] = draw(st.integers(2**63, 2**70))
    assume(sum(a) != sum(b))
    return tuple(a), tuple(b)


# No whitespace, so a grid cell is its text stripped; longer than any value
# above at up to 30 characters.
labels = st.text(alphabet='ab,"Z', min_size=1, max_size=30)


def grid_fields(grid: str, k: int) -> list[list[str]]:
    """The grid's header and body rows split at its column rule."""
    head, rule, *body = grid.split("\n")
    head_w = rule.index("+") - 1
    width = (len(rule) - head_w - 2) // k
    assert rule == "-" * head_w + "-+" + "-" * (k * width)
    rows = []
    for line in [head, *body]:
        assert len(line) == len(rule) and line[head_w : head_w + 2] == " |"
        cells = [line[head_w + 2 + j * width :][:width] for j in range(k)]
        rows.append([text.strip() for text in [line[:head_w], *cells]])
    return rows


class TestMatchupRendering:
    def test_grid_frozen(self):
        grid = emit_matchup_grid(matchup_table(MTL, NY), "MTL", "NY")
        assert grid == EXPECTED_GRID

    @pytest.mark.parametrize(
        "a, b, labels, line, outcome",
        [
            (MTL, NY, ("MTL", "NY"), "MTL wins 5, NY wins 4, ties 0; outcome: MTL", "A"),
            (BOS, NY, ("BOS", "NY"), "BOS wins 3, NY wins 6, ties 0; outcome: NY", "B"),
            (
                Allocation((5, 1, 0)),
                Allocation((4, 2, 0)),
                (),
                "A wins 4, B wins 4, ties 1; outcome: draw",
                "draw",
            ),
        ],
        ids=["a-wins", "b-wins", "draw"],
    )
    def test_summary_line(self, a, b, labels, line, outcome):
        t = matchup_table(a, b)
        assert matchup_summary_line(t, *labels) == line
        assert matchup_json_dict(t)["outcome"] == outcome

    def test_csv_frozen(self):
        out = emit_matchup_csv(matchup_table(MTL, NY), "MTL", "NY")
        assert out == EXPECTED_CSV

    def test_grid_shows_ties(self):
        a, b = Allocation((2, 2, 2)), Allocation((3, 2, 1))
        grid = emit_matchup_grid(matchup_table(a, b))
        assert "tie" in grid

    def test_identical_constant_allocations_all_tie_body(self):
        c = Allocation((2, 2, 2))
        grid = emit_matchup_grid(matchup_table(c, c))
        body = grid.splitlines()[2:]
        assert len(body) == 3
        for line in body:
            cells = line.split("|")[1].split()
            assert cells == ["tie", "tie", "tie"]

    def test_single_cell_grid(self):
        a, b = Allocation((2,)), Allocation((1,))
        grid = emit_matchup_grid(matchup_table(a, b))
        lines = grid.splitlines()
        assert len(lines) == 3
        assert lines[2].split("|")[1].split() == ["A"]

    def test_json_dict(self):
        payload = matchup_json_dict(matchup_table(MTL, NY))
        assert payload == {
            "a": [1, 1, 4],
            "b": [3, 3, 0],
            "k": 3,
            "a_budget": 6,
            "b_budget": 6,
            "wins_a": 5,
            "wins_b": 4,
            "ties": 0,
            "outcome": "A",
            "cells": [
                ["B", "B", "A"],
                ["B", "B", "A"],
                ["A", "A", "A"],
            ],
        }
        json.dumps(payload)  # must be serializable as-is


    @given(matchup_sides(), labels, labels)
    @example(((2**63, 1), (1, 2**63)), "a,b", "LONGLABEL")
    @example(((2**64, 0, 5), (5, 5, 5)), 'say"hi"', "Z" * 30)
    def test_renderers_match_oracle_grid(self, sides, label_a, label_b):
        a, b = sides
        table = matchup_table(Allocation(a), Allocation(b))
        texts = {"A": label_a, "B": label_b, "tie": "tie"}
        body = [
            [str(x), *(texts[c] for c in row)] for x, row in zip(a, _oracles.cell_grid(a, b))
        ]
        header = [str(y) for y in b]
        grid = emit_matchup_grid(table, label_a, label_b)
        assert grid_fields(grid, len(a)) == [[f"{label_a}\\{label_b}", *header], *body]
        out = emit_matchup_csv(table, label_a, label_b)
        assert list(csv.reader(io.StringIO(out))) == [["", *header], *body]
        payload = matchup_json_dict(table)
        assert (payload["a"], payload["b"]) == (list(a), list(b))
        assert (payload["a_budget"], payload["b_budget"]) == (sum(a), sum(b))


class TestAnalyze:
    def test_census_fields(self, report_6_3):
        r = report_6_3
        assert (r.budget, r.k) == (6, 3)
        assert r.composition_count == 28
        assert r.partition_count == 7
        assert len(r.edges) == 14
        assert len(r.draw_pairs) == 7
        assert r.scc_sizes == (4, 1, 1, 1)
        assert [p.values for p in r.undominated] == [(4, 2, 0)]

    def test_counter_table_covers_every_node(self, report_6_3):
        assert [e.node for e in report_6_3.counters] == list(report_6_3.nodes)
        by_node = {e.node.values: e for e in report_6_3.counters}
        assert by_node[(4, 2, 0)].counter is None
        assert by_node[(3, 3, 0)].counter.values == (4, 1, 1)
        assert by_node[(3, 3, 0)].margin == 1


class TestGraphExports:
    def test_dot_frozen(self):
        assert emit_dot(analyze(6, 3)) == EXPECTED_DOT

    def test_dot_single_node_space(self):
        dot = emit_dot(analyze(0, 3))
        assert 'n0 [label="0,0,0"];' in dot
        assert "->" not in dot

    @given(small_spaces)
    def test_dot_matches_oracle(self, space):
        graph = build_graph(*space)
        assert emit_dot(graph) == _oracles.dot(graph)

    @pytest.mark.parametrize("budget, k", [(12, 4), (20, 5)], ids=["12-4", "20-5"])
    def test_pinned_dot_matches_oracle(self, budget, k):
        graph = build_graph(budget, k)
        assert emit_dot(graph) == _oracles.dot(graph)

    @pytest.mark.parametrize("budget, k", [(3, 12), (2, 40)], ids=["3-12", "2-40"])
    def test_counts_past_the_node_count_match_oracle(self, budget, k):
        # Three and two nodes, but win counts up to 33 and 78 and an int16
        # margin: the number table must reach past the node indices.
        report = analyze(budget, k)
        assert next(_margins([p.values for p in report.nodes]))[1].dtype == np.int16
        assert emit_dot(report) == _oracles.dot(report)
        assert "".join(graph_json_pieces(report)) == json.dumps(
            _oracles.graph_json_dict(report)
        )

    @pytest.mark.parametrize(
        "make, rows",
        [
            (lambda: build_graph(10, 12), None),
            # (7, 3)'s nodes with 2^63 added to every face: each pair compares
            # as at (7, 3), and the kernel ranks the faces as Python ints.
            (
                lambda: DominanceGraph(
                    7 + 3 * 2**63,
                    3,
                    tuple(
                        Partition(tuple(v + 2**63 for v in p.values))
                        for p in build_graph(7, 3).nodes
                    ),
                ),
                None,
            ),
            # 34 nodes in five kernel blocks of up to 8 columns: edge_blocks
            # reads each edge's margin from the block that holds its winner.
            (lambda: build_graph(12, 4), 8),
        ],
        ids=["10-12", "faces-past-2^63", "12-4-blocks-of-8"],
    )
    def test_printed_margins_match_oracle(self, make, rows, monkeypatch):
        # The graph holds signs only: the counter table and the JSON edge
        # margins come from margins computed again, on the int16 path at
        # (10, 12), the object path past 2^63 and several column blocks at
        # (12, 4), and the DOT labels from each edge's matchup table.
        if rows is not None:
            monkeypatch.setattr(dominance_module, "_block_rows", lambda n: rows)
        graph = make()
        nodes = [p.values for p in graph.nodes]
        if rows is not None:
            assert len(list(_margins(nodes))) == 5
        oracle_edges = sorted(_oracles.graph_relations(nodes)[0])
        assert list(graph.edges) == oracle_edges
        payload = json.loads("".join(analysis_json_pieces(graph)))
        assert payload["edges"] == [
            {"winner": w, "loser": l, "margin": m} for w, l, m in oracle_edges
        ]
        assert [
            None if entry.counter is None else (entry.counter.values, entry.margin)
            for entry in graph.counters
        ] == [_oracles.counter(values, nodes) for values in nodes]
        assert emit_dot(graph) == _oracles.dot(graph)

    def test_dot_builds_no_edge_tuples(self):
        graph = build_graph(12, 4)
        emit_dot(graph)
        assert "edges" not in vars(graph)
        assert "draw_pairs" not in vars(graph)

    def test_dot_makes_one_matchup_per_strict_edge(self, monkeypatch):
        # dot_pieces looks matchup_table up in the report module on each use,
        # as a wrapper swapped in there by a tracer must see every edge.
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return matchup_table(a, b)

        monkeypatch.setattr(report_module, "matchup_table", counted)
        for budget, k in [(12, 4), (20, 5)]:
            calls.clear()
            graph = build_graph(budget, k)
            text = "".join(dot_pieces(graph))
            assert len(calls) == graph.n_edges
            assert text == _oracles.dot(graph)

    def test_graph_json_schema(self, report_6_3):
        payload = json.loads("".join(graph_json_pieces(report_6_3)))
        assert sorted(payload) == [
            "budget",
            "claim",
            "draws",
            "edges",
            "k",
            "nodes",
            "scc",
            "three_cycles",
            "undominated",
        ]
        assert payload["nodes"][0] == [6, 0, 0]
        assert {"winner": 3, "loser": 4, "margin": 1} in payload["edges"]
        assert [1, 2] in payload["draws"]
        assert payload["three_cycles"] == [
            [[2, 2, 2], [4, 1, 1], [3, 3, 0]],
            [[3, 2, 1], [4, 1, 1], [3, 3, 0]],
        ]
        assert payload["scc"] == [[0], [1], [2], [3, 4, 5, 6]]
        assert payload["undominated"] == [[4, 2, 0]]
        assert payload["claim"] == {"holds": False, "counterexamples": [[4, 2, 0]]}

    def test_analysis_json_adds_census_and_counters(self, report_6_3):
        payload = analysis_json_dict(report_6_3)
        assert payload["composition_count"] == 28
        assert payload["partition_count"] == 7
        assert {"node": [4, 2, 0], "counter": None, "margin": None} in payload["counters"]
        assert {"node": [3, 3, 0], "counter": [4, 1, 1], "margin": 1} in payload["counters"]

    def test_json_round_trip(self, report_6_3):
        text = to_json_text(analysis_json_dict(report_6_3))
        payload = json.loads(text)
        rebuilt = analyze(payload["budget"], payload["k"])
        assert rebuilt == report_6_3
        assert rebuilt.counters == report_6_3.counters
        assert rebuilt.undominated == report_6_3.undominated
        assert to_json_text(analysis_json_dict(rebuilt)) == text

    def test_graph_json_skips_the_counter_table(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("graph JSON built the counter table")

        monkeypatch.setattr(dominance_module, "best_counters", refuse)
        payload = json.loads("".join(graph_json_pieces(analyze(6, 3))))
        assert payload["undominated"] == [[4, 2, 0]]

    @given(small_spaces)
    def test_text_writers_match_oracle_dicts(self, space):
        assert_text_matches_oracle(analyze(*space))

    @pytest.mark.parametrize(
        "budget, k",
        [(0, 3), (1, 1), (5, 4), (10, 2), (12, 4), (20, 5)],
        ids=["single-node", "one-category", "edges-without-cycles", "10-2", "12-4", "20-5"],
    )
    def test_pinned_text_matches_oracle(self, budget, k):
        # (0, 3) and (1, 1) have no edges, draws or cycles to list. Node values
        # reach two digits at (10, 2), node indices at (12, 4) (34 nodes), and
        # node indices pass 100 and margins reach two digits at (20, 5).
        report = analyze(budget, k)
        if (budget, k) == (5, 4):
            assert report.edges and not len(report.three_cycles)
        assert_text_matches_oracle(report)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_sliced_writers_match_oracle(self, rows, monkeypatch):
        # (10, 3) has 22 cycles in 5 blocks, 66 edges and 25 draws, so slices
        # of 1 and 3 rows split every listing and most blocks.
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", rows)
        # Every piece is held until the join, so a piece that shared memory
        # with the record buffer its writer reuses would show.
        report = analyze(10, 3)
        json_pieces = list(analysis_json_pieces(report))
        dot = list(dot_pieces(report))
        assert len(json_pieces) > len(dot) > len(report.edges) // rows
        assert "".join(json_pieces) == json.dumps(_oracles.analysis_json_dict(report))
        assert "".join(dot) == _oracles.dot(report)
        assert_text_matches_oracle(report)

    def test_listing_pieces_hold_at_most_record_rows(self, monkeypatch):
        # The CLI writes each piece whole, so this bound is what keeps a
        # write small. (10, 3) has 66 compositions, 66 edges and 25 draws.
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", 5)
        report = analyze(10, 3)
        line_pieces = list(dot_pieces(report))[1:]
        assert len(line_pieces) > 66 // 5
        assert max(len(piece.lstrip("\n").split("\n")) for piece in line_pieces) == 5
        json_pieces = list(analysis_json_pieces(report))
        assert max(piece.count('"winner"') for piece in json_pieces) == 5

    @pytest.mark.parametrize("rows", [1, 3, 13])
    def test_pair_pieces_are_the_pair_blocks(self, rows, monkeypatch):
        # The piece size has one owner, dominance: each DOT and JSON piece of
        # edges or draws is one pair block, of at most ``rows`` records.
        # (10, 3) has 14 nodes, so one matrix row holds up to 13 pairs.
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", rows)
        graph = analyze(10, 3)
        edges, draws = (
            [len(first) for first, _ in graph.pair_blocks(strict)] for strict in (True, False)
        )
        assert sum(edges) == 66 and sum(draws) == 25
        assert max(edges + draws) <= rows
        dot = list(dot_pieces(graph))[1:-1]
        assert [piece.count(" -> ") for piece in dot] == edges + draws
        json_pieces = list(graph_json_pieces(graph))
        edges_at = json_pieces.index('], "edges": [')
        draws_at = json_pieces.index('], "draws": [')
        cycles_at = json_pieces.index('], "three_cycles": [')
        listed = json_pieces[edges_at + 1 : draws_at]
        assert [piece.count('"winner"') for piece in listed] == edges
        listed = json_pieces[draws_at + 1 : cycles_at]
        assert [piece.count("[") for piece in listed] == draws

    @pytest.mark.parametrize("budget, k, lines", [(10, 3, 2), (10, 7, 1), (3, 8, 1)])
    def test_allocation_pieces_hold_about_record_rows_values(
        self, monkeypatch, budget, k, lines
    ):
        # max(1, 7 // k) lines a piece: a line of k values never shares a
        # piece past 7 values, but a line wider than that still gets one.
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", 7)
        values = list(composition_tuples(budget, k))
        pieces = list(_allocation_lines(iter(values), k))
        assert [len(piece.lstrip("\n").split("\n")) for piece in pieces[:-1]] == [lines] * (
            len(pieces) - 1
        )
        assert len(pieces) == -(-len(values) // lines)
        assert "".join(pieces) == "\n".join(map(format_allocation, values))

    def test_rebuilt_report_writes_the_same_text(self):
        report = analyze(10, 3)  # 22 cycles in 5 blocks
        text = "".join(analysis_json_pieces(report))
        payload = json.loads(text)
        rebuilt = analyze(payload["budget"], payload["k"])
        assert rebuilt == report
        assert len(rebuilt.three_cycles) == 22
        assert "".join(analysis_json_pieces(rebuilt)) == text
        assert "".join(graph_json_pieces(rebuilt)) == "".join(graph_json_pieces(report))

    def test_cycle_listing_limit(self, report_6_3, monkeypatch):
        monkeypatch.setattr(report_module, "MAX_LISTED_CYCLES", 2)
        assert len(json.loads("".join(graph_json_pieces(report_6_3)))["three_cycles"]) == 2
        monkeypatch.setattr(report_module, "MAX_LISTED_CYCLES", 1)
        # The pieces writers refuse when called, before a piece is read.
        for build in (analysis_json_dict, graph_json_pieces, analysis_json_pieces):
            with pytest.raises(SpaceTooLargeError, match="2 3-cycles exceed"):
                build(report_6_3)

    def test_serialization_deterministic(self, report_6_3):
        once = to_json_text(analysis_json_dict(report_6_3))
        twice = to_json_text(analysis_json_dict(analyze(6, 3)))
        assert once == twice

    @pytest.mark.parametrize(
        "make, bound",
        [
            (lambda: analysis_json_pieces(analyze(40, 4)), 704 << 10),
            (lambda: dot_pieces(build_graph(20, 5)), 440 << 10),
        ],
        ids=["analysis-json-40-4", "dot-20-5"],
    )
    def test_listing_peak_stays_under_a_fixed_bound(self, make, bound):
        # Read as the CLI writes it, dropping each piece before the next is
        # made, a listing's traced peak is its pair or walk block plus a few
        # copies of one piece of at most _PIECE_BYTES: 536 KiB (JSON) and
        # 393 KiB (DOT). A writer that gathers a whole block's texts before
        # cutting them peaks at 774 and 456 KiB, and one that cuts pieces of
        # _RECORD_ROWS records at 1,347 and 681 KiB.
        pieces = make()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for piece in pieces:
                del piece
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize(
        "make",
        [
            lambda: analyze(10, 3),
            lambda: analyze(10, 12),
            # (7, 3)'s nodes with 2^63 added to every face: records of
            # hundreds of bytes, wider than most piece sizes here.
            lambda: DominanceGraph(
                7 + 3 * 2**63,
                3,
                tuple(
                    Partition(tuple(v + 2**63 for v in p.values)) for p in build_graph(7, 3).nodes
                ),
            ),
        ],
        ids=["10-3", "10-12", "faces-past-2^63"],
    )
    def test_listing_pieces_hold_at_most_piece_bytes(self, make, monkeypatch):
        # A listing piece is at most _PIECE_BYTES of text, or one record when
        # a record is wider. At one byte every piece is a single record, so
        # those pieces give the widest record; at 200 bytes records share.
        graph = make()
        pairs = graph.n_edges + sum(len(first) for first, _ in graph.pair_blocks(False))
        oracles = {
            dot_pieces: (_oracles.dot(graph), pairs),
            graph_json_pieces: (
                json.dumps(_oracles.graph_json_dict(graph)),
                pairs + len(graph.three_cycles),
            ),
            analysis_json_pieces: (
                json.dumps(_oracles.analysis_json_dict(graph)),
                pairs + len(graph.three_cycles),
            ),
        }
        widest = {}
        for piece_bytes in (1, 40, 200):
            monkeypatch.setattr(report_module, "_PIECE_BYTES", piece_bytes)
            for write, (oracle, records) in oracles.items():
                pieces = list(write(graph))
                assert "".join(pieces) == oracle
                listed = _listing_pieces(pieces, write is dot_pieces)
                if piece_bytes == 1:
                    assert len(listed) == records
                    widest[write] = max(map(len, listed))
                if piece_bytes == 200:
                    assert len(listed) < records
                assert max(map(len, listed)) <= max(piece_bytes, widest[write])


class TestAnalysisText:
    def test_showcase_report_lines(self, report_6_3):
        text = render_analysis_text(report_6_3)
        assert "strategy space at budget 6 across 3 categories" in text
        assert "compositions (ordered allocations): 28" in text
        assert "partitions (canonical strategies): 7" in text
        assert "intransitive 3-cycles: 2" in text
        assert "  2,2,2 -> 4,1,1 -> 3,3,0 -> 2,2,2" in text
        assert "strongly connected component sizes: 4,1,1,1" in text
        assert (
            "universal counter claim: FAILS (1 undominated strategy: 4,2,0)" in text
        )
        assert "BOS beats MTL 6-3; NY beats BOS 6-3; MTL beats NY 5-4" in text
        assert "  4,2,0: none" in text
        assert "  3,3,0: counter 4,1,1 (margin 1)" in text

    def test_holds_wording(self):
        text = render_analysis_text(analyze(7, 3))
        assert (
            "universal counter claim: HOLDS (every allocation of 7 across "
            "3 categories has a strictly better same-cap answer)" in text
        )
        assert "undominated strategies: none" in text
        assert "showcase teams" not in text

    def test_multiple_counterexamples_wording(self):
        # budget 4 over 2 categories: every pair draws, nothing dominates
        text = render_analysis_text(analyze(4, 2))
        assert "universal counter claim: FAILS (3 undominated strategies" in text

    def test_cycle_list_truncated(self):
        text = render_analysis_text(analyze(10, 3))
        assert "intransitive 3-cycles: 22" in text
        assert "... (12 more; use json format for the full list)" in text
        cycle_lines = [l for l in text.splitlines() if " -> " in l and "..." not in l]
        assert len(cycle_lines) == 10


class TestSimulationJson:
    def test_games_payload(self):
        config = SimConfig(seed=1, n_games=100)
        stats = simulate_games(MTL, NY, config)
        payload = simulation_json_dict(config, stats, Fraction(5, 9))
        assert payload == {
            "simulation": {
                "seed": 1,
                "n_games": 100,
                "tie_policy": "reroll",
                "best_of": None,
                "n_series": 1,
                "a_game_wins": stats.a_game_wins,
                "b_game_wins": stats.b_game_wins,
                "tie_games": 0,
                "a_series_wins": 0,
                "b_series_wins": 0,
                "exact_p": {"num": 5, "den": 9},
            }
        }
        json.dumps(payload)
