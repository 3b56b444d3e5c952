import hashlib
import json
import subprocess
import sys

import pytest

import capcycle.dominance as dominance_module
import capcycle.report as report_module
from capcycle import (
    Allocation,
    SimConfig,
    SpaceTooLargeError,
    analysis_json_pieces,
    analyze,
    counter_strategy,
    enumerate_partitions,
    format_allocation,
    graph_json_pieces,
    matchup_table,
    render_analysis_text,
    simulate_games,
)
from capcycle.allocations import composition_tuples
from capcycle.dominance import build_graph
from capcycle.report import analysis_json_dict, emit_dot
from capcycle.cli import run_cli

from .test_report import EXPECTED_DOT, EXPECTED_GRID


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# On Linux a child's ru_maxrss starts at the peak RSS of the process that
# forked it, and this test process can be hundreds of MB in, so a fresh
# interpreter launches the command, sends its stdout to a file and passes
# its rusage back.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "with open(sys.argv[1], 'wb') as out:\n"
    "    proc = subprocess.Popen(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL)\n"
    "    _, status, usage = os.wait4(proc.pid, 0)\n"
    "print(usage.ru_maxrss)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n"
)


def python_peak_rss(out_path, *args):
    """Run the interpreter with ``args`` and stdout to ``out_path``; returns
    its exit code and its peak RSS in MB."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(out_path), sys.executable, *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux


def run_with_peak_rss(out_path, *argv):
    """Run the capcycle CLI with stdout to ``out_path``; returns its exit
    code and its peak RSS in MB."""
    return python_peak_rss(out_path, "-m", "capcycle", *argv)


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class TestMatchupCommand:
    def test_grid_default(self, capsys):
        code, out, err = run(
            capsys,
            "matchup", "--a", "1,1,4", "--b", "3,3,0",
            "--label-a", "MTL", "--label-b", "NY",
        )
        assert code == 0
        assert EXPECTED_GRID in out
        assert "MTL wins 5, NY wins 4, ties 0; outcome: MTL" in out
        assert err == ""

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "matchup", "--a", "2,2,2", "--b", "3,3,0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["wins_a"] == 3
        assert payload["wins_b"] == 6
        assert payload["outcome"] == "B"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "matchup", "--a", "1,1,4", "--b", "3,3,0", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == ",3,3,0"
        assert out.splitlines()[1] == "1,B,B,A"

    def test_differing_budgets_noted(self, capsys):
        code, out, _ = run(capsys, "matchup", "--a", "9,9,9", "--b", "3,3,0")
        assert code == 0
        assert "note: budgets differ (A 27 vs B 6)" in out

    def test_bad_allocation_exits_2(self, capsys):
        code, out, err = run(capsys, "matchup", "--a", "1,x", "--b", "3,3,0")
        assert code == 2
        assert out == ""
        assert "invalid allocation" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["matchup", "--a", "-1,2", "--b", "1,2"],
            ["matchup", "--a", "-1", "--b", "1"],
            ["matchup", "--a=-1,2", "--b", "1,2"],
            ["simulate", "--a", "3,1", "--b", "-3,1", "--games", "10", "--seed", "1"],
        ],
        ids=["matchup-csv", "matchup-one", "matchup-equals", "simulate"],
    )
    def test_negative_salary_exits_2_however_spelled(self, capsys, argv):
        # Left to argparse, "-1,2" reads as an option: a usage error, exit 1.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("capcycle: invalid allocation:")
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python turns ints of any length into text",
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["counter"],
            ["matchup", "--b", "0,1"],
            ["matchup", "--b", "0,1", "--format", "json"],
            ["simulate", "--b", "0,1", "--games", "10", "--seed", "1"],
        ],
        ids=["counter", "matchup-grid", "matchup-json", "simulate"],
    )
    def test_budget_too_long_to_print_exits_2(self, capsys, argv):
        # two salaries of as many nines as an int may have digits in text
        # make a budget one digit longer, which no output could print
        huge = "9" * sys.get_int_max_str_digits()
        code, out, err = run(capsys, *argv, "--a", f"{huge},{huge}")
        assert (code, out) == (2, "")
        assert err.startswith("capcycle: invalid allocation:") and "digits" in err
        assert err.count("\n") == 1

    def test_dimension_mismatch_exits_1(self, capsys):
        code, _, err = run(capsys, "matchup", "--a", "1,2", "--b", "3,3,0")
        assert code == 1
        assert "category counts" in err


class TestEnumerateCommand:
    def test_default_space(self, capsys):
        code, out, _ = run(capsys, "enumerate")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 28
        assert lines[0] == "6,0,0"
        assert lines[-1] == "0,0,6"

    def test_partitions_flag(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--partitions")
        assert code == 0
        assert out.strip().splitlines() == [
            "6,0,0", "5,1,0", "4,2,0", "4,1,1", "3,3,0", "3,2,1", "2,2,2",
        ]

    def test_custom_space(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--budget", "2", "--k", "2")
        assert code == 0
        assert out.strip().splitlines() == ["2,0", "1,1", "0,2"]

    def test_large_listing_is_written_in_bounded_memory(self, tmp_path):
        # 585,276 lines; as a list of Allocations it peaked at 179 MB.
        out = tmp_path / "space.txt"
        code, peak_mb = run_with_peak_rss(out, "enumerate", "--budget", "150", "--k", "4")
        assert code == 0
        assert file_sha256(out) == (
            "e81adce3ec341238ebffd5acb4520926955b8e34f05c9a0c475675a0786d1ca0"
        )
        assert peak_mb < 80

    def test_wide_listing_is_written_in_bounded_memory(self, tmp_path):
        # 2,000 lines of 4,000 bytes; in pieces of 8,192 lines it peaked at 81 MB.
        out = tmp_path / "wide.txt"
        code, peak_mb = run_with_peak_rss(out, "enumerate", "--budget", "1", "--k", "2000")
        assert code == 0
        assert file_sha256(out) == (
            "20ba5a90f4e2c4c7230d5048d520d2a38c87645bd0272c312a66b90a12bb84ac"
        )
        assert peak_mb < 50

    def test_space_limit_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "5")
        code, out, err = run(capsys, "enumerate")
        assert code == 3
        assert out == ""
        assert "exceeds limit 5" in err

    def test_negative_env_limit_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "-5")
        code, out, err = run(capsys, "enumerate", "--budget", "3", "--k", "2")
        assert code == 1
        assert out == ""
        assert "CAPCYCLE_MAX_SPACE must be a nonnegative integer, got '-5'" in err

    def test_bad_env_limit_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "many")
        code, _, err = run(capsys, "enumerate")
        assert code == 1
        assert "CAPCYCLE_MAX_SPACE" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["matchup", "--a", "1,1,4", "--b", "3,3,0"], 0),
            (["simulate", "--a", "1,1,4", "--b", "3,3,0", "--games", "100", "--seed", "1"], 0),
            (["graph"], 1),
            (["counter", "--a", "1,1,4"], 1),
        ],
    )
    def test_only_enumerating_commands_read_env_limit(self, capsys, monkeypatch, argv, code):
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "junk")
        got, out, err = run(capsys, *argv)
        assert got == code
        if code == 0:
            assert out == expected
        else:
            assert out == ""
            assert "CAPCYCLE_MAX_SPACE must be a nonnegative integer, got 'junk'" in err

    def test_library_reads_env_limit(self, monkeypatch):
        # The guard reads the variable itself, so library calls that
        # enumerate honour it as the CLI does, and the others never read it.
        mtl, ny = Allocation((1, 1, 4)), Allocation((3, 3, 0))
        enumerating = [
            lambda: analyze(6, 3),
            lambda: enumerate_partitions(6, 3),
            lambda: composition_tuples(6, 3),
            lambda: counter_strategy(ny),
        ]
        config = SimConfig(seed=1, n_games=100)
        expected = matchup_table(mtl, ny), simulate_games(mtl, ny, config)
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "3")
        for call in enumerating:
            with pytest.raises(SpaceTooLargeError):
                call()
        monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "junk")
        for call in enumerating:
            with pytest.raises(ValueError, match="^CAPCYCLE_MAX_SPACE must be a nonnegative"):
                call()
        assert (matchup_table(mtl, ny), simulate_games(mtl, ny, config)) == expected


class TestGraphCommand:
    def test_dot_default(self, capsys):
        code, out, _ = run(capsys, "graph")
        assert code == 0
        assert out.rstrip("\n") == EXPECTED_DOT

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "graph", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["budget"] == 6
        assert len(payload["edges"]) == 14
        assert payload["claim"]["counterexamples"] == [[4, 2, 0]]
        assert "counters" not in payload

    def test_custom_space(self, capsys):
        code, out, _ = run(capsys, "graph", "--budget", "7", "--k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["claim"]["holds"] is True


class TestCounterCommand:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "counter", "--a", "3,3,0")
        assert code == 0
        assert out.strip() == "counter: 4,1,1 (margin 1)"

    def test_input_order_irrelevant(self, capsys):
        code, out, _ = run(capsys, "counter", "--a", "0,3,3")
        assert code == 0
        assert out.strip() == "counter: 4,1,1 (margin 1)"

    def test_none(self, capsys):
        code, out, _ = run(capsys, "counter", "--a", "4,2,0")
        assert code == 0
        assert out.strip() == "counter: none"

    def test_explicit_budget_match(self, capsys):
        code, out, _ = run(capsys, "counter", "--a", "6,0,0", "--budget", "6")
        assert code == 0
        assert out.strip() == "counter: 2,2,2 (margin 3)"

    def test_budget_mismatch_exits_1(self, capsys):
        code, _, err = run(capsys, "counter", "--a", "6,0,0", "--budget", "7")
        assert code == 1
        assert err == "capcycle: counter search budget 7 must equal the allocation's budget 6\n"

    def test_many_candidate_batches(self, capsys):
        # 461,313 candidates, ranked in 57 batches.
        code, out, _ = run(capsys, "counter", "--a", "400,0,0,0")
        assert code == 0
        assert out == "counter: 100,100,100,100 (margin 8)\n"


class TestAnalyzeCommand:
    def test_text_default(self, capsys):
        code, out, _ = run(capsys, "analyze")
        assert code == 0
        assert out.rstrip("\n") == render_analysis_text(analyze(6, 3))

    def test_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--format", "json")
        assert code == 0
        assert json.loads(out) == analysis_json_dict(analyze(6, 3))

    def test_composition_count_past_64_bits(self, capsys):
        code, out, _ = run(capsys, "analyze", "--budget", "10", "--k", "400")
        assert code == 0
        assert "compositions (ordered allocations): 32308197757577553240" in out.splitlines()

    @pytest.mark.parametrize("command", ["analyze", "graph"])
    def test_json_over_cycle_listing_limit_exits_3(self, capsys, command):
        code, out, err = run(
            capsys, command, "--budget", "60", "--k", "4", "--format", "json"
        )
        assert code == 3
        assert out == ""
        assert "32143068 3-cycles exceed the JSON listing limit" in err
        assert "text format reports the count" in err

    def test_large_text_report_counts_cycles_in_bounded_memory(self, tmp_path):
        out = tmp_path / "report.txt"
        code, peak_mb = run_with_peak_rss(out, "analyze", "--budget", "60", "--k", "4")
        assert code == 0
        lines = out.read_text().splitlines()
        assert "intransitive 3-cycles: 32143068" in lines
        assert "  ... (32143058 more; the JSON formats refuse above 10000000)" in lines
        assert peak_mb < 500

    def test_text_report_working_memory_stays_small(self, tmp_path):
        # Past the imports, (30, 6) holds its 1.45 MB int8 margin and one
        # stage's blocks at a time. With a cached bool adjacency beside the
        # margin and fixed 512-row float32 count tiles it took 11 to 13 MB.
        code, peak_mb = run_with_peak_rss(
            tmp_path / "report.txt", "analyze", "--budget", "30", "--k", "6"
        )
        assert code == 0
        assert "intransitive 3-cycles: 7728511" in (tmp_path / "report.txt").read_text()
        # The command imports report (and numpy with it) only when it runs.
        code, import_mb = python_peak_rss(
            tmp_path / "import.txt", "-c", "import capcycle.cli, capcycle.report"
        )
        assert code == 0
        assert peak_mb - import_mb < 8

    def test_dense_faces_score_in_the_margin_dtype(self, tmp_path):
        # 3,001 nodes over 6,001 distinct faces: a score table filled through
        # int64 temporaries of that shape peaked at 324 MB, where the int8
        # margin is 9 MB.
        out = tmp_path / "report.txt"
        code, peak_mb = run_with_peak_rss(out, "analyze", "--budget", "6000", "--k", "2")
        assert code == 0
        assert "draw pairs: 4501500" in out.read_text().splitlines()
        assert peak_mb < 200

    def test_gate_json_is_written_in_bounded_memory(self, tmp_path):
        # The acceptance-gate input: 1,260,582 cycles in 70 MB of JSON. Held
        # whole with its joined copy, it peaked at 177 MB.
        out = tmp_path / "report.json"
        code, peak_mb = run_with_peak_rss(
            out, "analyze", "--budget", "40", "--k", "4", "--format", "json"
        )
        assert code == 0
        assert out.stat().st_size == 70_210_626
        assert file_sha256(out) == (
            "e7c86d7181e2d5a2e1a55c0cc47341d7c41c667349ac4b5a8ef97ed1e53171c6"
        )
        assert peak_mb < 100

    @pytest.mark.parametrize("command", ["analyze", "graph"])
    def test_json_refusal_creates_no_file(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.setattr(report_module, "MAX_LISTED_CYCLES", 1)
        target = tmp_path / "out.json"
        code, out, err = run(
            capsys, command, "--budget", "6", "--k", "3", "--format", "json",
            "--out", str(target),
        )
        assert code == 3
        assert out == ""
        assert "2 3-cycles exceed the JSON listing limit 1" in err
        assert not target.exists()


class TestEveryInputEnds:
    """Inputs that once ended in a traceback: huge budgets, whose face
    values outgrow a budget-wide histogram and int64, and many parts,
    which outran the recursion limit. Each ends in an answer or exit 3."""

    @pytest.mark.parametrize(
        "argv, code, last_line",
        [
            (["analyze", "--budget", "1000000000000", "--k", "1"], 0, "  1000000000000: none"),
            (["counter", "--a", "1000000000000"], 0, "counter: none"),
            (["analyze", "--budget", str(10**20), "--k", "1"], 0, f"  {10**20}: none"),
            (["counter", "--a", f"{2**63},{2**63 + 1}"], 3, None),
            (["analyze", "--budget", "1000000000000", "--k", "3"], 3, None),
            (["analyze", "--budget", "3", "--k", "2000"], 0, "  1,1,1" + ",0" * 1997 + ": none"),
            (["enumerate", "--budget", "1", "--k", "1500"], 0, "0," * 1499 + "1"),
            (["graph", "--budget", "2", "--k", "1200", "--format", "json"], 0, None),
            (["counter", "--a", str(10**20)], 0, "counter: none"),
        ],
    )
    def test_answer_or_exit_3(self, capsys, argv, code, last_line):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert "Traceback" not in err
        if code == 3:
            assert out == ""
            assert err.startswith("capcycle: at least ") and err.count("\n") == 1
        elif last_line is not None:
            assert out.splitlines()[-1] == last_line
        else:
            assert json.loads(out)["nodes"] == [[2] + [0] * 1199, [1, 1] + [0] * 1198]


class TestSimulateCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--a", "1,1,4", "--b", "3,3,0",
            "--games", "90000", "--seed", "42",
        )
        assert code == 0
        assert "games played: 90000 (a 50047, b 39953, ties rerolled 0)" in out
        assert "empirical a frequency: 0.5561" in out
        assert "exact p(a): 5/9 (0.5556)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--a", "1,1,4", "--b", "3,3,0",
            "--games", "100", "--seed", "1", "--format", "json",
        )
        assert code == 0
        sim = json.loads(out)["simulation"]
        assert sim["seed"] == 1
        assert sim["a_game_wins"] == 64
        assert sim["b_game_wins"] == 36
        assert sim["exact_p"] == {"num": 5, "den": 9}

    def test_best_of_series(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--a", "1,1,4", "--b", "3,3,0",
            "--games", "1", "--seed", "7",
            "--best-of", "301", "--series", "1000",
        )
        assert code == 0
        assert "series: best-of-301 x 1000" in out
        assert "series wins: a 968, b 32" in out

    def test_best_of_plays_no_games_of_its_own(self, capsys):
        # --games is required, but --best-of plays only the series' games: the
        # text is the same whatever --games is, and JSON echoes it as n_games.
        out = {}
        for games in ("1", "1000"):
            for fmt in ("text", "json"):
                code, out[games, fmt], _ = run(
                    capsys,
                    "simulate", "--a", "1,1,4", "--b", "3,3,0",
                    "--games", games, "--seed", "7",
                    "--best-of", "7", "--series", "5", "--format", fmt,
                )
                assert code == 0
        assert out["1", "text"] == out["1000", "text"]
        one, many = (json.loads(out[games, "json"])["simulation"] for games in ("1", "1000"))
        assert (one.pop("n_games"), many.pop("n_games")) == (1, 1000)
        assert one == many

    def test_nogame_policy(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--a", "2,2,2", "--b", "3,2,1",
            "--games", "300", "--seed", "9", "--tie-policy", "nogame",
        )
        assert code == 0
        assert "policy: nogame" in out
        assert "games played: 300" in out

    def test_series_without_best_of_exits_1(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--a", "1,1,4", "--b", "3,3,0",
            "--games", "1", "--seed", "0", "--series", "10",
        )
        assert code == 1
        assert "--series requires --best-of" in err

    def test_even_best_of_exits_1(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--a", "1,1,4", "--b", "3,3,0",
            "--games", "1", "--seed", "0", "--best-of", "4",
        )
        assert code == 1
        assert "odd" in err

    def test_all_ties_exits_1(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--a", "1,1", "--b", "1,1", "--games", "5", "--seed", "0",
        )
        assert code == 1
        assert "every cell ties" in err

    def test_all_ties_without_rerolls_answer_zero(self, capsys):
        # Under nogame every tie is a game, so p(a) is 0 of k^2 cells.
        argv = [
            "simulate", "--a", "1,1", "--b", "1,1", "--games", "5", "--seed", "0",
            "--tie-policy", "nogame",
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "exact p(a): 0/1 (0.0000)" in out.splitlines()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["simulation"]["exact_p"] == {"num": 0, "den": 1}

    @pytest.mark.parametrize("policy", ["reroll", "nogame"])
    def test_all_ties_best_of_exits_1(self, capsys, policy):
        code, out, err = run(
            capsys,
            "simulate", "--a", "1,1", "--b", "1,1", "--games", "5", "--seed", "0",
            "--tie-policy", policy, "--best-of", "3",
        )
        assert code == 1
        assert out == ""
        assert "every cell ties" in err

    def test_series_games_over_cap_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--a", "1,1,4", "--b", "3,3,0", "--games", "1", "--seed", "0",
            "--best-of", "999999", "--series", "1000000",
        )
        assert code == 1
        assert out == ""
        assert "best_of * n_series capped at 100000000" in err

    def test_zero_games_exits_1(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--a", "1,1,4", "--b", "3,3,0", "--games", "0", "--seed", "0",
        )
        assert code == 1
        assert "n_games" in err


SPACES = pytest.mark.parametrize(
    "budget, k", [(0, 3), (1, 1), (6, 3), (20, 5)], ids=["0-3", "1-1", "6-3", "20-5"]
)


class TestStreamedOutput:
    """The CLI writes the large outputs in pieces; joined, they are the
    library's text. Small piece sizes make every listing span pieces."""

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", 5)
        monkeypatch.setattr(report_module, "_PIECE_BYTES", 100)

    @SPACES
    def test_exports_equal_library_text(self, capsys, budget, k):
        report = analyze(budget, k)
        space = ["--budget", str(budget), "--k", str(k)]
        expected = {
            ("analyze", "--format", "json"): "".join(analysis_json_pieces(report)),
            ("graph", "--format", "json"): "".join(graph_json_pieces(report)),
            ("graph", "--format", "dot"): emit_dot(build_graph(budget, k)),
        }
        for (command, *fmt), text in expected.items():
            code, out, _ = run(capsys, command, *space, *fmt)
            assert code == 0
            assert out == text + "\n"

    @SPACES
    def test_enumerate_equals_library_lists(self, capsys, budget, k):
        space = ["--budget", str(budget), "--k", str(k)]
        for flags, items in (
            ([], composition_tuples(budget, k)),
            (["--partitions"], enumerate_partitions(budget, k)),
        ):
            code, out, _ = run(capsys, "enumerate", *space, *flags)
            assert code == 0
            assert out == "\n".join(map(format_allocation, items)) + "\n"


class TestClosedPipe:
    """A reader that stops early closes the pipe while the listing is being
    written: the CLI exits 1 at its next write, with nothing on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--budget", "20", "--k", "5"],
            ["graph", "--budget", "20", "--k", "5", "--format", "json"],
            ["analyze", "--budget", "20", "--k", "5", "--format", "json"],
            ["enumerate", "--budget", "150", "--k", "4"],
        ],
        ids=["graph-dot", "graph-json", "analyze-json", "enumerate"],
    )
    def test_exits_1_without_a_traceback(self, argv):
        # Each output is 0.5 to 7 MB, far more than a pipe buffers.
        proc = subprocess.Popen(
            [sys.executable, "-m", "capcycle", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert len(proc.stdout.read(300)) == 300
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert err == b""


def _exports(budget, k):
    space = ["--budget", str(budget), "--k", str(k)]
    return [
        ["analyze", *space],
        ["analyze", *space, "--format", "json"],
        ["graph", *space],
        ["graph", *space, "--format", "json"],
    ]


class TestBlockSizeInvariance:
    """No block or piece size shows in stdout: every matrix stage's rows at
    a time (_block_rows), every pair block's records (_RECORD_ROWS) and every
    listing piece's bytes (_PIECE_BYTES) leave every command's output as it
    is at the defaults."""

    @pytest.mark.parametrize(
        "argv",
        [
            *_exports(6, 3),
            *_exports(12, 4),
            *_exports(10, 12),  # k = 12: an int16 margin
            ["enumerate", "--budget", "12", "--k", "4"],
            ["enumerate", "--budget", "12", "--k", "4", "--partitions"],
            ["counter", "--a", "5,4,2,1"],
            ["counter", "--a", "2,2,2,1,1,1,1,0,0,0,0,0"],
        ],
        ids=" ".join,
    )
    def test_stdout_equals_the_default(self, capsys, monkeypatch, argv):
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and expected
        for block in (8, 16):
            for records in (1, 3):
                for piece_bytes in (1, 200):
                    with monkeypatch.context() as patch:
                        patch.setattr(dominance_module, "_block_rows", lambda n: block)
                        patch.setattr(dominance_module, "_RECORD_ROWS", records)
                        patch.setattr(report_module, "_PIECE_BYTES", piece_bytes)
                        assert run(capsys, *argv) == (0, expected, "")


class TestUsageAndOutput:
    def test_no_command_exits_1(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "matchup", "--a", "1,1,4")
        assert code == 1
        assert "--b" in err

    def test_bad_choice_exits_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--format", "yaml")
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "matchup" in out

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == analysis_json_dict(analyze(6, 3))

    def test_output_written_in_slices_is_unchanged(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(dominance_module, "_RECORD_ROWS", 7)
        expected = "".join(analysis_json_pieces(analyze(6, 3))) + "\n"
        code, out, _ = run(capsys, "analyze", "--format", "json")
        assert code == 0
        assert out == expected
        target = tmp_path / "report.json"
        assert run_cli(["analyze", "--format", "json", "--out", str(target)]) == 0
        assert target.read_bytes() == expected.encode()

    def test_unwritable_out_path_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "analyze", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"capcycle: cannot write {target}: ")

    @pytest.mark.parametrize(
        "launch",
        [
            ["-m", "capcycle"],
            # A caller that writes and flushes stdout again after run_cli,
            # as the interpreter does at exit, must find it still writable.
            [
                "-c",
                "import sys; from capcycle.cli import run_cli; code = run_cli(sys.argv[1:]); "
                "print('more'); sys.stdout.flush(); sys.exit(code)",
            ],
        ],
        ids=["module", "flush-after"],
    )
    def test_closed_pipe_exits_1_quietly(self, launch):
        # About 2 MB of output, far more than a pipe holds, so the writer is
        # still writing when the reader goes away.
        proc = subprocess.Popen(
            [sys.executable, *launch, "enumerate", "--budget", "100", "--k", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"100,0,0,0\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["graph", "--budget", "12", "--k", "4"]],
        ids=["flush", "write"],
    )
    def test_full_stdout_exits_1_with_one_line(self, argv):
        # The analysis's 800 bytes fail at the flush, the graph's 18 KB at a write.
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "capcycle", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "capcycle: cannot write stdout: No space left on device"
        ]

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["graph", "--budget", "12", "--k", "4"]],
        ids=["flush", "write"],
    )
    def test_full_out_file_exits_1_with_one_line(self, capsys, argv):
        # The file path takes the same writer as stdout, and fails the same way.
        code, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["capcycle: cannot write /dev/full: No space left on device"]

    def test_identical_invocations_are_byte_identical(self, capsys):
        args = ["analyze", "--format", "json"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "capcycle", "enumerate", "--partitions"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[0] == "6,0,0"

    def test_cli_import_leaves_out_scipy(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, capcycle.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv", [["analyze"], ["graph"], ["counter", "--a", "3,2,1"]], ids=lambda a: a[0]
    )
    def test_runs_leave_out_numpy_ma(self, argv):
        # numpy >= 2.3's hash path in a bare np.unique imports numpy.ma, about
        # 15 ms and 1 MB, for a masked-array check the margin kernel never needs.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from capcycle.cli import run_cli; code = run_cli(sys.argv[1:]); "
                'print(code, "numpy.ma" in sys.modules, file=sys.stderr)',
                *argv,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.stderr == "0 False\n"

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["matchup", "--a", "1,1,4", "--b", "3,3,0"], []),
            (["matchup", "--a", "1,1,4", "--b", "3,3,0", "--format", "json"], []),
            (["matchup", "--a", "1,1,4", "--b", "3,3,0", "--format", "csv"], []),
            (["--help"], []),
            (["matchup", "--a", "1,1,4"], []),
            (["simulate", "--a", "1,1,4", "--b", "3,3,0", "--games", "9", "--seed", "1"],
             ["capcycle.simulate", "numpy"]),
            (["counter", "--a", "3,2,1"], ["capcycle.dominance", "numpy"]),
            (["analyze"], ["capcycle.dominance", "capcycle.report", "numpy"]),
            (["graph", "--format", "json"], ["capcycle.dominance", "capcycle.report", "numpy"]),
        ],
        ids=["grid", "json", "csv", "help", "parse-error", "simulate", "counter", "analyze",
             "graph"],
    )
    def test_runs_import_only_what_they_run(self, argv, loaded):
        # matchup, --help and a usage error start without numpy; simulate
        # without the analysis modules, and the analysis without simulate.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from capcycle.cli import run_cli; run_cli(sys.argv[1:]); "
                "heavy = ['capcycle.dominance', 'capcycle.report', 'capcycle.simulate', 'numpy']; "
                "print([m for m in heavy if m in sys.modules], file=sys.stderr)",
                *argv,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.stderr.splitlines()[-1] == str(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["graph"],
            ["enumerate"],
            ["counter", "--a", "3,2,1"],
            ["matchup", "--a", "1,1,4", "--b", "3,3,0"],
        ],
        ids=lambda a: a[0],
    )
    def test_runs_leave_out_fractions(self, argv):
        # Only simulate computes an exact p; importing fractions loads decimal
        # too, about 0.3 MB, in every other command.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from capcycle.cli import run_cli; code = run_cli(sys.argv[1:]); "
                'print(code, "fractions" in sys.modules, "decimal" in sys.modules, '
                "file=sys.stderr)",
                *argv,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.stderr == "0 False False\n"
