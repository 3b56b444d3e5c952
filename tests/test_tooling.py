"""The README library example, its CLI transcript and the scripts run as
users run them, the public names are the ones they use, the README's error
sentence names the error types there are, the benchmark's
reference commands print their recorded stdout, and the benchmark trace finds
its layers, counts one matchup per DOT edge and sizes an analysis as its
report does, and the CI-only gates that need no install hold: the peak
memory of a large analysis and the console script's target."""

import hashlib
import importlib
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import capcycle
import capcycle.cli
import capcycle.dominance
import capcycle.report

from .test_cli import run_with_peak_rss

ROOT = Path(__file__).resolve().parents[1]


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _readme_transcript() -> tuple[list[str], str]:
    """The README's one CLI transcript: the arguments after ``$ capcycle``
    and the text printed below them."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n\$ capcycle (matchup .*?)```", readme, re.S).group(1)
    command, output = block.split("\n", 1)
    return shlex.split(command), output


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", _readme_library_block()],
        ["scripts/reproduce_headline_results.py"],
        ["scripts/scan_claim_verdicts.py", "--max-budget", "8", "--max-k", "3"],
    ],
    ids=["readme-library", "reproduce-headline-results", "scan-claim-verdicts"],
)
def test_runs_and_repeats_exactly(argv):
    first = _run([sys.executable, *argv]).stdout
    assert first
    assert _run([sys.executable, *argv]).stdout == first


def test_corpus_table_regenerates_verbatim():
    table = _run([sys.executable, "scripts/corpus_digests.py"]).stdout
    assert table.startswith("CORPUS = [\n")
    assert table in (ROOT / "tests" / "test_corpus.py").read_text(encoding="utf-8")


def test_readme_transcript_is_the_cli_output():
    argv, output = _readme_transcript()
    assert _run([sys.executable, "-m", "capcycle", *argv]).stdout == output


def test_large_analysis_peak_memory():
    # CI's step of the same bound: 8,037 nodes, whose relation is an 8 MB
    # sign plane; an n x n int8 margin matrix held again would take 104 MB
    code, peak_mb = run_with_peak_rss(os.devnull, "analyze", "--budget", "100", "--k", "4")
    assert code == 0
    assert peak_mb <= 60


def test_console_script_is_cli_main():
    # read without tomllib, which Python 3.10 lacks; running the script itself needs an install
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    (target,) = re.findall(r'^capcycle\s*=\s*"(.*)"\s*$', section, re.M)
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is capcycle.cli.main


def test_traced_layers_resolve():
    layers = runpy.run_path(str(ROOT / "perfbench" / "traced.py"))["_LAYERS"]
    missing = [
        f"capcycle.{module}.{name}"
        for module, name, _ in layers
        if not callable(getattr(importlib.import_module(f"capcycle.{module}"), name, None))
    ]
    assert missing == []


REFERENCE = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["REFERENCE"]


@pytest.mark.parametrize("command", sorted(REFERENCE))
def test_benchmark_reference_outputs(command):
    # The benchmark accepts a run only if stdout matches these digests.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    digest, length = hashlib.sha256(), 0
    with subprocess.Popen(
        [sys.executable, "-m", "capcycle", *command.split()],
        stdout=subprocess.PIPE, cwd=ROOT, env=env,
    ) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
            length += len(chunk)
    assert proc.returncode == 0
    assert (digest.hexdigest(), length) == REFERENCE[command]


def test_traced_graph_makes_one_matchup_per_edge():
    # The benchmark's traced graph-dot check expects one matchup_table call
    # per strict edge and the CLI's own stdout.
    command = ["graph", "--budget", "12", "--k", "4"]
    traced = _run([sys.executable, "perfbench/traced.py", *command])
    record = json.loads(traced.stderr.splitlines()[-1])
    assert record["calls"]["matchup_table"] == record["sizes"]["n_edges"] > 0
    # The trace times writes through a proxy of stdout's write and flush; a
    # write path it cannot see would read 0 here.
    assert record["write_s"] > 0
    assert traced.stdout == _run([sys.executable, "-m", "capcycle", *command]).stdout
    # The traced sizes come from the graph's edges and draw_pairs; the DOT
    # has one line per edge and per draw.
    lines = traced.stdout.splitlines()
    assert record["sizes"]["n_edges"] == sum(" -> " in s and "[label=" in s for s in lines)
    assert record["sizes"]["n_draws"] == sum("style=dashed" in s for s in lines) > 0


def test_traced_analysis_sizes_match_its_report():
    # The benchmark's traced analyze-json run reads its node, edge, draw and
    # cycle counts through the layer wrappers; they must be the report's own.
    command = ["analyze", "--budget", "12", "--k", "4", "--format", "json"]
    traced = _run([sys.executable, "perfbench/traced.py", *command])
    record = json.loads(traced.stderr.splitlines()[-1])
    sizes = record["sizes"]
    report = json.loads(traced.stdout)
    # analyze is build_graph under a second name: one call shows in both layers.
    assert capcycle.report.analyze is capcycle.dominance.build_graph
    assert record["calls"]["analyze"] == record["calls"]["build_graph"] == 1
    assert len(report["nodes"]) == report["partition_count"]
    assert sizes == {
        "n_nodes": report["partition_count"],
        "n_edges": len(report["edges"]),
        "n_draws": len(report["draws"]),
        "n_cycles": len(report["three_cycles"]),
    }


def test_all_lists_every_public_name():
    # The package imports each public name from its submodule on first access.
    submodule = capcycle._SUBMODULE
    assert capcycle.__all__ == sorted(submodule)
    for name in capcycle.__all__:
        module = importlib.import_module(f"capcycle.{submodule[name]}")
        assert getattr(capcycle, name) is getattr(module, name)
    # dir() lists every public name, and no other name but the submodules.
    listed = [
        name
        for name in dir(capcycle)
        if not name.startswith("_") and not isinstance(getattr(capcycle, name), types.ModuleType)
    ]
    assert listed == capcycle.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        capcycle.no_such_name
    with pytest.raises(ImportError):
        from capcycle import no_such_name  # noqa: F401


def test_public_names_are_used():
    sources = [ROOT / "src" / "capcycle" / "cli.py", ROOT / "README.md"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    unused = [name for name in capcycle.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_readme_names_every_error_type():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"The errors of the game itself .*?\n\n", readme, re.S).group(0)
    named = set(re.findall(r"`(\w+Error)`", paragraph))
    errors = importlib.import_module("capcycle.errors")
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert named == defined


def test_readme_names_the_plain_value_errors(monkeypatch):
    # Arguments out of range raise a plain ValueError, not a CapcycleError,
    # and the README names them.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"An argument out of range .*?\n\n", readme, re.S).group(0)
    for name in ["analyze(-1, 3)", "CAPCYCLE_MAX_SPACE", "SimConfig", "simulate_best_of"]:
        assert name in paragraph
    mtl, ny = capcycle.Allocation((1, 1, 4)), capcycle.Allocation((3, 3, 0))
    calls = [
        lambda: capcycle.analyze(-1, 3),
        lambda: capcycle.enumerate_partitions(6, 0),
        lambda: capcycle.SimConfig(seed=0, n_games=0),
        lambda: capcycle.SimConfig(seed=0, n_games=1, best_of=2),
        lambda: capcycle.simulate_best_of(mtl, ny, capcycle.SimConfig(seed=0, n_games=1)),
    ]
    monkeypatch.setenv("CAPCYCLE_MAX_SPACE", "many")
    calls.append(lambda: capcycle.analyze(6, 3))
    for call in calls:
        with pytest.raises(ValueError) as caught:
            call()
        assert not isinstance(caught.value, capcycle.CapcycleError)
