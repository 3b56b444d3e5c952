"""The README library example and the scripts run as users run them, the
public names are the ones they use, and the benchmark trace finds its layers."""

import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import capcycle

ROOT = Path(__file__).resolve().parents[1]


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run(argv: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    first = _run([sys.executable, *argv])
    assert first
    assert _run([sys.executable, *argv]) == first


def test_traced_layers_resolve():
    layers = runpy.run_path(str(ROOT / "perfbench" / "traced.py"))["_LAYERS"]
    missing = [
        f"capcycle.{module}.{name}"
        for module, name, _ in layers
        if not callable(getattr(importlib.import_module(f"capcycle.{module}"), name, None))
    ]
    assert missing == []


def test_public_names_are_used():
    sources = [ROOT / "src" / "capcycle" / "cli.py", ROOT / "README.md"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    unused = [name for name in capcycle.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []
