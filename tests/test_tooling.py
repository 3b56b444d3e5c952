"""The README library example and the scripts run as users run them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
