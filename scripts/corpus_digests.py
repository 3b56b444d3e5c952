"""Print the byte-identity corpus table of tests/test_corpus.py, recomputed.

Runs the command line of every row of CORPUS in process, as the test does,
and prints the table again with the exit code, stdout length and sha256,
and stderr that the code gives now. To add a row, add it to the table with
any digest and rerun. A change that means to alter an output pastes the
printed table over the old one and names the rows that moved.

Usage (from the repository root, with src on PYTHONPATH):

    python scripts/corpus_digests.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.test_corpus import CORPUS, Row, outcome  # noqa: E402


def row_source(row: Row) -> str:
    """``row`` as its lines of the table: the command, exit code and length,
    then the digest, then the stderr text if there is any."""
    fields = [row.sha256, row.stderr] if row.stderr else [row.sha256]
    lines = [f"    Row({json.dumps(row.argv)}, {row.code}, {row.length},"]
    lines += [f"        {json.dumps(field)}," for field in fields]
    return "\n".join(lines)[:-1] + "),"


def main() -> None:
    print("CORPUS = [")
    for row in CORPUS:
        print(row_source(Row(row.argv, *outcome(row.argv.split()))))
    print("]")


if __name__ == "__main__":
    main()
