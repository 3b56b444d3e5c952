"""capcycle benchmark: real CLI processes end to end, and a traced run per layer.

Usage, from the root of a checkout that holds ``src/capcycle``:

    python3 perfbench/run.py --workload analyze-json --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

One client runs a closed loop: it starts the next ``python -m capcycle``
process only after the previous one has exited. With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
runs each command once under ``perfbench/traced.py`` and once plain, and
reports the per-layer metrics. The last line of stdout is one JSON object.
See ``perfbench/README.md`` for the workloads and what each metric shows.

This process must stay small: Linux carries a parent's resident set at fork
into the child's ``ru_maxrss``. So stdout of a child is hashed in fixed-size
chunks and never held whole, nothing here imports numpy or capcycle, and
traced in-process work runs in its own child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable
CLI = (PY, "-m", "capcycle")
IMPORT_CLI = (PY, "-c", "import capcycle.cli")

RUN_LIMIT_S = 170.0  # every child is killed past this; the driver allows 180 s
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHUNK = 1 << 20
KEEP_BYTES = 1 << 16  # stdout prefix kept for parsing; simulate output is ~230 B
BINOMIAL_Z = 6.0  # two-sided tail of about 2e-9 per checked frequency
RSS_SLACK_MB = 5.0

DEFAULT_SEED = 0


def _simulate_commands(seed: int) -> list[tuple[str, ...]]:
    # The default seed 0 gives seeds 42 and 7, whose outputs have reference digests.
    games_seed = (42 + seed) % 2**64
    series_seed = (7 + seed) % 2**64
    return [
        ("simulate", "--a", "3,2,1", "--b", "2,2,2", "--games", "1000000",
         "--seed", str(games_seed)),
        ("simulate", "--a", "1,1,4", "--b", "3,3,0", "--games", "1",
         "--best-of", "301", "--series", "1000", "--seed", str(series_seed)),
    ]


# Inputs per workload; only simulate depends on the seed.
WORKLOADS = {
    "analyze-json": lambda seed: [("analyze", "--budget", "40", "--k", "4", "--format", "json")],
    "analyze-text": lambda seed: [("analyze", "--budget", "30", "--k", "6")],
    "graph-dot": lambda seed: [("graph", "--budget", "30", "--k", "6")],
    "simulate": _simulate_commands,
}

# stdout sha256 and length, recorded from the CLI before any optimisation.
REFERENCE = {
    "analyze --budget 40 --k 4 --format json": (
        "e7c86d7181e2d5a2e1a55c0cc47341d7c41c667349ac4b5a8ef97ed1e53171c6", 70210626),
    "analyze --budget 30 --k 6": (
        "39777c7f4e26a1b8e57e69b45c26b80643c5efef60604b480552e96baefc743c", 58776),
    "graph --budget 30 --k 6": (
        "beddc3a8ab0ad9e90d79cc36b8b5c16faea34dec7a9e51c8fb52b7faf99b65fc", 23926406),
    "simulate --a 3,2,1 --b 2,2,2 --games 1000000 --seed 42": (
        "787c019991a37ed72039ad6a00ffaec916930c26d73ad02b2bbd5fe1831f5190", 184),
    "simulate --a 1,1,4 --b 3,3,0 --games 1 --best-of 301 --series 1000 --seed 7": (
        "93359725679298816d1b116a8e65ff9270220402c96e14243f0a38137a0ee044", 229),
}

# Exact per-game win probability of a under reroll, per (a, b).
EXACT_P = {("3,2,1", "2,2,2"): Fraction(1, 2), ("1,1,4", "3,3,0"): Fraction(5, 9)}

# Sizes the traced run must see, summed over a workload's commands.
EXPECTED_SIZES = {
    "analyze-json": {"n_nodes": 632, "n_edges": 156473, "n_draws": 42923, "n_cycles": 1260582},
    "analyze-text": {"n_nodes": 1206, "n_edges": 664484, "n_draws": 62131, "n_cycles": 7728511},
    "graph-dot": {"n_nodes": 1206, "n_edges": 664484, "n_draws": 62131,
                  "matchup_table_calls": 664484},
    "simulate": {"games": 1000000},
}


class BenchError(Exception):
    """The program cannot be measured here; no result is printed."""


@dataclass
class Invocation:
    code: int
    wall_s: float
    rss_mb: float
    nbytes: int
    digest: str
    head: bytes
    stderr_tail: bytes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def invoke(argv, deadline: float) -> Invocation:
    """Run one child to exit; hash its stdout as it streams in.

    Peak RSS comes from this child's own ``wait4`` rusage, not from
    ``RUSAGE_CHILDREN``, which is a maximum over every child so far.
    """
    buf = bytearray(CHUNK)
    view = memoryview(buf)
    digest = hashlib.sha256()
    head = bytearray()
    nbytes = 0
    stderr_tail = bytearray()

    def drain_stderr(stream) -> None:
        for piece in iter(lambda: stream.read(CHUNK), b""):
            stderr_tail.extend(piece)
            del stderr_tail[:-KEEP_BYTES]

    t0 = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    drainer = threading.Thread(target=drain_stderr, args=(proc.stderr,))
    drainer.start()
    try:
        while n := proc.stdout.readinto(buf):
            digest.update(view[:n])
            nbytes += n
            if len(head) < KEEP_BYTES:
                head.extend(view[: min(n, KEEP_BYTES - len(head))])
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        drainer.join()
        proc.stdout.close()
        proc.stderr.close()
    return Invocation(
        proc.returncode, wall, usage.ru_maxrss / 1024.0, nbytes,
        digest.hexdigest(), bytes(head), bytes(stderr_tail),
    )


def _field(pattern: str, text: str) -> tuple[str, ...]:
    match = re.search(pattern, text, re.MULTILINE)
    if match is None:
        raise ValueError(f"missing line /{pattern}/")
    return match.groups()


def check_simulate(command: tuple[str, ...], text: str) -> None:
    """Consistency of a reroll simulate output for which no digest exists.

    The tallies must add up exactly, and the a-win frequency over decisive
    games must lie within BINOMIAL_Z binomial standard deviations of the
    exact p(a), which must itself be the known value.
    """
    opts = dict(zip(command[1::2], command[2::2]))
    (seed,) = _field(r"^policy: reroll, seed (\d+)$", text)
    games, a, b, _ties = map(int, _field(
        r"^games played: (\d+) \(a (\d+), b (\d+), ties rerolled (\d+)\)$", text))
    (freq,) = _field(r"^empirical a frequency: ([\d.]+)$", text)
    num, den = _field(r"^exact p\(a\): (\d+)/(\d+) ", text)
    p = Fraction(int(num), int(den))
    if seed != opts["--seed"]:
        raise ValueError(f"seed {seed} printed for --seed {opts['--seed']}")
    if p != EXACT_P[opts["--a"], opts["--b"]]:
        raise ValueError(f"exact p(a) {p} is wrong")
    if games != a + b:
        raise ValueError(f"games {games} != a {a} + b {b}")
    if freq != f"{a / games:.4f}":
        raise ValueError(f"frequency {freq} does not match tallies {a}/{games}")
    limit = BINOMIAL_Z * math.sqrt(float(p * (1 - p)) / games)
    if abs(a / games - float(p)) > limit:
        raise ValueError(f"frequency {a / games} is more than {limit} from p(a) {float(p)}")
    if "--best-of" not in opts:
        if games != int(opts["--games"]):
            raise ValueError(f"games {games} != --games {opts['--games']}")
        return
    sa, sb = map(int, _field(r"^series wins: a (\d+), b (\d+)$", text))
    need = (int(opts["--best-of"]) + 1) // 2
    if sa + sb != int(opts["--series"]):
        raise ValueError(f"series wins {sa} + {sb} != --series {opts['--series']}")
    # Each series ends when its winner reaches `need`; the loser has fewer.
    for wins, won, lost in ((a, sa, sb), (b, sb, sa)):
        if not need * won <= wins <= need * won + (need - 1) * lost:
            raise ValueError(f"game wins {wins} impossible with {won} of {sa + sb} series won")


def output_problem(command, inv: Invocation, reference=REFERENCE) -> str | None:
    """Why this invocation's output is wrong, or None when it is right."""
    if inv.code != 0:
        return f"exit code {inv.code}"
    key = " ".join(command)
    if key in reference:
        if (inv.digest, inv.nbytes) != reference[key]:
            return f"stdout sha256 {inv.digest} ({inv.nbytes} B) differs from the reference"
        return None
    if command[0] != "simulate":
        return "no reference output for this command"
    try:
        check_simulate(command, inv.head.decode())
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"inconsistent simulate output: {exc}"
    return None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def count(self, command, inv: Invocation, reference=REFERENCE) -> None:
        self.attempted += 1
        problem = output_problem(command, inv, reference)
        if problem is not None:
            self.failed += 1
            tail = inv.stderr_tail.decode(errors="replace")[-2000:]
            print(f"FAILED {' '.join(command)}: {problem}\n{tail}", file=sys.stderr)


def measure_setup(deadline: float) -> list[Invocation]:
    """Fresh interpreters importing capcycle.cli, after one untimed warm-up
    that leaves the bytecode cache as a user's second run finds it."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        inv = invoke(IMPORT_CLI, deadline)
        if inv.code != 0:
            raise BenchError(
                "cannot import capcycle.cli from src/:\n"
                + inv.stderr_tail.decode(errors="replace"))
        if i:
            samples.append(inv)
    return samples


def run_closed_loop(commands, seconds: float, deadline: float, tally: Tally,
                    reference=REFERENCE) -> list[tuple[float, float]]:
    """Run the workload's commands back to back until `seconds` have passed.

    Returns (wall seconds, peak RSS MB) per iteration: the sum of the walls
    and the largest peak over the iteration's processes.
    """
    iterations = []
    start = time.monotonic()
    while not iterations or time.monotonic() - start < seconds:
        if iterations and time.monotonic() + 2 * iterations[-1][0] > deadline:
            break
        wall = rss = 0.0
        for command in commands:
            inv = invoke(CLI + command, deadline)
            tally.count(command, inv, reference)
            wall += inv.wall_s
            rss = max(rss, inv.rss_mb)
        iterations.append((wall, rss))
    return iterations


def end_to_end(commands, seconds: float, deadline: float) -> tuple[Tally, dict]:
    setup = measure_setup(deadline)
    tally = Tally()
    iterations = run_closed_loop(commands, seconds, deadline, tally)
    print(f"{tally.attempted} invocations; iteration walls "
          f"{[round(w, 3) for w, _ in iterations]} s; setup walls "
          f"{[round(s.wall_s, 3) for s in setup]} s", file=sys.stderr)
    return tally, {
        "wall_s": statistics.median(w for w, _ in iterations),
        "peak_rss_mb": statistics.median(r for _, r in iterations),
        "setup_s": statistics.median(s.wall_s for s in setup),
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }


IMPORTED = ("capcycle", "numpy", "scipy")


def import_breakdown(importtime: str) -> dict[str, float]:
    """Seconds spent importing each package of IMPORTED, from the stderr of
    ``python -X importtime``.

    Lines come in post-order with two spaces of indent per level, so the
    deeper entries pending when a line arrives are that module's imports.
    capcycle's time includes numpy and scipy. numpy and scipy each count
    only modules not imported from within numpy or scipy, so numpy modules
    loaded by scipy count for scipy, and the two do not overlap.
    """
    pending: list[tuple[int, str, int, list]] = []  # (depth, name, cumulative us, children)
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, parts[2].strip(), int(parts[1]), children))

    totals = dict.fromkeys(IMPORTED, 0)

    def walk(node, in_capcycle: bool, in_dependency: bool) -> None:
        _, name, cumulative, children = node
        top = name.partition(".")[0]
        if top in totals and not (in_capcycle if top == "capcycle" else in_dependency):
            totals[top] += cumulative
        for child in children:
            walk(child, in_capcycle or top == "capcycle",
                 in_dependency or top in ("numpy", "scipy"))

    for node in pending:
        walk(node, False, False)
    return {name: us / 1e6 for name, us in totals.items()}


def measure_imports() -> dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [PY, "-X", "importtime", *IMPORT_CLI[1:]], cwd=ROOT, env=_child_env(),
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import capcycle.cli from src/:\n{proc.stderr[-2000:]}")
        samples.append(import_breakdown(proc.stderr))
    return {name: statistics.median(s[name] for s in samples) for name in IMPORTED}


def per_layer(workload: str, commands, deadline: float) -> tuple[Tally, dict]:
    """One traced pass and one plain pass over the workload's commands."""
    imports = measure_imports()
    tally = Tally()
    calls, seconds, sizes = Counter(), Counter(), Counter()
    rss: dict[str, float] = {}
    write_s = traced_wall = 0.0
    output_bytes = 0
    for command in commands:
        inv = invoke((PY, str(HERE / "traced.py"), *command), deadline)
        tally.count(command, inv)
        try:
            record = json.loads(inv.stderr_tail.decode().splitlines()[-1])
        except (ValueError, IndexError):
            raise BenchError(f"traced run of {' '.join(command)} left no record") from None
        calls.update(record["calls"])
        seconds.update(record["seconds"])
        sizes.update(record["sizes"])
        for layer, mb in record["layer_rss_mb"].items():
            rss[layer] = max(rss.get(layer, 0.0), mb)
        write_s += record["write_s"]
        output_bytes += inv.nbytes
        traced_wall += inv.wall_s
    plain = run_closed_loop(commands, 0, deadline, tally)

    observed = sizes + Counter(matchup_table_calls=calls["matchup_table"])
    for key, want in EXPECTED_SIZES[workload].items():
        if observed[key] != want:
            tally.failed += 1
            print(f"FAILED traced size {key}: {observed[key]} != {want}", file=sys.stderr)

    return tally, {
        "cli.import_s": imports["capcycle"],
        "cli.import_numpy_s": imports["numpy"],
        "cli.import_scipy_s": imports["scipy"],
        "cli.write_s": write_s,
        "cli.output_bytes": output_bytes,
        "allocations.enumerate_partitions_s": seconds["enumerate_partitions"],
        "allocations.n_nodes": sizes["n_nodes"],
        "matchups.matchup_table_s": seconds["matchup_table"],
        "matchups.matchup_table_calls": calls["matchup_table"],
        "dominance.build_graph_s": seconds["build_graph"],
        "dominance.n_edges": sizes["n_edges"],
        "dominance.n_draws": sizes["n_draws"],
        "dominance.find_three_cycles_s": seconds["find_three_cycles"],
        "dominance.n_cycles": sizes["n_cycles"],
        "dominance.scc_s": seconds["strongly_connected_components"],
        "dominance.best_counters_s": seconds["best_counters"],
        "dominance.undominated_s": seconds["undominated"],
        "dominance.rss_mb": rss.get("dominance", 0.0),
        "report.analyze_s": seconds["analyze"],
        "report.analysis_json_dict_s": seconds["analysis_json_dict"],
        "report.to_json_text_s": seconds["to_json_text"],
        "report.render_analysis_text_s": seconds["render_analysis_text"],
        "report.emit_dot_s": seconds["emit_dot"],
        "report.rss_mb": rss.get("report", 0.0),
        "simulate.simulate_games_s": seconds["simulate_games"],
        "simulate.games_per_s": (
            sizes["games"] / seconds["simulate_games"] if sizes["games"] else 0.0),
        "simulate.decisive_ratio": sizes["decisive"] / sizes["rolls"] if sizes["rolls"] else 0.0,
        "simulate.simulate_best_of_s": seconds["simulate_best_of"],
        "simulate.series_rolls": sizes["series_rolls"],
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / plain[0][0],
    }


def self_test(deadline: float) -> int:
    """Check the checks: a corrupted digest must count as a failure, and the
    harness's own memory must not show in a child's peak RSS."""
    ok = True
    series = _simulate_commands(DEFAULT_SEED)[1:]
    right, wrong = Tally(), Tally()
    corrupted = {key: ("0" * 64, nbytes) for key, (_, nbytes) in REFERENCE.items()}
    run_closed_loop(series, 0, deadline, right)
    run_closed_loop(series, 0, deadline, wrong, corrupted)
    print(f"true reference: {right.failed}/{right.attempted} failed; "
          f"corrupted reference: {wrong.failed}/{wrong.attempted} failed", file=sys.stderr)
    ok &= right.failed == 0 and wrong.failed == wrong.attempted > 0

    tally = Tally()
    run_closed_loop(WORKLOADS["analyze-json"](DEFAULT_SEED), 0, deadline, tally)
    bare = max(s.rss_mb for s in measure_setup(deadline))
    sim = run_closed_loop(WORKLOADS["simulate"](DEFAULT_SEED), 0, deadline, tally)[0][1]
    print(f"peak RSS after analyze-json: bare import {bare:.1f} MB, simulate {sim:.1f} MB",
          file=sys.stderr)
    ok &= tally.failed == 0 and sim - bare <= RSS_SLACK_MB
    print("self-test", "passed" if ok else "FAILED", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="verify the output check and the RSS isolation, then exit")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "capcycle" / "__main__.py").is_file():
        print(f"run.py: no capcycle source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(deadline)
        if args.workload is None:
            parser.error("--workload is required")
        commands = WORKLOADS[args.workload](args.seed)
        if args.trace:
            section = "per_layer"
            tally, values = per_layer(args.workload, commands, deadline)
        else:
            section = "end_to_end"
            tally, values = end_to_end(commands, args.seconds, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
