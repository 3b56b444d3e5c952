"""Run one capcycle command line in process, with calls into its layers timed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python perfbench/traced.py analyze --budget 40 --k 4 --format json

The command line is dispatched through ``capcycle.cli.run_cli``, so the
calls, their order and the bytes on stdout are those of the real CLI. Before
that, each public layer function listed in ``_LAYERS`` is replaced, in every
loaded ``capcycle`` module that holds a reference to it, by a wrapper that
records calls, inclusive seconds, result sizes and the ``ru_maxrss``
high-water mark after the call. ``sys.stdout`` is wrapped to time the
write. The records go to stderr as one JSON object on the last line.

Nothing in ``src/`` is changed; a later in-program stage tracer replaces
this file.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from time import perf_counter

# (module, function, size extractor). Sizes are summed over calls.
_LAYERS = [
    ("allocations", "enumerate_partitions", lambda r: {"n_nodes": len(r)}),
    ("matchups", "matchup_table", None),
    (
        "dominance",
        "build_graph",
        lambda g: {"n_edges": len(g.edges), "n_draws": len(g.draw_pairs)},
    ),
    ("dominance", "find_three_cycles", lambda c: {"n_cycles": len(c)}),
    ("dominance", "strongly_connected_components", None),
    ("dominance", "best_counters", None),
    ("dominance", "undominated", None),
    ("report", "analyze", None),
    ("report", "analysis_json_dict", None),
    ("report", "to_json_text", None),
    ("report", "render_analysis_text", None),
    ("report", "emit_dot", None),
    (
        "simulate",
        "simulate_games",
        lambda s: {
            "games": s.games_played,
            "decisive": s.a_game_wins + s.b_game_wins,
            "rolls": s.a_game_wins + s.b_game_wins + s.tie_games,
        },
    ),
    (
        "simulate",
        "simulate_best_of",
        lambda s: {"series_rolls": s.a_game_wins + s.b_game_wins + s.tie_games},
    ),
]

# Called once per DOT edge: only counted and timed, since reading rusage
# and sizes on every call would cost more than the call.
_NO_RSS = {"matchup_table"}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Per-function totals: calls, seconds, sizes, and peak RSS per layer."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, seconds]
        self.sizes: dict[str, int] = {}
        self.layer_rss_mb: dict[str, float] = {}

    def wrap(self, module, name: str, sizes) -> None:
        layer = module.__name__.rsplit(".", 1)[-1]
        original = getattr(module, name)
        total = self.totals[name] = [0, 0.0]

        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = original(*args, **kwargs)
            total[1] += perf_counter() - t0
            total[0] += 1
            return result

        def recorded(*args, **kwargs):
            result = counted(*args, **kwargs)
            if sizes is not None:
                for key, value in sizes(result).items():
                    self.sizes[key] = self.sizes.get(key, 0) + value
            self.layer_rss_mb[layer] = max(self.layer_rss_mb.get(layer, 0.0), _rss_mb())
            return result

        timed = counted if name in _NO_RSS else recorded
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "capcycle":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, timed)


class TimedStream:
    """A text stream proxy that adds up the time spent in write and flush."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.seconds = 0.0

    def write(self, text: str) -> int:
        t0 = perf_counter()
        n = self._stream.write(text)
        self.seconds += perf_counter() - t0
        return n

    def flush(self) -> None:
        t0 = perf_counter()
        self._stream.flush()
        self.seconds += perf_counter() - t0

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv: list[str]) -> int:
    import capcycle.cli

    recorder = Recorder()
    for module_name, name, sizes in _LAYERS:
        module = importlib.import_module(f"capcycle.{module_name}")
        recorder.wrap(module, name, sizes)

    stream = TimedStream(sys.stdout)
    sys.stdout = stream
    try:
        code = capcycle.cli.run_cli(argv)
        stream.flush()
    finally:
        sys.stdout = stream._stream

    record = {
        "calls": {name: t[0] for name, t in recorder.totals.items()},
        "seconds": {name: t[1] for name, t in recorder.totals.items()},
        "sizes": recorder.sizes,
        "layer_rss_mb": recorder.layer_rss_mb,
        "write_s": stream.seconds,
    }
    sys.stderr.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
