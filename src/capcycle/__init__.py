"""capcycle: exact analysis of budget-capped intransitive allocation games.

An allocation splits an integer budget across k slots. Two allocations
play a game by comparing one uniformly chosen slot value from each side;
the cap forces trade-offs, so dominance between allocations is cyclic
rather than linear. This package enumerates capped strategy spaces,
builds the exact dominance digraph, finds cycles and counter-strategies,
and runs seeded Monte Carlo checks against the exact probabilities.

The public names are imported on first use (PEP 562), each from its
submodule in _SUBMODULE, so ``import capcycle`` loads no numpy until a name
from dominance, report or simulate is read.
"""

__version__ = "0.1.0"

# What the CLI, the scripts and the README use, plus the types those
# names return or raise, each with the submodule that defines it. Tests
# import other helpers from their submodules, such as build_graph (which
# analyze binds) and emit_dot, which perfbench/traced.py wraps there.
_SUBMODULE = {
    "Allocation": "allocations",
    "Partition": "allocations",
    "enumerate_partitions": "allocations",
    "format_allocation": "allocations",
    "parse_allocation": "allocations",
    "CounterEntry": "dominance",
    "DominanceGraph": "dominance",
    "ThreeCycles": "dominance",
    "counter_strategy": "dominance",
    "AllocationError": "errors",
    "AllTiesError": "errors",
    "CapcycleError": "errors",
    "DimensionMismatchError": "errors",
    "SpaceTooLargeError": "errors",
    "MatchupTable": "matchups",
    "TiePolicy": "matchups",
    "emit_matchup_csv": "matchups",
    "emit_matchup_grid": "matchups",
    "matchup_json_dict": "matchups",
    "matchup_summary_line": "matchups",
    "matchup_table": "matchups",
    "win_probability": "matchups",
    "analysis_json_pieces": "report",
    "analyze": "report",
    "dot_pieces": "report",
    "graph_json_pieces": "report",
    "render_analysis_text": "report",
    "SeriesStats": "simulate",
    "SimConfig": "simulate",
    "simulate_best_of": "simulate",
    "simulate_games": "simulate",
    "simulation_json_dict": "simulate",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """Import a public name's submodule on first access and keep the name."""
    from importlib import import_module

    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
