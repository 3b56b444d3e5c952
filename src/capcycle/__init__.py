"""capcycle: exact analysis of budget-capped intransitive allocation games.

An allocation splits an integer budget across k slots. Two allocations
play a game by comparing one uniformly chosen slot value from each side;
the cap forces trade-offs, so dominance between allocations is cyclic
rather than linear. This package enumerates capped strategy spaces,
builds the exact dominance digraph, finds cycles and counter-strategies,
and runs seeded Monte Carlo checks against the exact probabilities.
"""

from .allocations import (
    DEFAULT_SPACE_LIMIT,
    Allocation,
    Partition,
    enumerate_partitions,
    format_allocation,
    parse_allocation,
)
from .dominance import (
    CounterEntry,
    DominanceGraph,
    ThreeCycles,
    build_graph,
    counter_strategy,
)
from .errors import (
    AllocationError,
    AllTiesError,
    CapcycleError,
    DimensionMismatchError,
    SpaceTooLargeError,
)
from .matchups import (
    MatchupTable,
    TiePolicy,
    matchup_table,
    win_probability,
)
from .report import (
    analysis_json_pieces,
    analyze,
    dot_pieces,
    emit_dot,
    emit_matchup_csv,
    emit_matchup_grid,
    graph_json_pieces,
    matchup_json_dict,
    matchup_summary_line,
    render_analysis_text,
    simulation_json_dict,
    to_json_text,
)
from .simulate import (
    SeriesStats,
    SimConfig,
    simulate_best_of,
    simulate_games,
)

__version__ = "0.1.0"

# What the CLI, the scripts and the README use, plus the types those
# names return or raise: every name imported above, so no submodule.
# Tests import other helpers from their submodules.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(errors))
)
