"""Independent naive reference implementations used to cross-check the package.

Everything here favors obviousness over speed: plain double loops,
itertools-based enumeration, Floyd-Warshall reachability. These were
written first and the frozen constants in the tests come from them.
All functions work on bare tuples of ints or, for the 3-cycle count, a
boolean numpy matrix, never on package types, except the export builders
at the end: they are the package's earlier
dict-based JSON export and per-edge DOT writer, kept to check the writers
that replaced them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import comb

import numpy as np

MASK64 = 2**64 - 1


def cell_counts(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int, int]:
    """(wins_a, wins_b, ties) by comparing every value pair directly."""
    wins_a = wins_b = ties = 0
    for x in a:
        for y in b:
            if x > y:
                wins_a += 1
            elif x < y:
                wins_b += 1
            else:
                ties += 1
    return wins_a, wins_b, ties


def cell_grid(a: tuple[int, ...], b: tuple[int, ...]) -> list[list[str]]:
    """Row i, column j: "A", "B" or "tie" for a[i] against b[j]."""
    return [["A" if x > y else "B" if x < y else "tie" for y in b] for x in a]


def beats(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    wa, wb, _ = cell_counts(a, b)
    return wa > wb


def margins(nodes: list[tuple[int, ...]]) -> list[list[int]]:
    """Row i, column j: the cells nodes[i] takes from nodes[j] minus the
    cells it gives back, for every ordered pair."""
    rows = []
    for a in nodes:
        row = []
        for b in nodes:
            wa, wb, _ = cell_counts(a, b)
            row.append(wa - wb)
        rows.append(row)
    return rows


def compositions(budget: int, k: int) -> list[tuple[int, ...]]:
    """Stars and bars: decode every bar placement into part sizes."""
    out = []
    for bars in itertools.combinations(range(budget + k - 1), k - 1):
        parts = []
        prev = -1
        for bar in bars:
            parts.append(bar - prev - 1)
            prev = bar
        parts.append(budget + k - 1 - prev - 1)
        out.append(tuple(parts))
    return out


def partitions(budget: int, k: int) -> list[tuple[int, ...]]:
    """Deduplicated canonical forms of all compositions, descending."""
    canon = {tuple(sorted(c, reverse=True)) for c in compositions(budget, k)}
    return sorted(canon, reverse=True)


def graph_relations(
    nodes: list[tuple[int, ...]],
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """(edges, draws) over node indices by scanning every unordered pair."""
    edges = []
    draws = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            wa, wb, _ = cell_counts(nodes[i], nodes[j])
            if wa > wb:
                edges.append((i, j, wa - wb))
            elif wb > wa:
                edges.append((j, i, wb - wa))
            else:
                draws.append((i, j))
    return edges, draws


def three_cycles(
    nodes: list[tuple[int, ...]], edges: list[tuple[int, int, int]]
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Every directed triangle once, rotated to start at its smallest value."""
    wins = {(w, l) for w, l, _ in edges}
    seen = set()
    for x, y, z in itertools.combinations(range(len(nodes)), 3):
        for i, j, l in ((x, y, z), (x, z, y)):
            if (i, j) in wins and (j, l) in wins and (l, i) in wins:
                rotations = [(i, j, l), (j, l, i), (l, i, j)]
                start = min(rotations, key=lambda r: nodes[r[0]])
                seen.add(tuple(nodes[idx] for idx in start))
    return sorted(seen)


def bitmask_three_cycles(
    n: int, edges: Iterable[tuple[int, int, int]]
) -> Iterator[tuple[int, int, int]]:
    """Index triples (x, y, z) of every directed 3-cycle among ``n`` nodes,
    lazily, in the package's canonical order: x descending, then y, then z
    descending.

    ``edges`` holds (winner, loser, margin) triples. Bit j of succ[i] is set
    when i beats j, and of pred[i] when j beats i. x is the highest index of
    its cycle, so y and z are below it.
    """
    succ = [0] * n
    pred = [0] * n
    for w, l, _ in edges:
        succ[w] |= 1 << l
        pred[l] |= 1 << w
    for x in range(n - 1, -1, -1):
        below_x = (1 << x) - 1
        ys = succ[x] & below_x
        while ys:
            y = ys.bit_length() - 1
            ys ^= 1 << y
            zs = succ[y] & pred[x] & below_x
            while zs:
                z = zs.bit_length() - 1
                zs ^= 1 << z
                yield x, y, z


def three_cycle_count(adjacency: np.ndarray) -> int:
    """The number of directed 3-cycles, by the tournament identity of
    Kendall & Babington Smith (Biometrika 1940), corrected for draws.

    adjacency[i, j] is True when i beats j; a pair with neither direction is
    a draw. Among the T0 node triples with no drawn pair, each transitive one
    has a single node that beats the other two, and every other triple is a
    cycle. Summed over v, C(out_v, 2) counts those transitive triples and,
    for each drawn pair {a, b}, every node that beats both, P in all. So
    the count is T0 - sum_v C(out_v, 2) + P. By inclusion-exclusion over the
    d drawn pairs, T0 = C(n, 3) - (d (n - 2) - sum_v C(draw_v, 2) + t_D),
    where t_D is the number of triangles of drawn pairs. Both pair sums
    intersect bit-packed rows with np.bitwise_count.
    """
    n = len(adjacency)
    draws = ~(adjacency | adjacency.T)
    np.fill_diagonal(draws, False)
    draw_degrees = draws.sum(axis=1).tolist()
    out_degrees = adjacency.sum(axis=1).tolist()
    packed_draws = np.packbits(draws, axis=1)
    packed_beaten_by = np.packbits(adjacency.T, axis=1)  # row v: who beats v
    shared_draws = beat_both = 0
    for a in range(n):
        bs = a + 1 + np.flatnonzero(draws[a, a + 1 :])  # drawn pairs {a, b}, a < b
        shared_draws += int(np.bitwise_count(packed_draws[a] & packed_draws[bs]).sum())
        beat_both += int(np.bitwise_count(packed_beaten_by[a] & packed_beaten_by[bs]).sum())
    d = sum(draw_degrees) // 2
    t_d = shared_draws // 3  # each drawn triangle, once per drawn pair
    no_draw = comb(n, 3) - (d * (n - 2) - sum(comb(x, 2) for x in draw_degrees) + t_d)
    return no_draw - sum(comb(x, 2) for x in out_degrees) + beat_both


def strong_components(n: int, edges: list[tuple[int, int, int]]) -> list[tuple[int, ...]]:
    """Components as sorted index tuples, ordered by smallest member, via full
    reachability closure."""
    reach = [[False] * n for _ in range(n)]
    for w, l, _ in edges:
        reach[w][l] = True
    for m in range(n):
        for i in range(n):
            if reach[i][m]:
                row_m = reach[m]
                row_i = reach[i]
                for j in range(n):
                    if row_m[j]:
                        row_i[j] = True
    assigned = [False] * n
    components = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [
            j
            for j in range(n)
            if j == i or (reach[i][j] and reach[j][i])
        ]
        for j in members:
            assigned[j] = True
        components.append(tuple(members))
    return components


def scc_sizes(n: int, edges: list[tuple[int, int, int]]) -> list[int]:
    """Component sizes, descending."""
    return sorted((len(c) for c in strong_components(n, edges)), reverse=True)


def undominated(
    nodes: list[tuple[int, ...]], edges: list[tuple[int, int, int]]
) -> list[tuple[int, ...]]:
    losers = {l for _, l, _ in edges}
    return [p for i, p in enumerate(nodes) if i not in losers]


def counter(
    a: tuple[int, ...], candidates: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], int] | None:
    """Max-margin strict beater of ``a``; margin ties go to the lex-smallest."""
    best = None
    for p in candidates:
        wa, wb, _ = cell_counts(p, a)
        if wa <= wb:
            continue
        margin = wa - wb
        if best is None or margin > best[1] or (margin == best[1] and p < best[0]):
            best = (p, margin)
    return best


def splitmix64_outputs(seed: int, n: int) -> list[int]:
    """Reference splitmix64 sequence, transcribed separately from the package."""
    out = []
    x = seed & MASK64
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append((z ^ (z >> 31)) & MASK64)
    return out


def splitmix64_seed_for(value: int, m: int) -> int:
    """The seed whose output number m (from 0) is ``value``.

    Inverts the finalizer: each xorshift by s is undone by repeating it
    until the shifted bits run out, each odd multiplier by its inverse
    modulo 2^64; then steps back m + 1 increments.
    """

    def unshift(z: int, s: int) -> int:
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    z = unshift(value & MASK64, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK64
    z = unshift(z, 30)
    return (z - (m + 1) * 0x9E3779B97F4A7C15) & MASK64


def roll(a: tuple[int, ...], b: tuple[int, ...], state: int) -> tuple[int, int]:
    """One joint roll: (new_state, +1 if a wins, -1 if b wins, 0 on a tie).

    Consumes one reference output per index draw, rejecting outputs at or
    above floor(2^64 / k) * k, and draws a's index before b's.
    """
    k = len(a)
    threshold = (2**64 // k) * k

    def draw_index() -> int:
        nonlocal state
        while True:
            out = splitmix64_outputs(state, 1)[0]
            state = (state + 0x9E3779B97F4A7C15) & MASK64
            if out < threshold:
                return out % k

    x = a[draw_index()]
    y = b[draw_index()]
    return state, (x > y) - (x < y)


def sim_games(
    a: tuple[int, ...],
    b: tuple[int, ...],
    seed: int,
    n_games: int,
    reroll: bool,
) -> tuple[int, int, int]:
    """(a_wins, b_wins, ties) from an independent replay of game sampling."""
    state = seed & MASK64
    a_wins = b_wins = ties = 0
    games = 0
    while games < n_games:
        state, outcome = roll(a, b, state)
        if outcome > 0:
            a_wins += 1
            games += 1
        elif outcome < 0:
            b_wins += 1
            games += 1
        else:
            ties += 1
            if not reroll:
                games += 1
    return a_wins, b_wins, ties


def sim_series(
    a: tuple[int, ...],
    b: tuple[int, ...],
    seed: int,
    best_of: int,
    n_series: int,
    reroll: bool,
) -> tuple[int, int, int, int, int, int]:
    """(games, a_wins, b_wins, ties, a_series, b_series) replaying best-of series.

    Series i starts from the i-th reference output of the master seed and
    ends when one side has (best_of + 1) / 2 decisive wins.
    """
    need = (best_of + 1) // 2
    a_wins = b_wins = ties = a_series = b_series = 0
    for state in splitmix64_outputs(seed, n_series):
        sa = sb = 0
        while sa < need and sb < need:
            state, outcome = roll(a, b, state)
            if outcome > 0:
                sa += 1
            elif outcome < 0:
                sb += 1
            else:
                ties += 1
        a_wins += sa
        b_wins += sb
        if sa == need:
            a_series += 1
        else:
            b_series += 1
    games = a_wins + b_wins + (0 if reroll else ties)
    return games, a_wins, b_wins, ties, a_series, b_series


def series_win_probability(wins_a: int, wins_b: int, best_of: int) -> Fraction:
    """Exact chance that a takes a best-of series of decisive games.

    With m = (best_of + 1) / 2 and p = wins_a / (wins_a + wins_b), a wins
    when its m-th win comes before b's m-th: sum over j < m of
    C(m - 1 + j, j) p^m q^j.
    """
    m = (best_of + 1) // 2
    p = Fraction(wins_a, wins_a + wins_b)
    q = 1 - p
    return sum(comb(m - 1 + j, j) * p**m * q**j for j in range(m))


def graph_json_dict(g) -> dict:
    """The dominance-graph export schema, built as nested lists and dicts.

    Cycles come from bitmask_three_cycles over the graph's strict edges, and
    the undominated nodes, the claim's counterexamples, are those no edge
    has as its loser.
    """
    nodes = [list(p.values) for p in g.nodes]
    free = [list(p) for p in undominated([p.values for p in g.nodes], g.edges)]
    return {
        "budget": g.budget,
        "k": g.k,
        "nodes": nodes,
        "edges": [{"winner": w, "loser": l, "margin": m} for w, l, m in g.edges],
        "draws": [[i, j] for i, j in g.draw_pairs],
        "three_cycles": [
            [nodes[x], nodes[y], nodes[z]]
            for x, y, z in bitmask_three_cycles(len(nodes), g.edges)
        ],
        "scc": [list(group) for group in g.scc],
        "undominated": free,
        "claim": {"holds": not free, "counterexamples": free},
    }


def analysis_json_dict(g) -> dict:
    """Graph schema plus census counts and the counter-strategy table."""
    payload = graph_json_dict(g)
    payload["composition_count"] = g.composition_count
    payload["partition_count"] = g.partition_count
    payload["counters"] = [
        {
            "node": list(entry.node.values),
            "counter": list(entry.counter.values) if entry.counter else None,
            "margin": entry.margin,
        }
        for entry in g.counters
    ]
    return payload


def dot(graph) -> str:
    """The DOT digraph export, one line per node, strict edge and draw.

    Edges are labelled with their cell tally from cell_counts.
    """
    nodes = [p.values for p in graph.nodes]
    lines = ["digraph dominance {", "  rankdir=LR;"]
    for i, values in enumerate(nodes):
        lines.append(f'  n{i} [label="{",".join(map(str, values))}"];')
    for w, l, _ in graph.edges:
        wins_w, wins_l, _ = cell_counts(nodes[w], nodes[l])
        lines.append(f'  n{w} -> n{l} [label="{wins_w}-{wins_l}"];')
    for i, j in graph.draw_pairs:
        lines.append(f"  n{i} -> n{j} [dir=none, style=dashed];")
    lines.append("}")
    return "\n".join(lines)
