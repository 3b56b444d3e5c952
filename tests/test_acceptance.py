"""Executable acceptance checklist for the package.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS/FAIL
line per criterion. Every frozen constant below was derived with the
naive reference implementations in ``_oracles`` before being committed,
and the oracle recomputations run live inside these tests.
"""

import hashlib
import random
import time

from capcycle import (
    Allocation,
    SimConfig,
    analysis_json_pieces,
    analyze,
    build_graph,
    counter_strategy,
    matchup_json_dict,
    matchup_table,
    render_analysis_text,
    simulate_best_of,
    simulate_games,
)
from capcycle.dominance import find_three_cycles, strongly_connected_components, undominated
from capcycle.simulate import _outputs

from . import _oracles

# sha256 of `capcycle analyze --budget 40 --k 4 --format json` stdout, as
# first recorded from the dict-based JSON export.
JSON_40_4_STDOUT_SHA256 = "e7c86d7181e2d5a2e1a55c0cc47341d7c41c667349ac4b5a8ef97ed1e53171c6"

MTL = Allocation((1, 1, 4))
BOS = Allocation((2, 2, 2))
NY = Allocation((3, 3, 0))


def _report(num: int, desc: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {desc}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    print(line)
    assert not failures, line


def test_acceptance_1_showcase_grids():
    expected = [
        (MTL, BOS, (3, 6, 0)),
        (BOS, NY, (3, 6, 0)),
        (MTL, NY, (5, 4, 0)),
    ]
    failures = []
    for a, b, _ in expected:
        matchup_table(a, b)  # warm-up
    for a, b, want in expected:
        start = time.perf_counter()
        t = matchup_table(a, b)
        elapsed = time.perf_counter() - start
        got = (t.wins_a, t.wins_b, t.ties)
        if got != want:
            failures.append(f"{a} vs {b}: got {got}, want {want}")
        if got != _oracles.cell_counts(a.values, b.values):
            failures.append(f"{a} vs {b}: disagrees with oracle")
        if elapsed >= 1e-3:
            failures.append(f"{a} vs {b}: took {elapsed * 1e3:.2f} ms")
    _report(1, "showcase matchup grids exact (3-6-0, 3-6-0, 5-4-0), < 1 ms each", failures)


def test_acceptance_2_intransitive_cycle():
    build_graph(6, 3)  # warm-up
    start = time.perf_counter()
    graph = build_graph(6, 3)
    cycles = [tuple(p.values for p in c) for c in find_three_cycles(graph)]
    elapsed = time.perf_counter() - start

    failures = []
    showcase = ((2, 2, 2), (4, 1, 1), (3, 3, 0))  # BOS > MTL > NY > BOS
    if showcase not in cycles:
        failures.append(f"cycle {showcase} missing from {cycles}")
    if len(cycles) != 2:
        failures.append(f"expected exactly 2 cycles, got {len(cycles)}")
    nodes = [p.values for p in graph.nodes]
    oracle_edges, _ = _oracles.graph_relations(nodes)
    if sorted(cycles) != _oracles.three_cycles(nodes, oracle_edges):
        failures.append("cycle set disagrees with exhaustive triple scan")
    if elapsed >= 1e-2:
        failures.append(f"took {elapsed * 1e3:.1f} ms")
    _report(2, "dominance cycle 2,2,2 -> 4,1,1 -> 3,3,0 found, exactly 2 cycles, < 10 ms", failures)


def test_acceptance_3_strategy_space_census():
    graph = analyze(6, 3)
    failures = []

    checks = [
        ("compositions", graph.composition_count, 28),
        ("partitions", graph.partition_count, 7),
        ("edges", len(graph.edges), 14),
        ("draw pairs", len(graph.draw_pairs), 7),
        ("scc sizes", graph.scc_sizes, (4, 1, 1, 1)),
        ("undominated", [p.values for p in graph.undominated], [(4, 2, 0)]),
    ]
    for name, got, want in checks:
        if got != want:
            failures.append(f"{name}: got {got}, want {want}")

    # live oracle recomputation, end to end
    nodes = _oracles.partitions(6, 3)
    oracle_edges, oracle_draws = _oracles.graph_relations(nodes)
    if [p.values for p in graph.nodes] != nodes:
        failures.append("node list disagrees with oracle")
    if sorted((w, l, m) for w, l, m in graph.edges) != sorted(oracle_edges):
        failures.append("edge list disagrees with oracle")
    if sorted(graph.draw_pairs) != sorted(oracle_draws):
        failures.append("draw pairs disagree with oracle")
    if list(graph.scc_sizes) != _oracles.scc_sizes(len(nodes), oracle_edges):
        failures.append("scc sizes disagree with oracle")
    if [p.values for p in undominated(graph)] != _oracles.undominated(nodes, oracle_edges):
        failures.append("undominated set disagrees with oracle")
    if len(_oracles.compositions(6, 3)) != 28:
        failures.append("oracle composition count drifted")
    _report(3, "budget-6 census: 28 compositions, 7 partitions, 14 edges, 7 draws, SCC 4/1/1/1, undominated 4,2,0", failures)


def test_acceptance_4_claim_verdict():
    # The claim fails exactly at the undominated strategies.
    free = [p.values for p in analyze(6, 3).undominated]
    failures = []
    if free != [(4, 2, 0)]:
        failures.append(f"counterexamples: got {free}, want [(4, 2, 0)]")
    for team in (MTL, BOS, NY):
        if counter_strategy(team) is None:
            failures.append(f"showcase team {team} has no same-cap dominator")
    text = render_analysis_text(analyze(6, 3))
    if "universal counter claim: FAILS (1 undominated strategy: 4,2,0)" not in text:
        failures.append("text report does not state the verdict explicitly")
    _report(4, "universal-counter claim fails at budget 6 (counterexample 4,2,0) and the report says so", failures)


def test_acceptance_5_counter_optimality():
    start = time.perf_counter()
    failures = []
    spots = [
        ((3, 3, 0), ((4, 1, 1), 1)),
        ((6, 0, 0), ((2, 2, 2), 3)),
        ((4, 2, 0), None),
    ]
    for values, want in spots:
        got = counter_strategy(Allocation(values))
        got_plain = None if got is None else (got[0].values, got[1])
        if got_plain != want:
            failures.append(f"counter{values}: got {got_plain}, want {want}")

    for budget in range(0, 13):
        candidates = _oracles.partitions(budget, 3)
        for values in candidates:
            got = counter_strategy(Allocation(values))
            got_plain = None if got is None else (got[0].values, got[1])
            want = _oracles.counter(values, candidates)
            if got_plain != want:
                failures.append(f"B={budget} counter{values}: got {got_plain}, want {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f} s")
    _report(5, "counter-strategy matches exhaustive scan for all budgets <= 12 (k=3), < 5 s", failures)


def test_acceptance_6_simulation_convergence():
    start = time.perf_counter()
    failures = []

    stats = simulate_games(MTL, NY, SimConfig(seed=42, n_games=90000))
    freq = stats.empirical_a_frequency
    if freq is None or abs(freq - 5 / 9) >= 0.005:
        failures.append(f"|{freq} - 5/9| >= 0.005")

    series = simulate_best_of(
        MTL, NY, SimConfig(seed=7, n_games=1, best_of=301, n_series=1000)
    )
    if series.a_series_wins < 900:
        failures.append(f"a_series_wins {series.a_series_wins} < 900")
    if series.a_series_wins + series.b_series_wins != 1000:
        failures.append("series tally does not sum to 1000")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f} s")
    _report(6, "seeded simulation converges (game frequency within 0.005 of 5/9; >= 900/1000 long series), < 5 s", failures)


def test_acceptance_7_prng_conformance():
    outputs = _outputs(0, 2).tolist()

    failures = []
    derived = _oracles.splitmix64_outputs(0, 2)
    if outputs != derived:
        failures.append(f"outputs {outputs} disagree with reference transcription {derived}")
    if outputs[0] != 0xE220A8397B1DCDAF:
        failures.append(f"first output 0x{outputs[0]:016X} != 0xE220A8397B1DCDAF")
    if outputs[1] != 0x6E789E6AA1B965F4:
        failures.append(f"second output 0x{outputs[1]:016X} != 0x6E789E6AA1B965F4")
    _report(7, "splitmix64 from state 0 yields 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4 (reference-derived, platform independent)", failures)


def _random_composition(rng: random.Random, budget: int, k: int) -> tuple[int, ...]:
    parts = []
    remaining = budget
    for _ in range(k - 1):
        v = rng.randint(0, remaining)
        parts.append(v)
        remaining -= v
    parts.append(remaining)
    rng.shuffle(parts)
    return tuple(parts)


def test_acceptance_8_invariant_suite():
    rng = random.Random(20260823)
    failures = []
    fail_count = 0
    for trial in range(10000):
        k = rng.randint(1, 6)
        a = _random_composition(rng, rng.randint(0, 40), k)
        b = _random_composition(rng, rng.randint(0, 40), k)
        alloc_a, alloc_b = Allocation(a), Allocation(b)
        t = matchup_table(alloc_a, alloc_b)

        ok = t.wins_a + t.wins_b + t.ties == k * k  # conservation

        rev = matchup_table(alloc_b, alloc_a)  # mirror symmetry
        ok = ok and (t.wins_a, t.wins_b, t.ties) == (rev.wins_b, rev.wins_a, rev.ties)

        perm = list(a)  # permutation invariance
        rng.shuffle(perm)
        tp = matchup_table(Allocation(tuple(perm)), alloc_b)
        ok = ok and (tp.wins_a, tp.wins_b, tp.ties) == (t.wins_a, t.wins_b, t.ties)

        shift = rng.randint(0, 5)  # translation invariance (both sides)
        ts = matchup_table(
            Allocation(tuple(v + shift for v in a)),
            Allocation(tuple(v + shift for v in b)),
        )
        ok = ok and matchup_json_dict(ts)["cells"] == matchup_json_dict(t)["cells"]

        scale = rng.randint(1, 4)  # scale invariance (both sides)
        tm = matchup_table(
            Allocation(tuple(v * scale for v in a)),
            Allocation(tuple(v * scale for v in b)),
        )
        ok = ok and matchup_json_dict(tm)["cells"] == matchup_json_dict(t)["cells"]

        fwd = matchup_json_dict(t)["outcome"] == "A"  # anti-symmetry
        bwd = matchup_json_dict(rev)["outcome"] == "A"
        ok = ok and not (fwd and bwd)
        ok = ok and fwd == _oracles.beats(a, b)
        ok = ok and (t.wins_a - t.wins_b) == -(rev.wins_a - rev.wins_b)

        if not ok:
            fail_count += 1
            if len(failures) < 3:
                failures.append(f"trial {trial}: a={a} b={b}")
    if fail_count:
        failures.append(f"{fail_count} of 10000 trials failed")
    _report(8, "matchup invariants hold on 10,000 randomized pairs (B <= 40, k <= 6)", failures)


def test_acceptance_9_performance_and_determinism():
    # Times what `capcycle analyze --budget 40 --k 4 --format json` runs.
    failures = []
    start = time.perf_counter()
    first = "".join(analysis_json_pieces(analyze(40, 4)))
    first_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    second = "".join(analysis_json_pieces(analyze(40, 4)))
    second_elapsed = time.perf_counter() - start

    if first_elapsed >= 10.0:
        failures.append(f"first run took {first_elapsed:.1f} s")
    if second_elapsed >= 10.0:
        failures.append(f"second run took {second_elapsed:.1f} s")
    if first != second:
        failures.append("consecutive runs differ byte for byte")
    # The CLI prints the text and a newline; this is that stdout's digest.
    digest = hashlib.sha256(first.encode())
    digest.update(b"\n")
    if digest.hexdigest() != JSON_40_4_STDOUT_SHA256:
        failures.append(f"stdout sha256 {digest.hexdigest()} differs from the reference")
    if len(first) != 70_210_625:
        failures.append(f"expected 70,210,625 characters, got {len(first)}")

    graph = build_graph(40, 4)
    sccs = strongly_connected_components(graph)
    if len(graph.nodes) != 632:
        failures.append(f"expected 632 partitions, got {len(graph.nodes)}")
    if sum(len(s) for s in sccs) != 632:
        failures.append("scc sizes do not cover the node set")
    _report(9, "full budget-40, k=4 analysis twice in < 10 s each, byte-identical output", failures)
