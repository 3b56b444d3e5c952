"""Scan budgets and category counts for the universal-counter claim.

For each (budget, k) in range, report whether every capped strategy has
a strictly better same-cap answer, and if not, which strategies are
undominated. Also tallies cycle counts to show how fast intransitivity
takes over as the space grows.

Usage: python scripts/scan_claim_verdicts.py [--max-budget N] [--max-k N]
"""

import argparse

from capcycle import analyze, format_allocation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-budget", type=int, default=20)
    parser.add_argument("--max-k", type=int, default=4)
    args = parser.parse_args()

    print(f"{'B':>3} {'k':>2} {'parts':>6} {'edges':>7} {'cycles':>7}  verdict")
    for k in range(2, args.max_k + 1):
        for budget in range(0, args.max_budget + 1):
            r = analyze(budget, k)
            if not r.undominated:
                verdict = "holds"
            else:
                free = "; ".join(format_allocation(p) for p in r.undominated)
                verdict = f"fails ({free})"
            print(
                f"{budget:>3} {k:>2} {r.partition_count:>6} "
                f"{r.n_edges:>7} {len(r.three_cycles):>7}  {verdict}"
            )
        print()


if __name__ == "__main__":
    main()
