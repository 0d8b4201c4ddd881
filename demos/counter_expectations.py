#!/usr/bin/env python3
"""How often does the randomized counter set a bit?

Tabulates the exact expectation (closed form and recurrence), the
asymptotic approximation, and a seeded Monte Carlo estimate side by side.
Then gives the exact expected pivot count of the recursive facet rule on
small counter graphs from the zero start, by exhaustive enumeration.
"""

import time
from random import Random

from pivotlab import checks, counter_graph, counters


def main():
    print(f"{'n':>4} {'exact':>14} {'recurrence':>12} {'asymptotic':>12} "
          f"{'monte carlo':>12}")
    print("-" * 58)
    rng = Random(0)
    for n in (1, 2, 3, 5, 8, 12, 16, 20):
        exact = counters.expected_increments(n)
        rec = counters.expected_increments_recurrence(n)
        assert exact == rec
        asym = counters.expected_increments_asymptotic(n)
        trials = 3000
        mc = sum(counters.rand_count(range(1, n + 1), rng) for _ in range(trials)) / trials
        print(f"{n:>4} {str(exact):>14} {float(rec):>12.4f} {asym:>12.4f} {mc:>12.4f}")

    print()
    print("The asymptotic form closes in slowly; relative error of the logs:")
    import math

    for n in (25, 100, 400):
        rel = abs(
            counters.log_expected_increments(n)
            - math.log(counters.expected_increments_asymptotic(n))
        ) / counters.log_expected_increments(n)
        print(f"  n={n:>4}: {rel:.5f}")

    print()
    print("One-permutation variant averaged over ALL orderings equals the")
    print("fresh-randomness expectation exactly:")
    for n in (3, 5, 7):
        mean = counters.one_perm_mean_over_permutations(n)
        print(f"  n={n}: mean over {n}! orders = {mean} "
              f"(exact {counters.expected_increments(n)})")

    print()
    print("Exact E[RF pivots] of the recursive facet rule from the zero start")
    print("of counter graph (n, r, s, t), by exhaustive enumeration:")
    for params in ((1, 1, 1, 1), (2, 1, 1, 1), (2, 1, 2, 1), (3, 1, 1, 1)):
        g, idx = counter_graph.build_counter_graph(*params)
        clock = time.perf_counter()
        exact = checks.expected_pivots_recursive(g, counter_graph.initial_tree(idx))
        wall = time.perf_counter() - clock
        print(f"  {str(params):>12} m={g.n_edges:>2}: {str(exact):>15} "
              f"= {float(exact):8.4f}  ({wall:.2f} s)")


if __name__ == "__main__":
    main()
