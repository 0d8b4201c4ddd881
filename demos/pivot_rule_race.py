#!/usr/bin/env python3
"""How many switches does each pivoting rule need on the counter graphs?

Runs every rule from the all-zero-edge start on growing instances and
prints the mean pivot counts. The one-permutation and fixed-permutation
rules track the counter dynamics, so their counts climb fastest; the
counter expectation itself is printed for scale. It ends with one
well-behaved permutation at the paper's chain lengths.
"""

from random import Random

from pivotlab import counter_graph as cg, counters, experiments, rules

# the rule columns: header, `experiments.RULES` name, trial count and first
# trial seed; dantzig draws nothing, so one run is its mean, shown as a count
COLUMNS = (("rf", "random-facet", 60, 100), ("rf-1p", "random-facet-1p", 60, 200),
           ("r-bland", "random-bland", 60, 300), ("dantzig", "dantzig", 1, 0))


def mean_pivots(rule, g, b0, trials, seed0):
    run = experiments.RULES[rule]
    return sum(run(g, b0, Random(seed0 + k)).pivots for k in range(trials)) / trials


def main():
    print(f"{'n':>3} {'edges':>6} {'f(n)':>8}"
          + "".join(f" {head:>8}" for head, *_ in COLUMNS))
    print("-" * 56)
    for n in (2, 3, 4, 5, 6):
        g, idx = cg.build_counter_graph(n, 2, 2, 2)
        b0 = cg.initial_tree(idx)
        cells = "".join(
            f" {mean_pivots(rule, g, b0, trials, seed0):>8.{int(trials > 1)}f}"
            for _, rule, trials, seed0 in COLUMNS)
        fn = float(counters.expected_increments(n))
        print(f"{n:>3} {g.n_edges:>6} {fn:>8.2f}{cells}")

    print()
    print("Per well-behaved permutation the one-permutation run provably")
    print("performs at least the counter's increments:")
    g, idx = cg.build_counter_graph(4, 2, 2, 2)
    b0 = cg.initial_tree(idx)
    rng = Random(7)
    for k in range(5):
        sigma = rules.sample_well_behaved(idx, rng)
        hat = rules.induced_permutation(idx, sigma)
        bound = counters.rand_count_one_perm(range(1, 5), hat)
        run = rules.random_facet_one_perm(g, b0, sigma)
        print(f"  sample {k}: counter bound {bound:>3}, pivots {run.pivots:>4}")

    print()
    print("At the paper's scale (8,9,9,9), where a uniform permutation is")
    print("well behaved with probability at least 1/2, for one sample:")
    g, idx = cg.build_counter_graph(8, 9, 9, 9)
    b0 = cg.initial_tree(idx)
    sigma = rules.sample_well_behaved(idx, Random(8))
    hat = rules.induced_permutation(idx, sigma)
    bound = counters.rand_count_one_perm(range(1, 9), hat)
    run = rules.random_facet_one_perm(g, b0, sigma)
    rbl = rules.random_bland(g, b0, Random(8))
    print(f"  {g.n_edges} edges: counter bound {bound}, rf-1p pivots "
          f"{run.pivots}, r-bland pivots {rbl.pivots}")


if __name__ == "__main__":
    main()
