#!/usr/bin/env python3
"""How many switches does each pivoting rule need on the counter graphs?

Runs every rule from the all-zero-edge start on growing instances and
prints the mean pivot counts. The one-permutation and fixed-permutation
rules track the counter dynamics, so their counts climb fastest; the
counter expectation itself is printed for scale. It ends with one
well-behaved permutation at the paper's chain lengths.
"""

from random import Random

from pivotlab import counter_graph as cg, counters, rules


def mean_pivots(runner, trials, seed0):
    return sum(runner(Random(seed0 + k)).pivots for k in range(trials)) / trials


def main():
    trials = 60
    print(f"{'n':>3} {'edges':>6} {'f(n)':>8} {'rf':>8} {'rf-1p':>8} "
          f"{'r-bland':>8} {'dantzig':>8}")
    print("-" * 56)
    for n in (2, 3, 4, 5, 6):
        g, idx = cg.build_counter_graph(n, 2, 2, 2)
        b0 = cg.initial_tree(idx)
        rf = mean_pivots(lambda r: rules.random_facet(g, b0, r), trials, 100)
        rf1p = mean_pivots(
            lambda r: rules.random_facet_one_perm(
                g, b0, rules.random_permutation_fn(g.n_edges, r)
            ),
            trials, 200,
        )
        rbl = mean_pivots(lambda r: rules.random_bland(g, b0, r), trials, 300)
        dz = rules.dantzig(g, b0).pivots
        fn = float(counters.expected_increments(n))
        print(f"{n:>3} {g.n_edges:>6} {fn:>8.2f} {rf:>8.1f} {rf1p:>8.1f} "
              f"{rbl:>8.1f} {dz:>8}")

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
