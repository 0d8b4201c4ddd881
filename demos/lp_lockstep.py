#!/usr/bin/env python3
"""The graph engine and the flow LP are the same simplex method.

Encodes a random acyclic shortest-path instance as a standard-form LP,
runs the facet-removal rule on both sides with the same seed, and shows
the pivots landing in lockstep: column j of the LP is edge j of the graph,
the dual vector is the tree-distance vector, and each reduced cost is
cost(e) + y(head) - y(tail).
"""

from random import Random

from pivotlab import lp, rules
from pivotlab.graphs import apply_switch, random_dag, random_policy, tree_distances_list


def main():
    rng = Random(3)
    g = random_dag(rng, 5, extra_edges=6, max_cost=9)
    start = random_policy(g, rng)
    print(f"instance: {g.n_vertices} vertices, {g.n_edges} edges, "
          f"target {g.vertex_names[g.target]}")

    seed = 12345
    graph_run = rules.random_facet(g, start, Random(seed))
    prob, row_of, _ = lp.sp_to_lp(g)
    basis, log = lp.random_facet_lp(
        prob, range(g.n_edges), lp.tree_basis(g, start), Random(seed)
    )
    print(f"graph pivots:  {graph_run.pivot_log}")
    print(f"lp pivots:     {log}")
    print(f"identical:     {graph_run.pivot_log == log}")
    print()

    pol = start
    cur = list(lp.tree_basis(g, start))
    print(f"{'step':>4} {'entering':>9} {'leaving':>8} {'dual == tree distances':>24}")
    for step, (entering, leaving) in enumerate(log, start=1):
        pol = apply_switch(g, pol, entering)
        cur[cur.index(leaving)] = entering
        _, y = lp.reduced_costs(prob, cur)
        dist = tree_distances_list(g, pol.chosen)
        same = all(
            y[row_of[v]] == dist[v]
            for v in range(g.n_vertices) if v != g.target
        )
        print(f"{step:>4} {g.edge_names[entering]:>9} {g.edge_names[leaving]:>8} "
              f"{str(same):>24}")

    cbar, _ = lp.reduced_costs(prob, cur)
    print(f"\nfinal basis {tuple(sorted(cur))}; all reduced costs >= 0: "
          f"{all(c >= 0 for c in cbar)}")


if __name__ == "__main__":
    main()
