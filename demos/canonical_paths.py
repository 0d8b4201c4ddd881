#!/usr/bin/env python3
"""Following the counting schedule through the recursion tree.

The fresh-randomness facet rule defines a random binary computation tree;
for a chosen set of bit levels there is at most one root path on which the
picked edges realize the counter's schedule for those levels. This demo
follows that path over many runs and tallies how it ends: the schedule
completes ("canonical") or one of three failure events cuts it short.
"""

from itertools import repeat
from random import Random

from pivotlab import counter_graph as cg
from pivotlab.comptrees import estimate_canonical_probability, follow_canonical


def main():
    # chain lengths sized so the single-level schedule usually survives
    n, r, t = 2, 3, 4
    s = 2 * 1 * (r + 1) + t
    g, idx = cg.build_counter_graph(n, r, s, t)
    print(f"counter graph n={n} r={r} s={s} t={t}: "
          f"{g.n_vertices} vertices, {g.n_edges} edges")

    rng = Random(1)
    est = estimate_canonical_probability(g, idx, [2], repeat(rng, 120))
    print(f"schedule [2]: outcomes over {est.trials} runs: {est.counts}")
    print(f"  canonical frequency {est.canonical_freq:.3f} "
          f"(wilson [{est.wilson_low:.3f}, {est.wilson_high:.3f}])")
    print(f"  failure rates given no misordering: "
          f"chain-race {est.bad2_given_good1:.3f}, "
          f"multi-edge exhaustion {est.bad3_given_good1:.3f}")
    print()

    # with single-copy multi-edges the failure events dominate
    g2, idx2 = cg.build_counter_graph(2, 1, 1, 1)
    rng = Random(5)
    est = estimate_canonical_probability(g2, idx2, [2, 1], repeat(rng, 400))
    print(f"fragile instance (r=s=t=1), schedule [2,1]: {est.counts}")
    print()

    out = None
    rng = Random(5)
    while out is None or out.kind != "canonical":
        out = follow_canonical(g, idx, [2], rng)
    rights = [(pos, e) for pos, (e, d) in enumerate(out.path) if d == "R"]
    print(f"one canonical path: {len(out.path)} picks, "
          f"{len(rights)} of them switches:")
    for pos, e in rights:
        print(f"  pick {pos:>4}: switch on {g.edge_names[e]}")


if __name__ == "__main__":
    main()
