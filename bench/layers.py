"""Per-layer probes of the traced run that do not come from spans.

- Pinned microbenchmarks: fixed instances, independent of the workload seed,
  timed as the median of several batches of calls.
- The per-pivot replay: each recorded pivot log is re-applied through
  `graphs.apply_switch`, counting the vertices whose tree distance changed
  and the improving edges in front of every pivot. These counts do not
  depend on the machine.
- The two-process trial pool against the serial one.
"""

from __future__ import annotations

import statistics
from random import Random
from time import perf_counter_ns

import refclock
from loops import rf_start
from pivotlab import checks, counter_graph, counters, experiments, graphs, lp, rules


def _per_call_ns(fn, calls: int, batches: int = 7) -> float:
    """Median over batches of the per-call time, in reference ns."""
    samples = []
    ref = refclock.reference_ns()
    for _ in range(batches):
        t0 = perf_counter_ns()
        for _ in range(calls):
            fn()
        elapsed = perf_counter_ns() - t0
        after = refclock.reference_ns()
        samples.append(elapsed * refclock.scale(ref, after) / calls)
        ref = after
    return statistics.median(samples)


def _mid_run_tree(g, start):
    """The tree halfway through a pinned one-permutation run."""
    sigma = rules.random_permutation_fn(g.n_edges, Random(0))
    log = rules.random_facet_one_perm(g, start, sigma).pivot_log
    policy = start
    for entering, _leaving in log[: len(log) // 2]:
        policy = graphs.apply_switch(g, policy, entering)
    return policy


def microbenchmarks() -> dict[str, float]:
    """Pinned per-call timings, keyed by metric name."""
    out = {}
    g, idx = counter_graph.build_counter_graph(6, 3, 3, 3)
    zero = counter_graph.initial_tree(idx)
    trees = (zero, _mid_run_tree(g, zero))

    def both(fn):
        return lambda: [fn(t) for t in trees]

    out["graphs.tree_distances_list_us"] = _per_call_ns(
        both(lambda t: graphs.tree_distances_list(g, t.chosen)), 50) / 2e3
    out["graphs.improving_switches_us"] = _per_call_ns(
        both(lambda t: graphs.improving_switches(g, t)), 25) / 2e3
    out["counter_graph.build_counter_graph_ms"] = _per_call_ns(
        lambda: counter_graph.build_counter_graph(6, 3, 3, 3), 10) / 1e6

    rng = Random(0)
    out["rules.sample_well_behaved_us"] = _per_call_ns(
        lambda: rules.sample_well_behaved(idx, rng), 20) / 1e3
    hat = rules.induced_permutation(idx, rules.sample_well_behaved(idx, Random(1)))
    out["counters.rand_count_one_perm_us"] = _per_call_ns(
        lambda: counters.rand_count_one_perm(range(1, idx.n + 1), hat), 200) / 1e3

    g4, idx4 = counter_graph.build_counter_graph(4, 3, 3, 3)
    sub = counter_graph.random_functional_subset(idx4, Random(2), 0.2)
    out["graphs.optimal_edge_set_us"] = _per_call_ns(
        lambda: graphs.optimal_edge_set(g4, sub), 50) / 1e3
    out["counter_graph.bf_edge_set_us"] = _per_call_ns(
        lambda: counter_graph.bf_edge_set(idx4, sub), 50) / 1e3

    g2, idx2 = counter_graph.build_counter_graph(2, 2, 2, 1)
    the_lp, _, _ = lp.sp_to_lp(g2)
    basis = lp.tree_basis(g2, counter_graph.initial_tree(idx2))
    cbar, _ = lp.reduced_costs(the_lp, basis)
    entering = min(j for j in range(the_lp.n_cols) if cbar[j] < 0)
    out["lp.reduced_costs_ms"] = _per_call_ns(
        lambda: lp.reduced_costs(the_lp, basis), 5) / 1e6
    out["lp.pivot_lp_ms"] = _per_call_ns(
        lambda: lp.pivot_lp(the_lp, basis, entering), 3) / 1e6

    gd = graphs.random_dag(Random(7), 4, extra_edges=6, max_cost=6)
    start = rf_start(gd)
    out["checks.expected_pivots_recursive_ms"] = _per_call_ns(
        lambda: checks.expected_pivots_recursive(gd, start), 2) / 1e6
    return out


def replay_counts(replays) -> dict[str, float] | None:
    """Vertices whose distance changed, and improving edges available, per
    pivot, over the given (graph, start, pivot log) triples. Returns None if
    a logged pivot was not strictly improving or left the wrong edge."""
    changed: list[int] = []
    improving: list[int] = []
    for g, policy, log in replays:
        dist = graphs.tree_distances_list(g, policy.chosen)
        for entering, leaving in log:
            imp = graphs.improving_switches(g, policy)
            if entering not in imp or policy.chosen[g.tails[entering]] != leaving:
                return None
            improving.append(len(imp))
            policy = graphs.apply_switch(g, policy, entering)
            new = graphs.tree_distances_list(g, policy.chosen)
            changed.append(sum(1 for a, b in zip(dist, new) if a != b))
            dist = new
    if not changed:
        return {"graphs.dist_changed_per_pivot": 0.0,
                "graphs.dist_changed_per_pivot_max": 0,
                "rules.improving_per_pivot": 0.0}
    return {
        "graphs.dist_changed_per_pivot": sum(changed) / len(changed),
        "graphs.dist_changed_per_pivot_max": max(changed),
        "rules.improving_per_pivot": sum(improving) / len(improving),
    }


def pool2_speedup(trials: int = 24) -> tuple[float, bool]:
    """Serial wall over two-process wall for the same seeded trials, and
    whether both schedules returned the same pivot counts."""
    g, idx = counter_graph.build_counter_graph(6, 3, 3, 3)
    start = counter_graph.initial_tree(idx)
    walls = []
    counts = []
    for workers in (1, 2):
        t0 = perf_counter_ns()
        recs = experiments.run_trials(g, start, "random-facet-1p", trials, 1, workers)
        walls.append(perf_counter_ns() - t0)
        counts.append([r.pivots for r in recs])
    return walls[0] / walls[1], counts[0] == counts[1]
