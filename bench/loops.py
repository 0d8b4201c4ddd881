"""The four benchmark workloads and the output check of every operation.

Each workload is a closed loop: one caller runs operation ``i`` after
operation ``i - 1`` has returned. ``op(i, tr)`` derives the operation's
inputs from the workload seed and ``i``, makes the timed calls into pivotlab
through the tracer ``tr``, then checks the outputs outside the timed part.
Operations follow a fixed cycle of kinds, and the loop stops only at a cycle
boundary, so every run measures the same mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from time import perf_counter_ns

from pivotlab import (
    checks,
    comptrees,
    counter_graph,
    counters,
    experiments,
    graphs,
    lp,
    rules,
)


@dataclass
class Op:
    """One operation: its timed part and what the output check saw."""

    kind: str       # rule or instance kind; pivot totals are kept per kind
    ns: int         # duration of the timed calls
    pivots: int     # pivots the operation performed (graph engine)
    ok: bool        # every output check passed
    out: tuple      # exact outputs, hashed into the run's digest
    # (graph, start policy, pivot log) for the per-pivot replay, or None
    replay: tuple | None = None
    lp_pivots: int = 0
    ref_ns: float = 0.0  # ns scaled to reference time by the loop
    path_len: int = 0
    canonical: bool = False


def _op_rng(workload: str, seed: int, i: int) -> Random:
    # string seeds are hashed with SHA-512, so streams do not depend on the
    # interpreter's hash randomisation
    return Random(f"{workload}/{seed}/{i}")


def _counter_instance(params):
    g, idx = counter_graph.build_counter_graph(*params)
    start = counter_graph.initial_tree(idx)
    return g, idx, start, graphs.optimal_distances_list(g)


def _is_optimal(g, policy, opt) -> bool:
    return graphs.tree_distances_list(g, policy.chosen) == opt


# ---------------------------------------------------------------------------
# counter-trials


class CounterTrials:
    """`experiments.run_trials`, one trial per call, from the zero start."""

    name = "counter-trials"
    RULES = ("random-facet", "random-facet-1p", "random-bland")
    CONFIGS = ((6, 3, 3, 3), (8, 2, 2, 2))
    cycle = len(RULES) * len(CONFIGS)
    digest_ops = 2 * cycle

    def __init__(self, seed: int):
        self.seed = seed
        self.inst = {p: _counter_instance(p) for p in self.CONFIGS}

    def op(self, i: int, tr) -> Op:
        params = self.CONFIGS[(i // len(self.RULES)) % len(self.CONFIGS)]
        rule = self.RULES[i % len(self.RULES)]
        g, _idx, start, opt = self.inst[params]
        master = _op_rng(self.name, self.seed, i).getrandbits(63)
        t0 = perf_counter_ns()
        recs = tr.call(
            "experiments.run_trials", experiments.run_trials,
            g, start, rule, 1, master,
        )
        ns = perf_counter_ns() - t0
        rec = recs[0]
        tr.inner("rules.run_rule", rec.wall_ns)
        # run_trials reports counts only; the same trial seed through
        # run_rule yields the pivot log and the final tree to check
        res = experiments.run_rule(rule, g, start, rec.seed)
        ok = (
            len(recs) == 1
            and rec.rule == rule
            and rec.pivots == res.pivots == len(res.pivot_log)
            and _is_optimal(g, res.final_policy, opt)
        )
        return Op(rule, ns, rec.pivots, ok,
                  (params, rule, rec.seed, res.pivot_log),
                  (g, start, res.pivot_log))


# ---------------------------------------------------------------------------
# lower-bound


def lower_bound_step(tr, g, idx, start, rng, star: bool):
    """One step of acceptance criterion 9: sample a well-behaved permutation,
    compute the counter bound, run the rule. Returns (run, bound)."""
    sigma = tr.call("rules.sample_well_behaved", rules.sample_well_behaved, idx, rng)
    hat = tr.call("rules.induced_permutation", rules.induced_permutation, idx, sigma)
    bound = tr.call(
        "counters.rand_count_one_perm", counters.rand_count_one_perm,
        range(1, idx.n + 1), hat,
    )
    if star:
        run = tr.call("rules.random_facet_one_perm", rules.random_facet_one_perm,
                      g, start, sigma)
    else:
        run = tr.call("rules.bland_nonrec", rules.bland_nonrec, g, start, sigma)
    return run, bound


class LowerBound:
    """Criterion 9's grid, one verified run per op, star and Bland alternating."""

    name = "lower-bound"
    NS = (3, 4, 5, 6)
    RST = (2, 3)
    cycle = 2 * len(NS) * len(RST)
    digest_ops = 2 * cycle

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = [(n, v) for n in self.NS for v in self.RST]
        self.inst = {nv: _counter_instance((nv[0], nv[1], nv[1], nv[1]))
                     for nv in self.grid}

    def op(self, i: int, tr) -> Op:
        nv = self.grid[(i // 2) % len(self.grid)]
        star = i % 2 == 0
        g, idx, start, opt = self.inst[nv]
        rng = _op_rng(self.name, self.seed, i)
        t0 = perf_counter_ns()
        run, bound = lower_bound_step(tr, g, idx, start, rng, star)
        ns = perf_counter_ns() - t0
        ok = run.pivots >= bound and _is_optimal(g, run.final_policy, opt)
        return Op(run.rule, ns, run.pivots, ok,
                  (nv, run.rule, bound, run.pivot_log),
                  (g, start, run.pivot_log))


# ---------------------------------------------------------------------------
# canonical-paths


class CanonicalPaths:
    """`comptrees.follow_canonical`, one followed path per op."""

    name = "canonical-paths"
    CONFIGS = (((6, 2, 2, 2), (4, 2)), ((4, 2, 2, 2), (3, 1)))
    cycle = len(CONFIGS)
    digest_ops = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.inst = [_counter_instance(p)[:3] for p, _s in self.CONFIGS]

    def op(self, i: int, tr) -> Op:
        k = i % len(self.CONFIGS)
        g, idx, start = self.inst[k]
        s_levels = list(self.CONFIGS[k][1])
        rng = _op_rng(self.name, self.seed, i)
        t0 = perf_counter_ns()
        out = tr.call("comptrees.follow_canonical", comptrees.follow_canonical,
                      g, idx, s_levels, rng, start)
        ns = perf_counter_ns() - t0
        # the post-hoc classifier reads the path straight from the
        # definitions, independently of the follower's bookkeeping
        kind, detail = comptrees.classify_path(idx, s_levels, out.path)
        ok = kind == out.kind and (
            kind == comptrees.MISSING_CHILD or detail == out.detail
        )
        return Op("follow", ns, out.pivots_done, ok,
                  (k, out.kind, out.detail, out.pivots_done, out.path),
                  path_len=len(out.path),
                  canonical=out.kind == comptrees.CANONICAL)


# ---------------------------------------------------------------------------
# exact-oracles


def lp_dag_instance(rng: Random):
    """A random DAG instance drawn as `checks.check_lp_correspondence` draws
    it: (graph, start policy, run seed)."""
    run_seed = rng.randrange(2**32)
    g = graphs.random_dag(rng, rng.randrange(3, 9), extra_edges=rng.randrange(2, 10))
    return g, graphs.random_policy(g, rng), run_seed


def lockstep(tr, g, start, run_seed, encoded=None):
    """Seeded facet runs on the graph engine and on the flow LP, then the dual
    and reduced-cost replay after every pivot, as criterion 12 checks them.

    Returns (problem or None, graph run, LP pivot log, final LP basis).
    `encoded` is a precomputed `lp.sp_to_lp(g)`.
    """
    graph_run = tr.call("rules.random_facet", rules.random_facet,
                        g, start, Random(run_seed), trace=True)
    the_lp, row_of, _ = encoded or tr.call("lp.sp_to_lp", lp.sp_to_lp, g)
    basis, log = tr.call(
        "lp.random_facet_lp", lp.random_facet_lp,
        the_lp, range(g.n_edges), lp.tree_basis(g, start), Random(run_seed),
    )
    if log != graph_run.pivot_log:
        return "pivot-log", graph_run, log, basis
    chosen = list(start.chosen)
    cur = list(lp.tree_basis(g, start))
    for entering, _leaving in [(None, None)] + log:
        if entering is not None:
            u = g.tails[entering]
            cur[cur.index(chosen[u])] = entering
            chosen[u] = entering
        cbar, y = tr.call("lp.reduced_costs", lp.reduced_costs, the_lp, cur)
        dist = tr.call("graphs.tree_distances_list", graphs.tree_distances_list,
                       g, chosen)
        for v in range(g.n_vertices):
            if v != g.target and y[row_of[v]] != dist[v]:
                return "dual", graph_run, log, basis
        for e in range(g.n_edges):
            yh = 0 if g.heads[e] == g.target else y[row_of[g.heads[e]]]
            if cbar[e] != g.costs[e] + yh - y[row_of[g.tails[e]]]:
                return "reduced-cost", graph_run, log, basis
    return None, graph_run, log, basis


def _varied_functional_subset(idx, rng) -> frozenset[int]:
    """Functional subsets that reach every case of the optimal-edge family:
    random drops, plus forced b-chain gaps and disabled a levels. This is the
    draw of the private `checks._varied_functional_subset`, rebuilt from
    public calls so that the benchmark depends on public functions only."""
    sub = set(counter_graph.random_functional_subset(
        idx, rng, (0.05, 0.2, 0.4, 0.6)[rng.randrange(4)]))
    if rng.random() < 0.5:
        b = idx.b1(rng.randrange(idx.n) + 1)
        sub.discard(b[rng.randrange(len(b))])
    if rng.random() < 0.5:
        i = rng.randrange(idx.n) + 1
        sub.update(idx.b1(i))
        for j in range(1, idx.r + 1):
            chunk = idx.a1(i, j)
            sub.discard(chunk[rng.randrange(len(chunk))])
    return frozenset(sub)


def rf_start(g) -> graphs.Policy:
    """The start `checks.check_rf_equiv` uses: the costliest out-edge."""
    return graphs.Policy(tuple(
        max(g.out_edges[u], key=lambda e: (g.costs[e], e)) if u != g.target else None
        for u in range(g.n_vertices)
    ))


class ExactOracles:
    """Small-instance exact verification: LP lockstep, then the oracles.

    One cycle holds one LP lockstep on counter graph (2,2,2,1), LP lockstep
    on random DAGs, `bf_edge_set` against `optimal_edge_set` on functional
    subsets, and the two exact expected-pivot enumerations on random DAGs,
    interleaved.
    """

    name = "exact-oracles"
    LP_COUNTER = (2, 2, 2, 1)
    # The (2,2,2,1) solve takes 1.4-3.2 s depending on its run seed, and only
    # a few fit in a run, so a seeded choice would swing ops/s by more than
    # the bound. Its run seed is pinned; everything else follows the seed.
    LP_COUNTER_RUN_SEED = 0
    BF_CONFIGS = ((2, 2, 2, 2), (3, 2, 2, 2), (4, 3, 3, 3))
    NONTREE = (4, 5, 6)
    # per cycle: 1 counter-graph lockstep, then 20 blocks of 34 ops. This
    # puts a little over half of the time in the LP and the rest in the
    # oracles. The cheap bf ops are a clear majority, which keeps the median
    # op inside one kind instead of on the edge between two.
    BLOCK = (("lp-dag",) + ("bf", "expect", "bf", "expect", "bf") * 3 + ("bf",)) * 2
    cycle = 1 + 20 * len(BLOCK)
    digest_ops = cycle

    def __init__(self, seed: int):
        self.seed = seed
        g, idx, start, opt = _counter_instance(self.LP_COUNTER)
        self.counter = (g, start, opt, lp.sp_to_lp(g))
        self.bf = [counter_graph.build_counter_graph(*p) for p in self.BF_CONFIGS]

    def op(self, i: int, tr) -> Op:
        k = i % self.cycle - 1
        block = k // len(self.BLOCK)
        kind = "lp-counter" if k < 0 else self.BLOCK[k % len(self.BLOCK)]
        rng = _op_rng(self.name, self.seed, i)
        if kind in ("lp-counter", "lp-dag"):
            if kind == "lp-counter":
                g, start, opt, encoded = self.counter
                run_seed = self.LP_COUNTER_RUN_SEED
            else:
                g, start, run_seed = lp_dag_instance(rng)
                opt, encoded = graphs.optimal_distances_list(g), None
            t0 = perf_counter_ns()
            problem, run, log, basis = lockstep(tr, g, start, run_seed, encoded)
            ns = perf_counter_ns() - t0
            ok = (
                problem is None
                and _is_optimal(g, run.final_policy, opt)
                and sorted(basis) == sorted(run.final_policy.edge_set())
            )
            return Op(kind, ns, run.pivots, ok, (kind, run_seed, log),
                      (g, start, run.pivot_log), lp_pivots=len(log))
        if kind == "bf":
            g, idx = self.bf[block % len(self.bf)]
            sub = _varied_functional_subset(idx, rng)
            t0 = perf_counter_ns()
            predicted = tr.call("counter_graph.bf_edge_set",
                                counter_graph.bf_edge_set, idx, sub)
            actual = tr.call("graphs.optimal_edge_set", graphs.optimal_edge_set, g, sub)
            ns = perf_counter_ns() - t0
            return Op(kind, ns, 0, predicted == frozenset(actual),
                      (kind, idx.n, idx.r, sorted(predicted)))
        nontree = self.NONTREE[block % len(self.NONTREE)]
        g = graphs.random_dag(rng, rng.randrange(3, 6), extra_edges=nontree, max_cost=6)
        start = rf_start(g)
        t0 = perf_counter_ns()
        rec = tr.call("checks.expected_pivots_recursive",
                      checks.expected_pivots_recursive, g, start)
        non = tr.call("checks.expected_pivots_nonrec",
                      checks.expected_pivots_nonrec, g, start)
        ns = perf_counter_ns() - t0
        return Op(kind, ns, 0, rec == non, (kind, nontree, str(rec)))


WORKLOADS = {w.name: w for w in (CounterTrials, LowerBound, CanonicalPaths, ExactOracles)}
