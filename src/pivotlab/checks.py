"""Named verification checks binding the library's testable claims.

Each check returns a JSON-ready report dict: {"check", "params", "passed",
"details"}. Defaults match the acceptance scale; tests may pass smaller
parameters. The registry backs the `verify` CLI subcommand.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from random import Random

from . import comptrees, counter_graph, counters, lp, rules
from .graphs import (
    Digraph,
    Policy,
    PolicyCycleError,
    _tree_walk,
    apply_switch,
    improving_switches,
    optimal_edge_set,
    random_dag,
    random_policy,
    tree_distances_list,
)


class UnknownCheckError(Exception):
    """No check registered under the requested id."""


# ---------------------------------------------------------------------------
# counters


def check_recurrence(n_max: int = 200) -> dict:
    """Closed form equals the recurrence, exactly, for all n up to n_max."""
    bad = [
        n for n in range(n_max + 1)
        if counters.expected_increments(n) != counters.expected_increments_recurrence(n)
    ]
    return _report("recurrence", {"n_max": n_max}, not bad, {"mismatches": bad})


def check_counters_equality(n_max: int = 8) -> dict:
    """Mean of the one-permutation count over all n! orders equals the
    fresh-randomness expectation, exactly."""
    details = {}
    ok = True
    for n in range(n_max + 1):
        mean = counters.one_perm_mean_over_permutations(n)
        exact = counters.expected_increments(n)
        details[n] = str(mean)
        if mean != exact:
            ok = False
    return _report("counters-equality", {"n_max": n_max}, ok, details)


# ---------------------------------------------------------------------------
# counter-graph structure


def _varied_functional_subset(idx, rng) -> frozenset[int]:
    """Functional subsets spanning all four optimal-edge cases: random
    drops, plus forced b-chain gaps and disabled a levels."""
    drop = (0.05, 0.2, 0.4, 0.6)[rng.randrange(4)]
    sub = set(counter_graph.random_functional_subset(idx, rng, drop))
    if rng.random() < 0.5:
        i = rng.randrange(idx.n) + 1
        sub.discard(idx.b1(i)[rng.randrange(len(idx.b1(i)))])
    if rng.random() < 0.5:
        i = rng.randrange(idx.n) + 1
        sub.update(idx.b1(i))
        for j in range(1, idx.r + 1):
            chunk = idx.a1(i, j)
            sub.discard(chunk[rng.randrange(len(chunk))])
    return frozenset(sub)


def check_bf_optimal(
    n_range=(1, 2, 3, 4),
    r_range=(1, 2, 3),
    s_range=(1, 2, 3),
    t_range=(1, 2, 3),
    samples: int = 100,
    seed: int = 20240,
) -> dict:
    """The case-split optimal-edge family equals the subgraph's true optimal
    edge set for random functional subsets, exact set equality."""
    rng = Random(seed)
    mismatches = []
    combos = 0
    for n, r, s, t in itertools.product(n_range, r_range, s_range, t_range):
        g, idx = counter_graph.build_counter_graph(n, r, s, t)
        combos += 1
        for k in range(samples):
            sub = _varied_functional_subset(idx, rng)
            predicted = counter_graph.bf_edge_set(idx, sub)
            actual = optimal_edge_set(g, sub)
            if predicted != frozenset(actual):
                mismatches.append({"params": (n, r, s, t), "sample": k})
    return _report(
        "bf-optimal",
        {"combos": combos, "samples": samples, "seed": seed},
        not mismatches,
        {"mismatches": mismatches[:5], "total_mismatches": len(mismatches)},
    )


def _force_reset_at_most(idx, sub: set, i: int) -> None:
    # levels above i must not qualify as the reset level
    for i2 in range(i + 1, idx.n + 1):
        if counter_graph.level_resets(idx, i2, sub):
            sub.update(idx.a1(i2, 1))


def check_make_switch(samples: int = 500, seed: int = 20241) -> dict:
    """Re-adding the lowest missing chain edge is an improving switch for
    every tree inside the subgraph's optimal family (both chain kinds)."""
    rng = Random(seed)
    combos = [(1, 1, 2, 1), (2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 2, 3), (4, 2, 3, 2)]
    built = [counter_graph.build_counter_graph(*c) for c in combos]
    violations = []
    checked = 0
    for k in range(samples):
        g, idx = built[k % len(built)]
        part_b = k % 2 == 0
        i = rng.randrange(idx.n) + 1
        sub = set(counter_graph.random_functional_subset(idx, rng, drop=0.3))
        # drop one chain edge and keep the chain's suffix after it
        chain = idx.b1(i) if part_b else idx.a1(i, rng.randrange(idx.r) + 1)
        j = rng.randrange(len(chain))
        e = chain[j]
        sub.discard(e)
        sub.update(chain[j + 1:])
        if not part_b:
            sub.update(idx.b1(i))  # the second case needs the b chain intact
        _force_reset_at_most(idx, sub, i)
        assert counter_graph.reset_level(idx, sub) <= i
        checked += 1
        fam = counter_graph.bf_edge_set(idx, frozenset(sub))
        tree = counter_graph.random_tree_within(g, fam, rng)
        if e not in improving_switches(g, tree, sub | {e}):
            violations.append({"sample": k, "edge": g.edge_names[e]})
    return _report(
        "make-switch",
        {"samples": samples, "seed": seed},
        bool(checked == samples and not violations),
        {"checked": checked, "violations": violations[:5],
         "total_violations": len(violations)},
    )


# ---------------------------------------------------------------------------
# rule equivalences


def check_bland_equiv(
    dag_instances: int = 100,
    counter_sigmas: int = 20,
    seed: int = 20242,
) -> dict:
    """Recursive and scanning fixed-permutation runs produce element-wise
    identical pivot logs."""
    rng = Random(seed)
    instances = []
    for _ in range(dag_instances):
        g = random_dag(rng, rng.randrange(4, 12), extra_edges=rng.randrange(2, 12))
        start = random_policy(g, rng)
        instances.append((g, start, rules.random_permutation_fn(g.n_edges, rng)))
    g, idx = counter_graph.build_counter_graph(2, 2, 2, 2)
    start = counter_graph.initial_tree(idx)
    for _ in range(counter_sigmas):
        instances.append((g, start, rules.random_permutation_fn(g.n_edges, rng)))
    mismatches = sum(
        rules.bland_rec(g, start, sigma).pivot_log
        != rules.bland_nonrec(g, start, sigma).pivot_log
        for g, start, sigma in instances
    )
    return _report(
        "bland-equiv",
        {"dag_instances": dag_instances, "counter_sigmas": counter_sigmas, "seed": seed},
        mismatches == 0,
        {"compared": len(instances), "mismatches": mismatches},
    )


class _TreeTable:
    """The trees the exact enumerators meet on one graph, interned as int
    ids, with bitmasks.

    A tree tuple gets its id on first sight. Per id the table keeps
    `imp[tid]`, an int whose bit e is set exactly when edge e improves on
    the tree (`c_e + d[head] < d[tail]` on its exact distances, computed
    once), and `tree[tid]`, the bits of the tree's own edges. A tree edge
    never improves on its own tree. It also keeps the distances `dist[tid]`
    and `order[tid]`, the vertices in an order that puts each after the
    head of its tree edge, the target first.

    A start is priced from scratch by `intern`, through `graphs._tree_walk`,
    which checks it. A switched tree is priced from its parent by `switch`:
    swapping edge e in at u = tail(e) moves u's subtree, the vertices after
    u in the parent's order whose tree edge points into it, by the switch's
    delta `c_e + d[head(e)] - d[u]`, and no other distance. The moved
    vertices go to the end of the order, after head(e); a head inside the
    subtree would close a cycle, and raises PolicyCycleError as `_tree_walk`
    would, before anything is written.

    `switch` is cached per (id, edge) in `switches`, under the key
    `tid * m + e`. Every entry is a (tree id, leaving edge) pair, so a hit
    is always truthy, and the enumerators read the cache at the call site
    as `switches.get(key) or switch(tid, e)`: a hit costs one dict read.
    `reach[tid]` and `cut[tid]` are the recursive enumerator's masks (see
    `expected_pivots_recursive`), None until it first meets the tree.

    All of it depends on the graph and the tree only, not on the start or
    on the enumerator, so a graph keeps one table (`_tree_table(g)`), and
    the second enumerator run on a graph, or a second start, prices no tree
    twice. The table holds the graph's edge tuples, not the graph, so no
    cycle joins the two and reference counting frees the table with its
    graph. The per-call state, each enumerator's memo and its `go` (and the
    recursive one's `reach_of`), is not kept: `go` calls itself through its
    closure cell, a cycle that holds the memo and every entry, and each
    enumerator deletes it in a `finally`, so reference counting frees the
    memo when the call returns or raises.
    """

    def __init__(self, g: Digraph):
        self.m = g.n_edges
        self.heads, self.tails, self.costs = g.heads, g.tails, g.costs
        self.ids: dict[tuple, int] = {}
        self.trees: list[tuple] = []
        self.imp: list[int] = []
        self.tree: list[int] = []
        self.dist: list[list[int]] = []
        self.order: list[list[int]] = []
        self.switches: dict[int, tuple[int, int]] = {}
        self.reach: list[int | None] = []
        self.cut: list[int | None] = []

    def intern(self, g: Digraph, chosen: tuple) -> int:
        """The id of a tree of g, the table's graph, priced from scratch."""
        tid = self.ids.get(chosen)
        if tid is None:
            d, children = _tree_walk(g, chosen)
            order = [g.target]
            for v in order:  # the walk appends to the list it iterates over
                order += children[v]
            mask = sum(1 << e for e in chosen if e is not None)
            tid = self._add(chosen, mask, d, order)
        return tid

    def _add(self, chosen: tuple, mask: int, d: list[int], order: list[int]) -> int:
        heads, tails, costs = self.heads, self.tails, self.costs
        imp = 0
        for e in range(self.m):
            if costs[e] + d[heads[e]] < d[tails[e]]:
                imp |= 1 << e
        tid = self.ids[chosen] = len(self.trees)
        self.trees.append(chosen)
        self.imp.append(imp)
        self.tree.append(mask)
        self.dist.append(d)
        self.order.append(order)
        self.reach.append(None)
        self.cut.append(None)
        return tid

    def switch(self, tid: int, e: int) -> tuple[int, int]:
        """The id of tree `tid` with edge e swapped in, and the edge that
        leaves it."""
        key = tid * self.m + e
        hit = self.switches.get(key)
        if hit is None:
            heads = self.heads
            chosen = self.trees[tid]
            u = self.tails[e]
            leaving = chosen[u]
            switched = chosen[:u] + (e,) + chosen[u + 1:]
            sid = self.ids.get(switched)
            if sid is None:
                d = self.dist[tid]
                delta = self.costs[e] + d[heads[e]] - d[u]
                d = d[:]
                d[u] += delta
                order = self.order[tid]
                at = order.index(u)
                kept, moved, inside = order[:at], [u], {u}
                for v in order[at + 1:]:
                    if heads[chosen[v]] in inside:
                        inside.add(v)
                        moved.append(v)
                        d[v] += delta
                    else:
                        kept.append(v)
                if heads[e] in inside:
                    raise PolicyCycleError(
                        f"chosen edges cycle through vertex {u}")
                mask = self.tree[tid] ^ (1 << leaving) ^ (1 << e)
                sid = self._add(switched, mask, d, kept + moved)
            hit = self.switches[key] = (sid, leaving)
        return hit


def _tree_table(g: Digraph) -> _TreeTable:
    """The graph's one `_TreeTable`, built by the first enumerator that runs
    on it."""
    table = g._tree_table
    if table is None:
        table = g._tree_table = _TreeTable(g)
    return table


def expected_pivots_recursive(g: Digraph, start: Policy) -> Fraction:
    """Exact expected pivot count of the recursive facet rule by exhaustive
    enumeration of every random choice, with the full distribution over
    returned trees threaded through the recursion.

    Trees are int ids of the graph's `_TreeTable`, shared with
    `expected_pivots_nonrec` and with calls from other starts, and a facet
    is an int mask over the edges, so a memo key is (facet mask, tree id).
    The memo is the call's own. The facet's candidates are the set bits of
    `facet & ~tree`, taken in ascending order. A memo entry (den, exp,
    dist) holds the expectation exp / den and the probability
    dist[tree id] / den of each returned tree as integer numerators over
    one denominator. Terms are added over the lcm of their denominators:
    the running sums are rescaled in place before a term over a new
    denominator is added, and each entry is reduced by one gcd when it is
    stored; the only `Fraction` is the returned value.

    Most calls would return a cached value, so the caller reads the memo
    and the table's switch cache itself, as `memo.get(key) or go(key)`:
    every entry is a non-empty tuple, so a hit is always truthy and costs
    one dict read, and `go` runs on a miss only.

    A facet with no edge improving on its tree (`facet & imp == 0`) is a
    leaf: it returns its tree after 0 pivots with probability 1. This is
    exact, not an approximation. The rule pivots only on an improving edge,
    and every subfacet under the same tree has no improving edge either, so
    each of its recursive calls returns the same tree unchanged; walking the
    2^k subfacets of its k candidates would reach the same entry.

    Every call gets its facet cut to a canonical one, `f & (reach[t] |
    tree[t])`. The root and each right branch cut it; a left branch's
    `f - e` is a subset of a cut facet, so it is cut already. `reach[t]` is
    `imp[t]` OR-ed with `reach` of every tree one improving switch away
    from t, with switches taken over the whole graph, a superset of what
    any facet allows. Improving switches strictly lower the objective, so
    the trees form a DAG under them and the mask is well defined; it does
    not depend on the start, so the table keeps it, and `cut[t]`, once
    computed. Every tree a call meets is reachable from the start, so all
    the masks it reads are computed before the first call. Let N be the
    edges of f outside `reach[t] | tree[t]`. None of them improves on a
    tree reachable from t, and none is a tree edge of one, since every
    edge a switch brings in is in `reach[t]`. The cut is exact, by
    induction on (|f|, objective):
    - a pick e in N improves on no tree that `go(f - e, t)` returns, so the
      branch is the law of `go(f - e, t)`, which is `go(f - N, t)`;
    - a pick outside N is uniform over the rest, as in `go(f - N, t)`; its
      left branch `go(f - e, t)` is `go(f - N - e, t)`, and its right
      branch `go(f, t2)` at a reachable tree t2 of lower objective is
      `go(f - N, t2)`, because N misses `reach[t2] | tree[t2]`.
    So the mixture is the law of `go(f - N, t)`, and calls whose facets
    differ only in such edges share one memo entry.

    From the zero start of counter graph (n, 1, 1, 1) it gives 4, 3302/315
    and 3416341/178200 for n = 1, 2, 3, and 380449/23100 at (2, 1, 2, 1);
    (3, 1, 1, 1) takes 0.7-1.1 s, 0.1 s of it in cyclic-GC collections,
    and 78 MB peak RSS in a fresh process on a shared 2-core Xeon box with
    Python 3.11.7 (5.8 s and 331 MB without the cut, measured earlier).
    """
    table = _tree_table(g)
    m = g.n_edges
    imp, tree, switch, switches = table.imp, table.tree, table.switch, table.switches
    reach, cut = table.reach, table.cut
    memo: dict[tuple[int, int], tuple[int, int, dict]] = {}

    def reach_of(t: int) -> int:
        r = reach[t]
        if r is None:
            r = mask = imp[t]
            while mask:
                bit = mask & -mask
                mask ^= bit
                r |= reach_of(switch(t, bit.bit_length() - 1)[0])
            reach[t] = r
            cut[t] = r | tree[t]
        return r

    def go(key: tuple[int, int]) -> tuple[int, int, dict]:
        # called on a memo miss; f is cut for t (see the docstring)
        f, t = key
        if not f & imp[t]:
            hit = memo[key] = (1, 0, {t: 1})
            return hit
        cands = f & ~tree[t]
        n_cands = cands.bit_count()
        den, exp_total = 1, 0
        dist_total: dict[int, int] = {}
        while cands:
            bit = cands & -cands
            cands ^= bit
            e = bit.bit_length() - 1
            left = (f ^ bit, t)
            den_left, exp_left, dist_left = memo.get(left) or go(left)
            # rescale the running sums to a multiple of each denominator
            # before a term over it is added
            if den % den_left:
                s = den_left // gcd(den, den_left)
                den *= s
                exp_total *= s
                for ret in dist_total:
                    dist_total[ret] *= s
            k = den // den_left  # kept equal as den grows below
            exp_total += exp_left * k
            for ret, p in dist_left.items():
                if imp[ret] & bit:
                    switched = (switches.get(ret * m + e) or switch(ret, e))[0]
                    right = (f & cut[switched], switched)
                    den_right, exp_right, dist_right = memo.get(right) or go(right)
                    d = den_left * den_right
                    if den % d:
                        s = d // gcd(den, d)
                        den *= s
                        exp_total *= s
                        k *= s
                        for ret2 in dist_total:
                            dist_total[ret2] *= s
                    # p / den_left * (1 + exp_right / den_right)
                    q = p * (den // d)
                    exp_total += q * (den_right + exp_right)
                    for ret2, p2 in dist_right.items():
                        dist_total[ret2] = dist_total.get(ret2, 0) + q * p2
                else:
                    dist_total[ret] = dist_total.get(ret, 0) + p * k
        den *= n_cands
        common = gcd(den, exp_total, *dist_total.values())
        hit = memo[key] = (
            den // common,
            exp_total // common,
            {ret: p // common for ret, p in dist_total.items()},
        )
        return hit

    try:
        t0 = table.intern(g, start.chosen)
        reach_of(t0)  # meets every tree that a call can meet
        den, exp, _ = go((cut[t0], t0))
    finally:
        del go, reach_of  # see the docstring of `_TreeTable`
    return Fraction(exp, den)


def expected_pivots_nonrec(g: Digraph, start: Policy) -> Fraction:
    """Exact expected pivot count of the permutation-maintaining facet rule.

    States carry the scan structure: an ordered run of uniformly shuffled
    blocks. A pivot merges everything scanned before the entering edge
    (plus the leaving edge) into one reshuffled block and leaves the
    unscanned order alone, which is exactly the prefix-reshuffle the rule
    performs. Trees are int ids of the graph's `_TreeTable`, shared with
    `expected_pivots_recursive` and with calls from other starts, and each
    block is an int mask over the edges, so a memo key is (blocks, tree
    id), in the call's own memo; the blocks before the pivot's block, the
    scanned non-improving edges and the leaving edge are joined by OR. A
    memo entry is the expectation as an integer pair (num, den), summed
    over the lcm of the children's denominators and reduced by one gcd,
    with factorials read from a table; the only `Fraction` is the returned
    value. As in `expected_pivots_recursive`, the caller reads the memo
    and the switch cache itself, as `memo.get(key) or go(key)`; an entry,
    (0, 1) too, is a non-empty tuple, so a hit is always truthy.

    A pivot to an optimal tree is a leaf, added in closed form. The edges
    of a state are always exactly the non-tree edges of its tree, so every
    child of entering edge e holds the non-tree edges of the switched tree,
    whatever was scanned before e. When that tree is optimal, none of them
    improves and each child is worth 0 further pivots; their weights sum to
    the chance that e comes first among the block's improving edges, and
    the 2^k children over the block's k non-improving edges are never
    built. This is exact, not an approximation.
    """
    table = _tree_table(g)
    m = g.n_edges
    imp, switch, switches = table.imp, table.switch, table.switches
    fact = [1]
    for k in range(1, m + 1):
        fact.append(fact[-1] * k)
    memo: dict[tuple, tuple[int, int]] = {}

    def go(key: tuple) -> tuple[int, int]:
        # called on a memo miss
        blocks, t = key
        t_imp = imp[t]
        earlier = 0
        for bi, blk in enumerate(blocks):
            imp_blk = blk & t_imp
            if not imp_blk:
                earlier |= blk
                continue
            non = blk ^ imp_blk
            b_len = blk.bit_count()
            n_imp = imp_blk.bit_count()
            later = blocks[bi + 1:]
            # total = sum of a! (b_len - a - 1)! / b_len! * (1 + child) over
            # every entering e and every set of a non-improving edges
            # scanned before it; kept as num / den until the last step
            num, den = 0, 1
            while imp_blk:
                bit = imp_blk & -imp_blk
                imp_blk ^= bit
                e = bit.bit_length() - 1
                switched, leaving = switches.get(t * m + e) or switch(t, e)
                if not imp[switched]:
                    # every child is (0, 1); the weights sum to
                    # sum_a C(|non|, a) a! (b_len - a - 1)! = b_len! / |imp|
                    num += den * (fact[b_len] // n_imp)
                    continue
                scanned = earlier | 1 << leaving
                unscanned = blk ^ bit
                a_set = non
                while True:  # every subset of `non`, `non` itself first
                    a_sz = a_set.bit_count()
                    weight = fact[a_sz] * fact[b_len - a_sz - 1]
                    rest = unscanned ^ a_set
                    new_blocks = (scanned | a_set,)
                    if rest:
                        new_blocks += (rest,)
                    child = (new_blocks + later, switched)
                    c_num, c_den = memo.get(child) or go(child)
                    if den % c_den:
                        k = c_den // gcd(den, c_den)
                        den *= k
                        num *= k
                    num += weight * (c_den + c_num) * (den // c_den)
                    if not a_set:
                        break
                    a_set = (a_set - 1) & non
            den *= fact[b_len]
            common = gcd(num, den)
            hit = memo[key] = (num // common, den // common)
            return hit
        hit = memo[key] = (0, 1)
        return hit

    try:
        t0 = table.intern(g, start.chosen)
        nontree = ((1 << m) - 1) & ~table.tree[t0]
        num, den = go(((nontree,), t0))
    finally:
        del go  # see the docstring of `_TreeTable`
    return Fraction(num, den)


def check_rf_equiv(seed: int = 20243, sizes=(3, 3, 3, 3, 3, 3, 3, 4, 4, 4,
                                             4, 4, 4, 5, 5, 5, 5, 6, 6, 7)) -> dict:
    """Recursive and non-recursive facet rules have exactly equal expected
    pivot counts on random acyclic instances, by exhaustive enumeration."""
    rng = Random(seed)
    mismatches = []
    values = []
    for k, nontree in enumerate(sizes):
        v = rng.randrange(3, 6)
        # the backbone contributes one edge per vertex, so extra_edges is
        # exactly the non-tree edge count; small costs create ties and
        # with them genuinely random pivot sequences
        g = random_dag(rng, v, extra_edges=nontree, max_cost=6)
        chosen = [
            max(g.out_edges[u], key=lambda e: (g.costs[e], e))
            if u != g.target else None
            for u in range(g.n_vertices)
        ]
        start = Policy(chosen)
        rec = expected_pivots_recursive(g, start)
        non = expected_pivots_nonrec(g, start)
        values.append(str(rec))
        if rec != non:
            mismatches.append({"instance": k, "rec": str(rec), "nonrec": str(non)})
    return _report(
        "rf-equiv",
        {"seed": seed, "instances": len(sizes), "max_nontree": max(sizes)},
        not mismatches,
        {"mismatches": mismatches, "expected_values": values[:5]},
    )


def _lp_lockstep_problem(g: Digraph, start: Policy, run_seed: int) -> str | None:
    """Seeded facet runs on the graph engine and on the flow LP pivot in
    lockstep: the first disagreement, "pivot-log", "dual" (duals unequal to
    the tree distances) or "reduced-cost" (the reduced-cost formula fails)
    after some pivot, or None when there is none."""
    graph_run = rules.random_facet(g, start, Random(run_seed))
    the_lp, row_of, _ = lp.sp_to_lp(g)
    _, log = lp.random_facet_lp(
        the_lp, range(g.n_edges), lp.tree_basis(g, start), Random(run_seed)
    )
    if log != graph_run.pivot_log:
        return "pivot-log"
    # replay and verify duals plus reduced costs after every pivot
    pol = start
    cur = list(lp.tree_basis(g, start))
    for entering, _leaving in [(None, None)] + log:
        if entering is not None:
            cur[cur.index(pol.chosen[g.tails[entering]])] = entering
            pol = apply_switch(g, pol, entering)
        cbar, y = lp.reduced_costs(the_lp, cur)
        duals = [0 if v == g.target else y[row_of[v]] for v in range(g.n_vertices)]
        if duals != tree_distances_list(g, pol.chosen):
            return "dual"
        if any(r != c + duals[h] - duals[t]
               for r, c, h, t in zip(cbar, g.costs, g.heads, g.tails)):
            return "reduced-cost"
    return None


def check_lp_correspondence(instances: int = 20, seed: int = 20244) -> dict:
    """`_lp_lockstep_problem` on seeded random DAGs, each from a random
    start: duals equal to tree distances and the reduced-cost formula
    holding at every step."""
    rng = Random(seed)
    problems = []
    for k in range(instances):
        run_seed = rng.randrange(2**32)
        g = random_dag(rng, rng.randrange(3, 9), extra_edges=rng.randrange(2, 10))
        kind = _lp_lockstep_problem(g, random_policy(g, rng), run_seed)
        if kind:
            problems.append({"instance": k, "kind": kind})
    return _report(
        "lp-correspondence",
        {"instances": instances, "seed": seed},
        not problems,
        {"problems": problems},
    )


# ---------------------------------------------------------------------------
# lower-bound inequalities


def _counter_bound(idx, sigma) -> int:
    sigma_hat = rules.induced_permutation(idx, sigma)
    return counters.rand_count_one_perm(range(1, idx.n + 1), sigma_hat)


def check_technical_star(
    ns=(3, 4, 5, 6),
    rst=(2, 3),
    samples: int = 200,
    seed: int = 20245,
) -> dict:
    """One-permutation facet runs from the zero start perform at least the
    one-permutation counter's increments, per well-behaved permutation."""
    return _lower_bound_check(
        "technical-star", ns, rst, samples, seed, rules.random_facet_one_perm
    )


def check_technical_bland(
    ns=(3, 4, 5, 6),
    rst=(2, 3),
    samples: int = 200,
    seed: int = 20246,
) -> dict:
    """Fixed-permutation scanning runs obey the same counter lower bound."""
    return _lower_bound_check(
        "technical-bland", ns, rst, samples, seed, rules.bland_nonrec
    )


def _lower_bound_check(name, ns, rst, samples, seed, rule) -> dict:
    rng = Random(seed)
    violations = []
    checked = 0
    for n in ns:
        for v in rst:
            g, idx = counter_graph.build_counter_graph(n, v, v, v)
            start = counter_graph.initial_tree(idx)
            for k in range(samples):
                sigma = rules.sample_well_behaved(idx, rng)
                bound = _counter_bound(idx, sigma)
                run = rule(g, start, sigma)
                checked += 1
                if run.pivots < bound:
                    violations.append(
                        {"n": n, "rst": v, "sample": k,
                         "pivots": run.pivots, "bound": bound}
                    )
    return _report(
        name,
        {"ns": list(ns), "rst": list(rst), "samples": samples, "seed": seed},
        not violations,
        {"checked": checked, "violations": violations[:5],
         "total_violations": len(violations)},
    )


def well_behaved_frequency(
    n: int, r: int, s: int, t: int, trials: int, seed: int
) -> float:
    """Empirical frequency of well-behaved uniform permutations.

    `rules.is_well_behaved` compares only order statistics of disjoint edge
    groups, so a trial draws those from iid uniform keys by inverse CDFs:
    Y, the smallest multi-edge group maximum, and per level A, the largest
    a-chain minimum, and B, the b-chain minimum. It is well-behaved when
    every B < A < Y.
    """
    inv_m, inv_t = 1 / counter_graph.multi_edge_count(n, r, s), 1 / t
    inv_r, inv_s, inv_rs = 1 / r, 1 / s, 1 / (r * s)
    rng = Random(seed)
    good = 0
    for _ in range(trials):
        y = (1 - rng.random() ** inv_m) ** inv_t
        for _ in range(n):
            a = 1 - (1 - rng.random() ** inv_r) ** inv_s
            if not 1 - rng.random() ** inv_rs < a < y:
                break
        else:
            good += 1
    return good / trials


def check_well_behaved_prob(
    n: int = 8, rst: int = 9, trials: int = 10000, seed: int = 20247
) -> dict:
    """Empirical well-behaved frequency at the prescribed chain lengths is
    at least one half, up to three standard errors."""
    freq = well_behaved_frequency(n, rst, rst, rst, trials, seed)
    stderr = (freq * (1 - freq) / trials) ** 0.5
    passed = freq >= 0.5 - 3 * stderr
    return _report(
        "well-behaved-prob",
        {"n": n, "rst": rst, "trials": trials, "seed": seed},
        passed,
        {"frequency": freq, "stderr": stderr, "threshold": 0.5 - 3 * stderr},
    )


def check_switch_identity(
    counter_runs: int = 30, dag_runs: int = 20, seed: int = 20248
) -> dict:
    """Every traced run's computation tree, `comptrees.record_tree` of its
    frames, checks out against the graph: `ComputationTree.validate` re-runs
    the eager recursion from the start, so each right child (one per pivot)
    is an improving switch with the run's leaving edge, and every other
    test of the unwind is not improving."""
    rng = Random(seed)
    g, idx = counter_graph.build_counter_graph(2, 2, 2, 2)
    start = counter_graph.initial_tree(idx)
    runs = [(g, start, rng.randrange(2**32)) for _ in range(counter_runs)]
    for _ in range(dag_runs):
        gd = random_dag(rng, rng.randrange(3, 9), extra_edges=rng.randrange(2, 10))
        sd = random_policy(gd, rng)
        runs.append((gd, sd, rng.randrange(2**32)))
    failures = 0
    for gr, sr, run_seed in runs:
        run = rules.random_facet(gr, sr, Random(run_seed), trace=True)
        try:
            comptrees.record_tree(run).validate(gr, sr)
        except (AssertionError, ValueError):
            failures += 1
    return _report(
        "switch-identity",
        {"counter_runs": counter_runs, "dag_runs": dag_runs, "seed": seed},
        failures == 0,
        {"runs": len(runs), "failures": failures},
    )


# ---------------------------------------------------------------------------


def _report(check: str, params: dict, passed: bool, details: dict) -> dict:
    return {"check": check, "params": params, "passed": bool(passed),
            "details": details}


CHECKS = {
    "recurrence": check_recurrence,
    "counters-equality": check_counters_equality,
    "bf-optimal": check_bf_optimal,
    "make-switch": check_make_switch,
    "bland-equiv": check_bland_equiv,
    "rf-equiv": check_rf_equiv,
    "lp-correspondence": check_lp_correspondence,
    "technical-star": check_technical_star,
    "technical-bland": check_technical_bland,
    "well-behaved-prob": check_well_behaved_prob,
    "switch-identity": check_switch_identity,
}


def run_check(check_id: str, **params) -> dict:
    if check_id not in CHECKS:
        raise UnknownCheckError(
            f"unknown check {check_id!r}; known: {', '.join(sorted(CHECKS))}"
        )
    return CHECKS[check_id](**params)
