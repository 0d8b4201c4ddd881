"""Pivoting rules: termination at the optimum, formulation equivalences,
permutation machinery, counter lower bounds."""

import gc
import hashlib
import heapq
import itertools
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import compress
from math import factorial, gcd
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_graphs import _random_cyclic, _with_twins

from pivotlab import checks, comptrees, counter_graph as cg, counters, experiments, lp, rules
from pivotlab.graphs import (
    Digraph,
    NegativeCycleError,
    NotAnEdgeError,
    Policy,
    PolicyCycleError,
    _tree_walk,
    apply_switch,
    improving_switches,
    optimal_distances_list,
    random_dag,
    random_policy,
    tree_distances_list,
)
from pivotlab.rules import (
    InvalidStartError,
    PivotInvariantError,
    bland_nonrec,
    bland_rec,
    dantzig,
    fixed_vertices,
    induced_permutation,
    is_fixed_edge,
    is_well_behaved,
    random_bland,
    random_facet,
    random_facet_nonrec,
    random_facet_one_perm,
    random_permutation_fn,
    sample_well_behaved,
    suffix_set,
)


def parallel_pair():
    return Digraph(2, 1, tails=[0, 0], heads=[1, 1], costs=[5, 2])


ALL_RULES = [
    ("random-facet", lambda g, b0, rng: random_facet(g, b0, rng)),
    ("random-facet-traced", lambda g, b0, rng: random_facet(g, b0, rng, trace=True)),
    ("random-facet-nonrec", lambda g, b0, rng: random_facet_nonrec(g, b0, rng)),
    (
        "random-facet-1p",
        lambda g, b0, rng: random_facet_one_perm(
            g, b0, random_permutation_fn(g.n_edges, rng)
        ),
    ),
    (
        "bland-rec",
        lambda g, b0, rng: bland_rec(g, b0, random_permutation_fn(g.n_edges, rng)),
    ),
    (
        "bland-nonrec",
        lambda g, b0, rng: bland_nonrec(g, b0, random_permutation_fn(g.n_edges, rng)),
    ),
    ("random-bland", lambda g, b0, rng: random_bland(g, b0, rng)),
    ("dantzig", lambda g, b0, rng: dantzig(g, b0)),
]


@pytest.mark.parametrize("name,runner", ALL_RULES)
def test_every_rule_reaches_the_optimum(name, runner):
    rng = Random(hash(name) & 0xFFFF)
    for _ in range(12):
        g = random_dag(rng, rng.randrange(2, 9), extra_edges=rng.randrange(0, 9))
        b0 = random_policy(g, rng)
        res = runner(g, b0, rng)
        dist = tree_distances_list(g, res.final_policy.chosen)
        assert dist == optimal_distances_list(g)
        assert not improving_switches(g, res.final_policy)
        assert res.pivots == len(res.pivot_log)


@pytest.mark.parametrize("name,runner", ALL_RULES)
def test_optimal_start_means_no_pivots(name, runner):
    g = parallel_pair()
    res = runner(g, Policy((1, None)), Random(0))
    assert res.pivots == 0


@pytest.mark.parametrize("name,runner", ALL_RULES)
def test_parallel_pair_single_pivot(name, runner):
    g = parallel_pair()
    res = runner(g, Policy((0, None)), Random(1))
    assert res.pivots == 1
    assert res.pivot_log == [(1, 0)]


def _children_rebuild(g, chosen):
    """The policy tree's child lists, rebuilt from the chosen edges in id
    order."""
    children = [[] for _ in range(g.n_vertices)]
    for u, e in enumerate(chosen):
        if e is not None:
            children[g.heads[e]].append(u)
    return children


def _full_reduced_costs(g, dist):
    return [c + dist[h] - dist[t] for c, h, t in zip(g.costs, g.heads, g.tails)]


def _priced(tracker):
    """Every edge's reduced cost at the kernel's tree, from a full recompute
    of its distances: the list a caller hands `_facet_collapsed`."""
    return _full_reduced_costs(tracker.g, tree_distances_list(tracker.g, tracker.chosen))


def _assert_kernel_is_full_recompute(tracker, before=None):
    """Check the kernel against a full recompute from its chosen edges, d =
    tree_distances_list (which also checks that they form a tree): the
    potentials are d and the child lists are the rebuild. Given the
    distances `before` the last pivot, `shifted` is the set of vertices
    whose distance changed, each by `step`. Returns d."""
    g = tracker.g
    dist = tree_distances_list(g, tracker.chosen)
    assert tracker.y == dist
    # a pivot moves its vertex to the end of its new parent's list
    assert [sorted(c) for c in tracker.children] == _children_rebuild(g, tracker.chosen)
    if before is not None:
        moved = {v for v in range(g.n_vertices) if before[v] != dist[v]}
        assert sorted(tracker.shifted) == sorted(moved)
        assert {dist[v] - before[v] for v in moved} == {tracker.step}
    return dist


class _CheckedTracker(rules._PivotTracker):
    """The pivot kernel, checked against a full recompute at construction
    and after every pivot; and every caller's reduced-cost list, checked
    against a full recompute each time `shift_costs` applies a pivot to
    it."""

    pivots_checked = 0
    lists_checked = 0

    def __init__(self, g, policy):
        super().__init__(g, policy)
        assert self.children == _children_rebuild(g, self.chosen)
        _assert_kernel_is_full_recompute(self)

    def pivot(self, e: int) -> int:
        before = tree_distances_list(self.g, self.chosen)
        y = self.y
        leaving = super().pivot(e)
        assert self.y is y
        _assert_kernel_is_full_recompute(self, before)
        _CheckedTracker.pivots_checked += 1
        return leaving

    def shift_costs(self, red):
        super().shift_costs(red)
        assert red == _priced(self)
        _CheckedTracker.lists_checked += 1


@pytest.fixture
def checked_kernel(monkeypatch):
    monkeypatch.setattr(rules, "_PivotTracker", _CheckedTracker)
    monkeypatch.setattr(comptrees, "_PivotTracker", _CheckedTracker)
    monkeypatch.setattr(_CheckedTracker, "pivots_checked", 0)
    monkeypatch.setattr(_CheckedTracker, "lists_checked", 0)
    return _CheckedTracker


def _kernel_instances(rng):
    # DAGs, two counter graphs, then `_random_cyclic` graphs with a cycle and
    # no negative cycle, and DAGs and such cyclic graphs with injected twins
    for _ in range(15):
        g = random_dag(rng, rng.randrange(2, 12), extra_edges=rng.randrange(0, 14))
        yield g, random_policy(g, rng)
    for params in ((3, 2, 2, 2), (4, 3, 3, 3)):
        g, idx = cg.build_counter_graph(*params)
        yield g, cg.initial_tree(idx)
    yield from _cyclic_instances(rng, 150, 40)
    for _ in range(150):
        g = _with_twins(rng, random_dag(rng, rng.randrange(2, 12),
                                        extra_edges=rng.randrange(0, 14)))
        yield g, random_policy(g, rng)
    for g, _ in _cyclic_instances(rng, 150, 40):
        g = _with_twins(rng, g)
        yield g, random_policy(g, rng)


@pytest.mark.parametrize("name,runner", ALL_RULES)
def test_incremental_kernel_matches_full_recompute(name, runner, checked_kernel):
    # the potentials after every pivot, and an engine that keeps its own
    # reduced-cost list (`bland_rec`, `random_facet_nonrec`) shifts it after
    # every pivot, each time equal to a full recompute
    rng = Random(name)
    for g, b0 in _kernel_instances(rng):
        res = runner(g, b0, rng)
        final = res.final_policy.chosen
        assert tree_distances_list(g, final) == optimal_distances_list(g)
    assert checked_kernel.pivots_checked > 0
    assert checked_kernel.lists_checked in (0, checked_kernel.pivots_checked)


def test_canonical_follower_kernel_matches_full_recompute(checked_kernel):
    # the follower hands the facet engine pre-edited edge sets, and keeps
    # one reduced-cost list across its sub-solves and its own switches
    g, idx = cg.build_counter_graph(4, 2, 2, 2)
    for seed in range(10):
        comptrees.follow_canonical(g, idx, [3, 1], Random(seed))
    assert checked_kernel.lists_checked == checked_kernel.pivots_checked > 0


def _check_pool_against_rebuild(rng, order):
    # every candidate pool equals a rebuild from all edges: the nonbasic edges
    # of the edge set that no descent on the stack has removed, replayed from
    # the event stream (each "up" restores the last removal still out), so a
    # pooled duplicate shows as a repeated id; the engine never writes the
    # edge set, so it ends the call as it began.
    # order(g) gives the instance's removal order of a checked pool.
    for g, b0 in _kernel_instances(rng):
        tracker = rules._PivotTracker(g, b0)
        chosen = tracker.chosen
        in_f = [rng.random() < 0.8 or e in b0.edge_set() for e in range(g.n_edges)]
        entry = list(in_f)
        events = []
        seen = 0
        removed = []
        arrange_checked = order(g)

        def arrange(avail):
            nonlocal seen
            for ev in events[seen:]:
                if ev[0] == "pick":
                    removed.append(ev[1])
                elif ev[0] == "up":
                    removed.pop()
            seen = len(events)
            out = set(removed)
            cands = sorted(avail)
            assert cands == [
                e for e in range(g.n_edges)
                if in_f[e] and chosen[g.tails[e]] != e and e not in out
            ]
            assert in_f == entry
            return arrange_checked(avail)

        rules._facet_collapsed(tracker, _priced(tracker), in_f, arrange, events)
        assert in_f == entry


def test_facet_candidates_match_full_rebuild():
    rng = Random(47)

    def shuffled(g):
        def arrange(avail):
            cands = sorted(avail)
            rng.shuffle(cands)
            return cands
        return arrange

    _check_pool_against_rebuild(rng, shuffled)


def test_facet_pool_matches_full_rebuild_under_one_perm_order():
    # the one-permutation order hands the unwind's descending-rank runs back
    # to the next descent, a different pool order from the shuffled one
    rng = Random(61)

    def by_rank(g):
        sigma = random_permutation_fn(g.n_edges, rng)
        return lambda avail: sorted(avail, key=sigma.__getitem__)

    _check_pool_against_rebuild(rng, by_rank)


def test_shuffle_exact_is_random_shuffle():
    # same list and same generator state as the stdlib shuffle, at every
    # length around a change of the bit count drawn per element
    lengths = sorted({0, 1, 2, 3, 540} | {
        n for k in range(1, 10) for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)
    })
    for n in lengths:
        for seed in range(30):
            want, got = list(range(n)), list(range(n))
            ref, rng = Random(seed), Random(seed)
            ref.shuffle(want)
            rules.shuffle_exact(got, rng)
            assert got == want, (n, seed)
            assert rng.getstate() == ref.getstate(), (n, seed)


def test_randbelow_exact_is_random_randrange():
    # same value and same generator state as the stdlib draw, at every n up
    # to 600, so on both sides of each change of the bit count up to 2 ** 9
    for seed in range(30):
        ref, rng = Random(seed), Random(seed)
        for n in range(1, 601):
            assert rules.randbelow_exact(n, rng) == ref.randrange(n), (n, seed)
            assert rng.getstate() == ref.getstate(), (n, seed)

    class FewDraws:
        # a guard that lets n <= 0 through loops forever on the real
        # generator; this one fails the test after a few draws instead
        draws = 0

        def getrandbits(self, k):
            self.draws += 1
            if self.draws > 3:
                raise AssertionError(f"drew {self.draws} times from an empty range")
            return 0

    for n in (0, -1):
        rng = FewDraws()
        with pytest.raises(ValueError):
            rules.randbelow_exact(n, rng)
        assert rng.draws == 0


def test_traced_run_is_the_untraced_run():
    rng = Random(53)
    instances = []
    for _ in range(20):
        g = random_dag(rng, rng.randrange(2, 9), extra_edges=rng.randrange(0, 9))
        instances.append((g, random_policy(g, rng)))
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    instances.append((g, cg.initial_tree(idx)))
    for k, (g, b0) in enumerate(instances):
        traced = random_facet(g, b0, Random(k), trace=True)
        assert traced.pivot_log == random_facet(g, b0, Random(k)).pivot_log
        comptrees.record_tree(traced).validate(g, b0)


def _bland_linear_scan(g, policy, sigma, start=1):
    """The fixed-permutation rule by definition: rescan every edge in
    descending rank order before each pivot, each priced from a full
    `tree_distances_list` recompute. Returns the pivot log and the final
    policy."""
    by_rank_desc = [
        e for e in sorted(range(g.n_edges), key=sigma.__getitem__, reverse=True)
        if sigma[e] >= start
    ]
    log = []
    while True:
        imp = improving_switches(g, policy)
        e = next((x for x in by_rank_desc if x in imp), None)
        if e is None:
            return log, policy
        log.append((e, policy.chosen[g.tails[e]]))
        policy = apply_switch(g, policy, e)


def test_bland_heap_matches_linear_scan():
    rng = Random(31)
    cases = []
    for _ in range(60):
        g = random_dag(rng, rng.randrange(2, 12), extra_edges=rng.randrange(0, 14))
        cases.append((g, random_policy(g, rng), random_permutation_fn(g.n_edges, rng)))
    for params in ((3, 2, 2, 2), (4, 3, 3, 3)):
        g, idx = cg.build_counter_graph(*params)
        for _ in range(3):
            cases.append((g, cg.initial_tree(idx), sample_well_behaved(idx, rng)))
            cases.append((g, cg.initial_tree(idx), random_permutation_fn(g.n_edges, rng)))
    for g, b0, sigma in cases:
        start = rng.choice([1, 1, 2, rng.randrange(1, g.n_edges + 2)])
        assert bland_nonrec(g, b0, sigma, start=start).pivot_log == _bland_linear_scan(
            g, b0, sigma, start
        )[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.integers(min_value=2, max_value=12),
    extra=st.integers(min_value=0, max_value=20),
    cyclic=st.booleans(),
    data=st.data(),
)
def test_kernel_matches_full_recompute_along_drawn_pivots(seed, vertices, extra, cyclic,
                                                          data):
    # any improving pivot, not just the ones a rule picks, keeps the
    # potentials, the child lists, shifted and step equal to a full
    # recompute, and a list kept by `shift_costs` equal to every reduced
    # cost; on DAGs, and on `_random_cyclic` graphs (which size their own
    # extra edges) whose draws with a negative cycle are skipped
    rng = Random(seed)
    if cyclic:
        g = _random_cyclic(rng, vertices)
        try:
            optimal = optimal_distances_list(g)
        except NegativeCycleError:
            assume(False)
    else:
        g = random_dag(rng, vertices, extra_edges=extra)
        optimal = optimal_distances_list(g)
    tracker = _CheckedTracker(g, random_policy(g, rng))
    red = list(tracker.snap.red)
    while True:
        improving = tracker.improving()
        assert improving == [e for e in range(g.n_edges) if red[e] < 0]
        if not improving:
            break
        tracker.pivot(data.draw(st.sampled_from(improving)))
        tracker.shift_costs(red)
    assert tree_distances_list(g, tracker.chosen) == optimal


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.integers(min_value=2, max_value=12),
    extra=st.integers(min_value=0, max_value=20),
    keep=st.sampled_from((0.3, 0.7, 1.0)),
    data=st.data(),
)
def test_kernel_reads_match_a_full_recompute(seed, vertices, extra, keep, data):
    # along drawn improving pivots inside a random subset holding the start's
    # edges: `turned_improving` lists the edges of the brute-force list over
    # the shifted vertices' in-edges, each once (it walks twin groups, so not
    # in that list's order), and `improving` every edge with a negative
    # reduced cost, both priced afresh from the recomputed distances after
    # the pivot
    rng = Random(seed)
    g = random_dag(rng, vertices, extra_edges=extra, max_cost=rng.choice((1, 2, 9)))
    b0 = random_policy(g, rng)
    subset = {e for e in range(g.n_edges) if rng.random() < keep} | b0.edge_set()
    tracker = rules._PivotTracker(g, b0)
    while True:
        red = _full_reduced_costs(g, tree_distances_list(g, tracker.chosen))
        assert tracker.improving() == [e for e in range(g.n_edges) if red[e] < 0]
        if tracker.log:
            delta = tracker.step
            assert sorted(tracker.turned_improving()) == sorted(
                x for w in tracker.shifted for x in g.in_edges[w]
                if red[x] < 0 <= red[x] - delta)
        assert tracker.improving() == [e for e in range(g.n_edges) if tracker.improves(e)]
        choices = [e for e in tracker.improving() if e in subset]
        if not choices:
            break
        tracker.pivot(data.draw(st.sampled_from(choices)))
    assert tree_distances_list(g, tracker.chosen) == optimal_distances_list(g, subset)


def _cyclic_instances(rng, count: int, max_edges: int):
    # `_random_cyclic` graphs that have a cycle but no negative cycle and at
    # most max_edges edges, each with a `random_policy` start; other draws
    # are skipped
    while count:
        g = _random_cyclic(rng, rng.randrange(2, 6))
        if g.n_edges > max_edges or g.is_acyclic:
            continue
        try:
            optimal_distances_list(g)
        except NegativeCycleError:
            continue
        count -= 1
        yield g, random_policy(g, rng)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.integers(min_value=2, max_value=10),
    extra=st.integers(min_value=0, max_value=16),
    rule=st.sampled_from(sorted(experiments.RULES)),
    cyclic=st.booleans(),
)
def test_every_registered_rule_ends_optimal(seed, vertices, extra, rule, cyclic):
    # on DAGs, and on `_random_cyclic` graphs (which size their own extra
    # edges) whose draws with a negative cycle are skipped
    rng = Random(seed)
    if cyclic:
        g = _random_cyclic(rng, vertices)
        try:
            optimal = optimal_distances_list(g)
        except NegativeCycleError:
            assume(False)
    else:
        g = random_dag(rng, vertices, extra_edges=extra)
        optimal = optimal_distances_list(g)
    res = experiments.run_rule(rule, g, random_policy(g, rng), seed)
    assert tree_distances_list(g, res.final_policy.chosen) == optimal


def _assert_tracker_is_fresh_build(tracker, start):
    # a fresh build: one tree walk and a reduced-cost recompute from the
    # start, the ids of the improving edges among them, which `improving()`
    # reads before the first pivot, and the first pick list that `_nonbasic`
    # gives with every flag
    g = tracker.g
    dist, children = _tree_walk(g, start.chosen)
    assert tracker.chosen == list(start.chosen)
    assert tracker.children == children
    assert tracker.y == dist
    red = _full_reduced_costs(g, dist)
    assert list(tracker.snap.red) == red
    improving = [e for e, r in enumerate(red) if r < 0]
    assert list(tracker.snap.improving) == improving
    assert not tracker.log and tracker.improving() == improving
    picks = rules._nonbasic(bytearray(b"\x01") * g.n_edges, start.chosen)
    assert list(rules._start_tree(g, start).picks) == picks


def _check_snapshot_alternating_starts(g, starts, rng):
    # each tracker from a repeated start reads the stored snapshot; a run
    # from it pivots its own copies, so a later tracker from the same start
    # is still the fresh build
    for k in range(3 * len(starts)):
        start = starts[k % len(starts)]
        tracker = rules._PivotTracker(g, start)
        assert g._start_tree.start is start
        _assert_tracker_is_fresh_build(tracker, start)
        random_facet(g, start, rng)
        _assert_tracker_is_fresh_build(rules._PivotTracker(g, start), start)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.integers(min_value=2, max_value=12),
    extra=st.integers(min_value=0, max_value=20),
    n_starts=st.integers(min_value=2, max_value=3),
)
def test_start_snapshot_is_a_fresh_build(seed, vertices, extra, n_starts):
    rng = Random(seed)
    g = random_dag(rng, vertices, extra_edges=extra)
    starts = [random_policy(g, rng) for _ in range(n_starts)]
    _check_snapshot_alternating_starts(g, starts, rng)


def test_start_snapshot_is_a_fresh_build_on_counter_graphs():
    rng = Random(61)
    for params in ((2, 1, 1, 1), (3, 2, 2, 2), (4, 2, 2, 2)):
        g, idx = cg.build_counter_graph(*params)
        starts = [cg.initial_tree(idx), cg.one_edge_tree(idx), random_policy(g, rng)]
        _check_snapshot_alternating_starts(g, starts, rng)


def test_start_snapshot_is_a_fresh_build_on_cyclic_and_twin_graphs():
    # `_random_cyclic` graphs without a negative cycle, and DAGs and cyclic
    # graphs with injected twins, whose improving edges include twin copies
    rng = Random(3637)
    graphs = [g for g, _ in _cyclic_instances(rng, 15, 40)]
    graphs += [_with_twins(rng, random_dag(rng, rng.randrange(2, 10),
                                           extra_edges=rng.randrange(0, 12)))
               for _ in range(15)]
    graphs += [_with_twins(rng, g) for g, _ in _cyclic_instances(rng, 15, 40)]
    for g in graphs:
        _check_snapshot_alternating_starts(g, [random_policy(g, rng) for _ in range(2)], rng)


def test_a_refused_start_stores_no_snapshot():
    # a start that `_tree_walk` refuses (a cycle, a float entry, a target
    # entry other than None) raises before any snapshot is stored: the graph
    # keeps none, or keeps the last good start's, whose improving edges the
    # next kernel from that start reads
    g = Digraph(3, 2, tails=[0, 1, 1, 0], heads=[1, 0, 2, 2], costs=[1, 1, 1, 5])
    good = Policy((3, 2, None))
    refused = [Policy((0, 1, None)), Policy((0, 2.0, None)), Policy((0, 2, 1))]
    for kept in (None, good):
        if kept is not None:
            _assert_tracker_is_fresh_build(rules._PivotTracker(g, kept), kept)
        for start in refused:
            with pytest.raises(PolicyCycleError):
                rules._PivotTracker(g, start)
            assert g._start_tree is None if kept is None else g._start_tree.start is kept
    assert g._start_tree.improving == (0,)
    assert rules._PivotTracker(g, good).improving() == [0]


def _kernel_state(tracker):
    return (list(tracker.chosen), list(tracker.y),
            [list(c) for c in tracker.children], list(tracker.shifted),
            tracker.step, list(tracker.log))


def _assert_refused_pivot_changes_nothing(make_tracker, e, error):
    tracker = make_tracker()
    before = _kernel_state(tracker)
    with pytest.raises(error):
        tracker.pivot(e)
    assert _kernel_state(tracker) == before


def test_pivot_on_non_improving_edge_changes_nothing():
    g = parallel_pair()
    for e in (0, 1):  # a costlier edge, and the chosen edge itself
        _assert_refused_pivot_changes_nothing(
            lambda: rules._PivotTracker(g, Policy((1, None))), e, PivotInvariantError)
    # after a pivot, the edge that left the tree
    g, idx = cg.build_counter_graph(2, 1, 1, 1)

    def pivoted():
        tracker = rules._PivotTracker(g, cg.initial_tree(idx))
        tracker.pivot(tracker.improving()[0])
        return tracker

    left = pivoted().log[0][1]
    _assert_refused_pivot_changes_nothing(pivoted, left, PivotInvariantError)


def test_switch_closing_a_negative_cycle_raises():
    # 0 -> 1 costs -5 and 1 -> 0 costs 1: the cycle costs -4. In the tree
    # 0 -> 1 -> target, the edge 1 -> 0 improves but points into 1's subtree.
    g = Digraph(3, 2, tails=[0, 1, 0, 1], heads=[1, 0, 2, 2], costs=[-5, 1, 0, 0])
    start = Policy((0, 3, None))
    assert rules._PivotTracker(g, start).improves(1)
    _assert_refused_pivot_changes_nothing(
        lambda: rules._PivotTracker(g, start), 1, PolicyCycleError)
    for run in (lambda: dantzig(g, start), lambda: bland_nonrec(g, start, [4, 3, 2, 1])):
        with pytest.raises(PolicyCycleError):
            run()


def test_negative_self_loop_at_a_leaf_raises():
    # a pivot at a leaf of the tree shifts the leaf alone, so the one cycle
    # it can close is a self-loop. In the tree 0 -> 1 -> target, vertex 0 is
    # a leaf, and its loop 0 -> 0 costs -1: it improves on every tree, so
    # every rule pivots on it at last, and the kernel refuses that pivot
    g = Digraph(3, 2, tails=[0, 1, 0, 1, 0], heads=[1, 2, 0, 0, 2],
                costs=[1, 1, -1, 3, 9])
    start = Policy((0, 1, None))
    tracker = rules._PivotTracker(g, start)
    assert not tracker.children[0] and tracker.improves(2)
    _assert_refused_pivot_changes_nothing(
        lambda: rules._PivotTracker(g, start), 2, PolicyCycleError)
    with pytest.raises(PolicyCycleError, match="^edge 2 closes a cycle through vertex 0 "):
        tracker.pivot(2)
    for name, runner in ALL_RULES:
        with pytest.raises(PolicyCycleError, match="^edge 2 "):
            runner(g, start, Random(5))
    for rule in experiments.RULES:
        with pytest.raises(PolicyCycleError, match="^edge 2 "):
            experiments.run_rule(rule, g, start, 5)


def test_objective_decreases_along_every_log():
    rng = Random(55)
    for _ in range(10):
        g = random_dag(rng, rng.randrange(3, 9), extra_edges=rng.randrange(1, 9))
        b0 = random_policy(g, rng)
        res = random_facet(g, b0, rng)
        pol = b0
        prev = sum(tree_distances_list(g, pol.chosen))
        for entering, leaving in res.pivot_log:
            assert pol.chosen[g.tails[entering]] == leaving
            pol = Policy(
                tuple(
                    entering if v == g.tails[entering] else c
                    for v, c in enumerate(pol.chosen)
                )
            )
            cur = sum(tree_distances_list(g, pol.chosen))
            assert cur < prev
            prev = cur
        assert pol == res.final_policy


def test_invalid_start_rejected():
    g, idx = cg.build_counter_graph(1, 1, 2, 1)
    b0 = cg.initial_tree(idx)
    some_b0_edge = next(iter(b0.edge_set()))
    subset = set(range(g.n_edges)) - {some_b0_edge}
    with pytest.raises(InvalidStartError):
        random_facet(g, b0, Random(0), subset=subset)


# every function that reads a start tree, as (g, idx, start) -> result: the
# rules of `experiments.RULES`, `bland_rec`, a traced `random_facet`, the
# canonical follower, the tree distances, the LP basis and the fixed
# vertices, each run from the start alone
START_READERS = {
    **{name: lambda g, idx, start, run=run: run(g, start, Random(5))
       for name, run in experiments.RULES.items()},
    "bland_rec": lambda g, idx, start: bland_rec(
        g, start, random_permutation_fn(g.n_edges, Random(5))),
    "random_facet_traced": lambda g, idx, start: random_facet(
        g, start, Random(5), trace=True),
    "follow_canonical": lambda g, idx, start: comptrees.follow_canonical(
        g, idx, [2, 1], Random(5), start=start),
    "tree_distances_list": lambda g, idx, start: tree_distances_list(g, start.chosen),
    "tree_basis": lambda g, idx, start: lp.tree_basis(g, start),
    "fixed_vertices": lambda g, idx, start: fixed_vertices(g, start, range(g.n_edges)),
}


@pytest.mark.parametrize("name", list(START_READERS))
def test_every_start_reader_checks_each_entry(name):
    # -1, m, True and 1.0 are no edge ids: a start holding one at a vertex
    # fails the one start check, `_tree_walk`, which names that vertex. The
    # vertex is the tail of the edge that indexing would read (edge m - 1
    # for -1, edge 0 for m, edge 1 for True and 1.0), so the entry would
    # pass for a choice there. Edges 0 and 1 leave one vertex, and the start
    # holds edge 0 there, so the start with True differs from it even under
    # ==. The target's own entry must be None: any other is refused by the
    # same check, which names the target.
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    assert g.out_edges[g.tails[1]] == (0, 1)
    start = apply_switch(g, cg.initial_tree(idx), 0)
    read = START_READERS[name]
    read(g, idx, start)  # the start itself is a tree
    m = g.n_edges
    for bad in (-1, m, True, 1.0):
        v = g.tails[int(bad) % m]
        chosen = list(start.chosen)
        chosen[v] = bad
        with pytest.raises(PolicyCycleError,
                           match=f"^vertex {v} has no valid chosen edge$"):
            read(g, idx, Policy(chosen))
    for junk in (-1, m, True, 1.0, 0):
        chosen = list(start.chosen)
        chosen[g.target] = junk
        with pytest.raises(PolicyCycleError,
                           match=f"^target vertex {g.target} holds {junk!r}, not None$"):
            read(g, idx, Policy(chosen))


@pytest.mark.parametrize("name", list(START_READERS))
def test_every_start_reader_checks_a_start_equal_to_the_last(name):
    # a graph keeps the snapshot of its last start object, not of its last
    # start's value: after a run from a start, a start equal to it under ==
    # but holding 1.0 or True, which are no edge ids, is refused as on a
    # fresh graph, and the good start still runs as before. The follower
    # needs a counter graph, so it gets a float copy of the zero start's
    # entry at (2,1,1,1).
    if name == "follow_canonical":
        g, idx = cg.build_counter_graph(2, 1, 1, 1)
        start = cg.initial_tree(idx)
        v = next(u for u, e in enumerate(start.chosen) if e is not None)
        chosen = list(start.chosen)
        chosen[v] = float(chosen[v])
        equal = [Policy(tuple(chosen))]
    else:
        g = Digraph(3, 2, tails=[0, 0, 1, 0], heads=[1, 1, 2, 2], costs=[5, 1, 1, 10])
        idx, v = None, 0
        start = Policy((1, 2, None))
        equal = [Policy((1.0, 2, None)), Policy((True, 2, None))]
    read = START_READERS[name]
    want = read(g, idx, start)
    for bad in equal:
        assert bad == start
        with pytest.raises(PolicyCycleError,
                           match=f"^vertex {v} has no valid chosen edge$"):
            read(g, idx, bad)
        assert read(g, idx, start) == want


def test_start_tree_walks_once_per_start_object(monkeypatch):
    # one start object is walked once, whatever reads it; an equal start
    # built afresh is walked again; a start built from a list holds a tuple,
    # so it is walked once too; and a start whose target entry is not None
    # is refused on every run and never stored
    walks = []

    def counting_walk(g, chosen):
        walks.append(tuple(chosen))
        return _tree_walk(g, chosen)

    monkeypatch.setattr(rules, "_tree_walk", counting_walk)
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    start = cg.initial_tree(idx)
    for name in START_READERS:
        START_READERS[name](g, idx, start)
        START_READERS[name](g, idx, start)
    assert len(walks) == 1
    equal = Policy(tuple(start.chosen))
    random_facet(g, equal, Random(0))
    random_facet(g, equal, Random(1))
    assert len(walks) == 2
    listed = Policy(list(start.chosen))
    assert type(listed.chosen) is tuple
    random_facet(g, listed, Random(0))
    random_facet(g, listed, Random(1))
    assert len(walks) == 3
    assert g._start_tree.start is listed
    chosen = list(start.chosen)
    chosen[g.target] = 0
    odd_target = Policy(chosen)
    walks.clear()
    for seed in range(10):
        with pytest.raises(PolicyCycleError, match=f"^target vertex {g.target} holds 0"):
            random_facet_nonrec(g, odd_target, Random(seed))
    assert len(walks) == 10
    assert g._start_tree.start is listed


def _costliest_start(g) -> Policy:
    # the start of check_rf_equiv: every vertex on its costliest out-edge
    return Policy(tuple(
        max(g.out_edges[u], key=lambda e: (g.costs[e], e)) if u != g.target else None
        for u in range(g.n_vertices)
    ))


def test_facet_engines_agree_in_distribution():
    # Monte Carlo means of every facet engine against the exact enumeration.
    # For n independent runs with sample standard deviation s, the test asks
    # |mean - exact| <= 4 s / sqrt(n), checked exactly as
    # n (mean - exact)^2 <= 16 s^2; a run count with s = 0 must equal the
    # exact value. Each engine gets its own seeds, so the four samples are
    # independent (the LP run with a graph run's seed is its lockstep twin).
    rng = Random(606)
    trials = 400
    for k in range(6):
        g = random_dag(rng, rng.randrange(4, 6), extra_edges=rng.randrange(5, 8),
                       max_cost=(1, 2, 6)[k % 3])
        b0 = _costliest_start(g)
        exact = checks.expected_pivots_recursive(g, b0)
        prob, _, _ = lp.sp_to_lp(g)
        basis = lp.tree_basis(g, b0)
        runners = (
            lambda s: experiments.run_rule("random-facet", g, b0, s).pivots,
            lambda s: random_facet(g, b0, Random(s), trace=True).pivots,
            lambda s: random_facet_nonrec(g, b0, Random(s)).pivots,
            lambda s: len(lp.random_facet_lp(prob, range(g.n_edges), basis, Random(s))[1]),
        )
        for r, runner in enumerate(runners):
            xs = [runner(10_000 * k + 1000 * r + i) for i in range(trials)]
            mean = Fraction(sum(xs), trials)
            var = (sum(x * x for x in xs) - trials * mean * mean) / (trials - 1)
            assert trials * (mean - exact) ** 2 <= 16 * var, (k, r, mean, exact)


# str() of the exact expected pivot count on 30 seeded DAGs (see
# _enumerator_instances), recorded from the Fraction-arithmetic enumerators
PINNED_EXPECTATIONS = [
    "4", "2", "11/3", "2", "13/6", "7/2", "1", "7/2", "3", "2",
    "31/12", "4", "2", "1", "3", "81/20", "7/2", "115/24", "1", "7/3",
    "211/60", "3", "5/2", "53/12", "1", "2", "97/30", "2", "7/3", "25/6",
]


def _enumerator_instances():
    # max_cost 1 and 2 make ties, and with them random pivot sequences
    rng = Random(20250)
    for k in range(len(PINNED_EXPECTATIONS)):
        g = random_dag(rng, rng.randrange(3, 6), extra_edges=rng.randrange(3, 8),
                       max_cost=(1, 2, 6)[k % 3])
        yield g, _costliest_start(g)


def test_expected_pivots_pinned_values():
    got = [
        (str(checks.expected_pivots_recursive(g, b0)),
         str(checks.expected_pivots_nonrec(g, b0)))
        for g, b0 in _enumerator_instances()
    ]
    assert got == [(v, v) for v in PINNED_EXPECTATIONS]


# The enumerators without their leaf shortcuts, kept verbatim as the oracles
# of the pruned ones in checks: every subfacet and every child state is built.


def _expected_pivots_recursive_unpruned(g: Digraph, start: Policy) -> Fraction:
    dist_cache: dict[tuple, list[int]] = {}

    def dists(chosen: tuple) -> list[int]:
        if chosen not in dist_cache:
            dist_cache[chosen] = tree_distances_list(g, chosen)
        return dist_cache[chosen]

    def improving(e: int, chosen: tuple) -> bool:
        d = dists(chosen)
        return g.costs[e] + d[g.heads[e]] < d[g.tails[e]]

    memo: dict[tuple, tuple[int, int, dict]] = {}

    def go(f_set: frozenset, chosen: tuple) -> tuple[int, int, dict]:
        key = (f_set, chosen)
        if key in memo:
            return memo[key]
        cands = sorted(e for e in f_set if chosen[g.tails[e]] != e)
        if not cands:
            memo[key] = (1, 0, {chosen: 1})
            return memo[key]
        den, exp_total = 1, 0
        dist_total: dict = defaultdict(int)

        def over(d: int) -> int:
            # rescale the running sums to a multiple of d; den // d
            nonlocal den, exp_total
            if den % d:
                k = d // gcd(den, d)
                den *= k
                exp_total *= k
                for ret in dist_total:
                    dist_total[ret] *= k
            return den // d

        # `over` may rescale the sums, so each call comes before the sum
        # it scales for is read
        for e in cands:
            den_left, exp_left, dist_left = go(f_set - {e}, chosen)
            k = over(den_left)
            exp_total += exp_left * k
            for ret, p in dist_left.items():
                if improving(e, ret):
                    switched = list(ret)
                    switched[g.tails[e]] = e
                    den_right, exp_right, dist_right = go(f_set, tuple(switched))
                    # p / den_left * (1 + exp_right / den_right)
                    q = p * over(den_left * den_right)
                    exp_total += q * (den_right + exp_right)
                    for ret2, p2 in dist_right.items():
                        dist_total[ret2] += q * p2
                else:
                    k = over(den_left)
                    dist_total[ret] += p * k
        den *= len(cands)
        common = gcd(den, exp_total, *dist_total.values())
        memo[key] = (
            den // common,
            exp_total // common,
            {ret: p // common for ret, p in dist_total.items()},
        )
        return memo[key]

    den, exp, _ = go(frozenset(range(g.n_edges)), tuple(start.chosen))
    return Fraction(exp, den)


def _expected_pivots_nonrec_unpruned(g: Digraph, start: Policy) -> Fraction:
    dist_cache: dict[tuple, list[int]] = {}

    def dists(chosen: tuple) -> list[int]:
        if chosen not in dist_cache:
            dist_cache[chosen] = tree_distances_list(g, chosen)
        return dist_cache[chosen]

    def improving(e: int, chosen: tuple) -> bool:
        d = dists(chosen)
        return g.costs[e] + d[g.heads[e]] < d[g.tails[e]]

    memo: dict[tuple, tuple[int, int]] = {}

    def pivot(chosen: tuple, e: int) -> tuple[tuple, int]:
        switched = list(chosen)
        leaving = switched[g.tails[e]]
        switched[g.tails[e]] = e
        return tuple(switched), leaving

    def go(blocks: tuple, tail: tuple, chosen: tuple) -> tuple[int, int]:
        key = (blocks, tail, chosen)
        if key in memo:
            return memo[key]
        for bi, blk in enumerate(blocks):
            imp = sorted(e for e in blk if improving(e, chosen))
            if not imp:
                continue
            non = sorted(e for e in blk if not improving(e, chosen))
            earlier: set = set().union(*blocks[:bi]) if bi else set()
            b_len = len(blk)
            # total = sum of a! (b_len - a - 1)! / b_len! * (1 + child) over
            # every entering e and every set of a non-improving edges
            # scanned before it; kept as num / den until the last step
            num, den = 0, 1
            for e in imp:
                switched, leaving = pivot(chosen, e)
                for a_sz in range(len(non) + 1):
                    weight = factorial(a_sz) * factorial(b_len - a_sz - 1)
                    for a_set in itertools.combinations(non, a_sz):
                        prefix = earlier | set(a_set) | {leaving}
                        rest = blk - {e} - set(a_set)
                        new_blocks = (frozenset(prefix),)
                        if rest:
                            new_blocks += (frozenset(rest),)
                        new_blocks += blocks[bi + 1:]
                        c_num, c_den = go(new_blocks, tail, switched)
                        if den % c_den:
                            k = c_den // gcd(den, c_den)
                            den *= k
                            num *= k
                        num += weight * (c_den + c_num) * (den // c_den)
            den *= factorial(b_len)
            common = gcd(num, den)
            memo[key] = (num // common, den // common)
            return memo[key]
        for pos, e in enumerate(tail):
            if improving(e, chosen):
                switched, leaving = pivot(chosen, e)
                prefix = set().union(*blocks) if blocks else set()
                prefix |= set(tail[:pos]) | {leaving}
                c_num, c_den = go((frozenset(prefix),), tail[pos + 1:], switched)
                memo[key] = (c_den + c_num, c_den)
                return memo[key]
        memo[key] = (0, 1)
        return memo[key]

    nontree = frozenset(
        e for e in range(g.n_edges) if start.chosen[g.tails[e]] != e
    )
    num, den = go((nontree,), (), tuple(start.chosen))
    return Fraction(num, den)


def test_pruned_enumerators_match_unpruned_oracles():
    # both starts on 200 seeded DAGs; max_cost 1 and 2 make ties, and random
    # starts make trees far from the optimum, so both shortcuts fire often
    # and also fail to fire often
    rng = Random(20251)
    for k in range(200):
        g = random_dag(rng, rng.randrange(3, 7), extra_edges=rng.randrange(1, 8),
                       max_cost=(1, 2, 6)[k % 3])
        for b0 in (_costliest_start(g), random_policy(g, rng)):
            rec = checks.expected_pivots_recursive(g, b0)
            non = checks.expected_pivots_nonrec(g, b0)
            assert rec == _expected_pivots_recursive_unpruned(g, b0), (k, b0)
            assert non == _expected_pivots_nonrec_unpruned(g, b0), (k, b0)
    # the recursive enumerator's facet cut on counter graphs too: the zero
    # start and two uniform trees
    for params in ((1, 1, 1, 1), (2, 1, 1, 1)):
        g, idx = cg.build_counter_graph(*params)
        every_edge = range(g.n_edges)
        starts = [cg.initial_tree(idx)]
        starts += [cg.random_tree_within(g, every_edge, rng) for _ in range(2)]
        for b0 in starts:
            assert (checks.expected_pivots_recursive(g, b0)
                    == _expected_pivots_recursive_unpruned(g, b0)), (params, b0)
    # graphs with a cycle and no negative cycle, m <= 12; the oracles walk
    # every tree from scratch, so this checks the table's switched trees,
    # priced from their parents, too
    values = set()
    for g, b0 in _cyclic_instances(Random(20252), 80, max_edges=12):
        rec = checks.expected_pivots_recursive(g, b0)
        assert rec == checks.expected_pivots_nonrec(g, b0), (g, b0)
        assert rec == _expected_pivots_recursive_unpruned(g, b0), (g, b0)
        assert rec == _expected_pivots_nonrec_unpruned(g, b0), (g, b0)
        values.add(rec)
    assert len(values) > 10 and any(v.denominator > 1 for v in values)


def _enumeration_outcome(enumerate_pivots, g, b0):
    # the value, or PolicyCycleError if the call raised it
    try:
        return enumerate_pivots(g, b0)
    except PolicyCycleError:
        return PolicyCycleError


def test_enumerators_share_one_tree_table_per_graph():
    # a graph keeps one tree table, filled by whichever enumerator runs
    # first. Every call gives what it gives on a freshly built copy of the
    # graph, whether the table was filled by the other enumerator, from
    # another start, or by a call that raised: on the DAGs and cyclic graphs
    # of test_pruned_enumerators_match_unpruned_oracles, and on graphs with
    # a negative cycle, where every call raises
    rng = Random(20251)
    instances = []
    for k in range(60):
        g = random_dag(rng, rng.randrange(3, 7), extra_edges=rng.randrange(1, 8),
                       max_cost=(1, 2, 6)[k % 3])
        instances.append((g, [_costliest_start(g), random_policy(g, rng)]))
    for g, b0 in _cyclic_instances(Random(20252), 40, max_edges=12):
        instances.append((g, [b0, random_policy(g, rng)]))
    negative = 0
    while negative < 10:
        g = _random_cyclic(rng, rng.randrange(2, 6))
        try:
            starts = [random_policy(g, rng) for _ in range(2)]
            optimal_distances_list(g)
        except NegativeCycleError:
            instances.append((g, starts))
            negative += 1
        except ValueError:  # no random start found
            pass
    recursive, nonrec = checks.expected_pivots_recursive, checks.expected_pivots_nonrec

    def fresh(g: Digraph) -> Digraph:
        return Digraph(g.n_vertices, g.target, g.tails, g.heads, g.costs)

    raised = 0
    for g, (b0, b1) in instances:
        calls = [(recursive, b0), (nonrec, b0), (recursive, b1), (nonrec, b1)]
        expected = [_enumeration_outcome(f, fresh(g), b) for f, b in calls]
        raised += expected.count(PolicyCycleError)
        for order in (calls, calls[::-1]):
            shared = fresh(g)
            for f, b in order:
                outcome = _enumeration_outcome(f, shared, b)
                assert outcome == expected[calls.index((f, b))], (g, f, b)
            assert shared._tree_table is not None
        if PolicyCycleError not in expected:
            # the recursive enumerator meets every tree the other one meets
            # from the same start, so after it the other prices none
            shared = fresh(g)
            recursive(shared, b0)
            trees = len(shared._tree_table.trees)
            nonrec(shared, b0)
            assert len(shared._tree_table.trees) == trees
    assert raised == 4 * negative


def _improving_mask(g, d) -> int:
    return sum(1 << e for e in range(g.n_edges)
               if g.costs[e] + d[g.heads[e]] < d[g.tails[e]])


def test_tree_table_prices_switched_trees_as_from_scratch():
    # every tree one improving switch at a time from the start, on DAGs and
    # on cyclic graphs: the distances priced from the parent, the improving
    # and tree masks and the order equal those of a fresh walk
    rng = Random(20253)
    instances = list(_cyclic_instances(rng, 40, max_edges=16))
    for _ in range(40):
        g = random_dag(rng, rng.randrange(3, 8), extra_edges=rng.randrange(2, 10),
                       max_cost=(1, 2, 6)[rng.randrange(3)])
        instances.append((g, random_policy(g, rng)))
    switched = 0
    for g, b0 in instances:
        table = checks._TreeTable(g)
        todo = [table.intern(g, b0.chosen)]
        while todo:
            t = todo.pop()
            chosen = table.trees[t]
            d = tree_distances_list(g, chosen)
            assert table.dist[t] == d
            assert table.imp[t] == _improving_mask(g, d)
            assert table.tree[t] == sum(1 << e for e in chosen if e is not None)
            order = table.order[t]
            assert sorted(order) == list(range(g.n_vertices))
            assert order[0] == g.target
            place = {v: k for k, v in enumerate(order)}
            assert all(place[g.heads[chosen[v]]] < place[v] for v in order[1:])
            for e in range(g.n_edges):
                if table.imp[t] >> e & 1:
                    before = len(table.trees)
                    s, leaving = table.switch(t, e)
                    assert leaving == chosen[g.tails[e]]
                    assert table.trees[s] == apply_switch(g, Policy(chosen), e).chosen
                    if len(table.trees) > before:
                        switched += 1
                        todo.append(s)
    assert switched > 200


def test_enumerators_refuse_a_switch_that_closes_a_cycle():
    # 0 -> 1 -> 0 costs -5: edge 2 improves on the start and closes the
    # negative cycle, so both enumerators raise as a fresh walk would
    g = Digraph(3, 2, tails=[0, 1, 0], heads=[2, 0, 1], costs=[0, 0, -5])
    b0 = Policy((0, 1, None))
    with pytest.raises(PolicyCycleError):
        tree_distances_list(g, apply_switch(g, b0, 2).chosen)
    for enumerate_pivots in (checks.expected_pivots_recursive,
                             checks.expected_pivots_nonrec):
        with pytest.raises(PolicyCycleError, match="cycle through vertex 0"):
            enumerate_pivots(g, b0)


class _RaisingRandom:
    # draws index 0 three times, then raises deep inside `rand_count`
    def __init__(self):
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        if self.draws > 3:
            raise LookupError("out of draws")
        return 0


def test_recursive_oracles_leave_no_cyclic_garbage():
    # each oracle's inner `go` calls itself through its closure cell; the
    # cycle is broken on every exit, so reference counting frees a call's
    # memo when it returns or raises and the cyclic collector finds nothing.
    # The one-permutation count, closed-form, has no closure; it stays here,
    # also raising IndexError on a priority too short for its indices.
    # The graph's tree table, which both enumerators fill, holds no
    # reference back to the graph, so the two are freed together
    g = random_dag(Random(5), 5, extra_edges=5)
    b0 = random_policy(g, Random(5))
    calls = [
        lambda: checks.expected_pivots_recursive(g, b0),
        lambda: checks.expected_pivots_nonrec(g, b0),
        lambda: counters.rand_count([1, 2, 3, 4], Random(1)),
        lambda: counters.rand_count_one_perm([1, 2, 3, 4], [0, 2, 4, 1, 3]),
        lambda: counters.enumerate_expected_increments([1, 2, 3]),
    ]
    raising = [
        lambda: counters.rand_count([1, 2, 3, 4, 5], _RaisingRandom()),
        lambda: counters.rand_count_one_perm([1, 2, 3, 4], [0, 2, 4, 1]),
    ]
    rng = Random(1)
    while len(raising) < 12:  # graphs on which both enumerators meet a cycle
        h = _random_cyclic(rng, rng.randrange(3, 7))
        try:
            h0 = random_policy(h, rng)
            checks.expected_pivots_recursive(h, h0)
        except PolicyCycleError:
            raising += [lambda h=h, h0=h0: checks.expected_pivots_recursive(h, h0),
                        lambda h=h, h0=h0: checks.expected_pivots_nonrec(h, h0)]
        except (ValueError, NegativeCycleError):
            pass
    gc.disable()
    try:
        gc.collect()
        for k, call in enumerate(calls):
            assert call() > 0
            assert gc.collect() == 0, k
        assert g._tree_table is not None
        del g
        assert gc.collect() == 0
        for k, call in enumerate(raising):
            with pytest.raises((PolicyCycleError, LookupError)):
                call()
            assert gc.collect() == 0, k
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.integers(min_value=3, max_value=6),
    extra=st.integers(min_value=1, max_value=7),
    max_cost=st.sampled_from((1, 2, 6)),
    random_start=st.booleans(),
)
def test_facet_rule_expectations_agree(seed, vertices, extra, max_cost, random_start):
    # the formulation claim: both facet rules make the same expected number
    # of pivots on every instance
    rng = Random(seed)
    g = random_dag(rng, vertices, extra_edges=extra, max_cost=max_cost)
    b0 = random_policy(g, rng) if random_start else _costliest_start(g)
    assert (checks.expected_pivots_recursive(g, b0)
            == checks.expected_pivots_nonrec(g, b0))


# E[pivots] of both facet rules from the zero start of counter graphs, as
# in expected_pivots_recursive's docstring; expected_pivots_nonrec has no
# facet cut, so it is checked only at the two smallest sets
COUNTER_EXPECTATIONS = {
    (1, 1, 1, 1): Fraction(4),
    (2, 1, 1, 1): Fraction(3302, 315),
    (2, 1, 2, 1): Fraction(380449, 23100),
    (3, 1, 1, 1): Fraction(3416341, 178200),
}
NONREC_AFFORDABLE = {(1, 1, 1, 1), (2, 1, 1, 1)}


@pytest.mark.parametrize("params", sorted(COUNTER_EXPECTATIONS))
def test_counter_graph_expectations_pinned(params):
    g, idx = cg.build_counter_graph(*params)
    b0 = cg.initial_tree(idx)
    assert checks.expected_pivots_recursive(g, b0) == COUNTER_EXPECTATIONS[params]
    if params in NONREC_AFFORDABLE:
        assert checks.expected_pivots_nonrec(g, b0) == COUNTER_EXPECTATIONS[params]


def test_facet_engines_agree_in_distribution_on_a_counter_graph():
    # the Monte Carlo rule of test_facet_engines_agree_in_distribution,
    # n (mean - exact)^2 <= 16 s^2, against the pinned (2,1,1,1) value
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    b0 = cg.initial_tree(idx)
    exact = COUNTER_EXPECTATIONS[(2, 1, 1, 1)]
    trials = 2000
    runners = (
        lambda s: random_facet(g, b0, Random(s)).pivots,
        lambda s: random_facet_nonrec(g, b0, Random(s)).pivots,
        lambda s: experiments.run_rule("random-facet", g, b0, s).pivots,
    )
    for r, runner in enumerate(runners):
        xs = [runner(10_000 * r + i) for i in range(trials)]
        mean = Fraction(sum(xs), trials)
        var = (sum(x * x for x in xs) - trials * mean * mean) / (trials - 1)
        assert trials * (mean - exact) ** 2 <= 16 * var, (r, float(mean))


# the lazily ranked engine (`rules._facet_lazy`, behind `random_facet` and
# `lp.random_facet_lp`) against the slow oracles: the exact expectations
# above, the eager engine `_facet_collapsed` under `shuffled_order`, and
# `expected_pivots_recursive` on random DAGs, which
# test_facet_engines_agree_in_distribution compares it with


@pytest.mark.parametrize("params, seed", [((2, 1, 1, 1), 7101), ((3, 1, 1, 1), 7102)])
def test_lazy_engine_mean_matches_the_exact_expectation(params, seed):
    g, idx = cg.build_counter_graph(*params)
    b0 = cg.initial_tree(idx)
    exact = COUNTER_EXPECTATIONS[params]
    rng = Random(seed)
    trials = 3000
    xs = [random_facet(g, b0, rng).pivots for _ in range(trials)]
    mean = Fraction(sum(xs), trials)
    var = (sum(x * x for x in xs) - trials * mean * mean) / (trials - 1)
    z = float(mean - exact) / math.sqrt(var / trials)
    assert abs(z) < 3, (params, z)


def _eager_facet_pivots(g, b0, rng) -> int:
    """Pivot count of the eager engine: every descent shuffled in full."""
    tracker, in_f = rules._start(g, b0, None)
    rules._facet_collapsed(tracker, _priced(tracker), in_f, rules.shuffled_order(rng))
    return len(tracker.log)


def test_lazy_and_eager_engines_agree_in_law():
    # two-sample chi-square of the pivot counts at (2,2,2,1): adjacent counts
    # are pooled until a bin holds at least 40 runs of the two samples, the
    # last bin takes what remains, and equal sample sizes make the statistic
    # the sum over bins of (a - b)^2 / (a + b) on bins - 1 degrees of freedom
    g, idx = cg.build_counter_graph(2, 2, 2, 1)
    b0 = cg.initial_tree(idx)
    trials = 2000
    rng = Random(7103)
    lazy = Counter(random_facet(g, b0, rng).pivots for _ in range(trials))
    eager = Counter(_eager_facet_pivots(g, b0, rng) for _ in range(trials))
    bins, a, b = [], 0, 0
    for x in sorted(lazy.keys() | eager.keys()):
        a, b = a + lazy[x], b + eager[x]
        if a + b >= 40:
            bins.append((a, b))
            a = b = 0
    if a + b:
        last_a, last_b = bins.pop()
        bins.append((last_a + a, last_b + b))
    assert len(bins) >= 5
    stat = sum((a - b) ** 2 / (a + b) for a, b in bins)
    assert stat < _chi2_quantile(0.999, len(bins) - 1), (stat, len(bins))


# The lazy engine before its rank draw was written out in the walk, kept
# (its docstring is `rules._facet_lazy`'s) with the draw it called: the
# oracle for the bits `_facet_lazy` draws and the frames it records. It
# tests every in_f column with `improves` for its first frame, where the
# engine asks `improving()`, and counts its pool from `n_basic`, as the LP
# oracle lists no nonbasic columns.
def _draw_rank(size: int, revealed: dict, swap: dict, rng) -> int:
    """A rank drawn uniformly from those of 1..size that no column of
    `revealed` holds: one step of a partial Fisher-Yates shuffle.

    Position i of 0..size-1 holds rank swap.get(i, i) + 1, and the first
    size - len(revealed) positions hold the untaken ranks. A draw takes
    position i = randbelow_exact(untaken) and moves the last untaken
    position's rank into it. So no float is drawn, and drawing every rank of
    a frame gives each order of them with probability 1/size!. The caller
    records the rank in `revealed`.
    """
    last = size - len(revealed) - 1
    i = rules.randbelow_exact(last + 1, rng)
    rank = swap.get(i, i) + 1
    swap[i] = swap.get(last, last)
    return rank


def _oracle_facet_lazy(tracker, in_f: list, rng, frames: list | None = None) -> None:
    improves = tracker.improves
    pivot = tracker.pivot
    turned = tracker.turned_improving
    m = len(in_f)
    heappush, heappop = heapq.heappush, heapq.heappop
    left_at = [0] * m  # pivot count at which each column last left the basis
    # the in_f columns outside the basis, which lies in in_f
    pool = sum(in_f) - tracker.n_basic
    held = 0  # columns the live frames hold: the sum of their cursor - 1
    created: list[int] = []
    cursor: list[int] = []
    sizes: list[int] = []
    heaps: list[list[int]] = []
    revealed: list[dict] = []
    swaps: list[dict] = []

    t = 0
    size = pool
    improved = [x for x in compress(range(m), in_f) if improves(x)]
    while True:
        created.append(t)
        cursor.append(size + 1)
        sizes.append(size)
        heaps.append([])
        revealed.append({})
        swaps.append({})
        if frames is not None:
            frames.append((size, revealed[-1], len(cursor) - 1))
        held += size
        for x in improved:  # walk x up to the frame that holds it
            k = bisect_left(created, left_at[x])
            while True:
                ranks = revealed[k]
                rank = ranks.get(x)
                if rank is None:
                    rank = ranks[x] = _draw_rank(sizes[k], ranks, swaps[k], rng)
                    if rank < cursor[k]:
                        heappush(heaps[k], -(rank * m + x))
                        break
                elif rank < cursor[k]:
                    break
                k += 1
        while heaps:
            heap = heaps[-1]
            while heap:
                rank, e = divmod(-heappop(heap), m)
                if improves(e):
                    break
            else:
                held -= cursor.pop() - 1
                heaps.pop()
                created.pop()
                sizes.pop()
                revealed.pop()
                swaps.pop()
                continue
            break
        else:
            return
        held -= cursor[-1] - rank
        cursor[-1] = rank
        leaving = pivot(e)
        t += 1
        left_at[leaving] = t
        if not in_f[leaving]:
            pool -= 1
        size = pool - held
        improved = sorted(x for x in turned() if in_f[x])



@pytest.mark.parametrize("size, seed", [(3, 7104), (4, 7105)])
def test_rank_draws_give_every_order_uniformly(size, seed):
    # a frame of `size` columns drawing every rank, column 0 first: each of
    # the size! orders of the ranks is equally likely
    rng = Random(seed)
    orders = list(itertools.permutations(range(1, size + 1)))
    trials = 200 * len(orders)
    counts = Counter()
    for _ in range(trials):
        revealed, swap = {}, {}
        for x in range(size):
            revealed[x] = _draw_rank(size, revealed, swap, rng)
        counts[tuple(revealed.values())] += 1
    assert counts.keys() <= set(orders)
    expected = trials / len(orders)
    stat = sum((counts[o] - expected) ** 2 / expected for o in orders)
    assert stat < _chi2_quantile(0.999, len(orders) - 1), stat


class _TurnFilterTracker(rules._PivotTracker):
    """The graph kernel counting the turned edges outside the run's edge
    set, which the engine must drop before it walks them."""

    def turned_improving(self):
        listed = super().turned_improving()
        self.outside += sum(not self.in_f[x] for x in listed)
        return listed


def _run_beside_the_oracle(make_tracker, in_f, seed):
    # the engine and its oracle from one seed, each on a fresh oracle: the
    # same pivot log, frame records and generator state; returns the
    # engine's tracker, frames and generator state
    runs = []
    for engine in (rules._facet_lazy, _oracle_facet_lazy):
        tracker, frames, rng = make_tracker(), [], Random(seed)
        engine(tracker, in_f, rng, frames)
        runs.append((tracker, frames, rng.getstate()))
    (tracker, frames, state), (oracle, oracle_frames, oracle_state) = runs
    assert tracker.log == oracle.log
    assert frames == oracle_frames
    assert state == oracle_state
    return tracker, frames, state


def _last_rank_draws(frames) -> int:
    # frames whose every rank was drawn: the last draw had one untaken rank
    return sum(0 < size == len(ranks) for size, ranks, _depth in frames)


def test_lazy_engine_draws_the_oracle_bits():
    # `rules._facet_lazy` against the engine as it was before its rank draw
    # was written out in the walk: seeded runs from the zero start on
    # counter graphs, then random starts on random DAGs and edge subsets,
    # where turned edges outside the subset are dropped, with the LP run
    # in lockstep; the public rules draw what the engine draws
    last_draws = outside = 0
    for params, seeds in (((1, 1, 1, 1), 40), ((2, 1, 1, 1), 40), ((2, 2, 2, 1), 30),
                          ((3, 2, 2, 2), 12), ((4, 2, 2, 2), 8), ((6, 3, 3, 3), 4)):
        g, idx = cg.build_counter_graph(*params)
        b0 = cg.initial_tree(idx)
        in_f = rules._start(g, b0, None)[1]
        for seed in range(seeds):
            tracker, frames, state = _run_beside_the_oracle(
                lambda: rules._PivotTracker(g, b0), in_f, seed)
            last_draws += _last_rank_draws(frames)
            run_rng = Random(seed)
            assert random_facet(g, b0, run_rng).pivot_log == tracker.log
            assert run_rng.getstate() == state
    rng = Random(7110)
    for k in range(60):
        g = random_dag(rng, rng.randrange(3, 10), extra_edges=rng.randrange(2, 14),
                       max_cost=rng.choice((1, 2, 9)))
        b0 = random_policy(g, rng)
        keep = rng.choice((0.3, 0.6, 1.0))
        subset = {e for e in range(g.n_edges) if rng.random() < keep} | b0.edge_set()
        in_f = rules._start(g, b0, subset)[1]

        def filter_tracker():
            tracker = _TurnFilterTracker(g, b0)
            tracker.in_f, tracker.outside = in_f, 0
            return tracker

        tracker, frames, state = _run_beside_the_oracle(filter_tracker, in_f, k)
        last_draws += _last_rank_draws(frames)
        outside += tracker.outside
        run_rng = Random(k)
        assert random_facet(g, b0, run_rng, subset=subset).pivot_log == tracker.log
        assert run_rng.getstate() == state
        prob, _, _ = lp.sp_to_lp(g)
        basis = lp.tree_basis(g, b0)
        lp_in_f = [j in subset for j in range(prob.n_cols)]
        lp_tracker, lp_frames, lp_state = _run_beside_the_oracle(
            lambda: lp._LPTracker(prob, basis), lp_in_f, k)
        assert (lp_tracker.log, lp_frames, lp_state) == (tracker.log, frames, state)
        lp_rng = Random(k)
        assert lp.random_facet_lp(prob, sorted(subset), basis, lp_rng)[1] == tracker.log
        assert lp_rng.getstate() == state
    assert last_draws > 0
    assert outside > 0


class _NoFloatRandom(Random):
    """A generator whose float draw fails."""

    def random(self):
        raise AssertionError("drew a float")


def test_lazy_engine_draws_no_float():
    rng = Random(7106)
    instances = [(g, cg.initial_tree(idx))
                 for g, idx in (cg.build_counter_graph(2, 2, 2, 1),)]
    for _ in range(10):
        g = random_dag(rng, rng.randrange(3, 9), extra_edges=rng.randrange(2, 10))
        instances.append((g, random_policy(g, rng)))
    for k, (g, b0) in enumerate(instances):
        run = random_facet(g, b0, _NoFloatRandom(k))
        assert run.pivot_log == random_facet(g, b0, _NoFloatRandom(k), trace=True).pivot_log
        prob, _, _ = lp.sp_to_lp(g)
        _, log = lp.random_facet_lp(prob, range(g.n_edges), lp.tree_basis(g, b0),
                                    _NoFloatRandom(k))
        assert log == run.pivot_log
    with pytest.raises(AssertionError, match="drew a float"):
        _NoFloatRandom(0).random()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.integers(min_value=2, max_value=9),
    extra=st.integers(min_value=0, max_value=12),
    keep=st.sampled_from((0.0, 0.4, 0.8, 1.0)),
)
def test_lazy_engine_on_subsets(seed, vertices, extra, keep):
    # from a random start on a random subset S holding the start's edges:
    # the run ends at the optimum of S, the LP run on the columns of S
    # pivots in lockstep with it, and the traced run is the same run, whose
    # computation tree checks out from the root edge set S
    rng = Random(seed)
    g = random_dag(rng, vertices, extra_edges=extra, max_cost=rng.choice((2, 9)))
    b0 = random_policy(g, rng)
    subset = {e for e in range(g.n_edges) if rng.random() < keep}
    subset |= b0.edge_set()
    run_seed = rng.randrange(2**32)
    run = random_facet(g, b0, Random(run_seed), subset=subset)
    assert (tree_distances_list(g, run.final_policy.chosen)
            == optimal_distances_list(g, subset | b0.edge_set()))
    prob, _, _ = lp.sp_to_lp(g)
    basis, log = lp.random_facet_lp(prob, sorted(subset), lp.tree_basis(g, b0),
                                    Random(run_seed))
    assert log == run.pivot_log
    assert sorted(basis) == sorted(run.final_policy.edge_set())
    traced = random_facet(g, b0, Random(run_seed), subset=subset, trace=True)
    assert traced.pivot_log == run.pivot_log
    comptrees.record_tree(traced).validate(g, b0, subset)
    assert _expand_trace(g, b0, traced.frames, subset)[0] == run.pivot_log


class _FlipsOnlyTracker(rules._PivotTracker):
    """The graph kernel listing, like the LP, only the edges whose reduced
    cost turned negative at the last pivot."""

    def pivot(self, e):
        self.before = _priced(self)
        return super().pivot(e)

    def turned_improving(self):
        listed = super().turned_improving()
        self.held += sum(self.before[x] < 0 for x in listed)
        return [x for x in listed if self.before[x] >= 0]


def test_turned_columns_that_improved_already_draw_nothing():
    # the kernel also lists improving edges with both ends shifted; their
    # walks find them held, so dropping them leaves the log and the
    # generator state as they were, on counter graphs too, where the LP
    # lockstep checks cannot go
    rng = Random(7109)
    cases = []
    for params in ((3, 2, 2, 2), (4, 3, 3, 3)):
        g, idx = cg.build_counter_graph(*params)
        cases += [(g, cg.initial_tree(idx)), (g, random_policy(g, rng))]
    for _ in range(30):
        g = random_dag(rng, rng.randrange(3, 12), extra_edges=rng.randrange(2, 20),
                       max_cost=rng.choice((1, 2, 9)))
        cases.append((g, random_policy(g, rng)))
    held = 0
    for k, (g, b0) in enumerate(cases):
        runs = []
        for kernel in (rules._PivotTracker, _FlipsOnlyTracker):
            in_f = rules._start(g, b0, None)[1]
            tracker = kernel(g, b0)
            tracker.held = 0
            run_rng = Random(k)
            rules._facet_lazy(tracker, in_f, run_rng)
            runs.append((tracker.log, run_rng.getstate()))
            held += tracker.held
        assert runs[0] == runs[1], k
    assert held > 20


class _TurnScanTracker(rules._PivotTracker):
    """The graph kernel checking every turn scan against the slow oracle:
    after each pivot, the per-edge rule delta <= red[x] < 0 over the
    in-edges x of `shifted`, with red priced from a full
    `tree_distances_list` recompute. The lazy engine's scan is
    `turned_improving`, which lists every edge found. The one-permutation
    and Bland engines scan inline and push one key -sigma[x] per twin group
    that turned, so the keys pushed between two pivots (`pushed`, filled by
    a recording push) read, through `edge_of_rank`, as one copy of each
    group of the edges found, grouped by (tail, head, cost); for Bland
    (`start` set), the copy of highest rank, which is >= start. The test
    sets `pushed`, `edge_of_rank` (None for the lazy engine), `start` (None
    but for Bland) and `made`, the list of kernels built."""

    pushed = edge_of_rank = start = made = None

    def __init__(self, g, policy):
        super().__init__(g, policy)
        self.expected = None
        self.scans = 0
        self.made.append(self)

    def check_pushed(self):
        if self.expected is not None:
            g, edge_of_rank, start = self.g, self.edge_of_rank, self.start
            groups = defaultdict(list)
            for x in self.expected:
                groups[g.tails[x], g.heads[x], g.costs[x]].append(x)
            keys = sorted(-k for k in self.pushed)
            assert len(keys) == len(groups)
            assert {(g.tails[x], g.heads[x], g.costs[x])
                    for x in map(edge_of_rank.__getitem__, keys)} == set(groups)
            if start is not None:
                tops = sorted(max(map(edge_of_rank.index, ids)) for ids in groups.values())
                assert keys == tops and all(key >= start for key in keys)
            self.scans += 1

    def pivot(self, e):
        if self.edge_of_rank is not None:
            self.check_pushed()
        leaving = super().pivot(e)
        g = self.g
        red = _full_reduced_costs(g, tree_distances_list(g, self.chosen))
        self.expected = sorted(x for w in self.shifted for x in g.in_edges[w]
                               if self.step <= red[x] < 0)
        self.pushed.clear()
        return leaving

    def turned_improving(self):
        listed = super().turned_improving()
        assert sorted(listed) == self.expected
        self.scans += 1
        return listed


def test_turn_scans_find_the_edges_of_the_per_edge_rule(monkeypatch):
    # seeded random-facet, random-facet-1p and random-bland runs on counter
    # graphs with t = 1, 2, 3 and on DAGs and cyclic graphs with injected
    # twins: every scan, which prices each twin group once, finds exactly
    # the edges that testing each in-edge finds, and the rank engines push
    # one copy of each twin group among them
    pushed = []

    def push(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(rules, "heapq", SimpleNamespace(
        heappush=push, heappop=heapq.heappop, heapify=heapq.heapify,
        heapreplace=heapq.heapreplace))
    monkeypatch.setattr(rules, "_PivotTracker", _TurnScanTracker)
    monkeypatch.setattr(_TurnScanTracker, "pushed", pushed)
    rng = Random(7110)
    cases = []
    for params in ((3, 2, 2, 1), (3, 2, 2, 2), (3, 2, 2, 3), (2, 3, 3, 3), (4, 2, 2, 3)):
        g, idx = cg.build_counter_graph(*params)
        cases += [(g, cg.initial_tree(idx)), (g, cg.one_edge_tree(idx)),
                  (g, random_policy(g, rng))]
    for _ in range(40):
        g = random_dag(rng, rng.randrange(3, 12), extra_edges=rng.randrange(2, 16),
                       max_cost=rng.choice((1, 2, 9)))
        g = _with_twins(rng, g)
        cases.append((g, random_policy(g, rng)))
    for g, b0 in _cyclic_instances(rng, 30, 40):
        g = _with_twins(rng, g)
        cases.append((g, random_policy(g, rng)))
    scans = Counter()
    for k, (g, b0) in enumerate(cases):
        sigma = random_permutation_fn(g.n_edges, Random(k))
        edge_of_rank = rules._edge_of_rank(sigma, g.n_edges)
        for name, run, ranks, start in (
            ("random-facet", lambda: random_facet(g, b0, Random(k)), None, None),
            ("random-facet-1p", lambda: random_facet_one_perm(g, b0, sigma), edge_of_rank,
             None),
            ("random-bland", lambda: bland_nonrec(g, b0, sigma), edge_of_rank, 1),
        ):
            made = []
            monkeypatch.setattr(_TurnScanTracker, "made", made)
            monkeypatch.setattr(_TurnScanTracker, "edge_of_rank", ranks)
            monkeypatch.setattr(_TurnScanTracker, "start", start)
            res = run()
            (tracker,) = made
            if ranks is not None:
                tracker.check_pushed()  # the scan after the last pivot
            assert tracker.scans == res.pivots, (name, k)
            scans[name] += tracker.scans
    assert min(scans.values()) > 500, scans


def test_validate_refuses_a_tree_with_two_ranks_swapped():
    # on each seed, the first frame with two revealed columns has its lowest
    # and highest ranks traded, which gives a tree the eager recursion does
    # not make (some swaps, such as of the two highest, can give another
    # consistent tree); a wrong leaving edge is refused too. Both trees
    # still build, since every entering column keeps a rank
    g, idx = cg.build_counter_graph(2, 2, 2, 1)
    b0 = cg.initial_tree(idx)
    for seed in range(50):
        run = random_facet(g, b0, Random(seed), trace=True)
        comptrees.record_tree(run).validate(g, b0)
        ranks = next(ranks for _size, ranks, _depth in run.frames if len(ranks) > 1)
        (low, r_low), *_, (high, r_high) = sorted(ranks.items(), key=lambda kv: kv[1])
        ranks[low], ranks[high] = r_high, r_low
        with pytest.raises(AssertionError):
            comptrees.record_tree(run).validate(g, b0)
        ranks[low], ranks[high] = r_low, r_high
        tree = comptrees.record_tree(run)
        tree.leaving[1] = run.pivot_log[0][0]
        with pytest.raises(AssertionError, match="leaving edge mismatch at node 1"):
            tree.validate(g, b0)


def test_random_facet_at_m_2040():
    g, idx = cg.build_counter_graph(6, 5, 5, 5)
    assert g.n_edges == 2040
    run = random_facet(g, cg.initial_tree(idx), Random(7108))
    assert tree_distances_list(g, run.final_policy.chosen) == optimal_distances_list(g)


def test_bland_formulations_identical_logs():
    rng = Random(77)
    for _ in range(40):
        g = random_dag(rng, rng.randrange(3, 12), extra_edges=rng.randrange(1, 10))
        b0 = random_policy(g, rng)
        sigma = random_permutation_fn(g.n_edges, rng)
        assert (
            bland_rec(g, b0, sigma).pivot_log
            == bland_nonrec(g, b0, sigma).pivot_log
        )
    # and on cyclic graphs without a negative cycle
    pivots = 0
    for g, b0 in _cyclic_instances(rng, 60, max_edges=30):
        sigma = random_permutation_fn(g.n_edges, rng)
        rec = bland_rec(g, b0, sigma)
        assert rec.pivot_log == bland_nonrec(g, b0, sigma).pivot_log
        pivots += rec.pivots
    assert pivots > 60


def test_bland_on_counter_graph_reaches_one_edge_optimum():
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    b0 = cg.initial_tree(idx)
    rng = Random(5)
    for _ in range(10):
        sigma = random_permutation_fn(g.n_edges, rng)
        rec = bland_rec(g, b0, sigma)
        non = bland_nonrec(g, b0, sigma)
        assert rec.pivot_log == non.pivot_log
        assert all(d == 0 for d in tree_distances_list(g, rec.final_policy.chosen))


def test_bland_empty_suffix_returns_start():
    g = parallel_pair()
    sigma = [1, 2]
    res = bland_nonrec(g, Policy((0, None)), sigma, start=g.n_edges + 1)
    assert res.pivots == 0
    res2 = bland_rec(g, Policy((0, None)), sigma, ell=g.n_edges + 1)
    assert res2.pivots == 0


def test_one_perm_determinism_and_decision_point_freedom():
    # two vertices with a single outgoing edge are never candidates, so
    # swapping their ranks cannot change the run
    g = Digraph(
        4, 3,
        tails=[0, 0, 1, 2],
        heads=[1, 2, 3, 3],
        costs=[0, 1, 5, 2],
    )
    b0 = Policy((0, 2, 3, None))
    sigma = [1, 2, 3, 4]
    res1 = random_facet_one_perm(g, b0, sigma)
    swapped = [1, 2, 4, 3]  # ranks of the two single-edge vertices swapped
    res2 = random_facet_one_perm(g, b0, swapped)
    assert res1.pivot_log == res2.pivot_log
    res3 = random_facet_one_perm(g, b0, sigma)
    assert res1.pivot_log == res3.pivot_log


def _one_perm_oracle(g, b0, sigma, subset=None):
    """The one-permutation rule by definition: the general facet engine with
    every candidate list sorted by sigma. Returns the pivot log and the final
    policy."""
    tracker, in_f = rules._start(g, b0, subset)
    rules._facet_collapsed(
        tracker, _priced(tracker), in_f, lambda avail: sorted(avail, key=sigma.__getitem__)
    )
    return tracker.log, Policy(tuple(tracker.chosen))


def _assert_one_perm_matches_oracle(g, b0, sigma, subset=None):
    res = random_facet_one_perm(g, b0, sigma, subset=subset)
    log, final = _one_perm_oracle(g, b0, sigma, subset)
    assert res.pivot_log == log
    assert res.final_policy == final
    return res.pivots


def test_one_perm_engine_matches_general_engine_on_dags():
    rng = Random(1410)
    pivots = 0
    for k in range(200):
        g = random_dag(rng, rng.randrange(2, 14), extra_edges=rng.randrange(0, 25))
        b0 = random_policy(g, rng)
        sigma = random_permutation_fn(g.n_edges, rng)
        subset = None
        if k % 2:
            subset = {e for e in range(g.n_edges) if rng.random() < 0.7}
            subset |= b0.edge_set()
        pivots += _assert_one_perm_matches_oracle(g, b0, sigma, subset)
    assert pivots > 400


def test_one_perm_engine_matches_general_engine_on_counter_graphs():
    # counter graphs re-enter and re-leave the same columns across nested
    # frames, which random DAGs rarely do
    rng = Random(7530)
    for params in ((3, 2, 2, 2), (4, 2, 2, 2), (3, 3, 3, 3), (5, 2, 3, 2)):
        g, idx = cg.build_counter_graph(*params)
        b0 = cg.initial_tree(idx)
        for k in range(12):
            if k % 2:
                sigma = sample_well_behaved(idx, rng)
            else:
                sigma = random_permutation_fn(g.n_edges, rng)
            start = b0 if k % 4 < 2 else random_policy(g, rng)
            _assert_one_perm_matches_oracle(g, start, sigma)
    g, idx = cg.build_counter_graph(6, 7, 7, 7)
    assert g.n_edges >= 5000
    sigma = sample_well_behaved(idx, rng)
    assert _assert_one_perm_matches_oracle(g, cg.initial_tree(idx), sigma) > 1000


def _turned_groups(g, b0, log):
    """The twin groups (their ids) that turned improving at each pivot of
    `log`, replayed from b0 on a fresh kernel."""
    tracker = rules._PivotTracker(g, b0)
    y = tracker.y
    for e, _ in log:
        tracker.pivot(e)
        for w in tracker.shifted:
            for u, c, ids in tracker.twins[w]:
                r = c + y[w] - y[u]
                if r < 0 <= r - tracker.step:
                    yield ids


def _one_perm_every_walk(g, b0, sigma, subset=None):
    """The one-permutation engine with every in_f copy of a turned twin
    group walked up the frame stack from its own first frame, and its first
    heap seeded by a test of every column. Returns the pivot log and, for
    each turned group, its ids and, for each in_f copy, (copy, whether it
    has left the basis, its place (frame, rank)); the best place is pushed."""
    m = g.n_edges
    edge_of_rank = rules._edge_of_rank(sigma, m)
    tracker, in_f = rules._start(g, b0, subset)
    y = tracker.y
    left_at = [0] * m
    created, cursor = [0], [m + 1]
    heaps = [[-sigma[e] for e in range(m) if in_f[e] and tracker.improves(e)]]
    heapq.heapify(heaps[0])
    turned = []
    while heaps:
        heap = heaps[-1]
        while heap:
            rank = -heapq.heappop(heap)
            if tracker.improves(edge_of_rank[rank]):
                break
        else:
            for stack in (heaps, created, cursor):
                stack.pop()
            continue
        cursor[-1] = rank
        left_at[tracker.pivot(edge_of_rank[rank])] = t = len(tracker.log)
        created.append(t)
        cursor.append(m + 1)
        heaps.append([])
        for w in tracker.shifted:
            for u, c, ids in tracker.twins[w]:
                r = c + y[w] - y[u]
                if r < 0 <= r - tracker.step:
                    copies = []
                    for x in ids:
                        if in_f[x]:
                            k = bisect_left(created, left_at[x])
                            while cursor[k] <= sigma[x]:
                                k += 1
                            copies.append((x, left_at[x] > 0, (k, sigma[x])))
                    turned.append((ids, copies))
                    if copies:
                        k, rank = max(place for _, _, place in copies)
                        heapq.heappush(heaps[k], -rank)
    return tracker.log, turned


def test_rank_engines_match_oracles_on_wide_twin_groups():
    # the one-permutation and Bland engines push one heap entry per twin
    # group that turned; on counter graphs with t = 5 and 8, and on DAGs and
    # cyclic graphs with injected twins, their logs and final trees are the
    # oracles': `_one_perm_oracle`, also under subsets that split twin
    # groups, and `_bland_linear_scan`, also with start inside a group's rank
    # spread, at its top among them. Turned groups with two or more eligible
    # copies (in_f, or rank >= start) occur, and so do split ones.
    # The one-permutation engine walks, of a group's in_f copies that never
    # left the basis, only the highest-ranked: beside `_one_perm_every_walk`,
    # which walks every copy and makes the same pivots, that copy's place is
    # the best of theirs. Groups with two or more such copies occur, and so
    # do groups where a copy that has left beats them, and split groups
    # whose highest never-left copy is outside in_f
    rng = Random(3614)
    cases = []
    for params in ((3, 2, 2, 5), (2, 2, 2, 8)):
        g, idx = cg.build_counter_graph(*params)
        for k in range(6):
            sigma = (sample_well_behaved(idx, rng) if k % 2
                     else random_permutation_fn(g.n_edges, rng))
            cases.append((g, cg.initial_tree(idx) if k < 4 else random_policy(g, rng), sigma))
    for _ in range(40):
        g = random_dag(rng, rng.randrange(3, 12), extra_edges=rng.randrange(2, 16),
                       max_cost=rng.choice((1, 2, 9)))
        g = _with_twins(rng, g)
        cases.append((g, random_policy(g, rng), random_permutation_fn(g.n_edges, rng)))
    for g, _ in _cyclic_instances(rng, 20, 40):
        g = _with_twins(rng, g)
        cases.append((g, random_policy(g, rng), random_permutation_fn(g.n_edges, rng)))
    wide = Counter()
    split = Counter()
    never_left = Counter()

    def tally(name, g, b0, log, eligible):
        for ids in _turned_groups(g, b0, log):
            n = sum(map(eligible, ids))
            wide[name] += n >= 2
            split[name] += 0 < n < len(ids)

    for g, b0, sigma in cases:
        groups = [ids for v in rules._in_twins(g) for _, _, ids in v if len(ids) > 1]
        for subset in (None, {e for e in range(g.n_edges) if rng.random() < 0.6}):
            if subset is not None:
                subset |= b0.edge_set()
            res = random_facet_one_perm(g, b0, sigma, subset=subset)
            assert (res.pivot_log, res.final_policy) == _one_perm_oracle(g, b0, sigma, subset)
            tally("1p", g, b0, res.pivot_log,
                  lambda x: subset is None or x in subset)
            log, turned = _one_perm_every_walk(g, b0, sigma, subset)
            assert log == res.pivot_log
            for ids, copies in turned:
                never = [(x, place) for x, left, place in copies if not left]
                if not never:
                    continue
                # a copy outside in_f never enters the basis, so never leaves
                top = max([x for x in ids if subset is not None and x not in subset]
                          + [x for x, _ in never], key=sigma.__getitem__)
                walked = max(never, key=lambda copy: sigma[copy[0]])
                assert walked[1] == max(place for _, place in never)
                never_left["wide"] += len(never) >= 2
                never_left["left beats"] += (max(place for _, _, place in copies)
                                             > walked[1])
                never_left["top outside"] += top != walked[0]
        starts = [1]
        if groups:
            ranks = sorted(sigma[x] for x in rng.choice(groups))
            starts += [rng.randrange(ranks[0] + 1, ranks[-1] + 1), ranks[-1]]
        for start in starts:
            res = bland_nonrec(g, b0, sigma, start=start)
            assert (res.pivot_log, res.final_policy) == _bland_linear_scan(g, b0, sigma, start)
            tally("bland", g, b0, res.pivot_log, lambda x: sigma[x] >= start)
    assert min(wide.values()) > 150 and min(split.values()) > 10, (wide, split)
    assert (never_left["wide"] > 150 and never_left["left beats"] > 30
            and never_left["top outside"] > 5), never_left


@pytest.mark.parametrize("rule", [random_facet_one_perm, bland_rec, bland_nonrec])
@pytest.mark.parametrize(
    "sigma", [[1, 1], [2, 2], [0, 1], [1, 3], [1], [1, 2, 3]],
    ids=["tie-low", "tie-high", "zero", "gap", "short", "long"],
)
def test_rank_rules_reject_a_sigma_that_is_not_a_permutation(rule, sigma):
    g = parallel_pair()
    with pytest.raises(ValueError, match="not a permutation"):
        rule(g, Policy((0, None)), sigma)


@pytest.mark.parametrize("rule", [random_facet_one_perm, bland_rec, bland_nonrec])
@pytest.mark.parametrize("sigma", [[1.0, 2, 3, 4], [True, 2, 3, 4]], ids=["float", "bool"])
def test_rank_rules_reject_a_rank_that_is_not_an_int(rule, sigma):
    # 1.0 and True both equal the rank 1, so sigma sorts like a permutation
    g = Digraph(3, 2, tails=[0, 0, 1, 0], heads=[1, 1, 2, 2], costs=[5, 1, 1, 10])
    assert sorted(sigma) == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="not a permutation"):
        rule(g, Policy((0, 2, None)), sigma)


def test_rf_expected_equality_fixed_six_edge_instance():
    # fixed 6-edge acyclic instance: expected pivots agree exactly between
    # the recursive and non-recursive formulations
    g = Digraph(
        3, 2,
        tails=[0, 0, 0, 1, 1, 0],
        heads=[1, 2, 2, 2, 2, 1],
        costs=[3, 9, 4, 6, 1, 1],
    )
    b0 = Policy((1, 3, None))
    rec = checks.expected_pivots_recursive(g, b0)
    non = checks.expected_pivots_nonrec(g, b0)
    assert rec == non
    assert rec > 1


def test_dantzig_picks_most_negative():
    g = Digraph(2, 1, tails=[0, 0, 0], heads=[1, 1, 1], costs=[9, 5, 2])
    res = dantzig(g, Policy((0, None)))
    assert res.pivot_log == [(2, 0)]


def _dantzig_scan(g, policy):
    """Dantzig's rule as an O(m) `min` over every edge's reduced cost, priced
    from a full recompute before each pivot, ties to the lowest id: the
    heap's oracle."""
    tracker = rules._PivotTracker(g, policy)
    edges = range(g.n_edges)
    while True:
        red = _priced(tracker)
        best = min(edges, key=red.__getitem__, default=None)
        if best is None or red[best] >= 0:
            break
        tracker.pivot(best)
    return tracker.result("dantzig")


def _dantzig_cases(rng):
    # counter graphs with n <= 4 and r, s, t <= 3, (2,2,2,3) among them,
    # from three starts; 300 random DAGs, every other one with injected
    # twins; 100 `_random_cyclic` graphs with a cycle and no negative cycle
    for params in itertools.product(range(1, 5), range(1, 4), range(1, 4), range(1, 4)):
        g, idx = cg.build_counter_graph(*params)
        for start in (cg.initial_tree(idx), cg.one_edge_tree(idx), random_policy(g, rng)):
            yield g, start
    for k in range(300):
        g = random_dag(rng, rng.randrange(2, 12), extra_edges=rng.randrange(0, 16),
                       max_cost=rng.choice((1, 3, 20)))
        if k % 2:
            g = _with_twins(rng, g)
        yield g, random_policy(g, rng)
    yield from _cyclic_instances(rng, 100, 40)


def test_dantzig_heap_matches_the_scan():
    # the heap pivots exactly where the scan does, ties included
    for g, start in _dantzig_cases(Random(7301)):
        got = dantzig(g, start)
        want = _dantzig_scan(g, start)
        assert got.pivot_log == want.pivot_log
        assert got.final_policy == want.final_policy


def test_dantzig_heap_raises_where_the_scan_raises():
    # on `_random_cyclic` graphs with a negative cycle, both refuse the same
    # pivot, named in the PolicyCycleError, or both end at the same tree
    rng = Random(7302)
    raised = 0
    while raised < 30:
        g = _random_cyclic(rng, rng.randrange(2, 6))
        try:
            optimal_distances_list(g)
            continue
        except NegativeCycleError:
            pass
        try:
            start = random_policy(g, rng)
        except ValueError:
            continue
        try:
            want = _dantzig_scan(g, start).pivot_log
        except PolicyCycleError as exc:
            with pytest.raises(PolicyCycleError, match=f"^{exc}$"):
                dantzig(g, start)
            raised += 1
        else:
            assert dantzig(g, start).pivot_log == want


# the sets the tests build, from (1,1,1,1) up to (6,7,7,7)
_TEST_SETS = (
    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 3, 1), (1, 2, 2, 3),
    (1, 2, 3, 4), (2, 1, 1, 1), (2, 1, 2, 1), (2, 1, 2, 2), (2, 1, 3, 2),
    (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 3, 2), (2, 2, 3, 3), (2, 2, 3, 4),
    (2, 2, 8, 3), (2, 3, 2, 1), (2, 3, 2, 2), (2, 3, 3, 3), (2, 4, 6, 8),
    (3, 1, 1, 1), (3, 1, 2, 1), (3, 1, 2, 3), (3, 2, 1, 2), (3, 2, 2, 1),
    (3, 2, 2, 2), (3, 2, 3, 1), (3, 2, 3, 4), (3, 3, 3, 3), (3, 4, 5, 6),
    (4, 1, 2, 3), (4, 2, 2, 2), (4, 3, 3, 3), (5, 2, 3, 2), (6, 2, 2, 2),
    (6, 5, 5, 5), (6, 7, 7, 7),
)


@pytest.mark.parametrize("params", _TEST_SETS)
def test_dantzig_from_the_zero_start_makes_v_minus_one_pivots(params):
    # the contrast to the facet rules: from `initial_tree`, Dantzig's rule
    # makes exactly V - 1 pivots, as many as there are non-target vertices,
    # on every counter graph measured so far: all sets with n <= 6,
    # r, s, t <= 3 and m <= 1200, and the sets up to (16,10,10,10) in
    # ROADMAP item 4
    g, idx = cg.build_counter_graph(*params)
    res = dantzig(g, cg.initial_tree(idx))
    assert res.pivots == g.n_vertices - 1
    assert tree_distances_list(g, res.final_policy.chosen) == optimal_distances_list(g)


def test_well_behaved_block_structure():
    _, idx = cg.build_counter_graph(2, 2, 2, 2)
    m = idx.n_edges
    # all b-chain edges first, then a-chain edges, then everything else
    b_edges = [e for i in idx.levels() for e in idx.b1(i)]
    a_edges = [
        e for i in idx.levels() for j in range(1, idx.r + 1) for e in idx.a1(i, j)
    ]
    rest = [e for e in range(m) if e not in set(b_edges) | set(a_edges)]
    sigma = [0] * m
    for rank, e in enumerate(b_edges + a_edges + rest, start=1):
        sigma[e] = rank
    assert is_well_behaved(idx, sigma)
    # putting one level's a edges wholly before its b chain violates (i)
    sigma_bad = [0] * m
    level_a = [e for j in range(1, idx.r + 1) for e in idx.a1(1, j)]
    others = [e for e in range(m) if e not in set(level_a)]
    for rank, e in enumerate(level_a + others, start=1):
        sigma_bad[e] = rank
    assert not is_well_behaved(idx, sigma_bad)


def test_sample_well_behaved_is_well_behaved():
    rng = Random(9)
    for params in [(2, 2, 2, 2), (3, 3, 3, 3), (4, 2, 2, 2)]:
        _, idx = cg.build_counter_graph(*params)
        for _ in range(10):
            sigma = sample_well_behaved(idx, rng)
            assert is_well_behaved(idx, sigma)
            assert sorted(sigma) == list(range(1, idx.n_edges + 1))


def test_induced_permutation_orders_levels():
    _, idx = cg.build_counter_graph(3, 1, 2, 1)
    m = idx.n_edges
    sigma = [0] * m
    # force level 2's chain first, then 3, then 1
    order = (
        list(idx.b1(2)) + list(idx.b1(3)) + list(idx.b1(1))
        + [e for e in range(m) if idx.edge_group[e][0] != "b1"]
    )
    for rank, e in enumerate(order, start=1):
        sigma[e] = rank
    hat = induced_permutation(idx, sigma)
    assert hat[2] == 1 and hat[3] == 2 and hat[1] == 3


def _chi2_sf(x: float, k: int) -> float:
    # survival function of the chi-square law with k degrees of freedom, in
    # closed form: for odd k, erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) times
    # the sum over j < (k-1)/2 of x^j / (1 * 3 * ... * (2j+1)); for even k,
    # e^(-x/2) times the sum over j < k/2 of (x/2)^j / j!
    term, total = 1.0, 0.0
    if k % 2:
        for j in range((k - 1) // 2):
            total += term
            term *= x / (2 * j + 3)
        return (math.erfc(math.sqrt(x / 2))
                + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * total)
    for j in range(k // 2):
        total += term
        term *= x / (2 * (j + 1))
    return math.exp(-x / 2) * total


def _chi2_quantile(p: float, k: int) -> float:
    # bisection on the decreasing survival function, to float resolution
    lo, hi = 0.0, 1000.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if _chi2_sf(mid, k) > 1 - p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_chi2_quantile_matches_reference_values():
    # scipy.stats.chi2.ppf(0.999, k), for even and odd k
    for k, want in ((4, 18.46682695290317), (5, 20.515005652432873),
                    (10, 29.58829844507442), (23, 49.7282324664315)):
        assert abs(_chi2_quantile(0.999, k) - want) < 1e-9, k


def test_induced_permutation_uniform_chi_square():
    n = 3
    _, idx = cg.build_counter_graph(n, 2, 2, 2)
    rng = Random(123)
    trials = 3000
    counts: dict[tuple, int] = {}
    for _ in range(trials):
        sigma = random_permutation_fn(idx.n_edges, rng)
        hat = tuple(induced_permutation(idx, sigma)[1:])
        counts[hat] = counts.get(hat, 0) + 1
    cells = math.factorial(n)
    expected = trials / cells
    stat = sum(
        (counts.get(h, 0) - expected) ** 2 / expected
        for h in counts
    ) + (cells - len(counts)) * expected
    # generous 99.9% cutoff; a uniform induced order should sit well inside
    assert stat < _chi2_quantile(0.999, cells - 1)


def test_suffix_set():
    sigma = [3, 1, 2]
    assert suffix_set(sigma, 1) == frozenset({0, 1, 2})
    assert suffix_set(sigma, 2) == frozenset({0, 2})
    assert suffix_set(sigma, 4) == frozenset()


def test_fixed_edges_optimal_policy_all_fixed():
    rng = Random(3)
    for _ in range(10):
        g = random_dag(rng, rng.randrange(3, 8), extra_edges=rng.randrange(1, 6))
        res = dantzig(g, random_policy(g, rng))
        pol = res.final_policy
        full = set(range(g.n_edges))
        fixed = fixed_vertices(g, pol, full)
        assert fixed == set(range(g.n_vertices)) - {g.target}
        for e in pol.edge_set():
            assert is_fixed_edge(g, e, pol, full)


def test_is_fixed_edge_takes_only_edge_ids():
    # True, 1.0, -1 and m are no edge ids, and each is refused as
    # `apply_switch` refuses it, where indexing would read an edge (edge 1
    # for True, the last for -1) or fail with another error
    g = Digraph(3, 2, tails=[0, 0, 1, 0], heads=[1, 1, 2, 2], costs=[5, 1, 1, 10])
    pol = Policy((1, 2, None))
    assert is_fixed_edge(g, 1, pol, [0])
    for bad in (True, 1.0, -1, g.n_edges):
        with pytest.raises(NotAnEdgeError, match=f"^no edge with id {bad!r}$"):
            is_fixed_edge(g, bad, pol, [0])


def test_fixed_edges_after_chain_switch():
    # pivots entering a b-chain edge leave everything that cannot reach the
    # chain vertex at its optimal distance
    g, idx = cg.build_counter_graph(2, 1, 2, 2)
    b0 = cg.initial_tree(idx)
    rng = Random(21)
    events = []

    def hook(rank, before, entering, after):
        events.append((rank, before, entering, after))

    sigma = sample_well_behaved(idx, rng)
    bland_rec(g, b0, sigma, frame_hook=hook)
    checked = 0
    for rank, _before, entering, after in events:
        grp = idx.edge_group[entering]
        if grp[0] != "b1":
            continue
        i, j = grp[1], grp[2]
        subset = suffix_set(sigma, rank)
        fixed = fixed_vertices(g, after, subset)
        for v in cg.vertices_behind_b(idx, i, j):
            assert v in fixed
        checked += 1
    assert checked > 0


def test_removed_chain_edge_improves_the_subgraph_optimum():
    # remove one b-chain edge, solve the subgraph by recursion from the
    # zero start; the removed edge must improve the returned tree
    g, idx = cg.build_counter_graph(2, 2, 2, 2)
    b0 = cg.initial_tree(idx)
    rng = Random(8)
    full = set(range(g.n_edges))
    for i in idx.levels():
        for j in (1, idx.r * idx.s):
            e = idx.b1(i)[j - 1]
            res = random_facet(g, b0, rng, subset=full - {e})
            assert e in improving_switches(g, res.final_policy, full)


def test_counter_lower_bound_small():
    rng = Random(6)
    for n, v in [(3, 2), (4, 2)]:
        g, idx = cg.build_counter_graph(n, v, v, v)
        b0 = cg.initial_tree(idx)
        for _ in range(15):
            sigma = sample_well_behaved(idx, rng)
            hat = induced_permutation(idx, sigma)
            bound = counters.rand_count_one_perm(range(1, n + 1), hat)
            assert random_facet_one_perm(g, b0, sigma).pivots >= bound
            assert bland_nonrec(g, b0, sigma).pivots >= bound


def _drop_hypotheses_hold(g, idx, sigma, ell, pol, p) -> bool:
    sub = suffix_set(sigma, ell)
    union = sub | pol.edge_set()
    if cg.reset_level(idx, union) >= p:
        return False
    if rules.sigma_a1(idx, sigma, p) < ell:
        return False
    for i in range(p + 1, idx.n + 1):
        if cg.bit_value(idx, i, union, pol) != cg.BIT_ONE:
            return False
    in_b = pol.edge_set()
    j_prime = None
    for j, e in enumerate(idx.b1(p), start=1):
        if j_prime is None:
            if e not in in_b:
                continue
            j_prime = j
        elif e not in in_b:
            return False
    if j_prime is None:
        return False
    for j, e in enumerate(idx.b1(p), start=1):
        if j < j_prime and e not in sub:
            return False
    fixed = fixed_vertices(g, pol, sub)
    return cg.vertices_behind_b(idx, p, j_prime) <= fixed | {g.target}


def test_drop_containment_on_traced_runs():
    # states reached right after a chain switch that satisfy the reset and
    # fixedness hypotheses keep lower-level chain edges out of the returned
    # tree unless they are still available
    rng = Random(14)
    qualified = 0
    for n in (2, 3):
        g, idx = cg.build_counter_graph(n, 2, 2, 2)
        b0 = cg.initial_tree(idx)
        for _ in range(6):
            sigma = sample_well_behaved(idx, rng)
            events = []

            def hook(rank, before, entering, after):
                events.append((rank, entering, after))

            bland_rec(g, b0, sigma, frame_hook=hook)
            for rank, entering, after in events:
                grp = idx.edge_group[entering]
                if grp[0] != "b1":
                    continue
                p = grp[1]
                if not _drop_hypotheses_hold(g, idx, sigma, rank, after, p):
                    continue
                qualified += 1
                returned = bland_rec(g, after, sigma, ell=rank).final_policy
                sub = suffix_set(sigma, rank)
                for i in range(1, p):
                    assert set(idx.b1(i)) & returned.edge_set() <= sub
    assert qualified > 10


def test_group_statistics_read_float_keys_like_their_ranks():
    # sigma_b1, sigma_a1 and sigma_multi take any distinct keys over the
    # edges, so the well-behaved test and the induced order see the same
    # comparisons on a sampler's float keys as on their ranks
    rng = Random(17)
    seen = set()
    for params in ((3, 2, 2, 2), (4, 1, 2, 3), (2, 3, 3, 3)):
        _, idx = cg.build_counter_graph(*params)
        m = idx.n_edges
        for trial in range(30):
            if trial % 2:
                keys = [rng.random() for _ in range(m)]
            else:
                # float keys in the order of a well-behaved sample
                sigma = sample_well_behaved(idx, rng)
                keys = [(rank - rng.random()) / m for rank in sigma]
            ranks = [0] * m
            for rank, e in enumerate(sorted(range(m), key=keys.__getitem__), start=1):
                ranks[e] = rank
            wb = is_well_behaved(idx, keys)
            assert wb == is_well_behaved(idx, ranks)
            assert induced_permutation(idx, keys) == induced_permutation(idx, ranks)
            seen.add(wb)
    assert seen == {True, False}


# The sampler before its statistics moved onto the index's GroupLayout,
# kept verbatim with the generator statistics it read: the oracle for the
# draws of `sample_well_behaved`.
def _oracle_sigma_b1(idx, keys, i):
    return min(keys[e] for e in idx.b1(i))


def _oracle_sigma_a1(idx, keys, i):
    return max(min(keys[e] for e in idx.a1(i, j)) for j in range(1, idx.r + 1))


def _oracle_sigma_multi(keys, group):
    return max(keys[e] for e in group)


def _oracle_is_well_behaved(idx, sigma):
    level_a = [_oracle_sigma_a1(idx, sigma, i) for i in idx.levels()]
    if any(_oracle_sigma_b1(idx, sigma, i) >= a for i, a in zip(idx.levels(), level_a)):
        return False
    threshold = max(level_a)
    return all(_oracle_sigma_multi(sigma, grp) > threshold for grp in idx.multi_edges)


def _oracle_sample_well_behaved(idx, rng):
    while True:
        keys = [rng.random() for _ in range(idx.n_edges)]
        level_a = [_oracle_sigma_a1(idx, keys, i) for i in idx.levels()]
        for i, a in zip(idx.levels(), level_a):
            if _oracle_sigma_b1(idx, keys, i) >= a:
                b_edges = idx.b1(i)
                keys[b_edges[rng.randrange(len(b_edges))]] = rng.random() * a
        threshold = max(level_a)
        for grp in idx.multi_edges:
            if _oracle_sigma_multi(keys, grp) <= threshold:
                pick = grp[rng.randrange(len(grp))]
                keys[pick] = threshold + rng.random() * (1.0 - threshold)
        order = sorted(range(idx.n_edges), key=keys.__getitem__)
        sigma = [0] * idx.n_edges
        for rank, e in enumerate(order, start=1):
            sigma[e] = rank
        # float key collisions could break a strict comparison; retry if so
        if _oracle_is_well_behaved(idx, sigma):
            return sigma


# the sets the sampler was measured on, and criterion 9's eight
_SAMPLER_SETS = (
    (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (3, 1, 2, 2), (2, 3, 1, 4),
) + tuple((n, v, v, v) for n in (3, 4, 5, 6) for v in (2, 3))


def _count_fallbacks(monkeypatch) -> list:
    # the answers of the sampler's final `is_well_behaved` test, one per call
    seen = []

    def counted(idx, sigma):
        seen.append(is_well_behaved(idx, sigma))
        return seen[-1]

    monkeypatch.setattr(rules, "is_well_behaved", counted)
    return seen


@pytest.mark.parametrize("params", _SAMPLER_SETS)
def test_sampler_draws_the_oracle_bits(params, monkeypatch):
    # the same sigma and the same generator state, draw after draw; on these
    # seeds every repair lands strictly inside its bound, so the final test
    # never runs
    _, idx = cg.build_counter_graph(*params)
    fallbacks = _count_fallbacks(monkeypatch)
    for seed in range(150):
        ours, oracle = Random(seed), Random(seed)
        for _ in range(2):
            assert sample_well_behaved(idx, ours) == _oracle_sample_well_behaved(idx, oracle)
            assert ours.getstate() == oracle.getstate()
    assert fallbacks == []


def test_sampler_draws_the_oracle_bits_on_a_large_set():
    _, idx = cg.build_counter_graph(8, 9, 9, 9)
    for seed in range(5):
        ours, oracle = Random(seed), Random(seed)
        assert sample_well_behaved(idx, ours) == _oracle_sample_well_behaved(idx, oracle)
        assert ours.getstate() == oracle.getstate()


class _ScriptedRandom(Random):
    """A seeded generator whose first `random()` calls return a script.
    Defining `getrandbits` keeps `randrange` on the generator's bits, not on
    the scripted `random()`."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def random(self):
        return self.script.pop(0) if self.script else super().random()

    def getrandbits(self, k):
        return super().getrandbits(k)


def _scripted_keys(idx, b, a, multi, low_group=None, low=None):
    # one key per edge by its group: b for b-chain edges, a for a-chain
    # edges, multi for multi-edges, except low for every copy of low_group
    keys = []
    for grp in idx.edge_group:
        if grp[0] == "b1":
            keys.append(b)
        elif grp[0] == "a1":
            keys.append(a)
        else:
            keys.append(low if grp[1] == low_group else multi)
    return keys


def _multi_group_beside_a_chains(idx, below: bool) -> int:
    # a multi-edge whose copies all have lower (or all higher) ids than
    # every a-chain edge, so a tie with an a-chain key breaks against it
    # (or for it) in the id-stable sort
    a_ids = [e for e, grp in enumerate(idx.edge_group) if grp[0] == "a1"]
    for g, ids in enumerate(idx.multi_edges):
        if (max(ids) < min(a_ids)) if below else (min(ids) > max(a_ids)):
            return g
    raise AssertionError("no such multi-edge")


@pytest.mark.parametrize("t", [1, 3])
@pytest.mark.parametrize("case", ["b-chain on its bound", "multi tie kept",
                                  "multi tie redrawn"])
def test_sampler_tests_a_repair_that_lands_on_its_bound(case, t, monkeypatch):
    # a repaired key equal to its bound proves nothing, so the sampler runs
    # the final test, which keeps the sample or rejects it and redraws; the
    # oracle always runs it, so both make the same draws
    _, idx = cg.build_counter_graph(1, 1, 1, t)
    if case == "b-chain on its bound":
        # every a-chain key is 0.0, so the b chain needs a repair, and its
        # new key 0.7 * 0.0 lands on the bound 0.0
        script = _scripted_keys(idx, b=0.5, a=0.0, multi=0.9) + [0.7]
        want = [True]  # kept at the test
    else:
        # one multi-edge sorts below the threshold 0.5, and its repaired
        # copy lands on 0.5: the tie breaks by id, against the sample when
        # the copy's id is below the a-chain edge's
        below = case == "multi tie redrawn"
        g = _multi_group_beside_a_chains(idx, below)
        script = _scripted_keys(idx, b=0.1, a=0.5, multi=0.9, low_group=g, low=0.3)
        script.append(0.0)
        # the redraw's repairs are strict, so it skips the test
        want = [False] if below else [True]
    fallbacks = _count_fallbacks(monkeypatch)
    ours, oracle = _ScriptedRandom(5, script), _ScriptedRandom(5, script)
    sigma = sample_well_behaved(idx, ours)
    assert sigma == _oracle_sample_well_behaved(idx, oracle)
    assert (ours.getstate(), ours.script) == (oracle.getstate(), oracle.script)
    assert ours.script == []
    assert fallbacks == want
    assert _oracle_is_well_behaved(idx, sigma)


@pytest.mark.parametrize(
    "params", [(1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 2, 2), (2, 3, 1, 4), (3, 2, 2, 2)]
)
def test_vector_statistics_equal_the_scalar_ones(params):
    # on float keys and on their ranks, each vector form lists its scalar
    # form, which equals the generator definition the oracle reads
    _, idx = cg.build_counter_graph(*params)
    rng = Random(sum(params))
    m = idx.n_edges
    for _ in range(20):
        keys = [rng.random() for _ in range(m)]
        ranks = [0] * m
        for rank, e in enumerate(sorted(range(m), key=keys.__getitem__), start=1):
            ranks[e] = rank
        for key_list in (keys, ranks):
            b = [rules.sigma_b1(idx, key_list, i) for i in idx.levels()]
            a = [rules.sigma_a1(idx, key_list, i) for i in idx.levels()]
            top = [rules.sigma_multi(idx, key_list, g)
                   for g in range(len(idx.multi_edges))]
            assert b == [_oracle_sigma_b1(idx, key_list, i) for i in idx.levels()]
            assert a == [_oracle_sigma_a1(idx, key_list, i) for i in idx.levels()]
            assert top == [_oracle_sigma_multi(key_list, grp) for grp in idx.multi_edges]
            assert rules.sigma_b1_all(idx, key_list) == b
            assert rules.sigma_a1_all(idx, key_list) == a
            assert list(rules.sigma_multi_all(idx, key_list)) == top
            assert is_well_behaved(idx, key_list) == _oracle_is_well_behaved(idx, key_list)


# The replay through which a traced run once emitted its computation tree,
# kept as an oracle for the frame records: descent k of the eager engine
# places frame k's revealed columns at their ranks and its other candidates
# at the untaken ranks in id order, so it makes the run's pivots.
def _revealed_order(frames: list):
    """The `arrange` of that replay. Raises AssertionError when a descent's
    candidates cannot be frame k's."""
    it = iter(frames)

    def arrange(avail) -> list[int]:
        size, revealed, _depth = next(it, (None, None, None))
        if size != len(avail) or not revealed.keys() <= set(avail):
            raise AssertionError("replayed descent differs from the run's frame")
        order = [None] * size
        for x, rank in revealed.items():
            order[rank - 1] = x
        rest = iter(sorted(set(avail) - revealed.keys()))
        return [next(rest) if x is None else x for x in order]

    return arrange


def _expand_trace(g, policy, frames, subset=None) -> tuple[list, list]:
    """A traced run's frames replayed in `rules._facet_collapsed`: the
    replay's pivot log and its event stream, ("pick", e) per removal,
    ("leaf",) per descent and ("up", pivoted, leaving) per test."""
    tracker, in_f = rules._start(g, policy, subset)
    events: list = []
    rules._facet_collapsed(tracker, _priced(tracker), in_f, _revealed_order(frames), events)
    return tracker.log, events


# SHA-256 of the repr of each group's seeded results (see _pinned_logs),
# recorded when every shuffle was `Random.shuffle`; a change of a
# random-number discipline or of the facet engine's pivot choice shows up
# here as a changed digest; "sample-well-behaved" pins the sampler's draws and
# the bit order they induce, recorded before the group statistics moved to
# one set of helpers; "random-facet", "random-facet-traced" and "lp-facet"
# were recorded when those runs moved to the lazily ranked engine, whose
# draws (one rank per column that improves) differ from a shuffle per descent;
# "random-facet-traced" hashes each traced run's pivot log with the event
# stream `_expand_trace` makes of its frames, the stream the traced run
# itself reported when it was recorded
PINNED_LOG_DIGESTS = {
    "random-facet": "13a5ae85ad16afbab390c3c5aa37ad2a35bd494e5f1026af728c16b812a5d4aa",
    "random-facet-traced": "6de0ce374e0424aae693f0c84fe62ebaaa06d540d5083d53deab63e0f179abb4",
    "random-facet-1p": "55395177be4b10cb4ec2a1f72d470be4dd3d3acf3327c545f82ac2f3ed19f7ae",
    "random-bland": "dac7146497c74a67d014babf130f7499f9d0c27d420267724c01565507ffa218",
    "random-facet-nonrec": "57cbbc25dfecc9eae49365ac2d7c4a6949b2be2877f2d86187b4b032ca9157c5",
    "follow-canonical": "c69780a0c7674be8aa60be9e471dba445e5698b05ee091ef1be1d3d46aad7218",
    "lp-facet": "e6087e311f1045390d4f2e0444aa3a7bfb81c3f044846003bc45f9e5110bb46c",
    "sample-well-behaved": "7829db026c4ba3f26038e3ed339bc2f8d13ba57bbfc2659f5ee7481a57e6db1b",
}


def _pinned_logs():
    rng = Random(4242)
    instances = []
    g, idx = cg.build_counter_graph(3, 2, 2, 2)
    instances.append((g, cg.initial_tree(idx)))
    for _ in range(10):
        g = random_dag(rng, rng.randrange(3, 10), extra_edges=rng.randrange(2, 12))
        instances.append((g, random_policy(g, rng)))
    groups = {name: [] for name in (
        "random-facet", "random-facet-traced", "random-facet-1p",
        "random-bland", "random-facet-nonrec", "follow-canonical", "lp-facet",
        "sample-well-behaved",
    )}
    for k, (g, b0) in enumerate(instances):
        for seed in range(3):
            s = 100 * k + seed
            for rule in ("random-facet", "random-facet-1p", "random-bland",
                         "random-facet-nonrec"):
                res = experiments.run_rule(rule, g, b0, s)
                groups[rule].append((res.pivot_log, res.sigma))
            traced = random_facet(g, b0, Random(s), trace=True)
            log, events = _expand_trace(g, b0, traced.frames)
            assert log == traced.pivot_log
            groups["random-facet-traced"].append((traced.pivot_log, events))
    g, idx = cg.build_counter_graph(4, 2, 2, 2)
    for seed in range(10):
        out = comptrees.follow_canonical(g, idx, [3, 1], Random(seed))
        groups["follow-canonical"].append((out.kind, out.detail, out.path, out.pivots_done))
    for k, (g, b0) in enumerate(instances[1:6]):
        prob, _, _ = lp.sp_to_lp(g)
        groups["lp-facet"].append(
            lp.random_facet_lp(prob, range(g.n_edges), lp.tree_basis(g, b0), Random(k))
        )
    rng = Random(4242)
    for params in ((3, 2, 2, 2), (4, 3, 3, 3)):
        _, idx = cg.build_counter_graph(*params)
        for _ in range(8):
            sigma = sample_well_behaved(idx, rng)
            groups["sample-well-behaved"].append((sigma, induced_permutation(idx, sigma)))
    return groups


def test_seeded_pivot_logs_pinned():
    got = {
        name: hashlib.sha256(repr(results).encode()).hexdigest()
        for name, results in _pinned_logs().items()
    }
    assert got == PINNED_LOG_DIGESTS
