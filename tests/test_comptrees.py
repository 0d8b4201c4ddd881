"""Computation trees, path indices, the canonical follower, Monte Carlo."""

from itertools import repeat
from random import Random

import pytest

from pivotlab import comptrees, counter_graph as cg, rules
from pivotlab.comptrees import (
    BAD1,
    BAD2,
    BAD3,
    CANONICAL,
    EXHAUSTED,
    L,
    MISSING_CHILD,
    NOT_APPLICABLE,
    R,
    CanonicalOutcome,
    ComputationTree,
    classify_path,
    estimate_canonical_probability,
    follow_canonical,
    record_tree,
    sigma_p,
    wilson_interval,
)
from pivotlab.counter_graph import CounterGraphIndex
from pivotlab.graphs import (
    Digraph,
    Policy,
    PolicyCycleError,
    random_dag,
    random_policy,
    tree_distances_list,
)
from pivotlab.rules import _facet_collapsed, _PivotTracker, random_facet, shuffled_order


def parallel_pair():
    return Digraph(2, 1, tails=[0, 0], heads=[1, 1], costs=[5, 2])


def test_trivial_tree_single_node():
    g = Digraph(2, 1, tails=[0], heads=[1], costs=[1])
    run = random_facet(g, Policy((0, None)), Random(0), trace=True)
    tree = record_tree(run)
    assert tree.n_nodes == 1
    assert tree.picked[0] is None
    assert tree.switch_count() == 0


def test_parallel_pair_tree_shape():
    g = parallel_pair()
    run = random_facet(g, Policy((0, None)), Random(0), trace=True)
    tree = record_tree(run)
    assert run.pivots == 1
    assert tree.switch_count() == 1
    assert tree.picked[0] == 1
    assert tree.left[0] is not None and tree.right[0] is not None
    tree.validate(g, Policy((0, None)))


def test_record_tree_requires_trace():
    g = parallel_pair()
    run = random_facet(g, Policy((0, None)), Random(0))
    with pytest.raises(ValueError):
        record_tree(run)


def test_switch_count_matches_pivots_and_invariants():
    rng = Random(13)
    g, idx = cg.build_counter_graph(2, 2, 2, 2)
    b0 = cg.initial_tree(idx)
    for k in range(8):
        run = random_facet(g, b0, Random(1000 + k), trace=True)
        tree = record_tree(run)
        assert tree.switch_count() == run.pivots
    for _ in range(8):
        gd = random_dag(rng, rng.randrange(3, 8), extra_edges=rng.randrange(1, 8))
        sd = random_policy(gd, rng)
        run = random_facet(gd, sd, Random(rng.randrange(10**6)), trace=True)
        tree = record_tree(run)
        assert tree.switch_count() == run.pivots
        tree.validate(gd, sd)


def test_sigma_p_edges_and_groups():
    _, idx = cg.build_counter_graph(2, 2, 2, 2)
    b1 = idx.b1(1)
    a11 = idx.a1(1, 1)
    a12 = idx.a1(1, 2)
    path = [(b1[2], "R"), (a11[0], "L"), (a12[1], "L"), (b1[0], "L")]
    assert sigma_p(idx, path, b1[2]) == 0
    assert sigma_p(idx, path, 9999 if 9999 < idx.n_edges else a11[1]) is None
    assert sigma_p(idx, path, ("b1", 1)) == 0
    assert sigma_p(idx, path, ("b1", 2)) is None
    assert sigma_p(idx, path, ("a1", 1, 1)) == 1
    assert sigma_p(idx, path, ("a1", 1)) == 2  # max over chains of first touch
    assert sigma_p(idx, path, ("a1", 2)) is None
    # True would index edge 1; a bool is no edge id, and no group either
    for target in (True, ("b2", 1), ()):
        with pytest.raises(ValueError, match="unknown sigma_p target"):
            sigma_p(idx, path, target)


def test_sigma_p_matches_double_loop_oracle():
    rng = Random(3)
    _, idx = cg.build_counter_graph(2, 2, 3, 2)
    edges = list(range(idx.n_edges))

    def first(path, group):
        vals = [pos for pos, (e, _) in enumerate(path) if e in set(group)]
        return min(vals) if vals else None

    for trial in range(40):
        rng.shuffle(edges)
        path = [(e, "L") for e in edges[: rng.randrange(5, 30)]]
        if trial % 2:
            # repeat some edges later on the path: the first position counts
            path += [(e, "R") for e, _ in rng.sample(path, rng.randrange(1, 5))]
        for e in range(idx.n_edges):
            assert sigma_p(idx, path, e) == first(path, [e])
        for i in idx.levels():
            assert sigma_p(idx, path, ("b1", i)) == first(path, idx.b1(i))
            firsts = []
            for j in range(1, idx.r + 1):
                chain = first(path, idx.a1(i, j))
                assert sigma_p(idx, path, ("a1", i, j)) == chain
                firsts.append(chain)
            oracle = None if None in firsts else max(firsts)
            assert sigma_p(idx, path, ("a1", i)) == oracle


def test_follow_empty_schedule_not_applicable():
    g, idx = cg.build_counter_graph(1, 1, 1, 1)
    out = follow_canonical(g, idx, [], Random(0))
    assert out.kind == NOT_APPLICABLE


def test_follow_rejects_bad_levels():
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    with pytest.raises(ValueError):
        follow_canonical(g, idx, [5], Random(0))


# The follower's per-pick bookkeeping before it became flat lists, kept
# verbatim as the rebuild oracle's.
class _FollowState:
    """Incremental bookkeeping for the canonical follower."""

    def __init__(self, idx: CounterGraphIndex, s_levels: list[int]):
        self.idx = idx
        self.s_levels = s_levels  # descending
        self.s_set = set(s_levels)
        self.b_seen = {i: False for i in idx.levels()}
        self.chunk_covered = {
            (i, j): False for i in idx.levels() for j in range(1, idx.r + 1)
        }
        self.cover_remaining = {i: idx.r for i in idx.levels()}
        self.chunk_in_f = {
            (i, j): idx.s for i in idx.levels() for j in range(1, idx.r + 1)
        }
        self.full_chunks = {i: idx.r for i in idx.levels()}
        self.multi_in_f = list(map(len, idx.multi_edges))

    def decide(self, e: int) -> tuple[str, str | None, object]:
        """Direction for the pick plus a terminal classification, if any.

        Returns (direction, stop_kind, detail); direction is meaningful even
        when the path stops here. Mutates the coverage bookkeeping, but not
        the in-subset counters (the caller removes only on L steps).
        """
        idx = self.idx
        grp = idx.edge_group[e]
        kind = grp[0]
        if kind == "b1":
            i = grp[1]
            first = not self.b_seen[i]
            self.b_seen[i] = True
            direction = R if i in self.s_set else L
            if first and i in self.s_set:
                for pos, lvl in enumerate(self.s_levels):
                    if lvl == i:
                        break
                    if not self.b_seen[lvl]:
                        return direction, BAD1, pos + 1  # schedule position q
            return direction, None, None
        if kind == "a1":
            i, j = grp[1], grp[2]
            chunk_full = self.chunk_in_f[(i, j)] == idx.s
            remaining_full = self.full_chunks[i] - (1 if chunk_full else 0)
            direction = R if (i in self.s_set and remaining_full == 0) else L
            if not self.chunk_covered[(i, j)]:
                self.chunk_covered[(i, j)] = True
                self.cover_remaining[i] -= 1
                if self.cover_remaining[i] == 0:
                    if not self.b_seen[i]:
                        return direction, BAD2, i
                    if self.s_levels and i == self.s_levels[-1]:
                        # schedule complete; the final step must be a switch
                        stop = CANONICAL if direction == R else MISSING_CHILD
                        return direction, stop, i
            return direction, None, None
        # multi-edge copy
        gix = grp[1]
        if self.multi_in_f[gix] == 1:
            return L, BAD3, gix  # removing the last copy breaks the subgraph
        return L, None, None

    def removed(self, e: int) -> None:
        """Account an L-step removal."""
        idx = self.idx
        grp = idx.edge_group[e]
        if grp[0] == "a1":
            i, j = grp[1], grp[2]
            if self.chunk_in_f[(i, j)] == idx.s:
                self.full_chunks[i] -= 1
            self.chunk_in_f[(i, j)] -= 1
        elif grp[0] == "multi":
            self.multi_in_f[grp[1]] -= 1


def _improves(g, tracker, e):
    """Whether e improves the kernel's tree, from a full recompute of its
    distances rather than the kernel's reduced costs."""
    d = tree_distances_list(g, tracker.chosen)
    return g.costs[e] + d[g.heads[e]] < d[g.tails[e]]


def _follow_canonical_rebuild(g, idx, s_levels, rng, start=None):
    """The follower with its pick list rebuilt from every edge at each path
    step, and each switch tested on recomputed distances; the oracle for the
    kept list and the kernel's reduced costs."""
    s_sorted = sorted(set(s_levels), reverse=True)
    if start is None:
        start = cg.initial_tree(idx)
    state = _FollowState(idx, s_sorted)
    tracker = _PivotTracker(g, start)
    in_f = [True] * g.n_edges
    path = []
    while True:
        cands = sorted(tracker.nonbasic(in_f))
        if not cands:
            return CanonicalOutcome(EXHAUSTED, None, path, len(tracker.log))
        e = cands[rng.randrange(len(cands))]
        direction, stop, detail = state.decide(e)
        path.append((e, direction))
        if stop == CANONICAL:
            in_f[e] = False
            _facet_collapsed(tracker, in_f, shuffled_order(rng))
            in_f[e] = True
            if not _improves(g, tracker, e):
                return CanonicalOutcome(MISSING_CHILD, detail, path, len(tracker.log))
            tracker.pivot(e)
            return CanonicalOutcome(CANONICAL, detail, path, len(tracker.log))
        if stop is not None:
            return CanonicalOutcome(stop, detail, path, len(tracker.log))
        if direction == L:
            state.removed(e)
            in_f[e] = False
            continue
        in_f[e] = False
        _facet_collapsed(tracker, in_f, shuffled_order(rng))
        in_f[e] = True
        if not _improves(g, tracker, e):
            return CanonicalOutcome(MISSING_CHILD, None, path, len(tracker.log))
        tracker.pivot(e)


# counter graphs and schedules the follower's checks run on, with the paths
# each check follows; the tiny chains of (2,1,1,1) make failures common, and
# (2,3,12,4) with [2, 1] reaches many canonical stops, at about 9 ms a path
FOLLOW_CONFIGS = (((2, 1, 1, 1), [2, 1], 300), ((4, 2, 2, 2), [3, 1], 100),
                  ((6, 2, 2, 2), [4, 2], 100), ((3, 3, 3, 3), [2], 100),
                  ((2, 3, 12, 4), [2, 1], 40))


def _follows(first_seed):
    """(g, idx, levels, seed, start) per path: each config from the initial
    tree and from random start trees."""
    for params, levels, paths in FOLLOW_CONFIGS:
        g, idx = cg.build_counter_graph(*params)
        starts = [None] + [random_policy(g, Random(k)) for k in range(4)]
        for seed in range(first_seed, first_seed + paths):
            yield g, idx, levels, seed, starts[seed % len(starts)]


def test_follower_matches_per_step_rebuild():
    # same outcomes, paths and pivot counts from the same seed
    kinds = set()
    for g, idx, levels, seed, start in _follows(0):
        got = follow_canonical(g, idx, levels, Random(seed), start)
        assert got == _follow_canonical_rebuild(g, idx, levels, Random(seed), start)
        kinds.add(got.kind)
    assert {CANONICAL, BAD1, BAD2, BAD3} <= kinds


def test_follower_matches_posthoc_classification():
    # the post-hoc reading of each path gives the follower's kind, and its
    # detail too unless the path misses its last child
    kinds = set()
    for g, idx, levels, seed, start in _follows(1000):
        out = follow_canonical(g, idx, levels, Random(seed), start)
        kind, detail = classify_path(idx, levels, out.path)
        assert kind == out.kind
        assert kind == MISSING_CHILD or detail == out.detail
        kinds.add(kind)
    assert {CANONICAL, BAD1, BAD2, BAD3} <= kinds


def test_follower_checks_the_start_before_its_first_right_step(monkeypatch):
    # the kernel is built at the first right step, so a path that stops
    # earlier never builds it; the start is still checked up front, and
    # such a path reports no pivots
    g, idx = cg.build_counter_graph(4, 2, 2, 2)
    b0 = cg.initial_tree(idx)
    early = []
    for seed in range(60):
        out = follow_canonical(g, idx, [3, 1], Random(seed), b0)
        if all(d == L for _, d in out.path[:-1]) and out.kind in (BAD1, BAD2, BAD3):
            assert out.pivots_done == 0
            early.append(seed)
    assert len(early) >= 10
    chosen = list(b0.chosen)
    u = next(v for v, e in enumerate(chosen) if e is not None)
    w = next(v for v, e in enumerate(chosen) if e is not None and v != u)
    broken = [chosen[:u] + [None] + chosen[u + 1:],  # no edge at u
              chosen[:u] + [chosen[w]] + chosen[u + 1:]]  # u takes w's edge
    # the start's snapshot is the follower's one check: with its tree walk
    # patched out, every one of these paths runs from a broken start (on a
    # fresh graph, since the walk's unchecked result is stored)
    g_unchecked, _ = cg.build_counter_graph(4, 2, 2, 2)
    monkeypatch.setattr(rules, "_tree_walk", lambda g, chosen: (
        [0] * g.n_vertices, [[] for _ in range(g.n_vertices)]))
    for chosen in broken:
        for seed in early:
            follow_canonical(g_unchecked, idx, [3, 1], Random(seed),
                             Policy(tuple(chosen)))
    monkeypatch.undo()
    good = {seed: follow_canonical(g, idx, [3, 1], Random(seed), b0)
            for seed in range(60)}
    for chosen in broken:
        for seed in range(60):
            # a broken start raises on every call, also right after the good
            # start was stored, and it leaves the good start's snapshot
            assert g._start_tree.start is b0
            for _ in range(2):
                with pytest.raises(PolicyCycleError, match="no valid chosen edge"):
                    follow_canonical(g, idx, [3, 1], Random(seed),
                                     Policy(tuple(chosen)))
            assert g._start_tree.start is b0
            # and the good start still runs after it
            assert follow_canonical(g, idx, [3, 1], Random(seed), b0) == good[seed]


def test_follower_finds_bad2_and_matches_hand_reading():
    # seed search once, then pin: a run whose followed path completes some
    # level's a chains before touching its b chain
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    hit = None
    for seed in range(200):
        out = follow_canonical(g, idx, [2, 1], Random(seed))
        if out.kind == BAD2:
            hit = (seed, out)
            break
    assert hit is not None
    _, out = hit
    level = out.detail
    last_edge, _ = out.path[-1]
    assert idx.edge_group[last_edge][0] == "a1"
    assert idx.edge_group[last_edge][1] == level
    picked = {e for e, _ in out.path}
    assert not (picked & set(idx.b1(level)))


def test_follower_finds_bad3_and_matches_hand_reading():
    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    hit = None
    for seed in range(200):
        out = follow_canonical(g, idx, [2, 1], Random(seed))
        if out.kind == BAD3:
            hit = out
            break
    assert hit is not None
    group = idx.multi_edges[hit.detail]
    removed = {e for e, d in hit.path if d == "L"}
    assert set(group) <= removed
    assert hit.path[-1][0] in group


def test_bad2_bad3_never_both():
    # per-run classification is a single event; the terminal pick's kind
    # separates the two failure classes
    rng = Random(99)
    g, idx = cg.build_counter_graph(2, 1, 2, 1)
    for _ in range(200):
        out = follow_canonical(g, idx, [1], rng)
        if out.kind == BAD2:
            assert idx.edge_group[out.path[-1][0]][0] == "a1"
        if out.kind == BAD3:
            assert idx.edge_group[out.path[-1][0]][0] == "multi"


def test_canonical_probability_p1_bound():
    # one-level schedule with chains sized to the prescription
    # s = 2p(r+1)+t at p=1: canonical frequency clears 1/2 - 3se easily
    n, r, t = 2, 3, 4
    s = 2 * 1 * (r + 1) + t
    g, idx = cg.build_counter_graph(n, r, s, t)
    est = estimate_canonical_probability(g, idx, [2], repeat(Random(7), 80))
    se = (est.canonical_freq * (1 - est.canonical_freq) / est.trials) ** 0.5
    assert est.canonical_freq >= 0.5 - 3 * se
    assert est.good1_freq == 1.0  # single-level schedules cannot misorder
    assert est.wilson_low <= est.canonical_freq <= est.wilson_high


def test_good1_bound_two_level_schedule():
    # with two scheduled levels, misordering avoids probability at least
    # 1/p! = 1/2, up to Monte Carlo noise
    g, idx = cg.build_counter_graph(2, 2, 8, 3)
    trials = 200
    est = estimate_canonical_probability(g, idx, [2, 1], repeat(Random(5), trials))
    se = (est.good1_freq * (1 - est.good1_freq) / trials) ** 0.5
    assert est.good1_freq >= 0.5 - 3 * se


def test_missing_child_never_happens_here():
    rng = Random(31)
    g, idx = cg.build_counter_graph(2, 2, 3, 2)
    for _ in range(120):
        out = follow_canonical(g, idx, [2], rng)
        assert out.kind not in (MISSING_CHILD, EXHAUSTED)


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert 0.4 < low < 0.5 < high < 0.6
    assert wilson_interval(0, 0) == (0.0, 1.0)
    low0, _ = wilson_interval(0, 20)
    assert low0 == 0.0


def test_from_events_rejects_garbage():
    with pytest.raises(ValueError):
        ComputationTree.from_events([("bogus",)])
