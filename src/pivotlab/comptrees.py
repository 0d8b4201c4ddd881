"""Computation trees of the facet-removal recursion and canonical-path
analysis on counter graphs.

A traced run of the fresh-randomness facet rule yields a binary computation
tree: each node is one recursive call, the left child drops the picked edge,
and the right child (present exactly when the pick improves the tree the
first call returned) performs the switch. Right children therefore count
pivots.

The canonical follower watches a single root path of such a run: given a
set S of bit levels (descending), it extends the path left or right
according to the counting schedule for S and stops when the path either
completes the schedule ("canonical") or first becomes impossible to extend
(one of three failure events). Only the followed path is kept in memory;
subtrees hanging off it run to completion through the ordinary solver.

The path indices of edges and edge groups (`sigma_p`, and the post-hoc
`classify_path`) turn a path into one key list, each edge's first position
on it, and read the group statistics of `rules` (`sigma_b1`, `sigma_a1`)
on that list, so a permutation and a path share one definition of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .counter_graph import CounterGraphIndex, initial_tree
from .graphs import Digraph, Policy, apply_switch, improving_switches
from .rules import (
    RunResult,
    _facet_collapsed,
    _PivotTracker,
    _start_tree,
    randbelow_exact,
    shuffled_order,
    sigma_a1,
    sigma_b1,
)


class ComputationTree:
    """Binary recursion tree stored as parallel arrays.

    Per node: the picked edge (None at leaves), child ids, and for nodes
    with a right child the leaving edge. Edge sets per node are implicit:
    the left child's set drops the picked edge, the right child's set is
    unchanged.
    """

    def __init__(self):
        self.picked: list[int | None] = []
        self.left: list[int | None] = []
        self.right: list[int | None] = []
        self.leaving: list[int | None] = []

    def _new_node(self) -> int:
        self.picked.append(None)
        self.left.append(None)
        self.right.append(None)
        self.leaving.append(None)
        return len(self.picked) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.picked)

    def switch_count(self) -> int:
        return sum(1 for u in range(self.n_nodes) if self.right[u] is not None)

    @classmethod
    def from_events(cls, events: list) -> "ComputationTree":
        """Rebuild the tree from a traced run's event stream."""
        tree = cls()
        cur = tree._new_node()
        open_nodes: list[int] = []
        for ev in events:
            kind = ev[0]
            if kind == "pick":
                tree.picked[cur] = ev[1]
                open_nodes.append(cur)
                child = tree._new_node()
                tree.left[cur] = child
                cur = child
            elif kind == "leaf":
                cur = -1  # resolved; the next event must be an "up"
            elif kind == "up":
                u = open_nodes.pop()
                _, pivoted, leaving = ev
                if pivoted:
                    child = tree._new_node()
                    tree.right[u] = child
                    tree.leaving[u] = leaving
                    cur = child
                else:
                    cur = -1
            else:
                raise ValueError(f"unknown trace event {ev!r}")
        if open_nodes:
            raise ValueError("trace ended with unbalanced calls")
        return tree

    def validate(self, g: Digraph, start: Policy, edges=None) -> None:
        """Recompute every node's edge set and entry tree and check the
        child rules; intended for small traced runs. The root's edge set is
        `edges`, the `subset` the run was given, or every edge.

        The left child's edge set and tree follow from the parent directly,
        but the right child's entry tree is the one returned by the whole
        left subtree, so evaluation interleaves a top-down fill with a
        bottom-up return pass.
        """
        f_of: dict[int, frozenset[int]] = {
            0: frozenset(range(g.n_edges) if edges is None else edges)}
        b_of: dict[int, Policy] = {0: start}
        returned: dict[int, Policy] = {}
        stack: list[tuple[int, int]] = [(0, 0)]
        while stack:
            u, stage = stack.pop()
            e = self.picked[u]
            if e is None:
                if f_of[u] != b_of[u].edge_set():
                    raise AssertionError(f"leaf {u} still has free edges")
                returned[u] = b_of[u]
                continue
            if stage == 0:
                lu = self.left[u]
                if lu is None:
                    raise AssertionError(f"node {u} picked an edge but has no left child")
                f_of[lu] = f_of[u] - {e}
                b_of[lu] = b_of[u]
                stack.append((u, 1))
                stack.append((lu, 0))
            elif stage == 1:
                sub_ret = returned[self.left[u]]  # type: ignore[index]
                ru = self.right[u]
                improving = e in improving_switches(g, sub_ret, f_of[u])
                if (ru is not None) != improving:
                    raise AssertionError(f"right child presence wrong at node {u}")
                if ru is None:
                    returned[u] = sub_ret
                    continue
                if sub_ret.chosen[g.tails[e]] != self.leaving[u]:
                    raise AssertionError(f"leaving edge mismatch at node {u}")
                f_of[ru] = f_of[u]
                b_of[ru] = apply_switch(g, sub_ret, e)
                stack.append((u, 2))
                stack.append((ru, 0))
            else:
                returned[u] = returned[self.right[u]]  # type: ignore[index]


def record_tree(result: RunResult) -> ComputationTree:
    """Build the computation tree of a traced run and check that its right
    edges count exactly the pivots performed."""
    if result.trace_events is None:
        raise ValueError("run was not traced")
    tree = ComputationTree.from_events(result.trace_events)
    if tree.switch_count() != result.pivots:
        raise AssertionError(
            f"tree has {tree.switch_count()} switch nodes, run performed "
            f"{result.pivots} pivots"
        )
    return tree


# ---------------------------------------------------------------------------
# Computation paths and their group indices

L = "L"
R = "R"
ComputationPath = list[tuple[int, str]]


def _path_keys(idx: CounterGraphIndex, path: ComputationPath) -> list[int]:
    """Each edge's first position on the path; len(path) for an edge that is
    not on it."""
    keys = [len(path)] * idx.n_edges
    for ell in range(len(path) - 1, -1, -1):
        keys[path[ell][0]] = ell
    return keys


def sigma_p(idx: CounterGraphIndex, path: ComputationPath, target) -> int | None:
    """Path index of an edge or an edge group.

    `target` is an edge id, ("b1", i), ("a1", i, j) for one chain, or
    ("a1", i) for the full-level cover index (max over chains of the chain
    minimum). Absent means None.
    """
    keys = _path_keys(idx, path)
    absent = len(path)
    kind = target[0] if type(target) is tuple and target else None
    if type(target) is int:  # a bool is no edge id
        # an id outside the graph names no edge of the path
        pos = keys[target] if 0 <= target < idx.n_edges else absent
    elif kind == "b1":
        pos = sigma_b1(idx, keys, target[1])
    elif kind == "a1" and len(target) == 3:
        pos = min(keys[e] for e in idx.a1(target[1], target[2]))
    elif kind == "a1":
        pos = sigma_a1(idx, keys, target[1])
    else:
        raise ValueError(f"unknown sigma_p target {target!r}")
    return None if pos == absent else pos


# ---------------------------------------------------------------------------
# Canonical following

CANONICAL = "canonical"
BAD1 = "bad1"
BAD2 = "bad2"
BAD3 = "bad3"
NOT_APPLICABLE = "not_applicable"
MISSING_CHILD = "missing_child"
EXHAUSTED = "exhausted"


@dataclass
class CanonicalOutcome:
    """Classification of the followed root path for one run."""

    kind: str
    detail: object = None  # level, schedule position, or multi-edge group id
    path: ComputationPath = field(default_factory=list)
    pivots_done: int = 0  # pivots the run performed up to the stop


def follow_canonical(
    g: Digraph,
    idx: CounterGraphIndex,
    s_levels,
    rng,
    start: Policy | None = None,
) -> CanonicalOutcome:
    """Run the fresh-randomness facet rule once and classify its followed
    root path against the counting schedule for the given bit levels.

    The follower only steers which child of the current node to expand:
    left-steps drop the picked edge, right-steps let the first recursive
    call run to completion through the ordinary solver, then perform the
    switch. Levels must be distinct; they are followed in descending order.

    Each pick is uniform over the pick list: the id-ordered nonbasic edges
    of the current edge set, as `nonbasic` returns them, drawn by
    `randbelow_exact`, which draws what `rng.randrange` draws. A left step
    only drops the picked edge, so the list is kept across left steps and
    rebuilt only after a right step, whose sub-solve and switch change the
    tree.

    Left steps never pivot, and most paths stop before their first right
    step, so the pivot kernel is built only at that step. Up front, the
    follower reads the start's snapshot, `rules._start_tree`: the one start
    check, `graphs._tree_walk` (a tree with None at the target, else
    PolicyCycleError), and the pick list over all edges. The graph keeps
    the snapshot of the last start `Policy` object it was built from, so the
    trials of an estimate, which pass one start object, walk and price it
    once, and the kernel copies it; an equal start built afresh is walked
    again, and a refused one on every call. A path that stops before its
    first right step reports `pivots_done = 0`.

    The bookkeeping is flat: lists indexed by level i (entry 0 unused) and
    by a chain c = (i-1)*r + j-1, and each multi-edge's copies left in the
    edge set. Each pick reads its edge's group once, which gives both the
    direction and any stop, and a left step books its removal there.
    """
    s_sorted = sorted(set(s_levels), reverse=True)
    if not s_sorted:
        return CanonicalOutcome(NOT_APPLICABLE)
    n, r = idx.n, idx.r
    if any(i < 1 or i > n for i in s_sorted):
        raise ValueError("schedule levels must lie in 1..n")
    if start is None:
        start = initial_tree(idx)
    snap = _start_tree(g, start)  # raises unless the start is a tree
    last = s_sorted[-1]
    in_s = [False] * (n + 1)
    for i in s_sorted:
        in_s[i] = True
    b_picked = [False] * (n + 1)  # some edge of level i's b chain picked
    picked = [False] * (n * r)  # some edge of chain c picked
    unpicked = [r] * (n + 1)  # chains of level i not yet picked
    whole = [True] * (n * r)  # no edge of chain c dropped yet
    n_whole = [r] * (n + 1)  # whole chains of level i
    copies = list(map(len, idx.multi_edges))
    group = idx.edge_group
    tracker = None
    log: list = []  # the kernel's pivot log, once a right step builds it
    in_f = bytearray(b"\x01") * g.n_edges
    cands = list(snap.picks)
    path: ComputationPath = []
    while True:
        if not cands:
            return CanonicalOutcome(EXHAUSTED, None, path, len(log))
        k = randbelow_exact(len(cands), rng)
        e = cands[k]
        grp = group[e]
        stop = detail = None
        if grp[0] == "b1":
            # a scheduled level's b chain switches; its first pick misorders
            # the schedule while a higher scheduled b chain is unpicked
            i = grp[1]
            right = in_s[i]
            if right and not b_picked[i]:
                for q, lvl in enumerate(s_sorted, 1):
                    if lvl == i:
                        break
                    if not b_picked[lvl]:
                        stop, detail = BAD1, q
                        break
            b_picked[i] = True
        elif grp[0] == "a1":
            # a scheduled level's chain switches once no other chain of the
            # level is whole; picking the level's last unpicked chain ends
            # the path unless its b chain was picked first and the level is
            # not the schedule's last
            i = grp[1]
            c = (i - 1) * r + grp[2] - 1
            right = in_s[i] and n_whole[i] == whole[c]
            if not picked[c]:
                picked[c] = True
                unpicked[i] -= 1
                if not unpicked[i]:
                    if not b_picked[i]:
                        stop, detail = BAD2, i
                    elif i == last:
                        # the final step of the schedule must be a switch
                        stop, detail = CANONICAL if right else MISSING_CHILD, i
            if not right and whole[c]:
                whole[c] = False
                n_whole[i] -= 1
        else:
            # a multi-edge copy is always dropped; the last one breaks the
            # subgraph
            right = False
            gix = grp[1]
            copies[gix] -= 1
            if not copies[gix]:
                stop, detail = BAD3, gix
        path.append((e, R if right else L))
        if stop is not None and stop != CANONICAL:
            return CanonicalOutcome(stop, detail, path, len(log))
        if not right:
            in_f[e] = 0
            del cands[k]
            continue
        # right step: complete the first recursive call, then switch; a
        # canonical stop (always an R step) ends on this switch, and a
        # missing child keeps its level as detail (None on a plain step)
        if tracker is None:
            tracker = _PivotTracker(g, start)
            log = tracker.log
        in_f[e] = 0
        _facet_collapsed(tracker, in_f, shuffled_order(rng))
        in_f[e] = 1
        if tracker.red[e] >= 0:
            return CanonicalOutcome(MISSING_CHILD, detail, path, len(log))
        tracker.pivot(e)
        if stop == CANONICAL:
            return CanonicalOutcome(CANONICAL, detail, path, len(log))
        cands = tracker.nonbasic(in_f)


def classify_path(
    idx: CounterGraphIndex, s_levels, path: ComputationPath
) -> tuple[str, object]:
    """Post-hoc classification of a recorded path, straight from the
    definitions; independent of the follower's incremental bookkeeping."""
    s_sorted = sorted(set(s_levels), reverse=True)
    if not s_sorted:
        return NOT_APPLICABLE, None
    if not path:
        return EXHAUSTED, None
    keys = _path_keys(idx, path)
    absent = len(path)
    k = absent - 1
    _, last_dir = path[k]
    # remaining copies after all L-removals
    removed = {e for e, d in path if d == L}
    for gix, ids in enumerate(idx.multi_edges):
        if all(e in removed for e in ids):
            return BAD3, gix
    for pos, lvl in enumerate(s_sorted):
        if sigma_b1(idx, keys, lvl) == absent and any(
            sigma_b1(idx, keys, l2) == k for l2 in s_sorted[pos + 1:]
        ):
            return BAD1, pos + 1
    for i in idx.levels():
        if sigma_b1(idx, keys, i) == absent and sigma_a1(idx, keys, i) == k:
            return BAD2, i
    if sigma_a1(idx, keys, s_sorted[-1]) == k and last_dir == R:
        return CANONICAL, s_sorted[-1]
    return MISSING_CHILD, None


# the standard normal quantile of a two-sided 95% interval
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int):
    """Wilson score 95% interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = _Z95
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class CanonicalEstimate:
    """Monte Carlo estimate of the follower's outcome frequencies."""

    trials: int
    counts: dict[str, int]
    canonical_freq: float
    wilson_low: float
    wilson_high: float
    good1_freq: float
    bad2_given_good1: float
    bad3_given_good1: float
    # each trial's (kind, detail, path length), in trial order
    outcomes: list[tuple[str, object, int]]


def estimate_canonical_probability(
    g: Digraph,
    idx: CounterGraphIndex,
    s_levels,
    rngs,
) -> CanonicalEstimate:
    """Frequency of canonical completions over one run per generator in
    rngs, each from the initial tree, built once, with a Wilson interval and
    the conditional failure frequencies. `itertools.repeat(rng, n)` runs n
    trials on one stream."""
    counts: dict[str, int] = {}
    outcomes = []
    start = initial_tree(idx)
    for rng in rngs:
        out = follow_canonical(g, idx, s_levels, rng, start)
        counts[out.kind] = counts.get(out.kind, 0) + 1
        outcomes.append((out.kind, out.detail, len(out.path)))
    trials = len(outcomes)
    canon = counts.get(CANONICAL, 0)
    bad1 = counts.get(BAD1, 0)
    bad2 = counts.get(BAD2, 0)
    bad3 = counts.get(BAD3, 0)
    good1 = trials - bad1
    low, high = wilson_interval(canon, trials)
    return CanonicalEstimate(
        trials=trials,
        counts=counts,
        canonical_freq=canon / trials if trials else 0.0,
        wilson_low=low,
        wilson_high=high,
        good1_freq=good1 / trials if trials else 0.0,
        bad2_given_good1=bad2 / good1 if good1 else 0.0,
        bad3_given_good1=bad3 / good1 if good1 else 0.0,
        outcomes=outcomes,
    )
