"""Computation trees of the facet-removal recursion and canonical-path
analysis on counter graphs.

A traced run of the fresh-randomness facet rule yields a binary computation
tree: each node is one recursive call, the left child drops the picked edge,
and the right child (present exactly when the pick improves the tree the
first call returned) performs the switch. Right children therefore count
pivots. The tree is kept one descent per node, a descent being a chain of
left children down to a leaf, and is built from the frames the run itself
recorded.

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
from .graphs import Digraph, Policy, tree_distances_list
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


@dataclass
class ComputationTree:
    """The recursion tree of a traced `random_facet` run, one node per
    descent, as parallel lists.

    Descent j removes its `size[j]` candidates, rank 1 first, down to a
    leaf, and its unwind tests them in descending rank. `revealed[j]` maps
    each column whose rank the run drew there to that rank; the run never
    drew the others. Node j > 0 is the right child that a pivot opened:
    `parent[j]` is the descent whose unwind pivoted, `rank[j]` the entering
    column's rank there and `leaving[j]` the column that left the basis. The
    root, node 0, has None in those three. Nodes are in creation order, so
    node j was opened by the run's pivot j - 1.
    """

    size: list[int]
    revealed: list[dict]
    parent: list[int | None]
    rank: list[int | None]
    leaving: list[int | None]

    @property
    def n_nodes(self) -> int:
        return len(self.size)

    def switch_count(self) -> int:
        """The right children: every node but the root."""
        return self.n_nodes - 1

    def validate(self, g: Digraph, start: Policy, edges=None) -> None:
        """Re-run the eager recursion from the graph and check that it is
        this tree, raising AssertionError where it is not; intended for
        small traced runs. The root's edge set is `edges`, the `subset` the
        run was given, or every edge.

        Each descent takes the pool: the columns of the edge set outside the
        basis that no unwinding descent holds. It puts its revealed columns
        at their ranks and its other candidates at the untaken ranks in id
        order, a placement that `rules._facet_lazy`'s docstring proves
        consistent with every test the run made. The unwind tests each rank
        on tree distances recomputed after every pivot: a rank with a right
        child must improve and give that child's leaving column, and every
        other rank must not improve.
        """
        costs, tails, heads = g.costs, g.tails, g.heads
        chosen = list(start.chosen)
        dist = tree_distances_list(g, chosen)
        in_f = set(range(g.n_edges) if edges is None else edges)
        pool = in_f - set(chosen)
        n = self.n_nodes
        stack: list[list] = []  # per unwinding descent: [node, order, rank]
        opened = 0

        def descend():
            nonlocal opened
            j = opened
            opened += 1
            size, revealed = self.size[j], self.revealed[j]
            if size != len(pool) or not revealed.keys() <= pool:
                raise AssertionError(f"descent {j}'s candidates are not the pool")
            order: list = [None] * size
            for x, r in revealed.items():
                if not 0 < r <= size or order[r - 1] is not None:
                    raise AssertionError(f"descent {j} reveals rank {r} twice or "
                                         f"outside 1..{size}")
                order[r - 1] = x
            rest = iter(sorted(pool - revealed.keys()))
            stack.append([j, [next(rest) if x is None else x for x in order], size])
            pool.clear()

        descend()
        while stack:
            top = stack[-1]
            j, order, r = top
            if not r:
                stack.pop()
                continue
            top[2] = r - 1
            x = order[r - 1]
            u = tails[x]
            improves = costs[x] + dist[heads[x]] < dist[u]
            child = opened < n and self.parent[opened] == j and self.rank[opened] == r
            if improves != child:
                raise AssertionError(
                    f"rank {r} of descent {j} "
                    + ("improves but has no right child" if improves
                       else "has a right child but does not improve"))
            if not improves:
                pool.add(x)
                continue
            leaving = chosen[u]
            if leaving != self.leaving[opened]:
                raise AssertionError(f"leaving edge mismatch at node {opened}")
            chosen[u] = x
            dist = tree_distances_list(g, chosen)
            if leaving in in_f:
                pool.add(leaving)
            descend()
        if opened != n:
            raise AssertionError(f"nodes {opened}..{n - 1} are never opened")


def record_tree(result: RunResult) -> ComputationTree:
    """The computation tree of a traced `random_facet` run, from its frame
    records and its pivot log (see `rules.random_facet`): frame j > 0 is
    the right child of the latest earlier frame one level up, at the rank
    that frame revealed for pivot j - 1's entering column.

    Raises ValueError when the run was not traced or its frames cannot be
    its tree: a frame count other than pivots + 1, a depth that skips a
    level or opens a second root, or an entering column never ranked.
    """
    frames = result.frames
    if frames is None:
        raise ValueError("run was not traced")
    if len(frames) != result.pivots + 1:
        raise ValueError(f"{len(frames)} frames for {result.pivots} pivots")
    tree = ComputationTree([], [], [], [], [])
    live: list[int] = []  # the frame stack: the latest frame at each depth
    for j, (size, revealed, depth) in enumerate(frames):
        lowest = 1 if j else 0
        if not lowest <= depth <= len(live):
            raise ValueError(f"frame {j} has depth {depth}, not in {lowest}..{len(live)}")
        del live[depth:]
        up = rank = leaving = None
        if j:
            up = live[-1]
            entering, leaving = result.pivot_log[j - 1]
            rank = tree.revealed[up].get(entering)
            if rank is None:
                raise ValueError(f"pivot {j - 1}'s entering column {entering} "
                                 f"has no rank in frame {up}")
        live.append(j)
        tree.size.append(size)
        tree.revealed.append(revealed)
        tree.parent.append(up)
        tree.rank.append(rank)
        tree.leaving.append(leaving)
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


def _index(k, top: int, what: str) -> int:
    """`k` as a level (`top` = n) or a chain (`top` = r): an int, not a bool,
    in 1..top, else ValueError, since 0 or -1 would index another level."""
    if type(k) is not int or not 1 <= k <= top:
        raise ValueError(f"{what} {k!r} is not an int in 1..{top}")
    return k


def sigma_p(idx: CounterGraphIndex, path: ComputationPath, target) -> int | None:
    """Path index of an edge or an edge group.

    `target` is an edge id, ("b1", i), ("a1", i, j) for one chain, or
    ("a1", i) for the full-level cover index (max over chains of the chain
    minimum). Absent means None. Levels and chains are checked by `_index`.
    """
    keys = _path_keys(idx, path)
    absent = len(path)
    kind = target[0] if type(target) is tuple and target else None
    if type(target) is int:  # a bool is no edge id
        # an id outside the graph names no edge of the path
        pos = keys[target] if 0 <= target < idx.n_edges else absent
    elif kind == "b1" and len(target) == 2:
        pos = sigma_b1(idx, keys, _index(target[1], idx.n, "level"))
    elif kind == "a1" and len(target) == 3:
        i = _index(target[1], idx.n, "level")
        pos = min(keys[e] for e in idx.a1(i, _index(target[2], idx.r, "chain")))
    elif kind == "a1" and len(target) == 2:
        pos = sigma_a1(idx, keys, _index(target[1], idx.n, "level"))
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
    switch. Levels are merged when repeated and followed in descending order.

    Each pick is uniform over the pick list: the id-ordered nonbasic edges
    of the current edge set, as `nonbasic` returns them, drawn by
    `randbelow_exact`, which draws what `rng.randrange` draws. A left step
    only drops the picked edge, so the list is kept across left steps and
    rebuilt only after a right step, whose sub-solve and switch change the
    tree.

    Left steps never pivot, and most paths stop before their first right
    step, so the pivot kernel is built only at that step, with the
    follower's own list of every reduced cost, which its sub-solves and
    switches keep through `shift_costs`. Up front, the follower reads the
    start's snapshot, `rules._start_tree`: the one start check,
    `graphs._tree_walk` (a tree with None at the target, else
    PolicyCycleError), and the pick list over all edges. The graph keeps the
    snapshot of the last start `Policy` object it was built from, so the
    trials of an estimate, which pass one start object, walk and price it
    once, and the kernel copies it; an equal start built afresh is walked
    again, and a refused one on every call. A path that stops before its
    first right step reports `pivots_done = 0`.

    The bookkeeping is flat: lists indexed by level i (entry 0 unused) and
    by a chain c = (i-1)*r + j-1, and each multi-edge's copies left in the
    edge set. Each pick reads its edge's group once, which gives both the
    direction and any stop, and a left step books its removal there.
    """
    s_sorted = sorted({_index(i, idx.n, "level") for i in s_levels}, reverse=True)
    if not s_sorted:
        return CanonicalOutcome(NOT_APPLICABLE)
    n, r = idx.n, idx.r
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
            red = list(snap.red)
        in_f[e] = 0
        _facet_collapsed(tracker, red, in_f, shuffled_order(rng))
        in_f[e] = 1
        if red[e] >= 0:
            return CanonicalOutcome(MISSING_CHILD, detail, path, len(log))
        tracker.pivot(e)
        tracker.shift_costs(red)
        if stop == CANONICAL:
            return CanonicalOutcome(CANONICAL, detail, path, len(log))
        cands = tracker.nonbasic(in_f)


def classify_path(
    idx: CounterGraphIndex, s_levels, path: ComputationPath
) -> tuple[str, object]:
    """Post-hoc classification of a recorded path, straight from the
    definitions; independent of the follower's incremental bookkeeping."""
    s_sorted = sorted({_index(i, idx.n, "level") for i in s_levels}, reverse=True)
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
