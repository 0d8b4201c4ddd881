"""Pivoting rules on the graph engine, plus edge-permutation machinery.

Every engine decides by exact integer reduced costs and performs only
strictly improving switches, through one pivot kernel, `_PivotTracker`,
which keeps the tree's vertex potentials y, its distances. A switch to edge
e = (u, v) re-hangs u's subtree of the policy tree under v, so every vertex
of that subtree moves by the same delta = c(e) + y(v) - y(u), e's reduced
cost, and nothing else moves; the summed tree distance changes by delta *
|subtree|, and the strict-decrease invariant is therefore delta < 0,
checked before any state changes. A pivot writes |subtree| potentials
(3.1-3.8 on the benchmark's counter graphs), where the reduced costs of
the edges at the subtree, in and out, number about 23. After a pivot the
engines that read few reduced costs (`_facet_lazy`, `random_facet_one_perm`,
`bland_nonrec`, `dantzig`) scan only the in-edges of the subtree, about
10 per pivot there, and price them by twin group (`graphs._in_twins`:
copies with one tail, head and cost share a reduced cost), 5-7 groups per
pivot at t = 2 and 3, and 8-11 at (8,9,9,9) for 36-50 in-edges.
The lazy engine walks every copy of a group that turned improving, since
each copy draws its own rank. The heap engines (`random_facet_one_perm`,
`bland_nonrec`, `dantzig`) push one entry per group they queue, the copy
they would take first, since twins improve together and stop together.
They compute c(x) + y(head x) - y(tail x) where they read it. The ones
that test every candidate (`_facet_collapsed`, `random_facet_nonrec`,
`bland_rec`) keep their own list of every reduced cost, copied from the
start snapshot, and bring it up to date after each pivot with the kernel's
`shift_costs`. Every engine builds its kernel from the start `Policy`
(through `_start` when it takes an edge subset), and the kernel copies the
snapshot that the graph keeps for its last start object, `_start_tree`:
the distances of the start's one walk, `graphs._tree_walk`, which is the
one check of a start and the one computation of tree distances from
scratch, and the reduced costs priced from them, which seed the first
heaps and lists. Trials that pass one start walk and price it once,
and every other start is checked.

The facet-removal recursion runs on three engines. The two with fresh
randomness, and the rules behind which each runs:

- `_facet_lazy`, behind `random_facet` (traced and untraced) and
  `lp.random_facet_lp`: a stack of frames, one per descent, each a rank
  cursor and a heap of improving columns, that draws a column's rank in a
  frame (one step of a partial Fisher-Yates shuffle, drawing the bits
  `Random.randrange` draws, written out in the walk) only when the column
  improves. A pivot costs per shifted vertex, not per candidate. Its pivot
  oracle (`improves(e)`, `improving()`, `pivot(e) -> leaving`,
  `turned_improving()`, the columns the last pivot made improving, and the
  basis size `n_basic`) is implemented by `_PivotTracker`, from the
  potentials, and by the LP basis tracker, and the turned columns are
  walked in id order, so the graph run and the LP run of one seed draw the
  same bits and pivot in lockstep. A traced run keeps the engine's frame
  records, from which `comptrees.record_tree` builds its computation tree
  (see `random_facet`).
- `_facet_collapsed`, behind `comptrees.follow_canonical`'s sub-solves:
  each descent asks an `arrange(avail) -> list` callable for its whole
  removal order and tests every candidate in the unwind; it can emit an
  event stream of its picks and tests, which the tests read. The
  follower's `arrange` is `shuffled_order(rng)`: id order, then
  `shuffle_exact`, which draws exactly the bits `Random.shuffle` draws, at
  about half its cost. The engine reads the caller's edge-set flags `in_f`
  but never writes them; its docstring gives the argument that the one
  read needs no writes.

The one-permutation rule, `random_facet_one_perm`, makes the pivots of
`_facet_collapsed` with every candidate list sorted by sigma, on the frame
stack that `_facet_lazy` draws ranks for: there a column's rank is sigma.
The tests keep the sorted `_facet_collapsed` run as its oracle, and the
shuffled one as the lazy engine's. The three rank-ordered rules (it,
`bland_rec`, `bland_nonrec`) read sigma through `_edge_of_rank`, which
rejects anything but a permutation of 1..m in ints.

Each engine stays because its merge was measured to cost more than it
removes (README, "Facet engines"): one frame engine with a rank source
slowed the one-permutation rule 1.40-1.65x per pivot, and the follower's
sub-solves on `_facet_lazy` raised the benchmark's peak RSS past its bound.

The counter graph's edge-group statistics have one home: `sigma_b1` (a
level's first b-chain edge), `sigma_a1` (the point at which every a chain of
a level has been touched) and `sigma_multi` (a multi-edge's last copy), and
their vector forms `sigma_b1_all`, `sigma_a1_all` (every level at once) and
`sigma_multi_all` (every multi-edge at once). They read the index's
`GroupLayout`, built once per index: one `itemgetter` per b chain and per a
chain, and the multi-edges as t copy columns, so a statistic gathers its
keys in one C-level call per chain or column, not a generator per group.
Each takes any list of keys over the edges: ranks, the sampler's float
keys, or the path positions `comptrees` builds. The well-behaved test, the
induced bit order and the sampler read the vector forms, and the
computation-path indices the scalar ones. The sampler costs its m draws,
one sort, one ranking loop and one pass over the groups, and skips the
well-behaved test whenever its repairs prove it (see `sample_well_behaved`).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat, starmap
from operator import ge, gt
from typing import NamedTuple

from .counter_graph import CounterGraphIndex
from .graphs import (
    Digraph,
    Policy,
    PolicyCycleError,
    _edge_subset,
    _edge_tail,
    _in_twins,
    _tree_walk,
    optimal_distances_list,
    tree_distances_list,
)


class InvalidStartError(Exception):
    """The start policy uses edges outside the allowed edge set."""


class PivotInvariantError(Exception):
    """A pivot failed to strictly decrease the summed tree distance."""


@dataclass
class RunResult:
    """Outcome of one pivoting-rule run."""

    rule: str
    pivot_log: list[tuple[int, int]]  # (entering edge, leaving edge)
    final_policy: Policy
    sigma: list[int] | None = None
    # a traced `random_facet` run's frame records; see `random_facet`
    frames: list | None = None

    @property
    def pivots(self) -> int:
        return len(self.pivot_log)


def _start(g: Digraph, policy: Policy, subset) -> tuple[_PivotTracker, bytearray]:
    """The pivot kernel built from the start `policy`, which checks it, and
    the edge-set flags `in_f`: every edge, or the edges of `subset` (read by
    `graphs._edge_subset`), which must hold every chosen edge of the start."""
    tracker = _PivotTracker(g, policy)
    m = g.n_edges
    if subset is None:
        return tracker, bytearray(b"\x01") * m
    in_f = bytearray(m)
    for e in _edge_subset(g, subset):
        in_f[e] = 1
    if not all(in_f[e] for e in tracker.chosen if e is not None):
        raise InvalidStartError("start policy uses edges outside the edge set")
    return tracker, in_f


def _nonbasic(in_f: list, basic) -> list[int]:
    """The columns with in_f set that are not in `basic`, in id order; a
    None entry of `basic` (the target's choice) is skipped."""
    mask = bytearray(in_f)
    for e in basic:
        if e is not None:
            mask[e] = 0
    return list(compress(range(len(mask)), mask))


class _StartTree(NamedTuple):
    """The derived state of one start tree, which no pivot touches: the
    kernel copies its child lists and distances, the engines that read few
    reduced costs per pivot seed their first heap from its reduced costs,
    the engines that test every candidate copy them into their own list,
    and `comptrees.follow_canonical` reads its pick list."""

    start: Policy  # the object it was built from
    children: tuple  # of tuples
    dist: tuple  # the tree distances: the kernel's potentials y at the start
    red: tuple
    picks: tuple  # the non-chosen edges in id order: `_nonbasic`, all flags set


def _start_tree(g: Digraph, policy: Policy) -> _StartTree:
    """The snapshot of the start `policy`, built on first use: its child
    lists, the distances of the start's one walk, `graphs._tree_walk`, and
    every edge's reduced cost priced from them.

    The graph keeps one entry, `g._start_tree`, hit only by the very object
    it was built from. A Policy never changes, so a hit is exact; an equal
    start built afresh is walked, and checked, again. A start that fails
    `graphs._tree_walk` raises PolicyCycleError and is never stored.
    """
    snap = g._start_tree
    if snap is not None and snap.start is policy:
        return snap
    dist, children = _tree_walk(g, policy.chosen)
    red = [c + dist[h] - dist[t] for c, h, t in zip(g.costs, g.heads, g.tails)]
    snap = g._start_tree = _StartTree(
        policy, tuple(map(tuple, children)), tuple(dist), tuple(red),
        tuple(_nonbasic(bytearray(b"\x01") * g.n_edges, policy.chosen)))
    return snap


class _PivotTracker:
    """The pivot kernel: the policy tree, its vertex potentials and the
    pivot log.

    `chosen` is the kernel's own list of the start's chosen edges (None at
    the target) and `y` the list of tree distances, the potentials; both
    are mutated in place, never rebound, so callers may hold them across
    pivots. Edge x's reduced cost is c(x) + y(head x) - y(tail x), an exact
    integer, and the engines that read few of them per pivot compute it
    where they read it (`improves`, `improving`, `turned_improving`, or
    inline from `y`). `children[v]` lists the vertices whose chosen edge
    points at v. The kernel copies the child lists and `y` from the
    snapshot `_start_tree(g, policy)`, which raises PolicyCycleError unless
    the start is a tree, and keeps the snapshot as `snap`. A pivot on e =
    (u, v) walks u's subtree through the child lists and moves every
    potential in it by delta = c(e) + y(v) - y(u); nothing else moves. Then
    u moves from its old parent's child list to v's. A pivot with delta >=
    0 raises PivotInvariantError, and one whose head lies in u's own
    subtree (possible only when the switch closes a negative cycle) raises
    PolicyCycleError; both leave every field unchanged. `shifted` holds the
    vertices the last pivot moved and `step` its delta, so callers can
    re-test only the edges at those vertices; `twins` is the graph's
    in-edges grouped into twins (`graphs._in_twins`), by which the turn
    scans price them; `shift_costs` applies the last pivot to a caller's
    list of every edge's reduced cost.
    """

    def __init__(self, g: Digraph, policy: Policy):
        snap = _start_tree(g, policy)
        self.g = g
        self.snap = snap
        self.chosen = list(policy.chosen)
        self.children = list(map(list, snap.children))
        self.y = list(snap.dist)
        self.twins = _in_twins(g)
        self.n_basic = g.n_vertices - 1
        self.shifted: list[int] = []
        self.step = 0  # the last pivot's delta
        self.log: list[tuple[int, int]] = []

    def nonbasic(self, in_f: list) -> list[int]:
        """The edges with in_f set that are not chosen, in id order."""
        return _nonbasic(in_f, self.chosen)

    def improves(self, e: int) -> bool:
        """Whether edge e has a negative reduced cost."""
        g, y = self.g, self.y
        return g.costs[e] + y[g.heads[e]] - y[g.tails[e]] < 0

    def improving(self) -> list[int]:
        """The edges with a negative reduced cost, in id order: read from
        the start snapshot before the first pivot, priced from `y` after it."""
        if self.log:
            g, y = self.g, self.y
            red = [c + y[h] - y[t] for c, h, t in zip(g.costs, g.heads, g.tails)]
        else:
            red = self.snap.red
        return list(compress(range(len(red)), map(gt, repeat(0), red)))

    def turned_improving(self) -> list[int]:
        """The edges the last pivot made improving: the in-edges x of the
        shifted vertices with red[x] < 0 <= red[x] - delta. A pivot lowers
        only those reduced costs, so no other edge can have turned. An edge
        with both ends shifted kept its reduced cost, so it is listed only
        if it was improving already.

        The scan prices each twin group (`graphs._in_twins`) once, since its
        copies share tail, head and cost and so one reduced cost, and lists
        every copy of a group that turned: the same edges as a test per
        in-edge, listed vertex by vertex, group by group, not in id order."""
        y, delta, twins = self.y, self.step, self.twins
        return [x for w in self.shifted for yw in (y[w],) for u, c, ids in twins[w]
                if delta <= c + yw - y[u] < 0 for x in ids]

    def pivot(self, e: int) -> int:
        g = self.g
        y = self.y
        u = g.tails[e]
        v = g.heads[e]
        delta = g.costs[e] + y[v] - y[u]
        if delta >= 0:
            raise PivotInvariantError(
                f"pivot on edge {e} would move the objective by {delta} per "
                f"vertex of the subtree at vertex {u}"
            )
        children = self.children
        sub = [u]
        for w in sub:  # the walk appends to the list it iterates over
            sub.extend(children[w])
        if v in sub:
            raise PolicyCycleError(
                f"edge {e} closes a cycle through vertex {u} and its subtree"
            )
        for w in sub:
            y[w] += delta
        leaving = self.chosen[u]
        children[g.heads[leaving]].remove(u)
        children[v].append(u)
        self.chosen[u] = e
        self.shifted = sub
        self.step = delta
        self.log.append((e, leaving))
        return leaving

    def shift_costs(self, red: list[int]) -> None:
        """Apply the last pivot to `red`, a caller's list of every edge's
        reduced cost before it: the cost of every edge into a shifted vertex
        rises by `step`, and that of every edge out of one falls by it, so
        an edge with both ends shifted keeps its cost."""
        delta = self.step
        in_edges, out_edges = self.g.in_edges, self.g.out_edges
        for w in self.shifted:
            for x in in_edges[w]:
                red[x] += delta
            for x in out_edges[w]:
                red[x] -= delta

    def result(self, rule: str, sigma=None, frames: list | None = None) -> RunResult:
        """The run's record: its pivot log and the current tree as the final
        policy."""
        return RunResult(
            rule=rule,
            pivot_log=self.log,
            final_policy=Policy(self.chosen),
            sigma=None if sigma is None else list(sigma),
            frames=frames,
        )


def _facet_collapsed(tracker, red: list, in_f: list, arrange,
                     events: list | None = None) -> None:
    """The facet-removal recursion over the columns with in_f set.

    `tracker` is a pivot oracle: `pivot(e) -> leaving`; `shift_costs(red)`,
    which the engine calls after each pivot to keep `red`, the caller's list
    of every column's reduced cost, current; and `nonbasic(in_f)`, the in_f
    columns outside the basis, in id order. `arrange(avail) -> list` returns
    the removal order (picked-first first) of the candidate list it is
    handed, and must not depend on the list's order: the follower passes
    `shuffled_order(rng)`, which sorts by id before it shuffles. (Sorting by
    a fixed permutation instead gives the one-permutation rule;
    `random_facet_one_perm` runs that rule on its own engine, and the tests
    use this one as its oracle.) Each descent strips the whole candidate
    list, which is the chain of left children down to a leaf; the unwind
    tests candidates last-removed first against the evolving basis, and
    every pivot opens the right child: a sub-descent over the surviving
    candidates. An unwind is a reversed iterator over its descent's list; a
    pivot pauses it under the sub-descent's iterator on the stack. The pool
    `avail` is a list holding exactly the in_f columns outside the basis
    that no descent still unwinding holds: a descent empties it, and the
    unwind appends each restored column that does not improve, and each
    leaving column still in_f. It never holds a duplicate. A restored column
    was cleared from the pool by the descent that removed it; a leaving
    column was basic, so neither the pool nor any unwinding descent held it.

    The engine writes no flag, so in_f ends the call as it began. The
    textbook form clears a column's flag when a descent removes it and sets
    it again when the unwind restores it; its one read, in_f[leaving], gets
    the same answer without those writes. The leaving column was basic, and
    the textbook form never writes the flag of a basic column: a removed
    column stays nonbasic until it is restored, and every column pivoted in
    came from `nonbasic(in_f)`, so its flag was already True.

    With `events` given, the run appends ("pick", e) for each removal,
    ("leaf",) at the end of each descent and ("up", pivoted, leaving) for
    each test.
    """
    pivot = tracker.pivot
    shift = tracker.shift_costs
    avail = tracker.nonbasic(in_f)
    add = avail.append

    def descend():
        cands = arrange(avail)
        avail.clear()
        if events is not None:
            events.extend(("pick", e) for e in cands)
            events.append(("leaf",))
        return reversed(cands)

    stack = [descend()]
    while stack:
        for e in stack[-1]:
            if red[e] < 0:
                leaving = pivot(e)
                shift(red)
                if in_f[leaving]:
                    add(leaving)
                if events is not None:
                    events.append(("up", True, leaving))
                stack.append(descend())
                break
            add(e)
            if events is not None:
                events.append(("up", False, None))
        else:
            stack.pop()


def shuffled_order(rng):
    """The `arrange` of the fresh-randomness rule: the candidates in id
    order, shuffled once by `shuffle_exact`, so every removal is uniform."""

    def arrange(avail) -> list[int]:
        cands = sorted(avail)
        shuffle_exact(cands, rng)
        return cands

    return arrange


def _facet_lazy(tracker, in_f: list, rng, frames: list | None = None) -> None:
    """The fresh-randomness facet-removal recursion of `_facet_collapsed`
    under `shuffled_order`, drawing a column's rank only when it improves.

    `tracker` is a pivot oracle: `improves(e)`, whether column e has a
    negative reduced cost; `improving()`, every such column in id order;
    `pivot(e) -> leaving`; `turned_improving()`, the columns the last pivot
    made improving; and `n_basic`, the basis size. Every basic column must
    have in_f set, which both callers check (`_start` and
    `lp.random_facet_lp`). The engine reads no reduced-cost list, so the
    graph kernel prices only the columns it tests, from its potentials. Ranks
    are removal positions: rank 1 is removed first, so an unwind tests its
    candidates in descending rank. The recursion is the frame stack of
    `random_facet_one_perm` with sigma[x] replaced by x's rank in each
    frame. One descent is one frame: its size N (the candidate count), its
    rank cursor (the unwind tests the ranks below it next; N + 1 at
    creation), a max-rank heap of keys -(rank * m + column) for the held
    columns that improved, a map from column to revealed rank, its count n
    of untaken ranks (N at creation), and the partial Fisher-Yates swaps
    over them. Position p of 0..N-1 holds rank swap.get(p, p) + 1, and the
    first n positions hold the untaken ranks. A draw takes position i, read
    as `Random.randrange(n)` reads it (getrandbits(n.bit_length()), redrawn
    while i >= n, so n = 1 still draws one bit), moves position n - 1's
    rank into it and lowers n by one. No float is drawn, and drawing every
    rank of a frame gives each order of them with probability 1/N!. The
    draw is written out in the walk, not called, because a pivot makes
    several (about 4-6 on the benchmark's counter graphs). A frame holds
    the cursor - 1 columns at the ranks below its cursor. The first frame's
    size is the pool count, the in_f columns outside the basis: the in_f
    count less `n_basic`. A new frame's size is the pool count minus the
    columns the live frames hold, a running sum of their cursor - 1. A
    pivot moves the entering column out of the pool and the leaving column,
    which has in_f set, into it, so the pool count never changes.

    The first frame's improving columns are `improving()`'s in_f columns.
    The top frame pops its highest-ranked entry that still improves, sets
    its cursor to that rank and pivots, which pushes a frame; entries that
    no longer improve are dropped, and an empty heap pops the frame. After
    a pivot, the engine takes the in_f columns of `turned_improving()` in
    id order. Each column x walks up from the first live frame created at
    or after the pivot where x last left the basis: it takes x's revealed
    rank there, or reveals one by a draw. Below the cursor, x is held
    there, and pushed unless it was revealed there already, in which case
    its entry stands; otherwise the walk moves one frame up. The frame just
    pushed has cursor N + 1, so the walk ends there at the latest. A listed
    column that was improving before the pivot is held already: its walk
    retraces frames that revealed it and draws nothing. So the draws depend
    only on the columns that did turn, taken in id order, and oracles that
    agree on those draw the same bits: a graph run and the LP run of its
    flow LP pivot in lockstep.

    Why this is the eager recursion, with every descent's removal order
    uniform:

    - Only turned columns can become improving, and the walk catches every
      turn at the pivot that makes it. The unwind of `_facet_collapsed`
      pivots only while every pool column is non-improving: the pool holds
      columns tested non-improving since the last pivot, and leaving
      columns, which a pivot leaves non-improving. So a column that no walk
      has revealed in a frame was non-improving at every test made since it
      last left the basis, whatever rank it holds there.
    - Given the run so far, a frame's unrevealed columns therefore sit on
      its untaken ranks as a uniform random bijection: every test the run
      made reads the same for every placement of them. Drawing x's rank
      uniformly from the untaken ones, when x first improves, is that
      bijection's value at x.
    - A frame holds its ranks below its cursor. Every unrevealed column at
      or above the cursor was tested non-improving and restored to the
      pool, and a popped frame restores every column it held, each
      non-improving. Either way the column is a candidate of the next
      frame up, which was created after that test; as in the
      one-permutation engine, creation times rise up the stack, so a bisect
      over them finds x's first frame.

    The engine writes no flag, so in_f ends the call as it began. With
    `frames` given, it appends each frame's (size, revealed, depth) in
    creation order: its candidate count, its map from column to rank as the
    run left it, and its stack depth at creation (0 for the first frame).
    See `random_facet`.
    """
    pivot = tracker.pivot
    improves = tracker.improves
    turned = tracker.turned_improving
    getrandbits = rng.getrandbits
    m = len(in_f)
    every = all(in_f)  # in_f never changes, so the turned filter is read once
    heappush, heappop = heapq.heappush, heapq.heappop
    left_at = [0] * m  # pivot count at which each column last left the basis
    pool = sum(in_f) - tracker.n_basic  # every basic column has in_f set
    held = 0  # columns the live frames hold: the sum of their cursor - 1
    created: list[int] = []
    cursor: list[int] = []
    untaken: list[int] = []  # per frame, the count of ranks not yet drawn
    heaps: list[list[int]] = []
    revealed: list[dict] = []
    swaps: list[dict] = []

    t = 0
    size = pool
    improved = tracker.improving()
    if not every:
        improved = [x for x in improved if in_f[x]]
    while True:
        created.append(t)
        cursor.append(size + 1)
        untaken.append(size)
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
                    # position i of the untaken n, drawn as randrange(n)
                    # draws it; the last untaken position's rank moves in
                    n = untaken[k]
                    if not n:
                        raise AssertionError(f"column {x} has no untaken rank")
                    untaken[k] = last = n - 1
                    bits = n.bit_length()
                    i = getrandbits(bits)
                    while i >= n:
                        i = getrandbits(bits)
                    swap = swaps[k]
                    rank = ranks[x] = swap.get(i, i) + 1
                    swap[i] = swap.get(last, last)
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
                untaken.pop()
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
        size = pool - held
        improved = turned()
        if not every:
            improved = [x for x in improved if in_f[x]]
        improved.sort()


def random_facet(
    g: Digraph,
    policy: Policy,
    rng,
    subset=None,
    trace: bool = False,
) -> RunResult:
    """Facet-removal rule with a fresh random pick at every call.

    The run is `_facet_lazy`: every descent's removal order is uniform, but
    a column's rank in it is drawn only when the column improves. With
    `trace`, the result's `frames` holds the engine's frame records, one
    per descent in creation order: (size, revealed, depth). That is the
    computation tree `comptrees.record_tree` rebuilds: frame j > 0 was
    opened by pivot j - 1, as the right child of the latest earlier frame
    one level up, at the rank that frame revealed for the entering column.
    The ranks the run never drew are not recorded; any placement of them is
    consistent with every test it made. The pivots and the draws are the
    same with or without `trace`.
    """
    tracker, in_f = _start(g, policy, subset)
    frames: list | None = [] if trace else None
    _facet_lazy(tracker, in_f, rng, frames)
    return tracker.result("random-facet", frames=frames)


def _edge_of_rank(sigma, m: int) -> list[int]:
    """The inverse of sigma, indexed by rank (entry 0 unused). Raises
    ValueError unless sigma is a permutation of 1..m: with a tied rank, a
    rank-ordered rule would skip an edge, and a float or bool is no rank.

    The check rides on the inverse's construction: m int ranks, none below
    1, fill the m slots 1..m exactly when no rank repeats or exceeds m (a
    rank above m stops the fill), so one -1 left, at entry 0, means a
    permutation."""
    edge_of_rank = [-1] * (m + 1)
    if len(sigma) == m and not {*map(type, sigma)} - {int} and min(sigma, default=1) > 0:
        try:
            for e, rank in enumerate(sigma):
                edge_of_rank[rank] = e
        except IndexError:
            pass
        if edge_of_rank.count(-1) == 1:
            return edge_of_rank
    raise ValueError(f"sigma is not a permutation of 1..{m}")


def random_facet_one_perm(
    g: Digraph, policy: Policy, sigma, subset=None
) -> RunResult:
    """Facet-removal rule that always removes the candidate of minimum
    permutation index; deterministic given sigma.

    This is `_facet_collapsed` with every candidate list sorted by sigma, so
    each unwind tests its candidates in descending rank and pivots on the
    first improving one. This engine makes the same pivots, but its work per
    pivot scales with the shifted subtree, as `bland_nonrec`'s does, not
    with the candidate pool: the non-improving candidates that the general
    engine tests and restores are never touched. Three facts keep it exact:

    - A pivot only ever happens while every pool column is non-improving:
      the pool holds columns tested non-improving since the last pivot, and
      leaving columns, which a pivot leaves non-improving. So after a pivot
      by step delta < 0, the only columns that can have become improving
      are in-edges x of shifted vertices with red[x] < 0 <= red[x] - delta.
    - Each such x belongs to one place: the first live frame created at or
      after the pivot where x last left the basis whose rank cursor is
      above sigma[x]. No older frame holds x, which was basic after each
      of them was created; a younger frame whose cursor passed sigma[x]
      tested x and restored it to the pool; and the frame pushed at this
      pivot stands for the pool. Creation times rise up the stack, so a
      bisect over them finds where to start looking.
    - Each frame is a rank cursor plus a max-rank heap of the columns it
      holds that have improved. The top frame pivots on its highest-ranked
      heap entry that still has red < 0, and sets its cursor to that rank;
      if there is no such entry, the frame is popped. That is the general
      unwind's pick, because every entry with red < 0 is a column the frame
      still holds, and the pick has an entry (next point). Entries above
      the cursor were popped before the frame last pivoted. An entry at the
      cursor is a copy of the column it last pivoted in: that column is now
      basic or, having left the basis after the frame was created and
      outlived every younger frame, in the pool. Either way its red is not
      negative while the frame is on top.
    - The turn scan prices each twin group of a shifted vertex's in-edges
      once, as `_PivotTracker.turned_improving` does, and each in_f copy of
      a group that turned finds its place as above; only the copy whose
      place comes first in the engine's order, top frame first, then
      highest rank, is pushed. Twins share one reduced cost on every tree,
      so they turn improving together and stop together. The pushed copy is
      the first of its group the engine reaches: any older live entry of
      another copy sits at that copy's current place, which is no higher,
      and a frame is popped only once its heap is empty. If that entry is
      popped while the group improves, the engine pivots on it, and every
      twin is left at reduced cost 0; if it is popped stale, the group does
      not improve. Either way the other copies could only be dropped as
      stale until the next turn, and that turn pushes again. So a copy the
      general unwind would pick, its frame's highest-ranked improving
      column, is the pushed one, and its entry is live.

    The first heap is seeded from the start snapshot's reduced costs, every
    improving in_f column; every later red is priced from the kernel's
    potentials where it is read.
    """
    m = g.n_edges
    edge_of_rank = _edge_of_rank(sigma, m)
    tracker, in_f = _start(g, policy, subset)
    y = tracker.y
    pivot = tracker.pivot
    log = tracker.log
    twins = tracker.twins
    costs, heads, tails = g.costs, g.heads, g.tails
    heappush, heappop = heapq.heappush, heapq.heappop
    left_at = [0] * m  # pivot count at which each column last left the basis
    # frame k: created[k] (pivot count at its creation), cursor[k] and a heap
    # of -rank; basic columns have red 0, so the first heap needs no filter
    created = [0]
    cursor = [m + 1]
    red = tracker.snap.red
    heap = [-sigma[e] for e in compress(range(m), in_f) if red[e] < 0]
    heapq.heapify(heap)
    heaps = [heap]
    while heaps:
        heap = heaps[-1]
        while heap:
            rank = -heappop(heap)
            e = edge_of_rank[rank]
            delta = costs[e] + y[heads[e]] - y[tails[e]]
            if delta < 0:
                break
        else:
            heaps.pop()
            created.pop()
            cursor.pop()
            continue
        cursor[-1] = rank
        leaving = pivot(e)
        t = len(log)
        left_at[leaving] = t
        created.append(t)
        cursor.append(m + 1)
        heaps.append([])
        for w in tracker.shifted:
            yw = y[w]
            for u, c, ids in twins[w]:
                r = c + yw - y[u]
                if r < 0 <= r - delta:
                    bk = br = -1
                    for x in ids:
                        if in_f[x]:
                            k = bisect_left(created, left_at[x])
                            rank = sigma[x]
                            while cursor[k] <= rank:
                                k += 1
                            if k > bk or k == bk and rank > br:
                                bk, br = k, rank
                    if bk >= 0:
                        heappush(heaps[bk], -br)
    return tracker.result("random-facet-1p", sigma)


def random_facet_nonrec(g: Digraph, policy: Policy, rng) -> RunResult:
    """Non-recursive facet-removal rule.

    Keeps an explicit permutation of the non-tree edges; pivots on the first
    improving edge in permutation order, then reshuffles the scanned prefix
    together with the edge that left the tree, keeping the suffix order.
    Both shuffles are `shuffle_exact`.
    """
    tracker = _PivotTracker(g, policy)
    red = list(tracker.snap.red)
    perm = list(tracker.snap.picks)
    shuffle_exact(perm, rng)
    while True:
        j = next((i for i, e in enumerate(perm) if red[e] < 0), None)
        if j is None:
            break
        e = perm[j]
        leaving = tracker.pivot(e)
        tracker.shift_costs(red)
        prefix = perm[:j] + [leaving]
        shuffle_exact(prefix, rng)
        perm = prefix + perm[j + 1:]
    return tracker.result("random-facet-nonrec")


def bland_rec(
    g: Digraph,
    policy: Policy,
    sigma,
    ell: int = 1,
    frame_hook=None,
) -> RunResult:
    """Recursive fixed-permutation rule over the suffix edge sets.

    The call for suffix level ell works on the edges of permutation index
    >= ell; it removes the index-ell edge, recurses, and pivots when that
    edge improves the returned tree. `frame_hook(ell, policy_before,
    entering, policy_after)` observes every pivot.
    """
    m = g.n_edges
    edge_of_rank = _edge_of_rank(sigma, m)
    tracker = _PivotTracker(g, policy)
    red = list(tracker.snap.red)
    # frame: [rank, stage]; global policy threads through the recursion
    stack = [[ell, 0]]
    while stack:
        frame = stack[-1]
        rank, stage = frame
        if rank > m:
            stack.pop()
            continue
        if stage == 0:
            frame[1] = 1
            stack.append([rank + 1, 0])
            continue
        e = edge_of_rank[rank]
        if red[e] < 0:
            before = Policy(tracker.chosen) if frame_hook else None
            tracker.pivot(e)
            tracker.shift_costs(red)
            if frame_hook:
                frame_hook(rank, before, e, Policy(tracker.chosen))
            frame[1] = 0  # tail call: rerun this suffix with the new tree
            continue
        stack.pop()
    return tracker.result("bland", sigma)


def bland_nonrec(g: Digraph, policy: Policy, sigma, start: int = 1) -> RunResult:
    """Scanning form of the fixed-permutation rule: repeatedly pivot on the
    improving edge of largest permutation index >= start.

    Improving edges wait in a heap of -rank, as in `random_facet_one_perm`.
    A pivot with step delta < 0 lowers the reduced cost only of edges into
    the shifted subtree from outside it (edges out of it rise, the leaving
    edge among them), so only an edge into a shifted vertex that crossed
    to red < 0 can have turned improving. The turn scan prices each twin
    group (`graphs._in_twins`) of those edges once, and for a group that
    turned pushes only its highest rank, if that is >= start. As in
    `random_facet_one_perm`, the first heap holds every improving edge of
    rank >= start, read from the start snapshot's reduced costs, and every
    later red is priced from the potentials. The top entry that still
    improves is the pick, and a top that does not is dropped:

    - Twins share one reduced cost on every tree, so they turn improving
      together and stop together, and the rule's pick, the improving edge
      of largest rank >= start, is its group's highest rank.
    - The heap gives the largest rank first, so the pushed copy is the
      first of its group it reaches; any older entry of another copy has a
      lower rank. If that entry is popped while the group improves, the
      engine pivots on it, and every twin is left at reduced cost 0; if it
      is popped stale, the group does not improve. Either way the other
      copies could only be dropped as stale until the next turn, and that
      turn pushes again.
    - So every improving group with a rank >= start has a live entry at its
      highest rank: the one pushed at the turn that made it improving (or
      seeded), which no pop has reached since, as a pop while the group
      improves pivots on it.
    """
    edge_of_rank = _edge_of_rank(sigma, g.n_edges)
    tracker = _PivotTracker(g, policy)
    y = tracker.y
    twins = tracker.twins
    costs, heads, tails = g.costs, g.heads, g.tails
    heappush, heappop = heapq.heappush, heapq.heappop
    red = tracker.snap.red
    heap = [-r for e, r in enumerate(sigma) if red[e] < 0 and r >= start]
    heapq.heapify(heap)
    while heap:
        e = edge_of_rank[-heappop(heap)]
        delta = costs[e] + y[heads[e]] - y[tails[e]]
        if delta >= 0:
            continue
        tracker.pivot(e)
        for w in tracker.shifted:
            yw = y[w]
            for u, c, ids in twins[w]:
                r = c + yw - y[u]
                if r < 0 <= r - delta:
                    top = 0
                    for x in ids:
                        if sigma[x] > top:
                            top = sigma[x]
                    if top >= start:
                        heappush(heap, -top)
    return tracker.result("bland-nonrec", sigma)


def random_bland(g: Digraph, policy: Policy, rng) -> RunResult:
    """Fixed-permutation rule with a uniformly random permutation."""
    sigma = random_permutation_fn(g.n_edges, rng)
    res = bland_nonrec(g, policy, sigma)
    res.rule = "random-bland"
    return res


def dantzig(g: Digraph, policy: Policy) -> RunResult:
    """Baseline rule: pivot on the edge of smallest reduced cost
    cost(e) + y(head) - y(tail); ties break to the lowest edge id.

    The improving edges wait in a heap of (reduced cost, id), seeded from
    the start snapshot's reduced costs. A pivot lowers the reduced cost
    only of edges into the shifted subtree, so after each one the engine
    pushes, for every twin group (`graphs._in_twins`) of a shifted vertex's
    in-edges whose reduced cost is negative, that cost with the group's
    lowest id. Each top is priced from the potentials: at its key it is the
    pick, and otherwise it is dropped.

    Why the top priced at its key is the scan's pick, the lowest id of
    smallest reduced cost: twins tie on every tree, so the pick is always
    its group's lowest id, and every such edge that improves has an entry
    at its reduced cost as it stands. A pivot on the pick, at reduced cost
    delta, raises the reduced cost only of edges out of the shifted
    subtree, each by -delta from at least delta, so to 0 or above; such an
    edge improves again only once a later pivot lowers it, and that pivot
    pushes it at its new price. So the entry pushed at the last pivot that
    lowered an improving edge (or the seed) still holds its price, and a
    top priced at its key is its own edge's (red, id), the least over the
    improving edges: the pick. A top priced off its key is an edge that no
    longer improves, or a stale copy of an edge pushed again since. An
    empty heap leaves no improving edge.
    """
    tracker = _PivotTracker(g, policy)
    y, twins, pivot = tracker.y, tracker.twins, tracker.pivot
    costs, heads, tails = g.costs, g.heads, g.tails
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = [(r, e) for e, r in enumerate(tracker.snap.red) if r < 0]
    heapq.heapify(heap)
    while heap:
        key, e = heappop(heap)
        if costs[e] + y[heads[e]] - y[tails[e]] != key:
            continue
        pivot(e)
        for w in tracker.shifted:
            yw = y[w]
            for u, c, ids in twins[w]:
                r = c + yw - y[u]
                if r < 0:
                    heappush(heap, (r, ids[0]))
    return tracker.result("dantzig")


# ---------------------------------------------------------------------------
# Permutation machinery


def shuffle_exact(x: list, rng) -> None:
    """Shuffle x in place, drawing exactly the bits `rng.shuffle(x)` draws.

    `random.Random.shuffle` swaps x[i] with x[j] for i from the end down to
    1, with j = rng._randbelow(i + 1): getrandbits(k) for k = (i +
    1).bit_length(), redrawn while it exceeds i. This is that loop without
    the `_randbelow` call per element, about twice as fast; a seeded rng
    leaves the same list and the same generator state (see the differential
    test against `Random.shuffle`).
    """
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def randbelow_exact(n: int, rng) -> int:
    """A draw of `rng.randrange(n)`, n >= 1, without its `_randbelow` call.

    `Random.randrange(n)` returns getrandbits(k) for k = n.bit_length(),
    redrawn while it is at least n; so does this, and a seeded rng gives
    the same value and leaves the same generator state (see the
    differential test against `Random.randrange`).
    """
    if n <= 0:
        raise ValueError("empty range for randbelow_exact")
    k = n.bit_length()
    j = rng.getrandbits(k)
    while j >= n:
        j = rng.getrandbits(k)
    return j


def random_permutation_fn(m: int, rng) -> list[int]:
    """A uniform bijection edge id -> rank in 1..m, as a list."""
    ranks = list(range(1, m + 1))
    shuffle_exact(ranks, rng)
    return ranks


def sigma_b1(idx: CounterGraphIndex, keys, i: int):
    """First (minimum) key among level i's b-chain one-edges."""
    return min(idx.layout.b1[i - 1](keys))


def sigma_a1(idx: CounterGraphIndex, keys, i: int):
    """Key at which every a chain of level i has been touched: the maximum
    over its chains of each chain's first (minimum) key."""
    return max([min(chain(keys)) for chain in idx.layout.a1[i - 1]])


def sigma_multi(idx: CounterGraphIndex, keys, g: int):
    """Key of the last copy of multi-edge g (an index into `multi_edges`)."""
    return max(map(keys.__getitem__, idx.multi_edges[g]))


def sigma_b1_all(idx: CounterGraphIndex, keys) -> list:
    """`sigma_b1` of every level, level i at index i - 1."""
    return [min(chain(keys)) for chain in idx.layout.b1]


def sigma_a1_all(idx: CounterGraphIndex, keys) -> list:
    """`sigma_a1` of every level, level i at index i - 1."""
    return [
        max([min(chain(keys)) for chain in chains]) for chains in idx.layout.a1
    ]


def sigma_multi_all(idx: CounterGraphIndex, keys):
    """`sigma_multi` of every multi-edge, in group order: the layout's copy
    columns folded pairwise. A comprehension's specialised compare costs
    less per group than a call of `max` with several arguments."""
    first, *rest = idx.layout.multi
    top = first(keys)
    for col in rest:
        top = [x if x >= y else y for x, y in zip(top, col(keys))]
    return top


def is_well_behaved(idx: CounterGraphIndex, sigma) -> bool:
    """Whether sigma orders removals so the counter dynamics survive.

    Requires, for every level, a b-chain edge ahead of the level's last
    a chain, and every a chain's first edge ahead of every multi-edge's
    last copy.
    """
    level_a = sigma_a1_all(idx, sigma)
    if any(map(ge, sigma_b1_all(idx, sigma), level_a)):
        return False
    return min(sigma_multi_all(idx, sigma)) > max(level_a)


def induced_permutation(idx: CounterGraphIndex, sigma) -> list[int]:
    """Bit priorities induced by sigma: levels ranked by the first rank of
    their b chain. Entry 0 of the returned list is unused."""
    level_b = sigma_b1_all(idx, sigma)
    out = [0] * (idx.n + 1)
    order = sorted(range(idx.n), key=level_b.__getitem__)
    for rank, k in enumerate(order, start=1):
        out[k + 1] = rank
    return out


def sample_well_behaved(idx: CounterGraphIndex, rng) -> list[int]:
    """Sample a well-behaved permutation constructively.

    Uniform rejection is hopeless at small chain lengths (the acceptance
    probability decays like exp(-|M| * P[one chain sorts after one
    multi-edge])), so instead: draw independent uniform keys, then (a) for
    any level whose b chain sorts after its last a chain, redraw one random
    b-chain key below that threshold, and (b) for any multi-edge whose last
    copy sorts before some a chain's first key, redraw one random copy above
    the largest such key. Neither repair disturbs the other constraint, and
    no repair touches an a-chain key, so the level thresholds read before
    the repairs stay valid. The rank order of the keys is the permutation.

    Every statistic is read once, from the vector forms, before any repair
    of its kind: the groups are disjoint, so one group's repair cannot
    change another's test. An (a) repair draws its key, then its edge; a
    (b) repair draws its copy, then its key.

    The final `is_well_behaved` test on the ranks is skipped when every
    repaired key landed strictly inside its bound (below the level's A in
    (a), above the threshold in (b)), because then sigma is well-behaved: a
    level or group that needed no repair already meets its condition
    strictly on the keys; the repairs touch only b-chain and multi-edge
    keys, so neither the A values nor the threshold move; and the sort
    gives a strictly smaller key a smaller rank. Otherwise (a float tie,
    or a key rounded onto its bound) the test runs and may reject and
    redraw, so the draws are those of always testing.
    """
    m = idx.n_edges
    random, randrange = rng.random, rng.randrange
    b_chains = [idx.b1(i) for i in idx.levels()]
    while True:
        keys = list(starmap(random, repeat((), m)))
        strict = True
        level_a = sigma_a1_all(idx, keys)
        for b, a, chain in zip(sigma_b1_all(idx, keys), level_a, b_chains):
            if b >= a:
                # the key before the edge: the order of `keys[...] = random() * a`
                new = random() * a
                keys[chain[randrange(len(chain))]] = new
                strict = strict and new < a
        threshold = max(level_a)
        for grp, top in zip(idx.multi_edges, sigma_multi_all(idx, keys)):
            if top <= threshold:
                pick = grp[randrange(len(grp))]
                new = keys[pick] = threshold + random() * (1.0 - threshold)
                strict = strict and new > threshold
        sigma = [0] * m
        for rank, e in enumerate(sorted(range(m), key=keys.__getitem__), start=1):
            sigma[e] = rank
        if strict or is_well_behaved(idx, sigma):
            return sigma


def suffix_set(sigma, ell: int) -> frozenset[int]:
    """Edges whose permutation index is at least ell."""
    return frozenset(e for e in range(len(sigma)) if sigma[e] >= ell)


def fixed_vertices(g: Digraph, policy: Policy, subset) -> set[int]:
    """Tails whose tree distance is already optimal in the subgraph spanned
    by the subset plus the policy's own edges."""
    edges = set(subset) | policy.edge_set()
    dist_tree = tree_distances_list(g, policy.chosen)
    dist_opt = optimal_distances_list(g, edges)
    return {
        v for v in range(g.n_vertices)
        if v != g.target and dist_tree[v] == dist_opt[v]
    }


def is_fixed_edge(g: Digraph, e: int, policy: Policy, subset) -> bool:
    """Whether the policy edge e keeps its tail at the optimal distance of
    the subgraph spanned by subset plus the policy edges; such edges survive
    every later improving switch."""
    u = _edge_tail(g, e)
    if policy.chosen[u] != e:
        raise ValueError(f"edge {e} is not the policy's choice at vertex {u}")
    return u in fixed_vertices(g, policy, subset)
