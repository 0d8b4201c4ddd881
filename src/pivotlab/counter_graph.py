"""The layered binary-counter gadget graphs and their optimal-edge structure.

A counter graph with parameters (n, r, s, t) has one level per counter bit.
Level i owns a chain of rs "b" vertices whose zero-cost path realizes bit i
being set, r parallel chains of s "a" vertices that gate the resets, and
entry vertices u_i / w_i. Every positive-cost escape edge exists in t
identical parallel copies (a multi-edge); one-edges (superscript 1 in the
edge names) cost zero, zero-edges (superscript 0) carry the positive escape
costs. True costs use increments of eps = 1/(rs); all stored costs are
scaled by rs so they stay integral.

Edge and vertex names like ``a^{0,3}_{2,1,4}`` are the canonical cross-file
identifiers, also used in the JSON sidecar index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graphs import Digraph, Policy


class NotFunctionalError(Exception):
    """The edge subset misses every copy of some multi-edge."""


BIT_ONE = "one"
BIT_ZERO = "zero"
BIT_UNDEFINED = "undefined"


@dataclass
class CounterGraphIndex:
    """Vertex/edge layout and the named edge groups of a built counter graph."""

    n: int
    r: int
    s: int
    t: int
    scale: int
    n_vertices: int = 0
    n_edges: int = 0
    target: int = 0
    u_vertex: dict[int, int] = field(default_factory=dict)
    w_vertex: dict[int, int] = field(default_factory=dict)
    a_vertex: dict[tuple[int, int, int], int] = field(default_factory=dict)
    b_vertex: dict[tuple[int, int], int] = field(default_factory=dict)
    _b1: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _b0: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _a1: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _a0: dict[tuple[int, int, int], tuple[int, ...]] = field(default_factory=dict)
    _u1: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _u0: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _w: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _w0: dict[int, tuple[int, ...]] = field(default_factory=dict)
    multi_edges: tuple[tuple[int, ...], ...] = ()
    # per-edge reverse map, tagged as each edge is added:
    # ("b1", i, j) | ("a1", i, j, k) | ("multi", group_idx)
    edge_group: tuple = ()

    def levels(self) -> range:
        return range(1, self.n + 1)

    def b1(self, i: int) -> tuple[int, ...]:
        """The rs one-edges of level i's b chain, ordered by position j."""
        return self._b1[i]

    def b1_chunk(self, i: int, j: int) -> tuple[int, ...]:
        """The j-th block of s consecutive b-chain one-edges, j in 1..r."""
        return self._b1[i][(j - 1) * self.s: j * self.s]

    def b0(self, i: int, j: int) -> tuple[int, ...]:
        return self._b0[(i, j)]

    def a1(self, i: int, j: int) -> tuple[int, ...]:
        """The s one-edges of chain j at level i, ordered by position k."""
        return self._a1[(i, j)]

    def a0(self, i: int, j: int, k: int) -> tuple[int, ...]:
        return self._a0[(i, j, k)]

    def u1(self, i: int) -> tuple[int, ...]:
        return self._u1[i]

    def u0(self, i: int) -> tuple[int, ...]:
        return self._u0[i]

    def w_group(self, i: int, j: int) -> tuple[int, ...]:
        return self._w[(i, j)]

    def w0(self, i: int) -> tuple[int, ...]:
        return self._w0[i]

    def one_edges(self) -> frozenset[int]:
        out: set[int] = set()
        for i in self.levels():
            out.update(self._b1[i])
            for j in range(1, self.r + 1):
                out.update(self._a1[(i, j)])
                out.update(self._w[(i, j)])
            out.update(self._u1[i])
        return frozenset(out)


def multi_edge_count(n: int, r: int, s: int) -> int:
    """|M|, the number of multi-edges of `build_counter_graph(n, r, s, t)`:
    per level rs b^0, rs a^0, r w, and u^1, u^0, w^0."""
    return n * (2 * r * s + r + 3)


def counter_graph_size(n: int, r: int, s: int, t: int) -> tuple[int, int]:
    """The vertex and edge counts of `build_counter_graph(n, r, s, t)`, in
    closed form, without building it: 2rs one-edges per level and t copies
    of each multi-edge."""
    rs = r * s
    return 1 + 2 * n + 2 * n * rs, 2 * n * rs + t * multi_edge_count(n, r, s)


def build_counter_graph(
    n: int, r: int, s: int, t: int
) -> tuple[Digraph, CounterGraphIndex]:
    """Build the n-level gadget graph; all costs scaled by rs."""
    if min(n, r, s, t) < 1:
        raise ValueError("all parameters must be at least 1")
    rs = r * s
    scale = rs
    idx = CounterGraphIndex(n=n, r=r, s=s, t=t, scale=scale)

    vertex_names = ["t"]
    idx.target = 0

    def add_vertex(name: str) -> int:
        vertex_names.append(name)
        return len(vertex_names) - 1

    for i in range(1, n + 1):
        idx.u_vertex[i] = add_vertex(f"u_{i}")
        idx.w_vertex[i] = add_vertex(f"w_{i}")
        for j in range(1, r + 1):
            for k in range(1, s + 1):
                idx.a_vertex[(i, j, k)] = add_vertex(f"a_{{{i},{j},{k}}}")
        for j in range(1, rs + 1):
            idx.b_vertex[(i, j)] = add_vertex(f"b_{{{i},{j}}}")
    # levels n+1 collapse into the single target vertex
    idx.u_vertex[n + 1] = idx.target
    idx.w_vertex[n + 1] = idx.target

    tails: list[int] = []
    heads: list[int] = []
    costs: list[int] = []
    names: list[str] = []
    groups: list[tuple] = []
    multi: list[tuple[int, ...]] = []

    def add_edge(tail: int, head: int, cost: int, name: str, group: tuple) -> int:
        tails.append(tail)
        heads.append(head)
        costs.append(cost)
        names.append(name)
        groups.append(group)
        return len(tails) - 1

    def add_multi(tail: int, head: int, cost: int, name_of) -> tuple[int, ...]:
        group = ("multi", len(multi))
        ids = tuple(
            add_edge(tail, head, cost, name_of(ell), group)
            for ell in range(1, t + 1)
        )
        multi.append(ids)
        return ids

    for i in range(1, n + 1):
        hi = scale * (1 << (2 * i + 1))  # escape cost of the a chains
        lo = scale * (1 << (2 * i))      # escape cost of u_i / w_i
        # b chain: one-edge path b_{i,1} -> ... -> b_{i,rs} -> w_{i+1}
        b1_ids = []
        for j in range(1, rs + 1):
            head = idx.b_vertex[(i, j + 1)] if j < rs else idx.w_vertex[i + 1]
            e = add_edge(idx.b_vertex[(i, j)], head, 0, f"b^1_{{{i},{j}}}", ("b1", i, j))
            b1_ids.append(e)
        idx._b1[i] = tuple(b1_ids)
        for j in range(1, rs + 1):
            idx._b0[(i, j)] = add_multi(
                idx.b_vertex[(i, j)], idx.u_vertex[i + 1], hi + scale + (j - 1),
                lambda ell, i=i, j=j: f"b^{{0,{ell}}}_{{{i},{j}}}",
            )
        # a chains: per j, one-edge path a_{i,j,1} -> ... -> a_{i,j,s} -> b_{i,1}
        for j in range(1, r + 1):
            a1_ids = []
            for k in range(1, s + 1):
                head = (
                    idx.a_vertex[(i, j, k + 1)] if k < s else idx.b_vertex[(i, 1)]
                )
                e = add_edge(
                    idx.a_vertex[(i, j, k)], head, 0, f"a^1_{{{i},{j},{k}}}",
                    ("a1", i, j, k),
                )
                a1_ids.append(e)
            idx._a1[(i, j)] = tuple(a1_ids)
            for k in range(1, s + 1):
                idx._a0[(i, j, k)] = add_multi(
                    idx.a_vertex[(i, j, k)], idx.u_vertex[i + 1], hi + (k - 1),
                    lambda ell, i=i, j=j, k=k: f"a^{{0,{ell}}}_{{{i},{j},{k}}}",
                )
        idx._u1[i] = add_multi(
            idx.u_vertex[i], idx.b_vertex[(i, 1)], 0,
            lambda ell, i=i: f"u^{{1,{ell}}}_{i}",
        )
        idx._u0[i] = add_multi(
            idx.u_vertex[i], idx.u_vertex[i + 1], lo,
            lambda ell, i=i: f"u^{{0,{ell}}}_{i}",
        )
        for j in range(1, r + 1):
            idx._w[(i, j)] = add_multi(
                idx.w_vertex[i], idx.a_vertex[(i, j, 1)], 0,
                lambda ell, i=i, j=j: f"w^{{{j},{ell}}}_{i}",
            )
        idx._w0[i] = add_multi(
            idx.w_vertex[i], idx.w_vertex[i + 1], lo,
            lambda ell, i=i: f"w^{{0,{ell}}}_{i}",
        )

    idx.multi_edges = tuple(multi)
    idx.n_vertices = len(vertex_names)
    idx.n_edges = len(tails)
    idx.edge_group = tuple(groups)

    g = Digraph(
        n_vertices=idx.n_vertices,
        target=idx.target,
        tails=tails,
        heads=heads,
        costs=costs,
        scale=scale,
        edge_names=names,
        vertex_names=vertex_names,
    )
    return g, idx


def initial_tree(idx: CounterGraphIndex) -> Policy:
    """The start policy: the first copy of every zero-edge, all bits read 0."""
    chosen: list[int | None] = [None] * idx.n_vertices
    for i in idx.levels():
        chosen[idx.u_vertex[i]] = idx.u0(i)[0]
        chosen[idx.w_vertex[i]] = idx.w0(i)[0]
        for j in range(1, idx.r * idx.s + 1):
            chosen[idx.b_vertex[(i, j)]] = idx.b0(i, j)[0]
        for j in range(1, idx.r + 1):
            for k in range(1, idx.s + 1):
                chosen[idx.a_vertex[(i, j, k)]] = idx.a0(i, j, k)[0]
    return Policy(tuple(chosen))


def one_edge_tree(idx: CounterGraphIndex, rng=None) -> Policy:
    """An optimal policy using only one-edges; multi-copy picks default to
    the first copy or are randomized with `rng`."""

    def pick(ids: Sequence[int]) -> int:
        return ids[0] if rng is None else ids[rng.randrange(len(ids))]

    chosen: list[int | None] = [None] * idx.n_vertices
    for i in idx.levels():
        chosen[idx.u_vertex[i]] = pick(idx.u1(i))
        wj = 1 if rng is None else rng.randrange(idx.r) + 1
        chosen[idx.w_vertex[i]] = pick(idx.w_group(i, wj))
        for j, e in enumerate(idx.b1(i), start=1):
            chosen[idx.b_vertex[(i, j)]] = e
        for j in range(1, idx.r + 1):
            for k, e in enumerate(idx.a1(i, j), start=1):
                chosen[idx.a_vertex[(i, j, k)]] = e
    return Policy(tuple(chosen))


def _last_missing(chain: Sequence[int], subset: Iterable[int]) -> int:
    """The last 1-based position of `chain` missing from the subset, else 0."""
    sub = subset if isinstance(subset, (set, frozenset)) else set(subset)
    return next((p for p in range(len(chain), 0, -1) if chain[p - 1] not in sub), 0)


def last_b(idx: CounterGraphIndex, i: int, subset: Iterable[int]) -> int:
    """`_last_missing` of level i's b chain."""
    return _last_missing(idx.b1(i), subset)


def last_a(idx: CounterGraphIndex, i: int, j: int, subset: Iterable[int]) -> int:
    return _last_missing(idx.a1(i, j), subset)


def is_functional(idx: CounterGraphIndex, subset: Iterable[int]) -> bool:
    """True iff the subset keeps at least one copy of every multi-edge."""
    sub = subset if isinstance(subset, (set, frozenset)) else set(subset)
    return all(any(e in sub for e in ids) for ids in idx.multi_edges)


def _a_complete(idx: CounterGraphIndex, i: int, sub) -> bool:
    """Whether some a chain of level i lies entirely in the subset."""
    return any(
        all(e in sub for e in idx.a1(i, j)) for j in range(1, idx.r + 1)
    )


def reset_level(idx: CounterGraphIndex, subset: Iterable[int]) -> int:
    """Highest level whose b chain is intact but no a chain is, else 0.

    All bits below this level read 0 in any optimal tree of the subgraph.
    """
    sub = subset if isinstance(subset, (set, frozenset)) else set(subset)
    out = 0
    for i in idx.levels():
        if all(e in sub for e in idx.b1(i)) and not _a_complete(idx, i, sub):
            out = i
    return out


def bit_value(
    idx: CounterGraphIndex, i: int, subset: Iterable[int], policy: Policy
) -> str:
    """Interpret level i of (subset, policy) as a counter bit.

    Returns "one"/"zero" exactly when the respective condition lists hold
    and "undefined" otherwise. When the chain's final one-edge is missing
    from the subset the two lists can hold simultaneously; the one reading
    wins there, matching how the optimal-edge family treats such levels.
    """
    sub = subset if isinstance(subset, (set, frozenset)) else set(subset)
    in_b = policy.edge_set()
    b_edges = idx.b1(i)
    a_chunks = [idx.a1(i, j) for j in range(1, idx.r + 1)]

    lb = last_b(idx, i, sub)
    one = all((e in in_b) == (j > lb) for j, e in enumerate(b_edges, start=1))
    if one:
        if lb == 0:  # whole b chain present
            for j, chunk in enumerate(a_chunks, start=1):
                la = last_a(idx, i, j, sub)
                if not all((e in in_b) == (k > la) for k, e in enumerate(chunk, start=1)):
                    one = False
                    break
        else:
            one = all(not any(e in in_b for e in chunk) for chunk in a_chunks)
    if one:
        return BIT_ONE
    if not any(e in in_b for e in b_edges) and all(
        not any(e in in_b for e in chunk) for chunk in a_chunks
    ):
        return BIT_ZERO
    return BIT_UNDEFINED


def bf_edge_set(idx: CounterGraphIndex, subset: Iterable[int]) -> frozenset[int]:
    """The exact optimal-edge family of the subgraph of a functional subset.

    Case split per level against the reset level; every vertex keeps at
    least one outgoing edge in the result.
    """
    sub = subset if isinstance(subset, (set, frozenset)) else set(subset)
    if not is_functional(idx, sub):
        raise NotFunctionalError("subset misses every copy of some multi-edge")
    reset = reset_level(idx, sub)
    out: set[int] = set()

    def keep_present(ids: Sequence[int]) -> None:
        out.update(e for e in ids if e in sub)

    def keep_a_chains(i: int) -> None:
        # each a chain's one-edges past its last missing one, and the present
        # a0 copies of the rest
        for j in range(1, idx.r + 1):
            la = last_a(idx, i, j, sub)
            for k, e in enumerate(idx.a1(i, j), start=1):
                if k > la:
                    out.add(e)
                else:
                    keep_present(idx.a0(i, j, k))

    for i in idx.levels():
        b_intact = all(e in sub for e in idx.b1(i))
        if i > reset and b_intact:
            out.update(idx.b1(i))
            keep_a_chains(i)
            keep_present(idx.u1(i))
            for j in range(1, idx.r + 1):
                if all(e in sub for e in idx.a1(i, j)):
                    keep_present(idx.w_group(i, j))
        elif i > reset:
            lb = last_b(idx, i, sub)
            for j, e in enumerate(idx.b1(i), start=1):
                if j > lb:
                    out.add(e)
                else:
                    keep_present(idx.b0(i, j))
            for j in range(1, idx.r + 1):
                for k in range(1, idx.s + 1):
                    keep_present(idx.a0(i, j, k))
            keep_present(idx.u0(i))
            keep_present(idx.w0(i))
        elif i == reset:
            out.update(idx.b1(i))
            keep_a_chains(i)
            keep_present(idx.u1(i))
            keep_present(idx.w0(i))
        else:  # i < reset
            for j in range(1, idx.r * idx.s + 1):
                keep_present(idx.b0(i, j))
            for j in range(1, idx.r + 1):
                for k in range(1, idx.s + 1):
                    keep_present(idx.a0(i, j, k))
            keep_present(idx.u0(i))
            for j in range(1, idx.r + 1):
                keep_present(idx.w_group(i, j))
    return frozenset(out)


def random_functional_subset(
    idx: CounterGraphIndex, rng, drop: float = 0.3
) -> frozenset[int]:
    """Drop each edge independently, then restore one copy of any multi-edge
    that went empty so the result stays functional."""
    keep = [rng.random() >= drop for _ in range(idx.n_edges)]
    for ids in idx.multi_edges:
        if not any(keep[e] for e in ids):
            keep[ids[rng.randrange(len(ids))]] = True
    return frozenset(e for e in range(idx.n_edges) if keep[e])


def random_tree_within(
    g: Digraph, edges: Iterable[int], rng
) -> Policy:
    """Uniform per-vertex choice among the allowed out-edges. The graph is
    acyclic, so any full choice is a valid policy."""
    allowed = set(edges)
    chosen: list[int | None] = [None] * g.n_vertices
    for v in range(g.n_vertices):
        if v == g.target:
            continue
        opts = [e for e in g.out_edges[v] if e in allowed]
        if not opts:
            raise ValueError(f"vertex {v} has no allowed outgoing edge")
        chosen[v] = opts[rng.randrange(len(opts))]
    return Policy(tuple(chosen))


def vertices_behind_b(idx: CounterGraphIndex, i: int, j: int) -> set[int]:
    """Vertices that cannot reach b_{i,j}, including b_{i,j} itself."""
    out: set[int] = set()
    for i2 in idx.levels():
        if i2 > i:
            out.add(idx.u_vertex[i2])
            out.add(idx.w_vertex[i2])
            out.update(
                idx.a_vertex[(i2, j2, k2)]
                for j2 in range(1, idx.r + 1)
                for k2 in range(1, idx.s + 1)
            )
            out.update(idx.b_vertex[(i2, j2)] for j2 in range(1, idx.r * idx.s + 1))
    out.update(idx.b_vertex[(i, j2)] for j2 in range(j, idx.r * idx.s + 1))
    return out


def index_to_json_dict(idx: CounterGraphIndex) -> dict:
    """Group-name to edge-id arrays, the sidecar schema for generated graphs."""
    groups: dict[str, list[int]] = {}
    for i in idx.levels():
        groups[f"b1[{i}]"] = list(idx.b1(i))
        for j in range(1, idx.r + 1):
            groups[f"b1_chunk[{i},{j}]"] = list(idx.b1_chunk(i, j))
            groups[f"a1[{i},{j}]"] = list(idx.a1(i, j))
            groups[f"w[{i},{j}]"] = list(idx.w_group(i, j))
            for k in range(1, idx.s + 1):
                groups[f"a0[{i},{j},{k}]"] = list(idx.a0(i, j, k))
        for j in range(1, idx.r * idx.s + 1):
            groups[f"b0[{i},{j}]"] = list(idx.b0(i, j))
        groups[f"u1[{i}]"] = list(idx.u1(i))
        groups[f"u0[{i}]"] = list(idx.u0(i))
        groups[f"w0[{i}]"] = list(idx.w0(i))
    return {
        "params": {"n": idx.n, "r": idx.r, "s": idx.s, "t": idx.t},
        "scale": idx.scale,
        "groups": groups,
        "multi_edges": [list(ids) for ids in idx.multi_edges],
    }
