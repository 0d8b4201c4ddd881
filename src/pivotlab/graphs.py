"""Weighted digraphs with exact integer costs, policy trees, and shortest-path oracles.

All costs are integers in scaled units (true cost times a global positive
integer ``scale``), so every distance comparison is exact. Shortest paths are
measured from each vertex *to* a designated target vertex.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence


class PolicyCycleError(Exception):
    """Chosen edges contain a cycle, so tree distances are undefined."""


class NegativeCycleError(Exception):
    """The graph contains a negative cycle; distances are unbounded below."""


class DisconnectedVertexError(Exception):
    """Some vertex cannot reach the target within the allowed edge set."""


class NotAnEdgeError(Exception):
    """An edge id outside the graph was supplied."""


class SelfReplaceWarning(UserWarning):
    """The switch target is already the chosen edge; applying it is a no-op."""


class Digraph:
    """Directed graph with integer scaled costs and a designated target.

    Vertex ids are dense integers ``0..n_vertices-1``; edge ids are dense
    integers ``0..n_edges-1``. Every non-target vertex must have out-degree
    at least one and must be able to reach the target; both are validated at
    construction time.
    """

    def __init__(
        self,
        n_vertices: int,
        target: int,
        tails: Sequence[int],
        heads: Sequence[int],
        costs: Sequence[int],
        scale: int = 1,
        edge_names: Sequence[str] | None = None,
        vertex_names: Sequence[str] | None = None,
    ):
        if type(target) is not int or not (0 <= target < n_vertices):
            raise ValueError(f"target {target!r} is not a vertex id")
        if not (len(tails) == len(heads) == len(costs)):
            raise ValueError("edge arrays must have equal length")
        if type(scale) is not int or scale <= 0:
            raise ValueError("scale must be a positive integer")
        self.n_vertices = n_vertices
        self.target = target
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self.costs = tuple(costs)
        self.scale = scale
        self.n_edges = len(self.tails)
        self.edge_names = (
            tuple(edge_names) if edge_names is not None
            else tuple(f"e{e}" for e in range(self.n_edges))
        )
        self.vertex_names = (
            tuple(vertex_names) if vertex_names is not None
            else tuple(f"v{v}" for v in range(n_vertices))
        )
        out: list[list[int]] = [[] for _ in range(n_vertices)]
        into: list[list[int]] = [[] for _ in range(n_vertices)]
        for e, (u, v, c) in enumerate(zip(self.tails, self.heads, self.costs)):
            if not (type(u) is type(v) is type(c) is int):  # no bool, float, Fraction
                raise ValueError(f"edge {e} ({u!r} -> {v!r}, cost {c!r}) needs ints")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge {e} endpoint out of range")
            if u == target:
                raise ValueError("the target vertex must have no outgoing edges")
            out[u].append(e)
            into[v].append(e)
        # edge ids per vertex, in increasing id order
        self.out_edges = tuple(tuple(es) for es in out)
        self.in_edges = tuple(tuple(es) for es in into)
        for v in range(n_vertices):
            if v != target and not self.out_edges[v]:
                raise DisconnectedVertexError(f"vertex {v} has no outgoing edge")
        unreachable = self._unreachable()
        if unreachable:
            raise DisconnectedVertexError(
                f"vertices {sorted(unreachable)} cannot reach the target"
            )
        self._topo: tuple[int, ...] | None | bool = False  # False = not computed
        # frozenset(range(n_edges)), built by `_edge_subset`'s first call; not a
        # cached_property, whose __dict__ write slows attribute reads on 3.11
        self._edge_ids: frozenset[int] | None = None
        # the snapshot of the last start Policy object a pivot kernel or a
        # canonical follower began from (`rules._start_tree`), built on first
        # use and hit only by that same object
        self._start_tree = None

    def _unreachable(self) -> set[int]:
        """Vertices that cannot reach the target."""
        tails = self.tails
        seen = [False] * self.n_vertices
        seen[self.target] = True
        stack = [self.target]
        while stack:
            v = stack.pop()
            for e in self.in_edges[v]:
                u = tails[e]
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return {v for v in range(self.n_vertices) if not seen[v]}

    def topological_order(self) -> tuple[int, ...] | None:
        """Vertices ordered so every edge goes forward, or None if cyclic."""
        if self._topo is False:
            indeg = [0] * self.n_vertices
            for v in self.heads:
                indeg[v] += 1
            queue = [v for v in range(self.n_vertices) if indeg[v] == 0]
            order = []
            while queue:
                u = queue.pop()
                order.append(u)
                for e in self.out_edges[u]:
                    h = self.heads[e]
                    indeg[h] -= 1
                    if indeg[h] == 0:
                        queue.append(h)
            self._topo = tuple(order) if len(order) == self.n_vertices else None
        return self._topo  # type: ignore[return-value]

    @property
    def is_acyclic(self) -> bool:
        return self.topological_order() is not None


def _edge_subset(g: Digraph, subset: Iterable[int] | None) -> frozenset[int] | None:
    """The caller's edge ids, read once into a frozenset; None (every edge)
    stays None. Raises NotAnEdgeError naming the ids that are not edges: an
    id must be an int in 0..m-1, so a float or bool equal to one is refused
    too (the set would take 1.0 or True for 1, as they hash alike)."""
    if subset is None:
        return None
    edge_ids = g._edge_ids
    if edge_ids is None:
        edge_ids = g._edge_ids = frozenset(range(g.n_edges))
    if not isinstance(subset, (frozenset, set, list, tuple, range)):
        subset = list(subset)  # read a one-shot iterable once
    sub = frozenset(subset)
    if not sub <= edge_ids or {*map(type, subset)} - {int}:
        bad = {e: None for e in subset if type(e) is not int or e not in edge_ids}
        raise NotAnEdgeError(f"no edges with ids {list(bad)}")
    return sub


@dataclass(frozen=True)
class Policy:
    """One chosen outgoing edge per non-target vertex; ``None`` at the target.

    `chosen` is kept as a tuple, so a policy never changes. A valid policy's
    chosen edges form a tree of paths into the target (`_tree_walk`).
    """

    chosen: tuple[int | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "chosen", tuple(self.chosen))

    def edge_set(self) -> frozenset[int]:
        return frozenset(e for e in self.chosen if e is not None)


def _tree_walk(
    g: Digraph, chosen: Sequence[int | None]
) -> tuple[list[int], list[list[int]]]:
    """Tree distances and child lists of the policy tree, from one walk down
    from the target.

    `children[v]` lists, in increasing id order, the vertices whose chosen
    edge points at v. This is the one check of a start: raises
    PolicyCycleError naming both lengths when `chosen` has not one entry
    per vertex; else naming the lowest vertex whose entry is not what it
    must be: None at the target, and elsewhere the id (an int in 0..m-1, so
    no None, -1, m, True or 1.0) of an edge leaving it; otherwise, when some
    vertex is never reached, it hangs below a cycle, and the error names the
    first vertex met twice on the walk up from the lowest such vertex.
    """
    n, m = g.n_vertices, g.n_edges
    if len(chosen) != n:
        raise PolicyCycleError(
            f"chosen has {len(chosen)} entries for {n} vertices")
    target = g.target
    tails, heads, costs = g.tails, g.heads, g.costs
    children: list[list[int]] = [[] for _ in range(n)]
    for v, e in enumerate(chosen):
        if type(e) is not int or not 0 <= e < m or tails[e] != v:
            if v != target:
                raise PolicyCycleError(f"vertex {v} has no valid chosen edge")
            if e is not None:  # no edge leaves the target, so it holds None
                raise PolicyCycleError(f"target vertex {v} holds {e!r}, not None")
            continue
        children[heads[e]].append(v)
    dist: list = [None] * n
    dist[target] = 0
    order = [target]
    for v in order:  # the walk appends to the list it iterates over
        kids = children[v]
        if kids:
            d = dist[v]
            for w in kids:
                dist[w] = costs[chosen[w]] + d  # type: ignore[index]
            order += kids
    if len(order) < n:
        v = dist.index(None)
        seen = set()
        while v not in seen:
            seen.add(v)
            v = heads[chosen[v]]  # type: ignore[index]
        raise PolicyCycleError(f"chosen edges cycle through vertex {v}")
    return dist, children


def tree_distances_list(
    g: Digraph, chosen: Sequence[int | None]
) -> list[int]:
    """Distance to the target along the chosen edges, as a list over vertices,
    from one walk down the policy tree, `_tree_walk`, which checks the start."""
    return _tree_walk(g, chosen)[0]


def optimal_distances_list(
    g: Digraph, subset: Iterable[int] | None = None
) -> list[int]:
    """True shortest distances to the target, restricted to `subset` edges.

    Uses topological-order relaxation when the graph is acyclic, Bellman-Ford
    otherwise; None marks a vertex not yet reached, so every comparison is
    between integers. `_edge_subset` reads the subset and rejects a non-edge
    id. The relaxation leaves None exactly at the vertices that cannot reach
    the target within the subset (every reachable vertex has a simple path
    of at most n-1 edges), and DisconnectedVertexError names them; otherwise
    NegativeCycleError is raised on a negative cycle.
    """
    return _optimal_distances(g, _edge_subset(g, subset))


def _optimal_distances(g: Digraph, subset: frozenset[int] | None) -> list[int]:
    """`optimal_distances_list` of a subset `_edge_subset` has read."""
    n = g.n_vertices
    tails, heads, costs = g.tails, g.heads, g.costs
    dist: list = [None] * n
    dist[g.target] = 0
    topo = g.topological_order()
    converged = topo is not None
    edges = range(g.n_edges) if subset is None else subset
    if converged:
        for v in reversed(topo):
            if v == g.target:
                continue
            best = None
            for e in g.out_edges[v]:
                if subset is not None and e not in subset:
                    continue
                d = dist[heads[e]]
                if d is not None:
                    cand = costs[e] + d
                    if best is None or cand < best:
                        best = cand
            dist[v] = best
    else:
        # Bellman-Ford toward the target: n-1 rounds give every reachable
        # vertex a value, even past a negative cycle.
        for _ in range(n - 1):
            changed = False
            for e in edges:
                dh = dist[heads[e]]
                if dh is not None:
                    cand = costs[e] + dh
                    dt = dist[tails[e]]
                    if dt is None or cand < dt:
                        dist[tails[e]] = cand
                        changed = True
            if not changed:
                converged = True
                break
    if None in dist:
        bad = [v for v, d in enumerate(dist) if d is None]
        raise DisconnectedVertexError(
            f"vertices {bad} cannot reach the target in the subgraph"
        )
    if not converged:
        for e in edges:
            if costs[e] + dist[heads[e]] < dist[tails[e]]:
                raise NegativeCycleError("relaxation still improves after n-1 rounds")
    return dist


def improving_switches(
    g: Digraph, policy: Policy, subset: Iterable[int] | None = None
) -> set[int]:
    """Edges e=(u,v) with cost(e) + y_B(v) < y_B(u), strict and exact."""
    sub = _edge_subset(g, subset)
    dist = tree_distances_list(g, policy.chosen)
    out = set()
    for e in range(g.n_edges) if sub is None else sub:
        if g.costs[e] + dist[g.heads[e]] < dist[g.tails[e]]:
            out.add(e)
    return out


def _edge_tail(g: Digraph, e: int) -> int:
    """The tail of edge e; NotAnEdgeError unless e is an int in 0..m-1."""
    if type(e) is not int or not 0 <= e < g.n_edges:
        raise NotAnEdgeError(f"no edge with id {e!r}")
    return g.tails[e]


def apply_switch(g: Digraph, policy: Policy, e: int) -> Policy:
    """Replace the chosen edge at tail(e) with e."""
    u = _edge_tail(g, e)
    if policy.chosen[u] == e:
        warnings.warn(f"edge {e} is already chosen at vertex {u}", SelfReplaceWarning)
        return policy
    return Policy(policy.chosen[:u] + (e,) + policy.chosen[u + 1:])


def is_valid_policy(g: Digraph, policy: Policy) -> bool:
    """Whether the policy passes `_tree_walk`, the one check of a start."""
    try:
        _tree_walk(g, policy.chosen)
    except PolicyCycleError:
        return False
    return True


def optimal_edge_set(g: Digraph, subset: Iterable[int] | None = None) -> set[int]:
    """Edges e=(u,v) in the subset with y(u) = cost(e) + y(v) under the
    optimal distances of the subgraph; exactly the edges lying on shortest
    paths."""
    sub = _edge_subset(g, subset)
    dist = _optimal_distances(g, sub)
    return {
        e for e in (range(g.n_edges) if sub is None else sub)
        if dist[g.tails[e]] == g.costs[e] + dist[g.heads[e]]
    }


def bfs_tree_policy(g: Digraph) -> Policy:
    """A deterministic valid policy: breadth-first tree toward the target."""
    chosen: list[int | None] = [None] * g.n_vertices
    frontier = [g.target]
    seen = [False] * g.n_vertices
    seen[g.target] = True
    while frontier:
        nxt = []
        for v in frontier:
            for e in g.in_edges[v]:
                u = g.tails[e]
                if not seen[u]:
                    seen[u] = True
                    chosen[u] = e
                    nxt.append(u)
        frontier = nxt
    return Policy(chosen)


_RANDOM_POLICY_DRAWS = 1000


def random_policy(g: Digraph, rng) -> Policy:
    """Uniform random out-edge per vertex; valid on acyclic graphs, else
    resampled until the chosen edges form a tree. Raises ValueError when
    _RANDOM_POLICY_DRAWS draws in a row all close a cycle."""
    for _ in range(_RANDOM_POLICY_DRAWS):
        # every vertex but the target has an out-edge
        pol = Policy([es[rng.randrange(len(es))] if es else None for es in g.out_edges])
        if g.is_acyclic or is_valid_policy(g, pol):
            return pol
    raise ValueError(
        f"no random policy without a cycle in {_RANDOM_POLICY_DRAWS} draws"
    )


def random_dag(
    rng,
    n_vertices: int,
    extra_edges: int = 0,
    max_cost: int = 20,
) -> Digraph:
    """Random acyclic instance: a chain backbone into the target plus random
    forward edges with non-negative integer costs.

    `n_vertices` counts the non-target vertices; the target gets the last id.
    """
    n = n_vertices
    target = n
    order = list(range(n))
    rng.shuffle(order)  # order[i] appears at topological position i
    tails, heads, costs = [], [], []
    # backbone guarantees out-degree >= 1 and reachability
    for pos, v in enumerate(order):
        later = order[pos + 1:] + [target]
        heads.append(later[rng.randrange(len(later))])
        tails.append(v)
        costs.append(rng.randrange(max_cost + 1))
    for _ in range(extra_edges):
        pos = rng.randrange(n)
        v = order[pos]
        later = order[pos + 1:] + [target]
        tails.append(v)
        heads.append(later[rng.randrange(len(later))])
        costs.append(rng.randrange(max_cost + 1))
    return Digraph(n + 1, target, tails, heads, costs)


def save_graph_json(g: Digraph, path: str) -> None:
    """Write the graph in the interchange schema; costs become decimal strings."""
    doc = {
        "scale": g.scale,
        "target": g.target,
        "vertices": [
            {"id": v, "name": g.vertex_names[v]} for v in range(g.n_vertices)
        ],
        "edges": [
            {
                "id": e,
                "name": g.edge_names[e],
                "tail": g.tails[e],
                "head": g.heads[e],
                "scaled_cost": str(g.costs[e]),
            }
            for e in range(g.n_edges)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_graph_json(path: str) -> Digraph:
    with open(path) as fh:
        doc = json.load(fh)
    vertices = sorted(doc["vertices"], key=lambda d: d["id"])
    edges = sorted(doc["edges"], key=lambda d: d["id"])
    for what, recs in (("vertex", vertices), ("edge", edges)):
        ids = [d["id"] for d in recs]  # ints, as `Digraph` takes: no bool, no float
        if list(map(type, ids)) != [int] * len(ids) or ids != list(range(len(ids))):
            raise ValueError(f"{what} ids must be dense integers starting at 0")
    return Digraph(
        n_vertices=len(vertices),
        target=doc["target"],
        tails=[d["tail"] for d in edges],
        heads=[d["head"] for d in edges],
        costs=[int(c) if isinstance(c, str) else c
               for c in (d["scaled_cost"] for d in edges)],
        scale=doc.get("scale", 1),
        edge_names=[d["name"] for d in edges],
        vertex_names=[d["name"] for d in vertices],
    )
