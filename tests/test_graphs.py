"""Graph core: distances, switches, oracles, serialization."""

import gc
import os
import tempfile
import weakref
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlab import counter_graph, rules
from pivotlab.graphs import (
    Digraph,
    DisconnectedVertexError,
    NegativeCycleError,
    NotAnEdgeError,
    Policy,
    PolicyCycleError,
    SelfReplaceWarning,
    _in_twins,
    apply_switch,
    bfs_tree_policy,
    improving_switches,
    is_valid_policy,
    load_graph_json,
    optimal_distances_list,
    optimal_edge_set,
    random_dag,
    random_policy,
    save_graph_json,
    _tree_walk,
    tree_distances_list,
)


def parallel_pair():
    # v --5--> t and v --2--> t
    return Digraph(2, 1, tails=[0, 0], heads=[1, 1], costs=[5, 2])


def chain():
    # v --2--> u --3--> t
    return Digraph(3, 2, tails=[0, 1], heads=[1, 2], costs=[2, 3])


def test_single_edge_distance():
    g = Digraph(2, 1, tails=[0], heads=[1], costs=[5])
    assert tree_distances_list(g, (0, None)) == [5, 0]


def test_chain_distances():
    g = chain()
    assert tree_distances_list(g, (0, 1, None)) == [5, 3, 0]


def test_policy_cycle_detected():
    g = Digraph(3, 2, tails=[0, 1, 0], heads=[1, 0, 2], costs=[1, 1, 1])
    with pytest.raises(PolicyCycleError):
        tree_distances_list(g, (0, 1, None))


def test_optimal_distances_parallel():
    g = parallel_pair()
    assert optimal_distances_list(g) == [2, 0]


def test_unreachable_rejected_at_construction():
    with pytest.raises(DisconnectedVertexError):
        # vertex 0 only reaches vertex 1 which has no outgoing edge
        Digraph(3, 2, tails=[0, 1], heads=[1, 0], costs=[1, 1])


def test_improving_switches_parallel():
    g = parallel_pair()
    assert improving_switches(g, Policy((0, None))) == {1}
    assert improving_switches(g, Policy((1, None))) == set()


def test_apply_switch():
    g = parallel_pair()
    pol = apply_switch(g, Policy((0, None)), 1)
    assert tree_distances_list(g, pol.chosen)[0] == 2
    with pytest.raises(NotAnEdgeError):
        apply_switch(g, pol, 7)
    # True would index edge 1 and put a bool into the policy
    with pytest.raises(NotAnEdgeError, match="no edge with id True"):
        apply_switch(g, Policy((0, None)), True)
    with pytest.warns(SelfReplaceWarning):
        assert apply_switch(g, pol, 1) == pol


def test_non_improving_switch_still_valid_on_dag():
    g = parallel_pair()
    pol = apply_switch(g, Policy((1, None)), 0)
    assert tree_distances_list(g, pol.chosen)[0] == 5


def test_objective_strictly_decreases_on_improving_switch():
    rng = Random(4)
    for _ in range(20):
        g = random_dag(rng, rng.randrange(3, 9), extra_edges=rng.randrange(0, 8))
        pol = random_policy(g, rng)
        for e in improving_switches(g, pol):
            after = tree_distances_list(g, apply_switch(g, pol, e).chosen)
            assert sum(after) < sum(tree_distances_list(g, pol.chosen))


def _brute_force_distances(g: Digraph) -> list[int]:
    # enumerate all simple paths to the target
    best = {g.target: 0}

    def walk(v, cost, seen):
        if v == g.target:
            if v not in best or cost < best[v]:
                pass
            return cost
        out = None
        for e in g.out_edges[v]:
            h = g.heads[e]
            if h in seen:
                continue
            sub = walk(h, 0, seen | {h})
            if sub is not None:
                cand = g.costs[e] + sub
                if out is None or cand < out:
                    out = cand
        return out

    return [walk(v, 0, {v}) for v in range(g.n_vertices)]


def test_optimal_distances_against_path_enumeration():
    rng = Random(11)
    for _ in range(25):
        g = random_dag(rng, rng.randrange(2, 7), extra_edges=rng.randrange(0, 6))
        assert optimal_distances_list(g) == _brute_force_distances(g)


def test_bellman_ford_on_cyclic_graph():
    # cycle 0 <-> 1 plus exits; no negative cycle
    g = Digraph(
        3, 2,
        tails=[0, 1, 0, 1],
        heads=[1, 0, 2, 2],
        costs=[1, 1, 10, 3],
    )
    assert not g.is_acyclic
    assert optimal_distances_list(g) == [4, 3, 0]


def test_negative_cycle_detected():
    g = Digraph(
        3, 2,
        tails=[0, 1, 0, 1],
        heads=[1, 0, 2, 2],
        costs=[-2, 1, 10, 3],
    )
    with pytest.raises(NegativeCycleError):
        optimal_distances_list(g)


def test_optimal_edge_set_examples():
    g = parallel_pair()
    assert optimal_edge_set(g) == {1}
    assert optimal_edge_set(g, {0}) == {0}  # only path available is optimal


def test_optimal_edge_set_disconnected_subset():
    g = chain()
    with pytest.raises(DisconnectedVertexError):
        optimal_edge_set(g, {0})  # u loses its only edge


def _unreachable_oracle(g: Digraph, subset) -> set[int]:
    # the reverse search that once ran before every subset relaxation, kept
    # verbatim (with `self` as `g`) as the oracle for reading reachability
    # off the relaxation itself
    into: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for e in range(g.n_edges) if subset is None else subset:
        into[g.heads[e]].append(g.tails[e])
    seen = [False] * g.n_vertices
    seen[g.target] = True
    stack = [g.target]
    while stack:
        v = stack.pop()
        for u in into[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return {v for v in range(g.n_vertices) if not seen[v]}


def _random_cyclic(rng, n: int) -> Digraph:
    # a random DAG plus edges between non-target vertices in any direction,
    # some of negative cost, so cycles and negative cycles both occur
    dag = random_dag(rng, n, extra_edges=rng.randrange(0, 2 * n))
    tails, heads, costs = list(dag.tails), list(dag.heads), list(dag.costs)
    for _ in range(rng.randrange(1, n + 1)):
        u, v = rng.sample(range(n), 2)
        tails.append(u)
        heads.append(v)
        costs.append(rng.randrange(-15, 11))
    return Digraph(n + 1, n, tails, heads, costs)


def _with_twins(rng, g: Digraph) -> Digraph:
    # g plus copies of random edges, most with the same cost (twins of the
    # original) and some one unit dearer (parallel but no twin), all edges
    # then renumbered in random order, so twins need not have adjacent ids
    tails, heads, costs = list(g.tails), list(g.heads), list(g.costs)
    for _ in range(rng.randrange(1, g.n_edges + 1)):
        e = rng.randrange(len(tails))
        tails.append(tails[e])
        heads.append(heads[e])
        costs.append(costs[e] + (rng.random() < 0.2))
    order = list(range(len(tails)))
    rng.shuffle(order)
    return Digraph(g.n_vertices, g.target, [tails[e] for e in order],
                   [heads[e] for e in order], [costs[e] for e in order])


def _assert_twin_groups(g: Digraph) -> None:
    # each vertex's groups partition its in-edges; a group's members share
    # tail, head and cost, which its entry names; no two groups of a vertex
    # share (tail, cost); ids ascend within a group
    twins = _in_twins(g)
    assert len(twins) == g.n_vertices
    for v, groups in enumerate(twins):
        members = [e for _, _, ids in groups for e in ids]
        assert sorted(members) == list(g.in_edges[v])
        assert len({(u, c) for u, c, _ in groups}) == len(groups)
        for u, c, ids in groups:
            assert list(ids) == sorted(set(ids)) and ids
            assert {(g.tails[e], g.heads[e], g.costs[e]) for e in ids} == {(u, v, c)}


def test_twin_groups_partition_the_in_edges():
    rng = Random(3401)
    for _ in range(150):
        g = random_dag(rng, rng.randrange(2, 10), extra_edges=rng.randrange(0, 12),
                       max_cost=rng.choice((1, 3, 20)))
        _assert_twin_groups(g)
        _assert_twin_groups(_with_twins(rng, g))
        _assert_twin_groups(_with_twins(rng, _random_cyclic(rng, rng.randrange(2, 8))))
    for params in ((2, 1, 1, 1), (2, 1, 1, 2), (3, 2, 2, 3), (4, 3, 3, 3)):
        _assert_twin_groups(counter_graph.build_counter_graph(*params)[0])


def test_twin_groups_are_built_on_first_use_and_kept():
    g = random_dag(Random(3402), 6, extra_edges=8)
    assert g._in_twins is None
    twins = _in_twins(g)
    assert g._in_twins is twins and _in_twins(g) is twins


@pytest.mark.parametrize("params, groups, edges", [
    ((2, 1, 1, 1), 0, 0),
    ((2, 1, 1, 2), 12, 24),
    ((2, 1, 2, 2), 16, 32),
    ((3, 1, 1, 2), 18, 36),
    ((2, 2, 2, 2), 26, 52),
])
def test_counter_graph_twin_groups(params, groups, edges):
    # the groups of two or more copies: the multi-edges, t copies each
    g, idx = counter_graph.build_counter_graph(*params)
    multi = [ids for vertex in _in_twins(g) for _, _, ids in vertex if len(ids) > 1]
    assert (len(multi), sum(map(len, multi))) == (groups, edges)
    if params[3] > 1:
        assert sorted(multi) == sorted(map(tuple, idx.multi_edges))


def test_twin_groups_leave_no_cyclic_garbage():
    # the groups hold ids, not the graph, so graph and groups are freed by
    # reference counting
    gc.collect()
    gc.disable()
    try:
        g = counter_graph.build_counter_graph(3, 2, 2, 3)[0]
        _in_twins(g)
        alive = weakref.ref(g)
        del g
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_relaxation_reports_exactly_the_unreachable_vertices():
    rng = Random(23)
    seen = {"dag": 0, "cyclic": 0, "both": 0}
    for case in range(400):
        n = rng.randrange(2, 8)
        if case % 2:
            g = _random_cyclic(rng, n)
        else:
            g = random_dag(rng, n, extra_edges=rng.randrange(0, 2 * n))
        p = rng.choice((0.3, 0.6, 0.9))
        sub = [e for e in range(g.n_edges) if rng.random() < p]
        bad = sorted(_unreachable_oracle(g, set(sub)))
        if bad:
            seen["cyclic" if case % 2 else "dag"] += 1
        for given in (sub, set(sub), frozenset(sub)):
            if bad:
                with pytest.raises(DisconnectedVertexError) as err:
                    optimal_distances_list(g, given)
                assert str(err.value) == (
                    f"vertices {bad} cannot reach the target in the subgraph")
                with pytest.raises(DisconnectedVertexError):
                    optimal_edge_set(g, given)
                continue
            try:
                dist = optimal_distances_list(g, given)
            except NegativeCycleError:
                pass
            else:
                assert None not in dist
                continue
            # the same subgraph plus a vertex whose only edge is left out:
            # the unreachable vertex is reported, not the negative cycle
            both = Digraph(
                n + 2, n, g.tails + (n + 1,), g.heads + (n,), g.costs + (0,))
            assert _unreachable_oracle(both, set(given)) == {n + 1}
            with pytest.raises(DisconnectedVertexError, match=rf"vertices \[{n + 1}\]"):
                optimal_distances_list(both, given)
            seen["both"] += 1
    assert min(seen.values()) > 10, seen


def test_unreachable_vertex_reported_before_negative_cycle():
    # 0 <-> 1 is a negative cycle; without edge 3 vertex 2 cannot leave
    g = Digraph(
        4, 3,
        tails=[0, 1, 0, 2],
        heads=[1, 0, 3, 3],
        costs=[-2, 1, 10, 1],
    )
    with pytest.raises(NegativeCycleError):
        optimal_distances_list(g)
    with pytest.raises(DisconnectedVertexError, match=r"vertices \[2\] cannot"):
        optimal_distances_list(g, {0, 1, 2})


# every function that takes an edge subset, as (g, start, subset) -> result
SUBSET_READERS = {
    "optimal_distances_list": lambda g, start, sub: optimal_distances_list(g, sub),
    "optimal_edge_set": lambda g, start, sub: optimal_edge_set(g, sub),
    "improving_switches": lambda g, start, sub: improving_switches(g, start, sub),
    "random_facet": lambda g, start, sub: rules.random_facet(
        g, start, Random(5), subset=sub).pivot_log,
    "random_facet_one_perm": lambda g, start, sub: rules.random_facet_one_perm(
        g, start, rules.random_permutation_fn(g.n_edges, Random(5)), subset=sub
    ).pivot_log,
}

# the results on the even edge ids plus the start's, pinned from the
# per-function subset reads that `_edge_subset` replaced
SUBSET_RESULTS = {
    "dag": {
        "optimal_distances_list": [16, 7, 6, 7, 14, 0],
        "optimal_edge_set": {1, 2, 4, 5, 10},
        "improving_switches": {10},
        "random_facet": [(10, 7)],
        "random_facet_one_perm": [(10, 7)],
    },
    "cyclic": {
        "optimal_distances_list": [4, 3, 2, 0],
        "optimal_edge_set": {0, 2, 6},
        "improving_switches": {0, 2},
        "random_facet": [(0, 4), (2, 5)],
        "random_facet_one_perm": [(0, 4), (2, 5)],
    },
}


def _subset_graph(kind: str) -> Digraph:
    if kind == "dag":
        return random_dag(Random(8), 5, extra_edges=6, max_cost=9)
    # 0 <-> 1 <-> 2, 2 -> 0 and an exit from each into the target 3
    return Digraph(4, 3, tails=[0, 1, 1, 2, 0, 1, 2, 2], heads=[1, 0, 2, 1, 3, 3, 3, 0],
                   costs=[1, 2, 1, 1, 9, 6, 2, 4])


@pytest.mark.parametrize("kind", ["dag", "cyclic"])
@pytest.mark.parametrize("name", list(SUBSET_READERS))
def test_every_subset_reader_rejects_non_edges(name, kind):
    g = _subset_graph(kind)
    assert g.is_acyclic == (kind == "dag")
    start = bfs_tree_policy(g)
    m = g.n_edges
    valid = sorted(start.edge_set() | set(range(0, m, 2)))
    read = SUBSET_READERS[name]
    for bad in (-1, m, m + 3):
        with pytest.raises(NotAnEdgeError, match=rf"ids \[{bad}\]"):
            read(g, start, valid + [bad])
    for given in (valid, (e for e in valid), set(valid)):
        assert read(g, start, given) == SUBSET_RESULTS[kind][name]


def test_optimal_edge_set_refuses_float_and_bool_ids():
    # 1.0 and True equal 1 and hash alike, so a set takes them for edge 1;
    # the subset is refused by type, before any edge is read
    g, _ = counter_graph.build_counter_graph(2, 1, 1, 1)
    ids = list(range(2, g.n_edges))
    for bad in ([0.0, 1.0], [True], [False, 1]):
        with pytest.raises(NotAnEdgeError, match=rf"ids \[{bad[0]!r}"):
            optimal_edge_set(g, bad + ids)
    assert optimal_edge_set(g, [0, 1] + ids) == optimal_edge_set(g)


@pytest.mark.parametrize("kind", ["dag", "cyclic"])
@pytest.mark.parametrize("name", list(SUBSET_READERS))
def test_every_subset_reader_refuses_float_and_bool_ids(name, kind):
    g = _subset_graph(kind)
    start = bfs_tree_policy(g)
    valid = sorted(start.edge_set() | set(range(0, g.n_edges, 2)))
    for given in (valid[:-1] + [float(valid[-1])], [True] + valid,
                  (e for e in valid + [1.0])):
        with pytest.raises(NotAnEdgeError, match="no edges with ids"):
            SUBSET_READERS[name](g, start, given)


@pytest.mark.parametrize(
    "target, tails, cost",
    [(1, [0], 2.9), (1, [0], Fraction(7, 2)), (1, [0], True), (1, [True], 2),
     (True, [0], 2)],
    ids=["float-cost", "fraction-cost", "bool-cost", "bool-tail", "bool-target"],
)
def test_digraph_takes_only_int_ids_and_costs(target, tails, cost):
    # int() would truncate 2.9 and 7/2 to 2 and 3, and a bool reads as 0 or 1
    with pytest.raises(ValueError, match="edge 0|target True"):
        Digraph(2, target, tails, [1], [cost])
    assert Digraph(2, 1, [0], [1], [2]).costs == (2,)


def test_improving_empty_iff_optimal():
    rng = Random(19)
    for _ in range(30):
        g = random_dag(rng, rng.randrange(2, 8), extra_edges=rng.randrange(0, 8))
        pol = random_policy(g, rng)
        dist = tree_distances_list(g, pol.chosen)
        opt = optimal_distances_list(g)
        assert (not improving_switches(g, pol)) == (dist == opt)


def test_json_round_trip(tmp_path):
    rng = Random(8)
    g = random_dag(rng, 6, extra_edges=5)
    path = tmp_path / "g.json"
    save_graph_json(g, str(path))
    g2 = load_graph_json(str(path))
    assert g2.n_vertices == g.n_vertices
    assert g2.tails == g.tails
    assert g2.heads == g.heads
    assert g2.costs == g.costs
    assert g2.target == g.target
    assert g2.edge_names == g.edge_names


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.integers(min_value=1, max_value=12),
    extra=st.integers(min_value=0, max_value=20),
    max_cost=st.sampled_from((0, 1, 20, 2**70)),
)
def test_json_round_trip_property(seed, vertices, extra, max_cost):
    # a fresh directory per example: pytest's tmp_path is one per test
    g = random_dag(Random(seed), vertices, extra_edges=extra, max_cost=max_cost)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        save_graph_json(g, path)
        g2 = load_graph_json(path)
    assert (g2.n_vertices, g2.target, g2.tails, g2.heads, g2.costs) == (
        g.n_vertices, g.target, g.tails, g.heads, g.costs)


def test_json_big_costs_survive(tmp_path):
    big = 2**200 + 7
    g = Digraph(2, 1, tails=[0], heads=[1], costs=[big], scale=3)
    path = tmp_path / "big.json"
    save_graph_json(g, str(path))
    g2 = load_graph_json(str(path))
    assert g2.costs[0] == big
    assert g2.scale == 3


def test_tree_distance_equals_optimal_when_edges_all_optimal():
    rng = Random(23)
    for _ in range(20):
        g = random_dag(rng, rng.randrange(2, 8), extra_edges=rng.randrange(0, 8))
        opt_edges = optimal_edge_set(g)
        # build a policy from optimal edges only
        chosen = [None] * g.n_vertices
        ok = True
        for v in range(g.n_vertices):
            if v == g.target:
                continue
            cands = [e for e in g.out_edges[v] if e in opt_edges]
            if not cands:
                ok = False
                break
            chosen[v] = cands[0]
        assert ok
        pol = Policy(tuple(chosen))
        assert tree_distances_list(g, pol.chosen) == optimal_distances_list(g)


def _first_draw(g, rng) -> tuple:
    # one uniform out-edge per non-target vertex, in vertex order
    return tuple(
        None if v == g.target else g.out_edges[v][rng.randrange(len(g.out_edges[v]))]
        for v in range(g.n_vertices)
    )


def test_random_policy_draw_discipline():
    # the acyclic path and a valid first draw on a cyclic graph take exactly
    # one draw per vertex, so a seeded caller sees the same random stream
    rng = Random(29)
    graphs = [
        random_dag(rng, rng.randrange(2, 8), extra_edges=rng.randrange(0, 8))
        for _ in range(20)
    ]
    # 0 <-> 1 plus exits to the target; seed 0 draws a valid policy at once
    graphs.append(
        Digraph(3, 2, tails=[0, 0, 1, 1], heads=[1, 2, 0, 2], costs=[1, 1, 1, 1])
    )
    for seed, g in enumerate(graphs):
        run, ref = Random(seed), Random(seed)
        assert random_policy(g, run).chosen == _first_draw(g, ref)
        assert run.getstate() == ref.getstate()


def test_random_policy_gives_up_on_cycle_traps():
    # every vertex has one exit to the target and 19 self-loops, so a draw
    # is valid with probability 20**-10: every choice closes a cycle
    n = 10
    tails, heads = [], []
    for v in range(n):
        tails += [v] * 20
        heads += [n] + [v] * 19
    g = Digraph(n + 1, n, tails, heads, [1] * len(tails))
    with pytest.raises(ValueError, match="no random policy") as info:
        random_policy(g, Random(3))
    assert "\n" not in str(info.value)


def _upward_tree_distances(g, chosen):
    """The upward walk `tree_distances_list` used before the one walk down
    from the target; kept verbatim as the oracle for `_tree_walk`, but for
    the first check, which refuses any target entry but None."""
    n = g.n_vertices
    if chosen[g.target] is not None:
        raise PolicyCycleError(
            f"target vertex {g.target} holds {chosen[g.target]!r}, not None")
    dist: list[int | None] = [None] * n
    dist[g.target] = 0
    state = bytearray(n)  # 0 unvisited, 1 on current walk, 2 done
    state[g.target] = 2
    heads = g.heads
    costs = g.costs
    for v0 in range(n):
        if state[v0]:
            continue
        path = []
        v = v0
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            e = chosen[v]
            if e is None or g.tails[e] != v:
                raise PolicyCycleError(f"vertex {v} has no valid chosen edge")
            v = heads[e]
        if state[v] == 1:
            raise PolicyCycleError(f"chosen edges cycle through vertex {v}")
        acc = dist[v]
        for u in reversed(path):
            acc = costs[chosen[u]] + acc  # type: ignore[index]
            dist[u] = acc
            state[u] = 2
    return dist  # type: ignore[return-value]


def _faults(g, chosen) -> tuple[int, int]:
    """(vertices without a valid chosen edge or, at the target, without
    None; cycles of the chosen edges)."""
    bad = {
        v for v, e in enumerate(chosen)
        if ((e is not None) if v == g.target else (e is None or g.tails[e] != v))
    }
    cycles = set()
    for v0 in range(g.n_vertices):
        walk = []
        v = v0
        while v != g.target and v not in bad and v not in walk:
            walk.append(v)
            v = g.heads[chosen[v]]
        if v in walk:
            cycles.add(min(walk[walk.index(v):]))
    return len(bad), len(cycles)


def _walk_cases(rng, count):
    """Random DAGs, and DAGs with random back edges (cycles, negative costs),
    each with a uniform draw of one out-edge per vertex; some draws then get
    a None or a foreign edge (one leaving another vertex) at one or two
    vertices, or an edge at the target's own entry."""
    for _ in range(count):
        g = random_dag(rng, rng.randrange(1, 10), extra_edges=rng.randrange(0, 10))
        if rng.random() < 0.5:
            back = rng.randrange(1, 6)
            tails, heads, costs = list(g.tails), list(g.heads), list(g.costs)
            for _ in range(back):
                tails.append(rng.randrange(g.n_vertices - 1))  # the target is last
                heads.append(rng.randrange(g.n_vertices))
                costs.append(rng.randrange(-20, 21))
            g = Digraph(g.n_vertices, g.target, tails, heads, costs)
        chosen = list(_first_draw(g, rng))
        roll = rng.random()
        if roll < 0.3:
            for _ in range(rng.randrange(1, 3)):
                v = rng.randrange(g.n_vertices - 1)
                foreign = [e for e in range(g.n_edges) if g.tails[e] != v]
                chosen[v] = rng.choice(foreign) if foreign and rng.random() < 0.5 else None
        elif roll < 0.4:
            chosen[g.target] = rng.randrange(g.n_edges)
        yield g, chosen


def _assert_wrong_lengths_rejected(g, chosen):
    # one entry short and one entry long, each named by both lengths
    n = g.n_vertices
    for wrong in (chosen[:-1], [*chosen, None]):
        with pytest.raises(PolicyCycleError,
                           match=f"^chosen has {len(wrong)} entries for {n} vertices$"):
            _tree_walk(g, wrong)


def test_tree_walk_matches_upward_walk():
    # identical distances on every valid policy; PolicyCycleError on exactly
    # the same policies, with the same message unless the policy has two or
    # more faults, at least one of them a vertex without a valid edge (then
    # the two walks may meet different faults first); a valid policy one
    # entry short or long is rejected by its length
    valid = invalid = renamed = 0
    for g, chosen in _walk_cases(Random(61), 3000):
        try:
            want = _upward_tree_distances(g, chosen)
        except PolicyCycleError as exc:
            invalid += 1
            with pytest.raises(PolicyCycleError) as info:
                _tree_walk(g, chosen)
            if str(info.value) != str(exc):
                bad, cycles = _faults(g, chosen)
                assert bad >= 1 and bad + cycles >= 2, (chosen, exc, info.value)
                renamed += 1
            continue
        valid += 1
        dist, children = _tree_walk(g, chosen)
        assert dist == want
        assert tree_distances_list(g, chosen) == want
        assert children == [
            [u for u in range(g.n_vertices)
             if u != g.target and g.heads[chosen[u]] == v]
            for v in range(g.n_vertices)
        ]
        _assert_wrong_lengths_rejected(g, chosen)
    assert valid > 1000 and invalid > 500 and renamed > 0
    # a random DAG's target is its last vertex; a counter graph's is vertex
    # 0, so there the short start drops a vertex with an edge to choose
    g, idx = counter_graph.build_counter_graph(2, 1, 1, 1)
    _assert_wrong_lengths_rejected(g, counter_graph.initial_tree(idx).chosen)


def test_policy_is_a_tuple_with_none_at_the_target():
    # a Policy keeps its entries as a tuple, and the one start check,
    # `_tree_walk`, refuses any target entry but None and names the target;
    # `is_valid_policy` reads that check. Edge 3 leaves vertex 0, and 0 would
    # index a real edge, so neither is a choice at the target either
    g = Digraph(3, 2, tails=[0, 0, 1, 0], heads=[1, 1, 2, 2], costs=[5, 1, 1, 10])
    good = Policy([1, 2, None])
    assert type(good.chosen) is tuple and good == Policy((1, 2, None))
    assert is_valid_policy(g, good)
    for junk in (-1, 4, True, 1.0, 0, 3):
        bad = Policy((1, 2, junk))
        with pytest.raises(PolicyCycleError,
                           match=f"^target vertex 2 holds {junk!r}, not None$"):
            _tree_walk(g, bad.chosen)
        assert not is_valid_policy(g, bad)


def test_tree_walk_names_the_cycle_and_the_missing_edge():
    # 0 -> 1 -> 2 -> 1 cycles through 1; vertex 3 reaches the target
    g = Digraph(5, 4, tails=[0, 1, 2, 3, 0, 1, 2], heads=[1, 2, 1, 4, 4, 4, 4],
                costs=[1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(PolicyCycleError, match="cycle through vertex 1"):
        _tree_walk(g, (0, 1, 2, 3, None))
    with pytest.raises(PolicyCycleError, match="vertex 2 has no valid chosen edge"):
        _tree_walk(g, (4, 5, None, 3, None))
    with pytest.raises(PolicyCycleError, match="vertex 0 has no valid chosen edge"):
        _tree_walk(g, (1, 5, 6, 3, None))
