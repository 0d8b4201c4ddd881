"""Counter graph family: structure, costs, bit reading, optimal-edge family."""

import pickle
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlab import counter_graph as cg
from pivotlab.checks import _varied_functional_subset
from pivotlab.counter_graph import (
    BIT_ONE,
    BIT_UNDEFINED,
    BIT_ZERO,
    NotFunctionalError,
    bf_edge_set,
    bit_value,
    build_counter_graph,
    initial_tree,
    is_functional,
    last_a,
    last_b,
    one_edge_tree,
    random_functional_subset,
    random_tree_within,
    reset_level,
)
from pivotlab.graphs import (
    is_valid_policy,
    optimal_distances_list,
    optimal_edge_set,
    tree_distances_list,
)


def counts(n, r, s, t):
    rs = r * s
    return 1 + 2 * n + 2 * n * rs, n * (2 * rs + t * (2 * rs + r + 3))


def test_smallest_instance_counts():
    g, idx = build_counter_graph(1, 1, 1, 1)
    assert (g.n_vertices, g.n_edges) == (5, 8)


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 2, 2, 2), (3, 1, 2, 3), (2, 3, 2, 1)])
def test_size_formulas(params):
    g, idx = build_counter_graph(*params)
    v, e = counts(*params)
    assert g.n_vertices == v
    assert g.n_edges == e
    assert cg.counter_graph_size(*params) == (v, e)
    n, r, s, t = params
    assert len(idx.multi_edges) == n * (2 * r * s + r + 3)
    assert cg.multi_edge_count(n, r, s) == len(idx.multi_edges)
    assert all(len(ids) == t for ids in idx.multi_edges)
    for i in idx.levels():
        assert len(idx.b1(i)) == r * s
        for j in range(1, r + 1):
            assert len(idx.a1(i, j)) == s
            assert len(idx.b1_chunk(i, j)) == s


def test_group_partition():
    g, idx = build_counter_graph(2, 2, 3, 2)
    seen = set()
    for i in idx.levels():
        seen.update(idx.b1(i))
        for j in range(1, idx.r + 1):
            seen.update(idx.a1(i, j))
    for ids in idx.multi_edges:
        assert seen.isdisjoint(ids)
        seen.update(ids)
    assert seen == set(range(g.n_edges))


def test_table_costs():
    n, r, s, t = 3, 2, 2, 2
    g, idx = build_counter_graph(n, r, s, t)
    rs = r * s
    for i in idx.levels():
        # a escape at chain position k: scale*2^(2i+1) + (k-1)
        for j in range(1, r + 1):
            for k in range(1, s + 1):
                for e in idx.a0(i, j, k):
                    assert g.costs[e] == rs * 2 ** (2 * i + 1) + (k - 1)
                    assert g.heads[e] == idx.u_vertex[i + 1]
        # b escape at position j: scale*(2^(2i+1)+1) + (j-1)
        for j in range(1, rs + 1):
            for e in idx.b0(i, j):
                assert g.costs[e] == rs * (2 ** (2 * i + 1) + 1) + (j - 1)
        for e in idx.u0(i):
            assert g.costs[e] == rs * 2 ** (2 * i)
            assert g.tails[e] == idx.u_vertex[i]
        for e in idx.u1(i):
            assert g.costs[e] == 0
            assert g.heads[e] == idx.b_vertex[(i, 1)]
        for e in idx.w0(i):
            assert g.costs[e] == rs * 2 ** (2 * i)
    # one-edges all cost zero
    assert all(g.costs[e] == 0 for e in idx.one_edges())


def test_edge_names_follow_table():
    g, idx = build_counter_graph(2, 2, 2, 2)
    by_name = {name: e for e, name in enumerate(g.edge_names)}
    assert len(by_name) == g.n_edges
    assert by_name["b^1_{1,3}"] == idx.b1(1)[2]
    assert by_name["a^1_{2,1,2}"] == idx.a1(2, 1)[1]
    assert by_name["a^{0,2}_{2,1,1}"] == idx.a0(2, 1, 1)[1]
    assert by_name["u^{1,1}_1"] == idx.u1(1)[0]
    assert by_name["w^{2,1}_2"] == idx.w_group(2, 2)[0]


def _edge_group_rebuild(idx):
    # the second pass over the groups that once filled `edge_group` after
    # every edge was added, kept verbatim as the oracle for tagging edges
    # as they are added
    grp: list[tuple] = [None] * idx.n_edges  # type: ignore[list-item]
    for i in range(1, idx.n + 1):
        for pos, e in enumerate(idx._b1[i], start=1):
            grp[e] = ("b1", i, pos)
        for j in range(1, idx.r + 1):
            for pos, e in enumerate(idx._a1[(i, j)], start=1):
                grp[e] = ("a1", i, j, pos)
    for gix, ids in enumerate(idx.multi_edges):
        for e in ids:
            grp[e] = ("multi", gix)
    return tuple(grp)


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 3, 2, 2), (3, 2, 3, 1), (4, 3, 3, 3)])
def test_edge_group_tagged_at_build_matches_rebuild(params):
    g, idx = build_counter_graph(*params)
    assert len(idx.edge_group) == g.n_edges
    assert idx.edge_group == _edge_group_rebuild(idx)


def test_initial_tree_reads_all_zero():
    g, idx = build_counter_graph(3, 2, 2, 2)
    b0 = initial_tree(idx)
    assert is_valid_policy(g, b0)
    full = frozenset(range(g.n_edges))
    for i in idx.levels():
        assert bit_value(idx, i, full, b0) == BIT_ZERO


def test_initial_tree_distance_at_u1():
    n, r, s, t = 3, 2, 2, 2
    g, idx = build_counter_graph(n, r, s, t)
    b0 = initial_tree(idx)
    dist = tree_distances_list(g, b0.chosen)
    assert dist[idx.u_vertex[1]] == sum(r * s * 2 ** (2 * i) for i in range(1, n + 1))


def test_one_edge_tree_is_optimal_and_reads_one():
    g, idx = build_counter_graph(2, 2, 2, 2)
    pol = one_edge_tree(idx, Random(3))
    dist = tree_distances_list(g, pol.chosen)
    assert all(d == 0 for d in dist)
    assert optimal_distances_list(g) == dist
    full = frozenset(range(g.n_edges))
    for i in idx.levels():
        assert bit_value(idx, i, full, pol) == BIT_ONE


def test_optimal_distances_all_zero():
    for params in [(1, 1, 1, 1), (2, 2, 2, 2), (3, 2, 1, 2)]:
        g, _ = build_counter_graph(*params)
        assert all(d == 0 for d in optimal_distances_list(g))


def test_bit_undefined():
    g, idx = build_counter_graph(1, 1, 2, 1)
    pol = one_edge_tree(idx)
    # break the b chain reading: first edge stays, second replaced by escape
    chosen = list(pol.chosen)
    b2_vertex = idx.b_vertex[(1, 2)]
    chosen[b2_vertex] = idx.b0(1, 2)[0]
    broken = cg.Policy(tuple(chosen)) if hasattr(cg, "Policy") else None
    from pivotlab.graphs import Policy

    broken = Policy(tuple(chosen))
    assert bit_value(idx, 1, frozenset(range(g.n_edges)), broken) == BIT_UNDEFINED


def test_last_helpers():
    _, idx = build_counter_graph(2, 2, 2, 2)
    full = set(range(idx.n_edges))
    assert last_b(idx, 1, full) == 0
    b13 = idx.b1(1)[2]
    assert last_b(idx, 1, full - {b13}) == 3
    b12, b15 = idx.b1(1)[1], idx.b1(1)[3]
    assert last_b(idx, 1, full - {b12, b15}) == 4
    a_21_2 = idx.a1(2, 1)[1]
    assert last_a(idx, 2, 1, full - {a_21_2}) == 2
    assert last_a(idx, 2, 1, full) == 0


def test_is_functional():
    _, idx = build_counter_graph(2, 1, 2, 2)
    full = set(range(idx.n_edges))
    assert is_functional(idx, full)
    u1_copies = set(idx.u1(1))
    assert not is_functional(idx, full - u1_copies)
    # removing all but one copy of every multi-edge keeps it functional
    trimmed = full - {ids[0] for ids in idx.multi_edges}
    assert is_functional(idx, trimmed)


def test_reset_level_cases():
    _, idx = build_counter_graph(3, 2, 2, 2)
    full = set(range(idx.n_edges))
    assert reset_level(idx, full) == 0
    # remove one edge from every a chain of level 2
    sub = set(full)
    for j in range(1, idx.r + 1):
        sub.discard(idx.a1(2, j)[0])
    assert reset_level(idx, sub) == 2
    # additionally breaking the level-2 b chain clears it
    sub.discard(idx.b1(2)[0])
    assert reset_level(idx, sub) == 0


def test_bf_edge_set_full_graph_is_one_edges():
    g, idx = build_counter_graph(2, 2, 2, 2)
    full = frozenset(range(g.n_edges))
    fam = bf_edge_set(idx, full)
    assert fam == idx.one_edges()
    assert fam == frozenset(optimal_edge_set(g, full))


def test_bf_edge_set_missing_b_edge_case():
    g, idx = build_counter_graph(2, 2, 2, 2)
    full = set(range(g.n_edges))
    i, j = 1, 2
    gone = idx.b1(i)[j - 1]
    sub = frozenset(full - {gone})
    fam = bf_edge_set(idx, sub)
    # level i: chain tail after the gap kept, escapes before it
    for j2, e in enumerate(idx.b1(i), start=1):
        if j2 > j:
            assert e in fam
        elif j2 < j:
            assert e not in fam
            assert set(idx.b0(i, j2)) <= fam
    # the level's a chains all fall back to their escapes
    for jj in range(1, idx.r + 1):
        assert not (set(idx.a1(i, jj)) & fam)
    assert set(idx.u0(i)) <= fam
    assert set(idx.w0(i)) <= fam
    assert fam == frozenset(optimal_edge_set(g, sub))


def test_bf_requires_functional():
    _, idx = build_counter_graph(1, 1, 1, 2)
    full = set(range(idx.n_edges))
    with pytest.raises(NotFunctionalError):
        bf_edge_set(idx, frozenset(full - set(idx.u1(1))))


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 2, 2, 2), (3, 2, 2, 1), (2, 1, 3, 2)])
def test_bf_equals_oracle_random_subsets(params):
    g, idx = build_counter_graph(*params)
    rng = Random(hash(params) & 0xFFFF)
    for _ in range(25):
        sub = random_functional_subset(idx, rng, drop=0.35)
        assert bf_edge_set(idx, sub) == frozenset(optimal_edge_set(g, sub))


# Literal definitions of the subset readers, written without set
# operations, as the oracles of the readers and of the case split.


def _brute_last_missing(chain, sub):
    return max([p for p, e in enumerate(chain, start=1) if e not in sub], default=0)


def _brute_functional(idx, sub):
    return all(any(e in sub for e in ids) for ids in idx.multi_edges)


def _brute_reset(idx, sub):
    def chain_in(chain):
        return all(e in sub for e in chain)

    return max(
        [
            i for i in idx.levels()
            if chain_in(idx.b1(i))
            and not any(chain_in(idx.a1(i, j)) for j in range(1, idx.r + 1))
        ],
        default=0,
    )


def _case_split_bf(idx, sub):
    """The reference for `bf_edge_set`: the case split tested one edge at a
    time in a generator per group, over the literal readers above."""
    assert _brute_functional(idx, sub)
    reset = _brute_reset(idx, sub)
    out = set()

    def keep_present(ids):
        out.update(e for e in ids if e in sub)

    def keep_a_chains(i):
        for j in range(1, idx.r + 1):
            la = _brute_last_missing(idx.a1(i, j), sub)
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
            lb = _brute_last_missing(idx.b1(i), sub)
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


def _level_cases(idx, sub):
    """Which of the four cases of the case split each level falls in."""
    reset = _brute_reset(idx, sub)
    for i in idx.levels():
        if i < reset:
            yield "below-reset"
        elif i == reset:
            yield "at-reset"
        elif all(e in sub for e in idx.b1(i)):
            yield "above-intact"
        else:
            yield "above-broken"


def test_bf_edge_set_property():
    # all four cases and a multi-copy t must come up over the run
    seen_cases = set()
    seen_t = set()

    @settings(max_examples=80, deadline=None)
    @given(
        params=st.tuples(
            st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def prop(params, seed):
        g, idx = build_counter_graph(*params)
        rng = Random(seed)
        sub = _varied_functional_subset(idx, rng)
        fam = bf_edge_set(idx, sub)
        assert fam == _case_split_bf(idx, sub)
        assert fam == frozenset(optimal_edge_set(g, sub))
        edges = sorted(sub)
        for given_sub in (edges, (e for e in edges), set(edges), frozenset(edges)):
            assert bf_edge_set(idx, given_sub) == fam
        gone = idx.multi_edges[rng.randrange(len(idx.multi_edges))]
        with pytest.raises(NotFunctionalError):
            bf_edge_set(idx, sub - set(gone))
        seen_cases.update(_level_cases(idx, sub))
        seen_t.add(params[3])

    prop()
    assert seen_cases == {"above-intact", "above-broken", "at-reset", "below-reset"}
    assert max(seen_t) >= 2


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 2, 2, 2), (3, 1, 3, 2), (4, 3, 3, 3)])
def test_subset_readers_match_literal_definitions(params):
    g, idx = build_counter_graph(*params)
    rng = Random(sum(params))
    full = frozenset(range(g.n_edges))
    subsets = [frozenset(), full]
    for _ in range(40):
        sub = _varied_functional_subset(idx, rng)
        gone = idx.multi_edges[rng.randrange(len(idx.multi_edges))]
        subsets += [sub, sub - set(gone)]
    assert any(not _brute_functional(idx, sub) for sub in subsets[2:])
    for sub in subsets:
        for given_sub in (sub, set(sub), sorted(sub)):
            assert is_functional(idx, given_sub) == _brute_functional(idx, sub)
            assert reset_level(idx, given_sub) == _brute_reset(idx, sub)
            for i in idx.levels():
                assert last_b(idx, i, given_sub) == _brute_last_missing(idx.b1(i), sub)
                for j in range(1, idx.r + 1):
                    assert last_a(idx, i, j, given_sub) == _brute_last_missing(
                        idx.a1(i, j), sub)
    assert not is_functional(idx, frozenset())
    assert reset_level(idx, frozenset()) == 0
    assert is_functional(idx, full) and reset_level(idx, full) == 0


def _per_edge_random_functional_subset(idx, rng, drop=0.3):
    """The reference for `random_functional_subset`: the same draws, one
    edge at a time."""
    keep = [rng.random() >= drop for _ in range(idx.n_edges)]
    for ids in idx.multi_edges:
        if not any(keep[e] for e in ids):
            keep[ids[rng.randrange(len(ids))]] = True
    return frozenset(e for e in range(idx.n_edges) if keep[e])


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (3, 2, 2, 2), (4, 3, 3, 3)])
def test_random_functional_subset_draws_as_per_edge_body(params):
    # same subset and same generator state after the call, drops at both ends
    _, idx = build_counter_graph(*params)
    for seed in range(200):
        for drop in (0.0, 0.3, 0.7, 1.0):
            fast, slow = Random(seed), Random(seed)
            assert random_functional_subset(idx, fast, drop) == (
                _per_edge_random_functional_subset(idx, slow, drop))
            assert fast.getstate() == slow.getstate()


def test_trees_inside_family_read_bits_by_reset():
    g, idx = build_counter_graph(3, 2, 2, 2)
    rng = Random(77)
    for _ in range(20):
        sub = random_functional_subset(idx, rng, drop=0.3)
        fam = bf_edge_set(idx, sub)
        tree = random_tree_within(g, fam, rng)
        reset = reset_level(idx, sub)
        for i in idx.levels():
            expected = BIT_ONE if i >= reset or reset == 0 else BIT_ZERO
            assert bit_value(idx, i, sub, tree) == expected


def test_make_switch_property_small():
    from pivotlab.checks import check_make_switch

    report = check_make_switch(samples=60, seed=5)
    assert report["passed"], report


def test_index_json_dict():
    g, idx = build_counter_graph(2, 1, 2, 1)
    doc = cg.index_to_json_dict(idx)
    assert doc["params"] == {"n": 2, "r": 1, "s": 2, "t": 1}
    assert doc["groups"]["b1[1]"] == list(idx.b1(1))
    assert len(doc["multi_edges"]) == len(idx.multi_edges)


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 3, 1, 4), (3, 2, 2, 2)])
def test_group_layout_is_derived_state(params, tmp_path):
    # the getters read the index's own groups; the layout is left out of
    # ==, repr and the sidecar, survives pickling, and `load_index` builds it
    from pivotlab import experiments

    g, idx = build_counter_graph(*params)
    keys = list(range(100, 100 + idx.n_edges))
    lay = idx.layout
    for i in idx.levels():
        assert set(lay.b1[i - 1](keys)) == {keys[e] for e in idx.b1(i)}
        for j in range(1, idx.r + 1):
            assert set(lay.a1[i - 1][j - 1](keys)) == {keys[e] for e in idx.a1(i, j)}
    assert [list(col(keys)) for col in lay.multi] == [
        [keys[ids[ell]] for ids in idx.multi_edges] for ell in range(idx.t)
    ]
    other = build_counter_graph(*params)[1]
    other.layout = None
    assert other == idx and repr(other) == repr(idx)
    assert "layout" not in repr(idx)
    assert "layout" not in str(cg.index_to_json_dict(idx))
    again = pickle.loads(pickle.dumps(idx))
    assert again == idx
    assert again.layout.multi[0](keys) == lay.multi[0](keys)
    sidecar = experiments.save_instance(str(tmp_path / "g.json"), g, idx)
    loaded = experiments.load_index(sidecar, g)
    assert loaded == idx
    assert loaded.layout.b1[0](keys) == lay.b1[0](keys)
