"""Exact LP kernel: basic solutions, reduced costs, pivots, flow encoding."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from pivotlab import lp
from pivotlab.graphs import Digraph, Policy, random_dag, random_policy, tree_distances_list
from pivotlab.lp import (
    DegenerateError,
    SingularBasisError,
    UnboundedError,
    basic_solution,
    brute_force_optimum,
    make_lp,
    pivot_lp,
    random_facet_lp,
    reduced_costs,
    sp_to_lp,
    tree_basis,
)


def test_identity_basic_solution():
    prob = make_lp([[1]], [1], [1])
    x, feasible = basic_solution(prob, (0,))
    assert x == [Fraction(1)]
    assert feasible


def test_infeasible_basis_flagged():
    prob = make_lp([[1, -1]], [-1], [0, 0])
    x, feasible = basic_solution(prob, (0,))
    assert x[0] == Fraction(-1)
    assert not feasible


def test_singular_basis_raises():
    prob = make_lp([[1, 2, 2], [2, 4, 1]], [1, 1], [0, 0, 0])
    with pytest.raises(SingularBasisError):
        basic_solution(prob, (0, 1))  # parallel columns


def test_sp_lp_shapes_and_signs():
    g = Digraph(3, 2, tails=[0, 1, 0], heads=[1, 2, 2], costs=[2, 3, 9])
    prob, row_of, vertex_of_row = sp_to_lp(g)
    assert prob.n_cols == g.n_edges
    assert prob.n_rows == g.n_vertices - 1
    # edge 0 = (0,1): +1 at row of 0, -1 at row of 1
    assert dict(prob.cols[0]) == {row_of[0]: 1, row_of[1]: -1}
    # edges 1 = (1, target) and 2 = (0, target): a single +1
    assert dict(prob.cols[1]) == {row_of[1]: 1}
    assert dict(prob.cols[2]) == {row_of[0]: 1}
    # integer data already: unit supplies, the costs as they are, no scaling
    assert (prob.b, prob.c, prob.c_den, prob.row_scale) == ((1, 1), (2, 3, 9), 1, (1, 1))
    assert vertex_of_row[row_of[0]] == 0


def test_make_lp_scales_each_row_and_the_costs_once():
    prob = make_lp(
        [[Fraction(1, 2), 0, Fraction(1, 3)], [2, Fraction(-3, 4), 0]],
        [1, Fraction(5, 2)],
        [Fraction(1, 4), 1, Fraction(-1, 6)],
    )
    # row 0 times 6, row 1 times 4, c times 12; zero entries are not stored
    assert prob.cols == (((0, 3), (1, 8)), ((1, -3),), ((0, 2),))
    assert (prob.b, prob.row_scale) == ((6, 10), (6, 4))
    assert (prob.c, prob.c_den) == ((3, 12, -2), 12)


@pytest.mark.parametrize("A, b, c", [
    ([[1, 2, 3]], [1], [0, 0]),  # a row longer than c
    ([[1, 0], [0, 1]], [1], [0, 0]),  # more rows than b
    ([[1, 0]], [1, 2], [0, 0]),  # more of b than rows
])
def test_make_lp_rejects_mismatched_shapes(A, b, c):
    with pytest.raises(ValueError, match=r"A has \d+ rows of lengths"):
        make_lp(A, b, c)


def test_sp_lp_flows_are_descendant_counts():
    # chain v -> u -> t: flow on (u,t) carries both supplies
    g = Digraph(3, 2, tails=[0, 1], heads=[1, 2], costs=[2, 3])
    prob, _, _ = sp_to_lp(g)
    x, feasible = basic_solution(prob, tree_basis(g, Policy((0, 1, None))))
    assert feasible
    assert x == [Fraction(1), Fraction(2)]


def test_reduced_costs_zero_on_basis_and_duals_are_distances():
    rng = Random(5)
    for _ in range(15):
        g = random_dag(rng, rng.randrange(2, 7), extra_edges=rng.randrange(0, 6))
        pol = random_policy(g, rng)
        prob, row_of, _ = sp_to_lp(g)
        basis = tree_basis(g, pol)
        cbar, y = reduced_costs(prob, basis)
        dist = tree_distances_list(g, pol.chosen)
        for j in basis:
            assert cbar[j] == 0
        for v in range(g.n_vertices):
            if v != g.target:
                assert y[row_of[v]] == dist[v]
        for e in range(g.n_edges):
            yh = 0 if g.heads[e] == g.target else y[row_of[g.heads[e]]]
            assert cbar[e] == g.costs[e] + yh - y[row_of[g.tails[e]]]


def test_pivot_matches_graph_switch():
    g = Digraph(2, 1, tails=[0, 0], heads=[1, 1], costs=[5, 2])
    prob, _, _ = sp_to_lp(g)
    basis, leaving = pivot_lp(prob, (0,), 1)
    assert basis == (1,)
    assert leaving == 0


def test_pivot_requires_negative_reduced_cost():
    g = Digraph(2, 1, tails=[0, 0], heads=[1, 1], costs=[5, 2])
    prob, _, _ = sp_to_lp(g)
    with pytest.raises(ValueError):
        pivot_lp(prob, (1,), 0)
    # so does the facet engine's LP oracle, which then changes nothing
    tracker = lp._LPTracker(prob, (1,))
    before = (tracker.basis, list(tracker.red), list(tracker.log))
    with pytest.raises(ValueError):
        tracker.pivot(0)
    assert (tracker.basis, tracker.red, tracker.log) == before


def test_pivot_strictly_decreases_objective():
    rng = Random(9)
    hits = 0
    for _ in range(30):
        g = random_dag(rng, rng.randrange(2, 7), extra_edges=rng.randrange(1, 7))
        pol = random_policy(g, rng)
        prob, _, _ = sp_to_lp(g)
        basis = tree_basis(g, pol)
        cbar, _ = reduced_costs(prob, basis)
        entering = next((j for j in range(prob.n_cols) if cbar[j] < 0), None)
        if entering is None:
            continue
        hits += 1
        before = lp.objective_value(prob, basis)
        after_basis, _ = pivot_lp(prob, basis, entering)
        assert lp.objective_value(prob, after_basis) < before
    assert hits > 5


def test_unbounded_detected():
    # min -x subject to 0x = 0 has no blocking variable
    prob = make_lp([[0, 1]], [1], [-1, 0])
    with pytest.raises(UnboundedError):
        pivot_lp(prob, (1,), 0)


def test_degenerate_tie_detected():
    # two rows hit the ratio bound simultaneously
    prob = make_lp(
        [[1, 0, 1], [0, 1, 1]],
        [1, 1],
        [0, 0, -1],
    )
    with pytest.raises(DegenerateError):
        pivot_lp(prob, (0, 1), 2)


def test_random_facet_lp_base_case():
    g = Digraph(2, 1, tails=[0], heads=[1], costs=[3])
    prob, _, _ = sp_to_lp(g)
    basis, log = random_facet_lp(prob, [0], (0,), Random(1))
    assert basis == (0,)
    assert log == []


def test_random_facet_lp_against_brute_force():
    rng = Random(31)
    done = 0
    while done < 12:
        # random 1x3 LP with a feasible bounded start
        a = [rng.randrange(1, 6) for _ in range(3)]
        c = [rng.randrange(-5, 6) for _ in range(3)]
        prob = make_lp([a], [rng.randrange(2, 10)], c)
        try:
            best, bases = brute_force_optimum(prob)
        except ValueError:
            continue
        # need a non-degenerate run: all basic values positive and unique optimum
        start = next(
            (
                (j,) for j in range(3)
                if basic_solution(prob, (j,))[1]
                and basic_solution(prob, (j,))[0][j] > 0
            ),
            None,
        )
        if start is None:
            continue
        try:
            basis, _ = random_facet_lp(prob, range(3), start, rng)
        except DegenerateError:
            continue
        done += 1
        assert lp.objective_value(prob, basis) == best


def test_brute_force_no_feasible_basis():
    prob = make_lp([[1, 1]], [-1], [0, 0])
    with pytest.raises(ValueError):
        brute_force_optimum(prob)


def test_reduced_costs_nonnegative_exactly_at_termination():
    rng = Random(71)
    for _ in range(10):
        g = random_dag(rng, rng.randrange(2, 7), extra_edges=rng.randrange(1, 7))
        pol = random_policy(g, rng)
        prob, _, _ = sp_to_lp(g)
        basis = lp.tree_basis(g, pol)
        final, log = random_facet_lp(prob, range(g.n_edges), basis, rng)
        cbar, _ = reduced_costs(prob, final)
        assert all(c >= 0 for c in cbar)
        # mid-run bases (all but the last) still have a negative entry
        replay = list(basis)
        for entering, leaving in log[:-1] if log else []:
            replay[replay.index(leaving)] = entering
            mid_cbar, _ = reduced_costs(prob, replay)
            assert any(c < 0 for c in mid_cbar)


def _flow_statement(g, row_of):
    # the flow LP's rational A, b, c written from the graph, not read back
    # from the kernel's stored integer system
    A = [[Fraction(0)] * g.n_edges for _ in row_of]
    for e, (t, h) in enumerate(zip(g.tails, g.heads)):
        A[row_of[t]][e] = Fraction(1)
        if h != g.target:
            A[row_of[h]][e] = Fraction(-1)
    return A, [Fraction(1)] * len(row_of), [Fraction(c) for c in g.costs]


def test_flow_conservation_and_feasibility_after_every_pivot():
    rng = Random(73)
    g = random_dag(rng, 6, extra_edges=8)
    pol = random_policy(g, rng)
    prob, row_of, _ = sp_to_lp(g)
    A, b, _ = _flow_statement(g, row_of)
    basis = list(lp.tree_basis(g, pol))
    _final, log = random_facet_lp(prob, range(g.n_edges), tuple(basis), rng)
    for entering, leaving in log:
        basis[basis.index(leaving)] = entering
        x, feasible = basic_solution(prob, basis)
        assert feasible
        for r in range(prob.n_rows):
            lhs = sum(A[r][j] * x[j] for j in range(prob.n_cols))
            assert lhs == b[r]


# A fractional LP in no way a flow: column 5 is twice column 0, so every
# basis holding both is singular.
FRACTIONAL_A = [
    [Fraction(1, 2), Fraction(-2, 3), 1, 0, Fraction(3, 4), 1],
    [Fraction(5, 3), 0, Fraction(-1, 4), 1, 1, Fraction(10, 3)],
    [0, 1, Fraction(2, 5), Fraction(-3, 2), Fraction(1, 3), 0],
]
FRACTIONAL_B = [Fraction(7, 2), Fraction(-1, 3), 2]
FRACTIONAL_C = [Fraction(3, 4), Fraction(-5, 6), 2, Fraction(1, 7), -1, Fraction(9, 5)]
FRACTIONAL = make_lp(FRACTIONAL_A, FRACTIONAL_B, FRACTIONAL_C)


def _det(rows: list[list[Fraction]]) -> Fraction:
    # plain rational Gaussian elimination, independent of the kernel
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def _assert_residuals_vanish(prob, basis, A, b, c):
    # B x_B = b, x_N = 0, B'y = c_B, and reduced costs c - A'y, zero on B,
    # against the test's own rational statement A, b, c of the LP
    x, _ = basic_solution(prob, basis)
    cbar, y = reduced_costs(prob, basis)
    rows = range(prob.n_rows)
    for r in rows:
        assert sum(A[r][j] * x[j] for j in basis) == b[r]
    assert all(x[j] == 0 for j in range(prob.n_cols) if j not in basis)
    for j in range(prob.n_cols):
        priced = c[j] - sum(A[r][j] * y[r] for r in rows)
        assert cbar[j] == priced
        if j in basis:
            assert priced == 0
    assert all(isinstance(v, Fraction) for v in x + cbar + y)


def test_residual_oracle_on_flow_bases():
    rng = Random(41)
    for _ in range(25):
        g = random_dag(rng, rng.randrange(2, 9), extra_edges=rng.randrange(1, 10))
        prob, row_of, _ = sp_to_lp(g)
        statement = _flow_statement(g, row_of)
        basis = list(tree_basis(g, random_policy(g, rng)))
        _assert_residuals_vanish(prob, basis, *statement)
        _, log = random_facet_lp(prob, range(g.n_edges), tuple(basis), rng)
        for entering, leaving in log:
            basis[basis.index(leaving)] = entering
            _assert_residuals_vanish(prob, basis, *statement)


def test_residual_oracle_on_fractional_lp():
    singular = 0
    for basis in itertools.combinations(range(FRACTIONAL.n_cols), FRACTIONAL.n_rows):
        cols = [[FRACTIONAL_A[r][j] for j in basis] for r in range(FRACTIONAL.n_rows)]
        if _det(cols) == 0:
            singular += 1
            with pytest.raises(SingularBasisError):
                basic_solution(FRACTIONAL, basis)
            with pytest.raises(SingularBasisError):
                reduced_costs(FRACTIONAL, basis)
            continue
        _assert_residuals_vanish(
            FRACTIONAL, basis, FRACTIONAL_A, FRACTIONAL_B, FRACTIONAL_C)
        # reduced costs read from the entering direction agree with pricing
        cbar, _ = reduced_costs(FRACTIONAL, basis)
        for j in set(range(FRACTIONAL.n_cols)) - set(basis):
            if cbar[j] >= 0:
                with pytest.raises(ValueError, match=f"reduced cost {cbar[j]} >= 0"):
                    pivot_lp(FRACTIONAL, basis, j)
    assert singular == 4  # {0, 5} with each of the other four columns


@pytest.mark.parametrize("prob, basis, entering, error", [
    # columns 0 and 1 are parallel
    (make_lp([[1, 2, 0], [2, 4, 1]], [1, 1], [0, 0, -1]), (0, 1), 2,
     SingularBasisError),
    # nothing blocks column 0
    (make_lp([[0, 1]], [1], [-1, 0]), (1,), 0, UnboundedError),
    # both rows hit the ratio bound at once
    (make_lp([[1, 0, 1], [0, 1, 1]], [1, 1], [0, 0, -1]), (0, 1), 2,
     DegenerateError),
])
def test_pivot_errors_fire_from_both_entry_points(prob, basis, entering, error):
    with pytest.raises(error):
        pivot_lp(prob, basis, entering)
    with pytest.raises(error):
        random_facet_lp(prob, range(prob.n_cols), basis, Random(0))


def test_non_improving_and_misplaced_columns_rejected():
    # c = (5/6, 1/4) on one row: column 0 prices at 5/6 - 1/4 = 7/12
    prob = make_lp([[1, 1]], [1], [Fraction(5, 6), Fraction(1, 4)])
    with pytest.raises(ValueError, match=r"column 0 has reduced cost 7/12 >= 0"):
        pivot_lp(prob, (1,), 0)
    # the facet run pivots only on improving columns, so from an optimal
    # basis it makes none; its own ValueError guards the allowed set
    assert random_facet_lp(prob, range(2), (1,), Random(0)) == ((1,), [])
    with pytest.raises(ValueError, match="allowed column set"):
        random_facet_lp(prob, [0], (1,), Random(0))
    with pytest.raises(ValueError, match="basis size"):
        random_facet_lp(prob, range(2), (0, 1), Random(0))
