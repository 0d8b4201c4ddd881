"""Exact-arithmetic standard-form LP kernel and the shortest-path encoding.

Instances are desk scale (at most a few hundred columns), so every basis
operation is a fresh fraction-free elimination; exactness matters more than
factorization updates here. Degeneracy is detected and reported, never
perturbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .graphs import Digraph, Policy
from .rules import _facet_collapsed


class SingularBasisError(Exception):
    """The selected basis columns are linearly dependent."""


class UnboundedError(Exception):
    """No leaving variable: the improving ray is unbounded."""


class DegenerateError(Exception):
    """Tie or zero step in the ratio test; the instance is degenerate."""


@dataclass(frozen=True)
class StdFormLP:
    """min c'x subject to Ax = b, x >= 0, with exact rational data."""

    A: tuple[tuple[Fraction, ...], ...]  # m rows, n columns
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    @property
    def n_rows(self) -> int:
        return len(self.A)

    @property
    def n_cols(self) -> int:
        return len(self.c)


def make_lp(A: Sequence[Sequence], b: Sequence, c: Sequence) -> StdFormLP:
    return StdFormLP(
        tuple(tuple(Fraction(x) for x in row) for row in A),
        tuple(Fraction(x) for x in b),
        tuple(Fraction(x) for x in c),
    )


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve the square system rows * x = rhs by fraction-free elimination.

    Rows are scaled to integers, eliminated Bareiss-style (every division is
    exact), and back-substituted with rationals.
    """
    m = len(rows)
    aug: list[list[int]] = []
    for i in range(m):
        denom = lcm(*(x.denominator for x in rows[i]), rhs[i].denominator)
        aug.append([int(x * denom) for x in rows[i]] + [int(rhs[i] * denom)])
    prev = 1
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularBasisError(f"no pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        p = aug[col][col]
        for r in range(col + 1, m):
            factor = aug[r][col]
            row_r = aug[r]
            row_p = aug[col]
            for j in range(col, m + 1):
                row_r[j] = (p * row_r[j] - factor * row_p[j]) // prev
        prev = p
    x: list[Fraction] = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        acc = Fraction(aug[i][m])
        for j in range(i + 1, m):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x


def _basis_columns(lp: StdFormLP, basis: Sequence[int]) -> list[list[Fraction]]:
    return [[lp.A[r][j] for j in basis] for r in range(lp.n_rows)]


def basic_solution(lp: StdFormLP, basis: Sequence[int]) -> tuple[list[Fraction], bool]:
    """The basic solution for the basis and whether it is feasible (x_B >= 0)."""
    if len(basis) != lp.n_rows:
        raise ValueError("basis size must equal the number of rows")
    xb = _solve_exact(_basis_columns(lp, basis), list(lp.b))
    x = [Fraction(0)] * lp.n_cols
    for k, j in enumerate(basis):
        x[j] = xb[k]
    return x, all(v >= 0 for v in xb)


def reduced_costs(
    lp: StdFormLP, basis: Sequence[int]
) -> tuple[list[Fraction], list[Fraction]]:
    """Reduced cost vector and the dual vector y solving B'y = c_B."""
    cols = _basis_columns(lp, basis)
    bt = [[cols[r][k] for r in range(lp.n_rows)] for k in range(lp.n_rows)]
    y = _solve_exact(bt, [lp.c[j] for j in basis])
    cbar = []
    for j in range(lp.n_cols):
        acc = lp.c[j]
        for r in range(lp.n_rows):
            acc -= lp.A[r][j] * y[r]
        cbar.append(acc)
    return cbar, y


def objective_value(lp: StdFormLP, basis: Sequence[int]) -> Fraction:
    x, _ = basic_solution(lp, basis)
    return sum((lp.c[j] * x[j] for j in range(lp.n_cols)), Fraction(0))


def pivot_lp(lp: StdFormLP, basis: Sequence[int], entering: int) -> tuple[tuple[int, ...], int]:
    """One pivot with `entering` joining the basis; returns (basis, leaving).

    Requires a strictly negative reduced cost for the entering column. Raises
    UnboundedError when no basic variable blocks the move, DegenerateError
    on a tie or a zero-length step.
    """
    cbar, _ = reduced_costs(lp, basis)
    if cbar[entering] >= 0:
        raise ValueError(
            f"column {entering} has reduced cost {cbar[entering]} >= 0"
        )
    xb = _solve_exact(_basis_columns(lp, basis), list(lp.b))
    direction = _solve_exact(
        _basis_columns(lp, basis), [lp.A[r][entering] for r in range(lp.n_rows)]
    )
    best: Fraction | None = None
    best_k: int | None = None
    tie = False
    for k, d in enumerate(direction):
        if d > 0:
            ratio = xb[k] / d
            if best is None or ratio < best:
                best, best_k, tie = ratio, k, False
            elif ratio == best:
                tie = True
    if best_k is None:
        raise UnboundedError(f"column {entering} improves without bound")
    if tie or best == 0:
        raise DegenerateError(
            f"ratio test for column {entering} is not uniquely resolved"
        )
    new_basis = list(basis)
    leaving = new_basis[best_k]
    new_basis[best_k] = entering
    return tuple(new_basis), leaving


def sp_to_lp(g: Digraph) -> tuple[StdFormLP, dict[int, int], list[int]]:
    """Shortest-path LP of the graph: min-cost flow with unit supply per
    vertex.

    Rows are the non-target vertices (in id order); columns are the edges by
    id. Column e has +1 at its tail row and -1 at its head row; the head
    entry is absent when the head is the target. Returns the LP, the
    vertex-to-row map, and the row-to-vertex list.
    """
    vertex_of_row = [v for v in range(g.n_vertices) if v != g.target]
    row_of_vertex = {v: r for r, v in enumerate(vertex_of_row)}
    n_rows = len(vertex_of_row)
    A = [[Fraction(0)] * g.n_edges for _ in range(n_rows)]
    for e in range(g.n_edges):
        A[row_of_vertex[g.tails[e]]][e] = Fraction(1)
        if g.heads[e] != g.target:
            A[row_of_vertex[g.heads[e]]][e] = Fraction(-1)
    lp = StdFormLP(
        tuple(tuple(row) for row in A),
        tuple(Fraction(1) for _ in range(n_rows)),
        tuple(Fraction(c) for c in g.costs),
    )
    return lp, row_of_vertex, vertex_of_row


def tree_basis(g: Digraph, policy: Policy) -> tuple[int, ...]:
    """The policy's chosen edges as an ordered basis of the shortest-path LP."""
    return tuple(sorted(policy.edge_set()))


class _LPTracker:
    """A basis of the LP as the facet engine's pivot oracle.

    `red` holds the reduced cost of every column for the current basis; it
    is refreshed in place after each pivot, so every candidate test reads a
    list instead of pricing the basis again.
    """

    def __init__(self, lp: StdFormLP, basis: Sequence[int]):
        self.lp = lp
        self.basis = tuple(basis)
        self.red, _ = reduced_costs(lp, self.basis)
        self.log: list[tuple[int, int]] = []

    def nonbasic(self, in_f: list) -> set[int]:
        """The columns with in_f set that are not basic."""
        cols = set(itertools.compress(range(self.lp.n_cols), in_f))
        cols.difference_update(self.basis)
        return cols

    def pivot(self, entering: int) -> int:
        self.basis, leaving = pivot_lp(self.lp, self.basis, entering)
        self.red[:] = reduced_costs(self.lp, self.basis)[0]
        self.log.append((entering, leaving))
        return leaving


def random_facet_lp(
    lp: StdFormLP, allowed: Sequence[int], basis: Sequence[int], rng
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Facet-removal recursion on the LP restricted to the `allowed` columns.

    The recursion is the graph rule's own engine, `rules._facet_collapsed`,
    with an LP basis as its pivot oracle and the same removal order (one
    `rng.shuffle` of each id-sorted candidate list). So a seeded run pivots
    in lockstep with `rules.random_facet` on the graph the LP encodes.
    Returns the optimal basis and the pivot log.
    """
    allowed_set = frozenset(allowed)
    if not set(basis) <= allowed_set:
        raise ValueError("basis must lie inside the allowed column set")
    tracker = _LPTracker(lp, basis)
    in_f = [j in allowed_set for j in range(lp.n_cols)]
    _facet_collapsed(tracker, in_f, rng.shuffle)
    return tracker.basis, tracker.log


def brute_force_optimum(lp: StdFormLP) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Enumerate every feasible basis; return the best value and its bases."""
    best: Fraction | None = None
    argmin: list[tuple[int, ...]] = []
    for basis in itertools.combinations(range(lp.n_cols), lp.n_rows):
        try:
            x, feasible = basic_solution(lp, basis)
        except SingularBasisError:
            continue
        if not feasible:
            continue
        val = sum((lp.c[j] * x[j] for j in range(lp.n_cols)), Fraction(0))
        if best is None or val < best:
            best, argmin = val, [basis]
        elif val == best:
            argmin.append(basis)
    if best is None:
        raise ValueError("no feasible basis")
    return best, argmin
