"""Exact standard-form LP kernel and the shortest-path encoding.

Each LP is held as its integer system, scaled once when it is made: every
row of [A | b] times the lcm of its denominators, c times the lcm of its
denominators, and the nonzeros of every column. `sp_to_lp` writes the flow
LP in that form directly, with every scale 1. Solves, pricing and ratio
tests run on it in Python integers. One
fraction-free (Bareiss) elimination solves a basis for several right-hand
sides at once and returns integer numerators over the determinant; reduced
costs are integer numerators over one positive denominator, computed from
the sparse columns; ratios are compared by cross-multiplication. A
`Fraction` is built only for a value a public function returns. Instances
are desk scale (at most a few hundred columns), so each basis is
eliminated afresh rather than kept in an updated factorization.
Degeneracy is detected and reported, never perturbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .graphs import Digraph, Policy, _tree_walk
from .rules import _facet_lazy


class SingularBasisError(Exception):
    """The selected basis columns are linearly dependent."""


class UnboundedError(Exception):
    """No leaving variable: the improving ray is unbounded."""


class DegenerateError(Exception):
    """Tie or zero step in the ratio test; the instance is degenerate."""


@dataclass(frozen=True)
class StdFormLP:
    """min c'x subject to Ax = b, x >= 0, held as its integer system: row r
    of [A | b] times row_scale[r], c times c_den, and cols[j] the (row,
    entry) nonzeros of scaled column j. Row scaling leaves every primal
    solution and every reduced cost as it is; dual r is row_scale[r] times
    the scaled system's dual."""

    cols: tuple[tuple[tuple[int, int], ...], ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    c_den: int
    row_scale: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.b)

    @property
    def n_cols(self) -> int:
        return len(self.c)


def make_lp(A: Sequence[Sequence], b: Sequence, c: Sequence) -> StdFormLP:
    """The LP min c'x, Ax = b, x >= 0 from rational data (any value
    `Fraction` accepts), scaled to its integer system. Raises ValueError
    unless A has len(b) rows of len(c) entries each."""
    if len(A) != len(b) or any(len(row) != len(c) for row in A):
        raise ValueError(
            f"A has {len(A)} rows of lengths {sorted({len(row) for row in A})}; "
            f"b has {len(b)} entries and c {len(c)}")
    cols: list[list[tuple[int, int]]] = [[] for _ in c]
    rhs, row_scale = [], []
    for r, (row, b_r) in enumerate(zip(A, b)):
        row = [Fraction(x) for x in row]
        b_r = Fraction(b_r)
        d = lcm(*(x.denominator for x in row), b_r.denominator)
        for j, x in enumerate(row):
            if x:
                cols[j].append((r, x.numerator * (d // x.denominator)))
        rhs.append(b_r.numerator * (d // b_r.denominator))
        row_scale.append(d)
    c = [Fraction(x) for x in c]
    c_den = lcm(*(x.denominator for x in c))
    return StdFormLP(
        tuple(map(tuple, cols)),
        tuple(rhs),
        tuple(x.numerator * (c_den // x.denominator) for x in c),
        c_den,
        tuple(row_scale),
    )


def _bareiss(aug: list[list[int]], n_rhs: int) -> tuple[list[list[int]], int]:
    """Solve M x = r for each of the n_rhs right-hand sides of the augmented
    integer rows [M | r_1 .. r_k] (M square); returns ([D * x for each r],
    D), D > 0.

    Fraction-free elimination: every row update divides exactly by the
    previous pivot, and a pivot row with a negative pivot is negated first,
    so D, the last pivot, is |det M|. When the previous pivot divides the
    new one (always, for the unimodular flow bases) only the pivot row's
    nonzeros are touched. Back substitution keeps D * x, an integer by
    Cramer's rule, so its divisions are exact too. `aug` is overwritten.
    """
    m = len(aug)
    w = m + n_rhs
    prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            raise SingularBasisError(f"no pivot in column {col}")
        row_p = aug[piv]
        aug[piv] = aug[col]
        aug[col] = row_p
        p = row_p[col]
        if p < 0:
            p = -p
            for j in range(col, w):
                row_p[j] = -row_p[j]
        if p % prev == 0:
            s = p // prev
            nz = [j for j in range(col + 1, w) if row_p[j]]
            for r in range(col + 1, m):
                row_r = aug[r]
                f = row_r[col]
                if s != 1:
                    for j in range(col + 1, w):
                        row_r[j] *= s
                if f:
                    for j in nz:
                        row_r[j] -= f * row_p[j] // prev
        else:
            for r in range(col + 1, m):
                row_r = aug[r]
                f = row_r[col]
                for j in range(col + 1, w):
                    row_r[j] = (p * row_r[j] - f * row_p[j]) // prev
        prev = p
    upper = [[j for j in range(i + 1, m) if aug[i][j]] for i in range(m)]
    sols = []
    for t in range(m, w):
        x = [0] * m
        for i in range(m - 1, -1, -1):
            row = aug[i]
            acc = prev * row[t]
            for j in upper[i]:
                acc -= row[j] * x[j]
            x[i] = acc // row[i]
        sols.append(x)
    return sols, prev


def _check_size(lp: StdFormLP, basis: Sequence[int], *cols: int) -> None:
    ids = (*basis, *cols)
    if ids and ({*map(type, ids)} != {int} or min(ids) < 0 or max(ids) >= lp.n_cols):
        bad = {j: None for j in ids if type(j) is not int or not 0 <= j < lp.n_cols}
        raise ValueError(f"no columns with ids {list(bad)}")
    if len(basis) != lp.n_rows:
        raise ValueError("basis size must equal the number of rows")


def _primal(lp: StdFormLP, basis: Sequence[int], *entering: int):
    """One elimination of B for x_B and each entering column's direction
    B^-1 A_e: returns ([X, Dir_e ...], D), numerators over D > 0."""
    _check_size(lp, basis, *entering)
    m = lp.n_rows
    aug = [[0] * (m + 1 + len(entering)) for _ in range(m)]
    for k, j in enumerate(basis):
        for r, a in lp.cols[j]:
            aug[r][k] = a
    for r, rhs in enumerate(lp.b):
        aug[r][m] = rhs
    for t, e in enumerate(entering, m + 1):
        for r, a in lp.cols[e]:
            aug[r][t] = a
    return _bareiss(aug, 1 + len(entering))


def _price(lp: StdFormLP, basis: Sequence[int]) -> tuple[list[int], int, list[int]]:
    """Reduced costs by one elimination of B': returns (N, den, Y) with
    reduced cost j = N[j] / den, den > 0, and dual r = row_scale[r] * Y[r]
    / den. The caller has checked the basis (`_check_size`)."""
    m = lp.n_rows
    aug = []
    for j in basis:
        row = [0] * (m + 1)
        for r, a in lp.cols[j]:
            row[r] = a
        row[m] = lp.c[j]
        aug.append(row)
    (y,), d = _bareiss(aug, 1)
    red = [
        d * cj - sum([a * y[r] for r, a in col])
        for cj, col in zip(lp.c, lp.cols)
    ]
    return red, d * lp.c_den, y


def basic_solution(lp: StdFormLP, basis: Sequence[int]) -> tuple[list[Fraction], bool]:
    """The basic solution for the basis and whether it is feasible (x_B >= 0)."""
    (xb,), d = _primal(lp, basis)
    x = [Fraction(0)] * lp.n_cols
    for j, v in zip(basis, xb):
        x[j] = Fraction(v, d)
    return x, all(v >= 0 for v in xb)


def reduced_costs(
    lp: StdFormLP, basis: Sequence[int]
) -> tuple[list[Fraction], list[Fraction]]:
    """Reduced cost vector and the dual vector y solving B'y = c_B."""
    _check_size(lp, basis)
    red, den, y = _price(lp, basis)
    return (
        [Fraction(v, den) for v in red],
        [Fraction(s * v, den) for s, v in zip(lp.row_scale, y)],
    )


def _value(lp: StdFormLP, basis: Sequence[int], xb: list[int], d: int) -> Fraction:
    return Fraction(sum(lp.c[j] * v for j, v in zip(basis, xb)), d * lp.c_den)


def objective_value(lp: StdFormLP, basis: Sequence[int]) -> Fraction:
    (xb,), d = _primal(lp, basis)
    return _value(lp, basis, xb, d)


def _ratio_test(
    basis: Sequence[int], entering: int, xb: list[int], direction: list[int]
) -> tuple[tuple[int, ...], int]:
    """The pivot's new basis and leaving column, from x_B and the entering
    direction as numerators over one positive denominator; ratios
    xb[k] / direction[k] are compared by cross-multiplication."""
    best_k: int | None = None
    tie = False
    for k, dk in enumerate(direction):
        if dk > 0:
            if best_k is None:
                best_k, bx, bd = k, xb[k], dk
                continue
            lhs, rhs = xb[k] * bd, bx * dk
            if lhs < rhs:
                best_k, bx, bd, tie = k, xb[k], dk, False
            elif lhs == rhs:
                tie = True
    if best_k is None:
        raise UnboundedError(f"column {entering} improves without bound")
    if tie or bx == 0:
        raise DegenerateError(
            f"ratio test for column {entering} is not uniquely resolved"
        )
    new_basis = list(basis)
    leaving = new_basis[best_k]
    new_basis[best_k] = entering
    return tuple(new_basis), leaving


def pivot_lp(lp: StdFormLP, basis: Sequence[int], entering: int) -> tuple[tuple[int, ...], int]:
    """One pivot with `entering` joining the basis; returns (basis, leaving).

    Requires a strictly negative reduced cost for the entering column, read
    from the entering direction d as c_e - c_B'd, so one elimination serves
    the check and the ratio test. Raises ValueError for a non-improving
    column, UnboundedError when no basic variable blocks the move,
    DegenerateError on a tie or a zero-length step.
    """
    (xb, direction), d = _primal(lp, basis, entering)
    red = d * lp.c[entering] - sum(lp.c[j] * v for j, v in zip(basis, direction))
    if red >= 0:
        raise ValueError(
            f"column {entering} has reduced cost {Fraction(red, d * lp.c_den)} >= 0"
        )
    return _ratio_test(basis, entering, xb, direction)


def sp_to_lp(g: Digraph) -> tuple[StdFormLP, dict[int, int], list[int]]:
    """Shortest-path LP of the graph: min-cost flow with unit supply per
    vertex.

    Rows are the non-target vertices (in id order); columns are the edges by
    id. Column e has +1 at its tail row and -1 at its head row; the head
    entry is absent when the head is the target. The data are integers
    already, so every scale is 1. Returns the LP, the
    vertex-to-row map, and the row-to-vertex list.
    """
    vertex_of_row = [v for v in range(g.n_vertices) if v != g.target]
    row_of_vertex = {v: r for r, v in enumerate(vertex_of_row)}
    n_rows = len(vertex_of_row)
    cols = tuple(
        ((row_of_vertex[t], 1),) if h == g.target
        else ((row_of_vertex[t], 1), (row_of_vertex[h], -1))
        for t, h in zip(g.tails, g.heads)
    )
    lp = StdFormLP(cols, (1,) * n_rows, g.costs, 1, (1,) * n_rows)
    return lp, row_of_vertex, vertex_of_row


def tree_basis(g: Digraph, policy: Policy) -> tuple[int, ...]:
    """The policy's chosen edges as an ordered basis of the shortest-path LP,
    once `graphs._tree_walk` has checked the start as every engine does."""
    _tree_walk(g, policy.chosen)
    return tuple(sorted(policy.edge_set()))


class _LPTracker:
    """A basis of the LP as the facet engine's pivot oracle.

    `red` holds every column's reduced cost for the current basis as an
    integer numerator over a positive denominator, which keeps its sign, so
    `improves` and `improving` read its signs. A pivot is `pivot_lp`, so a
    non-improving column raises ValueError and leaves the state as it was;
    then the new basis is priced once, `red` refreshed in place, and the
    columns whose reduced cost turned negative kept for `turned_improving`.
    `n_basic` is the basis size, the row count.
    """

    def __init__(self, lp: StdFormLP, basis: Sequence[int]):
        self.lp = lp
        self.basis = tuple(basis)
        self.n_basic = lp.n_rows
        self.red = _price(lp, self.basis)[0]
        self.turned: list[int] = []
        self.log: list[tuple[int, int]] = []

    def improves(self, j: int) -> bool:
        """Whether column j has a negative reduced cost."""
        return self.red[j] < 0

    def improving(self) -> list[int]:
        """The columns with a negative reduced cost, in id order."""
        return [j for j, r in enumerate(self.red) if r < 0]

    def pivot(self, entering: int) -> int:
        self.basis, leaving = pivot_lp(self.lp, self.basis, entering)
        red = _price(self.lp, self.basis)[0]
        self.turned = [j for j, (old, new) in enumerate(zip(self.red, red))
                       if new < 0 <= old]
        self.red[:] = red
        self.log.append((entering, leaving))
        return leaving

    def turned_improving(self) -> list[int]:
        """The columns the last pivot made improving, in id order."""
        return self.turned


def random_facet_lp(
    lp: StdFormLP, allowed: Sequence[int], basis: Sequence[int], rng
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Facet-removal recursion on the LP restricted to the `allowed` columns.

    The recursion is the graph rule's own engine, `rules._facet_lazy`, with
    an LP basis as its pivot oracle: each column's rank in a descent is drawn
    when the column first improves, and the columns a pivot made improving
    are walked in id order. The LP's sign flips are the graph kernel's
    in-edges of shifted vertices that turned improving, so a seeded run
    draws the same bits and pivots in lockstep with `rules.random_facet` on
    the graph the LP encodes, traced or not. (A traced graph run completes
    each descent's order with its unrevealed columns in id order; this run
    keeps no trace.)
    Returns the optimal basis and the pivot log.
    """
    _check_size(lp, basis, *allowed)
    allowed_set = frozenset(allowed)
    if not set(basis) <= allowed_set:
        raise ValueError("basis must lie inside the allowed column set")
    tracker = _LPTracker(lp, basis)
    in_f = [j in allowed_set for j in range(lp.n_cols)]
    _facet_lazy(tracker, in_f, rng)
    return tracker.basis, tracker.log


def brute_force_optimum(lp: StdFormLP) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Enumerate every feasible basis; return the best value and its bases."""
    best: Fraction | None = None
    argmin: list[tuple[int, ...]] = []
    for basis in itertools.combinations(range(lp.n_cols), lp.n_rows):
        try:
            (xb,), d = _primal(lp, basis)
        except SingularBasisError:
            continue
        if any(v < 0 for v in xb):
            continue
        val = _value(lp, basis, xb, d)
        if best is None or val < best:
            best, argmin = val, [basis]
        elif val == best:
            argmin.append(basis)
    if best is None:
        raise ValueError("no feasible basis")
    return best, argmin
