"""Randomized counters and exact expectations for their increment counts.

The counter holds bits 1..n, all initially 0. A count over an index set N
picks an index i (uniformly at random, or by a fixed priority order in the
one-permutation variant), first counts over N minus i, then sets bit i,
clears every bit of N below i, and finally counts over the cleared part.
The quantity of interest is the number of 0-to-1 bit sets performed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

# the largest n that `pivotlab counter` counts over: `rand_count` and
# `rand_count_one_perm` recurse n + 1 frames deep, and Python's default
# limit is 1000 frames, so this leaves room for the callers' frames
COUNT_N_MAX = 800

# the most increments, trials times `expected_increments(n)`, that `pivotlab
# counter` runs: a count takes about 1 µs per increment, so the cap is about
# 100 s, where the default 1000 trials at n = 100 would take about 8 hours
COUNT_INCREMENTS_MAX = 10**8


def rand_count(indices: Sequence[int], rng) -> int:
    """Randomized count over `indices`; returns the number of bits set.

    `indices` must be distinct positive integers. Recursion: pick i
    uniformly from N, count on N minus i, set bit i, clear N below i, count
    on the cleared part.
    """

    def go(ns: list[int]) -> int:
        if not ns:
            return 0
        idx = rng.randrange(len(ns))
        return go(ns[:idx] + ns[idx + 1:]) + 1 + go(ns[:idx])

    try:
        return go(sorted(indices))
    finally:
        del go  # it calls itself through its cell: a cycle until deleted


def rand_count_one_perm(indices: Sequence[int], priority: Sequence[int]) -> int:
    """Deterministic variant: always picks the index of minimum priority.

    `priority` maps index i to its rank (1-indexed list; entry 0 unused, or
    any sequence indexable by the counter indices).
    """
    order = sorted(indices)

    def go(ns: list[int]) -> int:
        if not ns:
            return 0
        i = min(ns, key=priority.__getitem__)
        idx = ns.index(i)
        total = go(ns[:idx] + ns[idx + 1:])
        return total + 1 + go(ns[:idx])

    try:
        return go(order)
    finally:
        del go  # it calls itself through its cell: a cycle until deleted


def expected_increments(n: int) -> Fraction:
    """Exact expected number of bit sets for a fresh-randomness count on [n].

    Closed form: sum over k of C(n,k)/k!, the expected number of non-empty
    increasing subsequences of a uniformly random permutation of [n].
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(
        (Fraction(math.comb(n, k), math.factorial(k)) for k in range(1, n + 1)),
        Fraction(0),
    )


_REC: list[Fraction] = [Fraction(0)]
_REC_SUM: list[Fraction] = [Fraction(0)]  # prefix sums of _REC


def expected_increments_recurrence(n: int) -> Fraction:
    """Same expectation via the recurrence f(n) = f(n-1) + 1 + (1/n)*sum f(i)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    while len(_REC) <= n:
        k = len(_REC)
        val = _REC[k - 1] + 1 + Fraction(_REC_SUM[k - 1], k)
        _REC.append(val)
        _REC_SUM.append(_REC_SUM[k - 1] + val)
    return _REC[n]


def expected_increments_asymptotic(n: int) -> float:
    """Asymptotic approximation e^(2*sqrt(n)) / (2*sqrt(pi*e)*n^(1/4))."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.exp(2 * math.sqrt(n)) / (2 * math.sqrt(math.pi * math.e) * n ** 0.25)


def log_expected_increments(n: int) -> float:
    """Natural log of the exact expectation, safe for huge rationals."""
    f = expected_increments(n)
    return math.log(f.numerator) - math.log(f.denominator)


def enumerate_expected_increments(indices: Sequence[int]) -> Fraction:
    """Exhaustive-enumeration oracle: averages the count over every possible
    sequence of random choices, with exact probabilities."""

    @lru_cache(maxsize=None)
    def go(ns: tuple[int, ...]) -> Fraction:
        if not ns:
            return Fraction(0)
        total = Fraction(0)
        for idx, i in enumerate(ns):
            total += go(ns[:idx] + ns[idx + 1:]) + 1 + go(ns[:idx])
        return total / len(ns)

    try:
        return go(tuple(sorted(indices)))
    finally:
        del go  # the cache wrapper calls itself through its cell


def one_perm_mean_over_permutations(n: int) -> Fraction:
    """Exact mean of the one-permutation count over all n! priority orders."""
    import itertools

    total = 0
    base = list(range(1, n + 1))
    prio = [0] * (n + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        for pos, i in enumerate(perm):
            prio[i] = pos
        total += rand_count_one_perm(base, prio)
    return Fraction(total, math.factorial(n))
