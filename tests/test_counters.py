"""Counter model: hand-traced values, exact identities, sampling sanity."""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlab import counters


def test_empty_set_counts_zero():
    assert counters.rand_count([], Random(0)) == 0
    assert counters.rand_count_one_perm([], [0]) == 0


def test_single_bit_counts_one():
    for seed in range(5):
        assert counters.rand_count([1], Random(seed)) == 1


def test_two_bits_expected_five_halves():
    # enumeration oracle: picking 1 first gives 2 sets, picking 2 first gives 3
    assert counters.enumerate_expected_increments([1, 2]) == Fraction(5, 2)
    # and the oracle matches the closed form
    assert counters.expected_increments(2) == Fraction(5, 2)


def _one_perm_count_recursive(indices, priority) -> int:
    # the one-permutation count as the counter runs it: pick the index of
    # least priority (`min` takes the lowest on a tie), count over the
    # rest, set it, then count over the indices below it
    def go(ns: list) -> int:
        if not ns:
            return 0
        i = min(ns, key=priority.__getitem__)
        idx = ns.index(i)
        return go(ns[:idx] + ns[idx + 1:]) + 1 + go(ns[:idx])

    try:
        return go(sorted(indices))
    finally:
        del go


def test_one_perm_closed_form_matches_the_recursion_on_every_permutation():
    for n in range(9):
        ns = list(range(1, n + 1))
        for perm in itertools.permutations(ns):
            prio = [0, *perm]
            assert counters.rand_count_one_perm(ns, prio) == _one_perm_count_recursive(ns, prio)


def test_one_perm_closed_form_matches_the_recursion_on_subsets_with_ties():
    # index subsets of 1..30 in any order, priorities from a small range so
    # that they tie, and from a large one
    rng = Random(1410)
    for k in range(600):
        ns = rng.sample(range(1, 31), rng.randrange(0, 21))
        prio = [rng.randrange(1, 4 if k % 2 else 100) for _ in range(31)]
        assert counters.rand_count_one_perm(ns, prio) == _one_perm_count_recursive(ns, prio)


def test_one_perm_count_refuses_a_short_priority():
    # index 4 has no priority: both forms raise IndexError
    for count in (counters.rand_count_one_perm, _one_perm_count_recursive):
        with pytest.raises(IndexError):
            count([1, 2, 3, 4], [0, 2, 4, 1])


def test_one_perm_hand_traces():
    # identity priority: bit 1 removed first, set 2, set 1, no resets -> 2
    assert counters.rand_count_one_perm([1, 2], [0, 1, 2]) == 2
    # swapped priority: bit 2 first; setting it resets bit 1, set again -> 3
    assert counters.rand_count_one_perm([1, 2], [0, 2, 1]) == 3


def test_exact_values():
    assert counters.expected_increments(0) == 0
    assert counters.expected_increments(2) == Fraction(5, 2)
    assert counters.expected_increments(3) == Fraction(14, 3)
    assert counters.expected_increments_recurrence(0) == 0
    assert counters.expected_increments_recurrence(1) == 1
    assert counters.expected_increments_recurrence(3) == Fraction(14, 3)


def test_recurrence_matches_closed_form_small():
    for n in range(40):
        assert counters.expected_increments(n) == counters.expected_increments_recurrence(n)


def test_expectation_strictly_increasing():
    prev = Fraction(-1)
    for n in range(30):
        cur = counters.expected_increments(n)
        assert cur > prev
        prev = cur


def test_asymptotic_values():
    val = counters.expected_increments_asymptotic(1)
    assert val == pytest.approx(math.e**2 / (2 * math.sqrt(math.pi * math.e)))
    val100 = counters.expected_increments_asymptotic(100)
    expect = math.exp(20) / (2 * math.sqrt(math.pi * math.e) * 100**0.25)
    assert val100 == pytest.approx(expect)


def test_one_perm_mean_equals_exact_small():
    for n in range(7):
        assert counters.one_perm_mean_over_permutations(n) == counters.expected_increments(n)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=12), max_size=6))
def test_enumeration_depends_only_on_size(ns):
    # counting over any index set behaves like counting over 1..|N|
    assert counters.enumerate_expected_increments(sorted(ns)) == counters.expected_increments(len(ns))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.randoms(use_true_random=False),
)
def test_one_perm_matches_recurrence_identity(n, pyrng):
    # f1p(N, sigma) = f1p(N minus argmin, sigma) + 1 + f1p(lower part, sigma)
    prio = list(range(1, n + 1))
    pyrng.shuffle(prio)
    prio = [0] + prio
    ns = list(range(1, n + 1))
    total = counters.rand_count_one_perm(ns, prio)
    if not ns:
        assert total == 0
        return
    i = min(ns, key=prio.__getitem__)
    rest = [x for x in ns if x != i]
    lower = [x for x in ns if x < i]
    assert total == (
        counters.rand_count_one_perm(rest, prio)
        + 1
        + counters.rand_count_one_perm(lower, prio)
    )


def test_sample_mean_within_four_stderr():
    n, trials = 8, 4000
    rng = Random(1234)
    vals = [counters.rand_count(range(1, n + 1), rng) for _ in range(trials)]
    mean = sum(vals) / trials
    var = sum((v - mean) ** 2 for v in vals) / (trials - 1)
    se = (var / trials) ** 0.5
    exact = float(counters.expected_increments(n))
    assert abs(mean - exact) <= 4 * se


def test_log_expected_increments_matches_float():
    got = counters.log_expected_increments(20)
    assert got == pytest.approx(math.log(float(counters.expected_increments(20))))
