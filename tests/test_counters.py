"""Counter model: hand-traced values, exact identities, sampling sanity."""

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
