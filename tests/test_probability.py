"""Exact probability formulas: known values, identities, and cross-forms."""

import tracemalloc
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from brokenstick import (
    ProblemSpec,
    ResourceLimitError,
    gen_fib,
    parts_multiset,
    prob_exists,
    prob_forall,
    prob_ngon,
    prob_none,
)
from brokenstick import probability


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(2, 5)
    with pytest.raises(ValueError):
        ProblemSpec(4, 3)
    ProblemSpec(3, 3)  # boundary is fine


@pytest.mark.parametrize(
    "value, shown",
    [
        (2**64 - 1, "18446744073709551615"),
        (2**64, "2^64.0"),
        (-3 * 2**70, "-2^71.6"),
        (1200000.5, "1200000"),
    ],
    ids=["below-2^64", "2^64", "negative", "float"],
)
def test_resource_check_names_huge_ints_by_their_power_of_two(value, shown):
    # ints print exactly below 2^64, so no message meets str()'s 4300-digit limit
    check = ResourceLimitError._check
    check(10**5000, 10**5000, "steps", "at {}", value)  # at the limit, served
    with pytest.raises(ResourceLimitError) as info:
        check(10**5000, 1, "steps", "at {} it takes", value)
    assert str(info.value) == f"at {shown} it takes 2^16609.6 steps (limit 1)"


def test_prob_none_refuses_past_bound_before_building_parts(monkeypatch):
    def fail(k, n):
        raise AssertionError("a refused request built the parts")

    monkeypatch.setattr(probability, "parts_multiset", fail)
    for func in (prob_none, prob_exists):
        with pytest.raises(ResourceLimitError, match=f"limit {probability._PROB_NONE_MAX_BITS}"):
            func(ProblemSpec(3, 4001))


def test_none_known_values():
    assert prob_none(ProblemSpec(4, 4)) == Fraction(1, 2)
    assert prob_none(ProblemSpec(4, 5)) == Fraction(15, 88)
    assert prob_none(ProblemSpec(4, 6)) == Fraction(3, 80)
    assert prob_none(ProblemSpec(3, 3)) == Fraction(3, 4)
    assert prob_none(ProblemSpec(3, 5)) == Fraction(5, 28)
    assert prob_none(ProblemSpec(5, 5)) == Fraction(5, 16)
    assert prob_none(ProblemSpec(5, 6)) == Fraction(1, 16)


def check_none_terms(k, n):
    # n! over the plain product of the parts, by the cancelled runs and by
    # the product tree.  The cancelled runs are already in lowest terms,
    # each at most _RUN_BITS wide unless it is one wider part; and before
    # cancelling each two neighbouring runs made more than _RUN_BITS bits,
    # so every pair of runs holds at least _RUN_BITS bits of the product.
    parts = parts_multiset(k, n)
    want = Fraction(factorial(n), prod(parts))
    num, runs = probability._none_terms(ProblemSpec(k, n))
    assert all(gcd(num, run) == 1 for run in runs), (k, n)
    width = max(probability._RUN_BITS, max(parts).bit_length())
    assert max(runs).bit_length() <= width, (k, n)
    assert len(runs) // 2 * probability._RUN_BITS < prod(parts).bit_length(), (k, n)
    assert (num, prod(runs)) == (want.numerator, want.denominator), (k, n)
    assert prob_none(ProblemSpec(k, n)) == want, (k, n)


def test_none_matches_plain_product():
    for k in range(3, 41):
        for n in range(k, k + 61):
            check_none_terms(k, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=300), st.integers(min_value=0, max_value=400))
def test_none_terms_property(k, extra):
    check_none_terms(k, k + extra)


def test_forall_known_values():
    assert prob_forall(ProblemSpec(3, 3)) == Fraction(1, 4)
    assert prob_forall(ProblemSpec(3, 4)) == Fraction(1, 15)
    assert prob_forall(ProblemSpec(4, 5)) == Fraction(43, 189)


def test_ngon_known_values():
    assert prob_ngon(3) == Fraction(1, 4)
    assert prob_ngon(4) == Fraction(1, 2)
    assert prob_ngon(5) == Fraction(11, 16)
    with pytest.raises(ValueError):
        prob_ngon(2)


def test_prob_ngon_refuses_past_bound_before_building_the_power():
    # 2^(n-1) has n bits, about 4 MiB past the bound; a refusal stays far below
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"bits \(limit 33000000\)"):
            prob_ngon(33_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the largest n served: 33 * 10^6 = 2^6 * 515625
    value = prob_ngon(33_000_000)
    assert value.denominator == 1 << (33_000_000 - 7)
    assert value.numerator == value.denominator - 515625


def test_prob_ngon_names_huge_n_by_its_power_of_two():
    # 10^5000 has more digits than str() prints
    with pytest.raises(ResourceLimitError) as info:
        prob_ngon(10**5000)
    assert str(info.value) == (
        "prob_ngon at n=2^16609.6 needs 2^(n-1), an int of 2^16609.6 bits (limit 33000000)"
    )


def renyi_forall(k, n):
    # Renyi 1953: the sorted pieces are normalised order statistics of
    # i.i.d. Exp(1) variables E_1..E_n, so "largest piece < sum of the
    # k - 1 smallest" is the linear event sum_j c_j E_j > 0 with
    # c_j = (max(0, k - j) - 1) / (n - j + 1).  For distinct c_j,
    # P(sum c_j E_j > 0) = sum_{c_j > 0} prod_{i != j} c_j / (c_j - c_i).
    c = [Fraction(max(0, k - j) - 1, n - j + 1) for j in range(1, n + 1)]
    total = Fraction(0)
    for j, cj in enumerate(c):
        if cj > 0:
            term = Fraction(1)
            for i, ci in enumerate(c):
                if i != j:
                    term *= cj / (cj - ci)
            total += term
    return total


def test_forall_and_ngon_match_renyi_partial_fractions():
    for k in range(3, 9):
        for n in range(k, k + 12):
            assert prob_forall(ProblemSpec(k, n)) == renyi_forall(k, n), (k, n)
    for k, n in ((3, 2000), (50, 300)):
        assert prob_forall(ProblemSpec(k, n)) == renyi_forall(k, n), (k, n)
    for n in range(3, 15):
        assert prob_ngon(n) == renyi_forall(n, n), n


def forall_by_terms(k, n):
    # The alternating sum of prob_forall's docstring added as one Fraction
    # per term, each binomial from comb.
    m = n - k + 2
    total = sum(
        Fraction((-1) ** (j + 1) * comb(m - 1, j - 1), prod(m + i * j for i in range(1, k - 1)))
        for j in range(1, m + 1)
    )
    return prod(range(n - k + 3, n + 1)) * total


def test_forall_matches_term_by_term_sum():
    for k in range(3, 31):
        for n in range(k, k + 41):
            assert prob_forall(ProblemSpec(k, n)) == forall_by_terms(k, n), (k, n)


def test_triangle_closed_forms():
    # two independent published forms for k = 3: the no-triangle
    # probability via shifted Fibonacci factors and the all-triangles
    # probability as a central binomial reciprocal
    for n in range(3, 13):
        denom = 1
        for j in range(2, n + 1):
            denom *= gen_fib(2, j + 2) - 1
        assert prob_exists(ProblemSpec(3, n)) == 1 - Fraction(factorial(n), denom)
        assert prob_forall(ProblemSpec(3, n)) == Fraction(1, comb(2 * n - 2, n))


def test_collapse_at_k_equals_n():
    # choosing all pieces: both events coincide with the single n-gon event
    for n in range(3, 9):
        spec = ProblemSpec(n, n)
        assert prob_none(spec) == Fraction(n, 2 ** (n - 1))
        assert prob_exists(spec) == prob_ngon(n)
        assert prob_forall(spec) == prob_ngon(n)


def test_complement_identity():
    for k in range(3, 7):
        for n in range(k, k + 9):
            spec = ProblemSpec(k, n)
            assert prob_none(spec) + prob_exists(spec) == 1


def test_event_ordering_and_range():
    # forall implies exists; everything lives in (0, 1)
    for k in range(3, 7):
        for n in range(k, k + 9):
            spec = ProblemSpec(k, n)
            pn, pe, pf = prob_none(spec), prob_exists(spec), prob_forall(spec)
            assert 0 < pn < 1
            assert 0 < pf <= pe < 1
            for value in (pn, pe, pf):
                assert isinstance(value, Fraction)


def test_none_decreases_with_more_pieces():
    # more pieces make it easier to find a feasible selection
    for k in (3, 4, 5):
        values = [prob_none(ProblemSpec(k, n)) for n in range(k, k + 8)]
        assert all(b < a for a, b in zip(values, values[1:]))
