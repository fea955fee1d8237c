"""Exact probability formulas: known values, identities, and cross-forms."""

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from brokenstick import (
    ProblemSpec,
    gen_fib,
    parts_multiset,
    prob_exists,
    prob_forall,
    prob_ngon,
    prob_none,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(2, 5)
    with pytest.raises(ValueError):
        ProblemSpec(4, 3)
    ProblemSpec(3, 3)  # boundary is fine


def test_none_known_values():
    assert prob_none(ProblemSpec(4, 4)) == Fraction(1, 2)
    assert prob_none(ProblemSpec(4, 5)) == Fraction(15, 88)
    assert prob_none(ProblemSpec(4, 6)) == Fraction(3, 80)
    assert prob_none(ProblemSpec(3, 3)) == Fraction(3, 4)
    assert prob_none(ProblemSpec(3, 5)) == Fraction(5, 28)
    assert prob_none(ProblemSpec(5, 5)) == Fraction(5, 16)
    assert prob_none(ProblemSpec(5, 6)) == Fraction(1, 16)


def test_none_matches_plain_product():
    # the product tree must give the one-by-one product exactly
    for k in range(3, 41):
        for n in range(k, k + 61):
            want = Fraction(factorial(n), prod(parts_multiset(k, n)))
            assert prob_none(ProblemSpec(k, n)) == want, (k, n)


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
    for n in range(3, 15):
        assert prob_ngon(n) == renyi_forall(n, n), n


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
