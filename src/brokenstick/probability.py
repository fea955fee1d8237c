"""Exact rational probabilities for polygons made from a broken stick.

A unit stick is cut at n - 1 points chosen uniformly at random.  For a
polygon size k (3 <= k <= n) the three events of interest are:

* none:   no k of the n pieces can form a k-gon with positive area,
* exists: some k pieces can,
* forall: every choice of k pieces can.

Ties lose: a selection whose longest piece exactly equals the sum of
the others is flat and does not count as a polygon.  All results are
``fractions.Fraction`` values in lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod, factorial

from .genfib import parts_multiset

__all__ = [
    "ProblemSpec",
    "prob_none",
    "prob_exists",
    "prob_forall",
    "prob_ngon",
]

@dataclass(frozen=True)
class ProblemSpec:
    """A (k, n) problem instance: k-gons from n stick pieces."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"polygon size must be at least 3, got k={self.k}")
        if self.n < self.k:
            raise ValueError(
                f"piece count must be at least the polygon size, got k={self.k}, n={self.n}"
            )


def _product(values: tuple[int, ...]) -> int:
    # Balanced product tree: each multiplication pairs operands of
    # similar size, which CPython's Karatsuba multiplies in
    # O(d^1.585) digit operations; a one-by-one product multiplies the
    # growing total by one small factor at a time, O(d^2) for d digits.
    if len(values) <= 8:
        return prod(values)
    mid = len(values) // 2
    return _product(values[:mid]) * _product(values[mid:])


def prob_none(spec: ProblemSpec) -> Fraction:
    """Probability that no k pieces form a k-gon.

    Closed form n! divided by the product of the n part sizes from
    ``parts_multiset``; for k = n this collapses to n / 2^(n-1).

    Cost: the denominator has about 0.1-0.15 n^2 decimal digits (0.15
    for large k).  It is multiplied out with a balanced product tree,
    O(M(d) log n) for d digits and Karatsuba's M(d) ~ d^1.585; the
    reduction by gcd with n! then costs O(d n log n).  Measured on a
    2-core host: (100, 1000) 80 ms, (50, 2000) 0.7 s, (50, 4000) 6.4 s.
    """
    return Fraction(factorial(spec.n), _product(parts_multiset(spec.k, spec.n)))


def prob_exists(spec: ProblemSpec) -> Fraction:
    """Probability that at least one choice of k pieces forms a k-gon."""
    return 1 - prob_none(spec)


def prob_forall(spec: ProblemSpec) -> Fraction:
    """Probability that every choice of k pieces forms a k-gon.

    Alternating-sum closed form: with m = n - k + 2,

        (n (n-1) ... (n-k+3) / m) *
            sum_{j=1}^{m} (-1)^(j+1) j^-(k-3) C(m, j) / rising(m/j + 1, k-2)

    where rising(x, r) = x (x+1) ... (x+r-1).  The identities
    rising(m/j + 1, k-2) = prod_{i=1}^{k-2} (m + i j) / j^(k-2) and
    j C(m, j) = m C(m-1, j-1) make each term one integer ratio:

        n (n-1) ... (n-k+3) *
            sum_{j=1}^{m} (-1)^(j+1) C(m-1, j-1) / prod_{i=1}^{k-2} (m + i j)
    """
    k, n = spec.k, spec.n
    m = n - k + 2
    total = sum(
        Fraction(
            (-1) ** (j + 1) * comb(m - 1, j - 1),
            prod(m + i * j for i in range(1, k - 1)),
        )
        for j in range(1, m + 1)
    )
    return prod(range(n - k + 3, n + 1)) * total


def prob_ngon(n: int) -> Fraction:
    """Probability that all n pieces together form an n-gon: 1 - n / 2^(n-1)."""
    if n < 3:
        raise ValueError(f"polygon size must be at least 3, got n={n}")
    return 1 - Fraction(n, 2 ** (n - 1))
