"""Exact rational probabilities for polygons made from a broken stick.

A unit stick is cut at n - 1 points chosen uniformly at random.  For a
polygon size k (3 <= k <= n) the three events of interest are:

* none:   no k of the n pieces can form a k-gon with positive area,
* exists: some k pieces can,
* forall: every choice of k pieces can.

Ties lose: a selection whose longest piece exactly equals the sum of
the others is flat and does not count as a polygon.  All results are
``fractions.Fraction`` values in lowest terms.

Cost of ``prob_none`` (and ``prob_exists``): the denominator has about
0.1-0.15 n^2 decimal digits (0.15 for large k).  A balanced product
tree multiplies it out in O(M(d) log n) for d digits and Karatsuba's
M(d) ~ d^1.585, and the gcd with n! costs O(d n log n).  On a 2-core
host: (50, 2000) 0.7 s, (50, 4000) 6.4 s, 8-10 s with the CLI's
decimal rendering.  A denominator that may exceed 8 * 10^6 bits, its
size at n = 4000, raises ``ResourceLimitError`` before any part is
built: every n <= 4000 is served and larger n only for k near n.

Cost of ``prob_forall``: with m = n - k + 2 terms, each term builds a
binomial of about m bits (about m^1.5 for CPython's ``comb``) and adds a
fraction whose denominator has d ~ k log2(k m) bits to a running sum
whose denominator grows to under k m bits.  That is about
m^2.5 + m d (k m + d) / 625 steps of 1.25 ns on a 2-core host, within
45% of 24 timings from 0.03 s to 172 s, among them (3, 6000) 3.5 s,
(3, 9000) 9.9 s, (50, 5000) 6.1 s, (100, 2000) 1.4 s, (600, 1400)
8.2 s, (1000, 2000) 33 s and (50000, 50000) 2.4 s.  Past 8 * 10^9 steps
(10 s) it raises ``ResourceLimitError`` before the first term: for
k = 3 every n <= 9167 is served.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt, prod

from .genfib import parts_multiset

__all__ = [
    "ResourceLimitError",
    "ProblemSpec",
    "prob_none",
    "prob_exists",
    "prob_forall",
    "prob_ngon",
]

# See the cost models in the module docstring.
_PROB_NONE_MAX_BITS = 8_000_000
_PROB_FORALL_MAX_STEPS = 8_000_000_000


class ResourceLimitError(RuntimeError):
    """A request would exceed the documented cost bound of a function.

    Each guard lives in the function whose work it bounds and raises
    before that work starts, so it holds on every route to the function.
    """


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


def _none_denominator_bits(k: int, n: int) -> int:
    # Upper bound on log2 of the prob_none denominator: its n - k + 3
    # running sums start at 1 and at most double at each step, and each
    # of its k - 3 chain values is at most k times the largest sum.
    m = n - k + 2
    return m * (m + 1) // 2 + (k - 3) * (m + k.bit_length())


def prob_none(spec: ProblemSpec) -> Fraction:
    """Probability that no k pieces form a k-gon.

    Closed form n! divided by the product of the n part sizes from
    ``parts_multiset``; for k = n this collapses to n / 2^(n-1).

    Past the module docstring's cost bound raises ``ResourceLimitError``.
    """
    bits = _none_denominator_bits(spec.k, spec.n)
    if bits > _PROB_NONE_MAX_BITS:
        raise ResourceLimitError(
            f"the no-polygon probability at k={spec.k}, n={spec.n} has a denominator"
            f" of up to {bits} bits (limit {_PROB_NONE_MAX_BITS})"
        )
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

    Past the module docstring's cost bound raises ``ResourceLimitError``.
    """
    k, n = spec.k, spec.n
    m = n - k + 2
    d = k * (k * m).bit_length()
    steps = m * m * isqrt(m) + m * d * (k * m + d) // 625
    if steps > _PROB_FORALL_MAX_STEPS:
        raise ResourceLimitError(
            f"the all-polygon probability at k={k}, n={n} costs about {steps} steps"
            f" (limit {_PROB_FORALL_MAX_STEPS})"
        )
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
