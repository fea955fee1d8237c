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
0.1-0.15 n^2 decimal digits (0.15 for large k).  Each of the n parts
first gives up its gcd with what is left of n!, an int of at most
n log2 n bits, which leaves the fraction in lowest terms with no gcd of
the whole product; a balanced product tree then multiplies the reduced
parts in O(M(d) log n) for d digits and Karatsuba's M(d) ~ d^1.585.  On
a 2-core host: (50, 2000) 0.55 s and (50, 4000) 4.9 s, of which the
gcds take 0.35 s; the CLI multiplies the same reduced parts in libmpdec
and answers (50, 4000) in 1.5 s.  A denominator that may exceed
8 * 10^6 bits, its size at n = 4000, raises ``ResourceLimitError``
before any part is built: every n <= 4000 is served and larger n only
for k near n.

Cost of ``prob_forall``: with m = n - k + 2 terms, each term takes its
binomial, of about m bits, from the one before and its denominator, of
up to d ~ k log2(k m) bits, from a balanced product.  A balanced tree
sums the terms over the lcm of their denominators, so each gcd and
product pairs operands of similar size and one ``Fraction`` is built at
the end.  That is about m d ((k + 24) m + (b - 1) d) steps, for b the
bit length of m, at about 2.7 * 10^12 steps/s on a 2-core host.  Of 34
timings from 1 s to 28 s it predicted 0.76-1.45 times the measured
time, among them (3, 80000) 3.8 s, (50, 10000) 2.8 s, (100, 4000)
1.8 s, (300, 3000) 6.0 s, (1000, 2500) 18.7 s, (3000, 3500) 23.8 s and
(200000, 200000) 12.3 s; below 1 s, down to 0.48 times.  Past
2.5 * 10^13 steps (about 10 s) it raises ``ResourceLimitError`` before
the first term; the largest requests served took 6.4-10.7 s.  For k = 3
every n <= 127437 is served, for k = 1000 every n <= 2018.

Cost of ``prob_ngon``: 1 - n / 2^(n-1) takes O(n) bit operations, 0.2 s
at n = 3.3 * 10^7, but its numerator and denominator have about 0.3 n
decimal digits each, and the CLI prints both.  Rendering one costs
O(M(d) log d) for d digits, and libmpdec's transform length doubles
just past n = 3.31 * 10^7.  The CLI renders the denominator 2^(n-1) and
takes the numerator from it by one exact subtraction of n / 2^s, for
2^s the power of two in n: end to end on a 2-core host, ``prob ngon``
took 2.6-2.8 s at n = 3.3 * 10^7, where rendering both operands took
7.6-10 s.  Past n = 3.3 * 10^7 it raises ``ResourceLimitError`` before
it builds 2^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, log2, prod
from typing import Iterator, Sequence

from .genfib import parts_multiset

__all__ = [
    "ResourceLimitError",
    "ProblemSpec",
    "prob_none",
    "prob_exists",
    "prob_forall",
    "prob_ngon",
]

# The events by the names the CLI and the simulation give them; "ngon"
# is forall at k = n.  With the simulation's defaults they live here, so
# the CLI's parser shows them without importing montecarlo, which
# exports all three, as the package does DEFAULT_SEED and DEFAULT_CHUNKS.
MODES = ("none", "exists", "forall", "ngon")
# Arbitrary fixed default; the acceptance checks pin their expectations
# to runs with exactly this seed.
DEFAULT_SEED = 2654435769
DEFAULT_CHUNKS = 8

# See the cost models in the module docstring.
_PROB_NONE_MAX_BITS = 8_000_000
_PROB_FORALL_MAX_STEPS = 25_000_000_000_000
_PROB_NGON_MAX_N = 33_000_000


class ResourceLimitError(RuntimeError):
    """A request would exceed the documented cost bound of a function.

    Each guard lives in the function whose work it bounds and raises
    before that work starts, so it holds on every route to the function.
    Every guard over a computed cost raises through ``_check``, whose
    message names that cost and its limit.
    """

    @classmethod
    def _check(cls, cost: int | float, limit: int, unit: str, what: str, *args: object) -> None:
        # Past the limit raises "{what} {cost} {unit} (limit {limit})", the {}
        # of what filled from args.  Ints print exactly below 2^64 and by
        # their power of two beyond, so str()'s 4300-digit limit is never met.
        if cost > limit:
            def show(x: object) -> str:
                if isinstance(x, int) and abs(x) >> 64:
                    return f"{'-' * (x < 0)}2^{log2(abs(x)):.1f}"
                return f"{x:.0f}" if isinstance(x, float) else str(x)

            raise cls(f"{what.format(*map(show, args))} {show(cost)} {unit} (limit {limit})")


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


def _product(values: Sequence[int]) -> int:
    # Balanced product tree: each multiplication pairs operands of
    # similar size, which CPython's Karatsuba multiplies in
    # O(d^1.585) digit operations; a one-by-one product multiplies the
    # growing total by one small factor at a time, O(d^2) for d digits.
    if len(values) <= 8:
        return prod(values)
    mid = len(values) // 2
    return _product(values[:mid]) * _product(values[mid:])


def _fraction_sum(terms: Iterator[tuple[int, int]], count: int) -> tuple[int, int]:
    # The sum of the next `count` terms a/q as (numerator, lcm of the q),
    # by a balanced tree: each gcd and product pairs operands of similar
    # size, where adding terms one by one reduces against the growing
    # total every time.  Leaves are read in order, so terms can be a
    # generator and only O(log count) partial sums are alive at once.
    if count == 1:
        return next(terms)
    half = count // 2
    a, p = _fraction_sum(terms, half)
    b, q = _fraction_sum(terms, count - half)
    g = gcd(p, q)
    return a * (q // g) + b * (p // g), p // g * q


def _none_denominator_bits(k: int, n: int) -> int:
    # Upper bound on log2 of the prob_none denominator: its n - k + 3
    # running sums start at 1 and at most double at each step, and each
    # of its k - 3 chain values is at most k times the largest sum.
    m = n - k + 2
    return m * (m + 1) // 2 + (k - 3) * (m + k.bit_length())


def _none_terms(spec: ProblemSpec) -> tuple[int, tuple[int, ...]]:
    # prob_none as n! / prod(parts) in lowest terms, without the gcd of n!
    # with the whole product: each part gives up its gcd with what is
    # left of n!.  For each prime one side of that pair then holds none
    # of it, and the numerator only shrinks, so every reduced part is
    # coprime to the final numerator and so is their product.
    ResourceLimitError._check(
        _none_denominator_bits(spec.k, spec.n), _PROB_NONE_MAX_BITS, "bits",
        "the no-polygon probability at k={}, n={} has a denominator of up to", spec.k, spec.n,
    )
    num = factorial(spec.n)
    parts = []
    for part in parts_multiset(spec.k, spec.n):
        common = gcd(num, part)
        num //= common
        parts.append(part // common)
    return num, tuple(parts)


def _forall_steps(k: int, m: int) -> int:
    # prob_forall's cost model for m terms whose denominators have up to
    # d bits; see the module docstring.
    d = k * (k * m).bit_length()
    return m * d * ((k + 24) * m + (m.bit_length() - 1) * d)


def prob_none(spec: ProblemSpec) -> Fraction:
    """Probability that no k pieces form a k-gon.

    Closed form n! divided by the product of the n part sizes from
    ``parts_multiset``; for k = n this collapses to n / 2^(n-1).

    Past the module docstring's cost bound raises ``ResourceLimitError``.
    """
    num, parts = _none_terms(spec)
    return Fraction(num, _product(parts))


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
    ResourceLimitError._check(
        _forall_steps(k, m), _PROB_FORALL_MAX_STEPS, "steps",
        "the all-polygon probability at k={}, n={} costs about", k, n,
    )

    def terms() -> Iterator[tuple[int, int]]:
        binom = 1  # C(m-1, j-1), and C(m-1, j) = C(m-1, j-1) (m - j) / j
        for j in range(1, m + 1):
            # prod_{i=1}^{k-2} (m + i j)
            yield (binom if j % 2 else -binom), _product(range(m + j, m + (k - 1) * j, j))
            binom = binom * (m - j) // j

    total, common = _fraction_sum(terms(), m)
    return Fraction(_product(range(n - k + 3, n + 1)) * total, common)


def prob_ngon(n: int) -> Fraction:
    """Probability that all n pieces together form an n-gon: 1 - n / 2^(n-1).

    Past the module docstring's cost bound raises ``ResourceLimitError``.
    """
    if n < 3:
        raise ValueError(f"polygon size must be at least 3, got n={n}")
    ResourceLimitError._check(
        n, _PROB_NGON_MAX_N, "bits", "prob_ngon at n={} needs 2^(n-1), an int of", n,
    )
    return 1 - Fraction(n, 2 ** (n - 1))
