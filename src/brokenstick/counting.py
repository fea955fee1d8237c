"""Counting oracles for the broken-stick systems.

Three independent ways to count solutions, used to cross-validate each
other and the closed forms:

* ``count_constrained``: exhaustive search over ordered integer
  solutions of the window-inequality system with a given total.  The
  one backtracking search behind it counts a whole range of totals in
  one pass, counting the last slot's admissible values as one run, so
  ``verify --suite lemma1`` walks each prefix once for all its totals.
* ``count_restricted`` / ``series_coefficients``: classical coin-style
  partition DP, counting by part sizes (the elimination engine's
  output) instead of by direct search.  ``series_coefficients`` keeps
  every coefficient up to its order.  ``count_restricted`` fills the
  table only to c + rL, for r part sizes of lcm L and c the total mod
  L, and extrapolates the count, a polynomial on each residue class
  mod L, exactly to the total.
* ``hermite_coeff``: closed-form count of compositions into n positive
  parts each at most half the total, the coefficients of the
  all-pieces polygon generating function.

``asymptotic_ratio`` and ``limit_probability`` relate the discrete
counts back to the continuous probabilities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, e, factorial, lcm, log2, prod
from operator import add
from typing import Iterable, Literal

from .genfib import parts_multiset
from .omega import ClosedProduct
from .probability import ProblemSpec, ResourceLimitError

__all__ = [
    "count_constrained",
    "count_restricted",
    "series_coefficients",
    "hermite_coeff",
    "asymptotic_ratio",
    "limit_probability",
]

Positivity = Literal["nonneg", "positive"]

# Exhaustive search refuses a range of totals whose estimated search
# nodes exceed this; see _search_nodes.  A node took 2.4-3.6 us on a
# 2-core host, so the cap sits near 10 s.
_NODE_CAP = 4_000_000
# It recurses once per piece, so it refuses n past half of CPython's
# default recursion limit of 1000, leaving the rest to its callers.
_MAX_DEPTH = 500

# The coin-change DP adds one int per cell, a (part p, total s) pair
# with p <= s <= n_max, and keeps n_max + 1 ints.  On a 2-core host it
# did 13-15 M cells/s with counts up to 62 bits, 10 M/s at 126 bits and
# 7 M/s with 3900-bit counts, and peaked at 564-572 MiB RSS at n_max =
# 10^7; past either bound a table would take about 4-7 s or more, or
# over half a GiB.
_MAX_TABLE_CELLS = 50_000_000
_MAX_TABLE_TOTAL = 10_000_000
# Each slice operation of the DP replaces at most this many entries, so
# its new ints take a few MiB beside the table.  Slicing whole residue
# classes would raise the peak at 10^7 to about 900 MiB, and taking the
# runs class by class rather than stretch by stretch to 640 MiB.
_SLICE = 1 << 16

# hermite_coeff's cost is the binomial C(N-1, b) with b = min(n-1, N-n)
# its smaller side, which has at most b log2(e (N-1) / b) bits.  By that
# bound, on a 2-core host: 0.61 M bits (n = 250000, N = 500000) took
# 2.6 s, 0.95 M (300000, 10^6) 6.9 s, 1.10 M (450000, 900000) 8.2 s and
# 1.22 M (500000, 10^6) 11.0 s.
_HERMITE_MAX_BITS = 1_200_000


def _search_nodes(spec: ProblemSpec, t_min: int, t_max: int) -> int:
    # Search nodes that _constrained_counts visits for totals t_min..t_max,
    # estimated as the larger of two counts.  The first puts 2n - k - 1
    # nodes on each solution: its leaf has n - 1 ancestors, and the
    # windows add dead ends that the bound on the remaining total does
    # not see.  From (3, 3) to (12, 12) and (3, 40), totals up to 3000,
    # the nodes visited were 0.3-1.2 times that count.  The solutions come
    # from the coin DP over parts_multiset(k, n), stopped once past the
    # cap.  The second, the leading term t^(n-1) / (n! (n-1)!) of the
    # partitions of t into n parts, was the estimate alone before; it
    # undercounted the nodes 8-fold at (12, 12, 95), 43-fold at (3, 20,
    # 130) and 1750-fold at (3, 20, 100), and it is kept so that no total
    # it refused is served now.
    k, n = spec.k, spec.n
    denom = factorial(n) * factorial(n - 1)
    partitions = sum(t ** (n - 1) // denom for t in range(t_min, t_max + 1))
    if partitions > _NODE_CAP:
        return partitions
    per_solution = 2 * n - k - 1
    ways = [1] + [0] * t_max
    nodes = per_solution * sum(ways[t_min:])
    for p in sorted(parts_multiset(k, n)):
        if p > t_max or nodes > _NODE_CAP:
            break
        _add_part(ways, p)
        nodes = per_solution * sum(ways[t_min:])
    return max(partitions, nodes)


def _constrained_counts(
    spec: ProblemSpec, t_min: int, t_max: int, positivity: Positivity
) -> list[int]:
    # Counts of the window system's solutions at each total t_min..t_max,
    # by one backtracking pass: slot pos takes values largest first,
    # capped by the slot before it, by t_max less the floors still to
    # come and by every window whose small side holds pos; it is at
    # least what reaches t_min when each later slot repeats its value.
    # The last slot's admissible values are one contiguous range, so it
    # adds a run to a difference array instead of recursing per value.
    k, n = spec.k, spec.n
    if n > _MAX_DEPTH:
        raise ResourceLimitError(
            f"exhaustive search over n={n} pieces recurses past depth {_MAX_DEPTH}"
        )
    estimate = _search_nodes(spec, t_min, t_max)
    if estimate > _NODE_CAP:
        totals = f"total {t_max}" if t_min == t_max else f"totals {t_min}..{t_max}"
        raise ResourceLimitError(
            f"{totals} with n={n} needs about {estimate} search nodes (limit {_NODE_CAP})"
        )
    lo = 1 if positivity == "positive" else 0
    vals = [0] * n
    # pre[i] is vals[0] + ... + vals[i - 1]
    pre = [0] * (n + 1)
    runs = [0] * (t_max - t_min + 2)

    def rec(pos: int, prev: int) -> None:
        used = pre[pos]
        slots_after = n - pos - 1
        hi = min(prev, t_max - used - lo * slots_after)
        for s in range(max(0, pos - k + 1), min(pos - 1, n - k) + 1):
            hi = min(hi, vals[s] - (used - pre[s + 1]) - lo * (s + k - 1 - pos))
        lo_here = max(lo, -((used - t_min) // (slots_after + 1)))
        if slots_after == 0:
            if lo_here <= hi:
                runs[used + lo_here - t_min] += 1
                runs[used + hi + 1 - t_min] -= 1
            return
        for v in range(hi, lo_here - 1, -1):
            vals[pos] = v
            pre[pos + 1] = used + v
            rec(pos + 1, v)

    rec(0, t_max)
    return list(accumulate(runs[:-1]))


def count_constrained(
    spec: ProblemSpec,
    n_value: int,
    positivity: Positivity = "nonneg",
) -> int:
    """Count weakly decreasing integer vectors satisfying the window system.

    Vectors (a_1 >= a_2 >= ... >= a_n) with every a_i >= 0 (or >= 1 for
    ``positivity="positive"``), total exactly ``n_value``, and every
    window inequality a_i >= a_{i+1} + ... + a_{i+k-1}.  One
    backtracking search, shared with ``verify --suite lemma1``, which
    asks it for a whole range of totals in one pass: each slot's
    candidate values, largest first, with total and window pruning on
    running prefix sums, and the last slot counted as one run of values
    rather than one value at a time.

    Raises ``ResourceLimitError`` for n > 500, since the search recurses
    once per piece, and when it would visit more than 4 * 10^6 nodes
    (about 10 s) by the estimate: the larger of the partition count
    n_value^(n-1) / (n! (n-1)!) and 2n - k - 1 nodes per solution, the
    solutions counted by the partition DP over ``parts_multiset``.
    """
    if n_value < 0:
        raise ValueError(f"total must be nonnegative, got {n_value}")
    if positivity not in ("nonneg", "positive"):
        raise ValueError(f"positivity must be 'nonneg' or 'positive', got {positivity!r}")
    return _constrained_counts(spec, n_value, n_value, positivity)[0]


def _add_part(ways: list[int], p: int) -> None:
    # Multiplies the series ways[0..] by 1/(1 - q^p) in place, that is
    # ways[s] += ways[s - p] for s = p, p + 1, ... in order, in at most
    # sqrt(n_max) + n_max / _SLICE slice operations.  A small p takes
    # running sums down its p residue classes, one stretch of span
    # totals at a time; each class's run starts at the finished last
    # entry of its run in the stretch before.  A large p adds to each
    # run of totals the finished run p before it.
    n_max = len(ways) - 1
    if p * p <= n_max:
        span = p * _SLICE
        for base in range(0, n_max + 1, span):
            for s in range(base, base + p):
                ways[s : s + span + 1 : p] = accumulate(ways[s : s + span + 1 : p])
    else:
        run = min(p, _SLICE)
        for j in range(p, n_max + 1, run):
            ways[j : j + run] = map(add, ways[j : j + run], ways[j - p : j - p + run])


def _check_table(parts: tuple[int, ...], n_max: int) -> None:
    if any(p < 1 for p in parts):
        raise ValueError(f"part sizes must be positive, got {min(parts)}")
    cells = sum(n_max + 1 - p for p in parts if p <= n_max)
    if cells > _MAX_TABLE_CELLS or n_max > _MAX_TABLE_TOTAL:
        raise ResourceLimitError(
            f"a partition table to total {n_max} fills {cells} cells"
            f" (limits {_MAX_TABLE_CELLS} cells, total {_MAX_TABLE_TOTAL})"
        )


def _restricted_table(parts: Iterable[int], n_max: int) -> list[int]:
    parts = tuple(parts)
    _check_table(parts, n_max)
    ways = [0] * (n_max + 1)
    ways[0] = 1
    for p in parts:
        _add_part(ways, p)
    return ways


def count_restricted(parts: Iterable[int], n_value: int) -> int:
    """Partitions of n_value into parts drawn from ``parts``, repetition allowed.

    A repeated size in ``parts`` counts as a distinct part type, so
    ([1, 1], s) gives s + 1, not 1.  With r the parts p <= N = n_value
    and L their lcm, the count is a polynomial of degree r - 1 in N on
    each residue class of N mod L, for every N >= L - sum(p) (Sylvester):
    the generating function is P(q) / (1 - q^L)^r with deg P = rL - sum(p).
    So the coin-change DP fills a table only to c + rL, c = N mod L,
    and the count is extrapolated exactly from the r entries at
    c + L, ..., c + rL by Newton's forward differences.  When c + rL is
    not below N the count is read from the table to N.  That costs
    O(r * min(N, (r + 1) L)) cells plus r^2 big-int operations.  The
    guard is still on N: ``ResourceLimitError`` past 5 * 10^7 cells,
    one per part p <= N and total p..N, or a total past 10^7.
    """
    if n_value < 0:
        raise ValueError(f"total must be nonnegative, got {n_value}")
    parts = tuple(parts)
    _check_table(parts, n_value)
    used = [p for p in parts if p <= n_value]
    period = lcm(*used)
    c = n_value % period
    last = c + len(used) * period
    if last >= n_value:
        return _restricted_table(used, n_value)[n_value]
    # diffs holds y_1..y_r, y_j the count at c + jL, and after step i
    # the differences of order i + 1; t is N's offset from y_1 in steps
    diffs = _restricted_table(used, last)[c + period :: period]
    t = (n_value - c) // period - 1
    count, binom = 0, 1
    for i in range(len(used)):
        count += binom * diffs[0]
        binom = binom * (t - i) // (i + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return count


def series_coefficients(product: ClosedProduct, n_max: int) -> list[int]:
    """Coefficients 0..n_max of prod_i 1/(1 - q^e_i), by the coin-change DP.

    Every coefficient is kept, so the table is filled to n_max: one cell
    per exponent e <= n_max and total e..n_max, under the same guard as
    ``count_restricted`` (5 * 10^7 cells, total 10^7), which reads a
    single coefficient from a shorter table.
    """
    if n_max < 0:
        raise ValueError(f"truncation order must be nonnegative, got {n_max}")
    return _restricted_table(product.exponents, n_max)


def hermite_coeff(n: int, n_value: int) -> int:
    """Number of compositions of n_value into n positive parts, each part
    at most half the total (so degenerate flat n-gons are included).

    All C(N-1, n-1) compositions of N = n_value, minus those with a part
    above N/2.  Two such parts would already sum past N, so at most one
    part is too big; fixing which of the n parts it is and taking
    floor(N/2) off it leaves an arbitrary composition of N - floor(N/2),
    hence

        C(N-1, n-1) - n * C(N - floor(N/2) - 1, n-1).

    This is the q^N coefficient of the generating function
    q^n / (1-q)^n - n q^(2n-1) / ((1-q)^n (1+q)^(n-1)).  Costs two
    big-int binomials; raises ``ResourceLimitError`` when the larger may
    have more than 1.2 * 10^6 bits (about 10 s).
    """
    if n < 3:
        raise ValueError(f"piece count must be at least 3, got {n}")
    if n_value < 0:
        raise ValueError(f"total must be nonnegative, got {n_value}")
    if n_value < n:
        return 0
    side = min(n - 1, n_value - n)
    bits = side * (log2(e) + log2(n_value - 1) - log2(side)) if side else 0
    if bits > _HERMITE_MAX_BITS:
        raise ResourceLimitError(
            f"the composition count at n={n}, total {n_value} has up to {bits:.0f} bits"
            f" (limit {_HERMITE_MAX_BITS})"
        )
    return comb(n_value - 1, n - 1) - n * comb(n_value - n_value // 2 - 1, n - 1)


def asymptotic_ratio(spec: ProblemSpec, n_value: int) -> Fraction:
    """Restricted-partition count over its leading-order prediction.

    With r part sizes of product P, partitions of N into those parts
    number N^(r-1) / ((r-1)! P) to leading order; the exact ratio
    returned here tends to 1 as n_value grows.  The count is
    ``count_restricted``'s: O(r * min(N, (r + 1) L)) cells plus r^2
    big-int operations, L the lcm of the parts p <= N, under the same
    guard on N (5 * 10^7 cells of a table to N, total 10^7).
    """
    if n_value < 1:
        raise ValueError(f"total must be positive, got {n_value}")
    parts = parts_multiset(spec.k, spec.n)
    r = len(parts)
    count = count_restricted(parts, n_value)
    return Fraction(count * factorial(r - 1) * prod(parts), n_value ** (r - 1))


def limit_probability(spec: ProblemSpec, n_value: int) -> Fraction:
    """Discrete stand-in for the no-polygon probability at total n_value.

    n! times the count of ordered positive solutions, divided by the
    number C(n_value - 1, n - 1) of compositions of n_value into n
    positive parts.  Converges to ``prob_none`` as n_value grows; for
    small totals the n! factor overcounts outcomes with tied piece
    sizes and the value may exceed 1.
    """
    if n_value <= spec.n:
        raise ValueError(
            f"total must exceed the piece count, got total={n_value}, n={spec.n}"
        )
    count = count_constrained(spec, n_value, "positive")
    return Fraction(
        factorial(spec.n) * count, comb(n_value - 1, spec.n - 1)
    )
