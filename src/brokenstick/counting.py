"""Counting oracles for the broken-stick systems.

Three independent ways to count solutions, used to cross-validate each
other and the closed forms:

* ``count_constrained``: exhaustive search over ordered integer
  solutions of the window-inequality system with a given total.  The
  one search behind it walks the tree of prefixes one slot at a time,
  a block of numpy rows per step, and counts a whole range of totals in
  one pass, counting the last slot's admissible values as one run, so
  ``verify --suite lemma1`` walks each prefix once for all its totals.
* ``count_restricted``: one coefficient of prod 1/(1 - q^c) over the
  part sizes (the elimination engine's output), counting by part sizes
  instead of by direct search.  It halves the total about log2(N / D)
  times, D the sum of the parts, holding about D ints, and finishes by
  the classical coin-style partition DP.
* ``hermite_coeff``: closed-form count of compositions into n positive
  parts each at most half the total, the coefficients of the
  all-pieces polygon generating function.

Each route counts nonnegative solutions; a positive count at N is the
nonnegative count at N - c_n, c = ``parts_multiset(k, n)`` (see
``count_constrained``).

``asymptotic_ratio`` and ``limit_probability`` relate the discrete
counts back to the continuous probabilities.

Only the exhaustive walk uses numpy, and it imports numpy inside each
function that calls it, so the other routes, and every CLI start, run
without loading it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, e, factorial, log2, prod
from operator import add
from typing import TYPE_CHECKING, Iterable, Literal

from .genfib import parts_multiset
from .probability import ProblemSpec, ResourceLimitError

if TYPE_CHECKING:  # series_coefficients' annotation; no route here runs omega
    from .omega import ClosedProduct

__all__ = [
    "count_constrained",
    "count_restricted",
    "hermite_coeff",
    "asymptotic_ratio",
    "limit_probability",
]

Positivity = Literal["nonneg", "positive"]

# Exhaustive search refuses a range of totals whose estimated search
# nodes exceed this; see _search_nodes.  On a 2-core host the largest
# totals served at 94 shapes with k <= 12 and n <= 40 took 0.06-0.39 s,
# slowest at (12, 20, 187).  Each window slack a prefix carries adds to a
# node's cost: (250, 500, 85), 249 slacks per prefix, took 2.4-3.2 s.
_NODE_CAP = 4_000_000
# The walk recurses at most once per slot, from a block whose children it
# splits, so it refuses n past half of CPython's default recursion limit
# of 1000, leaving the rest to its callers.
_MAX_DEPTH = 500
# A block of the walk holds at most this many int64 entries, one per bound
# on the next value for each prefix, and at least one prefix.  Smaller
# blocks pay the fixed numpy cost per slot more often: at 2^14 entries
# (250, 500, 85) took twice as long and (8, 30, 163) 1.5 times; at 2^17
# the traced peak at (12, 12, 90) doubled to 22 MiB.
_BLOCK = 1 << 16
# The slack of a window that is not open, past every cap.  The node cap
# bounds every total served far below 2^62 (below about 5,700 by the
# t^2 / 16 solutions of _search_nodes), so no entry, even this one less a
# total, overflows int64, and no count passes the node estimate.
_NO_WINDOW = 1 << 62

# A cell is one big-int addition: a (part p, total s) pair of the
# coin-change DP, p <= s <= n_max, or an entry of a halving's slice.  On a
# 2-core host tables did 13-15 M cells/s with counts up to 62 bits and
# 7 M/s with 3900-bit counts, and held 564-572 MiB at n_max = 10^7.
# Under the cell bound count_restricted took 7.0 s at (3, 24, 10^12), 9.0
# * 10^7 cells, and 10.6 s at (3, 30, 8 * 10^6), 9.9 * 10^7 mostly table.
_MAX_TABLE_CELLS = 100_000_000
_MAX_TABLE_TOTAL = 10_000_000
# Each slice operation of the DP replaces at most this many entries, so
# its new ints take a few MiB beside the table.  Slicing whole residue
# classes would raise the peak at 10^7 to about 900 MiB, and taking the
# runs class by class rather than stretch by stretch to 640 MiB.
_SLICE = 1 << 16
# A halving's slice costs this many cells beyond its entries: over parts
# (1,), two slices of two entries, a halving took 4.8 us, 56 ns a cell.
_SLICE_CELLS = 40

# hermite_coeff's cost is the binomial C(N-1, b) with b = min(n-1, N-n)
# its smaller side, which has at most b log2(e (N-1) / b) bits.  By that
# bound, on a 2-core host: 0.61 M bits (n = 250000, N = 500000) took
# 2.6 s, 0.95 M (300000, 10^6) 6.9 s, 1.10 M (450000, 900000) 8.2 s and
# 1.22 M (500000, 10^6) 11.0 s.
_HERMITE_MAX_BITS = 1_200_000


def _search_nodes(spec: ProblemSpec, t_min: int, t_max: int) -> int:
    # Nodes that _walk visits for totals t_min..t_max (the root and every
    # prefix it expands), estimated as 2n - k - 1 per solution: its leaf
    # has n - 1 ancestors, and the windows add dead ends that the bound on
    # the remaining total does not see.  From (3, 3) to (12, 12) and (3, 40),
    # totals up to 3000, the nodes visited were 0.3-1.2 times that.  The
    # solutions are count_restricted's over parts_multiset(k, n); those of a
    # range are the partitions of t_max into the parts and one more part 1,
    # less those of t_min - 1.  Parts 1, 2 and 4 are in every such multiset,
    # so t_max alone has at least t_max^2 / 16 solutions; a range past the
    # cap by that is refused before count_restricted, which thus sees only
    # totals below about 5,700.
    k, n = spec.k, spec.n
    per_solution = 2 * n - k - 1
    least = per_solution * (t_max * t_max // 16)
    if least > _NODE_CAP:
        return least
    parts = parts_multiset(k, n)
    if t_min == t_max:
        return per_solution * count_restricted(parts, t_max)
    parts += (1,)
    below = count_restricted(parts, t_min - 1) if t_min else 0
    return per_solution * (count_restricted(parts, t_max) - below)


def _check_walk(spec: ProblemSpec, t_min: int, t_max: int) -> None:
    # Refuses a walk over totals t_min..t_max past _MAX_DEPTH or _NODE_CAP.
    n = spec.n
    ResourceLimitError._check(n, _MAX_DEPTH, "slots deep", "exhaustive search recurses")
    totals = "total {1}" if t_min == t_max else "totals {0}..{1}"
    ResourceLimitError._check(
        _search_nodes(spec, t_min, t_max), _NODE_CAP, "search nodes",
        totals + " with n={2} needs about", t_min, t_max, n,
    )


def _constrained_counts(spec: ProblemSpec, t_min: int, t_max: int) -> list[int]:
    # Counts of the window system's nonnegative solutions at each total
    # t_min..t_max, by one walk over the tree of prefixes; see _walk.  Its
    # callers price it by _check_walk first, once per walk.
    import numpy as np

    runs = np.zeros(t_max - t_min + 2, np.int64)
    # the empty prefix, under no window yet; at most this many are open at once
    windows = min(spec.k - 1, spec.n - spec.k + 1)
    root = np.array([[t_max], [t_max]] + [[_NO_WINDOW]] * windows, np.int64)
    _walk(root, 0, spec, t_min, t_max, runs)
    return np.cumsum(runs[:-1]).tolist()


def _walk(
    frontier: np.ndarray, pos: int, spec: ProblemSpec, t_min: int, t_max: int, runs: np.ndarray
) -> None:
    # Walks a block of prefixes that end before slot pos, and the subtree
    # below it, one slot per step.  Each column of frontier is one prefix,
    # and each row one bound on its next value: row 0 is the room left
    # below t_max, row 1 the last value, and each row after that the
    # slack of one open window s, a_s less the later pieces already
    # placed in it.  So the value at pos is at most the least entry of
    # its column, and above `short`, the largest value from which every
    # later slot repeating it still falls short of t_min.  The last slot's
    # values are one run per prefix, added to the difference array runs.
    # A block whose children pass one block hands them on one block at a
    # time, recursing, and returns; otherwise its children replace it, so
    # the walk holds at most one parent block per slot.
    import numpy as np

    n = spec.n
    per_block = max(1, _BLOCK // len(frontier))
    while True:
        slots_after = n - pos - 1
        cap = frontier.min(axis=0)
        # short = ceil((t_min - used) / (slots_after + 1)) - 1, for used the
        # prefix's total, which is t_max - frontier[0]
        below_min = frontier[0] + (t_min - t_max - 1)
        short = np.maximum(below_min // (slots_after + 1), -1)
        if slots_after == 0:
            # the run's ends as offsets from t_min; a prefix with no value
            # left gets a run of length 0
            past = (t_max - t_min + 1) - frontier[0]
            start = past + short
            runs += np.bincount(start, minlength=len(runs))
            runs -= np.bincount(np.maximum(past + cap, start), minlength=len(runs))
            return
        counts = cap - short
        np.maximum(counts, 0, out=counts)
        ends = np.add.accumulate(counts)
        total = int(ends[-1])
        if total == 0:
            return
        # child j of the block, counted from 1, takes the value j - shift[parent]
        shift = ends - cap
        if total <= per_block:
            parent = np.repeat(np.arange(len(counts)), counts)
            v = np.arange(1, total + 1) - shift[parent]
            frontier = _children(frontier, parent, v, pos, spec)
            pos += 1
            continue
        # only frontier, ends and shift are kept while the children are walked
        del cap, short, counts
        for first in range(1, total + 1, per_block):
            j = np.arange(first, min(first + per_block, total + 1))
            parent = np.searchsorted(ends, j)
            _walk(_children(frontier, parent, j - shift[parent], pos, spec),
                  pos + 1, spec, t_min, t_max, runs)
        return


def _children(
    frontier: np.ndarray, parent: np.ndarray, v: np.ndarray, pos: int, spec: ProblemSpec
) -> np.ndarray:
    # The prefixes frontier[:, parent] extended by the values v at slot pos:
    # every bound drops by v and the last value becomes v.  Window s sits
    # in row 2 + s mod w, w the rows left for windows, so window pos opens
    # (with slack v) in the row of the window that closes at pos, if any.
    # Past slot n - k no window opens, and the closing window's row bounds
    # nothing.
    k, n = spec.k, spec.n
    child = frontier.take(parent, axis=1)
    child -= v
    child[1] = v
    windows = len(frontier) - 2
    if pos <= n - k:
        child[2 + pos % windows] = v
    elif pos >= k - 1:
        child[2 + (pos - k + 1) % windows] = _NO_WINDOW
    return child


def _least_positive_total(k: int, n: int) -> int:
    # Total of the least positive solution, built from the inequalities
    # and not from genfib: the last k - 1 pieces are 1 and each earlier
    # piece closes its window tightly.  O(n) additions of up to n bits.
    pieces = [1] * (k - 1)
    window = k - 1
    for _ in range(n - k + 1):
        pieces.append(window)
        window = 2 * window - pieces[-k]
    return sum(pieces)


def count_constrained(
    spec: ProblemSpec,
    n_value: int,
    positivity: Positivity = "nonneg",
) -> int:
    """Count weakly decreasing integer vectors satisfying the window system.

    Vectors (a_1 >= a_2 >= ... >= a_n) with every a_i >= 0 (or >= 1 for
    ``positivity="positive"``), total exactly ``n_value``, and every
    window inequality a_i >= a_{i+1} + ... + a_{i+k-1}.  One
    exhaustive search of nonnegative solutions, shared with ``verify
    --suite lemma1``, which asks it for a whole range of totals in one
    pass.  It walks the prefixes slot by slot, a block of numpy rows at
    a time: each slot's value is capped by the slot before, by the total
    and by every open window, and floored by what still reaches the
    total, and the last slot adds one run of values per prefix.

    Forcing every piece to be at least 1 multiplies the generating
    function prod_j 1/(1 - q^(c_j)), c = ``parts_multiset(k, n)``, by
    q^(c_n), c_n the total of the least positive solution (k - 1
    trailing ones, every window tight).  So a positive request at N
    costs the walk at N - c_n, and is 0 below c_n.

    Raises ``ResourceLimitError`` for n > 500, since the walk may recurse
    once per piece, and when it would visit more than 4 * 10^6 nodes by
    the estimate at the total it walks: 2n - k - 1 nodes per solution,
    the solutions read by ``count_restricted`` over ``parts_multiset``.
    Parts 1, 2 and 4 give a total t at least t^2 / 16 solutions, so a
    large total is refused by that bound before any count.
    """
    if n_value < 0:
        raise ValueError(f"total must be nonnegative, got {n_value}")
    if positivity not in ("nonneg", "positive"):
        raise ValueError(f"positivity must be 'nonneg' or 'positive', got {positivity!r}")
    # past the depth limit the walk refuses before c_n, up to n bits, is built
    shift = 0
    if positivity == "positive" and spec.n <= _MAX_DEPTH:
        shift = _least_positive_total(spec.k, spec.n)
    if n_value < shift:
        return 0
    total = n_value - shift
    _check_walk(spec, total, total)
    return _constrained_counts(spec, total, total)[0]


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


def _restricted_table(parts: Iterable[int], n_max: int) -> list[int]:
    parts = tuple(parts)
    if any(p < 1 for p in parts):
        raise ValueError(f"part sizes must be positive, got {min(parts)}")
    table = "a partition table to total {}"
    cells = sum(n_max + 1 - p for p in parts if p <= n_max)
    ResourceLimitError._check(cells, _MAX_TABLE_CELLS, "cells", table + " fills", n_max)
    ResourceLimitError._check(n_max + 1, _MAX_TABLE_TOTAL + 1, "ints", table + " holds", n_max)
    ways = [1] + [0] * n_max
    for p in parts:
        _add_part(ways, p)
    return ways


def count_restricted(parts: Iterable[int], n_value: int) -> int:
    """Partitions of n_value into parts drawn from ``parts``, repetition allowed.

    A repeated size in ``parts`` counts as a distinct part type, so
    ([1, 1], s) gives s + 1, not 1.  The count, [q^N] 1 / Q for Q =
    prod (1 - q^c) and N = n_value, is read by halving N (Bostan and
    Mori, SOSA 2021) about log2(N / D) times over about D ints, D the sum
    of the parts, and finished by the partition table at the stage where
    the plan's cells, one big-int addition each, are fewest.  The plan is
    priced before any work: ``ResourceLimitError`` past 10^8 cells (about
    10 s) or the 10^7 + 1 ints of a table to 10^7 held at once, and at
    once for a b-bit total with b^2 / 128 past 10^8.
    """
    if n_value < 0:
        raise ValueError(f"total must be nonnegative, got {n_value}")
    parts = tuple(parts)
    if any(p < 1 for p in parts):
        raise ValueError(f"part sizes must be positive, got {min(parts)}")
    # Q is kept as its exponents, one per factor 1 - q^c, and each stage
    # as (exponents, top, odd exponents, parity of n), n being n_value
    # halved once per stage before it; keeping every stage's n would hold
    # b^2 / 2 bits for a b-bit total.  A halving multiplies P
    # by 1 + q^c for each odd c, to top entries, keeps those of n's parity
    # and halves n.  That leaves Q a series in q^2, since (1 - q^c)(1 + q^c)
    # is 1 - q^(2c) and an even c's 1 - q^c is one already, so each odd c
    # stays and each even c halves.  Its cells: a slice over top entries
    # per odd c and one for the parity, each _SLICE_CELLS more, and one per
    # 64 bits of n shifted; a table adds n + 1 - c per factor.  A plan
    # that keeps a factor halves a b-bit n until its table of n + 1 ints
    # fits, or until its odd parts, each a cell per unit every halving,
    # pass n: all but about 27 of b halvings.  Their shifts and slices cost
    # over b^2 / 128 cells, so a total past the limit by that is refused
    # without a plan.
    stages, plan, spent, held, length, n = [], (0, float("inf"), 1), 0, 1, 1, n_value
    factors = [c for c in parts if c <= n]
    bits = n.bit_length()
    if factors and bits * bits // 128 > _MAX_TABLE_CELLS:
        spent = bits * bits // 128
    while spent < min(plan[1], _MAX_TABLE_CELLS + 1):
        table = sum(n + 1 - c for c in factors)
        if spent + table < plan[1]:
            plan = (len(stages), spent + table, max(held, n + 1) if factors else held)
        odd = [c for c in factors if c % 2]
        top = min(length + sum(odd), n + 1)
        parity = n & 1  # & and >>, unlike % and //, need no division of a long n
        stages.append((factors, top, odd, parity))
        spent += (1 + len(odd)) * (top + _SLICE_CELLS) + n.bit_length() // 64
        held, length, n = max(held, top), (top - parity + 1) // 2, n >> 1
        factors = [c for c in (c if c % 2 else c // 2 for c in factors) if c <= n]
    # a plan not priced before the limit stopped the search costs spent or more
    halvings, cells, held = plan[0], min(plan[1], spent), plan[2]
    halving = "counting partitions of a {}-bit total by halving"
    ResourceLimitError._check(cells, _MAX_TABLE_CELLS, "cells", halving + " fills at least", bits)
    ResourceLimitError._check(held, _MAX_TABLE_TOTAL + 1, "ints", halving + " holds at least", bits)
    p = [1]
    for _, top, odd, parity in stages[:halvings]:
        p += [0] * (top - len(p))
        for c in odd:
            # the slice assignment reads all of the map before it writes P
            p[c:] = map(add, p[c:], p)
        p = p[parity::2]
    n, factors = n_value >> halvings, stages[halvings][0]
    p += [0] * (n + 1 - len(p)) if factors else []
    for c in factors:
        _add_part(p, c)
    return p[n] if n < len(p) else 0


def series_coefficients(product: ClosedProduct, n_max: int) -> list[int]:
    """Coefficients 0..n_max of prod_i 1/(1 - q^e_i); unexported, ``bench/spans.py`` wraps it."""
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
    count = "the composition count at n={}, total {} has"
    # the bound is over side log2(e) bits, so a side past the limit is refused before float math
    ResourceLimitError._check(side, _HERMITE_MAX_BITS, "bits", count + " over", n, n_value)
    bits = side * (log2(e) + log2(n_value - 1) - log2(side)) if side else 0
    ResourceLimitError._check(bits, _HERMITE_MAX_BITS, "bits", count + " up to", n, n_value)
    return comb(n_value - 1, n - 1) - n * comb(n_value - n_value // 2 - 1, n - 1)


def asymptotic_ratio(spec: ProblemSpec, n_value: int) -> Fraction:
    """Restricted-partition count over its leading-order prediction.

    With r part sizes of product P, partitions of N into those parts
    number N^(r-1) / ((r-1)! P) to leading order; the exact ratio
    returned here tends to 1 as n_value grows.  The count is
    ``count_restricted``'s: about log2(N / D) halvings over about D ints,
    D the sum of the parts, under its guard of 10^8 cells.
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
