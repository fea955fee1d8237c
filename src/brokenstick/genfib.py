"""Step-Fibonacci sequences and the running sums built from them.

The order-k sequence starts with k - 1 zeros followed by a single one,
and every later term is the sum of the k terms before it.  Order 2 is
the ordinary Fibonacci sequence shifted so that F_1 = 1.

Two derived quantities recur throughout the package:

* ``f_sum(k, i)``: the running sum of the sequence through index i.
  These are the exponents produced by the elimination engine and the
  factors of the no-polygon probability denominator.
* ``parts_multiset(k, n)``: those running sums of order k - 1, followed
  by the chain of window sums that joins them once the polygon size
  exceeds 3; the product of all n is the no-polygon denominator.

Every function builds what it needs from one ``fib_table`` pass, which
costs O(upto) big-int additions; nothing is cached between calls, so
the module holds no state and is safe to call from any thread.  All
values are nonnegative integers and grow roughly geometrically (ratio
approaching 2 as k grows), so everything here is plain unbounded-int
arithmetic.

A table through ``upto`` holds 2 (upto + 1) ints.  Term m is zero below
m = k - 1 and at most 2^(m-k+1) from there on, and its running sum at
most 2^(m-k+2), so with L = upto - k + 2 the two lists hold at most
L (L + 1) bits.  ``parts_multiset(k, n)`` reads the table of order
k - 1 through n and adds 2 (k - 3) window and chain values of at most
L + 2 log2(k) + 1 bits each.  On a 2-core host ``count --oracle parts``,
which builds both, peaked at
about 63 bytes of RSS per entry (273 MiB at k = n = 4 * 10^6) and 0.136
bytes per bit of that bound (236 MiB at k = 40, n = 40000; 201 MiB at
k = 60000, n = 70000, nearly all of it chain), over a 29 MiB base.
Past 5 * 10^6 entries per list or 4 * 10^9 bits, table and chain
together, ``fib_table`` and ``parts_multiset`` raise
``ResourceLimitError`` before they allocate, so they stay under about
850 MiB of RSS even at both bounds.
"""

from __future__ import annotations

from itertools import accumulate

__all__ = [
    "fib_table",
    "gen_fib",
    "f_sum",
    "parts_multiset",
]

# Cost bounds of fib_table; see the module docstring.
_TABLE_MAX_ENTRIES = 5_000_000
_TABLE_MAX_BITS = 4_000_000_000


def _check_size(k: int, upto: int, chain: int = 0) -> None:
    # Refuses an order-k table through upto, plus `chain` values of up to
    # k^2 times its last sum, past the bounds in the module docstring.
    probability.ResourceLimitError._check(
        upto + 1, _TABLE_MAX_ENTRIES, "entries per list",
        "an order-{} table through index {} holds", k, upto,
    )
    nonzero = max(0, upto - k + 2)
    bits = nonzero * (nonzero + 1) + chain * (nonzero + 2 * k.bit_length() + 1)
    probability.ResourceLimitError._check(
        bits, _TABLE_MAX_BITS, "bits",
        "an order-{} table through index {} with {} chain values holds up to", k, upto, chain,
    )


def fib_table(k: int, upto: int) -> tuple[list[int], list[int]]:
    """Terms F_0..F_upto and running sums f_k(0)..f_k(upto), order k.

    F_0 = ... = F_{k-2} = 0 and F_{k-1} = 1.  Each later term is the sum
    of the k before it, read off the running sums as
    F_m = f_k(m-1) - f_k(m-k-1), so the whole table is one pass.
    Raises ``ResourceLimitError`` past the bounds in the module docstring.
    """
    if k < 2:
        raise ValueError(f"sequence order must be at least 2, got {k}")
    if upto < 0:
        raise ValueError(f"sequence index must be nonnegative, got {upto}")
    _check_size(k, upto)
    if upto < k - 1:
        return [0] * (upto + 1), [0] * (upto + 1)
    terms = [0] * (k - 1) + [1]
    sums = [0] * (k - 1) + [1]
    for m in range(k, upto + 1):
        nxt = sums[-1] - (sums[m - k - 1] if m > k else 0)
        terms.append(nxt)
        sums.append(sums[-1] + nxt)
    return terms, sums


def gen_fib(k: int, n: int) -> int:
    """Term n of the order-k step-Fibonacci sequence."""
    return fib_table(k, n)[0][n]


def f_sum(k: int, i: int) -> int:
    """Running sum f_k(i) = F_{k-1} + ... + F_i; zero for i <= k - 2."""
    return fib_table(k, i)[1][i]


def parts_multiset(k: int, n: int) -> tuple[int, ...]:
    """Part sizes of the one-variable counting product for (k, n).

    With f the running sums of order k - 1, the parts are the n - k + 3
    sums f(k-2), ..., f(n) followed by the k - 3 chain values
    h(2), ..., h(k-2), where

        g(j) = 1 + f(n-2) + f(n-3) + ... + f(n-j),
        h(l) = f(n) + g(k-2) + g(k-3) + ... + g(k-l).

    These are the paper's linear combinations of partial sums: a polygon
    of size 4 uses only h(2), and size 3 has no chain block.  Exactly n
    values in total; their product is the denominator of the no-polygon
    probability.  O(n) additions.
    """
    if k < 3:
        raise ValueError(f"polygon size must be at least 3, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    _check_size(k - 1, n, 2 * (k - 3))
    sums = fib_table(k - 1, n)[1]
    # g[j-1] = g(j) for j = 1..k-2, g(1) = 1; each h adds one narrower g.
    g = list(accumulate((sums[n - j] for j in range(2, k - 1)), initial=1))
    chain = accumulate((g[k - 1 - l] for l in range(2, k - 1)), initial=sums[n])
    return tuple(sums[k - 2 :] + list(chain)[1:])


# Last, since probability imports this module: in whichever order the two
# start, the other's names are looked up only when a check runs.
from . import probability  # noqa: E402
