"""Step-Fibonacci terms, running sums, and the parts built from them."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from brokenstick import (
    ResourceLimitError,
    f_sum,
    fib_table,
    gen_fib,
    genfib,
    parts_multiset,
)
from conftest import run_module


# Independent oracle: the defining recurrence, no tables involved.
@lru_cache(maxsize=None)
def naive_fib(k: int, n: int) -> int:
    if n <= k - 2:
        return 0
    if n == k - 1:
        return 1
    return sum(naive_fib(k, n - i) for i in range(1, k + 1))


def naive_f(k: int, i: int) -> int:
    return sum(naive_fib(k, m) for m in range(0, i + 1))


# The window and chain values, spelled out from parts_multiset's docstring
# on top of naive_f (there of order k - 1).
def naive_g(k: int, n: int, j: int) -> int:
    return 1 + sum(naive_f(k, n - l) for l in range(2, j + 1))


def naive_h(k: int, n: int, l: int) -> int:
    return naive_f(k, n) + sum(naive_g(k, n, k + 1 - j) for j in range(2, l + 1))


def naive_parts(k: int, n: int) -> tuple[int, ...]:
    sums = [naive_f(k - 1, i) for i in range(k - 2, n + 1)]
    return tuple(sums + [naive_h(k - 1, n, l) for l in range(2, k - 1)])


def test_order2_is_fibonacci():
    # 0, 1, 1, 2, 3, 5, 8, 13
    assert [gen_fib(2, n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_leading_zeros_then_one():
    for k in range(2, 8):
        assert [gen_fib(k, n) for n in range(k - 1)] == [0] * (k - 1)
        assert gen_fib(k, k - 1) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 30])
def test_matches_naive_recurrence(k):
    for n in range(0, 26):
        assert gen_fib(k, n) == naive_fib(k, n)
        assert f_sum(k, n) == naive_f(k, n)
    # every upto below, at and one past the leading one, then a long table
    for upto in (*range(k + 1), 25):
        terms, sums = fib_table(k, upto)
        assert terms == [naive_fib(k, n) for n in range(upto + 1)], upto
        assert sums == [naive_f(k, n) for n in range(upto + 1)], upto


def test_fib_table_memory_follows_upto_not_k():
    # a short table of a high order allocates only the entries it returns
    tracemalloc.start()
    try:
        assert fib_table(10**6, 1) == ([0, 0], [0, 0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize(
    "call, args, refusal",
    [
        # entries, all of them 0
        (fib_table, (10**7, genfib._TABLE_MAX_ENTRIES),
         f"entries per list \\(limit {genfib._TABLE_MAX_ENTRIES}\\)"),
        # 63246 * 63247 bits of Fibonacci numbers
        (fib_table, (2, 63246), f"bits \\(limit {genfib._TABLE_MAX_BITS}\\)"),
        # 2 * 969997 chain values of ~30000 bits
        (parts_multiset, (970000, 10**6), f"bits \\(limit {genfib._TABLE_MAX_BITS}\\)"),
    ],
    ids=["entries", "table-bits", "parts-chain-bits"],
)
def test_tables_refuse_past_bounds_before_allocating(call, args, refusal):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=refusal):
            call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_tables_serve_at_the_bounds(monkeypatch):
    # tables at the real bounds take hundreds of MiB, so the bounds are lowered
    monkeypatch.setattr(genfib, "_TABLE_MAX_ENTRIES", 100)
    assert fib_table(10**6, 99) == ([0] * 100, [0] * 100)
    with pytest.raises(ResourceLimitError):
        fib_table(10**6, 100)
    monkeypatch.undo()
    # (bits, call, args): an order-3 table through 21 holds 20 * 21 bits;
    # parts_multiset(5, 8) adds 4 chain values of 6 + 2 * 3 + 1 bits to an
    # order-4 table of 6 * 7
    for bits, call, args in (
        (420, fib_table, (3, 21)),
        (94, parts_multiset, (5, 8)),
    ):
        monkeypatch.setattr(genfib, "_TABLE_MAX_BITS", bits)
        assert call(*args)
        monkeypatch.setattr(genfib, "_TABLE_MAX_BITS", bits - 1)
        with pytest.raises(ResourceLimitError):
            call(*args)


def test_known_terms():
    assert gen_fib(4, 2) == 0
    assert gen_fib(3, 2) == 1
    assert gen_fib(2, 6) == 8
    assert gen_fib(3, 6) == 7


def test_running_sum_tables():
    assert [f_sum(3, i) for i in range(2, 11)] == [1, 2, 4, 8, 15, 28, 52, 96, 177]
    assert [f_sum(2, i) for i in range(1, 7)] == [1, 2, 4, 7, 12, 20]
    assert [f_sum(4, i) for i in range(2, 9)] == [0, 1, 2, 4, 8, 16, 31]
    assert f_sum(3, 5) == 8
    assert f_sum(4, 2) == 0


def test_running_sum_vanishes_below_first_one():
    for k in range(2, 9):
        for i in range(0, k - 1):
            assert f_sum(k, i) == 0
        assert f_sum(k, k - 1) == 1


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=40))
def test_sum_recurrence(k, j):
    # f_k(j) = 1 + f_k(j-1) + ... + f_k(j-k) once j reaches k - 1;
    # terms with negative index drop out.
    if j < k - 1:
        assert f_sum(k, j) == 0
    else:
        rhs = 1 + sum(f_sum(k, j - i) for i in range(1, k + 1) if j - i >= 0)
        assert f_sum(k, j) == rhs


def test_order2_closed_form():
    # running sum = next-next Fibonacci term minus one
    for i in range(0, 40):
        assert f_sum(2, i) == gen_fib(2, i + 2) - 1


def test_g_boundary_identity():
    # a window as wide as the order telescopes against the sum recurrence:
    # 1 + f_k(n-2) + ... + f_k(n-k) = f_k(n) - f_k(n-1)
    for k in range(3, 6):
        for n in range(k, k + 8):
            window = 1 + sum(f_sum(k, n - j) for j in range(2, k + 1))
            assert window == f_sum(k, n) - f_sum(k, n - 1)


@given(st.integers(min_value=3, max_value=16), st.integers(min_value=0, max_value=40))
def test_derived_values_match_definitions(k, extra):
    # long chains (large k) and wide windows against the naive sums
    n = k + extra
    assert parts_multiset(k, n) == naive_parts(k, n)


def test_parts_multiset_values():
    assert sorted(parts_multiset(3, 4)) == [1, 2, 4, 7]
    assert sorted(parts_multiset(4, 6)) == [1, 2, 4, 8, 15, 20]
    assert sorted(parts_multiset(5, 5)) == [1, 2, 4, 6, 8]


def test_parts_multiset_shape():
    for k in range(3, 8):
        for n in range(k, k + 5):
            parts = parts_multiset(k, n)
            assert len(parts) == n
            assert all(p >= 1 for p in parts)
            # the running-sum block comes first and starts at f_{k-1}(k-2)
            assert parts[0] == f_sum(k - 1, k - 2)
            assert parts[n - k + 2] == f_sum(k - 1, n)


def test_domain_errors():
    with pytest.raises(ValueError):
        gen_fib(1, 3)
    with pytest.raises(ValueError):
        gen_fib(3, -1)
    with pytest.raises(ValueError):
        f_sum(2, -2)
    with pytest.raises(ValueError):
        parts_multiset(2, 5)
    with pytest.raises(ValueError):
        parts_multiset(4, 3)


def test_monotone_growth():
    for k in (2, 4, 6):
        values = [gen_fib(k, n) for n in range(k - 1, k + 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        sums = [f_sum(k, n) for n in range(k - 1, k + 20)]
        assert all(b > a for a, b in zip(sums, sums[1:]))


def test_shared_tables_survive_concurrent_use():
    # call from several threads at once; every table is built per call,
    # so results must match the single-threaded oracle exactly
    def worker(seed):
        return [gen_fib(3, 150 + (seed + i) % 40) for i in range(40)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(16)))
    for seed, row in enumerate(results):
        assert row == [naive_fib(3, 150 + (seed + i) % 40) for i in range(40)]


# In a fresh interpreter a bare `import brokenstick` loads genfib and
# probability alone, so every other submodule and every name of omega,
# counting and montecarlo resolves through the package's __getattr__.
_EXPORTS_CHILD = """
import pkgutil, sys
import brokenstick
loaded = sorted(m for m in sys.modules if m.startswith("brokenstick."))
assert loaded == ["brokenstick.genfib", "brokenstick.probability"], loaded
names = sorted(info.name for info in pkgutil.iter_modules(brokenstick.__path__))
modules = [getattr(brokenstick, name) for name in names]
assert modules == [sys.modules[f"brokenstick.{name}"] for name in names], names
star = {}
exec("from brokenstick import *", star)
assert set(star) - {"__builtins__"} == set(brokenstick.__all__)
for module in [brokenstick] + modules:
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, (module.__name__, missing)
"""


def test_every_exported_name_exists(monkeypatch):
    # a name left in __all__ after its definition is gone breaks star imports
    proc = run_module(monkeypatch, "-c", _EXPORTS_CHILD)
    assert proc.returncode == 0, proc.stderr
