"""Counting oracles against brute-force enumeration written a different way."""

import contextlib
import functools
import io
import itertools
import json
import time
import tracemalloc
from fractions import Fraction
from math import log2

import pytest
from hypothesis import given, settings, strategies as st

from brokenstick import (
    ProblemSpec,
    ResourceLimitError,
    asymptotic_ratio,
    count_constrained,
    count_restricted,
    hermite_coeff,
    limit_probability,
    parts_multiset,
    run_elimination,
)
from brokenstick import cli, counting, verification
from brokenstick.counting import series_coefficients
from brokenstick.omega import ClosedProduct
from brokenstick.verification import _composition_count


def decreasing_vectors(total, n, lo, cap):
    # every weakly decreasing n-vector of parts in lo..cap summing to total:
    # the first part is at least the mean and leaves room for lo in each
    # later slot, so each branch ends in at least one vector
    if n == 0:
        if total == 0:
            yield ()
        return
    top = total - lo * (n - 1)
    for first in range(max(lo, -(-total // n)), min(cap, top) + 1):
        for rest in decreasing_vectors(total - first, n - 1, lo, first):
            yield (first, *rest)


def window_ok(parts, k):
    n = len(parts)
    return all(parts[i] >= sum(parts[i + 1 : i + k]) for i in range(n - k + 1))


def naive_constrained(k, n, total, positive):
    # enumerate every sorted-decreasing vector of the total (parts at least
    # 1 if positive) and keep those that satisfy all window inequalities;
    # the windows prune nothing, each candidate is checked in full
    return sum(window_ok(parts, k) for parts in decreasing_vectors(total, n, int(positive), total))


def test_constrained_known_values():
    spec = ProblemSpec(3, 3)
    assert count_constrained(spec, 3, "nonneg") == 2  # (3,0,0) and (2,1,0)
    assert count_constrained(spec, 3, "positive") == 0
    assert count_constrained(spec, 4, "nonneg") == 4
    # the all-zero vector satisfies every inequality for any (k, n)
    assert count_constrained(spec, 0, "nonneg") == 1
    assert count_constrained(ProblemSpec(5, 7), 0, "nonneg") == 1
    assert count_constrained(spec, 0, "positive") == 0


@pytest.mark.parametrize("k,n", [(3, 3), (3, 4), (3, 5), (4, 4), (4, 6), (5, 5)])
@pytest.mark.parametrize("positivity", ["nonneg", "positive"])
def test_constrained_matches_naive(k, n, positivity):
    spec = ProblemSpec(k, n)
    want = [naive_constrained(k, n, total, positivity == "positive") for total in range(13)]
    for total in range(0, 13):
        assert count_constrained(spec, total, positivity) == want[total], (total,)
    if positivity == "nonneg":
        # one search over a range of totals, from zero and from inside
        assert counting._constrained_counts(spec, 0, 12) == want
        assert counting._constrained_counts(spec, 5, 12) == want[5:]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=3))
def test_constrained_range_matches_series(data, k, extra):
    spec = ProblemSpec(k, k + extra)
    top = data.draw(st.integers(min_value=0, max_value=20), label="top")
    counts = counting._constrained_counts(spec, 0, top)
    assert counts == counting._restricted_table(run_elimination(spec).exponents, top)
    a = data.draw(st.integers(min_value=0, max_value=top), label="a")
    b = data.draw(st.integers(min_value=a, max_value=top), label="b")
    assert counting._constrained_counts(spec, a, b) == counts[a : b + 1]


def test_constrained_resource_guard():
    with pytest.raises(ResourceLimitError):
        count_constrained(ProblemSpec(3, 3), 10**6)
    # near the documented envelope but inside it
    assert count_constrained(ProblemSpec(3, 4), 150) > 0
    # a range puts two nodes on each solution at totals 0..800, about
    # 2.2 * 10^7, and is refused; any one of those totals is served
    nodes = 2 * sum(counting._restricted_table((1, 2, 4), 800))
    assert nodes == 21654802
    with pytest.raises(ResourceLimitError, match=rf"totals 0\.\.800 with n=3 needs about {nodes} "):
        counting._check_walk(ProblemSpec(3, 3), 0, 800)
    assert count_constrained(ProblemSpec(3, 3), 800) > 0


def test_node_cap_boundary():
    # one total on each side of the cap: the estimate is 2n - k - 1
    # nodes per solution, two at (3, 3), where it passes the cap at
    # N = 5654, and 14 at (5, 10), where it passes it at N = 212; the
    # last served total takes under a second and agrees with the series
    # route
    cap = counting._NODE_CAP
    refused = ((ProblemSpec(3, 3), 5654, 4001620), (ProblemSpec(5, 10), 212, 4027884))
    for spec, total, nodes in refused:
        message = rf"total {total} with n={spec.n} needs about {nodes} search nodes \(limit {cap}\)"
        with pytest.raises(ResourceLimitError, match=message):
            count_constrained(spec, total)
    assert counting._search_nodes(ProblemSpec(3, 3), 5653, 5653) <= cap
    spec = ProblemSpec(5, 10)
    assert counting._search_nodes(spec, 211, 211) <= cap
    series = counting._restricted_table(run_elimination(spec).exponents, 211)[211]
    assert count_constrained(spec, 211) == series == 279017


@pytest.mark.parametrize("k, n, total", [(12, 12, 120), (3, 20, 163)])
def test_node_estimate_refuses_slow_searches_before_searching(k, n, total):
    # both searches took 22-24 s; at 2n - k - 1 nodes per solution they
    # pass the cap, and are refused in about a millisecond
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=rf"total {total} with n={n} needs about"):
        count_constrained(ProblemSpec(k, n), total)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("k, n", [(3, 3), (3, 6), (4, 8), (5, 10), (12, 12), (3, 20), (7, 30)])
def test_node_estimate_reads_the_solutions(k, n):
    # 2n - k - 1 nodes per solution, the solutions of a total or a range
    # counted by the full partition table over parts_multiset(k, n)
    spec, top = ProblemSpec(k, n), 60
    per_solution = 2 * n - k - 1
    table = counting._restricted_table(parts_multiset(k, n), top)
    for t in (0, 1, 7, 30, top):
        assert counting._search_nodes(spec, t, t) == per_solution * table[t]
    for t_min, t_max in ((0, 1), (0, top), (1, 30), (17, top), (29, 30)):
        assert counting._search_nodes(spec, t_min, t_max) == per_solution * sum(table[t_min : t_max + 1])


@pytest.mark.parametrize("k, n, total", [(3, 100, 10**6), (3, 40, 10**15), (3, 3, 10**21)])
def test_node_estimate_refuses_large_totals_without_counting(monkeypatch, k, n, total):
    # parts 1, 2 and 4 give total t at least t^2 / 16 solutions, so these
    # pass the cap before count_restricted, or a partition table, is asked
    def fail(*args):
        raise AssertionError("a refused walk counted its solutions")

    monkeypatch.setattr(counting, "count_restricted", fail)
    monkeypatch.setattr(counting, "parts_multiset", fail)
    nodes = (2 * n - k - 1) * (total * total // 16)
    # an int past 2^64 is named by its power of two
    shown = [x if x < 2**64 else f"2\\^{log2(x):.1f}" for x in (total, nodes)]
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=rf"total {shown[0]} with n={n} needs about {shown[1]} search"):
        count_constrained(ProblemSpec(k, n), total)
    assert time.perf_counter() - start < 0.01


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_parts_one_two_four_give_a_sixteenth_of_the_square(total):
    assert count_restricted((1, 2, 4), total) >= total * total // 16


def test_node_estimate_tracks_nodes_visited(monkeypatch):
    # nodes the walk visits (the root and every prefix it builds) against
    # the estimate, across n and k
    expand = counting._children
    for k, n, total in [(3, 3, 300), (4, 8, 60), (5, 10, 40), (12, 12, 40), (3, 20, 60)]:
        spec = ProblemSpec(k, n)
        visited = 1

        def count_prefixes(frontier, parent, *args):
            nonlocal visited
            visited += len(parent)
            return expand(frontier, parent, *args)

        monkeypatch.setattr(counting, "_children", count_prefixes)
        counting._constrained_counts(spec, total, total)
        estimate = counting._search_nodes(spec, total, total)
        assert 0.3 * estimate <= visited <= 1.2 * estimate, (k, n, total, visited, estimate)


@pytest.mark.parametrize("positivity", ["nonneg", "positive"])
def test_walk_blocks_match_naive(monkeypatch, positivity):
    # blocks of 1, 2 and 3 prefixes split the children of nearly every
    # block, one prefix's values among them, across blocks; the default
    # splits none here, and at (3, 3, 1000) it splits the second slot's
    want = {
        (k, n): [naive_constrained(k, n, t, positivity == "positive") for t in range(13)]
        for k in (3, 4, 5)
        for n in range(k, k + 4)
    }
    default = counting._BLOCK
    for prefixes in (1, 2, 3, None):
        for (k, n), counts in want.items():
            # a prefix takes one entry per bound: the total, the last
            # value and each window that can be open at once
            height = 2 + min(k - 1, n - k + 1)
            block = default if prefixes is None else prefixes * height
            monkeypatch.setattr(counting, "_BLOCK", block)
            spec = ProblemSpec(k, n)
            if positivity == "nonneg":
                assert counting._constrained_counts(spec, 0, 12) == counts, (block, k, n)
            for t in (0, 1, 6, 12) if positivity == "nonneg" else range(13):
                assert count_constrained(spec, t, positivity) == counts[t], (block, k, n, t)
    # at (3, 3) the one window reads a_1 >= a_2 + a_3, so a_2 + a_3 <= 500
    lo = 1 if positivity == "positive" else 0
    want = sum(1 for a3 in range(lo, 501) for a2 in range(a3, 501 - a3))
    assert count_constrained(ProblemSpec(3, 3), 1000, positivity) == want


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["nonneg", "positive"]),
)
def test_constrained_counts_match_naive(data, k, extra, positivity):
    b = data.draw(st.integers(min_value=0, max_value=12), label="b")
    a = data.draw(st.integers(min_value=0, max_value=b), label="a")
    spec = ProblemSpec(k, k + extra)
    want = [naive_constrained(k, k + extra, t, positivity == "positive") for t in range(a, b + 1)]
    if positivity == "nonneg":
        assert counting._constrained_counts(spec, a, b) == want
    else:
        assert [count_constrained(spec, t, positivity) for t in range(a, b + 1)] == want


@functools.cache
def naive_positive(k, n, total):
    return naive_constrained(k, n, total, positive=True)


def cli_count(k, n, total, oracle):
    out = io.StringIO()
    argv = ["count", "--k", str(k), "--n", str(n), "--N-value", str(total), "--oracle", oracle]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--positivity", "positive"]) == 0
    return int(json.loads(out.getvalue())["result"]["count"])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=25),
)
def test_positive_counts_agree_across_oracles(k, extra, total):
    # every oracle counts nonnegative solutions at the total less the
    # least positive solution's, and matches the enumeration of positive ones
    n = k + extra
    counts = {oracle: cli_count(k, n, total, oracle) for oracle in ("brute", "parts", "series")}
    assert set(counts.values()) == {naive_positive(k, n, total)}, counts


def test_least_positive_total_is_the_last_part():
    # the least positive solution's total, built from the inequalities, is
    # the last part size by the step-Fibonacci sums and by elimination
    for k in range(3, 13):
        for n in range(k, k + 21):
            least = counting._least_positive_total(k, n)
            assert least == parts_multiset(k, n)[-1], (k, n)
            assert least == run_elimination(ProblemSpec(k, n)).exponents[-1], (k, n)


@pytest.mark.parametrize(
    "k, n, total, nonneg, positive",
    [(3, 20, 140, 110324, 0), (12, 12, 90, 293184, 47745)],
)
def test_walk_memory_stays_small_at_served_points(k, n, total, nonneg, positive):
    # two of the largest served points, where the walk visits millions of
    # nodes; the counts are the recursive search's that the walk replaced
    tracemalloc.start()
    try:
        got = [count_constrained(ProblemSpec(k, n), total, p) for p in ("nonneg", "positive")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [nonneg, positive]
    assert peak < 32 << 20


def test_constrained_domain_errors():
    with pytest.raises(ValueError):
        count_constrained(ProblemSpec(3, 3), -1)
    with pytest.raises(ValueError):
        count_constrained(ProblemSpec(3, 3), 3, "strictly")  # type: ignore[arg-type]


def test_partition_table_refuses_past_bounds_before_allocating():
    top, cells = counting._MAX_TABLE_TOTAL, counting._MAX_TABLE_CELLS
    # one cell past the cell bound at the largest total: q parts of size 1
    # fill top cells each, and a part of size top + 1 - r fills r more
    q, r = divmod(cells + 1, top)
    past_cells = (1,) * q + ((top + 1 - r,) if r else ())
    past = {"cells": f"cells \\(limit {cells}\\)", "ints": f"ints \\(limit {top + 1}\\)"}
    tracemalloc.start()
    try:
        for parts, total, refusal in ((past_cells, top, "cells"), ((top + 1,), top + 1, "ints")):
            with pytest.raises(ResourceLimitError, match=f"to total {total} .*{past[refusal]}"):
                counting._restricted_table(parts, total)
        # every plan for (3, 30) at 10^12 passes the cell bound: the parts
        # sum to 5.7 * 10^6, so each halving's slices span millions of ints
        with pytest.raises(ResourceLimitError, match="halving fills at least .* " + past["cells"]):
            count_restricted(parts_multiset(3, 30), 10**12)
        # one cell, but a table of top + 2 ints
        with pytest.raises(ResourceLimitError, match="halving holds at least .* " + past["ints"]):
            count_restricted((top + 1,), top + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # served at the total bound: one part of size top fills one cell
    assert count_restricted((top,), top) == 1


def test_partition_table_serves_at_the_cell_bound(monkeypatch):
    # a table at the real bound takes seconds, so the bound is lowered
    monkeypatch.setattr(counting, "_MAX_TABLE_CELLS", 1000)
    assert counting._restricted_table((1,), 1000)[1000] == 1
    assert counting._restricted_table((1, 1), 500)[500] == 501
    with pytest.raises(ResourceLimitError):
        counting._restricted_table((1,), 1001)
    # a halving's two slices cost over 2 * _SLICE_CELLS cells, more than
    # a table to 40, so each plan here is the table alone
    monkeypatch.setattr(counting, "_MAX_TABLE_CELLS", 40)
    assert count_restricted((1,), 40) == 1
    assert count_restricted((1, 1), 20) == 21
    with pytest.raises(ResourceLimitError, match="fills at least 41 cells"):
        count_restricted((1,), 41)


def slow_restricted(parts, total):
    if total == 0:
        return 1
    if not parts:
        return 0
    head, rest = parts[0], parts[1:]
    return sum(slow_restricted(rest, total - c * head) for c in range(total // head + 1))


def test_restricted_known_values():
    assert count_restricted([1, 2, 4], 3) == 2
    assert count_restricted([1], 5) == 1
    assert count_restricted([2], 5) == 0
    assert count_restricted([], 0) == 1
    assert count_restricted([], 3) == 0
    # duplicate sizes act as distinct types
    assert count_restricted([1, 1], 5) == 6


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=20),
)
def test_restricted_matches_slow_recursion(parts, total):
    assert count_restricted(parts, total) == slow_restricted(tuple(parts), total)


def test_restricted_domain_errors():
    with pytest.raises(ValueError):
        count_restricted([1, 0], 4)
    with pytest.raises(ValueError):
        count_restricted([1, 2], -1)


def loop_table(parts, n_max):
    # the coin-change DP one cell at a time
    ways = [1] + [0] * n_max
    for p in parts:
        for s in range(p, n_max + 1):
            ways[s] += ways[s - p]
    return ways


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), max_size=4),
    st.integers(min_value=0, max_value=300),
    st.sampled_from([1, 2, 3, 1 << 16]),
)
def test_table_slices_match_the_loop(parts, n_max, slice_len):
    # short slices split every residue class and every block into runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_SLICE", slice_len)
        assert counting._restricted_table(parts, n_max) == loop_table(parts, n_max)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=5),
    st.integers(min_value=0, max_value=2000),
)
def test_restricted_halving_matches_full_table(parts, total):
    # parts from 1..6 keep the sum of the parts at most 30, so most totals
    # halve several times before the table finishes
    assert count_restricted(iter(parts), total) == counting._restricted_table(parts, total)[total]


@pytest.mark.parametrize(
    "k, n", [(3, 3), (3, 4), (4, 5), (3, 6), (5, 7), (3, 8), (12, 12), (3, 10), (4, 8)]
)
def test_restricted_matches_the_table_on_the_grid(k, n):
    # predicted parts and eliminated exponents, at totals from none halved
    # to many halvings
    totals = (0, 1, 5, 37, 100, 999, 12345)
    for parts in (parts_multiset(k, n), run_elimination(ProblemSpec(k, n)).exponents):
        table = counting._restricted_table(parts, totals[-1])
        assert [count_restricted(parts, t) for t in totals] == [table[t] for t in totals]


def test_restricted_halves_where_the_odd_parts_pass_the_total():
    # eight 2s make halving pay though the odd parts sum past the total,
    # so P is cut at the total, whose last term q^1000 = q^499 q^501 counts
    parts = (2,) * 8 + (3, 499, 501)
    table = counting._restricted_table(parts, 1001)
    assert [count_restricted(parts, t) for t in (999, 1000, 1001)] == table[999:]


def test_restricted_no_parts_and_one_part():
    assert [count_restricted((), total) for total in range(5)] == [1, 0, 0, 0, 0]
    # a part larger than the total cannot be used, leaving no parts
    assert count_restricted((50,), 10) == 0
    assert count_restricted((50,), 0) == 1
    assert count_restricted((7,), 700_000) == 1
    assert count_restricted((7, 10**9), 1_000_000) == 0
    assert count_restricted((7,), 1_000_005) == 0
    assert count_restricted((), 10**100) == 0
    assert count_restricted((1,), 10**100) == 1


def test_restricted_refuses_huge_totals_at_once():
    # a plan for a b-bit total that keeps a part halves it about b times,
    # shifting it through about b^2 / 128 cells, so 2^(10^6) is refused
    # before planning; the refusal names the total by its bits, and a size
    # past 2^64 by its power of two, since str() stops at 4300 digits
    cap, top = counting._MAX_TABLE_CELLS, counting._MAX_TABLE_TOTAL
    total = 2 ** 10**6
    start = time.perf_counter()
    cells = 1000001**2 // 128
    with pytest.raises(ResourceLimitError, match=f"a 1000001-bit total by halving fills at least {cells} cells"):
        count_restricted((1,), total)
    assert time.perf_counter() - start < 0.1
    assert count_restricted((), total) == 0
    # cheap plans that hold a table of 2^20000 + 1 ints, or slice as many
    for parts, refusal in (((2**20000 - 1,), rf"holds at least 2\^20000\.0 ints \(limit {top + 1}\)"),
                           ((1, 2**20000 - 1), rf"fills at least 2\^20000\.0 cells \(limit {cap}\)")):
        with pytest.raises(ResourceLimitError, match=refusal):
            count_restricted(parts, 2**20000)


def test_restricted_holds_one_running_total_while_halving():
    # (1,) at a 50000-bit total halves it 49973 times; keeping every
    # stage's total held b^2 / 16 bytes, a 173 MiB traced peak, where the
    # stages alone hold about 13 MiB
    tracemalloc.start()
    try:
        assert count_restricted((1,), 2**50000 - 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda t: count_constrained(ProblemSpec(3, 3), t),
         "total 2^16609.6 with n=3 needs about 2^33216.3 search nodes (limit 4000000)"),
        (lambda n: count_constrained(ProblemSpec(3, n), 5),
         "exhaustive search recurses 2^16609.6 slots deep (limit 500)"),
        (lambda t: counting._restricted_table((1, 2), t),
         "a partition table to total 2^16609.6 fills 2^16610.6 cells (limit 100000000)"),
        (lambda t: count_restricted((t - 1,), t),
         "counting partitions of a 16610-bit total by halving holds at least 2^16609.6 ints"
         " (limit 10000001)"),
        (lambda t: hermite_coeff(t, 2 * t),
         "the composition count at n=2^16609.6, total 2^16610.6 has over 2^16609.6 bits"
         " (limit 1200000)"),
    ],
    ids=["walk", "depth", "table", "halving", "hermite"],
)
def test_guards_name_huge_totals_by_their_power_of_two(call, refusal):
    # 10^5000 has more digits than str() prints
    with pytest.raises(ResourceLimitError) as info:
        call(10**5000)
    assert str(info.value) == refusal


def test_lemma1_prices_each_grid_point_once(monkeypatch):
    # the suite refuses before any walk, and the walks it then runs are
    # not priced again
    calls = []
    search_nodes = counting._search_nodes
    monkeypatch.setattr(counting, "_search_nodes", lambda *args: calls.append(args) or search_nodes(*args))
    checks = verification.suite_lemma1(max_total=10)
    assert all(check.ok for check in checks)
    assert len(calls) == len(checks) == 12
    # count_constrained prices its one walk
    calls.clear()
    assert count_constrained(ProblemSpec(3, 3), 10) == counting._restricted_table((1, 2, 4), 10)[10]
    assert len(calls) == 1


def test_restricted_pinned_against_the_full_table():
    # read from tables filled to 10^5 and 10^6
    assert count_restricted((1, 2, 4, 7), 10**5) == 2976815517858
    assert count_restricted((1, 2, 4, 7), 10**6) == 2976252976607144


def test_restricted_pinned_past_the_old_bounds():
    # (3, 10) pinned from a partition table filled to 5 * 10^6, which took
    # 7.5 s; the halving takes milliseconds
    start = time.perf_counter()
    count = count_restricted(parts_multiset(3, 10), 5 * 10**6)
    assert time.perf_counter() - start < 5
    assert count == 17864201086725911288020220649811568648260178
    # (3, 4) pinned from the count's polynomial on each class mod 28, the
    # lcm of the parts, extrapolated by Newton differences
    assert count_restricted(parts_multiset(3, 4), 10**7 + 1) == 2976197619052500001


def test_series_coefficients_basic():
    assert series_coefficients(ClosedProduct((1, 2, 4)), 3) == [1, 1, 2, 2]
    assert series_coefficients(ClosedProduct(()), 4) == [1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        series_coefficients(ClosedProduct((1, 2)), -1)


def test_series_agrees_with_restricted_per_total():
    product = run_elimination(ProblemSpec(4, 6))
    coeffs = counting._restricted_table(product.exponents, 25)
    for total in range(26):
        assert coeffs[total] == count_restricted(product.exponents, total)


def test_series_agrees_with_direct_search_small_grid():
    # the central consistency fact, small version (the acceptance suite
    # runs the full grid): coefficients of the eliminated product count
    # nonnegative solutions of the window system
    for k, n in [(3, 3), (3, 5), (4, 5)]:
        spec = ProblemSpec(k, n)
        coeffs = counting._restricted_table(run_elimination(spec).exponents, 18)
        for total in range(19):
            assert coeffs[total] == count_constrained(spec, total, "nonneg"), (k, n, total)


def positive_compositions(total, n):
    for cuts in itertools.combinations(range(1, total), n - 1):
        prev = 0
        parts = []
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(total - prev)
        yield tuple(parts)


def naive_hermite(n, total):
    # compositions into n positive parts, each at most half the total
    return sum(
        1
        for parts in positive_compositions(total, n)
        if 2 * max(parts) <= total
    )


def test_hermite_known_values():
    assert [hermite_coeff(3, total) for total in range(3, 9)] == [1, 3, 3, 7, 6, 12]
    assert hermite_coeff(3, 0) == 0
    assert hermite_coeff(4, 2) == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_hermite_matches_composition_enumeration(n, max_total=18, dp_total=120):
    for total in range(max_total + 1):
        assert hermite_coeff(n, total) == naive_hermite(n, total), (n, total)
    # the package's composition DP reaches past the 2n - 1 boundary where
    # the subtracted term of the closed form first appears
    for total in range(dp_total + 1):
        assert hermite_coeff(n, total) == _composition_count(n, total), (n, total)


def test_hermite_domain_errors():
    with pytest.raises(ValueError):
        hermite_coeff(2, 10)
    with pytest.raises(ValueError):
        hermite_coeff(4, -1)


def test_asymptotic_ratio_exact_value():
    # independent enumeration of partitions of 100 into parts 1/2/4/7:
    # any remainder after choosing the 7s, 4s and 2s is filled with 1s
    total = 100
    count = 0
    for c7 in range(total // 7 + 1):
        for c4 in range((total - 7 * c7) // 4 + 1):
            count += (total - 7 * c7 - 4 * c4) // 2 + 1
    spec = ProblemSpec(3, 4)
    assert count_restricted((1, 2, 4, 7), total) == count
    assert asymptotic_ratio(spec, total) == Fraction(count * 6 * 56, total**3)


def test_asymptotic_ratio_approaches_one():
    spec = ProblemSpec(3, 4)
    gaps = [abs(asymptotic_ratio(spec, total) - 1) for total in (100, 1000, 10000)]
    assert gaps[0] > gaps[1] > gaps[2]
    with pytest.raises(ValueError):
        asymptotic_ratio(spec, 0)


def test_limit_probability_frozen_values():
    assert limit_probability(ProblemSpec(3, 3), 4) == 2  # tiny totals overcount ties
    assert limit_probability(ProblemSpec(3, 3), 5) == 1
    assert limit_probability(ProblemSpec(3, 3), 30) == Fraction(24, 29)
    assert limit_probability(ProblemSpec(4, 4), 40) == Fraction(5688, 9139)


def test_limit_probability_domain():
    with pytest.raises(ValueError):
        limit_probability(ProblemSpec(3, 3), 3)
