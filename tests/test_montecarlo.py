"""Simulation machinery: reproducibility, predicates, and sanity of estimates."""

import json
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brokenstick import (
    DEFAULT_SEED,
    ProblemSpec,
    ResourceLimitError,
    SimConfig,
    estimate,
    prob_exists,
    prob_forall,
    prob_ngon,
    prob_none,
)
from brokenstick import montecarlo
from brokenstick.montecarlo import MODES, _chunk_seed, _run_blocks
from conftest import run_module


# Scalar replay oracle: one trial at a time, the events written as
# plain sums over a Python sequence, sharing no code with the kernel.
def break_stick(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. Exp(1) draws sorted decreasing: a broken stick's pieces, unscaled."""
    if n < 2:
        raise ValueError(f"need at least 2 pieces, got {n}")
    pieces = rng.standard_exponential(n)
    pieces[::-1].sort()
    return pieces


def predicate_none(pieces: Sequence[float], k: int) -> bool:
    """True when no k of the pieces close a k-gon.

    ``pieces`` must be sorted in decreasing order.  Checks every window
    of k consecutive pieces; a window whose first piece equals the sum
    of the rest is flat and still counts as failing to close.
    """
    n = len(pieces)
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= len(pieces), got k={k}, n={n}")
    return all(
        pieces[i] >= sum(pieces[i + 1 : i + k]) for i in range(n - k + 1)
    )


def predicate_forall(pieces: Sequence[float], k: int) -> bool:
    """True when every choice of k pieces closes a k-gon.

    ``pieces`` must be sorted in decreasing order.  The binding case is
    the largest piece against the k - 1 smallest; strict inequality
    required, a tie means a flat selection exists.
    """
    n = len(pieces)
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= len(pieces), got k={k}, n={n}")
    return pieces[0] < sum(pieces[n - k + 1 :])


def scalar_hit(mode: str, pieces: Sequence[float], k: int) -> bool:
    n = len(pieces)
    if mode == "none":
        return predicate_none(pieces, k)
    if mode == "exists":
        return not predicate_none(pieces, k)
    return predicate_forall(pieces, n if mode == "ngon" else k)


def column_mask(mode: str, k: int, pieces: np.ndarray) -> np.ndarray:
    """The column kernel's mask of pieces (rows, n), in any order per row."""
    n = pieces.shape[1]
    cols = np.empty((n + 1, len(pieces)))
    cols[:n] = pieces.T
    return montecarlo._mask(mode, k, montecarlo._sorted_rows(cols))


def row_mask(mode: str, k: int, pieces: np.ndarray, floor: float | None = None) -> np.ndarray:
    """The row kernel's mask of pieces (rows, n), in any order per row.

    It is the mask ``_slab_hits`` counts; a floor of 0 rows makes it add
    one piece at a time, and one past the rows makes it accumulate.
    """
    masks = []
    mask = montecarlo._mask
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_mask", lambda *args: masks.append(mask(*args)) or masks[-1])
        if floor is not None:
            patch.setattr(montecarlo, "_ROW_FLOOR", floor)
        montecarlo._slab_hits(mode, k, np.array(pieces, dtype=float), None)
    [got] = masks
    return got


def accumulate_mask(mode: str, k: int, pieces: np.ndarray) -> np.ndarray:
    """The mask of pieces (rows, n), each row sorted decreasing, from whole-row
    running sums by np.add.accumulate: every window at once, with no early
    exit, and the sums in the order the kernels add them, so the same floats."""
    n = pieces.shape[1]
    sums = np.add.accumulate(pieces, axis=1)
    if mode in ("forall", "ngon"):
        return pieces[:, 0] < sums[:, n - 1] - sums[:, n - k]
    # window i holds piece i against S[i + k - 1] - S[i]
    none = np.all(pieces[:, : n - k + 1] >= sums[:, k - 1 :] - sums[:, : n - k + 1], axis=1)
    return none if mode == "none" else ~none


def tie_slab(n: int, rows: int, seed: int) -> np.ndarray:
    """Exp(1) draws (rows, n) whose first six rows hold ties, in both orders."""
    draws = np.random.default_rng(seed).standard_exponential((rows, n))
    draws[:3] = [np.ones(n), 2.0 ** -np.arange(n), np.r_[n - 1.0, np.ones(n - 1)]]
    draws[3:6] = draws[:3, ::-1]
    return draws


def sorted_pieces(values):
    total = sum(values)
    return sorted((v / total for v in values), reverse=True)


def test_break_stick_basic_properties():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6, 12):
        pieces = break_stick(n, rng)
        assert len(pieces) == n
        assert all(a >= b for a, b in zip(pieces, pieces[1:]))
        assert pieces[-1] >= 0
    with pytest.raises(ValueError):
        break_stick(1, rng)


def test_break_stick_reproducible():
    a = break_stick(5, np.random.default_rng(123))
    b = break_stick(5, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_predicate_none_examples():
    assert predicate_none([0.7, 0.2, 0.1], 3) is True
    assert predicate_none([0.4, 0.3, 0.3], 3) is False
    # exact tie: the window is flat, which still fails to close
    assert predicate_none([0.5, 0.25, 0.125, 0.125], 4) is True
    # k < n: a later window can close even when the first does not
    assert predicate_none([0.5, 0.2, 0.16, 0.14], 3) is False  # 0.2 < 0.16 + 0.14


def test_predicate_forall_examples():
    assert predicate_forall([0.3, 0.25, 0.25, 0.2], 3) is True
    assert predicate_forall([0.7, 0.2, 0.1], 3) is False
    # tie on the binding selection: flat, not a polygon
    assert predicate_forall([0.5, 0.25, 0.25], 3) is False


def test_predicate_domain():
    with pytest.raises(ValueError):
        predicate_none([0.5, 0.5], 3)
    with pytest.raises(ValueError):
        predicate_forall([0.4, 0.3, 0.3], 2)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=8),
    st.data(),
)
def test_forall_excludes_none(raw, data):
    pieces = sorted_pieces(raw)
    k = data.draw(st.integers(min_value=3, max_value=len(pieces)))
    # both can be False, but they can never hold together
    assert not (predicate_none(pieces, k) and predicate_forall(pieces, k))


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=8))
def test_predicates_complement_when_all_pieces_used(raw):
    # at k = n there is a single selection, so the two events partition
    # the space (the shared flat case counts as failing to close)
    pieces = sorted_pieces(raw)
    n = len(pieces)
    assert predicate_forall(pieces, n) != predicate_none(pieces, n)


@pytest.mark.parametrize("slab_rows", [None, 7])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "k, n", [(3, 3), (3, 5), (4, 6), (3, 12), (7, 12), (12, 12), (3, 40), (5, 50), (20, 45)]
)
def test_vectorized_blocks_match_scalar_predicates(monkeypatch, k, n, mode, slab_rows):
    # one block, replayed trial by trial with the scalar path; (3, 3) and
    # (12, 12) have a single window, at (3, 40) and (5, 50) nearly every
    # slab is decided by its first window, (20, 45) has large k with
    # n near 2k, and slab_rows = 7 splits the block into many slabs
    if slab_rows is not None:
        monkeypatch.setattr(montecarlo, "_SLAB_FLOATS", slab_rows * n)
    trials = 2000
    seed = _chunk_seed(DEFAULT_SEED, n)
    block_k = n if mode == "ngon" else k
    hits = _run_blocks(mode, block_k, n, [(trials, seed)])
    rng = np.random.default_rng(seed)
    expected = sum(scalar_hit(mode, break_stick(n, rng), k) for _ in range(trials))
    assert hits == expected


def test_kernel_resolves_ties_like_scalar_predicates():
    # dyadic pieces make every window sum exact, so the kernel sees the
    # same ties as the scalar predicates: a flat window or selection
    # does not close
    cases = [
        ([0.5, 0.25, 0.125, 0.125], 4),
        ([0.5, 0.25, 0.125, 0.125], 3),
        ([0.5, 0.25, 0.25], 3),
        ([0.375, 0.25, 0.25, 0.125], 3),
    ]
    for values, k in cases:
        pieces = np.array([values])
        for mode in MODES:
            block_k = len(values) if mode == "ngon" else k
            want = scalar_hit(mode, values, k)
            assert accumulate_mask(mode, block_k, pieces).tolist() == [want], (values, k, mode)
            # the kernels sort the pieces themselves, so they also get them
            # in increasing order; the row kernel on both sides of its floor
            for order in (pieces, pieces[:, ::-1]):
                assert column_mask(mode, block_k, order).tolist() == [want], (values, k, mode)
                for floor in (0, 2):
                    assert row_mask(mode, block_k, order, floor).tolist() == [want], (values, k, mode, floor)


@pytest.mark.parametrize("mode", MODES)
def test_hit_mask_is_scale_invariant(mode):
    # the kernel never divides the draws by their sum, so each event must
    # not see the scale; multiplying by 2^j is exact in binary floating
    # point, so the masks must be identical, ties included
    k, n = 3, 6
    pieces = np.sort(np.random.default_rng(11).standard_exponential((500, n)), axis=1)[:, ::-1]
    pieces[:4] = [[4, 2, 1, 1, 0.5, 0.5], [2, 1, 1, 0.5, 0.25, 0.25], [3, 1, 1, 1, 1, 1], [1] * n]
    block_k = n if mode == "ngon" else k
    mask = accumulate_mask(mode, block_k, pieces)
    for j in (-60, -1, 3, 60):
        assert np.array_equal(accumulate_mask(mode, block_k, pieces * 2.0**j), mask), j
        # and both kernels, the row kernel on both sides of its floor, on
        # the same scaled slabs
        assert np.array_equal(column_mask(mode, block_k, pieces * 2.0**j), mask), j
        for floor in (0, len(pieces) + 1):
            assert np.array_equal(row_mask(mode, block_k, pieces * 2.0**j, floor), mask), (j, floor)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", range(3, montecarlo._SMALL_N + 3))
def test_column_kernel_matches_row_kernel(mode, n):
    # one slab of draws, with a few rows of ties, through both kernels:
    # equal masks, and equal hits from _slab_hits over ragged tiles
    draws = tie_slab(n, 3000, 100 + n)
    for k in sorted({3, (n + 3) // 2, n}) if mode != "ngon" else [n]:
        mask = accumulate_mask(mode, k, np.sort(draws, axis=1)[:, ::-1])
        assert np.array_equal(column_mask(mode, k, draws), mask), k
        assert np.array_equal(row_mask(mode, k, draws), mask), k
        want = int(np.count_nonzero(mask))
        assert montecarlo._slab_hits(mode, k, draws.copy(), None) == want, k
        for tile in (1024, 7):
            cols = np.empty((n + 1, tile))
            assert montecarlo._slab_hits(mode, k, draws.copy(), cols) == want, (k, tile)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [11, 45, 200, 300, 600, 1000])
def test_row_kernel_matches_accumulate_oracle(mode, n):
    # full slabs, with rows of ties, scaled by 2^j: slabs of n <= 300 have
    # at least _ROW_FLOOR rows and add one piece at a time, those of 600
    # and 1000 fewer, and accumulate; the masks are the oracle's either way
    draws = tie_slab(n, montecarlo._SLAB_FLOATS // n, 200 + n)
    assert (len(draws) >= montecarlo._ROW_FLOOR) == (n <= 300)
    for k in sorted({3, (n + 3) // 2, n}) if mode != "ngon" else [n]:
        for j in (0, -60, -1, 3, 60):
            scaled = draws * 2.0**j
            mask = accumulate_mask(mode, k, np.sort(scaled, axis=1)[:, ::-1])
            assert np.array_equal(row_mask(mode, k, scaled), mask), (k, j)


@pytest.mark.parametrize("n", range(1, montecarlo._SMALL_N + 1))
def test_network_sorts_every_zero_one_vector(n):
    # the 0-1 principle: a comparator network that sorts every 0/1 input
    # sorts every input
    vectors = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    cols = np.empty((n + 1, 1 << n))
    cols[:n] = vectors.T
    got = np.array(montecarlo._sorted_rows(cols)).T
    assert np.array_equal(got, np.sort(vectors, axis=1)[:, ::-1])


# (mode, k, n, trials, seed, chunks, hits), recorded at version 0.2.0,
# when blocks first drew exponentials; the reproducibility contract keeps
# them fixed until the package version changes the stream again.
PINNED = [
    ("none", 3, 3, 10_000, 1, 1, 7516),
    ("none", 3, 5, 20_000, 2, 8, 3526),
    ("exists", 4, 6, 20_000, 3, 3, 19259),
    ("forall", 7, 12, 30_000, 4, 7, 6568),
    ("forall", 6, 8, 10_007, DEFAULT_SEED, 8, 4166),
    ("ngon", 12, 12, 20_000, 5, 5, 19872),
    ("ngon", 3, 4, 25_000, 6, 2, 12554),
    # Recorded before "none" and "exists" checked windows one at a time:
    # later windows decide rows at these points, and (3, 6) spans three slabs.
    ("none", 3, 6, 50_000, 7, 1, 2710),
    ("exists", 3, 7, 30_000, 8, 4, 29660),
    ("none", 4, 8, 40_000, 9, 2, 13),
    ("forall", 20, 200, 50_000, 10, 8, 0),
    ("ngon", 100, 100, 50_000, 11, 8, 50_000),
    # Recorded before the row kernel added its sums one piece at a time:
    # slabs of 436 rows take that path, of 218 and 163 rows the accumulate.
    ("forall", 60, 300, 20_000, 14, 8, 10839),
    ("forall", 85, 600, 4_000, 15, 2, 1324),
    ("forall", 100, 800, 3_000, 16, 3, 929),
]

EXACT = {"none": prob_none, "exists": prob_exists, "forall": prob_forall}


@pytest.mark.parametrize("mode, k, n, trials, seed, chunks, hits", PINNED)
def test_pinned_hits(mode, k, n, trials, seed, chunks, hits):
    config = SimConfig(spec=ProblemSpec(k, n), mode=mode, trials=trials, seed=seed, chunks=chunks)
    result = estimate(config)
    assert result.hits == hits
    # the pins check the sampler's law as well as its stream: within 5
    # standard errors, squared and in exact arithmetic, since the ngon
    # probability at n = 100 rounds to 1.0 as a float
    exact = prob_ngon(n) if mode == "ngon" else EXACT[mode](ProblemSpec(k, n))
    assert (Fraction(hits, trials) - exact) ** 2 < 25 * exact * (1 - exact) / trials


def test_empty_blocks_cost_nothing():
    # with more chunks than trials only the first `trials` blocks run, one
    # trial each, so the chunk count beyond that changes neither the hits
    # nor the memory and time; walking 10^7 empty blocks takes about 0.6 s
    spec = ProblemSpec(3, 5)
    config = SimConfig(spec=spec, mode="none", trials=5, seed=8, chunks=10**7)
    start = time.perf_counter()
    many = estimate(config)
    assert time.perf_counter() - start < 0.25
    tracemalloc.start()
    try:
        assert estimate(config) == many
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert many.hits == estimate(SimConfig(spec=spec, mode="none", trials=5, seed=8, chunks=5)).hits


@pytest.mark.parametrize("mode", MODES)
def test_block_memory_is_a_few_slabs(mode):
    # a block reuses two slab buffers, so its peak stays near two slabs
    # however many trials it holds; 10^5 trials of 50 pieces in one array
    # would take 38 MiB
    k, n = 5, 50
    tracemalloc.start()
    try:
        _run_blocks(mode, n if mode == "ngon" else k, n, [(100_000, _chunk_seed(DEFAULT_SEED, 0))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a slab stays cache-sized, and a block holds at most three of them
    assert montecarlo._SLAB_FLOATS <= 1 << 19
    assert peak < 3 * 8 * montecarlo._SLAB_FLOATS, peak


@pytest.mark.parametrize("mode", MODES)
def test_run_memory_is_a_few_slabs(mode):
    # the whole run, helper thread included (tracemalloc sees every
    # thread), in one block of about 38 slabs
    config = SimConfig(spec=ProblemSpec(5, 50), mode=mode, trials=100_000, chunks=1)
    tracemalloc.start()
    try:
        estimate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * montecarlo._SLAB_FLOATS, peak


def test_mask_leaves_the_pieces_as_they_were():
    # the sums built one piece at a time give the mask of the scalar
    # predicates, ties included, and write nothing over the pieces
    pieces = np.sort(np.random.default_rng(13).standard_exponential((300, 7)), axis=1)[:, ::-1]
    pieces[:3] = [[4, 2, 1, 0.5, 0.25, 0.125, 0.125], [1] * 7, [3, 1, 1, 1, 1, 0.5, 0.5]]
    for mode, k in (("forall", 3), ("forall", 5), ("forall", 6), ("ngon", 7), ("none", 3), ("exists", 5)):
        scratch = pieces.copy()
        mask = montecarlo._mask(mode, k, scratch.T)
        assert mask.tolist() == [scalar_hit(mode, row.tolist(), k) for row in pieces], (mode, k)
        assert np.array_equal(scratch, pieces), (mode, k)


def _spy_overlapped(monkeypatch):
    runs = []
    overlapped = montecarlo._overlapped_hits

    def spy(*args):
        runs.append(None)
        return overlapped(*args)

    monkeypatch.setattr(montecarlo, "_overlapped_hits", spy)
    return runs


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("chunks", [1, 3])
@pytest.mark.parametrize(
    "k, n, trials, slab_rows", [(3, 6, 50_000, None), (5, 50, 20_000, None), (4, 9, 2_000, 7)]
)
def test_handoff_does_not_change_hits(monkeypatch, mode, chunks, k, n, trials, slab_rows):
    # every run here has more than one slab, so with a second CPU each of
    # its slabs' draws goes to the helper; slab_rows = 7 makes
    # about 100 to 300 slabs per block, and each block starts a generator
    if slab_rows is not None:
        monkeypatch.setattr(montecarlo, "_SLAB_FLOATS", slab_rows * n)
    runs = _spy_overlapped(monkeypatch)
    config = SimConfig(spec=ProblemSpec(k, n), mode=mode, trials=trials, seed=31, chunks=chunks)
    monkeypatch.setattr(montecarlo, "_CPUS", 1)
    serial = estimate(config)
    assert runs == []
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    assert estimate(config) == serial
    assert len(runs) == 1


# ids: the smallest slab handed off, 0 (every slab) or inf (none)
@pytest.mark.parametrize("cpus", [2, 1], ids=["0", "inf"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k, n", [(3, 5), (4, 10), (3, 13)])
def test_packed_slabs_keep_each_blocks_hits(monkeypatch, cpus, mode, k, n):
    # slabs of 70 rows over blocks of 1 to 150 trials: slabs hold several
    # blocks, and blocks straddle slabs, with the hand-off on (two CPUs)
    # and off (one); each block still draws its own stream, as when run
    # alone
    block_k = n if mode == "ngon" else k
    blocks = [(trials, _chunk_seed(41, b)) for b, trials in enumerate((150, 1, 69, 70, 3, 71, 40, 2))]
    alone = sum(_run_blocks(mode, block_k, n, [block]) for block in blocks)
    monkeypatch.setattr(montecarlo, "_SLAB_FLOATS", 70 * n)
    monkeypatch.setattr(montecarlo, "_CPUS", cpus)
    runs = _spy_overlapped(monkeypatch)
    assert _run_blocks(mode, block_k, n, blocks) == alone
    assert len(runs) == (cpus > 1)


def _helpers():
    return [t for t in threading.enumerate() if t is not threading.main_thread()]


def test_no_thread_outlives_estimate(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    runs = _spy_overlapped(monkeypatch)
    before = _helpers()
    config = SimConfig(spec=ProblemSpec(5, 50), mode="none", trials=20_000, chunks=2)
    estimate(config)
    assert len(runs) == 1 and _helpers() == before
    # a mask that fails mid-run: the error reaches the caller and the
    # helper, which may be drawing the next slab, is joined first
    calls = []
    mask = montecarlo._mask

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("mask failed")
        return mask(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_mask", failing)
    with pytest.raises(RuntimeError, match="mask failed"):
        estimate(config)
    assert len(calls) == 3 and _helpers() == before
    monkeypatch.setattr(montecarlo, "_mask", mask)
    # a draw that fails on the helper, which makes every draw of such a
    # run, is raised on the caller's thread
    failed_on = []

    class FailingGenerator:
        def __init__(self, seed):
            pass

        def standard_exponential(self, out):
            failed_on.append(threading.current_thread())
            raise RuntimeError("draw failed")

    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    with pytest.raises(RuntimeError, match="draw failed"):
        estimate(config)
    assert len(runs) == 3 and _helpers() == before
    assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()


def test_concurrent_runs_keep_hits(monkeypatch):
    # four runs at once, each with its own helper: eight threads, more
    # than the cores, switching often; each run keeps its pinned hits
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(montecarlo, "_SLAB_FLOATS", 1 << 10)
    pins = [pin for pin in PINNED if pin[2] <= 12][:4]
    results = {}

    def run(pin):
        mode, k, n, trials, seed, chunks, _ = pin
        config = SimConfig(spec=ProblemSpec(k, n), mode=mode, trials=trials, seed=seed, chunks=chunks)
        results[pin] = estimate(config).hits

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(pin,)) for pin in pins]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {pin: pin[-1] for pin in pins}


# Runs the pins of argv[1], a JSON list, four threads at once as above,
# in an interpreter that has not imported numpy, then one at a time, and
# prints both runs' hits.
_FIRST_IMPORT_CHILD = """
import json, sys, threading
from brokenstick import ProblemSpec, SimConfig, estimate, montecarlo
assert "numpy" not in sys.modules
montecarlo._CPUS = 2
montecarlo._SLAB_FLOATS = 1 << 10
configs = [
    SimConfig(spec=ProblemSpec(k, n), mode=mode, trials=trials, seed=seed, chunks=chunks)
    for mode, k, n, trials, seed, chunks, _ in json.loads(sys.argv[1])
]
concurrent = [None] * len(configs)
def run(i):
    concurrent[i] = estimate(configs[i]).hits
sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
print(json.dumps([concurrent, [estimate(config).hits for config in configs]]))
"""


def test_concurrent_runs_keep_hits_on_first_numpy_import(monkeypatch):
    # each thread's first kernel call imports numpy while the others may
    # be importing it too; every run keeps the hits of a serial run
    pins = [pin for pin in PINNED if pin[2] <= 12][:4]
    proc = run_module(monkeypatch, "-c", _FIRST_IMPORT_CHILD, json.dumps(pins))
    assert proc.returncode == 0, proc.stderr
    concurrent, serial = json.loads(proc.stdout)
    assert concurrent == serial == [pin[-1] for pin in pins]


@pytest.mark.parametrize(
    "k, n, trials, chunks",
    [(3, 3, 5_000, 8), (3, 3, 5_000, 1), (10, 10, 5_000, 1), (6, 8, 5_000, 8), (5, 7, 5_000, 8)],
)
def test_small_runs_start_no_thread(monkeypatch, k, n, trials, chunks):
    # runs as small as these fill a single slab, so they stay on the
    # caller's thread even with a second CPU
    def fail(*args, **kwargs):
        raise AssertionError("a small run started a thread")

    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(threading, "Thread", fail)
    for mode in MODES:
        estimate(SimConfig(spec=ProblemSpec(k, n), mode=mode, trials=trials, chunks=chunks))


def test_slab_size_does_not_change_hits(monkeypatch):
    # slabs only bound memory: a block sliced into slabs of a few rows,
    # or of a single row when the budget is below n, draws the same
    # stream and counts the same hits as one whole-block slab
    k, n, trials = 3, 6, 1000
    seed = _chunk_seed(DEFAULT_SEED, 2)
    whole = {mode: _run_blocks(mode, k, n, [(trials, seed)]) for mode in MODES}
    for budget in (3 * n + 1, n - 1):
        monkeypatch.setattr(montecarlo, "_SLAB_FLOATS", budget)
        assert {mode: _run_blocks(mode, k, n, [(trials, seed)]) for mode in MODES} == whole


def test_estimate_is_deterministic():
    config = SimConfig(spec=ProblemSpec(3, 4), mode="exists", trials=20_000, seed=5, chunks=4)
    assert estimate(config) == estimate(config)


def test_estimate_chunking_changes_stream_but_not_contract():
    # different chunk counts draw different numbers, but each setting is
    # itself reproducible and all estimates agree statistically
    spec = ProblemSpec(3, 3)
    r1 = estimate(SimConfig(spec=spec, mode="none", trials=50_000, seed=3, chunks=1))
    r2 = estimate(SimConfig(spec=spec, mode="none", trials=50_000, seed=3, chunks=10))
    assert r1 == estimate(SimConfig(spec=spec, mode="none", trials=50_000, seed=3, chunks=1))
    assert abs(r1.estimate - r2.estimate) < 6 * (r1.stderr + r2.stderr)


def test_exists_complements_none_exactly():
    spec = ProblemSpec(3, 5)
    kwargs = dict(trials=25_000, seed=17, chunks=5)
    r_none = estimate(SimConfig(spec=spec, mode="none", **kwargs))
    r_exists = estimate(SimConfig(spec=spec, mode="exists", **kwargs))
    assert r_none.hits + r_exists.hits == r_none.trials


def test_ngon_mode_ignores_k():
    kwargs = dict(mode="ngon", trials=25_000, seed=23, chunks=5)
    r1 = estimate(SimConfig(spec=ProblemSpec(3, 5), **kwargs))
    r2 = estimate(SimConfig(spec=ProblemSpec(4, 5), **kwargs))
    assert r1 == r2


def test_estimate_statistical_sanity():
    # 200k trials of the square case, exact value 1/2
    config = SimConfig(spec=ProblemSpec(4, 4), mode="ngon", trials=200_000, seed=DEFAULT_SEED)
    result = estimate(config)
    exact = float(prob_ngon(4))
    assert abs(result.estimate - exact) < 5 * result.stderr
    assert result.hits == round(result.estimate * result.trials)
    assert 0 < result.stderr < 0.005


def test_blocks_partition_trials():
    # trials that do not divide evenly still all get run
    config = SimConfig(spec=ProblemSpec(3, 3), mode="none", trials=10_007, seed=1, chunks=8)
    result = estimate(config)
    assert result.trials == 10_007
    assert 0 <= result.hits <= 10_007
    # more chunks than trials leaves some blocks empty, which is fine
    tiny = estimate(SimConfig(spec=ProblemSpec(3, 3), mode="none", trials=4, seed=1, chunks=8))
    assert tiny.trials == 4


def test_config_validation():
    spec = ProblemSpec(3, 4)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="sometimes", trials=10)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="none", trials=0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="none", trials=10, chunks=0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="none", trials=10, seed=-1)


def test_config_names_huge_n_by_its_power_of_two():
    # 10^5000 has more digits than str() prints
    with pytest.raises(ResourceLimitError) as info:
        SimConfig(spec=ProblemSpec(3, 10**5000), mode="none", trials=1)
    assert str(info.value) == "a simulated stick breaks into 2^16609.6 pieces (limit 4194304)"


def test_chunk_seeds_are_spread_out():
    seeds = [_chunk_seed(DEFAULT_SEED, b) for b in range(64)]
    assert len(set(seeds)) == 64
    assert all(0 <= s < 2**64 for s in seeds)
