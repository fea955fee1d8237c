"""Monte Carlo estimation of the polygon probabilities.

A trial draws n i.i.d. Exp(1) variables sorted decreasing; by Renyi's
representation they are the sorted pieces of a stick broken at n - 1
uniform points, times a scale no event depends on.  The "none" event
requires every window of k consecutive pieces to fail the polygon
inequality (the window's first piece at least as large as the sum of the
other k - 1; ties fail to close, matching the exact formulas).  "forall"
requires even the hardest selection to close: the largest piece strictly
below the sum of the k - 1 smallest.  "exists" is the complement of
"none" and "ngon" is "forall" with k = n: one expression serves both.

Reproducibility contract: an estimate is a pure function of
(mode, k, n, trials, seed, chunks).  Trials are split across ``chunks``
blocks as evenly as possible, earlier blocks one trial larger when the
division is not exact.  Block b (0-based) draws its trials with
``standard_exponential`` from its own PCG64 generator seeded with

    splitmix64((seed + (b + 1) * 0x9E3779B97F4A7C15) mod 2^64)

where splitmix64 is the usual xor-shift finalizer.  Blocks therefore
never share a stream, and each block can be reproduced in isolation.
Version 0.1.0 drew uniform cuts.

A run packs its blocks into slabs of max(1, 2^17 // n) trials: each
block fills the next rows from its own generator, so a slab may hold the
end of one block and the start of the next, and one sort and mask serve
them all.  The slabs are drawn into two reused float64 buffers of 1 MiB,
which stay in a core's cache; the running sums and masks take at most
about one slab more, so a run holds 2 to 3.5 MiB whatever its trial
count.  While the caller sorts and masks one slab, a helper thread
draws the next into the other buffer; numpy releases the GIL in all
three, so on two cores the draw, over half of a slab's time at n >= 20,
runs beside the rest.  A run of one slab, or in a process that may use
one CPU only, stays on the caller's thread.  "none" and "exists" check
window 0 on the whole slab and each later window only while some row is
left undecided; at n well above k that ends after a window or two.  n
itself is capped at 2^22.  PCG64 fills rows one after another and each
block keeps its own generator, so hits depend neither on the slab size,
nor on how blocks share slabs, nor on which thread draws.

Past n = 10 a slab is sorted along its rows, and the mask reads its
reversed columns, largest piece first.  The running sums add one column
at a time, the order np.add.accumulate uses, so every sum is the same
float: "forall" and "ngon" keep one accumulator and S[n - k] as it
passes, "none" and "exists" S[0..k - 1].  A slab of fewer than 256 rows
(n above 512, or a short last slab) pays more for a ufunc call per
column than for one np.add.accumulate along its rows, which it takes
instead, "forall" writing it over the sorted slab.

Up to n = 10 a slab is sorted and masked column-major instead, since
numpy's row sort costs about as much per row at n = 3 as at n = 10.
Tiles of 8192 rows are copied to an (n + 1, 8192) buffer, at most 704
KiB, made once per run; each column is sorted by a fixed comparator
network (Batcher's odd-even merge, built once per n) with the largest
piece in row 0, and the sorted rows go to the row kernel's mask.  So
every sorted value and every sum, and with them the hits, are those of
the row kernel.

Cost model: a run costs trials * n + 1000 * min(chunks, trials)
trial-pieces, since only the first min(chunks, trials) blocks are
non-empty.  A config past 1.5 * 10^8 (1 to 2 s) or with n > 2^22
raises ``ResourceLimitError`` when it is built, before any draw.

numpy is imported inside each function that calls it, never at module
level.  The CLI imports this module only for ``simulate`` and, through
``verification``, for ``verify``, whose suites that draw nothing should
not pay numpy's import, most of their start-up time.  The modes and
defaults live in ``probability``, so building the CLI's parser does not
import this module.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from math import sqrt

from .probability import DEFAULT_CHUNKS, DEFAULT_SEED, MODES, ProblemSpec, ResourceLimitError

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_CHUNKS",
    "MODES",
    "SimConfig",
    "SimResult",
    "estimate",
]

# Floats per slab buffer (1 MiB of float64, sized to stay in a core's
# cache) and the largest n served; see the module docstring.
_SLAB_FLOATS = 1 << 17
_MAX_N = 1 << 22

# Largest n whose slabs go to the column kernel, its tile in rows, and
# the fewest rows for which the row kernel adds its sums one column at a
# time; see the module docstring.
_SMALL_N = 10
_TILE_ROWS = 1 << 13
_ROW_FLOOR = 256

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Cost model in trial-pieces (see the module docstring).  On a 2-core
# host with the second core busy, on one thread, the kernel did 80-160 M
# trial-pieces/s at n = 3 to 1000 (130-160 M at n = 3), slowest at n = 11
# and, for "forall" and "ngon", at n >= 600; a block cost 13-17 us, about
# 1000 trial-pieces at that slowest rate.  So _MAX_WORK is about 1.9 s at
# the slowest n and 1 s at n = 3.  The helper's draws make large runs
# faster only while a second core is free, and with it busy a run costs
# up to about 15% more.
_BLOCK_WORK = 1_000
_MAX_WORK = 150_000_000

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _chunk_seed(seed: int, block: int) -> int:
    return _splitmix64(seed + (block + 1) * _GOLDEN)


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a simulation run."""

    spec: ProblemSpec
    mode: str
    trials: int
    seed: int = DEFAULT_SEED
    chunks: int = DEFAULT_CHUNKS

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        if self.chunks < 1:
            raise ValueError(f"chunk count must be positive, got {self.chunks}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        n = self.spec.n
        ResourceLimitError._check(n, _MAX_N, "pieces", "a simulated stick breaks into")
        ResourceLimitError._check(
            _work(self), _MAX_WORK, "trial-pieces",
            "{} trials of {} pieces in {} chunks cost", self.trials, n, self.chunks,
        )


def _work(config: SimConfig) -> int:
    # Trial-pieces a run costs; see the module docstring.
    return config.trials * config.spec.n + _BLOCK_WORK * min(config.chunks, config.trials)


@dataclass(frozen=True)
class SimResult:
    """Outcome of a run; estimate = hits / trials, stderr the binomial one."""

    hits: int
    trials: int
    estimate: float
    stderr: float
    seed: int
    chunks: int


def _mask(mode: str, k: int, pieces, sums=None) -> np.ndarray:
    # pieces[i] is piece i of every row, largest first, and sums[j], if
    # given, the running sum S[j] of pieces 0..j, for every j ("forall",
    # "ngon") or for j < k ("none", "exists").  Without sums, S is built
    # by adding one piece at a time, the order np.add.accumulate uses, so
    # every sum is the same float.  Window i of "none" holds piece i
    # against S[i + k - 1] - S[i], the sum of its other k - 1 pieces;
    # "forall" holds the largest piece against the k - 1 smallest.
    import numpy as np

    n = len(pieces)
    if mode in ("forall", "ngon"):
        if sums is not None:
            return sums[0] < sums[n - 1] - sums[n - k]
        # One accumulator, added to in place; the add after S[n - k]
        # makes a new one, which leaves S[n - k] as it was.
        head = total = pieces[0]
        for j in range(1, n):
            total = total + pieces[j] if total is head else np.add(total, pieces[j], out=total)
            if j == n - k:
                head = total
        return pieces[0] < total - head
    if sums is None:
        sums = [pieces[0]]
        for j in range(1, k):
            sums.append(sums[-1] + pieces[j])
    # Windows one at a time, each adding one piece to S, until no row is
    # left: the additions a whole-row cumsum makes, so the same bits.
    last = sums[k - 1]
    none = pieces[0] >= last - sums[0]
    later = []  # S[k], S[k + 1], ...
    for i in range(1, n - k + 1):
        if not np.count_nonzero(none):  # cheaper than none.any() on small slabs
            break
        last = last + pieces[i + k - 1]
        later.append(last)
        none &= pieces[i] >= last - (sums[i] if i < k else later[i - k])
    return none if mode == "none" else ~none


@cache
def _network(n: int) -> tuple[tuple[int, int], ...]:
    # Batcher's odd-even merge sort (Knuth, TAOCP vol. 3, 5.3.4) as
    # comparators (i, j), i < j, for the next power of two; those reaching
    # past n are dropped, which sorts n keys as if the rest were -inf.
    size = 1 << (n - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        d = p
        while d:
            for j in range(d % p, size - d, 2 * d):
                for i in range(j, min(j + d, size - d)):
                    if i // (2 * p) == (i + d) // (2 * p) and i + d < n:
                        pairs.append((i, i + d))
            d //= 2
        p *= 2
    return tuple(pairs)


def _sorted_rows(cols: np.ndarray) -> list[np.ndarray]:
    # Sorts cols[:-1] (n rows) down each column, the largest in row 0,
    # with cols[-1] as scratch; returns the sorted rows as views of cols.
    # Each comparator writes its min to the scratch row, which then takes
    # the place of the row it came from.
    import numpy as np

    *rows, spare = cols
    for i, j in _network(len(rows)):
        np.minimum(rows[i], rows[j], out=spare)
        np.maximum(rows[i], rows[j], out=rows[i])
        rows[j], spare = spare, rows[j]
    return rows


def _slab_hits(mode: str, k: int, draws: np.ndarray, cols: np.ndarray | None) -> int:
    # Sorts and masks one slab of draws, overwriting it.  With cols, an
    # (n + 1, tile) buffer, the slab goes tile by tile to column-major.
    import numpy as np

    if cols is None:
        draws.sort(axis=1)
        pieces, sums = draws[:, ::-1], None
        if len(draws) < _ROW_FLOOR:  # "forall" keeps piece 0 as S[0]
            whole = mode in ("forall", "ngon")
            sums = np.add.accumulate(pieces if whole else pieces[:, :k], axis=1, out=pieces if whole else None).T
        return int(np.count_nonzero(_mask(mode, k, pieces.T, sums)))
    tile = cols.shape[1]
    hits = 0
    for start in range(0, len(draws), tile):
        part = draws[start : start + tile]
        here = cols[:, : len(part)]
        np.copyto(here[:-1], part.T)
        hits += np.count_nonzero(_mask(mode, k, _sorted_rows(here)))
    return int(hits)


def _slabs(blocks: list[tuple[int, int]], slab_rows: int) -> Iterator[list[tuple[np.random.Generator, int]]]:
    # The run's plan: each slab as (generator, rows) draws that fill it in
    # order, block after block, so a slab may hold the end of one block
    # and the start of the next.  A block's generator is made when the
    # plan reaches it.
    import numpy as np

    slab, room = [], slab_rows
    for trials, seed in blocks:
        rng = np.random.default_rng(seed)
        while trials:
            rows = min(trials, room)
            slab.append((rng, rows))
            trials -= rows
            room -= rows
            if not room:
                yield slab
                slab, room = [], slab_rows
    if slab:
        yield slab


def _draw(slab: list[tuple[np.random.Generator, int]], buffer: np.ndarray) -> np.ndarray:
    # Fills the buffer's first rows with the slab's draws and returns them;
    # standard_exponential fills `out` with the stream it would return as
    # a new array.
    start = 0
    for rng, rows in slab:
        rng.standard_exponential(out=buffer[start : start + rows])
        start += rows
    return buffer[:start]


def _run_blocks(mode: str, k: int, n: int, blocks: list[tuple[int, int]]) -> int:
    """Hits of the blocks, (trials, seed) pairs drawn in list order."""
    import numpy as np

    total = sum(trials for trials, _ in blocks)
    slab_rows = min(max(1, _SLAB_FLOATS // n), total)
    cols = np.empty((n + 1, min(slab_rows, _TILE_ROWS))) if n <= _SMALL_N else None
    slabs = _slabs(blocks, slab_rows)
    if _CPUS > 1 and total > slab_rows:
        return _overlapped_hits(mode, k, slabs, np.empty((2, slab_rows, n)), cols)
    draws = np.empty((slab_rows, n))
    return sum(_slab_hits(mode, k, _draw(slab, draws), cols) for slab in slabs)


def _overlapped_hits(mode: str, k: int, slabs: Iterator, buffers: np.ndarray, cols: np.ndarray | None) -> int:
    # The loop above, with a helper thread drawing slab i + 1 into one
    # buffer while the caller sorts and masks slab i in the other; numpy
    # releases the GIL in all three.  The caller walks the plan, making
    # each block's generator, posts each slab on `todo` and waits on
    # `drawn` for the drawn rows or the helper's error.  Only such runs
    # import queue, which costs every CLI start about 1 ms.
    from queue import SimpleQueue

    todo, drawn = SimpleQueue(), SimpleQueue()

    def draw() -> None:
        while (task := todo.get()) is not None:
            try:
                drawn.put(_draw(*task))
            except BaseException as exc:  # raised on the caller's thread
                drawn.put(exc)

    here, there = buffers
    helper = threading.Thread(target=draw, name="brokenstick-draws")
    helper.start()
    hits, last = 0, None
    try:
        for slab in slabs:
            todo.put((slab, here))
            if last is not None:
                hits += _slab_hits(mode, k, last, cols)
            if isinstance(pieces := drawn.get(), BaseException):
                raise pieces
            last, here, there = pieces, there, here
        return hits + _slab_hits(mode, k, last, cols)
    finally:
        todo.put(None)
        helper.join()


def estimate(config: SimConfig) -> SimResult:
    """Run the simulation described by config and return the estimate."""
    n = config.spec.n
    k = n if config.mode == "ngon" else config.spec.k
    base, extra = divmod(config.trials, config.chunks)
    blocks = [
        (base + (b < extra), _chunk_seed(config.seed, b))
        for b in range(min(config.chunks, config.trials))
    ]
    hits = _run_blocks(config.mode, k, n, blocks)
    p = hits / config.trials
    return SimResult(
        hits=hits,
        trials=config.trials,
        estimate=p,
        stderr=sqrt(p * (1.0 - p) / config.trials),
        seed=config.seed,
        chunks=config.chunks,
    )
