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

A run draws its slabs of max(1, 2^17 // n) trials, block after block,
into two reused float64 buffers of 1 MiB, which stay in a core's cache;
"forall" and "ngon" write their running sums over the sorted slab, so a
run holds about 2 MiB whatever its trial count.  While the caller sorts
and masks one slab, a helper thread draws the next into the other
buffer; numpy releases the GIL in all three, so on two cores the draw,
over half of a slab's time at n >= 20, runs beside the rest.  A run of
one slab, of slabs under 2^15 floats, or in a process that may use one
CPU only stays on the caller's thread.  "none" and "exists" check
window 0 on the whole slab and each later window only while some row is
left undecided; at n well above k that ends after a window or two.  n
itself is capped at 2^22.  PCG64 fills rows one after another and each
block keeps its own generator, so hits depend neither on the slab size
nor on which thread draws.

Cost model: a run costs trials * n + 1000 * min(chunks, trials)
trial-pieces, since only the first min(chunks, trials) blocks are
non-empty.  A config past 1.5 * 10^8 (about 5 s) or with n > 2^22
raises ``ResourceLimitError`` when it is built, before any draw.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .probability import ProblemSpec, ResourceLimitError

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_CHUNKS",
    "MODES",
    "SimConfig",
    "SimResult",
    "estimate",
]

# Arbitrary fixed default; the acceptance checks pin their expectations
# to runs with exactly this seed.
DEFAULT_SEED = 2654435769
DEFAULT_CHUNKS = 8

MODES = ("none", "exists", "forall", "ngon")

# Floats per slab buffer (1 MiB of float64, sized to stay in a core's
# cache) and the largest n served; see the module docstring.
_SLAB_FLOATS = 1 << 17
_MAX_N = 1 << 22

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Smallest slab, in floats, whose draws go to a helper thread (see the
# module docstring); none do where this process may use one CPU only.
# Runs of eight one-slab blocks on a 2-core host: with the second core
# free, handing off lost up to 46% at 2^13 floats (starting the helper
# and the hand-offs cost 0.2-0.4 ms) and won up to 45% at 2^15 to 2^17
# for n >= 30; with it busy, it lost 30-81% at 2^11 and 1-12% at 2^15.
_HANDOFF_FLOATS = 1 << 15 if _CPUS > 1 else inf

# Cost model in trial-pieces (see the module docstring).  On a 2-core
# host the kernel did 33-43 M trial-pieces/s at n = 3 (35 M/s over a
# whole run at the limit) and 78-138 M/s at n = 50, and a block cost
# 17-26 us, at most about 900 trial-pieces at the slowest rate, so
# _MAX_WORK is about 5 s at n = 3 (4.1-4.4 s measured).  Those rates are
# on one thread: the helper's draws make large runs faster only while a
# second core is free, and with it busy a run costs up to about 15% more.
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
        if n > _MAX_N:
            raise ResourceLimitError(f"n={n} pieces are past the limit {_MAX_N}")
        work = _work(self)
        if work > _MAX_WORK:
            raise ResourceLimitError(
                f"{self.trials} trials of {n} pieces in {self.chunks} chunks cost"
                f" {work} trial-pieces (limit {_MAX_WORK})"
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


def _hit_mask(mode: str, k: int, pieces: np.ndarray, overwrite: bool = False) -> np.ndarray:
    # pieces: (rows, n), each row sorted decreasing; S is the running sum
    # along a row (np.add.accumulate: cumsum without its wrapper's cost).
    # Window i of "none" holds piece i against S[i + k - 1] - S[i], the
    # sum of its other k - 1 pieces; "forall" holds the largest piece
    # against the k - 1 smallest.  The slab loops pass overwrite, so
    # "forall" writes S over pieces (whose column 0 S keeps) instead of
    # allocating a slab for it; the default leaves pieces intact for
    # callers that reuse them, as the kernel tests do.
    n = pieces.shape[1]
    if mode in ("forall", "ngon"):
        sums = np.add.accumulate(pieces, axis=1, out=pieces if overwrite else None)
        return sums[:, 0] < sums[:, -1] - sums[:, n - k]
    # Windows one at a time, each adding one column of S, until no row is
    # left: the additions a whole-row cumsum makes, so the same bits.
    head = np.add.accumulate(pieces[:, :k], axis=1)  # S[0 .. k - 1]
    last = head[:, k - 1]
    none = pieces[:, 0] >= last - head[:, 0]
    later = []  # S[k], S[k + 1], ...
    for i in range(1, n - k + 1):
        if not np.count_nonzero(none):  # cheaper than none.any() on small slabs
            break
        last = last + pieces[:, i + k - 1]
        later.append(last)
        none &= pieces[:, i] >= last - (head[:, i] if i < k else later[i - k])
    return none if mode == "none" else ~none


def _slab_hits(mode: str, k: int, draws: np.ndarray) -> int:
    # Sorts and masks one slab of draws in place.
    draws.sort(axis=1)
    return int(np.count_nonzero(_hit_mask(mode, k, draws[:, ::-1], overwrite=True)))


def _run_blocks(mode: str, k: int, n: int, blocks: list[tuple[int, int]]) -> int:
    """Hits of the blocks, (trials, seed) pairs drawn in list order."""
    slab_rows = min(max(1, _SLAB_FLOATS // n), max(trials for trials, _ in blocks))
    if slab_rows * n >= _HANDOFF_FLOATS and (len(blocks) > 1 or blocks[0][0] > slab_rows):
        return _overlapped_hits(mode, k, blocks, np.empty((2, slab_rows, n)))
    # Every slab is drawn into this buffer, which standard_exponential
    # fills with the stream it would return as a new array.
    draws = np.empty((slab_rows, n))
    hits = 0
    for block_trials, block_seed in blocks:
        rng = np.random.default_rng(block_seed)
        for start in range(0, block_trials, slab_rows):
            pieces = draws[: min(slab_rows, block_trials - start)]
            rng.standard_exponential(out=pieces)
            hits += _slab_hits(mode, k, pieces)
    return hits


def _overlapped_hits(mode: str, k: int, blocks: list[tuple[int, int]], buffers: np.ndarray) -> int:
    # The loop above, with a helper thread drawing slab i + 1 into one
    # buffer while the caller sorts and masks slab i in the other; numpy
    # releases the GIL in all three.  The caller walks the slabs, making
    # each block's generator, posts each draw on `todo` and waits on
    # `drawn` for None or the helper's error.  Only such runs import
    # queue, which costs every CLI start about 1 ms.
    from queue import SimpleQueue

    todo, drawn = SimpleQueue(), SimpleQueue()

    def draw() -> None:
        while (task := todo.get()) is not None:
            rng, pieces = task
            try:
                rng.standard_exponential(out=pieces)
            except BaseException as exc:  # raised on the caller's thread
                drawn.put(exc)
            else:
                drawn.put(None)

    here, there = buffers
    slab_rows = len(here)
    helper = threading.Thread(target=draw, name="brokenstick-draws")
    helper.start()
    hits, last = 0, None
    try:
        for block_trials, block_seed in blocks:
            rng = np.random.default_rng(block_seed)
            for start in range(0, block_trials, slab_rows):
                pieces = here[: min(slab_rows, block_trials - start)]
                todo.put((rng, pieces))
                if last is not None:
                    hits += _slab_hits(mode, k, last)
                if (error := drawn.get()) is not None:
                    raise error
                last, here, there = pieces, there, here
        return hits + _slab_hits(mode, k, last)
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
