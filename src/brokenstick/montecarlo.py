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

A block is drawn in slabs of max(1, 2^22 // n) trials, so each float64
array of a slab, the window array of "none" and "exists" included,
stays near 32 MiB; n itself is capped at 2^22.  PCG64 fills rows one
after another, so hits do not depend on the slab size.

Cost model: a run costs trials * n + 1000 * min(chunks, trials)
trial-pieces, since only the first min(chunks, trials) blocks are
non-empty.  A config past 1.5 * 10^8 (about 5 s) or with n > 2^22
raises ``ResourceLimitError`` when it is built, before any draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

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

# Floats per slab array (32 MiB of float64); see the module docstring.
_SLAB_FLOATS = 1 << 22

# Cost model in trial-pieces (see the module docstring).  On a 2-core
# host the kernel did 29-34 M trial-pieces/s at n = 3 and 45-69 M/s at
# n = 50, and a block cost 18-21 us, about 600 trial-pieces at the
# slowest rate, so _MAX_WORK is about 5 s at n = 3 (4.5 s measured).
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
        if n > _SLAB_FLOATS:
            raise ResourceLimitError(f"n={n} pieces do not fit one slab (limit {_SLAB_FLOATS})")
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


def _hit_mask(mode: str, k: int, pieces: np.ndarray) -> np.ndarray:
    # pieces: (rows, n), each row sorted decreasing.  Window i of "none"
    # holds piece i against sums[i + k - 1] - sums[i], the sum of its
    # other k - 1 pieces; "forall" holds the largest piece against the
    # k - 1 smallest.
    n = pieces.shape[1]
    sums = np.cumsum(pieces, axis=1)
    if mode in ("none", "exists"):
        m = n - k + 1
        none = (pieces[:, :m] >= sums[:, k - 1 :] - sums[:, :m]).all(axis=1)
        return none if mode == "none" else ~none
    return pieces[:, 0] < sums[:, -1] - sums[:, n - k]


def _run_block(mode: str, k: int, n: int, block_trials: int, block_seed: int) -> int:
    rng = np.random.default_rng(block_seed)
    hits = 0
    slab_rows = max(1, _SLAB_FLOATS // n)
    for start in range(0, block_trials, slab_rows):
        rows = min(slab_rows, block_trials - start)
        pieces = rng.standard_exponential((rows, n))
        pieces.sort(axis=1)
        pieces = pieces[:, ::-1]
        hits += int(np.count_nonzero(_hit_mask(mode, k, pieces)))
    return hits


def estimate(config: SimConfig) -> SimResult:
    """Run the simulation described by config and return the estimate."""
    n = config.spec.n
    k = n if config.mode == "ngon" else config.spec.k
    base, extra = divmod(config.trials, config.chunks)
    hits = sum(
        _run_block(config.mode, k, n, base + (b < extra), _chunk_seed(config.seed, b))
        for b in range(min(config.chunks, config.trials))
    )
    p = hits / config.trials
    return SimResult(
        hits=hits,
        trials=config.trials,
        estimate=p,
        stderr=sqrt(p * (1.0 - p) / config.trials),
        seed=config.seed,
        chunks=config.chunks,
    )
