"""Monte Carlo estimation of the polygon probabilities.

A trial breaks the unit stick at n - 1 uniform points and sorts the
pieces in decreasing order.  The "none" event requires every window of
k consecutive pieces to fail the polygon inequality (the window's first
piece at least as large as the sum of the other k - 1; ties fail to
close, matching the exact formulas).  "forall" requires even the
hardest selection to close: the largest piece strictly below the sum of
the k - 1 smallest.  "exists" is the complement of "none" and "ngon" is
"forall" with k = n.

Reproducibility contract: an estimate is a pure function of
(mode, k, n, trials, seed, chunks).  Trials are split across ``chunks``
blocks as evenly as possible, earlier blocks one trial larger when the
division is not exact.  Block b (0-based) uses its own PCG64 generator
seeded with

    splitmix64((seed + (b + 1) * 0x9E3779B97F4A7C15) mod 2^64)

where splitmix64 is the usual xor-shift finalizer.  Blocks therefore
never share a stream, and each block can be reproduced in isolation.

A block is drawn in slabs of max(1, 2^22 // n) trials, so each float64
array of a slab stays near 32 MiB at any n.  PCG64 fills rows one after
another, so hits do not depend on the slab size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from .probability import ProblemSpec

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_CHUNKS",
    "MODES",
    "SimConfig",
    "SimResult",
    "break_stick",
    "predicate_none",
    "predicate_forall",
    "estimate",
]

# Arbitrary fixed default; the acceptance checks pin their expectations
# to runs with exactly this seed.
DEFAULT_SEED = 2654435769
DEFAULT_CHUNKS = 8

MODES = ("none", "exists", "forall", "ngon")

# Floats per slab array (32 MiB of float64); see the module docstring.
_SLAB_FLOATS = 1 << 22

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


@dataclass(frozen=True)
class SimResult:
    """Outcome of a run; estimate = hits / trials, stderr the binomial one."""

    hits: int
    trials: int
    estimate: float
    stderr: float
    seed: int
    chunks: int


def break_stick(n: int, rng: np.random.Generator) -> np.ndarray:
    """Pieces of a unit stick broken at n - 1 uniform points, sorted decreasing."""
    if n < 2:
        raise ValueError(f"need at least 2 pieces, got {n}")
    cuts = np.sort(rng.random(n - 1))
    pieces = np.diff(cuts, prepend=0.0, append=1.0)
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


def _hit_mask(mode: str, k: int, pieces: np.ndarray) -> np.ndarray:
    # pieces: (rows, n), each row sorted decreasing.
    n = pieces.shape[1]
    sums = np.cumsum(pieces, axis=1)
    total = sums[:, -1]
    if mode == "ngon":
        return pieces[:, 0] < total - pieces[:, 0]
    if mode == "forall":
        return pieces[:, 0] < total - sums[:, n - k]
    none = np.ones(pieces.shape[0], dtype=bool)
    for i in range(n - k + 1):
        window_tail = sums[:, i + k - 1] - sums[:, i]
        none &= pieces[:, i] >= window_tail
    return none if mode == "none" else ~none


def _run_block(mode: str, k: int, n: int, block_trials: int, block_seed: int) -> int:
    rng = np.random.default_rng(block_seed)
    hits = 0
    left = block_trials
    slab_rows = max(1, _SLAB_FLOATS // n)
    while left:
        rows = min(left, slab_rows)
        cuts = rng.random((rows, n - 1))
        cuts.sort(axis=1)
        pieces = np.diff(cuts, axis=1, prepend=0.0, append=1.0)
        pieces.sort(axis=1)
        pieces = pieces[:, ::-1]
        hits += int(np.count_nonzero(_hit_mask(mode, k, pieces)))
        left -= rows
    return hits


def estimate(config: SimConfig) -> SimResult:
    """Run the simulation described by config and return the estimate."""
    n = config.spec.n
    k = n if config.mode == "ngon" else config.spec.k
    base, extra = divmod(config.trials, config.chunks)
    sizes = [base + (1 if b < extra else 0) for b in range(config.chunks)]
    hits = sum(
        _run_block(config.mode, k, n, size, _chunk_seed(config.seed, b))
        for b, size in enumerate(sizes)
        if size
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
