"""Seeded request streams for the benchmark's three workloads.

A workload is a list of CLI requests (one pass).  The benchmark replays
the list in a closed loop: one client, one process, the next request
sent only after the previous one returns.  The seed picks small size
offsets, none or exists where they cost the same, simulation seeds and
the order of the pass.  Event kinds, output options, trace flags and the
scaling points go by slot, so every seed gives a pass of about the same
cost and the same layers carry the same share of the work.

Each ``Request`` carries the argv handed to ``brokenstick.cli.main`` and
the ``params`` block the CLI must echo back for it; the checker reads
the expected answer off ``params`` alone.

Why each workload exists:

* ``exact-sweep``: ``prob``, ``omega`` and ``fib`` over a (k, n) sweep
  from (3, 3) up to the scaling points none (50, 500) and (100, 1000),
  forall (20, 400) and omega (30, 300).  Most requests are tiny, so
  ``cli`` sets the median latency; the scaling points make
  ``probability``/``genfib``/``omega`` set the tail.  ``montecarlo`` and
  ``counting`` stay idle.
* ``simulate``: ``simulate`` over all four modes with (k, n) from (3, 3)
  to (20, 200) and 10^3 to 3*10^5 trials.  Some requests use
  ``--chunks 1`` so one block is larger than a 2^18-row slab at n >= 50.
  ``montecarlo`` does nearly all the work: small requests expose
  per-call overhead, large ones kernel throughput and slab memory.  The
  n = 1000 case, about 2 GB per array, is left out so that a shared
  8 GB machine stays safe.
* ``oracles``: ``count`` by all three oracles (brute only at small
  totals), ``hermite`` with totals up to a few thousand and ``verify``
  over the lemma1, prop2, hermite and asymptotic suites.  ``counting``
  and ``verification`` dominate, and ``omega``/``genfib`` run many small
  eliminations instead of a few large ones.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from typing import NamedTuple

from reference import renyi

WORKLOADS = ("exact-sweep", "simulate", "oracles")


class Request(NamedTuple):
    argv: tuple[str, ...]
    params: dict

    @property
    def command(self) -> str:
        return self.argv[0]


def _prob(event: str, k: int, n: int, decimal: int | None) -> Request:
    if event == "ngon":
        argv = ["prob", "ngon", "--n", str(n)]
        params = {"event": "ngon", "n": n}
    else:
        argv = ["prob", event, "--k", str(k), "--n", str(n)]
        params = {"event": event, "k": k, "n": n}
    if decimal is not None:
        argv += ["--decimal", str(decimal)]
        params["decimal"] = decimal
    return Request(tuple(argv), params)


def _omega(k: int, n: int, trace: bool) -> Request:
    argv = ["omega", "--k", str(k), "--n", str(n)] + (["--trace"] if trace else [])
    return Request(tuple(argv), {"k": k, "n": n, "trace": trace})


def _fib(k: int, upto: int) -> Request:
    return Request(("fib", "--k", str(k), "--upto", str(upto)), {"k": k, "upto": upto})


def _count(k: int, n: int, total: int, oracle: str) -> Request:
    argv = ("count", "--k", str(k), "--n", str(n), "--N-value", str(total), "--oracle", oracle)
    params = {"k": k, "n": n, "n_value": total, "oracle": oracle, "positivity": "nonneg"}
    return Request(argv, params)


def _hermite(n: int, total: int) -> Request:
    return Request(
        ("hermite", "--n", str(n), "--N-value", str(total)), {"n": n, "n_value": total}
    )


def _simulate(mode: str, k: int, n: int, trials: int, seed: int, chunks: int) -> Request:
    argv = (
        "simulate", "--mode", mode, "--k", str(k), "--n", str(n),
        "--trials", str(trials), "--seed", str(seed), "--chunks", str(chunks),
    )
    params = {"mode": mode, "k": k, "n": n, "trials": trials, "seed": seed, "chunks": chunks}
    return Request(argv, params)


# verify flag -> (argv flag, params key) per suite, as the CLI echoes them.
_VERIFY_FLAGS = {
    "lemma1": {"max_total": ("--max-total", "max_total")},
    "prop2": {},
    "hermite": {"max_total": ("--max-total", "max_total"), "ratio_n": ("--ratio-n", "ratio_total")},
    "asymptotic": {"ratio_n": ("--ratio-n", "big_total")},
}


def _verify(suite: str, **flags: int) -> Request:
    argv = ["verify", "--suite", suite]
    params: dict = {"suite": suite}
    for attr, value in flags.items():
        flag, key = _VERIFY_FLAGS[suite][attr]
        argv += [flag, str(value)]
        params[key] = value
    return Request(tuple(argv), params)


def _exact_sweep(rng: random.Random) -> list[Request]:
    # Event kinds, output options and trace flags go by slot so that every
    # seed sends the same amount of work; the seed picks n offsets, none
    # or exists (which cost the same), and the order.
    reqs = []
    decimals = (None, 6, None, 30)
    # Dense tiny grid: every k in 3..12 with six n values above it.
    for k in range(3, 13):
        for j, n in enumerate(sorted(rng.sample(range(k, k + 10), 6))):
            event = rng.choice(("none", "exists")) if j % 2 else "forall"
            reqs.append(_prob(event, k, n, decimals[j % 4]))
    # Ladders from small points up to the scaling points.
    for j, (k, n) in enumerate(((4, 20), (6, 40), (8, 60), (10, 80), (15, 120), (20, 200), (25, 250))):
        reqs.append(_prob(rng.choice(("none", "exists")), k, n, decimals[j % 4]))
    for j, (k, n) in enumerate(((5, 40), (8, 80), (12, 150), (15, 250))):
        reqs.append(_prob("forall", k, n, decimals[j % 4]))
    for j, n in enumerate(range(3, 41, 3)):
        n += rng.randrange(3)
        reqs.append(_prob("ngon", n, n, decimals[j % 4]))
    for k in range(3, 11):
        reqs.append(_omega(k, 3 * k + rng.randrange(3), k % 2 == 0))
    reqs.append(_omega(12, 60, False))
    reqs.append(_omega(20, 100, True))
    for k in range(2, 9):
        reqs.append(_fib(k, 150 + rng.randrange(20)))
    # Scaling points, fixed for every seed.
    reqs.append(_prob("none", 50, 500, 30))
    reqs.append(_prob("none", 100, 1000, None))
    reqs.append(_prob("forall", 20, 400, 6))
    reqs.append(_omega(30, 300, True))
    return reqs


# The (k, n) points whose none probability lies in [0.02, 0.75], with
# that probability rounded.
_NONE_MODERATE = {
    (3, 3): 0.75, (3, 4): 0.43, (3, 5): 0.18, (4, 4): 0.5, (4, 5): 0.17,
    (5, 5): 0.31, (5, 6): 0.062, (6, 6): 0.19, (8, 8): 0.062, (10, 10): 0.020,
}


def _sim_p(mode: str, k: int, n: int) -> float | None:
    """Probability of the simulated event, or None when it is not known here.

    forall and ngon use the Renyi formula.  none and exists are known on
    the moderate table, and for n >= max(k + 8, 20) the none probability
    is below 1e-12 (it is 1.3e-10 at (4, 12) and falls with n).
    """
    if mode in ("forall", "ngon"):
        return float(renyi(n if mode == "ngon" else k, n))
    p_none = _NONE_MODERATE.get((k, n))
    if p_none is None and n >= max(k + 8, 20):
        p_none = 0.0
    if p_none is None:
        return None
    return p_none if mode == "none" else 1.0 - p_none


def _checkable(mode: str, k: int, n: int, trials: int) -> bool:
    """True when a 5-stderr check cannot fail by chance in practice.

    Either the rarer outcome is expected at least 200 times, or less
    than 1e-6 times in the whole request.
    """
    p = _sim_p(mode, k, n)
    if p is None:
        return False
    rare = trials * min(p, 1.0 - p)
    return rare >= 200 or rare < 1e-6


_MODES = ("none", "exists", "forall", "ngon")


def _pick_sim(rng: random.Random, mode: str, points, trials: int, chunks: int) -> Request:
    """A request in the given mode at a random point where its check is sound."""
    if mode == "ngon":
        points = [(n, n) for _, n in points]
    k, n = rng.choice([(k, n) for k, n in points if _checkable(mode, k, n, trials)])
    return _simulate(mode, k, n, trials, rng.randrange(2**64), chunks)


def _simulate_stream(rng: random.Random) -> list[Request]:
    # Modes, sizes and chunking go by slot so that every seed sends the
    # same amount of work; the seed picks the tiny points and the seeds.
    reqs = []
    tiny = list(_NONE_MODERATE) + [(3, 6), (4, 6), (5, 7), (6, 8)]
    for j in range(80):
        trials = (1_000, 2_000, 5_000)[j % 3]
        reqs.append(_pick_sim(rng, _MODES[j % 4], tiny, trials, (1, 8)[j // 4 % 2]))
    for j in range(24):
        mode, n, k = _MODES[j % 4], (20, 30, 40)[j // 4 % 3], (3, 12)[j // 12]
        # ngon is checkable at 2e4 trials only once n/2^(n-1) is negligible.
        point = (n + 25, n + 25) if mode == "ngon" else (k, n)
        reqs.append(_pick_sim(rng, mode, [point], 20_000, (1, 8)[j // 4 % 2]))
    # Large requests: block rows x n stays within 2^18 x 50 float64s.
    for mode, k, n, trials, chunks in (
        ("none", 5, 50, 300_000, 1),  # one block of 3e5 rows: more than one slab
        ("exists", 10, 60, 200_000, 1),
        ("ngon", 100, 100, 100_000, 8),
        ("forall", 20, 200, 50_000, 8),
    ):
        reqs.append(_pick_sim(rng, mode, [(k, n)], trials, chunks))
    return reqs


def _oracles(rng: random.Random) -> list[Request]:
    # Sizes are fixed per slot and the seed adds a few percent of jitter,
    # so that every seed sends the same amount of work.
    reqs = []
    # brute only at small totals; parts and series at any total.
    small = ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6))
    for total in (12, 20, 28):
        for k, n in small:
            reqs.append(_count(k, n, total + rng.randrange(3), "brute"))
    for k in range(3, 9):
        for extra, total in ((0, 500), (4, 1000), (8, 1800)):
            for oracle in ("parts", "series"):
                reqs.append(_count(k, k + extra, total + rng.randrange(50), oracle))
    for n in range(3, 9):
        for total in (40, 100, 180, 260, 340):
            reqs.append(_hermite(n, total + rng.randrange(20)))
    for n, total in ((3, 1000), (4, 2000), (5, 3000)):
        reqs.append(_hermite(n, total + rng.randrange(50)))
    for _ in range(2):
        reqs.append(_verify("lemma1", max_total=20 + rng.randrange(2)))
        reqs.append(_verify("lemma1"))
        reqs.append(_verify("hermite", max_total=20 + rng.randrange(5), ratio_n=400 + rng.randrange(50)))
        reqs.append(_verify("hermite"))
        reqs.append(_verify("asymptotic"))
    # Six requests of one cost straddle the 90th percentile, so that it
    # does not jump between two unlike requests from run to run.
    for _ in range(6):
        reqs.append(_verify("asymptotic", ratio_n=60_000 + rng.randrange(5_000)))
    for _ in range(4):
        reqs.append(_verify("prop2"))
    return reqs


_GENERATORS = {"exact-sweep": _exact_sweep, "simulate": _simulate_stream, "oracles": _oracles}


def build(workload: str, seed: int) -> list[Request]:
    """One pass of the workload's requests, in a seed-shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def list_hash(reqs: list[Request]) -> str:
    """sha256 of the argv list, to tie a result to the exact requests run."""
    return hashlib.sha256(json.dumps([r.argv for r in reqs]).encode()).hexdigest()


def _kind(req: Request) -> str:
    p = req.params
    if req.command == "prob":
        return f"prob {p['event']}"
    if req.command == "simulate":
        return f"simulate {p['mode']}"
    if req.command in ("count", "verify"):
        return f"{req.command} {p.get('oracle') or p.get('suite')}"
    return req.command


def shape(reqs: list[Request]) -> dict:
    """Traffic shape of one pass: mix, repeated (k, n), distinct k, trials."""
    keys = [
        (r.params.get("k", r.params["n"]), r.params["n"])
        for r in reqs
        if "n" in r.params
    ]
    return {
        "requests_per_pass": len(reqs),
        "by_kind": dict(sorted(Counter(_kind(r) for r in reqs).items())),
        "repeated_kn_share": round(1 - len(set(keys)) / len(keys), 4) if keys else 0.0,
        "distinct_k": len({k for k, _ in keys}),
        "trials_per_pass": sum(r.params.get("trials", 0) for r in reqs if r.command == "simulate"),
    }
