"""Cross-validation suites pairing each fast path with an independent oracle.

Each suite returns a list of ``Check`` records; a suite passes when
every check does.  The command line exposes them under ``verify`` and
the acceptance tests reuse them directly, so the grids and tolerances
here are the single source of truth for what "verified" means.

Only the suites that eliminate (lemma1, prop2) import ``omega``, and
only the montecarlo suite imports ``montecarlo``, each when it runs, so
``verify`` loads no module its suite does not run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .counting import (
    _check_walk, _constrained_counts, _restricted_table, asymptotic_ratio, hermite_coeff
)
from .genfib import f_sum, parts_multiset
from .probability import (
    DEFAULT_CHUNKS, DEFAULT_SEED, ProblemSpec, ResourceLimitError, prob_forall, prob_ngon, prob_none
)

__all__ = [
    "Check",
    "suite_lemma1",
    "suite_prop2",
    "suite_asymptotic",
    "suite_hermite",
    "suite_montecarlo",
    "SUITES",
    "run_suite",
]


# suite_hermite's cost is its composition DP: about 3 n t^2 / 8 additions
# at total t, so n T^3 / 8 over totals 0..T.  The default n = 3, 4, 5
# took 5.9 s at T = 400 (9.6 * 10^7 steps) and 9.7 s at 475 (1.6 * 10^8).
_HERMITE_MAX_STEPS = 160_000_000


@dataclass(frozen=True)
class Check:
    """One named pass/fail observation with a human-readable detail."""

    name: str
    ok: bool
    detail: str = ""


def suite_lemma1(
    k_values: tuple[int, ...] = (3, 4, 5),
    n_extra: int = 3,
    max_total: int = 30,
) -> list[Check]:
    """Counting routes against each other, coefficient by coefficient.

    For each (k, n) on the grid, three independent counts per total:
    the series expansion of the eliminated closed product, the
    partition DP over the predicted part sizes, and the exhaustive
    count of nonnegative solutions of the window system.  All three
    must agree for every total up to ``max_total``.  The exhaustive count
    is the suite's cost: before any of it, a (k, n) whose walk over totals
    0..``max_total`` passes the walk's node cap raises
    ``ResourceLimitError`` (past max_total 107 on the default grid).
    """
    from .omega import run_elimination

    if max_total < 0:
        raise ValueError(f"truncation order must be nonnegative, got {max_total}")
    grid = [ProblemSpec(k, n) for k in k_values for n in range(k, k + n_extra + 1)]
    for spec in grid:
        _check_walk(spec, 0, max_total)
    checks = []
    for spec in grid:
        k, n = spec.k, spec.n
        coeffs = _restricted_table(run_elimination(spec).exponents, max_total)
        by_parts = _restricted_table(parts_multiset(k, n), max_total)
        direct = _constrained_counts(spec, 0, max_total)
        bad = None
        for total in range(max_total + 1):
            if coeffs[total] != direct[total] or by_parts[total] != direct[total]:
                bad = (total, coeffs[total], by_parts[total], direct[total])
                break
        name = f"series/parts/direct counts agree, k={k} n={n} totals 0..{max_total}"
        if bad is None:
            checks.append(Check(name, True, "all three routes agree"))
        else:
            checks.append(
                Check(
                    name,
                    False,
                    f"total {bad[0]}: series {bad[1]}, parts {bad[2]}, direct {bad[3]}",
                )
            )
    return checks


def suite_prop2(
    k_values: tuple[int, ...] = (3, 4, 5, 6),
    n_extra: int = 4,
) -> list[Check]:
    """Eliminated exponents against the step-Fibonacci prediction.

    The grid check compares multisets for k in ``k_values`` and
    n = k .. k + n_extra.  The k = 4 rows n = 6..10 are additionally
    checked against the explicit form {f_3(2..n)} + {1 + f_3(n-2) + f_3(n)}.
    """
    from .omega import run_elimination

    checks = []
    for k in k_values:
        for n in range(k, k + n_extra + 1):
            spec = ProblemSpec(k, n)
            got = run_elimination(spec).sorted_exponents()
            want = tuple(sorted(parts_multiset(k, n)))
            checks.append(
                Check(
                    f"eliminated exponents match prediction, k={k} n={n}",
                    got == want,
                    f"got {got}, predicted {want}",
                )
            )
    for n in range(6, 11):
        got = run_elimination(ProblemSpec(4, n)).sorted_exponents()
        want = tuple(
            sorted([f_sum(3, i) for i in range(2, n + 1)] + [1 + f_sum(3, n - 2) + f_sum(3, n)])
        )
        checks.append(
            Check(
                f"k=4 explicit exponent form, n={n}",
                got == want,
                f"got {got}, expected {want}",
            )
        )
    return checks


def suite_asymptotic(
    big_total: int = 100_000, small_total: int = 1_000, rel_tol: float = 0.02
) -> list[Check]:
    """Leading-order growth of the restricted-partition counts.

    Uses the (3, 4) system, whose part sizes are {1, 2, 4, 7}.  The
    count-over-prediction ratio must sit within ``rel_tol`` of 1 at the
    big total and be closer to 1 there than at the small total.
    """
    spec = ProblemSpec(3, 4)
    got = tuple(sorted(parts_multiset(spec.k, spec.n)))
    r_big, r_small = asymptotic_ratio(spec, big_total), asymptotic_ratio(spec, small_total)
    gap_big, gap_small = abs(r_big - 1), abs(r_small - 1)
    return [
        Check("part sizes for (3, 4)", got == (1, 2, 4, 7), f"got {got}"),
        Check(f"ratio within {rel_tol} of 1 at total {big_total}", gap_big <= rel_tol,
              f"ratio {float(r_big):.6f}"),
        Check(f"ratio closer to 1 at {big_total} than at {small_total}", gap_big < gap_small,
              f"gap {float(gap_big):.2e} vs {float(gap_small):.2e}"),
    ]


def _composition_count(n: int, total: int) -> int:
    # Compositions of total into n positive parts each <= total // 2,
    # by direct DP; the independent oracle for hermite_coeff.
    cap = total // 2
    ways = [1] + [0] * total
    for _ in range(n):
        nxt = [0] * (total + 1)
        for s, w in enumerate(ways):
            if w:
                for a in range(1, min(cap, total - s) + 1):
                    nxt[s + a] += w
        ways = nxt
    return ways[total]


def suite_hermite(
    n_values: tuple[int, ...] = (3, 4, 5),
    max_total: int = 25,
    ratio_total: int = 400,
    ratio_tol: float = 0.05,
) -> list[Check]:
    """Polygon-composition series against a direct composition count.

    Exact agreement for every total up to ``max_total``, then a check
    that hermite_coeff(n, N) / C(N-1, n-1), the probability that a
    uniformly random composition closes an n-gon, is within
    ``ratio_tol`` of the continuous value 1 - n/2^(n-1) at N = ratio_total
    (first two n values only; the gap shrinks like 1/N).  A ratio_total
    below either of those n values has no compositions to divide by and
    raises ``ValueError``, as does a negative ``max_total``.  Past the
    cost bound above (max_total 474 for the default n values) raises
    ``ResourceLimitError``.
    """
    least = max(n_values[:2], default=0)
    if ratio_total < least:
        raise ValueError(f"ratio total must be at least {least}, got {ratio_total}")
    if max_total < 0:
        raise ValueError(f"truncation order must be nonnegative, got {max_total}")
    ResourceLimitError._check(
        sum(n_values) * max_total**3 // 8, _HERMITE_MAX_STEPS, "DP steps",
        "the hermite suite to total {} costs about", max_total,
    )
    checks = []
    for n in n_values:
        bad = None
        for total in range(max_total + 1):
            series = hermite_coeff(n, total)
            direct = _composition_count(n, total)
            if series != direct:
                bad = (total, series, direct)
                break
        name = f"series equals composition count, n={n} totals 0..{max_total}"
        if bad is None:
            checks.append(Check(name, True, "all coefficients agree"))
        else:
            checks.append(
                Check(name, False, f"total {bad[0]}: series {bad[1]} vs direct {bad[2]}")
            )
    for n in n_values[:2]:
        discrete = Fraction(hermite_coeff(n, ratio_total), comb(ratio_total - 1, n - 1))
        target = prob_ngon(n)
        gap = abs(discrete - target)
        checks.append(
            Check(
                f"discrete n-gon fraction near continuous, n={n} total {ratio_total}",
                gap <= ratio_tol,
                f"discrete {float(discrete):.6f} vs exact {float(target):.6f}",
            )
        )
    return checks


def suite_montecarlo(
    trials: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    chunks: int = DEFAULT_CHUNKS,
    sigma: float = 4.0,
) -> list[Check]:
    """Simulation against the exact formulas, within sigma standard errors.

    The seven runs together must fit one simulation's cost bound.
    """
    from .montecarlo import _MAX_WORK, SimConfig, _work, estimate

    cases = [
        ("none", 3, 3),
        ("none", 3, 5),
        ("none", 4, 5),
        ("none", 5, 6),
        ("forall", 3, 4),
        ("forall", 4, 5),
        ("ngon", 5, 5),
    ]
    configs = [
        SimConfig(spec=ProblemSpec(k, n), mode=mode, trials=trials, seed=seed, chunks=chunks)
        for mode, k, n in cases
    ]
    ResourceLimitError._check(
        sum(_work(config) for config in configs), _MAX_WORK, "trial-pieces",
        "the montecarlo suite at {} trials per case costs", trials,
    )
    checks = []
    for (mode, k, n), config in zip(cases, configs):
        spec = config.spec
        if mode == "none":
            exact = prob_none(spec)
        elif mode == "forall":
            exact = prob_forall(spec)
        else:
            exact = prob_ngon(n)
        result = estimate(config)
        err = abs(result.estimate - float(exact))
        budget = sigma * result.stderr
        checks.append(
            Check(
                f"simulated {mode} (k={k}, n={n}) within {sigma:g} stderr of exact",
                err <= budget,
                f"estimate {result.estimate:.6f}, exact {float(exact):.6f},"
                f" error {err:.2e}, budget {budget:.2e}",
            )
        )
    return checks


SUITES = {
    "lemma1": suite_lemma1,
    "prop2": suite_prop2,
    "asymptotic": suite_asymptotic,
    "hermite": suite_hermite,
    "montecarlo": suite_montecarlo,
}


def run_suite(name: str, **kwargs) -> list[Check]:
    """Run one named suite with keyword overrides for its grid knobs."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choices: {sorted(SUITES)}") from None
    return suite(**kwargs)
