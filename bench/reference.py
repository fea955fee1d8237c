"""Independent answers for every response the benchmark checks.

Each reference reaches the answer by a route other than the one the
request exercised:

* forall and ngon: the Renyi (1953) representation.  Sorted spacings of
  a broken stick are order statistics of i.i.d. Exp(1) variables, so the
  event becomes sum_j c_j E_j > 0 with
  c_j = (max(0, k - j) - 1) / (n - j + 1), whose probability is the
  partial-fraction sum sum_{c_j > 0} prod_{i != j} c_j / (c_j - c_i).
* none: n! over the product of the exponents the ``omega`` elimination
  engine produces, against ``prob_none``'s step-Fibonacci parts; exists
  is 1 - none.
* omega: the sorted exponents against ``genfib.parts_multiset``.
* fib: the step-Fibonacci recurrence, written out here.
* hermite: C(N-1, n-1) - n C(N - floor(N/2) - 1, n - 1), since at most
  one part can exceed N/2.
* count: a coin-change count here over the part sizes of the route the
  request did not take (elimination exponents for ``brute`` and
  ``parts``, ``parts_multiset`` for ``series``).
* simulate: within 5 standard errors of the exact probability, the
  standard error taken from the exact probability.
* verify: the suite reports ``passed``.

``References`` caches per (k, n) so that repeated points are computed
once per run.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, prod, sqrt


def renyi(k: int, n: int) -> Fraction:
    """P(every k of n broken-stick pieces close a k-gon), by Renyi's representation."""
    c = [Fraction(max(0, k - j) - 1, n - j + 1) for j in range(1, n + 1)]
    total = Fraction(0)
    for j, cj in enumerate(c):
        if cj > 0:
            total += prod(
                (cj / (cj - ci) for i, ci in enumerate(c) if i != j), start=Fraction(1)
            )
    return total


def hermite_closed(n: int, total: int) -> int:
    """Compositions of total into n positive parts, each at most total / 2."""

    def c(a: int, b: int) -> int:
        return comb(a, b) if a >= 0 else 0

    return c(total - 1, n - 1) - n * c(total - total // 2 - 1, n - 1)


def step_fib(k: int, upto: int) -> tuple[list[int], list[int]]:
    """Order-k step-Fibonacci terms 0..upto and their running sums."""
    terms = [0] * (k - 1) + [1]
    while len(terms) <= upto:
        terms.append(sum(terms[-k:]))
    terms = terms[: upto + 1]
    sums, acc = [], 0
    for t in terms:
        acc += t
        sums.append(acc)
    return terms, sums


def coin_count(parts, total: int) -> int:
    """Ways to write total as a sum of the given part sizes, repetition allowed."""
    ways = [1] + [0] * total
    for p in parts:
        for s in range(p, total + 1):
            ways[s] += ways[s - p]
    return ways[total]


def _decimal(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


class References:
    """Reference answers, computed on demand and cached for one run."""

    def __init__(self):
        from brokenstick.genfib import parts_multiset
        from brokenstick.omega import run_elimination
        from brokenstick.probability import ProblemSpec

        self._parts_multiset = parts_multiset
        self._run_elimination = run_elimination
        self._spec = ProblemSpec
        self._exponents: dict[tuple[int, int], tuple[int, ...]] = {}
        self._forall: dict[tuple[int, int], Fraction] = {}

    def exponents(self, k: int, n: int) -> tuple[int, ...]:
        """Exponents of the closed product from the elimination engine."""
        if (k, n) not in self._exponents:
            self._exponents[k, n] = self._run_elimination(self._spec(k, n)).exponents
        return self._exponents[k, n]

    def parts(self, k: int, n: int) -> tuple[int, ...]:
        return self._parts_multiset(k, n)

    def none(self, k: int, n: int) -> Fraction:
        return Fraction(factorial(n), prod(self.exponents(k, n)))

    def forall(self, k: int, n: int) -> Fraction:
        if (k, n) not in self._forall:
            self._forall[k, n] = renyi(k, n)
        return self._forall[k, n]

    def probability(self, event: str, k: int, n: int) -> Fraction:
        if event == "none":
            return self.none(k, n)
        if event == "exists":
            return 1 - self.none(k, n)
        if event == "forall":
            return self.forall(k, n)
        return self.forall(n, n)


def _check_prob(refs: References, p: dict, result: dict) -> str | None:
    want = refs.probability(p["event"], p.get("k", p["n"]), p["n"])
    if Fraction(result["probability"]) != want:
        return f"probability {result['probability'][:60]} is not the reference"
    if "decimal" in p and result.get("decimal") != _decimal(want, p["decimal"]):
        return f"decimal {result.get('decimal')} is not the rounded reference"
    return None


def _check_omega(refs: References, p: dict, result: dict) -> str | None:
    want = sorted(refs.parts(p["k"], p["n"]))
    got = [int(e) for e in result["sorted_exponents"]]
    if got != want or sorted(int(e) for e in result["exponents"]) != want:
        return "exponents differ from parts_multiset"
    if p["trace"] and len(result["steps"]) != p["n"] - 1:
        return f"trace has {len(result['steps'])} steps, expected n - 1 = {p['n'] - 1}"
    return None


def _check_fib(refs: References, p: dict, result: dict) -> str | None:
    terms, sums = step_fib(p["k"], p["upto"])
    if [int(t) for t in result["terms"]] != terms:
        return "terms differ from the recurrence"
    if [int(s) for s in result["partial_sums"]] != sums:
        return "partial sums differ from the recurrence"
    return None


def _check_count(refs: References, p: dict, result: dict) -> str | None:
    k, n = p["k"], p["n"]
    parts = refs.parts(k, n) if p["oracle"] == "series" else refs.exponents(k, n)
    want = coin_count(parts, p["n_value"])
    if int(result["count"]) != want:
        return f"count {result['count']} != second oracle {want}"
    return None


def _check_hermite(refs: References, p: dict, result: dict) -> str | None:
    want = hermite_closed(p["n"], p["n_value"])
    if int(result["count"]) != want:
        return f"count {result['count']} != closed form {want}"
    return None


def _check_simulate(refs: References, p: dict, result: dict) -> str | None:
    hits, trials = int(result["hits"]), int(result["trials"])
    if trials != p["trials"] or not 0 <= hits <= trials:
        return f"hits {hits} of {trials} trials is not a valid outcome"
    exact = float(refs.probability(p["mode"], p["k"], p["n"]))
    err = abs(hits / trials - exact)
    budget = 5 * sqrt(exact * (1 - exact) / trials)
    if err > budget:
        return f"estimate {hits / trials:.6f} vs exact {exact:.6f}: error {err:.2e} > {budget:.2e}"
    return None


def _check_verify(refs: References, p: dict, result: dict) -> str | None:
    if result["passed"] is not True:
        return f"suite {p['suite']} did not pass"
    return None


_CHECKS = {
    "prob": _check_prob,
    "omega": _check_omega,
    "fib": _check_fib,
    "count": _check_count,
    "hermite": _check_hermite,
    "simulate": _check_simulate,
    "verify": _check_verify,
}


def check(refs: References, command: str, params: dict, code, out: str) -> str | None:
    """Why one response is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        record = json.loads(out)
    except ValueError:
        return "stdout is not one JSON record"
    if record.get("command") != command or record.get("params") != params:
        return "record does not echo the request"
    try:
        return _CHECKS[command](refs, params, record["result"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed result: {exc!r}"
