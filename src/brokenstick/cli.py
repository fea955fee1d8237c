"""Command-line interface.

Every successful invocation prints a single output record holding the
command name, the parameters it ran with, the result payload, and the
package version.  ``params`` is the parsed command line less the
subcommand and ``--format``: every option that has a value, defaults
included, by its destination name (``--N-value`` is ``n_value``).
``prob ngon`` echoes ``n`` alone, even given ``--k n``.  ``verify``
echoes each flag by its suite's keyword: ``--ratio-n`` is ``big_total``
for asymptotic and ``ratio_total`` for hermite; the rest keep their
names.  The default format is canonical JSON (sorted keys);
``--format csv`` and ``--format plain`` print the same record flattened
to dotted keys.  Integers inside the result payload are rendered as
decimal strings so arbitrarily large exact values survive any JSON
reader, and rationals are rendered as "numerator/denominator".  Each
``_cmd_*`` handler returns its payload so rendered, ready to print.

Each request is parsed once.  When its first argument names a
subcommand, that subcommand's parser alone parses the rest, and
arguments it does not take are reported as the full parser reports
them.  Any other argv (none at all, ``-h``, ``--version`` or an unknown
command) goes through the full parser.

Exit codes: 0 success, 2 usage error (a verify flag its suite does not
take is one), 3 domain or resource error, 4 verification suite failure.

A start imports only the modules its subcommand runs.  This module
imports the package's ``genfib`` and ``probability``, which also hold
the parser's choices and defaults, and each ``_cmd_*`` handler imports
the rest of what it calls (``omega``, ``counting``, ``montecarlo``,
``verification``, and through them numpy) when it runs.  So ``prob``
and ``fib`` load no other module.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from itertools import accumulate
from typing import Sequence

from . import ResourceLimitError, __version__
from .genfib import fib_table, parts_multiset
from .probability import (
    DEFAULT_CHUNKS,
    DEFAULT_SEED,
    MODES,
    ProblemSpec,
    _none_terms,
    _product,
    prob_forall,
    prob_ngon,
)

__all__ = ["main"]

# fib prints 2 (upto + 1) ints of up to upto bits each (the growth ratio
# is below 2), so output and memory grow like upto^2 and rendering like
# upto^3.  On a 2-core host: k = 2 takes 6.2 s and 317 MiB at upto =
# 20000, 20 s and 668 MiB at 30000; k = 40 takes 13 s at 20000.  Past
# this bound even k = 2 would run for about 10 s or more.
_FIB_MAX_UPTO = 24_000

# prob --decimal D adds a D-digit division to the probability.  On a
# 2-core host the division of the operands of none and exists at n = 4000
# (whose fractions alone take 3.5-8 s) took 0.8 s at D = 10^6, 3.3 s at
# 5 * 10^6 and 6.7 s at 10^7; with small operands a whole request took
# 0.01 s and 32 MiB of RSS at 10^6, and about 3 bytes per digit beyond.
# Past this bound D is refused before any work, so the largest served
# request stays near 10 s.
_DECIMAL_MAX_DIGITS = 1_000_000

# verify flags that each suite accepts, as CLI attr -> suite kwarg; its
# keys, which name every suite of verification.SUITES, are the --suite
# choices.
_SUITE_FLAGS: dict[str, dict[str, str]] = {
    "lemma1": {"max_total": "max_total"},
    "prop2": {},
    "asymptotic": {"ratio_n": "big_total"},
    "hermite": {"max_total": "max_total", "ratio_n": "ratio_total"},
    "montecarlo": {"trials": "trials", "seed": "seed", "chunks": "chunks"},
}


# Ints up to this many bits convert with Decimal(int) directly: near the
# measured crossover, where plain str(Decimal(v)) against the split below
# took 3.4 against 19 us at 1024 bits, 36 against 89 us at 4096, 0.51
# against 0.66 ms at 16384 and 8.0 against 4.6 ms at 65536 (2-core host).
# _decimal_product uses the same size for its int leaves.
_DIRECT_BITS = 1 << 14

# Exact arithmetic on Decimal ints: wide enough for any value, and any
# rounding raises.  Its methods compute in it without switching the
# thread's current context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


def _to_decimal(value: int) -> Decimal:
    # Exact int -> Decimal by splitting the bits in halves and joining
    # the halves as lo + hi * 2^w in decimal.  Decimal(int) alone is
    # quadratic in the digit count; libmpdec multiplies large operands
    # by number-theoretic transform, so the split costs O(M(d) log d).
    if value.bit_length() <= _DIRECT_BITS:
        return Decimal(value)
    two = Decimal(2)
    powers: dict[int, Decimal] = {}  # 2^w by w; at most two per level

    def split(v: int, w: int) -> Decimal:
        # -2^w <= v < 2^w
        if w <= _DIRECT_BITS:
            return Decimal(v)
        half = w >> 1
        if half not in powers:
            powers[half] = _EXACT.power(two, half)
        hi = v >> half
        return _EXACT.fma(split(hi, w - half), powers[half], split(v - (hi << half), half))

    return split(value, value.bit_length())


def _decimal_product(parts: tuple[int, ...]) -> Decimal:
    # Exact product of the parts by a balanced tree multiplied in
    # libmpdec, whose transform multiplication beats CPython's Karatsuba
    # on large operands.  A run of parts totalling at most _DIRECT_BITS
    # bits is one leaf: their int product, converted by _to_decimal.
    ends = list(accumulate((p.bit_length() for p in parts), initial=0))

    def tree(lo: int, hi: int) -> Decimal:
        if hi - lo == 1 or ends[hi] - ends[lo] <= _DIRECT_BITS:
            return _to_decimal(_product(parts[lo:hi]))
        mid = (lo + hi) // 2
        return _EXACT.multiply(tree(lo, mid), tree(mid, hi))

    return tree(0, len(parts))


def _digits(value: int) -> str:
    # Decimal prints every digit; str(int) stops at the interpreter's
    # int-to-str limit (4300 digits by default since Python 3.11).
    # Cost O(M(d) log d) for d digits, with libmpdec's transform
    # multiplication M(d) ~ d log d: about 60 ms for 150k digits and
    # 0.3 s for 600k on a 2-core host.  prob none|exists never convert
    # their denominator: _decimal_product builds it in Decimal.
    return str(_to_decimal(value))


def _decimal_str(num: Decimal, den: Decimal, digits: int) -> str:
    # num / den correctly rounded (half even) to the given significant digits.
    with localcontext() as ctx:
        # probabilities can lie below the default context's 10^-999999
        ctx.prec = digits
        ctx.Emin = MIN_EMIN
        return str(num / den)


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            _flatten(item, f"{prefix}.{idx}", out)
    else:
        out[prefix] = value


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
        return
    flat: dict = {}
    _flatten(record, "", flat)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        sys.stdout.write(buf.getvalue())
    else:
        for key, value in flat.items():
            print(f"{key} = {value}")


def _cmd_prob(event, n, k=None, decimal=None) -> dict:
    if decimal is not None:
        if decimal < 1:
            raise ValueError(f"need at least 1 significant digit, got {decimal}")
        if decimal > _DECIMAL_MAX_DIGITS:
            raise ResourceLimitError(f"--decimal {decimal} is past the limit {_DECIMAL_MAX_DIGITS}")
    if event == "ngon":
        if k not in (None, n):
            raise ValueError("prob ngon uses all n pieces; omit --k or set it to n")
    elif k is None:
        raise ValueError(f"prob {event} needs --k")
    if event in ("none", "exists"):
        # n! over the reduced parts is in lowest terms, and so is
        # (den - num) / den
        numerator, parts = _none_terms(ProblemSpec(k, n))
        num, den = _to_decimal(numerator), _decimal_product(parts)
        if event == "exists":
            num = _EXACT.subtract(den, num)
    elif event == "ngon":
        # 1 - n / 2^(n-1) is the denominator less n / 2^s, for 2^s the
        # power of two in n, so the numerator takes one exact subtraction
        value = prob_ngon(n)
        den = _to_decimal(value.denominator)
        num = _EXACT.subtract(den, Decimal(value.denominator - value.numerator))
    else:
        value = prob_forall(ProblemSpec(k, n))
        num, den = _to_decimal(value.numerator), _to_decimal(value.denominator)
    # The fraction string and the quotient share one conversion of each operand.
    result = {"probability": f"{num}/{den}"}
    if decimal is not None:
        result["decimal"] = _decimal_str(num, den, decimal)
    return result


def _cmd_fib(k, upto) -> dict:
    if upto < 0:
        raise ValueError(f"--upto must be nonnegative, got {upto}")
    if upto > _FIB_MAX_UPTO:
        raise ResourceLimitError(f"fib --upto {upto} is past the limit {_FIB_MAX_UPTO}")
    terms, sums = fib_table(k, upto)
    return {"terms": [_digits(t) for t in terms], "partial_sums": [_digits(s) for s in sums]}


def _cmd_omega(k, n, trace) -> dict:
    from .omega import run_elimination

    spec = ProblemSpec(k, n)
    if trace:
        product, steps = run_elimination(spec, trace=True)
    else:
        product = run_elimination(spec)
    # Each exponent, up to n bits, is converted to decimal once and the
    # strings are reused in sorted order.
    exponents = product.exponents
    digits = [_digits(e) for e in exponents]
    order = sorted(range(len(exponents)), key=exponents.__getitem__)
    result: dict = {"exponents": digits, "sorted_exponents": [digits[i] for i in order]}
    if trace:
        # A position is below n, which the trace bound keeps far under
        # str()'s digit limit; each is rendered once and shared.
        positions = [str(pos) for pos in range(n)]
        result["steps"] = [
            {
                "var": str(step.var),
                "consumed": [positions[pos] for pos in step.consumed],
                "produced": [fac.monomial() for fac in step.produced],
            }
            for step in steps
        ]
    return result


def _cmd_count(k, n, n_value, oracle, positivity) -> dict:
    from .counting import count_constrained, count_restricted

    spec = ProblemSpec(k, n)
    if oracle == "brute":
        return {"count": _digits(count_constrained(spec, n_value, positivity))}
    if n_value < 0:
        raise ValueError(f"total must be nonnegative, got {n_value}")
    if oracle == "parts":
        parts = parts_multiset(k, n)
    else:
        from .omega import run_elimination

        parts = run_elimination(spec).exponents
    # a positive count is the nonnegative count at the total less piece n's part
    shift = parts[-1] if positivity == "positive" else 0
    return {"count": _digits(count_restricted(parts, n_value - shift) if n_value >= shift else 0)}


def _cmd_hermite(n, n_value) -> dict:
    from .counting import hermite_coeff

    return {"count": _digits(hermite_coeff(n, n_value))}


def _cmd_simulate(mode, k, n, trials, seed, chunks) -> dict:
    from .montecarlo import SimConfig, estimate

    config = SimConfig(spec=ProblemSpec(k, n), mode=mode, trials=trials, seed=seed, chunks=chunks)
    # hits, trials, seed and chunks are ints; estimate and stderr floats.
    # vars() reads the fields in declaration order and copies nothing.
    return {
        key: value if isinstance(value, float) else _digits(value)
        for key, value in vars(estimate(config)).items()
    }


def _cmd_verify(suite, **kwargs) -> dict:
    from .verification import run_suite

    checks = run_suite(suite, **kwargs)
    return {
        "suite": suite,
        "passed": all(c.ok for c in checks),
        "total": str(len(checks)),
        "failed": str(sum(1 for c in checks if not c.ok)),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    }


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # The full parser, and the parser of each subcommand by name: the
    # subparsers action's choices, which the full parser itself runs.
    # One set per process: building them took 0.68 ms of a 0.75 ms
    # `prob none --k 4 --n 5` on a 2-core host.  Parsing leaves them
    # unchanged; they keep the `_cmd_*` handlers they were built with.
    # main hands a request naming a subcommand to that subcommand's parser
    # (the module docstring has the rule): through the full parser the top
    # level scans every argument before the subcommand parser scans them
    # again, about half of a 0.09 ms `prob forall --k 7 --n 12`.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "plain"),
        default="json",
        help="output format (default json)",
    )

    parser = argparse.ArgumentParser(
        prog="brokenstick",
        description="Exact and simulated polygon probabilities for broken sticks.",
    )
    parser.add_argument("--version", action="version", version=f"brokenstick {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", parents=[common], help="exact event probability")
    p.add_argument("event", choices=MODES)
    p.add_argument("--k", type=int, help="polygon size (not used for ngon)")
    p.add_argument("--n", type=int, required=True, help="number of pieces")
    p.add_argument("--decimal", type=int, metavar="D", help="also print D significant digits")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("fib", parents=[common], help="step-Fibonacci terms and running sums")
    p.add_argument("--k", type=int, required=True, help="sequence order (>= 2)")
    p.add_argument("--upto", type=int, required=True, help="largest index to print")
    p.set_defaults(func=_cmd_fib)

    p = sub.add_parser("omega", parents=[common], help="run the elimination engine")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="include per-step trace")
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("count", parents=[common], help="count solutions at a fixed total")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N-value", dest="n_value", type=int, required=True, metavar="M",
                   help="total being partitioned")
    p.add_argument("--oracle", choices=("brute", "parts", "series"), required=True)
    p.add_argument("--positivity", choices=("nonneg", "positive"), default="nonneg")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("hermite", parents=[common],
                       help="compositions closing an n-gon at a fixed total")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N-value", dest="n_value", type=int, required=True, metavar="M")
    p.set_defaults(func=_cmd_hermite)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo estimate")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--chunks", type=int, default=DEFAULT_CHUNKS)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", parents=[common], help="run a cross-validation suite")
    p.add_argument("--suite", choices=sorted(_SUITE_FLAGS), required=True)
    p.add_argument("--max-total", dest="max_total", type=int,
                   help="largest total checked (lemma1, hermite)")
    p.add_argument("--ratio-n", dest="ratio_n", type=int,
                   help="total used for the ratio checks (asymptotic, hermite)")
    p.add_argument("--trials", type=int, help="trials per case (montecarlo)")
    p.add_argument("--seed", type=int, help="simulation seed (montecarlo)")
    p.add_argument("--chunks", type=int, help="simulation chunks (montecarlo)")
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        # The params rule of the module docstring; each handler takes params as keywords.
        params = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "func", "format") and value is not None
        }
        if args.command == "verify":
            accepted = _SUITE_FLAGS[args.suite]
            flags = {attr: params.pop(attr) for attr in list(params) if attr != "suite"}
            for attr, value in flags.items():
                if attr not in accepted:
                    flag = "--" + attr.replace("_", "-")
                    parser.error(f"{flag} does not apply to suite {args.suite!r}")
                params[accepted[attr]] = value
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(**params)
    except (ValueError, ResourceLimitError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 3
    if args.command == "prob" and args.event == "ngon":
        params.pop("k", None)  # checked equal to n; n alone names the n-gon
    record = {
        "command": args.command,
        "params": params,
        "result": result,
        "version": __version__,
    }
    _emit(record, args.format)
    return 4 if args.command == "verify" and not result["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
