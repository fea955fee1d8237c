"""Command-line interface.

Every successful invocation prints a single output record holding the
command name, the parameters it ran with, the result payload, and the
package version.  The default format is canonical JSON (sorted keys);
``--format csv`` and ``--format plain`` print the same record flattened
to dotted keys.  Integers inside the result payload are rendered as
decimal strings so arbitrarily large exact values survive any JSON
reader, and rationals are rendered as "numerator/denominator".

Exit codes: 0 success, 2 usage error, 3 domain or resource error,
4 verification suite failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import Sequence

from . import __version__
from .counting import (
    ResourceLimitError,
    count_constrained,
    count_restricted,
    hermite_coeff,
    series_coefficients,
)
from .genfib import fib_table, parts_multiset
from .montecarlo import DEFAULT_CHUNKS, DEFAULT_SEED, MODES, SimConfig, estimate
from .omega import run_elimination
from .probability import ProblemSpec, prob_exists, prob_forall, prob_ngon, prob_none
from .verification import SUITES, run_suite

__all__ = ["build_parser", "main"]

_EVENTS = ("none", "exists", "forall", "ngon")
_ORACLES = ("brute", "parts", "series")

# prob none|exists refuse a denominator that may exceed this many bits,
# its size at n = 4000 (about 0.15 n^2 digits for k >= 10), so every
# n <= 4000 is served and larger n only for k near n.  Product plus
# rendering grow like M(digits) log n, about n^3.2 in practice: 1 s at
# n = 2000 and 8-10 s at n = 4000 on a 2-core host, so a refused
# request would have run for about 10 s or more.
_PROB_NONE_MAX_BITS = 8_000_000

# fib prints 2 (upto + 1) ints of up to upto bits each (the growth ratio
# is below 2), so output and memory grow like upto^2 and rendering like
# upto^3.  On a 2-core host: k = 2 takes 6.2 s and 317 MiB at upto =
# 20000, 20 s and 668 MiB at 30000; k = 40 takes 13 s at 20000.  Past
# this bound even k = 2 would run for about 10 s or more.
_FIB_MAX_UPTO = 24_000

# omega does about n^2 + (n - k + 1) k^2 steps (see the omega module).
# With output they took 0.1-0.2 us each on a 2-core host ((3, 8000)
# 7.0 s, (200, 2000) 7.3 s, (50, 4000) 5.6 s), so a refused request
# would run for about 10 s or more.
_OMEGA_MAX_STEPS = 10**8
# omega --trace keeps every rewritten factor: about 24 bytes per unit of
# (n - k + 1) k^2 for their markers plus k n^2 bytes for their q
# exponents, whose bit length grows with the step.  This matched peak RSS
# within 10 % at (100, 1000) 332 MiB, (50, 2000) 320 MiB, (200, 600)
# 452 MiB and (10, 4000) 166 MiB.
_OMEGA_MAX_TRACE_BYTES = 1 << 30

# verify flags that each suite accepts, as CLI attr -> suite kwarg.
_SUITE_FLAGS: dict[str, dict[str, str]] = {
    "lemma1": {"max_total": "max_total"},
    "prop2": {},
    "asymptotic": {"ratio_n": "big_total"},
    "hermite": {"max_total": "max_total", "ratio_n": "ratio_total"},
    "montecarlo": {"trials": "trials", "seed": "seed", "chunks": "chunks"},
}


def _none_denominator_bits(k: int, n: int) -> int:
    # Upper bound on log2 of the prob none denominator: its n - k + 3
    # running sums start at 1 and at most double at each step, and each
    # of its k - 3 chain values is at most k times the largest sum.
    m = n - k + 2
    return m * (m + 1) // 2 + (k - 3) * (m + k.bit_length())


def _omega_cost(k: int, n: int) -> tuple[int, int]:
    # (steps, bytes --trace keeps), by the cost model of _OMEGA_MAX_STEPS.
    rewritten = (n - k + 1) * k * k
    return n * n + rewritten, 24 * rewritten + k * n * n


# Ints up to this many bits convert with Decimal(int) directly: near the
# measured crossover, where plain str(Decimal(v)) against the split below
# took 3.4 against 19 us at 1024 bits, 36 against 89 us at 4096, 0.51
# against 0.66 ms at 16384 and 8.0 against 4.6 ms at 65536 (2-core host).
_DIRECT_BITS = 1 << 14


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
        # 0 <= v < 2^w
        if w <= _DIRECT_BITS:
            return Decimal(v)
        half = w >> 1
        if half not in powers:
            powers[half] = two**half
        hi = v >> half
        return split(v - (hi << half), half) + split(hi, w - half) * powers[half]

    with localcontext() as ctx:
        # Wide enough for any value, and any rounding raises.
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.traps[Inexact] = True
        result = split(abs(value), value.bit_length())
        return -result if value < 0 else result


def _digits(value: int) -> str:
    # Decimal prints every digit; str(int) stops at the interpreter's
    # int-to-str limit (4300 digits by default since Python 3.11).
    # Cost O(M(d) log d) for d digits, with libmpdec's transform
    # multiplication M(d) ~ d log d: about 60 ms for 150k digits and
    # 0.3 s for 600k on a 2-core host.
    return str(_to_decimal(value))


def _encode(value):
    """Result-payload encoding: exact ints and rationals become strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _digits(value)
    if isinstance(value, Fraction):
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _record(command: str, params: dict, result) -> dict:
    return {
        "command": command,
        "params": params,
        "result": _encode(result),
        "version": __version__,
    }


def _decimal_str(num: Decimal, den: Decimal, digits: int) -> str:
    # num / den correctly rounded (half even) to the given significant digits.
    if digits < 1:
        raise ValueError(f"need at least 1 significant digit, got {digits}")
    with localcontext() as ctx:
        ctx.prec = digits
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow("" if v is None else v for v in flat.values())
        sys.stdout.write(buf.getvalue())
    else:
        for key, value in flat.items():
            print(f"{key} = {value}")


def _cmd_prob(args) -> tuple[dict, int]:
    if args.event == "ngon":
        if args.k is not None and args.k != args.n:
            raise ValueError("prob ngon uses all n pieces; omit --k or set it to n")
        value = prob_ngon(args.n)
        params = {"event": args.event, "n": args.n}
    else:
        if args.k is None:
            raise ValueError(f"prob {args.event} needs --k")
        spec = ProblemSpec(args.k, args.n)
        bits = _none_denominator_bits(args.k, args.n)
        if args.event in ("none", "exists") and bits > _PROB_NONE_MAX_BITS:
            raise ResourceLimitError(
                f"prob {args.event} at k={args.k}, n={args.n} has a denominator of up"
                f" to {bits} bits (limit {_PROB_NONE_MAX_BITS})"
            )
        value = {"none": prob_none, "exists": prob_exists, "forall": prob_forall}[
            args.event
        ](spec)
        params = {"event": args.event, "k": args.k, "n": args.n}
    result: dict = {"probability": value}
    if args.decimal is not None:
        params["decimal"] = args.decimal
        # The fraction string and the quotient share one conversion of each operand.
        num, den = _to_decimal(value.numerator), _to_decimal(value.denominator)
        result = {"probability": f"{num}/{den}", "decimal": _decimal_str(num, den, args.decimal)}
    return _record("prob", params, result), 0


def _cmd_fib(args) -> tuple[dict, int]:
    if args.upto < 0:
        raise ValueError(f"--upto must be nonnegative, got {args.upto}")
    if args.upto > _FIB_MAX_UPTO:
        raise ResourceLimitError(f"fib --upto {args.upto} is past the limit {_FIB_MAX_UPTO}")
    terms, sums = fib_table(args.k, args.upto)
    result = {"terms": terms, "partial_sums": sums}
    return _record("fib", {"k": args.k, "upto": args.upto}, result), 0


def _cmd_omega(args) -> tuple[dict, int]:
    spec = ProblemSpec(args.k, args.n)
    work, trace_bytes = _omega_cost(args.k, args.n)
    if work > _OMEGA_MAX_STEPS:
        raise ResourceLimitError(
            f"omega at k={args.k}, n={args.n} takes about {work} steps"
            f" (limit {_OMEGA_MAX_STEPS})"
        )
    if args.trace and trace_bytes > _OMEGA_MAX_TRACE_BYTES:
        raise ResourceLimitError(
            f"omega --trace at k={args.k}, n={args.n} keeps about {trace_bytes} bytes"
            f" (limit {_OMEGA_MAX_TRACE_BYTES})"
        )
    params = {"k": args.k, "n": args.n, "trace": bool(args.trace)}
    if args.trace:
        product, steps = run_elimination(spec, trace=True)
    else:
        product = run_elimination(spec)
    result: dict = {
        "exponents": list(product.exponents),
        "sorted_exponents": list(product.sorted_exponents()),
    }
    if args.trace:
        result["steps"] = [
            {
                "var": str(step.var),
                "consumed": list(step.consumed),
                "produced": [fac.monomial() for fac in step.produced],
            }
            for step in steps
        ]
    return _record("omega", params, result), 0


def _cmd_count(args) -> tuple[dict, int]:
    spec = ProblemSpec(args.k, args.n)
    total = args.n_value
    if args.oracle == "brute":
        count = count_constrained(spec, total, args.positivity)
    else:
        if args.positivity != "nonneg":
            raise ValueError(
                f"the {args.oracle} oracle counts nonnegative solutions only"
            )
        if args.oracle == "parts":
            count = count_restricted(parts_multiset(args.k, args.n), total)
        else:
            count = series_coefficients(run_elimination(spec), total)[total]
    params = {
        "k": args.k,
        "n": args.n,
        "n_value": total,
        "oracle": args.oracle,
        "positivity": args.positivity,
    }
    return _record("count", params, {"count": count}), 0


def _cmd_hermite(args) -> tuple[dict, int]:
    count = hermite_coeff(args.n, args.n_value)
    return _record("hermite", {"n": args.n, "n_value": args.n_value}, {"count": count}), 0


def _cmd_simulate(args) -> tuple[dict, int]:
    spec = ProblemSpec(args.k, args.n)
    config = SimConfig(
        spec=spec,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        chunks=args.chunks,
    )
    payload = asdict(estimate(config))
    params = {
        "mode": args.mode,
        "k": args.k,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "chunks": args.chunks,
    }
    return _record("simulate", params, payload), 0


def _cmd_verify(args) -> tuple[dict, int]:
    accepted = _SUITE_FLAGS[args.suite]
    kwargs = {}
    for attr, kwarg in accepted.items():
        value = getattr(args, attr)
        if value is not None:
            kwargs[kwarg] = value
    checks = run_suite(args.suite, **kwargs)
    passed = all(c.ok for c in checks)
    result = {
        "suite": args.suite,
        "passed": passed,
        "total": len(checks),
        "failed": sum(1 for c in checks if not c.ok),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    }
    params = {"suite": args.suite}
    params.update(kwargs)
    return _record("verify", params, result), 0 if passed else 4


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("event", choices=_EVENTS)
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
    p.add_argument("--oracle", choices=_ORACLES, required=True)
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
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--max-total", dest="max_total", type=int,
                   help="largest total checked (lemma1, hermite)")
    p.add_argument("--ratio-n", dest="ratio_n", type=int,
                   help="total used for the ratio checks (asymptotic, hermite)")
    p.add_argument("--trials", type=int, help="trials per case (montecarlo)")
    p.add_argument("--seed", type=int, help="simulation seed (montecarlo)")
    p.add_argument("--chunks", type=int, help="simulation chunks (montecarlo)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        accepted = _SUITE_FLAGS[args.suite]
        for attr in ("max_total", "ratio_n", "trials", "seed", "chunks"):
            if getattr(args, attr) is not None and attr not in accepted:
                flag = "--" + attr.replace("_", "-")
                parser.print_usage(sys.stderr)
                print(
                    f"{parser.prog}: error: {flag} does not apply to suite {args.suite!r}",
                    file=sys.stderr,
                )
                return 2
    try:
        record, code = args.func(args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 3
    _emit(record, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
