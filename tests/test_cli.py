"""Command-line behavior: payloads, formats, and exit codes."""

import csv
import hashlib
import io
import json
import random
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from math import floor, log10, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from brokenstick import (
    cli,
    DEFAULT_CHUNKS,
    ProblemSpec,
    SimConfig,
    __version__,
    counting,
    montecarlo,
    omega,
    parts_multiset,
    prob_exists,
    prob_forall,
    prob_ngon,
    prob_none,
    probability,
    verification,
)
from brokenstick.cli import (
    _DECIMAL_MAX_DIGITS,
    _DIRECT_BITS,
    _FIB_MAX_UPTO,
    _decimal_product,
    _decimal_str,
    _digits,
    _to_decimal,
    main,
)
from brokenstick.counting import (
    _HERMITE_MAX_BITS,
    _MAX_DEPTH,
    _MAX_TABLE_CELLS,
    _NODE_CAP,
)
from brokenstick.genfib import _TABLE_MAX_BITS, _TABLE_MAX_ENTRIES
from brokenstick.montecarlo import _BLOCK_WORK, _MAX_WORK
from brokenstick.omega import _OMEGA_MAX_STEPS, _OMEGA_MAX_TRACE_BYTES, _omega_cost
from brokenstick.probability import (
    _PROB_FORALL_MAX_STEPS,
    _PROB_NGON_MAX_N,
    _PROB_NONE_MAX_BITS,
    _forall_steps,
    _none_denominator_bits,
)
from brokenstick.verification import _HERMITE_MAX_STEPS
from conftest import run_module


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# argv -> [exit code, stdout, stderr], one small request per subcommand in
# each format plus usage (2), domain (3) and failing-suite (4) cases;
# VERSION stands for the package version.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def test_golden_output(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    for argv, (code, out, err) in GOLDEN.items():
        want = (code, out.replace("VERSION", __version__), err)
        assert run_cli(capsys, *argv.split()) == want, argv


def test_main_is_reentrant(capsys, monkeypatch):
    # back-to-back calls across subcommands, usage (2) and domain (3)
    # errors in between, each give the golden answer.  A request that
    # parses never calls _parsers(): only usage errors build argparse, at
    # most once per process, and later ones take the cached parsers
    monkeypatch.setenv("COLUMNS", "80")
    requests = [
        "prob none --k 4 --n 5 --format json",
        "prob --format json",
        "omega --k 3 --n 4 --trace --format plain",
        "verify --suite prop2 --trials 10 --format csv",
        "prob none --k 2 --n 5 --format json",
        "count --k 3 --n 4 --N-value 6 --oracle parts --format csv",
        "simulate --mode none --k 3 --n 3 --trials 100 --seed 7 --chunks 2 --format json",
        "fib --k 2 --upto 24001 --format plain",
        "prob --format csv",
        "prob exists --k 3 --n 4 --decimal 5 --format csv",
        "prob none --k 4 --n 5 --format json",
    ]
    for argv in requests:
        code, out, err = GOLDEN[argv]
        before = cli._parsers.cache_info()
        assert run_cli(capsys, *argv.split()) == (code, out.replace("VERSION", __version__), err), argv
        after = cli._parsers.cache_info()
        calls = after.hits + after.misses - before.hits - before.misses
        assert (calls > 0) == (code == 2), argv
    assert cli._parsers.cache_info().misses == 1
    assert {GOLDEN[argv][0] for argv in requests} == {0, 2, 3}


def test_prob_none_exact(capsys):
    record = run_json(capsys, "prob", "none", "--k", "4", "--n", "5")
    assert record["command"] == "prob"
    assert record["params"] == {"event": "none", "k": 4, "n": 5}
    assert record["result"] == {"probability": "15/88"}
    assert record["version"] == __version__


def test_prob_decimal_digits(capsys):
    record = run_json(capsys, "prob", "none", "--k", "4", "--n", "5", "--decimal", "10")
    assert record["result"]["decimal"] == "0.1704545455"
    record = run_json(capsys, "prob", "none", "--k", "4", "--n", "6", "--decimal", "4")
    assert record["result"] == {"probability": "3/80", "decimal": "0.0375"}
    # past the direct-conversion size the fraction string is unchanged
    args = ("prob", "exists", "--k", "25", "--n", "250")
    exact = run_json(capsys, *args)["result"]["probability"]
    assert run_json(capsys, *args, "--decimal", "30")["result"]["probability"] == exact


# sha256 of the stdout of prob at its scaling points, VERSION standing for
# the package version, recorded from the term-by-term forall sum and the
# uncancelled none fraction: the exact output stays the same byte for byte.
SCALING_STDOUT = {
    "prob none --k 100 --n 1000":
        "7daf7642c98a2663ba6343f4d5fb663bfafada74b3bc3d58587fce5e6c33770d",
    "prob none --k 50 --n 500 --decimal 30":
        "3af58eb0066c8a021bd441ee7966d27bd968734f997302ba6b9822dcc8358cf7",
    "prob exists --k 25 --n 250":
        "e464747993dedb3d3cb9105cbc2f6f0f05eb0cf0bf682d994bfebdf6273f54ef",
    "prob forall --k 20 --n 400 --decimal 6":
        "56f010bd110e6b90c48059bb543960dad09a51fbb2963b730f824451000966ea",
    "prob forall --k 3 --n 2000":
        "752629eb8a64780af06b5ea5a13ca5bd14bffa9e6dbb8f8dc016f2726bdc2745",
}

# The same for omega --trace, recorded from the dict-based elimination
# engine that rendered every monomial afresh.
TRACE_STDOUT = {
    "omega --k 30 --n 300 --trace":
        "fbc25a9b94ee565e061a39799c329f6cf5778e32687e76b80d4b80251c837bc7",
    "omega --k 20 --n 100 --trace":
        "da0c9cdbe2348ab2a6836fb1886c60652faa4e2256d90efea928d7cd69f444cd",
}


def check_stdout_digests(capsys, pins):
    for argv, digest in pins.items():
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        out = out.replace(__version__, "VERSION")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_prob_stdout_at_scaling_points(capsys):
    check_stdout_digests(capsys, SCALING_STDOUT)


def test_omega_trace_stdout_at_scaling_points(capsys):
    check_stdout_digests(capsys, TRACE_STDOUT)


def check_decimal_product(parts):
    assert str(_decimal_product(parts)) == _digits(prod(parts)), len(parts)


def test_decimal_product_matches_int_product():
    for k in range(3, 41):
        for n in range(k, k + 61):
            check_decimal_product(probability._none_terms(ProblemSpec(k, n))[1])
    # one run, a tree of runs, and runs past the direct conversion's size
    rng = random.Random(5)
    for sizes in (
        [1] * 5,
        [_DIRECT_BITS] * 3,
        [_DIRECT_BITS + 1, 5, 3 * _DIRECT_BITS],
        [700] * 100,
        [1, 70_000],
    ):
        check_decimal_product(tuple(rng.getrandbits(b) | 1 << (b - 1) for b in sizes))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=300), st.integers(min_value=0, max_value=700))
def test_decimal_product_property(k, extra):
    check_decimal_product(probability._none_terms(ProblemSpec(k, k + extra))[1])


def test_prob_ngon_needs_no_k(capsys):
    record = run_json(capsys, "prob", "ngon", "--n", "4")
    assert record["result"] == {"probability": "1/2"}
    code, _, err = run_cli(capsys, "prob", "ngon", "--k", "3", "--n", "4")
    assert code == 3
    assert "ngon" in err


def test_prob_ngon_numerator_matches_the_fraction(capsys):
    # the CLI takes the numerator as the denominator less n / 2^s, for 2^s
    # the power of two in n; odd n, powers of two and mixed n
    for n in (3, 5, 6, 8, 12, 1024, 1536, 4097, 14000):
        value = prob_ngon(n)
        record = run_json(capsys, "prob", "ngon", "--n", str(n))
        assert record["result"]["probability"] == f"{value.numerator}/{value.denominator}", n


def test_prob_exists_and_forall(capsys):
    assert run_json(capsys, "prob", "exists", "--k", "3", "--n", "3")["result"][
        "probability"
    ] == "1/4"
    assert run_json(capsys, "prob", "forall", "--k", "3", "--n", "4")["result"][
        "probability"
    ] == "1/15"


def test_json_output_is_canonical(capsys):
    _, out, _ = run_cli(capsys, "prob", "none", "--k", "4", "--n", "4")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_fib_payload(capsys):
    record = run_json(capsys, "fib", "--k", "3", "--upto", "10")
    assert record["result"]["partial_sums"] == [
        "0", "0", "1", "2", "4", "8", "15", "28", "52", "96", "177",
    ]
    assert record["result"]["terms"][:7] == ["0", "0", "1", "1", "2", "4", "7"]


def test_omega_payload(capsys):
    record = run_json(capsys, "omega", "--k", "4", "--n", "6")
    assert record["result"]["sorted_exponents"] == ["1", "2", "4", "8", "15", "20"]
    assert "steps" not in record["result"]


def test_omega_trace(capsys):
    record = run_json(capsys, "omega", "--k", "3", "--n", "4", "--trace")
    steps = record["result"]["steps"]
    assert [s["var"] for s in steps] == ["lambda_1", "lambda_2", "mu_3"]
    assert all(s["consumed"] and s["produced"] for s in steps)


def test_count_oracles_agree(capsys):
    counts = {
        oracle: run_json(
            capsys, "count", "--k", "3", "--n", "4", "--N-value", "12",
            "--oracle", oracle,
        )["result"]["count"]
        for oracle in ("brute", "parts", "series")
    }
    assert len(set(counts.values())) == 1


def test_count_positive_brute(capsys):
    record = run_json(
        capsys, "count", "--k", "3", "--n", "3", "--N-value", "5",
        "--oracle", "brute", "--positivity", "positive",
    )
    assert record["result"]["count"] == "1"


def test_count_positive_oracles_agree(capsys):
    # each oracle shifts the total by the least positive solution's
    for k, n, total, want in ((3, 4, 12, "4"), (3, 3, 5, "1")):
        for oracle in ("brute", "parts", "series"):
            argv = ("--k", str(k), "--n", str(n), "--N-value", str(total), "--oracle", oracle)
            record = run_json(capsys, "count", *argv, "--positivity", "positive")
            assert record["result"]["count"] == want, (k, n, total, oracle)


def test_count_positive_negative_total_is_a_domain_error(capsys):
    # a negative total is refused before the shift, not counted as 0
    for oracle in ("brute", "parts", "series"):
        argv = ("--k", "3", "--n", "4", "--N-value", "-1", "--oracle", oracle)
        code, out, err = run_cli(capsys, "count", *argv, "--positivity", "positive")
        assert (code, out) == (3, ""), oracle
        assert err == "brokenstick: error: total must be nonnegative, got -1\n"


def test_count_resource_guard_exit(capsys):
    code, _, err = run_cli(
        capsys, "count", "--k", "3", "--n", "3", "--N-value", "1000000",
        "--oracle", "brute",
    )
    assert code == 3
    assert "nodes" in err


def test_hermite_payload(capsys):
    record = run_json(capsys, "hermite", "--n", "3", "--N-value", "5")
    assert record["result"] == {"count": "3"}


def test_exact_values_past_int_str_limit(capsys):
    # the denominator has over 4300 digits, where Python >= 3.11 refuses
    # str(int) unless the interpreter-wide limit is raised
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    record = run_json(capsys, "prob", "none", "--k", "25", "--n", "250")
    num, den = record["result"]["probability"].split("/")
    assert len(den) > 4300
    want = prob_none(ProblemSpec(25, 250))
    assert (int(Decimal(num)), int(Decimal(den))) == (want.numerator, want.denominator)
    assert get_limit() == limit  # left as it was, not raised


def test_digits_match_plain_decimal():
    values = [0, 1, -1, 2**128 - 1, 2**128, 2**128 + 1]
    values += [2**w for w in range(124, 134)]
    values += [2**w + s for w in (255, 256, 257, 511, 512, 513, 4099) for s in (-1, 0, 1)]
    values += [
        2**w + s
        for w in range(_DIRECT_BITS - 2, _DIRECT_BITS + 3)
        for s in (-1, 0, 1)
    ]
    values += [-(2**_DIRECT_BITS) - 1, 2 ** (2 * _DIRECT_BITS) + 1]
    values += [10**j + s for j in (1, 38, 39, 40, 1000, 4301, 10**4, 10**5) for s in (-1, 0)]
    rng = random.Random(4)
    for bits in (129, 300, 5000, 70_000, 300_000):
        values += [rng.getrandbits(bits) | 1 << (bits - 1), -rng.getrandbits(bits)]
    for value in values:
        assert _digits(value) == str(Decimal(value)), value.bit_length()


def test_decimal_str_matches_decimal_division():
    values = [
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(15, 8),
        Fraction(15, 88),
        Fraction(15 * 10**6, 88),
        Fraction(1, 8),
        Fraction(5, 8),
        Fraction(3, 80),
    ]
    for k, n in [(3, 3), (4, 5), (6, 20), (10, 60), (25, 250), (50, 500)]:
        values += [prob_none(ProblemSpec(k, n)), prob_exists(ProblemSpec(k, n))]

    def decimal_str(value, digits):
        num, den = _to_decimal(value.numerator), _to_decimal(value.denominator)
        return _decimal_str(num, den, digits)

    for value in values:
        num, den = Decimal(value.numerator), Decimal(value.denominator)
        for digits in range(1, 61):
            with localcontext() as ctx:
                ctx.prec = digits
                want = str(num / den)
            assert decimal_str(value, digits) == want, (value, digits)
    # terminating values keep their length; ties round half to even
    assert decimal_str(Fraction(1, 4), 5) == "0.25"
    assert decimal_str(Fraction(1, 8), 2) == "0.12"
    assert decimal_str(Fraction(5, 8), 2) == "0.62"
    assert decimal_str(Fraction(5, 8), 1) == "0.6"


def rounded_by_ints(value: Fraction, digits: int) -> str:
    # value > 0 rounded half even to `digits` significant digits, printed as
    # str(Decimal) prints a quotient that does not terminate within them;
    # integer arithmetic only, so no decimal context limit applies
    num, den = value.numerator, value.denominator
    shift = digits - 1 + floor((den.bit_length() - num.bit_length()) * log10(2))
    a, b = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
    # a / b = value * 10^shift, brought into [10^(digits-1), 10^digits)
    while a < b * 10 ** (digits - 1):
        a, shift = a * 10, shift + 1
    while a >= b * 10**digits:
        b, shift = b * 10, shift - 1
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    if q == 10**digits:
        q, shift = q // 10, shift - 1
    return str(Decimal((0, tuple(map(int, str(q))), -shift)))


def test_decimals_below_the_default_exponent_limit(capsys, monkeypatch):
    # the default context stops at 10^-999999: digits are lost just below
    # it and the quotient flushes to zero further down
    value = Fraction(1, 3 * 10**1_000_000)
    want = rounded_by_ints(value, 6)
    assert want == "3.33333E-1000001"
    assert _decimal_str(Decimal(1), Decimal("3E1000000"), 6) == want
    spec = ProblemSpec(3, 3200)
    value = prob_none(spec)
    want = rounded_by_ints(value, 6)
    assert want == "2.12350E-1060741"
    # the request reuses the value computed above, as one part, instead of
    # computing it a second time
    terms = {spec: (value.numerator, (value.denominator,))}
    monkeypatch.setattr(cli, "_none_terms", terms.__getitem__)
    record = run_json(capsys, "prob", "none", "--k", "3", "--n", "3200", "--decimal", "6")
    assert record["result"]["decimal"] == want


def test_prob_decimal_checked_before_any_work(capsys, monkeypatch):
    def never(spec):
        raise AssertionError("the probability was computed")

    monkeypatch.setattr(cli, "_none_terms", never)
    for digits, error in ((0, "at least 1"), (_DECIMAL_MAX_DIGITS + 1, "limit")):
        code, out, err = run_cli(
            capsys, "prob", "none", "--k", "50", "--n", "4000", "--decimal", str(digits)
        )
        assert (code, out) == (3, "")
        assert error in err
    monkeypatch.undo()

    def fifteen_88(digits):
        # 15/88 = 0.170454545...: past 170 the digits repeat 45, and the
        # digit after the last kept one rounds it by itself (5 is followed
        # by 4s, 4 by 5s, so no tie)
        kept = ("170" + "45" * digits)[: digits + 1]
        return "0." + (kept[:-1] if kept[-1] == "4" else kept[:-2] + "5")

    assert [fifteen_88(d) for d in range(3, 40)] == [
        rounded_by_ints(Fraction(15, 88), d) for d in range(3, 40)
    ]
    # at the bound a small probability is served with every digit
    record = run_json(
        capsys, "prob", "none", "--k", "4", "--n", "5", "--decimal", str(_DECIMAL_MAX_DIGITS)
    )
    assert record["result"]["decimal"] == fifteen_88(_DECIMAL_MAX_DIGITS)


def test_prob_none_refuses_denominators_past_bound(capsys):
    # every n <= 4000 is served; just past it only k near n, where the
    # denominator stays small
    assert max(_none_denominator_bits(k, 4000) for k in range(3, 4001)) <= _PROB_NONE_MAX_BITS
    for event in ("none", "exists"):
        for k in ("3", "50"):
            code, out, err = run_cli(capsys, "prob", event, "--k", k, "--n", "4001")
            assert code == 3
            assert out == ""
            assert f"limit {_PROB_NONE_MAX_BITS}" in err
    record = run_json(capsys, "prob", "none", "--k", "4001", "--n", "4001")
    assert record["result"]["probability"] == f"4001/{_digits(2**4000)}"


def test_prob_ngon_refuses_n_past_bound(capsys):
    # served, the request would print two 10^7-digit ints, past the size
    # where libmpdec's transform length doubles
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "prob", "ngon", "--n", str(_PROB_NGON_MAX_N + 1))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert f"bits (limit {_PROB_NGON_MAX_N})" in err


def test_fib_refuses_upto_past_bound(capsys):
    code, out, err = run_cli(capsys, "fib", "--k", "2", "--upto", str(_FIB_MAX_UPTO + 1))
    assert (code, out) == (3, "")
    assert f"limit {_FIB_MAX_UPTO}" in err


def test_omega_refuses_work_past_bound(capsys):
    # k = 3: 2n - 3 merges, n factor builds and n exponents of up to n bits
    # to print pass 5 * 10^6 steps at n = 17042; a trace also prints the
    # exponent of each of its 3n - 2 factors and passes them at n = 10750
    assert _omega_cost(3, 17_041, False)[0] <= _OMEGA_MAX_STEPS < _omega_cost(3, 17_042, False)[0]
    assert _omega_cost(3, 10_749, True)[0] <= _OMEGA_MAX_STEPS < _omega_cost(3, 10_750, True)[0]
    # the largest trace served prints its exponents with str(), whose
    # default limit is 4300 digits
    assert len(str(max(parts_multiset(3, 10_749)))) < 4300
    for n, trace in ((17_042, ()), (10_750, ("--trace",))):
        code, out, err = run_cli(capsys, "omega", "--k", "3", "--n", str(n), *trace)
        assert (code, out) == (3, "")
        assert f"limit {_OMEGA_MAX_STEPS}" in err


def test_omega_refuses_trace_memory_past_bound(capsys):
    # (100, 2540) is within the step bound; only the trace is refused
    served, refused = _omega_cost(100, 2_539, True), _omega_cost(100, 2_540, True)
    assert served[1] <= _OMEGA_MAX_TRACE_BYTES < refused[1]
    assert refused[0] <= _OMEGA_MAX_STEPS
    code, out, err = run_cli(capsys, "omega", "--k", "100", "--n", "2540", "--trace")
    assert (code, out) == (3, "")
    assert f"limit {_OMEGA_MAX_TRACE_BYTES}" in err


def test_count_series_refuses_elimination_past_bound(capsys, monkeypatch):
    # the step bound holds on every route to the engine, not just omega
    def fail(spec):
        raise AssertionError("the crude form was built")

    monkeypatch.setattr(omega, "build_crude", fail)
    argv = ("--k", "3", "--n", "17042", "--N-value", "0", "--oracle", "series")
    code, out, err = run_cli(capsys, "count", *argv)
    assert (code, out) == (3, "")
    assert f"limit {_OMEGA_MAX_STEPS}" in err


def test_count_refuses_table_past_bound_before_allocating(capsys):
    # (3, 30) sums its parts to 5.7 * 10^6, so every plan to 10^12 passes
    # the cell bound
    tracemalloc.start()
    try:
        for oracle in ("parts", "series"):
            argv = ("--k", "3", "--n", "30", "--N-value", str(10**12))
            code, out, err = run_cli(capsys, "count", *argv, "--oracle", oracle)
            assert (code, out) == (3, ""), oracle
            assert "counting partitions of a 40-bit total by halving fills at least" in err
            assert f"cells (limit {_MAX_TABLE_CELLS})" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_count_brute_refuses_depth_before_estimating(capsys, monkeypatch):
    # the search recurses once per piece: n = 997 used to die of RecursionError,
    # n = 10^6 once spent 20 s on the node estimate first, and a positive
    # request would build the least positive total, up to n bits
    monkeypatch.setattr(counting, "_search_nodes", _fail)
    monkeypatch.setattr(counting, "_least_positive_total", _fail)
    for n, positivity in (
        (_MAX_DEPTH + 1, "nonneg"), (997, "nonneg"), (10**6, "nonneg"),
        (_MAX_DEPTH + 1, "positive"), (10**6, "positive"),
    ):
        argv = ("--k", "3", "--n", str(n), "--N-value", "0", "--oracle", "brute")
        code, out, err = run_cli(capsys, "count", *argv, "--positivity", positivity)
        assert (code, out) == (3, ""), (n, positivity)
        assert f"slots deep (limit {_MAX_DEPTH})" in err
    monkeypatch.undo()
    argv = ("--k", "3", "--n", str(_MAX_DEPTH), "--N-value", "10", "--oracle", "brute")
    assert run_json(capsys, "count", *argv)["result"] == {"count": "14"}


def test_count_parts_refuses_tables_past_bound_before_allocating(capsys):
    # (k, n): too many entries, too many table bits, too many chain bits
    entries = f"entries per list (limit {_TABLE_MAX_ENTRIES})"
    bits = f"bits (limit {_TABLE_MAX_BITS})"
    tracemalloc.start()
    try:
        for k, n, refusal in ((3, _TABLE_MAX_ENTRIES, entries), (3, 63246, bits),
                              (970000, 10**6, bits)):
            argv = ("--k", str(k), "--n", str(n), "--N-value", "5", "--oracle", "parts")
            code, out, err = run_cli(capsys, "count", *argv)
            assert (code, out) == (3, ""), (k, n)
            assert refusal in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # k = n = 300000 builds 300001 entries per list of small ints
    argv = ("--k", "300000", "--n", "300000", "--N-value", "5", "--oracle", "parts")
    assert run_json(capsys, "count", *argv)["result"] == {"count": "4"}


def _fail(*args):
    raise AssertionError("a refused request started its work")


def test_prob_forall_refuses_work_past_bound(capsys, monkeypatch):
    # (k, largest n served): 127436 terms at k = 3, only 482 at k = 2000
    for k, n in ((3, 127437), (2000, 2480)):
        m = n - k + 2
        assert _forall_steps(k, m) <= _PROB_FORALL_MAX_STEPS < _forall_steps(k, m + 1)
        monkeypatch.setattr(probability, "_fraction_sum", _fail)
        code, out, err = run_cli(capsys, "prob", "forall", "--k", str(k), "--n", str(n + 1))
        assert (code, out) == (3, ""), (k, n)
        assert f"limit {_PROB_FORALL_MAX_STEPS}" in err
        # served at the bound; with the sum stubbed to 0 the result is 0
        monkeypatch.setattr(probability, "_fraction_sum", lambda terms, count: (0, 1))
        assert prob_forall(ProblemSpec(k, n)) == 0


def test_hermite_refuses_bits_past_bound(capsys, monkeypatch):
    # at N = 10^6 the binomial may pass 1.2 * 10^6 bits from n = 479283 on
    monkeypatch.setattr(counting, "comb", _fail)
    code, out, err = run_cli(capsys, "hermite", "--n", "479283", "--N-value", "1000000")
    assert (code, out) == (3, "")
    assert f"limit {_HERMITE_MAX_BITS}" in err
    monkeypatch.setattr(counting, "comb", lambda *args: 0)
    assert run_json(capsys, "hermite", "--n", "479282", "--N-value", "1000000")["result"] == {
        "count": "0"
    }


def test_hermite_refuses_a_huge_side_before_float_math(capsys):
    # the side min(n - 1, N - n) alone passes the bit bound; multiplied by
    # a float it would raise OverflowError
    code, out, err = run_cli(capsys, "hermite", "--n", str(10**400), "--N-value", str(2 * 10**400))
    assert (code, out) == (3, "")
    assert err.endswith(f"has over 2^1328.8 bits (limit {_HERMITE_MAX_BITS})\n")


# 3000 digits; simulate takes 4299, since its trials times n must pass 4300
_HUGE = str(10**2999)


@pytest.mark.parametrize(
    "argv",
    [
        ("prob", "none", "--k", "3", "--n", _HUGE),
        ("prob", "forall", "--k", "3", "--n", _HUGE),
        ("omega", "--k", "3", "--n", _HUGE),
        ("count", "--k", "3", "--n", _HUGE, "--N-value", "5", "--oracle", "parts"),
        ("count", "--k", "3", "--n", _HUGE, "--N-value", "5", "--oracle", "series"),
        ("count", "--k", "3", "--n", "3", "--N-value", _HUGE, "--oracle", "brute"),
        ("verify", "--suite", "lemma1", "--max-total", _HUGE),
        ("verify", "--suite", "hermite", "--max-total", _HUGE),
        ("simulate", "--mode", "none", "--k", "3", "--n", "100", "--trials", str(10**4298)),
    ],
    ids=["prob-none", "prob-forall", "omega", "count-parts", "count-series", "count-brute",
         "verify-lemma1", "verify-hermite", "simulate"],
)
def test_refusals_of_huge_costs_print_the_guard_message(capsys, argv):
    # each cost has over 4300 digits, where str() raises; the guard names
    # it by its power of two
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "(limit " in err and "Exceeds the limit" not in err
    assert "2^" in err


def test_verify_suites_refuse_totals_past_bound(capsys, monkeypatch):
    # (suite, largest max_total served on its default grid, its limit,
    # the exhaustive count each check runs, a stub of it answering -1 at
    # every total, the series route and the module the suite takes it from)
    for suite, served, limit, count, wrong, series, series_module in (
        (
            "lemma1",
            107,
            _NODE_CAP,
            "_constrained_counts",
            lambda spec, t_min, t_max: [-1] * (t_max - t_min + 1),
            "run_elimination",
            omega,
        ),
        (
            "hermite",
            474,
            _HERMITE_MAX_STEPS,
            "_composition_count",
            lambda *args: -1,
            "hermite_coeff",
            verification,
        ),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(verification, count, _fail)
            patch.setattr(series_module, series, _fail)
            argv = ("verify", "--suite", suite, "--max-total", str(served + 1))
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, ""), suite
            assert f"limit {limit}" in err
        # served at the bound; a count of -1 fails every check at total 0
        monkeypatch.setattr(verification, count, wrong)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-total", str(served))
        assert code == 4, err


def test_verify_hermite_rejects_negative_max_total(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "hermite", "--max-total", "-5")
    assert (code, out) == (3, "")
    assert err == "brokenstick: error: truncation order must be nonnegative, got -5\n"
    with pytest.raises(ValueError):
        verification.suite_hermite(max_total=-1)


def _largest_trials(n, chunks):
    # the most trials a simulation of n pieces in chunks blocks may ask for
    return (_MAX_WORK - _BLOCK_WORK * chunks) // n


def _no_draws(monkeypatch):
    def fail(*args):
        raise AssertionError("a refused request drew trials")

    monkeypatch.setattr(montecarlo, "_run_blocks", fail)


def test_simulate_refuses_work_past_bound(capsys, monkeypatch):
    _no_draws(monkeypatch)
    trials = _largest_trials(3, DEFAULT_CHUNKS)
    SimConfig(spec=ProblemSpec(3, 3), mode="none", trials=trials)
    for argv in (
        ("--n", "3", "--trials", str(trials + 1)),
        # a million one-trial blocks cost about 60 s in block overhead alone
        ("--n", "3", "--trials", "1000000", "--chunks", "1000000"),
        ("--n", str(montecarlo._MAX_N + 1), "--trials", "1"),
    ):
        code, out, err = run_cli(capsys, "simulate", "--mode", "none", "--k", "3", *argv)
        assert (code, out) == (3, ""), argv
        assert "limit" in err


def test_verify_montecarlo_refuses_work_past_bound(capsys, monkeypatch):
    # the suite's largest case has n = 6; every case is checked before any draw
    _no_draws(monkeypatch)
    trials = _largest_trials(6, DEFAULT_CHUNKS)
    SimConfig(spec=ProblemSpec(5, 6), mode="none", trials=trials)
    code, out, err = run_cli(capsys, "verify", "--suite", "montecarlo", "--trials", str(trials + 1))
    assert (code, out) == (3, "")
    assert f"limit {_MAX_WORK}" in err


def test_verify_montecarlo_bounds_the_suite_total(capsys, monkeypatch):
    # the seven cases have 33 pieces in all, and each runs DEFAULT_CHUNKS blocks
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: 0)
    trials = (_MAX_WORK - 7 * DEFAULT_CHUNKS * _BLOCK_WORK) // 33
    code, out, err = run_cli(capsys, "verify", "--suite", "montecarlo", "--trials", str(trials + 1))
    assert (code, out) == (3, "")
    assert f"suite at {trials + 1} trials per case" in err and f"limit {_MAX_WORK}" in err
    # served at the bound; the stub draws no hits, so the checks fail
    code, out, err = run_cli(capsys, "verify", "--suite", "montecarlo", "--trials", str(trials))
    assert code == 4, err
    assert json.loads(out)["result"]["total"] == "7"


def test_denominator_bits_bound_the_denominator():
    for n in (3, 10, 57, 300):
        for k in range(3, n + 1):
            den = prod(parts_multiset(k, n))
            assert den.bit_length() - 1 <= _none_denominator_bits(k, n), (k, n)


def test_simulate_payload_and_determinism(capsys):
    args = (
        "simulate", "--mode", "none", "--k", "3", "--n", "3",
        "--trials", "2000", "--seed", "42", "--chunks", "4",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["result"]["trials"] == "2000"
    assert record["result"]["seed"] == "42"
    hits = int(record["result"]["hits"])
    assert 0 <= hits <= 2000
    assert record["result"]["estimate"] == hits / 2000


def test_verify_passing_suite(capsys):
    record = run_json(capsys, "verify", "--suite", "prop2")
    assert record["result"]["passed"] is True
    assert record["result"]["failed"] == "0"
    assert all(c["ok"] for c in record["result"]["checks"])


def test_verify_suite_kwargs(capsys):
    record = run_json(capsys, "verify", "--suite", "lemma1", "--max-total", "10")
    assert record["params"] == {"suite": "lemma1", "max_total": 10}
    assert record["result"]["passed"] is True


def test_verify_asymptotic_reaches_large_totals(capsys):
    # the count halves its total, so 10^12 takes a few dozen halvings
    record = run_json(capsys, "verify", "--suite", "asymptotic", "--ratio-n", str(10**12))
    assert record["params"] == {"suite": "asymptotic", "big_total": 10**12}
    assert record["result"]["passed"] is True
    assert record["result"]["failed"] == "0"


def test_verify_failing_suite_exits_4(capsys):
    # a total this small is far from the asymptotic regime, so the
    # ratio checks legitimately fail
    code, out, _ = run_cli(capsys, "verify", "--suite", "asymptotic", "--ratio-n", "50")
    assert code == 4
    record = json.loads(out)
    assert record["result"]["passed"] is False
    assert int(record["result"]["failed"]) >= 1


def test_verify_hermite_rejects_ratio_total_without_compositions(capsys):
    # the ratio checks divide by C(N-1, n-1), which is 0 for N < n
    for total in ("1", "2", "3"):
        code, out, err = run_cli(capsys, "verify", "--suite", "hermite", "--ratio-n", total)
        assert code == 3
        assert out == ""
        assert err == f"brokenstick: error: ratio total must be at least 4, got {total}\n"


def test_verify_rejects_inapplicable_flags(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "prop2", "--trials", "10")
    assert code == 2
    assert "--trials" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "prob")[0] == 2
    assert run_cli(capsys, "prob", "maybe", "--n", "4")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "fib", "--k", "3")[0] == 2
    assert run_cli(capsys)[0] == 2


# Well-formed requests are read from cli._COMMANDS, and the rest parsed by
# the full parser: none at all, help, version, unknown commands, usage
# errors, leftovers, abbreviations, repeated flags and negative values.
DISPATCH_ARGVS = [
    [],
    ["--version"],
    ["-h"],
    ["prob", "-h"],
    ["nonsense"],
    ["nonsense", "--k", "3"],
    ["--format", "json", "prob"],
    ["prob"],
    ["prob", "maybe", "--n", "4"],
    ["prob", "none", "--k", "3", "--n", "3", "--bogus"],
    ["prob", "none", "--k", "3", "--bogus", "x", "--n", "3", "--also"],
    ["prob", "none", "--k", "3", "--n", "3", "--vers"],
    ["prob", "none", "--k", "3", "--n", "3", "--version"],
    ["prob", "none", "--k", "3", "--n", "5", "--dec", "6"],
    ["prob", "none", "--k=3", "--n", "5"],
    ["prob", "--", "none", "--k", "3", "--n", "3"],
    ["prob", "--k", "3", "none", "--n", "5"],
    ["prob", "none", "--k", "3", "--k", "4", "--n", "5"],
    ["prob", "none", "--k", "-3", "--n", "5"],
    ["prob", "none", "--k", "3", "--n", ""],
    ["fib", "--k", "3", "--upto", "5", "--format", "csv", "extra"],
    ["omega", "--k", "3", "--n", "4", "--trace", "--format", "plain"],
    ["omega", "--k", "3", "--n", "4", "--trace", "--trace"],
    ["count", "--k", "3", "--n", "4", "--N-value", "6", "--oracle", "parts", "--positivity", "positive"],
    ["verify", "--suite", "prop2", "--trials", "10"],
    ["verify", "--suite", "hermite", "--max-total", "4", "--ratio-n", "300"],
]


def test_dispatch_matches_the_full_parser(capsys, monkeypatch):
    # exit code, stdout and stderr of each argv equal those of the same
    # request parsed by argparse alone
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    got = [run_cli(capsys, *argv) for argv in DISPATCH_ARGVS]
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    for argv, answer in zip(DISPATCH_ARGVS, got):
        assert run_cli(capsys, *argv) == answer, argv
    assert {answer[0] for answer in got} == {0, 2, 3}


# Every flag and choice of the table, ints, a negative int and tokens that
# argparse reads its own way: "", "--k=3", "--", help, version, leftovers,
# abbreviations, values int() reads but no workload sends, and "-1_0",
# which int() reads but argparse takes for a flag.
_ARGUMENTS = [arguments for _, _, arguments in cli._COMMANDS.values()]
_TOKENS = sorted(
    {flag for arguments in _ARGUMENTS for flag in arguments if flag.startswith("-")}
    | {choice for arguments in _ARGUMENTS for spec in arguments.values()
       for choice in spec.get("choices", ())}
) + ["0", "3", "12", "-3", "", "--k=3", "--", "-h", "--help", "--version", "x",
     "--dec", "--N", "--tr", "--form", " 4", "4_0", "-1_0"]


@st.composite
def _requests(draw):
    # a subcommand and its arguments in any order: half the time with
    # values of the right kind, every required flag and nothing else, and
    # otherwise with any value, any flag left out and up to four more tokens
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    noisy = draw(st.booleans())
    token = st.sampled_from(_TOKENS)
    head, chunks = [], []
    for flag, spec in cli._COMMANDS[name][2].items():
        value = st.sampled_from(spec.get("choices") or ["0", "3", "12", " 4", "4_0", "-3", "-1_0"])
        if noisy:
            value = st.one_of(value, token)
        if not flag.startswith("-"):
            head = [draw(value)]
        elif draw(st.booleans()) or (spec.get("required") and not noisy):
            chunks.append([flag] if spec.get("action") == "store_true" else [flag, draw(value)])
    if noisy:
        chunks += draw(st.lists(st.lists(token, min_size=1, max_size=2), max_size=2))
    return [name, *head, *(arg for chunk in draw(st.permutations(chunks)) for arg in chunk)]


@settings(max_examples=400, deadline=None)
@given(_requests())
def test_read_agrees_with_argparse(argv):
    # whatever _read accepts, argparse reads to the same values with
    # nothing left over
    args = cli._read(argv)
    if args is None:
        return
    try:
        parsed, extra = cli._parsers().parse_known_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refused {argv}")
    assert (vars(args), extra) == (vars(parsed), []), argv


def test_domain_errors_exit_3(capsys):
    assert run_cli(capsys, "prob", "none", "--k", "2", "--n", "5")[0] == 3
    assert run_cli(capsys, "prob", "none", "--k", "4", "--n", "3")[0] == 3
    assert run_cli(capsys, "prob", "none", "--k", "3", "--n", "3", "--decimal", "0")[0] == 3
    assert run_cli(capsys, "fib", "--k", "1", "--upto", "5")[0] == 3
    assert run_cli(capsys, "fib", "--k", "3", "--upto", "-1")[0] == 3
    assert run_cli(capsys, "simulate", "--mode", "none", "--k", "3", "--n", "3",
                   "--trials", "0")[0] == 3
    assert run_cli(capsys, "simulate", "--mode", "none", "--k", "3", "--n", "3",
                   "--trials", "10", "--seed", "-5")[0] == 3


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "prob", "--help")[0] == 0


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "none", "--k", "4", "--n", "5", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["result.probability"] == "15/88"
    assert record["command"] == "prob"


def test_plain_format(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "ngon", "--n", "5", "--format", "plain"
    )
    assert code == 0
    lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert lines["result.probability"] == "11/16"
    assert lines["command"] == "prob"


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_module_entry_point(monkeypatch):
    proc = run_module(monkeypatch, "-m", "brokenstick.cli", "prob", "none", "--k", "4", "--n", "4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["probability"] == "1/2"


# One request per exact route; none of them should import numpy.
EXACT_ROUTES = [
    ["prob", "none", "--k", "3", "--n", "3"],
    ["prob", "exists", "--k", "4", "--n", "6", "--decimal", "12"],
    ["prob", "forall", "--k", "4", "--n", "6"],
    ["prob", "ngon", "--n", "5"],
    ["fib", "--k", "3", "--upto", "10"],
    ["omega", "--k", "4", "--n", "6", "--trace"],
    ["hermite", "--n", "5", "--N-value", "20"],
    ["count", "--k", "3", "--n", "6", "--N-value", "28", "--oracle", "parts"],
    ["count", "--k", "3", "--n", "4", "--N-value", "12", "--oracle", "series", "--positivity", "positive"],
    ["verify", "--suite", "prop2"],
    ["verify", "--suite", "hermite"],
    ["verify", "--suite", "asymptotic"],
]

# Answers the request argv[1], a JSON list, in a fresh interpreter and
# prints its exit code, its result and the modules loaded after it:
# numpy, argparse and the package's submodules.
_CHILD = """
import contextlib, io, json, sys
from brokenstick import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m in ("numpy", "argparse") or m.startswith("brokenstick."))
print(json.dumps([code, json.loads(out.getvalue())["result"], loaded]))
"""


def test_exact_requests_leave_numpy_unloaded(monkeypatch):
    # each start loads only the modules its route runs.  Importing numpy
    # is most of an exact request's start-up time (and numpy.random,
    # loaded on first use, lives inside it); only the brute walk and the
    # simulation load it, and they still answer right.  No well-formed
    # request loads argparse
    brute = ["count", "--k", "3", "--n", "6", "--N-value", "28", "--oracle", "brute"]
    simulate = ["simulate", "--mode", "none", "--k", "3", "--n", "5", "--trials", "20000", "--seed", "2"]
    results, loaded = {}, {}
    for argv in EXACT_ROUTES + [brute, simulate]:
        proc = run_module(monkeypatch, "-c", _CHILD, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        code, results[tuple(argv)], modules = json.loads(proc.stdout)
        assert code == 0, argv  # a verify suite that fails exits 4
        loaded[tuple(argv)] = {m.removeprefix("brokenstick.") for m in modules}
    for argv, modules in loaded.items():
        command = argv[0]
        assert "argparse" not in modules, argv
        assert ("numpy" in modules) == (list(argv) in (brute, simulate)), argv
        # verify --suite hermite|asymptotic load neither montecarlo nor omega
        assert ("montecarlo" in modules) == (command == "simulate"), argv
        eliminates = command == "omega" or "series" in argv or "prop2" in argv
        assert ("omega" in modules) == eliminates, argv
        assert ("verification" in modules) == (command == "verify"), argv
        if command in ("prob", "fib"):
            assert modules == {"cli", "genfib", "probability"}, argv
        if command == "hermite" or "parts" in argv:
            assert "counting" in modules and "omega" not in modules, argv
    parts = results[tuple(brute[:-1] + ["parts"])]
    assert results[tuple(brute)] == parts == {"count": "177"}
    assert results[tuple(simulate)]["hits"] == "3526"  # pinned in tests/test_montecarlo.py


def test_refused_simulations_leave_numpy_unloaded(monkeypatch):
    # a refused or malformed simulation, in simulate or in verify's
    # montecarlo suite, answers before anything imports numpy, which
    # would double or triple such a request's start-up time
    base = ["--mode", "none", "--k", "3", "--n", "3"]
    requests = [
        ["simulate", *base, "--trials", "0"],
        ["simulate", *base, "--trials", str(10**12)],
        ["simulate", "--mode", "none", "--k", "2", "--n", "3", "--trials", "10"],
        ["verify", "--suite", "montecarlo", "--trials", str(10**12)],
    ]
    child = """
import contextlib, io, json, sys
from brokenstick import cli
with contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "numpy" in sys.modules]))
"""
    proc = run_module(monkeypatch, "-c", child, json.dumps(requests))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[3] * len(requests), False]


def test_verify_suite_choices_name_every_suite():
    # the parser takes --suite's choices from _SUITE_FLAGS, so that no
    # start imports verification to build it
    assert set(cli._SUITE_FLAGS) == set(verification.SUITES)


def test_results_never_pass_through_str_int(monkeypatch):
    # 640 is the lowest int-to-str limit the interpreter accepts; the
    # 50k-digit answer prints only if no result int goes through str(int)
    proc = run_module(
        monkeypatch, "-X", "int_max_str_digits=640", "-m", "brokenstick.cli",
        "prob", "exists", "--k", "60", "--n", "600", "--decimal", "40",
    )
    assert proc.returncode == 0, proc.stderr
    num, den = json.loads(proc.stdout)["result"]["probability"].split("/")
    want = prob_exists(ProblemSpec(60, 600))
    assert (int(Decimal(num)), int(Decimal(den))) == (want.numerator, want.denominator)


def test_trace_exponents_never_pass_through_str_int(monkeypatch):
    # the trace of (3, 3200) prints q exponents of up to 848 digits; its
    # untraced answer printed them exactly before its trace did
    proc = run_module(
        monkeypatch, "-X", "int_max_str_digits=640", "-m", "brokenstick.cli",
        "omega", "--k", "3", "--n", "3200", "--trace",
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)["result"]["steps"]
    heads = [m.split("*")[0].split("/")[0] for step in steps for m in step["produced"]]
    _, want = omega.run_elimination(ProblemSpec(3, 3200), trace=True)
    exponents = [fac.q_exp for step in want for fac in step.produced]
    assert heads == ["q" if e == 1 else f"q^{e}" for e in exponents]
    assert len(str(max(exponents))) > 640
