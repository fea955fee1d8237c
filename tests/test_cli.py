"""Command-line behavior: payloads, formats, and exit codes."""

import csv
import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import prod

import pytest

import brokenstick
from brokenstick import ProblemSpec, __version__, parts_multiset, prob_exists, prob_none
from brokenstick.cli import (
    _DIRECT_BITS,
    _FIB_MAX_UPTO,
    _OMEGA_MAX_STEPS,
    _OMEGA_MAX_TRACE_BYTES,
    _PROB_NONE_MAX_BITS,
    _decimal_str,
    _digits,
    _none_denominator_bits,
    _omega_cost,
    _to_decimal,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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


def test_prob_ngon_needs_no_k(capsys):
    record = run_json(capsys, "prob", "ngon", "--n", "4")
    assert record["result"] == {"probability": "1/2"}
    code, _, err = run_cli(capsys, "prob", "ngon", "--k", "3", "--n", "4")
    assert code == 3
    assert "ngon" in err


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


def test_count_positive_rejected_for_series_oracles(capsys):
    for oracle in ("parts", "series"):
        code, _, err = run_cli(
            capsys, "count", "--k", "3", "--n", "3", "--N-value", "5",
            "--oracle", oracle, "--positivity", "positive",
        )
        assert code == 3
        assert "nonnegative" in err


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


def test_fib_refuses_upto_past_bound(capsys):
    code, out, err = run_cli(capsys, "fib", "--k", "2", "--upto", str(_FIB_MAX_UPTO + 1))
    assert (code, out) == (3, "")
    assert f"limit {_FIB_MAX_UPTO}" in err


def test_omega_refuses_work_past_bound(capsys):
    # k = 3: n^2 + 9 (n - 2) steps pass 10^8 at n = 9996
    assert _omega_cost(3, 9_995)[0] <= _OMEGA_MAX_STEPS < _omega_cost(3, 9_996)[0]
    for trace in ((), ("--trace",)):
        code, out, err = run_cli(capsys, "omega", "--k", "3", "--n", "9996", *trace)
        assert (code, out) == (3, "")
        assert f"limit {_OMEGA_MAX_STEPS}" in err


def test_omega_refuses_trace_memory_past_bound(capsys):
    # (100, 2324) is within the step bound; only the trace is refused
    assert _omega_cost(100, 2_323)[1] <= _OMEGA_MAX_TRACE_BYTES < _omega_cost(100, 2_324)[1]
    assert _omega_cost(100, 2_324)[0] <= _OMEGA_MAX_STEPS
    code, out, err = run_cli(capsys, "omega", "--k", "100", "--n", "2324", "--trace")
    assert (code, out) == (3, "")
    assert f"limit {_OMEGA_MAX_TRACE_BYTES}" in err


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


def run_module(monkeypatch, *argv):
    # the child interpreter imports the same package as this one
    src = os.path.dirname(os.path.dirname(brokenstick.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True)


def test_module_entry_point(monkeypatch):
    proc = run_module(monkeypatch, "-m", "brokenstick.cli", "prob", "none", "--k", "4", "--n", "4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["probability"] == "1/2"


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
