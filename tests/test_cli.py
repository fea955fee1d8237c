"""Command-line behavior: payloads, formats, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import brokenstick
from brokenstick import ProblemSpec, __version__, prob_none
from brokenstick.cli import main


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


def test_module_entry_point(monkeypatch):
    # the child interpreter imports the same package as this one
    src = os.path.dirname(os.path.dirname(brokenstick.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "brokenstick.cli", "prob", "none", "--k", "4", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["probability"] == "1/2"
