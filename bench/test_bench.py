"""Self-test of the benchmark on a tiny configuration.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Each workload runs one pass over its cheapest requests, once untraced
and once traced.  The test asserts that every metric BENCHMARK.json
names is emitted with its unit, and that a deliberately wrong reference
value is counted as a failed request.
"""

import json
from fractions import Fraction

import pytest

import run
import workloads
from reference import References

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str) -> list:
    """The generated requests that take a few milliseconds at most."""
    return [
        req
        for req in workloads.build(workload, seed=7)
        if req.params.get("n", 0) <= 10
        and req.params.get("trials", 0) <= 5_000
        and req.params.get("n_value", 0) <= 400
        and req.params.get("suite") in (None, "prop2", "hermite")
    ]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    requests = _tiny(workload)
    assert requests
    result = run.run_benchmark(workload, 7, 0.0, trace, requests=requests, setup_repeats=1)
    assert (result["correct"], result["failed"]) == (True, 0)
    # Untraced, cheap requests are sent several times a pass; traced, once.
    if trace:
        assert result["attempted"] == 2 * len(requests)
    else:
        assert result["attempted"] >= len(requests)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


class _WrongNone(References):
    def none(self, k, n):
        return super().none(k, n) + Fraction(1, 10**9)


def test_wrong_reference_is_counted_as_failure():
    requests = [r for r in _tiny("exact-sweep") if r.params.get("event") in ("none", "exists")]
    assert requests
    result = run.run_benchmark(
        "exact-sweep", 7, 0.0, False, requests=requests, refs=_WrongNone(), setup_repeats=1
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == 0.0


def test_same_seed_same_requests():
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 3)
        assert workloads.list_hash(first) == workloads.list_hash(workloads.build(workload, 3))
        assert workloads.list_hash(first) != workloads.list_hash(workloads.build(workload, 4))
        assert len(first) >= 100  # ten requests beyond the 90th percentile
