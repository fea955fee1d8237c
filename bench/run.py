"""Benchmark of the brokenstick CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

The benchmark imports the package from the checkout's ``src/`` (never an
installed copy), builds the workload's request list from ``--seed`` and
sends it through ``brokenstick.cli.main(argv)`` in this process, with
stdout captured, in a closed loop: one client, no extra threads, whole
passes over the list until ``--seconds`` have passed, so every run sends
the same request mix.  Every distinct response is then checked, outside
the timed region, against an independent reference (``reference.py``).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: wall time from spawning a fresh interpreter until
  ``brokenstick.cli`` is imported and has answered the workload's
  smallest request; the median over samples taken between passes (at
  least nine), each the faster of two back-to-back spawns.  A CLI user
  pays this on every call.
* ``requests_per_s``: correct requests per second of the loop, each
  request taking its best time of the run.
* ``latency_p50_ms`` / ``latency_p90_ms``: quantiles over the requests
  of each one's best ``cli.main`` wall time.
* ``peak_rss_mib``: peak resident memory of this process after the
  timed loop (``resource.getrusage``).
* ``success_rate``: share of sends that exited 0 and passed their check;
  the failures are the result's ``failed`` count.

``--trace 1`` sends each request once per pass, untraced for half the
time and then traced (``spans.py``) for the other half, and prints the
per-layer metrics: busy and self time per layer and function per pass,
call and work counts per pass, errors per layer, import times from
``python -X importtime``, and the untraced and traced request rates
whose ratio is the tracing overhead.  The spans go to
``bench/out/spans-<workload>-<seed>.jsonl``.

Lines before the last one carry provenance and the traffic shape; the
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
See ``README.md`` for the workloads and how the metrics relate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from reference import References, check
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 9
# Back-to-back sends of one request per pass continue until they have
# taken this long (s).  On a shared host a fixed loop can run up to 30%
# slower for seconds to tens of seconds at a time, so a millisecond
# request needs many samples for its best time.
REPEAT_S = 0.01
IMPORTTIME_REPEATS = 3

# A fresh interpreter: import the checkout's CLI and answer one request.
_CHILD = (
    "import sys; sys.path.insert(0, 'src'); from brokenstick import cli; "
    "sys.exit(cli.main(sys.argv[1:]))"
)


def _load_package():
    """Import brokenstick from the checkout's src/ and prove that it did."""
    # The CLI prints exact integers of any size, but Python >= 3.11 refuses
    # str() of an int over 4300 digits by default, so in a fresh process
    # `prob none --k 25 --n 250` and every larger exact answer exit 3.
    # The limit is lifted here so the scaling points measure the
    # computation; the defect stays the CLI's to fix.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if not (SRC / "brokenstick" / "__init__.py").is_file():
        raise SystemExit(f"no brokenstick package under {SRC}; run from a checkout root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import brokenstick
    import brokenstick.cli

    if Path(brokenstick.__file__).resolve().parent != (SRC / "brokenstick").resolve():
        raise SystemExit(f"imported {brokenstick.__file__}, not the checkout's src/")
    return brokenstick


def _smallest(workload: str) -> list[str]:
    return {
        "exact-sweep": ["prob", "none", "--k", "3", "--n", "3"],
        "simulate": ["simulate", "--mode", "none", "--k", "3", "--n", "3", "--trials", "1000"],
        "oracles": ["count", "--k", "3", "--n", "3", "--N-value", "10", "--oracle", "brute"],
    }[workload]


def time_setup(argv: list[str]) -> float:
    """Seconds from spawning an interpreter to its answer to argv."""
    start = time.perf_counter()
    code = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], cwd=ROOT, stdout=subprocess.DEVNULL
    ).returncode
    if code != 0:
        raise SystemExit(f"set-up request {argv} exited with {code}")
    return time.perf_counter() - start


def measure_imports(argv: list[str], repeats: int) -> dict[str, float]:
    """Median cumulative import times (ms) of numpy and the package."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _CHILD, *argv],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1000
        runs.append(
            {
                "import.numpy_ms": cumulative.get("numpy", 0.0),
                "import.brokenstick_ms": cumulative.get("brokenstick", 0.0)
                + cumulative.get("brokenstick.cli", 0.0),
            }
        )
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


class Loop(NamedTuple):
    """One timed loop: whole passes over the request list."""

    passes: int
    attempted: int
    best: list[float]  # per request, its shortest time (s)
    responses: list[dict]  # per request, count of each (code, stdout, stderr)

    def rate(self, failed: int = 0) -> float:
        """Correct requests per second, each request taking its best time."""
        return (1 - failed / self.attempted) * len(self.best) / sum(self.best)


def run_loop(
    main, requests, seconds: float, repeat_s: float = 0.0, tracer=None, after_pass=None
) -> Loop:
    """Send requests in order, pass after pass, until seconds have passed.

    Within a pass a request is sent again, back to back, until its sends
    have taken repeat_s, so cheap requests get many samples for their
    best time.  after_pass, if given, is called between passes.
    """
    best = [float("inf")] * len(requests)
    responses: list[dict] = [{} for _ in requests]
    passes = attempted = 0
    start = time.perf_counter()
    while True:
        for i, req in enumerate(requests):
            spent = 0.0
            while spent <= repeat_s:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = time.perf_counter()
                    if tracer is None:
                        code = _call(main, req.argv)
                    else:
                        tracer.request = attempted
                        tracer.counts["cli.requests"] += 1
                        with tracer.span("cli", "main"):
                            code = _call(main, req.argv)
                        if code != 0:
                            tracer.counts["cli.errors"] += 1
                    took = time.perf_counter() - t0
                spent += took
                attempted += 1
                best[i] = min(best[i], took)
                key = (code, out.getvalue(), err.getvalue())
                responses[i][key] = responses[i].get(key, 0) + 1
        passes += 1
        if after_pass is not None:
            after_pass()
        if time.perf_counter() - start >= seconds:
            return Loop(passes, attempted, best, responses)


def _call(main, argv):
    try:
        return main(list(argv))
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        return f"raised {exc!r}"


def count_failures(refs, requests, responses) -> tuple[int, list[str]]:
    """Check every distinct response; return (failed requests, messages)."""
    failed, messages = 0, []
    for req, seen in zip(requests, responses):
        for (code, out, err), times in seen.items():
            why = check(refs, req.command, req.params, code, out)
            if why is not None:
                failed += times
                messages.append(f"{' '.join(req.argv)}: {why} {err.strip()[:200]}")
    return failed, messages


def provenance(package, workload: str, seed: int, requests) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _tree_hash(SRC / "brokenstick"),
        "workload": workload,
        "seed": seed,
        "requests_sha256": workloads.list_hash(requests),
        "brokenstick_file": package.__file__,
        "int_max_str_digits": sys.get_int_max_str_digits()
        if hasattr(sys, "get_int_max_str_digits") else None,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
        elif kind != "Instruction":
            sizes["L1d"] = size
    return sizes


def _git_commit() -> str:
    # The benchmark may run from an export that is not a git repository;
    # the ceiling keeps git from reporting an enclosing repository instead.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True,
        )
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    requests=None,
    refs=None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Run one workload and return the result object.

    ``requests`` and ``refs`` replace the generated request list and the
    reference answers; the benchmark's self-test uses them.
    """
    package = _load_package()
    if requests is None:
        requests = workloads.build(workload, seed)
    info = provenance(package, workload, seed, requests)
    print(json.dumps({"provenance": info}))
    print(json.dumps({"traffic": workloads.shape(requests)}))

    main = package.cli.main
    if trace:
        imports = measure_imports(_smallest(workload), IMPORTTIME_REPEATS)
        plain = run_loop(main, requests, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(main, requests, seconds / 2, tracer=tracer)
        finally:
            tracer.remove()
        loops = [plain, traced]
    else:
        # One set-up sample after each pass spreads them over the run, so
        # their median does not hang on one slow stretch of the host.  A
        # sample is the faster of two back-to-back spawns: single spawns
        # on a shared host differ by half from one second to the next.
        setups: list[float] = []

        def spawn() -> None:
            setups.append(min(time_setup(_smallest(workload)) for _ in range(2)))

        loops = [run_loop(main, requests, seconds, REPEAT_S, after_pass=spawn)]
        while len(setups) < setup_repeats:
            spawn()
        setup_s = statistics.median(setups)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    refs = refs if refs is not None else References()
    failed = []
    for loop in loops:
        bad, messages = count_failures(refs, requests, loop.responses)
        failed.append(bad)
        for message in messages[:20]:
            print(f"check failed: {message}", file=sys.stderr)

    if trace:
        metrics = _layer_metrics(tracer, *loops, imports)
        OUT.mkdir(parents=True, exist_ok=True)
        header = {"provenance": info, "passes": loops[1].passes}
        tracer.write(OUT / f"spans-{workload}-{seed}.jsonl", header)
    else:
        (loop,) = loops
        metrics = {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (loop.rate(failed[0]), "1/s"),
            "latency_p50_ms": (_quantile(loop.best, 50) * 1e3, "ms"),
            "latency_p90_ms": (_quantile(loop.best, 90) * 1e3, "ms"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
            "success_rate": (1 - failed[0] / loop.attempted, "ratio"),
        }
    return {
        "correct": sum(failed) == 0,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _layer_metrics(tracer, plain: Loop, traced: Loop, imports) -> dict[str, tuple[float, str]]:
    measured = tracer.metrics(traced.passes)
    measured.update(imports)
    busy_s = measured.get("montecarlo.estimate_ms", 0.0) / 1e3
    if busy_s:
        measured["montecarlo.trials_per_busy_s"] = measured["montecarlo.trials"] / busy_s
    measured["trace.untraced_requests_per_s"] = plain.rate()
    measured["trace.traced_requests_per_s"] = traced.rate()
    return {name: (measured.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}


# Per-layer metrics.  Times and counts are per pass of the request list.
PER_LAYER = {
    "cli.self_ms": "ms",
    "cli.requests": "count",
    "probability.self_ms": "ms",
    "probability.prob_none_ms": "ms",
    "probability.prob_none_calls": "count",
    "probability.prob_forall_ms": "ms",
    "probability.prob_forall_calls": "count",
    "probability.prob_ngon_ms": "ms",
    "genfib.self_ms": "ms",
    "genfib.parts_multiset_ms": "ms",
    "genfib.f_sum_calls": "count",
    "omega.self_ms": "ms",
    "omega.run_elimination_ms": "ms",
    "omega.build_crude_ms": "ms",
    "omega.markers": "count",
    "counting.self_ms": "ms",
    "counting.count_constrained_ms": "ms",
    "counting.count_restricted_ms": "ms",
    "counting.series_coefficients_ms": "ms",
    "counting.hermite_coeff_ms": "ms",
    "counting.asymptotic_ratio_ms": "ms",
    "montecarlo.self_ms": "ms",
    "montecarlo.estimate_ms": "ms",
    "montecarlo.trials": "count",
    "montecarlo.trials_per_busy_s": "1/s",
    "montecarlo.bytes_computed": "bytes",
    "verification.self_ms": "ms",
    "verification.run_suite_ms": "ms",
    "verification.checks": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "import.numpy_ms": "ms",
    "import.brokenstick_ms": "ms",
    "trace.untraced_requests_per_s": "1/s",
    "trace.traced_requests_per_s": "1/s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
