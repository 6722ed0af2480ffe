"""Benchmark harness for qkd-mismatch.

Runs one named workload in-process through `qkd_mismatch.cli.main`, checks
every output, and prints one JSON result as the last line of stdout:

    python3 bench/run.py --workload sweep-demo --seed 1 --seconds 56 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` first repeats the
workload untraced, then traced, and reports the per-layer metrics. A unit of
work (one sweep, or one pass over the characterize-analyze stream) is repeated
while another unit is predicted to finish inside `--seconds`, and at least
`MIN_UNITS` times. Spans and the full result go to `bench/out/`.

Exits with code 2, printing no result, when the package sources or the demo
data are missing from the checkout.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: at d <= 64 OpenBLAS workers only spin, doubling CPU use and
# coupling the timings to whatever else runs on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_UNITS = 2
SETUP_PROBES = 4
# Reference-kernel repeats timed before each unit with tracing off.
REF_REPEATS = 5
# Share of --seconds spent untraced in a --trace 1 run, to measure overhead.
UNTRACED_SHARE = 1.0 / 3.0


def import_program():
    """Import the package from this checkout's src/, or None if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("qkd_mismatch.cli")
    except ImportError:
        return None
    if not Path(cli.__file__).resolve().is_relative_to(src):
        return None
    return cli


def environment() -> dict:
    import numpy as np
    import scipy

    def git_sha():
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return None
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            return path.read_text().strip() if path.is_file() else None
        return ref

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def call(main, argv, tracer):
    """One request: (exit code, latency in s, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.call_root(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


def reference_times(count: int) -> list:
    """Time a fixed computation that uses no package code: a Python loop and
    six 64 x 64 symmetric eigensolves, about 4 ms on an idle core. Host
    contention slows it about as much as it slows the requests around it."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 64))
    a = a + a.T
    times = []
    for _ in range(count):
        start = time.perf_counter()
        total = 0.0
        for i in range(20_000):
            total += i * 0.5
        for _ in range(6):
            np.linalg.eigh(a)
        times.append(time.perf_counter() - start)
    return times


def run_units(main, workload, budget_s, tracer=None, min_units=1, reference=None):
    """Repeat the workload's unit; return unit times, request latencies and
    outputs, the last two as one list per unit. With a `reference` list, the
    reference kernel is timed into it before each unit."""
    unit_times, latencies, outputs = [], [], []
    begin = time.perf_counter()
    while True:
        if reference is not None:
            reference += reference_times(REF_REPEATS)
        if tracer:
            tracer.unit = len(unit_times)
        results, unit_latencies = [], []
        start = time.perf_counter()
        for req in workload.requests:
            code, elapsed, text = call(main, req.argv, tracer)
            unit_latencies.append(elapsed)
            results.append((code, text))
        latencies.append(unit_latencies)
        unit_times.append(time.perf_counter() - start)
        outputs.append(results)
        elapsed = time.perf_counter() - begin
        if len(unit_times) >= min_units and elapsed + statistics.median(unit_times) > budget_s:
            return unit_times, latencies, outputs


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, so one noisy request next to the quantile moves it less
    than the two-point interpolation of `statistics.quantiles`."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values: steadier than their median,
    which jumps between the host's fast and slow spells, and unmoved by the
    rare long stall that would drag a plain mean."""
    x = sorted(values)
    k = len(x) // 4
    return statistics.fmean(x[k:len(x) - k])


def check_outputs(workload, outputs):
    """(failed request count, problems, rate_mean) over all units."""
    failed = 0
    problems = []
    first = outputs[0]
    for u, results in enumerate(outputs):
        for i, (req, (code, text)) in enumerate(zip(workload.requests, results)):
            found = []
            if code not in req.expect_codes:
                found.append(f"exit {code}, expected {req.expect_codes}")
            else:
                try:
                    found += req.check(text)
                except (ValueError, KeyError, TypeError) as exc:
                    found.append(f"unreadable output: {type(exc).__name__}: {exc}")
            if u > 0 and (code, text) != first[i]:
                found.append("output differs from the first unit")
            if found:
                failed += 1
                problems.append({"unit": u, "argv": req.argv, "problems": found})
    rates = []
    for req, (code, text) in zip(workload.requests, first):
        if req.rate_column and code == 0:
            try:
                rates += [row[req.rate_column] for row in json.loads(text)]
            except (ValueError, KeyError, TypeError):
                pass
    rate_mean = statistics.fmean(rates) if rates and None not in rates else float("nan")
    return failed, problems, rate_mean


def setup_probes(args) -> list:
    """Repeat the set-up in fresh processes; return their set-up times."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode == 0:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=56.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    if cli is None:
        print(f"error: qkd_mismatch sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = HERE / "out" / tag
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.tiny)
    except FileNotFoundError as exc:
        print(f"error: input missing: {exc}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "notes": workload.notes, "env": environment()}
    tracer = None
    if args.trace:
        untraced, _, plain_outputs = run_units(cli.main, workload, args.seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            budget = args.seconds - sum(untraced)
            unit_times, _, outputs = run_units(cli.main, workload, budget, tracer)
        finally:
            tracer.uninstall()
        outputs = plain_outputs + outputs
        tracer.dump(work.parent / f"{tag}.spans.jsonl")
        metrics = tracer.metrics(len(unit_times))
        metrics["trace.overhead_frac"] = min(unit_times) / min(untraced) - 1.0
        counts = tracer.per_unit_counts()
        deterministic = all(c == counts[0] for c in counts.values())
    else:
        ref_times = []
        unit_times, latencies, outputs = run_units(cli.main, workload, args.seconds,
                                                   min_units=MIN_UNITS, reference=ref_times)
        deterministic = True

    failed, problems, rate_mean = check_outputs(workload, outputs)
    attempted = len(workload.requests) * len(outputs)
    if not args.trace:
        setups = [setup_s] + setup_probes(args)
        # Each request's interquartile mean over units, in multiples of the
        # reference kernel's in the same run: host contention that lasts
        # minutes slows both alike, so the ratio holds while the seconds drift.
        typical = [interquartile_mean(column) for column in zip(*latencies)]
        ref_s = interquartile_mean(ref_times)
        seconds = {"wall_s": sum(typical), "op_p50_ms": harrell_davis(typical, 0.5) * 1e3,
                   "op_p90_ms": harrell_davis(typical, 0.9) * 1e3, "ref_ms": ref_s * 1e3}
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": sum(typical) / ref_s,
            "op_p50_ref": harrell_davis(typical, 0.5) / ref_s,
            "op_p90_ref": harrell_davis(typical, 0.9) / ref_s,
            "rate_mean": rate_mean,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.update(seconds=seconds, setup_samples_s=setups, latencies_s=latencies,
                      ref_samples_s=ref_times)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in declared[kind]}
    if set(unit_of) != set(metrics):
        problems.append({"metrics": {"missing": sorted(set(unit_of) - set(metrics)),
                                     "undeclared": sorted(set(metrics) - set(unit_of))}})
    correct = failed == 0 and deterministic and not problems and all(
        math.isfinite(v) for v in metrics.values())
    result.update(unit_times_s=unit_times, problems=problems[:20], deterministic=deterministic)
    (work.parent / f"{tag}.result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": result["env"], "notes": workload.notes,
                      "seconds": result.get("seconds"), "problems": problems[:5]}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in unit_of.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
