"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that every workload prints exactly the metrics BENCHMARK.json declares,
in both modes; that the output checks reject a deliberately wrong reference
value, a wrong exit code and a non-repeating output; and that the harness
fails, printing no result, in a directory without the package.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_harness(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def check_emitted(declared: dict) -> None:
    for spec in declared["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_harness(spec["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] is True and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (spec["name"], trace, set(want) ^ set(got))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok  {spec['name']:22s} trace={trace}  {len(got)} metrics")


def check_checks_bite() -> None:
    """The checks pass on real output and fail on a wrong reference."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from run import call, check_outputs
    from qkd_mismatch.cli import main

    work = HERE / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        demo = wl.sweep_demo(ROOT, work, seed=7, tiny=True)
        (req,) = demo.requests
        code, _, text = call(main, req.argv, None)
        assert code == 0 and req.check(text) == [], req.check(text)
        rows = json.loads(text)
        ratio = wl.limiting_ratio(*wl.read_spec(ROOT / "data" / "demo_detectors.json"))
        for e, (p, ep) in wl.DEMO_GOLDEN.items():
            wrong = {**wl.DEMO_GOLDEN, e: (p + 3 * wl.GOLDEN_TOL, ep)}
            assert wl.check_demo_golden(rows, ratio, wrong), "golden p_succ shift not caught"
            wrong = {**wl.DEMO_GOLDEN, e: (p, ep - 3 * wl.GOLDEN_TOL)}
            assert wl.check_demo_golden(rows, ratio, wrong), "golden e_p shift not caught"
        assert wl.check_demo_golden(rows, ratio * 1.05), "wrong D_max not caught"
        assert wl.check_sweep_rows(rows, [0.0, 0.05, 0.1], ratio * (1 + 1e-4), True), "bound columns"
        flipped = [dict(r, p_succ_opt=r["p_succ_bound"] - 2 * wl.DOMINANCE_TOL) for r in rows]
        assert wl.check_sweep_rows(flipped, [0.0, 0.05, 0.1], ratio, True), "dominance"
        print("ok  sweep checks reject wrong golden values, D_max, bounds and dominance")

        stream = wl.characterize_analyze(ROOT, work, seed=7, tiny=True)
        unit = [call(main, r.argv, None)[::2] for r in stream.requests]
        failed, problems, _ = check_outputs(stream, [unit, unit])
        assert failed == 0, problems
        analyze = next(i for i, r in enumerate(stream.requests)
                       if r.argv[0] == "analyze" and "full" in r.argv)
        doc = json.loads(unit[analyze][1])
        dim = doc["dimension"]
        assert wl.check_analyze(doc, doc["limiting_ratio"], dim, "full") == []
        assert wl.check_analyze(doc, doc["limiting_ratio"] * 1.001, dim, "full"), "ratio"
        assert wl.check_analyze(dict(doc, noiseless_rate=doc["noiseless_rate"] * 1.001),
                                doc["limiting_ratio"], dim, "full"), "noiseless rate"
        assert wl.check_analyze(dict(doc, validity_margin=-1e-6),
                                doc["limiting_ratio"], dim, "full"), "validity margin"
        attack = next(i for i, r in enumerate(stream.requests) if r.argv[0] == "attack")
        doc = json.loads(unit[attack][1])
        assert wl.check_attack(doc, doc["eve_guess_prob"] + 1e-6), "analytic guess"
        far = doc["eve_guess_prob"] + 5 * doc["empirical_sigma"] + 1e-9
        assert wl.check_attack(dict(doc, eve_guess_prob_empirical=far), doc["eve_guess_prob"]), "4 sigma"
        bad_exit = [(2 if i == analyze else code, text) for i, (code, text) in enumerate(unit)]
        assert check_outputs(stream, [unit, bad_exit])[0] == 1, "unexpected exit code"
        changed = list(unit)
        changed[attack] = (0, unit[attack][1].replace("0", "1", 1))
        assert check_outputs(stream, [unit, changed])[0] >= 1, "non-repeating output"
        print("ok  stream checks reject wrong ratio, rate, margin, attack, exit code, drift")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory(declared: dict) -> None:
    """Without the package the harness must fail and print no result."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in declared["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for spec in declared["workloads"]:
            proc = run_harness(spec["name"], 0, cwd=bare)
            assert proc.returncode != 0, proc.stdout
            assert '"correct"' not in proc.stdout, proc.stdout
        print("ok  harness fails without the package")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_emitted(declared)
    check_checks_bite()
    check_bare_directory(declared)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
