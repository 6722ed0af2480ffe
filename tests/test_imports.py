"""Each CLI command imports only the SciPy parts its code path calls, and
only a command that reads or writes a detector spec or prints `--json`
imports orjson, which does all three.

SciPy's submodules cost 0.15-0.2 s each to import, several times what a
one-shot `analyze` computes, so a module-level import that no command path
uses shows up as start-up time. `fractions` (which loads `decimal`) serves
only the test oracles, so no command may load it. One fresh interpreter runs
the commands in turn and reports which of these modules are loaded after each.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qkd_mismatch

DATA = Path(__file__).resolve().parent.parent / "data"
HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.special", "fractions")

PROBE = """
import contextlib, io, json, sys

heavy = {heavy!r}

def loaded():
    return [name for name in heavy if name in sys.modules]

from qkd_mismatch import cli

report = {{"import": [0, loaded()]}}
for step, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report[step] = [code, loaded()]
print(json.dumps(report))
"""


def _run_probe(steps, heavy) -> dict:
    """{step: [exit code, modules of `heavy` loaded so far]} from one fresh interpreter."""
    package_root = str(Path(qkd_mismatch.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=heavy), json.dumps(steps)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_load_only_the_scipy_parts_they_call(tmp_path):
    demo = str(DATA / "demo_detectors.json")
    steps = [
        ("analyze", ["analyze", "--spec", demo]),
        ("attack", ["attack", "--spec", demo, "--n", "1000"]),
        ("sweep-bounds-only", ["sweep", "--spec", demo, "--bounds-only", "--steps", "3"]),
        ("characterize", ["characterize", str(DATA / "response_det0.csv"), str(DATA / "response_det1.csv"),
                          "--bandwidth-ghz", "1", "--gate-ns", "0:2", "--out", str(tmp_path / "spec.json")]),
        ("sweep-optimized", ["sweep", "--spec", demo, "--steps", "2", "--e-max", "0.05"]),
    ]
    report = _run_probe(steps, HEAVY)
    assert {step: code for step, (code, _) in report.items()} == dict.fromkeys(report, 0)
    loaded = {step: modules for step, (_, modules) in report.items()}
    assert loaded == {
        "import": [],
        "analyze": [],
        "attack": [],
        "sweep-bounds-only": [],
        "characterize": ["scipy.special"],
        "sweep-optimized": ["scipy.linalg", "scipy.special"],
    }


def test_commands_load_orjson_only_to_read_or_write_a_spec_or_print_json(tmp_path):
    characterize = ["characterize", str(DATA / "response_det0.csv"), str(DATA / "response_det1.csv"),
                    "--bandwidth-ghz", "1", "--gate-ns", "0:2"]
    # Once loaded, a module stays loaded: each command that should load
    # orjson runs in its own interpreter, after a plain `characterize`.
    for step, extra in [("characterize --json", ["--json"]),
                        ("characterize --out", ["--out", str(tmp_path / "spec.json")])]:
        steps = [("characterize", characterize), (step, characterize + extra)]
        assert _run_probe(steps, ("orjson",)) == {"import": [0, []], "characterize": [0, []], step: [0, ["orjson"]]}
    steps = [("analyze", ["analyze", "--spec", str(DATA / "demo_detectors.json")])]
    assert _run_probe(steps, ("orjson",)) == {"import": [0, []], "analyze": [0, ["orjson"]]}


def test_public_api_is_exactly_this_set():
    # A new public name, or a re-export of a test oracle, is a decision: make it here.
    assert sorted(qkd_mismatch.__all__) == [
        "Analysis", "AttackOutcome", "ContinuousResponse", "DetectorPair", "DetectorSpecFile",
        "EfficiencyResponse", "EveState", "FilteredGate", "KeyRateReport", "Knowledge",
        "MismatchSpectrum", "NoiselessRate", "RateMethod", "RateStatistics", "TimeShiftScenario",
        "VirtualFilterC", "ZeroRateReason", "analyze_pair", "binary_entropy", "compute_filter",
        "deflate_common_nullspace", "diagonal_only_response", "discretize_response",
        "evaluate_statistics", "four_phase_rate", "load_pair", "maximize_phase_error",
        "minimize_filter_success", "mismatch_ratio_bounds", "mismatch_spectrum", "noiseless_rate",
        "noisy_rate", "read_response_csv", "read_spec_file", "sample_grid", "scalar_reference_rates",
        "simulate_time_shift", "special_case_rate", "swap_detectors", "write_response_csv",
        "write_spec_file",
    ]
    assert all(hasattr(qkd_mismatch, name) for name in qkd_mismatch.__all__)
