"""Each CLI command imports only the SciPy parts its code path calls.

SciPy's submodules cost 0.15-0.2 s each to import, several times what a
one-shot `analyze` computes, so a module-level import that no command path
uses shows up as start-up time. One fresh interpreter runs the commands in
turn and reports which submodules are loaded after each.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qkd_mismatch

DATA = Path(__file__).resolve().parent.parent / "data"
HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.special")

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
    package_root = str(Path(qkd_mismatch.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=HEAVY), json.dumps(steps)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
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
