import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qkd_mismatch
from qkd_mismatch import (
    binary_entropy,
    load_pair,
    mismatch_spectrum,
    noiseless_rate,
    write_response_csv,
    write_spec_file,
)
from qkd_mismatch import cli, detectors, filtering
from qkd_mismatch.cli import MAX_SWEEP_STEPS, build_parser, main

from conftest import DEMO_E0, DEMO_E1, assert_differs_only_in_float_spelling, count_eigensolves, near_singular_pair

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def demo_spec(tmp_path):
    path = tmp_path / "demo.json"
    write_spec_file(path, DEMO_E0, DEMO_E1, "early-peaked", "late-peaked")
    return str(path)


@pytest.fixture()
def identity_spec(tmp_path):
    path = tmp_path / "identity.json"
    write_spec_file(path, 0.5 * np.eye(2), 0.5 * np.eye(2))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_demo_report(capsys, demo_spec):
    code, out, _ = run_cli(capsys, "analyze", "--spec", demo_spec)
    assert code == 0
    assert "D = [3.03, 0.356]" in out
    assert "R_noiseless = 0.496" in out


def test_analyze_identity_pair(capsys, identity_spec):
    code, out, _ = run_cli(capsys, "analyze", "--spec", identity_spec)
    assert code == 0
    assert "R_noiseless = 1.000" in out


def test_analyze_singular_exits_two(capsys, tmp_path):
    path = tmp_path / "singular.json"
    write_spec_file(path, np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
    code, out, _ = run_cli(capsys, "analyze", "--spec", str(path))
    assert code == 2
    assert "SingularDetector" in out


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
def test_sweep_singular_exits_two(capsys, tmp_path, fmt):
    path = tmp_path / "singular.json"
    write_spec_file(path, np.diag([0.5, 0.0]), np.diag([0.5, 0.5]))
    rows = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "sweep", "--spec", str(path), *fmt)
    assert code == 2 and out == ""
    assert err == "zero-rate reason: SingularDetector\n"
    code, out, _ = run_cli(capsys, "sweep", "--spec", str(path), "--out", str(rows), *fmt)
    assert code == 2 and out == "" and not rows.exists()


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["attack", "--n", "1000"], ["sweep", "--bounds-only", "--steps", "3"]],
    ids=["analyze", "attack", "sweep"],
)
def test_each_command_builds_the_spectrum_once(monkeypatch, capsys, demo_spec, argv):
    calls = []
    original = detectors.mismatch_spectrum

    def counting(pair):
        calls.append(pair.dim)
        return original(pair)

    for module in (detectors, filtering, cli):
        if getattr(module, "mismatch_spectrum", None) is original:
            monkeypatch.setattr(module, "mismatch_spectrum", counting)
    code, _, _ = run_cli(capsys, argv[0], "--spec", demo_spec, *argv[1:])
    assert code == 0 and calls == [2]


@pytest.mark.parametrize(
    "argv, expected",
    [(["attack", "--n", "1000"], [False]), (["sweep", "--bounds-only", "--steps", "3"], [False]),
     (["analyze"], [False, True]), (["sweep", "--steps", "3"], [False, True])],
    ids=["attack", "sweep-bounds-only", "analyze", "sweep-optimized"],
)
def test_only_the_filter_forms_singular_vectors(monkeypatch, capsys, demo_spec, argv, expected):
    # The ratios D need singular values only; the filter's basis U needs the full SVD.
    compute_uv = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        compute_uv.append(kwargs.get("compute_uv", True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    code, _, _ = run_cli(capsys, argv[0], "--spec", demo_spec, *argv[1:])
    assert code == 0 and compute_uv == expected


@pytest.mark.parametrize("extra, expected", [(["--bounds-only"], 0), ([], 1)], ids=["bounds-only", "optimized"])
def test_sweep_builds_the_filter_only_for_optimized_columns(monkeypatch, capsys, demo_spec, extra, expected):
    calls = []
    original = filtering.compute_filter

    def counting(spectrum, pair):
        calls.append(pair.dim)
        return original(spectrum, pair)

    for module in (qkd_mismatch, filtering, cli):
        if getattr(module, "compute_filter", None) is original:
            monkeypatch.setattr(module, "compute_filter", counting)
    code, _, _ = run_cli(capsys, "sweep", "--spec", demo_spec, "--steps", "3", *extra)
    assert code == 0 and len(calls) == expected


def test_analyze_diagonal_knowledge_exits_two(capsys, demo_spec):
    code, out, _ = run_cli(capsys, "analyze", "--spec", demo_spec, "--knowledge", "diagonal")
    assert code == 2
    assert "DiagonalOnlyKnowledge" in out


def test_analyze_json_matches_human_numbers(capsys, demo_spec):
    code, out, _ = run_cli(capsys, "analyze", "--spec", demo_spec, "--json")
    assert code == 0
    doc = json.loads(out)
    assert f"{doc['noiseless_rate']:.3f}" == "0.496"
    assert [f"{x:.3g}" for x in doc["ratios"]] == ["3.03", "0.356"]
    assert doc["p_succ_lower"] * doc["ep_ratio_upper"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_missing_file_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--spec", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error:" in err


def test_analyze_near_singular_pair_names_the_conditioning(capsys, tmp_path):
    path = tmp_path / "near_singular.json"
    write_spec_file(path, *near_singular_pair(0, 16, 1e-8))
    code, out, err = run_cli(capsys, "analyze", "--spec", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too close to singular" in err and "symmetry defect" not in err


@pytest.mark.parametrize("doc", [
    "[]", '{"dimension": null}', '{"dimension": 1e400}',
    '{"dimension": 1, "E0": [[[NaN, 0.0]]], "E1": [[[0.5, 0.0]]]}',
    '{"dimension": 1, "E0": [[[0.5, 0.0]]], "E1": [[[0.5, 0.0]]], "label0": null}',
])
def test_analyze_malformed_spec_ends_in_one_error_line(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--spec", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: detector spec ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ['"0.5"', "true", "null"])
def test_analyze_rejects_matrix_entries_that_are_not_numbers(capsys, tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dimension": 1, "E0": [[[{entry}, 0.0]]], "E1": [[[0.5, 0.0]]]}}', encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--spec", str(path))
    assert (code, out, err) == (1, "", "error: E0: entries must be [re, im] pairs of numbers\n")


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["sweep", "--bounds-only"], ["sweep", "--steps", "3"]])
def test_huge_antisymmetric_entries_end_in_one_error_line(capsys, tmp_path, argv):
    # ||E0||_F overflows to inf, which used to pass the symmetry and window checks
    path = tmp_path / "antisymmetric.json"
    path.write_text('{"dimension": 2, "E0": [[[0.3, 0], [1e200, 0]], [[-1e200, 0], [0.3, 0]]],'
                    ' "E1": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--spec", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: efficiency entry of modulus 1e+200") and err.count("\n") == 1


def _parse_sweep(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "sweep produced no rows"
    return rows


def test_sweep_identity_pair_columns(capsys, identity_spec):
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", identity_spec,
        "--e-max", "0.04", "--steps", "3", "--starts", "6", "--seed", "2",
    )
    assert code == 0
    for row in _parse_sweep(out):
        e = float(row["e_obs"])
        assert float(row["p_succ_bound"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["p_succ_opt"]) == pytest.approx(1.0, abs=1e-5)
        assert float(row["e_p_bound"]) == pytest.approx(e, abs=1e-9)
        assert float(row["e_p_opt"]) == pytest.approx(e, abs=1e-4)
        assert float(row["rate_4phase"]) == pytest.approx(
            max(0.0, 1.0 - 2.0 * binary_entropy(e)), abs=1e-12
        )
        assert row["status"] == "ok"


def test_sweep_bounds_only_leaves_opt_blank(capsys, demo_spec):
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", demo_spec, "--e-max", "0.02", "--steps", "2", "--bounds-only"
    )
    assert code == 0
    for row in _parse_sweep(out):
        assert row["p_succ_opt"] == "" and row["e_p_opt"] == "" and row["rate_opt"] == ""
        assert row["status"] == "ok"


def test_sweep_bitwise_reproducible(tmp_path, capsys, demo_spec):
    args = [
        "sweep", "--spec", demo_spec, "--e-max", "0.02", "--steps", "2",
        "--starts", "4", "--seed", "9",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_json_matches_csv(tmp_path, capsys, demo_spec):
    args = [
        "sweep", "--spec", demo_spec, "--e-max", "0.02", "--steps", "2",
        "--starts", "4", "--seed", "9",
    ]
    code, out_csv, _ = run_cli(capsys, *args)
    assert code == 0
    code, out_json, _ = run_cli(capsys, *args, "--json")
    assert code == 0
    rows = _parse_sweep(out_csv)
    docs = json.loads(out_json)
    assert len(rows) == len(docs)
    for row, doc in zip(rows, docs):
        for key in ("e_obs", "p_succ_bound", "p_succ_opt", "e_p_bound", "rate_opt"):
            assert float(row[key]) == doc[key]


def test_sweep_ignores_former_solver_flags(capsys, demo_spec):
    base = ["sweep", "--spec", demo_spec, "--e-max", "0.1", "--steps", "3", "--json"]
    solver_flags = ["--starts", "8", "--rank", "1", "--tol", "1e-5", "--seed", "1"]
    code, out, err = run_cli(capsys, *base, *solver_flags)
    assert code == 0 and "ignored" in err
    code, out_other, _ = run_cli(capsys, *base, "--starts", "64", "--seed", "808")
    assert code == 0 and out_other == out
    rows = {row["e_obs"]: row for row in json.loads(out)}
    noiseless = noiseless_rate(mismatch_spectrum(load_pair(DEMO_E0, DEMO_E1))).rate
    assert rows[0.0]["p_succ_opt"] == pytest.approx(noiseless, abs=1e-12)
    assert rows[0.0]["e_p_opt"] == 0.0
    for e, (p_golden, ep_golden) in {0.05: (0.387848, 0.108860), 0.1: (0.357901, 0.212029)}.items():
        assert rows[e]["p_succ_opt"] == pytest.approx(p_golden, abs=1e-5)
        assert rows[e]["e_p_opt"] == pytest.approx(ep_golden, abs=1e-5)


def test_sweep_rate_uses_the_tighter_certified_bounds(monkeypatch, capsys, demo_spec):
    # Looser dual values than the analytic bounds: the rate takes the bounds,
    # and the optimized columns still report the dual values.
    monkeypatch.setattr(cli, "minimize_filter_success", lambda *args: (0.1, None))
    monkeypatch.setattr(cli, "maximize_phase_error", lambda *args: (0.9, None))
    code, out, _ = run_cli(capsys, "sweep", "--spec", demo_spec, "--e-max", "0.1", "--steps", "3", "--json")
    assert code == 0
    for row in json.loads(out):
        assert row["status"] == "ok"
        assert row["p_succ_opt"] == 0.1 < row["p_succ_bound"]
        assert row["e_p_opt"] == 0.9 > row["e_p_bound"]
        assert row["rate_opt"] == row["rate_bound"]


def test_sweep_validates_flags(capsys, demo_spec):
    code, _, err = run_cli(capsys, "sweep", "--spec", demo_spec, "--e-max", "0.3")
    assert code == 1 and "e-max" in err
    code, _, err = run_cli(capsys, "sweep", "--spec", demo_spec, "--steps", "1")
    assert code == 1 and "steps" in err


def test_sweep_steps_cap_ends_in_one_error_line(capsys, demo_spec):
    for steps in (MAX_SWEEP_STEPS + 1, 100_000_000_000):
        code, out, err = run_cli(capsys, "sweep", "--spec", demo_spec, "--bounds-only", "--steps", str(steps))
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: --steps must lie in [2, {MAX_SWEEP_STEPS}], got {steps}"]


def test_sweep_e_max_cap_is_inclusive(capsys, demo_spec):
    code, out, err = run_cli(capsys, "sweep", "--spec", demo_spec, "--e-max", "0.3")
    assert code == 1 and out == ""
    assert "--e-max must be <= 0.25, got 0.3" in err
    code, out, _ = run_cli(capsys, "sweep", "--spec", demo_spec, "--e-max", "0.25", "--steps", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["e_obs"] for row in rows] == [0.0, 0.25]
    assert all(row["status"] == "ok" for row in rows)


def _assert_one_line_flag_error(code, out, err, flag):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("e_max", ["-0.1", "nan", "-inf"])
def test_sweep_rejects_e_max_below_zero_or_nan(capsys, demo_spec, e_max):
    _assert_one_line_flag_error(*run_cli(capsys, "sweep", "--spec", demo_spec, f"--e-max={e_max}"), "--e-max")


@pytest.mark.parametrize(
    "bandwidth, gate, flag",
    [("inf", "0:2", "--bandwidth-ghz"), ("nan", "0:2", "--bandwidth-ghz"),
     ("4", "0:inf", "--gate-ns"), ("4", "-inf:2", "--gate-ns"), ("4", "0:nan", "--gate-ns")],
)
def test_characterize_rejects_non_finite_flags(capsys, bandwidth, gate, flag):
    data = Path(__file__).resolve().parent.parent / "data"
    code, out, err = run_cli(
        capsys, "characterize", str(data / "response_det0.csv"), str(data / "response_det1.csv"),
        f"--bandwidth-ghz={bandwidth}", f"--gate-ns={gate}",
    )
    _assert_one_line_flag_error(code, out, err, flag)


@pytest.mark.parametrize(
    "bandwidth, gate",
    [("1e299", "0:2"), ("100000", "0:2"), ("1e12", "0:2"), ("1", "0:1e12"), ("1e290", "0:2")],
)
def test_characterize_absurd_grid_ends_in_one_error_line(capsys, bandwidth, gate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "characterize", str(DATA / "response_det0.csv"), str(DATA / "response_det1.csv"),
            f"--bandwidth-ghz={bandwidth}", f"--gate-ns={gate}",
        )
    assert code == 1 and out == ""
    assert re.fullmatch(r"error: gate .* needs \S+ samples, more than the 4096 supported\n", err)


@pytest.mark.parametrize("shift", ["0:0.5:1", "0:", "x", "0:p"])
def test_attack_names_the_bad_shift_token(capsys, demo_spec, shift):
    code, out, err = run_cli(capsys, "attack", "--spec", demo_spec, "--shift", f"1:0.5,{shift}")
    _assert_one_line_flag_error(code, out, err, "--shift")
    assert repr(shift) in err


def test_characterize_flat_quarter_roundtrip(tmp_path, capsys):
    csv0 = tmp_path / "r0.csv"
    csv1 = tmp_path / "r1.csv"
    for path in (csv0, csv1):
        write_response_csv(path, [-1.0, 0.0, 1.0, 2.0, 3.0], [0.25] * 5)
    out_spec = tmp_path / "flat.json"
    code, out, _ = run_cli(
        capsys, "characterize", str(csv0), str(csv1),
        "--bandwidth-ghz", "1", "--gate-ns", "0:2", "--out", str(out_spec),
    )
    assert code == 0
    assert "d = 5" in out
    code, out, _ = run_cli(
        capsys, "characterize", str(csv0), str(csv1),
        "--bandwidth-ghz", "1", "--gate-ns", "0:2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 5
    assert doc["diagonal0"] == pytest.approx([0.25] * 5, abs=1e-9)
    code, out, _ = run_cli(capsys, "analyze", "--spec", str(out_spec))
    assert code == 0
    assert "R_noiseless = 1.000" in out


def test_characterize_distinct_curves_show_mismatch(tmp_path, capsys):
    t = np.linspace(-0.5, 2.5, 121)
    csv0 = tmp_path / "r0.csv"
    csv1 = tmp_path / "r1.csv"
    write_response_csv(csv0, t, 0.8 * np.exp(-(((t - 0.8) / 0.5) ** 2)))
    write_response_csv(csv1, t, 0.75 * np.exp(-(((t - 1.2) / 0.5) ** 2)))
    out_spec = tmp_path / "humps.json"
    code, _, _ = run_cli(
        capsys, "characterize", str(csv0), str(csv1),
        "--bandwidth-ghz", "1", "--gate-ns", "0:2",
        "--diagonal-only", "--out", str(out_spec),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "--spec", str(out_spec), "--json")
    assert code == 0
    ratios = json.loads(out)["ratios"]
    assert max(abs(r - 1.0) for r in ratios) > 0.1


def test_characterize_coverage_error(tmp_path, capsys):
    csv0 = tmp_path / "short.csv"
    write_response_csv(csv0, [0.0, 1.0], [0.2, 0.2])
    code, _, err = run_cli(
        capsys, "characterize", str(csv0), str(csv0),
        "--bandwidth-ghz", "1", "--gate-ns", "0:2",
    )
    assert code == 1
    assert "error:" in err


def test_characterize_error_names_the_bad_csv(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_response_csv(good, [-1.0, 3.0], [0.5, 0.5])
    write_response_csv(bad, [-1.0, 3.0], [0.5, 1.5])
    code, _, err = run_cli(capsys, "characterize", str(good), str(bad), "--bandwidth-ghz", "1", "--gate-ns", "0:2")
    assert code == 1
    assert err == f"error: {bad}: efficiencies must lie in [0, 1], got [0.5, 1.5]\n"


def test_attack_report_and_json_agree(tmp_path, capsys):
    path = tmp_path / "diag.json"
    write_spec_file(path, np.diag([0.8, 0.5]), np.diag([0.2, 0.5]))
    args = ["attack", "--spec", str(path), "--shift", "0", "--n", "20000", "--seed", "3"]
    code, human, _ = run_cli(capsys, *args)
    assert code == 0
    code, out, _ = run_cli(capsys, *args, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eve_guess_prob"] == pytest.approx(0.8, abs=1e-12)
    assert doc["aware_rate"] == pytest.approx(0.4, abs=1e-12)
    assert f"{doc['eve_guess_prob']:.4g} analytic" in human
    assert f"aware rate = {doc['aware_rate']:.3f}" in human
    # rerun with the same seed gives identical numbers
    code, out2, _ = run_cli(capsys, *args, "--json")
    assert out2 == out


def test_shipped_demo_data_pipeline(tmp_path, capsys):
    data = Path(__file__).resolve().parent.parent / "data"
    out_spec = tmp_path / "characterized.json"
    code, _, _ = run_cli(
        capsys, "characterize",
        str(data / "response_det0.csv"), str(data / "response_det1.csv"),
        "--bandwidth-ghz", "1", "--gate-ns", "0:2",
        "--diagonal-only", "--out", str(out_spec),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "--spec", str(out_spec), "--json")
    assert code == 0
    assert json.loads(out)["noiseless_rate"] < 1.0
    code, out, _ = run_cli(
        capsys, "attack", "--spec", str(out_spec), "--shift", "0",
        "--n", "20000", "--seed", "4", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.5 <= doc["eve_guess_prob"] <= 1.0
    assert doc["aware_rate"] <= doc["naive_rate"] + 1e-9

    code, out, _ = run_cli(capsys, "analyze", "--spec", str(data / "demo_detectors.json"))
    assert code == 0 and "D = [3.03, 0.356]" in out


def test_characterize_runs_one_eigh_for_the_pulse_overlap(tmp_path, capsys, monkeypatch):
    # One eigh for the gate's pulse overlap; each response is validated by
    # its eigenvalues alone and factored by Cholesky.
    calls = count_eigensolves(monkeypatch)
    data = Path(__file__).resolve().parent.parent / "data"
    for bandwidth in ("1", "7.75"):
        calls.clear()
        code, _, _ = run_cli(
            capsys, "characterize", str(data / "response_det0.csv"), str(data / "response_det1.csv"),
            "--bandwidth-ghz", bandwidth, "--gate-ns", "0:2", "--out", str(tmp_path / "spec.json"), "--json",
        )
        assert code == 0
        assert calls == ["eigh", "eigvalsh", "eigvalsh"]


def test_full_rank_analyze_forms_no_eigenvectors(capsys, monkeypatch, demo_spec):
    # Two eigvalsh validate the responses, the SVDs give D and the filter's
    # basis, and two eigvalsh bound the filter's validity blocks.
    calls = count_eigensolves(monkeypatch)
    code, _, _ = run_cli(capsys, "analyze", "--spec", demo_spec, "--json")
    assert code == 0 and calls == ["eigvalsh"] * 2 + ["svd"] * 2 + ["eigvalsh"] * 2


@pytest.mark.parametrize("fault", ["raises", "perturbed"])
def test_analyze_with_a_failed_cholesky_factor_ends_in_one_error_line(capsys, monkeypatch, demo_spec, fault):
    original = np.linalg.cholesky

    def faulty(a):
        if fault == "raises":
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return original(a) + 1e-6 * np.eye(a.shape[0])

    monkeypatch.setattr(np.linalg, "cholesky", faulty)
    code, out, err = run_cli(capsys, "analyze", "--spec", demo_spec)
    assert (code, out) == (1, "")
    assert err.startswith("error: Cholesky factor") and err.count("\n") == 1 and "Traceback" not in err


def test_attack_mixed_shift_parsing(tmp_path, capsys):
    path = tmp_path / "diag.json"
    write_spec_file(path, np.diag([0.8, 0.5]), np.diag([0.2, 0.5]))
    code, out, _ = run_cli(
        capsys, "attack", "--spec", str(path), "--shift", "0:0.25,1:0.75",
        "--n", "5000", "--seed", "1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["eve_guess_prob"] == pytest.approx(0.25 * 0.8 + 0.75 * 0.5, abs=1e-12)
    code, _, err = run_cli(capsys, "attack", "--spec", str(path), "--shift", "0:0.25,1")
    assert code == 1 and "probabilities" in err


def test_attack_accepts_every_valid_scenario(tmp_path, capsys):
    path = tmp_path / "diag.json"
    write_spec_file(path, np.diag([0.8, 0.5]), np.diag([0.2, 0.5]))
    # A probability sum within the validation tolerance of 1.
    code, out, _ = run_cli(capsys, "attack", "--spec", str(path), "--shift", "0:1.0000000005,1:0", "--json")
    assert code == 0 and json.loads(out)["eve_guess_prob"] == 0.8
    code, out, _ = run_cli(capsys, "attack", "--spec", str(path), "--n", str(2**63 - 1), "--json")
    assert code == 0 and json.loads(out)["n_signals"] == 2**63 - 1
    code, out, err = run_cli(capsys, "attack", "--spec", str(path), "--n", str(2**63))
    assert code == 1 and out == "" and "int64" in err


def test_attack_json_echoes_the_simulated_law(tmp_path, capsys):
    path = tmp_path / "diag.json"
    write_spec_file(path, np.diag([0.8, 0.5]), np.diag([0.2, 0.5]))
    # Within the validation tolerance of 1: the scenario simulates the normalised law.
    code, out, _ = run_cli(capsys, "attack", "--spec", str(path), "--shift", "0:1.0000000005,1:0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["shift_indices"] == [0, 1] and doc["shift_probs"] == [1.0, 0.0]
    code, out, _ = run_cli(capsys, "attack", "--spec", str(path), "--shift", "1,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["shift_indices"] == [1, 0] and doc["shift_probs"] == [0.5, 0.5]


CHARACTERIZE_D17 = ["characterize", str(DATA / "response_det0.csv"), str(DATA / "response_det1.csv"),
                    "--bandwidth-ghz", "4", "--gate-ns", "0:2"]


def _record_json_documents(monkeypatch):
    """The documents every later `cli._emit_json` call is given, in order."""
    docs = []
    emit = cli._emit_json

    def recording(doc, out=None):
        docs.append(doc)
        emit(doc, out)

    monkeypatch.setattr(cli, "_emit_json", recording)
    return docs


def _assert_same_document(parsed, doc):
    """`parsed` is `doc`: the same keys in order, and every float finite
    and bit for bit (orjson would print NaN as null)."""
    if isinstance(doc, float):
        assert math.isfinite(doc) and type(parsed) is float and parsed.hex() == float(doc).hex()
    elif isinstance(doc, dict):
        assert list(parsed) == list(doc)
        for key in doc:
            _assert_same_document(parsed[key], doc[key])
    elif isinstance(doc, list):
        assert type(parsed) is list and len(parsed) == len(doc)
        for got, want in zip(parsed, doc):
            _assert_same_document(got, want)
    else:
        assert type(parsed) is type(doc) and parsed == doc


@pytest.mark.parametrize("spec", ["demo", "characterized-d17"])
def test_json_output_parses_to_the_emitted_document(tmp_path, capsys, monkeypatch, spec):
    docs = _record_json_documents(monkeypatch)
    if spec == "demo":
        path, runs = str(DATA / "demo_detectors.json"), []
    else:
        path = str(tmp_path / "d17.json")
        runs = [CHARACTERIZE_D17 + ["--out", path, "--json"]]
    runs += [
        ["analyze", "--spec", path, "--json"],
        ["analyze", "--spec", path, "--knowledge", "diagonal", "--json"],
        ["attack", "--spec", path, "--shift", "0:0.5,1:0.5", "--n", "10000", "--seed", "2", "--json"],
        ["sweep", "--spec", path, "--bounds-only", "--steps", "4", "--json"],
        ["sweep", "--spec", path, "--steps", "2", "--e-max", "0.05", "--json"],
    ]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 2), argv
        doc = docs.pop()
        _assert_same_document(json.loads(out), doc)
        # The layout is the json encoder's `indent=2`; only float spellings differ.
        assert_differs_only_in_float_spelling(out, json.dumps(doc, indent=2) + "\n")
    assert not docs


def test_json_output_keeps_a_non_ascii_label(tmp_path, capsys):
    label = "d\u00e9tecteur \u2192 \U0001f600"
    path = str(tmp_path / "labels.json")
    assert run_cli(capsys, *CHARACTERIZE_D17, "--out", path, "--label0", label)[0] == 0
    code, out, _ = run_cli(capsys, "analyze", "--spec", path, "--json")
    assert code == 0
    assert f'"{label}"' in out  # UTF-8, not \u escapes
    assert json.loads(out)["labels"] == [label, "detector1"]


def test_attack_json_prints_a_seed_beyond_64_bits(capsys):
    seed = str(2**70 + 1)
    code, out, _ = run_cli(capsys, "attack", "--spec", str(DATA / "demo_detectors.json"), "--n", "1000",
                           "--seed", seed, "--json")
    assert code == 0
    assert json.loads(out)["seed"] == int(seed)


def test_dispatch_follows_rebound_command(monkeypatch, capsys, demo_spec):
    args = ["attack", "--spec", demo_spec, "--n", "1000"]
    assert run_cli(capsys, *args)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_attack", lambda ns: seen.append(ns.n) or 7)
    assert run_cli(capsys, *args)[0] == 7
    assert seen == [1000]


def _help(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["attack", "--help"], ["sweep", "--help"]])
def test_help_matches_a_fresh_parser(capsys, argv):
    expected = _help(capsys, build_parser().parse_args, argv)
    assert "usage: qkd-mismatch" in expected
    assert _help(capsys, main, argv) == expected
    assert _help(capsys, main, argv) == expected
