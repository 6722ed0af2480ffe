"""Command-line interface.

Commands: analyze (spectrum, noiseless rate, bounds), sweep (bound and
optimized rate curves vs observed error rate, CSV), characterize (response
CSVs -> detector spec JSON), attack (time-shift Monte-Carlo). Exit codes:
0 success, 1 input or solver error, 2 provably-zero rate.

Human output rounds to a few significant figures; --json / CSV carry full
double precision.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .adversary import maximize_phase_error, minimize_filter_success
from .characterize import diagonal_only_response, discretize_response, read_response_csv, sample_grid
from .detectors import DetectorPair, load_pair, read_spec_file, write_spec_file
from .errors import QkdMismatchError
from .filtering import Analysis, Knowledge, analyze_pair, compute_filter, mismatch_ratio_bounds
from .rates import four_phase_rate, noisy_rate
from .timeshift import TimeShiftScenario, simulate_time_shift

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ZERO_RATE = 2

SWEEP_COLUMNS = [
    "e_obs",
    "p_succ_bound",
    "p_succ_opt",
    "e_p_bound",
    "e_p_opt",
    "rate_bound",
    "rate_opt",
    "rate_4phase",
    "status",
]
IGNORED_SWEEP_FLAGS = ("--starts", "--rank", "--seed", "--tol")
# A million rows already make about 90 MB of CSV; a longer grid is a typo,
# not a sweep, and would end in a MemoryError from np.linspace.
MAX_SWEEP_STEPS = 10**6


def _sig(x: float, figures: int = 4) -> str:
    return f"{x:.{figures}g}"


def _rate(x: float) -> str:
    return f"{x:.3f}"


def _emit_json(doc, out=None) -> None:
    """Write `doc` as 2-space indented JSON, non-ASCII text as UTF-8."""
    import orjson  # on first use: see `detectors.read_spec_file`

    options = orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    try:
        text = orjson.dumps(doc, option=options).decode()
    except orjson.JSONEncodeError:  # an integer beyond 64 bits (attack --seed) or a lone surrogate
        text = json.dumps(doc, indent=2) + "\n"
    (out or sys.stdout).write(text)


def _rank_words(full_rank) -> str:
    return " / ".join("full" if ok else "singular" for ok in full_rank)


def _load_pair_from_spec(path) -> tuple[DetectorPair, str, str]:
    spec = read_spec_file(path)
    return load_pair(spec.e0_raw, spec.e1_raw), spec.label0, spec.label1


# --- analyze ------------------------------------------------------------------


def cmd_analyze(args) -> int:
    pair, label0, label1 = _load_pair_from_spec(args.spec)
    analysis = analyze_pair(pair, Knowledge(args.knowledge))
    rate = analysis.noiseless
    labels, full_rank = [label0, label1], [pair.full_rank0, pair.full_rank1]
    if rate.zero_reason is not None:
        doc = {"dimension": pair.dim, "labels": labels, "full_rank": full_rank, "noiseless_rate": 0.0,
               "zero_reason": rate.zero_reason.value}
    else:
        effective, spectrum = analysis.pair, analysis.spectrum
        filt = compute_filter(spectrum, effective)
        p_lo, ratio_up = mismatch_ratio_bounds(spectrum)
        doc = {
            "dimension": pair.dim,
            "effective_dimension": effective.dim,
            "labels": labels,
            "full_rank": full_rank,
            "ratios": [float(x) for x in spectrum.ratios],
            "noiseless_rate": rate.rate,
            "limiting_ratio": rate.limiting_ratio,
            "p_succ_lower": p_lo,
            "ep_ratio_upper": ratio_up,
            "validity_margin": filt.validity_margin,
        }
    code = EXIT_OK if rate.zero_reason is None else EXIT_ZERO_RATE
    if args.json:
        _emit_json(doc)
        return code

    print(f"detectors: {' / '.join(doc['labels'])}  (d = {doc['dimension']})")
    if "zero_reason" in doc:
        print(f"R_noiseless = {_rate(doc['noiseless_rate'])}")
        print(f"zero-rate reason: {doc['zero_reason']}")
        return code
    deflated = "" if all(doc["full_rank"]) else f", deflated to d' = {doc['effective_dimension']}"
    print(f"rank: {_rank_words(doc['full_rank'])}{deflated}")
    print("D = [" + ", ".join(_sig(x, 3) for x in doc["ratios"]) + "]")
    print(f"R_noiseless = {_rate(doc['noiseless_rate'])}")
    print(f"p_succ bound >= {_sig(doc['p_succ_lower'], 3)}")
    print(f"e_p/e_p' bound <= {_sig(doc['ep_ratio_upper'], 3)}")
    print(f"filter validity margin = {_sig(doc['validity_margin'])}")
    return code


# --- sweep --------------------------------------------------------------------


def _sweep_rows(analysis: Analysis, args):
    pair = analysis.pair
    filt = None if args.bounds_only else compute_filter(analysis.spectrum, pair)
    p_lo, ratio_up = mismatch_ratio_bounds(analysis.spectrum)
    grid = np.linspace(0.0, args.e_max, args.steps)
    starts = {}  # each grid point's dual searches start where the previous point's ended

    rows = []
    for e in grid:
        e = float(e)
        ep_bound = min(1.0, ratio_up * e)
        row = {  # in SWEEP_COLUMNS order
            "e_obs": e,
            "p_succ_bound": p_lo,
            "p_succ_opt": None,
            "e_p_bound": ep_bound,
            "e_p_opt": None,
            "rate_bound": noisy_rate(p_lo, ep_bound, e).rate,
            "rate_opt": None,
            "rate_4phase": four_phase_rate(e, e).rate,
            "status": "ok",
        }
        if not args.bounds_only:
            try:
                p_opt, _ = minimize_filter_success(pair, filt, e, e, starts)
                ep_opt, _ = maximize_phase_error(pair, filt, e, e, starts)
                row["p_succ_opt"] = p_opt
                row["e_p_opt"] = ep_opt
                # Both p_succ values are certified lower bounds and both e_p
                # values certified upper bounds, so the tighter of each holds.
                row["rate_opt"] = noisy_rate(max(p_opt, p_lo), min(ep_opt, ep_bound), e).rate
            except QkdMismatchError as exc:
                row["status"] = type(exc).__name__
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    if args.e_max > 0.25:
        raise QkdMismatchError(f"--e-max must be <= 0.25, got {args.e_max}")
    if not args.e_max >= 0.0:  # negative or nan
        raise QkdMismatchError(f"--e-max must lie in [0, 0.25], got {args.e_max}")
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise QkdMismatchError(f"--steps must lie in [2, {MAX_SWEEP_STEPS}], got {args.steps}")
    ignored = [flag for flag in IGNORED_SWEEP_FLAGS if getattr(args, flag[2:]) is not None]
    if ignored:
        print(f"note: {', '.join(ignored)} ignored: optimized bounds are exact dual values", file=sys.stderr)
    pair, _, _ = _load_pair_from_spec(args.spec)
    analysis = analyze_pair(pair, Knowledge.FULL_MATRICES)
    if analysis.noiseless.zero_reason is not None:
        print(f"zero-rate reason: {analysis.noiseless.zero_reason.value}", file=sys.stderr)
        return EXIT_ZERO_RATE
    rows = _sweep_rows(analysis, args)
    with open(args.out, "w", encoding="utf-8", newline="") if args.out else contextlib.nullcontext(sys.stdout) as out:
        if args.json:
            _emit_json(rows, out)
        else:
            # csv writes None as an empty field and a float as its repr.
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(SWEEP_COLUMNS)
            writer.writerows(row.values() for row in rows)
    if args.out and not args.json:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# --- characterize ---------------------------------------------------------------


def cmd_characterize(args) -> int:
    try:
        start_ns, end_ns = (float(tok) for tok in args.gate_ns.split(":"))
    except ValueError as exc:
        raise QkdMismatchError(f"--gate-ns expects START:END in ns, got {args.gate_ns!r}") from exc
    if not (math.isfinite(start_ns) and math.isfinite(end_ns)):
        raise QkdMismatchError(f"--gate-ns needs finite START:END in ns, got {args.gate_ns!r}")
    if not math.isfinite(args.bandwidth_ghz):
        raise QkdMismatchError(f"--bandwidth-ghz must be finite, got {args.bandwidth_ghz}")
    gate = sample_grid(args.bandwidth_ghz * 1e9, start_ns * 1e-9, end_ns * 1e-9)
    build = diagonal_only_response if args.diagonal_only else discretize_response
    # load_pair takes the validated responses as they are.
    pair = load_pair(*(build(read_response_csv(path), gate) for path in (args.csv0, args.csv1)))

    if args.out:
        write_spec_file(args.out, pair.e0.matrix, pair.e1.matrix, args.label0, args.label1)
    doc = {
        "dimension": gate.d,
        "spacing_ns": gate.spacing_s * 1e9,
        "sample_times_ns": [t * 1e9 for t in gate.sample_times_s],
        "full_rank": [pair.full_rank0, pair.full_rank1],
        "diagonal0": [float(x) for x in pair.e0.diagonal],
        "diagonal1": [float(x) for x in pair.e1.diagonal],
        "out": args.out,
    }
    if args.json:
        _emit_json(doc)
        return EXIT_OK
    print(f"d = {doc['dimension']} samples, spacing {_sig(doc['spacing_ns'])} ns")
    print(f"rank: {_rank_words(doc['full_rank'])}")
    for i in (0, 1):
        print(f"diagonal efficiencies {i}: [" + ", ".join(_sig(x) for x in doc[f"diagonal{i}"]) + "]")
    if args.out:
        print(f"wrote detector spec to {args.out}")
    else:
        print("note: pass --out PATH to write the detector spec JSON")
    return EXIT_OK


# --- attack ---------------------------------------------------------------------


def _parse_shift(text: str) -> tuple[np.ndarray, np.ndarray]:
    indices = []
    probs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        idx_s, sep, p_s = token.partition(":")
        try:
            indices.append(int(idx_s))
            probs.append(float(p_s) if sep else -1.0)
        except ValueError:
            raise QkdMismatchError(f"--shift entries must be 'j' or 'j:p', got {token!r}") from None
    if not indices:
        raise QkdMismatchError("--shift needs at least one index")
    p = np.asarray(probs)
    if np.all(p < 0):
        p = np.full(len(indices), 1.0 / len(indices))
    elif np.any(p < 0):
        raise QkdMismatchError("--shift must give probabilities for all indices or none")
    return np.asarray(indices, dtype=int), p


def cmd_attack(args) -> int:
    pair, _, _ = _load_pair_from_spec(args.spec)
    indices, probs = _parse_shift(args.shift)
    scenario = TimeShiftScenario(
        pair=pair, shift_indices=indices, shift_probs=probs, n_signals=args.n, seed=args.seed
    )
    outcome = simulate_time_shift(scenario)
    if args.json:
        _emit_json({
            # The law the scenario simulates and weights eve_guess_prob with.
            "shift_indices": [int(i) for i in scenario.shift_indices],
            "shift_probs": [float(p) for p in scenario.shift_probs],
            "n_signals": args.n,
            "seed": args.seed,
            "detected_fraction": outcome.detected_fraction,
            "eve_guess_prob": outcome.eve_guess_prob,
            "eve_guess_prob_empirical": outcome.eve_guess_prob_empirical,
            "empirical_sigma": outcome.empirical_sigma,
            "naive_rate": outcome.naive_rate,
            "aware_rate": outcome.aware_rate,
            "eve_leak_bits": outcome.eve_leak_bits,
        })
        return EXIT_OK
    print(f"detected fraction = {_sig(outcome.detected_fraction)}")
    print(
        f"Eve guess probability = {_sig(outcome.eve_guess_prob)} analytic, "
        f"{_sig(outcome.eve_guess_prob_empirical)} +/- {_sig(outcome.empirical_sigma)} empirical"
    )
    print(f"Eve leak = {_sig(outcome.eve_leak_bits)} bits per detected signal")
    print(f"naive rate = {_rate(outcome.naive_rate)}")
    print(f"aware rate = {_rate(outcome.aware_rate)}")
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkd-mismatch",
        description="Secure BB84 key rates for receivers with mismatched detector efficiencies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectrum, noiseless rate, and analytic bounds")
    p.add_argument("--spec", required=True, help="detector spec JSON")
    p.add_argument("--knowledge", choices=[k.value for k in Knowledge], default="full",
                   help="what is known about the responses (default full)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="bound and optimized rate curves vs observed error rate")
    p.add_argument("--spec", required=True)
    p.add_argument("--e-max", type=float, default=0.1, dest="e_max")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--bounds-only", action="store_true", dest="bounds_only")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--json", action="store_true")
    # Settings of the former multistart solver, still passed by older scripts.
    for flag in IGNORED_SWEEP_FLAGS:
        p.add_argument(flag, type=float, help=argparse.SUPPRESS)

    p = sub.add_parser("characterize", help="build a detector spec from response CSVs")
    p.add_argument("csv0", help="response tabulation for detector 0 (time_ns, efficiency)")
    p.add_argument("csv1", help="response tabulation for detector 1")
    p.add_argument("--bandwidth-ghz", type=float, required=True, dest="bandwidth_ghz")
    p.add_argument("--gate-ns", required=True, dest="gate_ns", help="gate window START:END in ns")
    p.add_argument("--diagonal-only", action="store_true", dest="diagonal_only")
    p.add_argument("--out", help="write the detector spec JSON here")
    p.add_argument("--label0", default="detector0")
    p.add_argument("--label1", default="detector1")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("attack", help="time-shift attack Monte-Carlo")
    p.add_argument("--spec", required=True)
    p.add_argument("--shift", default="0", help="index list 'j' or mixture 'j:p,k:q' (default 0)")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs about 1 ms."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Look the command up at call time, so a rebound `cmd_*` takes effect.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (QkdMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
