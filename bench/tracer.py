"""In-memory span tracer that wraps the package's public functions from outside.

Every wrapped call records one span: (request, unit, name, start, end, parent,
error, extra). Spans nest because the program is single-threaded and
synchronous, so a span's self time is its duration minus the summed durations
of its direct children. Nothing in the package is edited: each target function
is rebound, at every `qkd_mismatch` module that holds a reference to it, to a
wrapper, and `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, attribute, span name, extra-counter factory or None).
# `adversary._scipy_minimize` is the SciPy L-BFGS-B entry point the
# multistart solver calls; its results carry the nfev / nit counters.
TARGETS = [
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_characterize", "cli.characterize"),
    ("cli", "cmd_attack", "cli.attack"),
    ("adversary", "minimize_filter_success", "adversary.minimize_filter_success"),
    ("adversary", "maximize_phase_error", "adversary.maximize_phase_error"),
    ("adversary", "_scipy_minimize", "adversary.lbfgs"),
    ("filtering", "compute_filter", "filtering.compute_filter"),
    ("filtering", "special_case_rate", "filtering.special_case_rate"),
    ("filtering", "noiseless_rate", "filtering.noiseless_rate"),
    ("detectors", "load_pair", "detectors.load_pair"),
    ("detectors", "mismatch_spectrum", "detectors.mismatch_spectrum"),
    ("detectors", "read_spec_file", "detectors.read_spec_file"),
    ("detectors", "write_spec_file", "detectors.write_spec_file"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "principal_sqrt", "linalg.principal_sqrt"),
    ("rates", "noisy_rate", "rates.noisy_rate"),
    ("rates", "four_phase_rate", "rates.four_phase_rate"),
    ("characterize", "discretize_response", "characterize.discretize_response"),
    ("characterize", "read_response_csv", "characterize.read_response_csv"),
    ("timeshift", "simulate_time_shift", "timeshift.simulate_time_shift"),
]

# The harness opens this span around each cli.main call: one request.
ROOT = "cli.main"
LAYERS = ["cli", "adversary", "filtering", "detectors", "linalg", "rates", "characterize", "timeshift"]
REPORTED = [ROOT] + [name for _, _, name in TARGETS if name != "adversary.lbfgs"]


def _extra(name, args, result):
    """Counters read from a call's arguments or result (None if none)."""
    if name == "adversary.lbfgs":
        return (int(result.nfev), int(result.nit))
    if name == "timeshift.simulate_time_shift":
        return int(args[0].n_signals)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.request = 0
        self.unit = 0

    # --- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = _extra(name, args, result) if error is None else None
                spans[idx] = (self.request, self.unit, name, start, end, parent, error, extra)

        return wrapper

    def call_root(self, fn, *args):
        """Run one request under a root span."""
        self.request += 1
        return self._wrap(ROOT, fn)(*args)

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qkd_mismatch" or name.startswith("qkd_mismatch.")}
        for mod_name, attr, span_name in TARGETS:
            original = getattr(modules[f"qkd_mismatch.{mod_name}"], attr)
            wrapper = self._wrap(span_name, original)
            # Rebind at every module that imported the name directly.
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # --- reduction ---------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[5] >= 0:
                child[span[5]] += span[4] - span[3]
        return [span[4] - span[3] - child[i] for i, span in enumerate(self.spans)]

    def per_unit_counts(self):
        """{unit: {name: calls}} for the determinism check."""
        out = {}
        for span in self.spans:
            units = out.setdefault(span[1], {})
            units[span[2]] = units.get(span[2], 0) + 1
        return out

    def metrics(self, n_units: int) -> dict:
        """Per-layer metrics, each count and self time given per unit of work."""
        selfs = self.self_times()
        durations = {}
        self_by_name = {}
        for span, s in zip(self.spans, selfs):
            durations.setdefault(span[2], []).append(span[4] - span[3])
            self_by_name[span[2]] = self_by_name.get(span[2], 0.0) + s

        def calls(name):
            return len(durations.get(name, [])) / n_units

        out = {}
        for name in REPORTED:
            ds = durations.get(name, [])
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_by_name.get(name, 0.0) / n_units
            out[f"{name}.p50_ms"] = statistics.median(ds) * 1e3 if ds else 0.0

        lbfgs = [span for span in self.spans if span[2] == "adversary.lbfgs" and span[7]]
        nfev = sum(span[7][0] for span in lbfgs)
        lbfgs_s = sum(span[4] - span[3] for span in lbfgs)
        out["adversary.lbfgs.calls"] = calls("adversary.lbfgs")
        out["adversary.lbfgs.nfev"] = nfev / n_units
        out["adversary.lbfgs.nit"] = sum(span[7][1] for span in lbfgs) / n_units
        out["adversary.us_per_nfev"] = lbfgs_s / nfev * 1e6 if nfev else 0.0
        out["adversary.failed"] = sum(
            1 for span in self.spans if span[2].startswith("adversary.") and span[6]) / n_units
        out["errors.raised"] = sum(1 for span in self.spans if span[6]) / n_units

        shifts = [span for span in self.spans if span[2] == "timeshift.simulate_time_shift" and span[7]]
        shift_s = sum(span[4] - span[3] for span in shifts)
        out["timeshift.signals_per_s"] = sum(span[7] for span in shifts) / shift_s if shift_s else 0.0

        requests_s = sum(span[4] - span[3] for span in self.spans if span[2] == ROOT)
        for layer in LAYERS:
            total = sum(s for span, s in zip(self.spans, selfs) if span[2].split(".")[0] == layer)
            out[f"{layer}.self_s"] = total / n_units
            if layer == "adversary":
                out["adversary.self_frac"] = total / requests_s if requests_s else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans, one JSON object a line."""
        keys = ("request", "unit", "name", "start", "end", "parent", "error", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
