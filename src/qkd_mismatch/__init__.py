"""Secure BB84 key rates for receivers with mismatched detector efficiencies.

The receiver's two detectors respond to an auxiliary degree of freedom
(arrival time, frequency, spatial mode) through matrix-valued efficiencies
0 <= E_i <= I. This package computes how much secret key survives the
mismatch: the analytic noiseless rate, analytic worst-case bounds, numerically
optimized bounds over a collective attack, the four-phase detector-switching
rate that removes the penalty entirely, plus response characterization from
sampled time curves and a time-shift attack simulator.
"""

from .adversary import (
    EveState,
    RateStatistics,
    evaluate_statistics,
    maximize_phase_error,
    minimize_filter_success,
    mismatch_ratio_bounds,
)
from .characterize import (
    ContinuousResponse,
    FilteredGate,
    diagonal_only_response,
    discretize_response,
    read_response_csv,
    sample_grid,
    write_response_csv,
)
from .detectors import (
    DetectorPair,
    DetectorSpecFile,
    EfficiencyResponse,
    MismatchSpectrum,
    deflate_common_nullspace,
    load_pair,
    mismatch_spectrum,
    read_spec_file,
    swap_detectors,
    write_spec_file,
)
from .filtering import (
    Analysis,
    Knowledge,
    NoiselessRate,
    VirtualFilterC,
    ZeroRateReason,
    analyze_pair,
    compute_filter,
    noiseless_rate,
    special_case_rate,
)
from .rates import (
    KeyRateReport,
    RateMethod,
    binary_entropy,
    four_phase_rate,
    noisy_rate,
    scalar_reference_rates,
)
from .timeshift import AttackOutcome, TimeShiftScenario, simulate_time_shift

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AttackOutcome",
    "ContinuousResponse",
    "DetectorPair",
    "DetectorSpecFile",
    "EfficiencyResponse",
    "EveState",
    "FilteredGate",
    "KeyRateReport",
    "Knowledge",
    "MismatchSpectrum",
    "NoiselessRate",
    "RateMethod",
    "RateStatistics",
    "TimeShiftScenario",
    "VirtualFilterC",
    "ZeroRateReason",
    "analyze_pair",
    "binary_entropy",
    "compute_filter",
    "deflate_common_nullspace",
    "diagonal_only_response",
    "discretize_response",
    "evaluate_statistics",
    "four_phase_rate",
    "load_pair",
    "maximize_phase_error",
    "minimize_filter_success",
    "mismatch_ratio_bounds",
    "mismatch_spectrum",
    "noiseless_rate",
    "noisy_rate",
    "read_response_csv",
    "read_spec_file",
    "sample_grid",
    "scalar_reference_rates",
    "simulate_time_shift",
    "special_case_rate",
    "swap_detectors",
    "write_response_csv",
    "write_spec_file",
]
