"""Key-rate assembly: binary entropy, the noisy rate formula, the four-phase
detector-switching rate, and the scalar-efficiency reference formulas.

All rates are secret bits per detected signal. The general noisy rate is

    R = p_succ (1 - H2(e_p)) - H2(e_b),

split into a privacy-amplification yield K_PA = p_succ (1 - H2(e_p)) and an
error-correction cost K_EC = H2(e_b). Randomly switching the two detectors'
bit assignments per signal removes the mismatch penalty entirely, restoring
R = 1 - H2(e_p) - H2(e_b) with unit filtering probability.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError


class RateMethod(enum.Enum):
    NOISELESS = "noiseless"
    NOISY_OPTIMIZED = "noisy-optimized"
    NOISY_BOUNDS = "noisy-bounds"
    FOUR_PHASE = "four-phase"
    SCALAR_DISCARDING = "scalar-discarding"


@dataclass(frozen=True)
class KeyRateReport:
    """Assembled rate with its ingredients.

    `rate` clamps negative raw rates to zero ("no key"); `rate_raw` keeps the
    signed value for plotting bound curves.
    """

    rate: float
    rate_raw: float
    p_succ: float
    e_p: float
    e_b: float
    k_pa_fraction: float
    k_ec_fraction: float
    method: RateMethod


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _report(p_succ: float, e_p: float, e_b: float, k_pa: float, k_ec: float, method: RateMethod) -> KeyRateReport:
    raw = k_pa - k_ec
    return KeyRateReport(
        rate=max(0.0, raw),
        rate_raw=raw,
        p_succ=p_succ,
        e_p=e_p,
        e_b=e_b,
        k_pa_fraction=k_pa,
        k_ec_fraction=k_ec,
        method=method,
    )


def _check_unit_interval(**kwargs) -> None:
    for name, value in kwargs.items():
        if not (0.0 <= value <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {value}")


def noisy_rate(
    p_succ: float,
    e_p: float,
    e_b: float,
    method: RateMethod = RateMethod.NOISY_OPTIMIZED,
) -> KeyRateReport:
    """General-case rate p_succ (1 - H2(e_p)) - H2(e_b).

    A phase error bound past 1/2 certifies nothing, so the entropy term is
    evaluated at min(e_p, 1/2), which drives the rate to zero there.
    """
    _check_unit_interval(p_succ=p_succ, e_p=e_p, e_b=e_b)
    k_pa = p_succ * (1.0 - binary_entropy(min(e_p, 0.5)))
    return _report(p_succ, e_p, e_b, k_pa, binary_entropy(e_b), method)


def four_phase_rate(e_b: float, e_p: float) -> KeyRateReport:
    """Rate 1 - H2(e_p) - H2(e_b) of the random detector-switching scheme.

    The switching filter is unitary, so filtering succeeds with probability 1
    and the result does not depend on the detector pair at all.
    """
    _check_unit_interval(e_b=e_b, e_p=e_p)
    return _report(1.0, e_p, e_b, 1.0 - binary_entropy(e_p), binary_entropy(e_b), RateMethod.FOUR_PHASE)


def scalar_reference_rates(
    eta0: float,
    eta1: float,
    e_b: float,
    e_p: float,
) -> tuple[KeyRateReport, KeyRateReport]:
    """Reference formulas for two constant (scalar) efficiencies.

    Returns (discarding, general): the data-discarding protocol equalizes the
    detectors physically and pays error correction on the equalized fraction,

        R_disc = (2 min / sum) (1 - H2(e_p) - H2(e_b)),

    while the general method pays full error correction,

        R_gen  = (2 min / sum) (1 - H2(e_p)) - H2(e_b).

    Discarding is never smaller: the gap is H2(e_b) (1 - 2 min / sum).
    """
    for name, eta in (("eta0", eta0), ("eta1", eta1)):
        if not (0.0 < eta <= 1.0):
            raise DomainError(f"{name} must lie in (0, 1], got {eta}")
    _check_unit_interval(e_b=e_b, e_p=e_p)
    factor = 2.0 * min(eta0, eta1) / (eta0 + eta1)
    hp = binary_entropy(e_p)
    hb = binary_entropy(e_b)
    discarding = _report(factor, e_p, e_b, factor * (1.0 - hp), factor * hb, RateMethod.SCALAR_DISCARDING)
    general = _report(factor, e_p, e_b, factor * (1.0 - hp), hb, RateMethod.NOISY_OPTIMIZED)
    return discarding, general
