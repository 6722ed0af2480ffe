"""Key-rate assembly: binary entropy and the one rate formula.

All rates are secret bits per detected signal, of the Shor-Preskill shape

    R = p_succ (1 - H2(min(e_p, 1/2))) - c H2(e_b),

a privacy-amplification yield K_PA less an error-correction cost K_EC. A
phase-error bound past 1/2 certifies nothing, so every rate is zero there.
The general noisy rate has c = 1. The four-phase detector-switching rate,
which removes the mismatch penalty entirely, is the formula at p_succ = 1.
Two scalar efficiencies give p_succ = 2 min / sum, and discarding data to
equalize them also scales the error-correction cost by it (c = p_succ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


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


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _rate(p_succ: float, e_p: float, e_b: float, ec_scale: float = 1.0) -> KeyRateReport:
    """The one rate formula, p_succ (1 - H2(min(e_p, 1/2))) - ec_scale H2(e_b)."""
    k_pa = p_succ * (1.0 - binary_entropy(min(e_p, 0.5)))
    k_ec = ec_scale * binary_entropy(e_b)
    raw = k_pa - k_ec
    return KeyRateReport(
        rate=max(0.0, raw),
        rate_raw=raw,
        p_succ=p_succ,
        e_p=e_p,
        e_b=e_b,
        k_pa_fraction=k_pa,
        k_ec_fraction=k_ec,
    )


def _check_unit_interval(**kwargs) -> None:
    for name, value in kwargs.items():
        if not (0.0 <= value <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {value}")


def noisy_rate(p_succ: float, e_p: float, e_b: float) -> KeyRateReport:
    """General-case rate p_succ (1 - H2(e_p)) - H2(e_b), zero once e_p > 1/2."""
    _check_unit_interval(p_succ=p_succ, e_p=e_p, e_b=e_b)
    return _rate(p_succ, e_p, e_b)


def four_phase_rate(e_b: float, e_p: float) -> KeyRateReport:
    """Rate 1 - H2(e_p) - H2(e_b) of the random detector-switching scheme.

    The switching filter is unitary, so filtering succeeds with probability 1
    and the result does not depend on the detector pair at all.
    """
    _check_unit_interval(e_b=e_b, e_p=e_p)
    return _rate(1.0, e_p, e_b)


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
    return _rate(factor, e_p, e_b, factor), _rate(factor, e_p, e_b)
