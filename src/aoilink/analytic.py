"""Closed-form age and energy analysis of a retransmitting status-update link.

A source senses a fresh status update, transmits it over an i.i.d. erasure
channel with per-slot failure probability ``p``, and on NACK retransmits the
same packet up to ``max_tx`` times in total before abandoning it and sensing
a new update. Slot length is normalized to 1, so energies per slot are
numerically watts.

This module evaluates the stationary distributions of that process (success
cycle length, transmission count of the delivered packet, sensing count per
cycle), the resulting average age-of-information and average energy
consumption, and the link-budget helpers that derive ``p`` from
Rayleigh-fading parameters.

Everything here is pure and stateless; safe to call from concurrent threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Union

__all__ = [
    "FixedFailureLink",
    "RayleighLink",
    "LinkSpec",
    "PowerModel",
    "Policy",
    "EnergyParams",
    "MetricPoint",
    "failure_prob",
    "transmit_energy",
    "dbm_to_watts",
    "noise_from_reference_snr",
    "pow_complement",
    "cycle_length_pmf",
    "cycle_length_moments",
    "delivered_tx_count_pmf",
    "delivered_tx_count_mean",
    "sense_count_pmf",
    "sense_count_mean",
    "avg_aoi",
    "avg_energy",
    "evaluate",
]

# Largest double below 1; used to keep derived failure probabilities in [0, 1).
_ONE_BELOW = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class FixedFailureLink:
    """Channel described directly by its per-slot failure probability."""

    p: float

    def __post_init__(self) -> None:
        _check_p(self.p)


@dataclass(frozen=True)
class RayleighLink:
    """Rayleigh-fading channel; failure probability is the outage probability."""

    rate: float  # spectral efficiency, bits/s/Hz
    noise_power: float  # watts
    tx_power: float  # watts

    def __post_init__(self) -> None:
        _check_nonnegative("rate", self.rate)
        _check_positive("noise power", self.noise_power)
        _check_positive("transmit power", self.tx_power)


LinkSpec = Union[FixedFailureLink, RayleighLink]


@dataclass(frozen=True)
class PowerModel:
    """Transmitter power consumption: circuit power plus amplifier drain."""

    circuit_power: float  # watts
    inv_drain_eff: float  # inverse drain efficiency of the power amplifier
    tx_power: float  # watts
    max_power: float  # watts

    def __post_init__(self) -> None:
        _check_nonnegative("circuit power", self.circuit_power)
        _check_positive("inverse drain efficiency", self.inv_drain_eff)
        if not 0.0 < self.tx_power <= self.max_power < math.inf:
            raise ValueError(
                f"transmit power must satisfy 0 < Pt <= Pmax, both finite, "
                f"got Pt={self.tx_power}, Pmax={self.max_power}"
            )


@dataclass(frozen=True)
class Policy:
    """Retransmission policy: each packet is transmitted at most max_tx times."""

    max_tx: int

    def __post_init__(self) -> None:
        _check_max_tx(self.max_tx)


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies: one sensing charge per generated packet, one
    transmit charge per slot."""

    sense_energy: float  # joules per sensing event
    tx_energy: float  # joules per transmission slot

    def __post_init__(self) -> None:
        _check_nonnegative("sense energy", self.sense_energy)
        _check_nonnegative("tx energy", self.tx_energy)


class MetricPoint(NamedTuple):
    """One (average energy, average age) evaluation of the closed forms."""

    p: float
    max_tx: int
    avg_aoi: float  # slots
    avg_energy: float  # joules per slot
    tx_power_dbm: float | None = None  # known for a Rayleigh budget or a power sweep


def failure_prob(link: LinkSpec) -> float:
    """Per-slot failure probability of the link, in [0, 1).

    A fixed link returns its probability verbatim. A Rayleigh link returns
    the outage probability ``1 - exp(-(2**rate - 1) * noise_power / tx_power)``,
    clamped below 1.0 if the budget is so poor that it rounds up to 1, as it
    does when the exponent overflows a float.
    """
    if isinstance(link, FixedFailureLink):
        return link.p
    try:
        exponent = (2.0 ** link.rate - 1.0) * link.noise_power / link.tx_power
    except OverflowError:  # rate >= 1024: p rounds to 1 unless tx/noise power passes 1e306
        return _ONE_BELOW
    return min(-math.expm1(-exponent), _ONE_BELOW)


def transmit_energy(pm: PowerModel) -> float:
    """Energy consumed by one transmission slot: circuit power plus
    amplifier drain (slot length 1)."""
    return pm.circuit_power + pm.inv_drain_eff * pm.tx_power


def dbm_to_watts(dbm: float) -> float:
    """Convert decibel-milliwatts to watts: 10**((dbm - 30) / 10)."""
    if not math.isfinite(dbm):
        raise ValueError(f"dBm value must be finite, got {dbm}")
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm} dBm is past the float range in watts") from None


def noise_from_reference_snr(p_ref: float, snr_ref_db: float) -> float:
    """Noise power implied by a reference transmit power at a reference SNR."""
    _check_positive("reference power", p_ref)
    if not math.isfinite(snr_ref_db):
        raise ValueError(f"reference SNR must be finite, got {snr_ref_db}")
    try:
        return p_ref / 10.0 ** (snr_ref_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # 10**(snr/10) past the float range or 0
        raise ValueError(f"reference SNR of {snr_ref_db} dB is past the float range") from None


def _check_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"failure probability must be in [0, 1), got {p}")


def _check_max_tx(max_tx: int) -> None:
    if not hasattr(type(max_tx), "__index__"):  # as operator.index: ints and numpy ints, not 2.5 or 3.0
        raise ValueError(f"max_tx must be an integer, got {max_tx!r}")
    if max_tx < 1:
        raise ValueError(f"max_tx must be >= 1, got {max_tx}")
    if max_tx > sys.float_info.max:  # an int and a float compare exactly
        raise ValueError("max_tx is past the float range (about 1.8e308)")


def _check_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:  # also false for NaN
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def pow_complement(p: float, max_tx: int) -> tuple[float, float]:
    """Return ``(p**max_tx, 1 - p**max_tx)`` without catastrophic cancellation.

    For max_tx >= 2 the pair is computed from ``max_tx * log(p)`` via
    exp/expm1, which keeps the relative error of both terms near machine
    epsilon even for p close to 1 and very large max_tx.
    """
    _check_p(p)
    _check_max_tx(max_tx)
    if p == 0.0:
        return 0.0, 1.0
    if max_tx == 1:
        return p, 1.0 - p
    mlogp = max_tx * math.log(p)
    return math.exp(mlogp), -math.expm1(mlogp)


def cycle_length_pmf(m: int, p: float) -> float:
    """Probability that a success cycle spans exactly m slots (geometric).

    Out-of-support m (< 1) returns 0 so tail summations stay total.
    """
    _check_p(p)
    if m < 1:
        return 0.0
    return p ** (m - 1) * (1.0 - p)


def cycle_length_moments(p: float) -> tuple[float, float]:
    """Mean and second moment of the success cycle length in slots."""
    _check_p(p)
    q = 1.0 - p
    return 1.0 / q, (1.0 + p) / (q * q)


def delivered_tx_count_pmf(m: int, p: float, max_tx: int) -> float:
    """Probability that the delivered packet needed exactly m transmissions.

    Support is {1, ..., max_tx}; out-of-support m returns 0.
    """
    _, comp = pow_complement(p, max_tx)
    if m < 1 or m > max_tx:
        return 0.0
    return (1.0 - p) / comp * p ** (m - 1)


# Taylor coefficients of 1/expm1(t) - 1/t beyond its -1/2: B_2k / (2k)! for
# the odd powers t, t**3, ..., t**13 (Bernoulli numbers).
_BERNOULLI_TERMS = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
)


def _inverse_expm1_gap(t: float) -> float:
    """``1/expm1(t) - 1/t`` for t > 0, in (-1/2, 0), to a few ulps.

    The two terms nearly cancel for small t, so below 0.5 the series is
    summed instead (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 1); its next term is below 1e-17 there.
    """
    if t < 0.5:
        t2 = t * t
        acc = 0.0
        for coeff in reversed(_BERNOULLI_TERMS):
            acc = acc * t2 + coeff
        return acc * t - 0.5
    if t > 700.0:  # 1/expm1(t) is below 1e-304, and expm1 overflows past 709
        return -1.0 / t
    return 1.0 / math.expm1(t) - 1.0 / t


def delivered_tx_count_mean(p: float, max_tx: int) -> float:
    """Mean number of transmissions spent on the packet that gets through.

    ``1/(1 - p) - max_tx p**max_tx / (1 - p**max_tx)`` subtracts two terms of
    order 1/(1 - p) as p nears 1. With ``x = -log p`` the mean is
    ``1 + g(x) - max_tx g(max_tx x)``, ``g(t) = 1/expm1(t) - 1/t``, whose
    terms have the same sign.
    """
    _check_p(p)
    _check_max_tx(max_tx)
    if p == 0.0:
        return 1.0
    x = -math.log(p)
    return 1.0 + _inverse_expm1_gap(x) - max_tx * _inverse_expm1_gap(max_tx * x)


def sense_count_pmf(l: int, p: float, max_tx: int) -> float:
    """Probability that a success cycle contains exactly l sensing events.

    Each abandoned packet adds one sensing event, so l counts the packets
    tried within the cycle. Out-of-support l (< 1) returns 0.
    """
    _, comp = pow_complement(p, max_tx)
    if l < 1:
        return 0.0
    return p ** ((l - 1) * max_tx) * comp


def sense_count_mean(p: float, max_tx: int) -> float:
    """Mean number of sensing events per success cycle."""
    _, comp = pow_complement(p, max_tx)
    return 1.0 / comp


def _age_and_rate(p: float, max_tx: int) -> tuple[float, float]:
    """Average age and sensing rate per slot (energy: ``rate * Es + Et``), one pow_complement."""
    pm, comp = pow_complement(p, max_tx)
    return (3.0 + p) / (2.0 * (1.0 - p)) - max_tx * pm / comp, (1.0 - p) / comp


def avg_aoi(p: float, max_tx: int) -> float:
    """Stationary average age-of-information in slots.

    Renewal argument over success cycles: the mean trapezoid area per cycle
    divided by the mean cycle length collapses to
    ``(3 + p) / (2 (1 - p)) - max_tx * p**max_tx / (1 - p**max_tx)``.
    """
    return _age_and_rate(p, max_tx)[0]


def avg_energy(p: float, max_tx: int, energy: EnergyParams) -> float:
    """Stationary average energy per slot.

    Every slot pays the transmit energy; sensing is paid once per generated
    packet, i.e. at rate ``(1 - p) / (1 - p**max_tx)`` per slot.
    """
    return _age_and_rate(p, max_tx)[1] * energy.sense_energy + energy.tx_energy


def evaluate(
    link: LinkSpec,
    max_tx: int,
    energy: EnergyParams,
    tx_power_dbm: float | None = None,
) -> MetricPoint:
    """Evaluate one parameter combination into a MetricPoint."""
    p = failure_prob(link)
    age, rate = _age_and_rate(p, max_tx)
    return MetricPoint(p, max_tx, age, rate * energy.sense_energy + energy.tx_energy, tx_power_dbm)
