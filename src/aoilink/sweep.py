"""Grid evaluation of energy-age tradeoff curves.

Three sweep kinds cover the usual experiments: retransmission-limit sweeps
at fixed failure probabilities, transmit-power sweeps under a Rayleigh link
budget (failure probability and transmit energy both follow the power), and
sensing-energy sweeps that rerun either base sweep per sensing energy and
normalize each curve for comparison.

Sweeps evaluate the closed forms, not the simulator, so every point is
exact and reproducible standalone. Point evaluations are independent; they
are computed sequentially here to keep output ordering deterministic, but
callers may parallelize over points freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .analytic import (
    EnergyParams,
    FixedFailureLink,
    MetricPoint,
    PowerModel,
    RayleighLink,
    _check_max_tx,
    _check_nonnegative,
    _check_p,
    _check_positive,
    dbm_to_watts,
    evaluate,
    noise_from_reference_snr,
    transmit_energy,
)

__all__ = [
    "MSweep",
    "PowerSweep",
    "EsSweep",
    "TradeoffCurve",
    "dbm_grid",
    "m_sweep",
    "power_sweep",
    "es_sweep",
    "normalize_curve",
    "pareto_front",
]

# Most points one sweep may evaluate, and the longest dBm grid or --M list it
# may expand; checked before allocating.
MAX_GRID_POINTS = 1_000_000

# The grid ``validate`` checks by default; kept here, free of numpy, so the
# CLI can build its parser without importing the simulator.
DEFAULT_P_GRID = (0.1, 0.4, 0.7)
DEFAULT_MAX_TX_GRID = (1, 3, 6)


def _check_size(points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(f"sweep of {points} points exceeds the limit of {MAX_GRID_POINTS}")


@dataclass(frozen=True)
class MSweep:
    """Sweep the retransmission limit for each fixed failure probability."""

    p_list: tuple[float, ...]
    max_tx_list: tuple[int, ...]
    energy: EnergyParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_list", tuple(self.p_list))
        object.__setattr__(self, "max_tx_list", tuple(self.max_tx_list))
        if not self.p_list:
            raise ValueError("p_list must not be empty")
        if not self.max_tx_list:
            raise ValueError("max_tx_list must not be empty")
        _check_size(self.size)
        for p in self.p_list:
            _check_p(p)
        for m in self.max_tx_list:
            _check_max_tx(m)

    @property
    def size(self) -> int:
        """Number of points the sweep evaluates."""
        return len(self.p_list) * len(self.max_tx_list)


@dataclass(frozen=True)
class PowerSweep:
    """Sweep the transmit power (in dBm) for each retransmission limit.

    The noise power is fixed by a reference SNR at a reference power; the
    per-point failure probability and transmit energy then follow from the
    Rayleigh outage and the amplifier model.
    """

    dbm_min: float
    dbm_max: float
    dbm_step: float
    max_tx_list: tuple[int, ...]
    rate: float
    snr_ref_db: float
    ref_power_dbm: float
    sense_energy: float
    circuit_power: float
    inv_drain_eff: float
    max_power: float  # watts

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_tx_list", tuple(self.max_tx_list))
        if not self.max_tx_list:
            raise ValueError("max_tx_list must not be empty")
        _check_size(self.size)
        for m in self.max_tx_list:
            _check_max_tx(m)
        _check_nonnegative("sense energy", self.sense_energy)

    @property
    def size(self) -> int:
        """Number of points the sweep evaluates."""
        return _grid_count(self.dbm_min, self.dbm_max, self.dbm_step) * len(self.max_tx_list)


@dataclass(frozen=True)
class EsSweep:
    """Rerun a base sweep per sensing energy, normalizing each curve.

    Each produced curve is normalized by ``sense_energy + tx_ref`` where
    ``tx_ref`` is the transmit-side reference energy: this sweep's
    ``normalizer`` field when given, otherwise the base sweep's constant
    transmit energy (for an MSweep base) or circuit + amplifier drain at
    maximum power (for a PowerSweep base).
    """

    es_list: tuple[float, ...]
    base: MSweep | PowerSweep
    normalizer: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "es_list", tuple(self.es_list))
        if not self.es_list:
            raise ValueError("es_list must not be empty")
        _check_size(len(self.es_list) * self.base.size)
        for es in self.es_list:
            _check_nonnegative("sense energy", es)
        if self.normalizer is not None:
            _check_positive("normalizer", self.normalizer)


@dataclass(frozen=True)
class TradeoffCurve:
    """An ordered list of (energy, age) points plus the divisor applied to
    the energies (1.0 while unnormalized)."""

    label: str
    points: tuple[MetricPoint, ...]
    normalizer: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))


def _grid_count(dbm_min: float, dbm_max: float, dbm_step: float) -> int:
    if not all(map(math.isfinite, (dbm_min, dbm_max, dbm_step))):
        raise ValueError(f"dBm bounds and step must be finite, got {dbm_min}, {dbm_max}, {dbm_step}")
    if dbm_step <= 0.0:
        raise ValueError(f"dbm_step must be > 0, got {dbm_step}")
    if dbm_min > dbm_max:
        raise ValueError(f"dbm_min must be <= dbm_max, got {dbm_min} > {dbm_max}")
    ratio = (dbm_max - dbm_min) / dbm_step + 1e-9
    if ratio >= MAX_GRID_POINTS:  # also catches a ratio that overflowed to inf
        raise ValueError(f"dBm grid exceeds the limit of {MAX_GRID_POINTS} points")
    return math.floor(ratio) + 1


def dbm_grid(dbm_min: float, dbm_max: float, dbm_step: float) -> list[float]:
    """Inclusive dBm grid with floor((max - min) / step) + 1 points.

    Built in dB space to avoid multiplicative drift; the ratio is nudged
    before flooring so that exact multiples survive float rounding. Bounds
    and step must be finite, and the grid at most ``MAX_GRID_POINTS`` long.
    """
    count = _grid_count(dbm_min, dbm_max, dbm_step)
    return [dbm_min + i * dbm_step for i in range(count)]


def m_sweep(spec: MSweep) -> list[TradeoffCurve]:
    """One curve per failure probability, retransmission limit ascending."""
    curves = []
    for p in spec.p_list:
        link = FixedFailureLink(p)
        points = tuple(evaluate(link, m, spec.energy) for m in sorted(spec.max_tx_list))
        curves.append(TradeoffCurve(label=f"p={p:g}", points=points))
    return curves


def power_sweep(spec: PowerSweep) -> list[TradeoffCurve]:
    """One curve per retransmission limit, transmit power ascending."""
    noise = noise_from_reference_snr(dbm_to_watts(spec.ref_power_dbm), spec.snr_ref_db)
    grid = dbm_grid(spec.dbm_min, spec.dbm_max, spec.dbm_step)
    curves = []
    for m in sorted(spec.max_tx_list):
        points = []
        for dbm in grid:
            pt_watts = dbm_to_watts(dbm)
            pm = PowerModel(spec.circuit_power, spec.inv_drain_eff, pt_watts, spec.max_power)
            energy = EnergyParams(spec.sense_energy, transmit_energy(pm))
            link = RayleighLink(spec.rate, noise, pt_watts)
            points.append(evaluate(link, m, energy, tx_power_dbm=dbm))
        curves.append(TradeoffCurve(label=f"M={m}", points=tuple(points)))
    return curves


def _tx_reference(base: MSweep | PowerSweep) -> float:
    if isinstance(base, MSweep):
        return base.energy.tx_energy
    return base.circuit_power + base.inv_drain_eff * base.max_power


def es_sweep(spec: EsSweep) -> list[TradeoffCurve]:
    """Base-sweep curves per sensing energy, each normalized by Es + tx_ref."""
    tx_ref = spec.normalizer if spec.normalizer is not None else _tx_reference(spec.base)
    out = []
    for es in spec.es_list:
        if isinstance(spec.base, MSweep):
            base = replace(spec.base, energy=EnergyParams(es, spec.base.energy.tx_energy))
            curves = m_sweep(base)
        else:
            base = replace(spec.base, sense_energy=es)
            curves = power_sweep(base)
        for curve in curves:
            labeled = replace(curve, label=f"Es={es:g} {curve.label}")
            out.append(normalize_curve(labeled, es + tx_ref))
    return out


def normalize_curve(curve: TradeoffCurve, normalizer: float) -> TradeoffCurve:
    """Divide every point's average energy by ``normalizer``.

    Ages are untouched; the curve's cumulative normalizer is multiplied so
    repeated normalizations compose.
    """
    _check_positive("normalizer", normalizer)
    points = tuple(
        replace(pt, avg_energy=pt.avg_energy / normalizer) for pt in curve.points
    )
    return TradeoffCurve(
        label=f"{curve.label} (energy/{normalizer:.9g})",
        points=points,
        normalizer=curve.normalizer * normalizer,
    )


def pareto_front(points: Iterable[MetricPoint] | Sequence[MetricPoint]) -> list[MetricPoint]:
    """Filter to the non-dominated points, sorted by average energy.

    A point is dropped iff another point is no worse in both coordinates and
    strictly better in one; exact coordinate ties keep the earliest point by
    input order. O(n log n), one sort and one sweep (Kung, Luccio and
    Preparata, JACM 1975): in (avg_energy, avg_aoi, index) order each dropped
    point follows a no-worse one, so a point survives iff its age is below
    all ages before it. A NaN coordinate cannot be ordered: ValueError.
    """
    pts = list(points)
    if not pts:
        raise ValueError("pareto_front requires a nonempty point list")
    if any(math.isnan(pt.avg_energy) or math.isnan(pt.avg_aoi) for pt in pts):
        raise ValueError("pareto_front: a point has a NaN coordinate")
    order = sorted(range(len(pts)), key=lambda i: (pts[i].avg_energy, pts[i].avg_aoi, i))
    front = [pts[order[0]]]
    for i in order[1:]:
        if pts[i].avg_aoi < front[-1].avg_aoi:
            front.append(pts[i])
    return front
