"""Grid evaluation of energy-age tradeoff curves.

Three sweep kinds cover the usual experiments: retransmission-limit sweeps
at fixed failure probabilities, transmit-power sweeps under a Rayleigh link
budget (failure probability and transmit energy both follow the power), and
sensing-energy sweeps that evaluate either base sweep once and rescale its
energies per sensing energy, normalizing each curve for comparison.

Sweeps evaluate the closed forms, not the simulator, so every point is
exact and reproducible standalone. Each point's closed forms run once, and
a power sweep builds each dBm point's link and transmit energy once for all M.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat

from .analytic import (
    EnergyParams,
    MetricPoint,
    PowerModel,
    RayleighLink,
    _age_and_rate,
    _Checked,
    _check_max_tx,
    _check_nonnegative,
    _check_p,
    _check_positive,
    _check_type,
    _real,
    dbm_to_watts,
    evaluate,  # noqa: F401  (kept as ``sweep.evaluate``: perfbench's tracer wraps it)
    failure_prob,
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

# The one format of every float in a label or a CSV cell but p's (JSON carries floats
# exactly): 9 significant digits, so a printed float parses back to the same text.
_FLOAT_FORMAT = "{:.9g}"

# The label suffix of a curve whose energies were divided by a normalizer.
_DIVIDED_BY = " (energy/" + _FLOAT_FORMAT + ")"


def _check_size(points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(f"sweep of {points} points exceeds the limit of {MAX_GRID_POINTS}")


def _nonempty(name: str, values: Iterable) -> tuple:
    if not (values := tuple(values)):
        raise ValueError(f"{name} must not be empty")
    return values


class MSweep(_Checked, namedtuple("MSweep", "p_list max_tx_list energy")):
    """Sweep the retransmission limit for each fixed failure probability."""

    __slots__ = ()

    def __new__(cls, p_list: Iterable[float], max_tx_list: Iterable[int], energy: EnergyParams):
        p_list, max_tx_list = _nonempty("p_list", p_list), _nonempty("max_tx_list", max_tx_list)
        _check_size(len(p_list) * len(max_tx_list))
        return tuple.__new__(cls, (tuple(map(_check_p, p_list)), tuple(map(_check_max_tx, max_tx_list)),
                                   _check_type("energy", energy, EnergyParams)))

    @property
    def size(self) -> int:
        """Number of points the sweep evaluates."""
        return len(self.p_list) * len(self.max_tx_list)


class PowerSweep(_Checked, namedtuple("PowerSweep", "dbm_min dbm_max dbm_step max_tx_list rate snr_ref_db "
                                      "ref_power_dbm sense_energy circuit_power inv_drain_eff max_power")):
    """Sweep the transmit power (in dBm) for each retransmission limit.

    The noise power is fixed by a reference SNR at a reference power; the
    per-point failure probability and transmit energy then follow from the
    Rayleigh outage and the amplifier model.
    """

    __slots__ = ()

    def __new__(cls, dbm_min: float, dbm_max: float, dbm_step: float, max_tx_list: Iterable[int], rate: float,
                snr_ref_db: float, ref_power_dbm: float, sense_energy: float, circuit_power: float,
                inv_drain_eff: float, max_power: float):  # max_power in watts
        max_tx_list = _nonempty("max_tx_list", max_tx_list)
        grid = tuple(map(_real, ("dbm_min", "dbm_max", "dbm_step"), (dbm_min, dbm_max, dbm_step)))
        _check_size(_grid_count(*grid) * len(max_tx_list))
        checked = (*grid, tuple(map(_check_max_tx, max_tx_list)), _check_nonnegative("rate", rate),
                   _real("snr_ref_db", snr_ref_db), _real("ref_power_dbm", ref_power_dbm),
                   _check_nonnegative("sense energy", sense_energy))
        pm = PowerModel(circuit_power, inv_drain_eff, max_power, max_power)  # checks the amplifier at full power
        return tuple.__new__(cls, (*checked, pm.circuit_power, pm.inv_drain_eff, pm.max_power))

    @property
    def size(self) -> int:
        """Number of points the sweep evaluates."""
        return _grid_count(self.dbm_min, self.dbm_max, self.dbm_step) * len(self.max_tx_list)


class EsSweep(_Checked, namedtuple("EsSweep", "es_list base normalizer", defaults=(None,))):
    """A base sweep's curves per sensing energy, each normalized.

    Each produced curve is normalized by ``sense_energy + tx_ref`` where
    ``tx_ref`` is the transmit-side reference energy: this sweep's
    ``normalizer`` field when given, otherwise the base sweep's constant
    transmit energy (for an MSweep base) or circuit + amplifier drain at
    maximum power (for a PowerSweep base).
    """

    __slots__ = ()

    def __new__(cls, es_list: Iterable[float], base: MSweep | PowerSweep, normalizer: float | None = None):
        es_list, base = _nonempty("es_list", es_list), _check_type("base", base, MSweep | PowerSweep)
        _check_size(len(es_list) * base.size)
        return tuple.__new__(cls, (tuple(map(_check_nonnegative, repeat("sense energy"), es_list)), base,
                                   None if normalizer is None else _check_positive("normalizer", normalizer)))


class TradeoffCurve(_Checked, namedtuple("TradeoffCurve", "label points normalizer", defaults=(None,))):
    """An ordered list of (energy, age) points plus the divisor applied to
    the energies (None while unnormalized)."""

    __slots__ = ()

    def __new__(cls, label: str, points: Iterable[MetricPoint], normalizer: float | None = None):
        return tuple.__new__(cls, (label, tuple(points), normalizer))


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
    dbm_min, dbm_max, dbm_step = map(_real, ("dbm_min", "dbm_max", "dbm_step"), (dbm_min, dbm_max, dbm_step))
    return [dbm_min + i * dbm_step for i in range(_grid_count(dbm_min, dbm_max, dbm_step))]


def _m_grid(spec: MSweep):
    """Per curve its label and ``(p, M, age, sensing rate, transmit energy, dBm)`` rows."""
    et, ms = spec.energy.tx_energy, sorted(spec.max_tx_list)
    return [("p=" + _FLOAT_FORMAT.format(p), [(p, m, *_age_and_rate(p, m), et, None) for m in ms]) for p in spec.p_list]


def _power_grid(spec: PowerSweep):
    """As :func:`_m_grid`, with one curve per M and one row per dBm point."""
    noise = noise_from_reference_snr(dbm_to_watts(spec.ref_power_dbm), spec.snr_ref_db)
    cells = []  # (p, transmit energy, dBm), built once for all M
    for dbm in dbm_grid(spec.dbm_min, spec.dbm_max, spec.dbm_step):
        pt_watts = dbm_to_watts(dbm)
        pm = PowerModel(spec.circuit_power, spec.inv_drain_eff, pt_watts, spec.max_power)
        energy = EnergyParams(spec.sense_energy, transmit_energy(pm))  # checks the transmit energy
        cells.append((failure_prob(RayleighLink(spec.rate, noise, pt_watts)), energy.tx_energy, dbm))
    ms = sorted(spec.max_tx_list)
    return [(f"M={m}", [(p, m, *_age_and_rate(p, m), et, dbm) for p, et, dbm in cells]) for m in ms]


def _curves(grid, sense_energy: float, divisor=None, prefix="", suffix="") -> list[TradeoffCurve]:
    """A grid's curves at sensing energy ``sense_energy``, every average energy
    divided by ``divisor`` when one is given."""
    out = []
    for label, rows in grid:
        points = []
        for p, m, age, rate, tx_energy, dbm in rows:
            energy = rate * sense_energy + tx_energy
            points.append(MetricPoint(p, m, age, energy if divisor is None else energy / divisor, dbm))
        out.append(TradeoffCurve(prefix + label + suffix, tuple(points), divisor))
    return out


def m_sweep(spec: MSweep) -> list[TradeoffCurve]:
    """One curve per failure probability, retransmission limit ascending."""
    return _curves(_m_grid(spec), spec.energy.sense_energy)


def power_sweep(spec: PowerSweep) -> list[TradeoffCurve]:
    """One curve per retransmission limit, transmit power ascending."""
    return _curves(_power_grid(spec), spec.sense_energy)


def es_sweep(spec: EsSweep) -> list[TradeoffCurve]:
    """Base-sweep curves per sensing energy, each normalized by Es + tx_ref.

    One base grid gives every curve: a point's energy is ``(rate * Es + Et) / (Es + tx_ref)``.
    """
    base, m_base, tx_ref = spec.base, isinstance(spec.base, MSweep), spec.normalizer
    if tx_ref is None:  # the base's transmit energy, or its energy per slot at full power
        tx_ref = base.energy.tx_energy if m_base else transmit_energy(
            PowerModel(base.circuit_power, base.inv_drain_eff, base.max_power, base.max_power))
    grid = (_m_grid if m_base else _power_grid)(base)
    out = []
    for es in spec.es_list:
        normalizer = es + tx_ref
        _check_positive("normalizer", normalizer)
        out += _curves(grid, es, normalizer, "Es=" + _FLOAT_FORMAT.format(es) + " ", _DIVIDED_BY.format(normalizer))
    return out


def normalize_curve(curve: TradeoffCurve, normalizer: float) -> TradeoffCurve:
    """Divide every point's average energy by ``normalizer``.

    Ages are untouched; the curve's normalizer, if it has one, is multiplied
    so repeated normalizations compose.
    """
    _check_positive("normalizer", normalizer)
    points = tuple(MetricPoint(p, m, aoi, energy / normalizer, dbm) for p, m, aoi, energy, dbm in curve.points)
    total = normalizer if curve.normalizer is None else curve.normalizer * normalizer
    return TradeoffCurve(curve.label + _DIVIDED_BY.format(normalizer), points, total)


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
