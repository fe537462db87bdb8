"""Cross-checks of the Monte Carlo estimators against the closed forms.

For each grid point, both estimators must land within
``max(3 * stderr, 0.5% relative)`` of the exact value, for both metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .analytic import EnergyParams, FixedFailureLink, Policy, avg_aoi, avg_energy
from .simulator import SimConfig, SimResult, _check_seed, run_cycle_sim, run_slot_sim

__all__ = [
    "ValidationPoint",
    "ValidationReport",
    "within_tolerance",
    "build_report",
]

STDERR_MULTIPLE = 3.0
RELATIVE_FLOOR = 0.005


@dataclass(frozen=True)
class ValidationPoint:
    p: float
    max_tx: int
    exact_aoi: float
    exact_energy: float
    slot: SimResult
    cycle: SimResult
    slot_pass: bool
    cycle_pass: bool


@dataclass(frozen=True)
class ValidationReport:
    points: tuple[ValidationPoint, ...]
    passed: bool


def within_tolerance(estimate: float, stderr: float, exact: float) -> bool:
    """Estimator agreement criterion: 3 standard errors or 0.5% relative,
    whichever is looser."""
    return abs(estimate - exact) <= max(STDERR_MULTIPLE * stderr, RELATIVE_FLOOR * abs(exact))


def _result_pass(result: SimResult, exact_aoi: float, exact_energy: float) -> bool:
    return within_tolerance(result.avg_aoi_est, result.stderr_aoi, exact_aoi) and (
        within_tolerance(result.avg_energy_est, result.stderr_energy, exact_energy)
    )


def build_report(
    p_values: Sequence[float],
    max_tx_values: Sequence[int],
    energy: EnergyParams,
    slots: int,
    cycles: int,
    seed: int,
    batches: int = 100,
) -> ValidationReport:
    """Run both estimators over the grid and score each point.

    Each grid point gets its own deterministic seed derived from the base
    seed and the point's position, so points are independent runs while the
    whole report stays reproducible from one seed.
    """
    _check_seed(seed)
    points = []
    for index, (p, max_tx) in enumerate(
        (p, m) for p in p_values for m in max_tx_values
    ):
        point_seed = (seed + 1_000_003 * index) % 2**64
        link = FixedFailureLink(p)
        policy = Policy(max_tx)
        slot_res = run_slot_sim(
            SimConfig(link, policy, energy, point_seed, slots, batches=batches)
        )
        cycle_res = run_cycle_sim(
            SimConfig(link, policy, energy, point_seed, cycles, batches=batches)
        )
        exact_aoi = avg_aoi(p, max_tx)
        exact_energy = avg_energy(p, max_tx, energy)
        points.append(
            ValidationPoint(
                p=p,
                max_tx=max_tx,
                exact_aoi=exact_aoi,
                exact_energy=exact_energy,
                slot=slot_res,
                cycle=cycle_res,
                slot_pass=_result_pass(slot_res, exact_aoi, exact_energy),
                cycle_pass=_result_pass(cycle_res, exact_aoi, exact_energy),
            )
        )
    return ValidationReport(
        points=tuple(points),
        passed=all(pt.slot_pass and pt.cycle_pass for pt in points),
    )
