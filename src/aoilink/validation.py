"""Cross-checks of the Monte Carlo estimators against the closed forms.

For each grid point, both estimators must land within
``max(3 * stderr, 0.5% relative)`` of the exact value, for both metrics.

:func:`build_report` runs its estimator runs on one thread per usable CPU.
Each run draws from its own seeded Generator; numpy releases the GIL while
it draws and loops over arrays, which lets the cycle estimator's runs
overlap. No result, and no byte of the report, depends on the thread count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from .analytic import EnergyParams, FixedFailureLink, Policy, avg_aoi, avg_energy
from .simulator import SimConfig, SimResult, _check_cycle_warmup, _check_seed, run_cycle_sim, run_slot_sim

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


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_parallel(calls: list[Callable[[], SimResult]]) -> list[SimResult]:
    """The results of ``calls``, taken in order by one thread per usable CPU,
    the calling thread included. The first exception stops the threads from
    taking more calls and is raised once all of them have ended."""
    results, errors, lock, todo = [None] * len(calls), [], threading.Lock(), iter(enumerate(calls))

    def work() -> None:
        try:
            while True:
                with lock:
                    i, call = (0, None) if errors else next(todo, (0, None))
                if call is None:
                    return
                results[i] = call()
        except BaseException as exc:  # an interrupt of the calling thread too
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(len(calls), _usable_cpus()) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


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
    runs = []  # every config is built, and so checked, before any estimator runs
    for index, (p, max_tx) in enumerate((p, m) for p in p_values for m in max_tx_values):
        point_seed = (seed + 1_000_003 * index) % 2**64
        link = FixedFailureLink(p)
        policy = Policy(max_tx)
        configs = [SimConfig(link, policy, energy, point_seed, n, batches=batches) for n in (slots, cycles)]
        _check_cycle_warmup(configs[1])
        runs.append((p, max_tx, *configs))
    # The estimators are looked up at call time, so a wrapped binding is the one called.
    results = _in_parallel(
        [lambda cfg=cfg: run_cycle_sim(cfg) for *_, cfg in runs]  # the longer runs first
        + [lambda cfg=cfg: run_slot_sim(cfg) for _, _, cfg, _ in runs]
    )
    points = []
    for (p, max_tx, *_), cycle_res, slot_res in zip(runs, results, results[len(runs) :]):
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
