"""Cross-checks of the Monte Carlo estimators against the closed forms.

For each grid point, both estimators must land within
``max(3 * stderr, 0.5% relative)`` of the exact value, for both metrics.

:func:`build_report` shares its estimator runs between the calling process and
one forked worker per further usable CPU. Each run draws from its own seeded
Generator, so no result, and no byte of the report, depends on the worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections import namedtuple
from collections.abc import Callable, Sequence

from .analytic import EnergyParams, FixedFailureLink, Policy, evaluate
from .simulator import SimConfig, SimResult, _check_seed, run_cycle_sim, run_slot_sim
from .sweep import MAX_GRID_POINTS

__all__ = [
    "ValidationPoint",
    "ValidationReport",
    "within_tolerance",
    "build_report",
]

STDERR_MULTIPLE = 3.0
RELATIVE_FLOOR = 0.005


class ValidationPoint(namedtuple("ValidationPoint", "p max_tx exact_aoi exact_energy slot cycle slot_pass cycle_pass")):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "points passed")):
    __slots__ = ()


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
    """The results of ``calls``, in order. Of n = min(len(calls), usable CPUs) shares, the caller makes
    ``calls[0::n]`` and forked worker i ``calls[i::n]``, sending back their results or its first exception; one
    that dies raises ChildProcessError. Workers are reaped before this returns, and killed if the caller raises."""
    n = min(len(calls), _usable_cpus()) if calls and hasattr(os, "fork") else 1
    pipes, pids, sent, results = [], [], None, [None] * len(calls)  # the workers' read ends and pids
    try:
        for i in range(1, n):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as pipe:  # the caller's copy is closed even if the fork fails
                if (pid := os.fork()) == 0:  # the worker, which never returns
                    try:
                        try:
                            share = [call() for call in calls[i::n]]
                        except BaseException as exc:  # an interrupt too
                            share = exc
                        pickle.dump(share, pipe)
                        pipe.close()
                    finally:
                        os._exit(not pipe.closed)  # 0 once all is sent
            pids.append(pid)
        results[::n] = [call() for call in calls[::n]]
        sent = [pipe.read() for pipe in pipes]  # all of it before reaping: a full pipe blocks its worker
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids if sent is None else ():  # the caller's share or the reading raised
            os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for i, (data, status) in enumerate(zip(sent, statuses), 1):
        share = ChildProcessError(f"validation worker died, wait status {status}") if status else pickle.loads(data)
        if isinstance(share, BaseException):
            raise share
        results[i::n] = share
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
    if (size := len(p_values) * len(max_tx_values)) > MAX_GRID_POINTS:
        raise ValueError(f"grid of {size} points exceeds the limit of {MAX_GRID_POINTS}")
    seed = _check_seed(seed)
    runs = []  # every config is built, and so checked, before any estimator runs
    for index, (p, max_tx) in enumerate((p, m) for p in p_values for m in max_tx_values):
        point_seed = (seed + 1_000_003 * index) % 2**64
        link = FixedFailureLink(p)
        policy = Policy(max_tx)
        configs = [SimConfig(link, policy, energy, point_seed, n, batches=batches) for n in (slots, cycles)]
        runs.append((evaluate(link, policy.max_tx, energy), *configs))  # p and M as the checks stored them
    # The estimators are looked up at call time, so a wrapped binding is the one called.
    results = _in_parallel(
        [lambda cfg=cfg: run_cycle_sim(cfg) for *_, cfg in runs]  # the longer runs first
        + [lambda cfg=cfg: run_slot_sim(cfg) for _, cfg, _ in runs]
    )
    points = []
    for (exact, *_), cycle_res, slot_res in zip(runs, results, results[len(runs) :]):
        points.append(
            ValidationPoint(
                p=exact.p,
                max_tx=exact.max_tx,
                exact_aoi=exact.avg_aoi,
                exact_energy=exact.avg_energy,
                slot=slot_res,
                cycle=cycle_res,
                slot_pass=_result_pass(slot_res, exact.avg_aoi, exact.avg_energy),
                cycle_pass=_result_pass(cycle_res, exact.avg_aoi, exact.avg_energy),
            )
        )
    return ValidationReport(
        points=tuple(points),
        passed=all(pt.slot_pass and pt.cycle_pass for pt in points),
    )
