"""``build_report`` runs its estimator runs on one thread per usable CPU.

The worker count comes from ``validation._usable_cpus``, forced here to 1, 2
and 5 on grids with more runs than workers. Runs are queued cycle runs first,
in grid order, then slot runs.
"""

import sys
import threading
import time

import pytest

from aoilink import validation
from aoilink.analytic import EnergyParams
from aoilink.output import emit_report_csv, emit_report_json
from aoilink.validation import build_report

ENERGY = EnergyParams(4.02308, 4.02308)
GRID = dict(p_values=(0.1, 0.4, 0.7), max_tx_values=(1, 3), energy=ENERGY, slots=20_000, cycles=30_000, seed=7)
WORKERS = [1, 2, 5]


def report_with(monkeypatch, workers, **grid):
    monkeypatch.setattr(validation, "_usable_cpus", lambda: workers)
    return build_report(**{**GRID, **grid})


def test_report_and_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    threads = threading.active_count()
    reports = [report_with(monkeypatch, workers) for workers in WORKERS]  # 12 runs each
    assert threading.active_count() == threads
    assert reports[0] == reports[1] == reports[2]
    for emit in (emit_report_csv, emit_report_json):
        assert emit(reports[0]) == emit(reports[1]) == emit(reports[2])


def test_each_run_is_its_own_estimator_call(monkeypatch):
    # One worker: the calls come in queue order, each once, in the calling thread.
    calls = []
    for name in ("run_slot_sim", "run_cycle_sim"):
        real = getattr(validation, name)

        def traced(cfg, name=name, real=real):
            calls.append((name, cfg.link.p, cfg.policy.max_tx, threading.current_thread()))
            return real(cfg)

        monkeypatch.setattr(validation, name, traced)
    report = report_with(monkeypatch, 1)
    points = [(pt.p, pt.max_tx) for pt in report.points]
    assert [c[:3] for c in calls] == [
        *(("run_cycle_sim", *pt) for pt in points),
        *(("run_slot_sim", *pt) for pt in points),
    ]
    assert {c[3] for c in calls} == {threading.current_thread()}


def test_each_call_is_made_once_and_returned_in_place_under_frequent_switches(monkeypatch):
    # More workers than cores, and a thread switch every few bytecodes: a call
    # taken twice, or a result stored at the wrong index, breaks the counts.
    monkeypatch.setattr(validation, "_usable_cpus", lambda: 8)
    made = []
    calls = [lambda i=i: made.append(i) or i for i in range(500)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = validation._in_parallel(calls)
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(500))
    assert sorted(made) == list(range(500))


class Recorder:
    """Fake estimators: each records its start and whether the failure had
    happened by then; the one at ``failing`` raises ``exc``."""

    def __init__(self, failing, exc):
        self.failing, self.exc = failing, exc
        self.failed = threading.Event()
        self.starts = []

    def __call__(self, kind):
        def run(cfg):
            key = (kind, cfg.link.p, cfg.policy.max_tx)
            self.starts.append((key, self.failed.is_set()))
            if key == self.failing and self.exc is not None:
                # No thread switch between here and the raise (see the
                # switch interval below), so the map sees the failure first.
                self.failed.set()
                raise self.exc
            time.sleep(0.002)  # lets the other workers take runs meanwhile
            return None

        return run


def queue_order(grid):
    points = [(p, m) for p in grid["p_values"] for m in grid["max_tx_values"]]
    return [("cycle", *pt) for pt in points] + [("slot", *pt) for pt in points]


@pytest.fixture
def no_forced_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)  # threads switch only where one blocks or sleeps
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", WORKERS)
def test_first_error_stops_the_queue_and_is_raised(monkeypatch, no_forced_switches, workers):
    order = queue_order(GRID)
    failing = ("cycle", 0.4, 1)  # the third of 12 runs
    recorder = Recorder(failing, ValueError("estimator failed at p=0.4, M=1"))
    monkeypatch.setattr(validation, "run_cycle_sim", recorder("cycle"))
    monkeypatch.setattr(validation, "run_slot_sim", recorder("slot"))
    threads = threading.active_count()
    with pytest.raises(ValueError, match="estimator failed at p=0.4, M=1"):
        report_with(monkeypatch, workers)
    assert threading.active_count() == threads
    started = [key for key, _ in recorder.starts]
    assert not any(after for _, after in recorder.starts)  # nothing started once the failure was seen
    assert len(set(started)) == len(started)
    # Only the runs other workers had in hand when the failure came may lie past it in the queue.
    past = [key for key in started if order.index(key) > order.index(failing)]
    assert len(past) <= workers - 1
    assert set(order[: order.index(failing) + 1]) <= set(started)


def test_an_interrupt_of_the_calling_thread_stops_the_other_workers(monkeypatch, no_forced_switches):
    caller = threading.current_thread()
    recorder = Recorder(None, None)
    cycle = recorder("cycle")

    def interrupted(cfg):
        if threading.current_thread() is caller and not recorder.failed.is_set():
            recorder.failed.set()
            raise KeyboardInterrupt
        return cycle(cfg)

    monkeypatch.setattr(validation, "run_cycle_sim", interrupted)
    monkeypatch.setattr(validation, "run_slot_sim", recorder("slot"))
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        report_with(monkeypatch, 2)
    assert threading.active_count() == threads
    assert not any(after for _, after in recorder.starts)
    assert len(recorder.starts) < len(queue_order(GRID)) - 1
