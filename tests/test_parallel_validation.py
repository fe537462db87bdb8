"""``build_report`` shares its estimator runs between the calling process and
forked worker processes, one per further usable CPU.

The worker count comes from ``validation._usable_cpus``, forced here to 1, 2
and 5 on grids with more runs than workers. Runs are queued cycle runs first,
in grid order, then slot runs; the caller makes runs 0, n, 2n, … of the queue
and worker i makes runs i, i + n, …. A worker's memory is its own, so calls
made in workers are logged to a file opened for appending, not to a list.
"""

import ast
import contextlib
import os
import sys
import time

import pytest

from aoilink import validation
from aoilink.analytic import EnergyParams
from aoilink.cli import main
from aoilink.output import emit_report_csv, emit_report_json
from aoilink.validation import build_report

ENERGY = EnergyParams(4.02308, 4.02308)
GRID = dict(p_values=(0.1, 0.4, 0.7), max_tx_values=(1, 3), energy=ENERGY, slots=20_000, cycles=30_000, seed=7)
WORKERS = [1, 2, 5]


def report_with(monkeypatch, workers, **grid):
    monkeypatch.setattr(validation, "_usable_cpus", lambda: workers)
    return build_report(**{**GRID, **grid})


def open_fds():
    return len(os.listdir("/proc/self/fd")) if sys.platform == "linux" else None


@contextlib.contextmanager
def leaves_nothing():
    """The block leaves no child process to reap and, on Linux, no open file."""
    fds = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def log_to(path, entry):
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{entry!r}\n".encode())  # one write per line, so lines of two processes never mix
    finally:
        os.close(fd)


def logged(path):
    return [ast.literal_eval(line) for line in path.read_text().splitlines()] if path.exists() else []


def queue_order(grid):
    points = [(p, m) for p in grid["p_values"] for m in grid["max_tx_values"]]
    return [("cycle", *pt) for pt in points] + [("slot", *pt) for pt in points]


def fake_estimators(monkeypatch, log, run):
    """Stand-ins for both estimators: each logs its key and pid, then returns ``run(key)``."""
    for kind in ("cycle", "slot"):

        def estimator(cfg, kind=kind):
            key = (kind, cfg.link.p, cfg.policy.max_tx)
            log_to(log, (*key, os.getpid()))
            return run(key)

        monkeypatch.setattr(validation, f"run_{kind}_sim", estimator)


def test_report_and_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    reports = []
    for workers in WORKERS:  # 12 runs each
        with leaves_nothing():
            reports.append(report_with(monkeypatch, workers))
    assert reports[0] == reports[1] == reports[2]
    for emit in (emit_report_csv, emit_report_json):
        assert emit(reports[0]) == emit(reports[1]) == emit(reports[2])


def test_each_run_is_its_own_estimator_call(monkeypatch):
    # One worker: the calls come in queue order, each once, in the calling process.
    calls = []
    for name in ("run_slot_sim", "run_cycle_sim"):
        real = getattr(validation, name)

        def traced(cfg, name=name, real=real):
            calls.append((name, cfg.link.p, cfg.policy.max_tx, os.getpid()))
            return real(cfg)

        monkeypatch.setattr(validation, name, traced)
    with leaves_nothing():
        report = report_with(monkeypatch, 1)
    points = [(pt.p, pt.max_tx) for pt in report.points]
    assert [c[:3] for c in calls] == [
        *(("run_cycle_sim", *pt) for pt in points),
        *(("run_slot_sim", *pt) for pt in points),
    ]
    assert {c[3] for c in calls} == {os.getpid()}


@pytest.mark.parametrize("workers", WORKERS)
def test_each_call_is_made_once_and_returned_in_place(monkeypatch, tmp_path, workers):
    # A call made twice, or a result stored at the wrong index, breaks the counts.
    monkeypatch.setattr(validation, "_usable_cpus", lambda: workers)
    log = tmp_path / "made"

    def call(i):
        log_to(log, i)
        return i, os.getpid()

    with leaves_nothing():
        results = validation._in_parallel([lambda i=i: call(i) for i in range(500)])
        assert validation._in_parallel([]) == []
    assert [i for i, _ in results] == list(range(500))
    assert sorted(logged(log)) == list(range(500))
    pids = [pid for _, pid in results]
    assert len(set(pids)) == min(workers, 500)
    assert set(pids[::workers]) == {os.getpid()}
    assert all(len(set(pids[i::workers])) == 1 for i in range(workers))


@pytest.mark.parametrize("workers", WORKERS)
def test_first_error_stops_the_queue_and_is_raised(monkeypatch, tmp_path, workers):
    # A failing run in the caller's share (queue index n) and one in worker 1's
    # (index n + 1; the caller's again at one worker): each share stops at its
    # failure, and the exception comes back with its type and message.
    order = queue_order(GRID)
    in_caller, in_worker = order[workers], order[workers + 1]
    cases = [
        ({in_caller: ValueError(f"estimator failed at {in_caller}")}, ValueError, in_caller),
        ({in_worker: LookupError(f"estimator failed at {in_worker}")}, LookupError, in_worker),
    ]
    for failing, kind, first in cases:
        log = tmp_path / f"started-{kind.__name__}"

        def run(key, failing=failing):
            if key in failing:
                raise failing[key]
            time.sleep(0.002)

        fake_estimators(monkeypatch, log, run)
        with leaves_nothing(), pytest.raises(kind) as raised:
            report_with(monkeypatch, workers)
        assert type(raised.value) is kind and raised.value.args == failing[first].args
        started = [order.index(tuple(entry[:3])) for entry in logged(log)]
        assert len(set(started)) == len(started)
        at = order.index(first)
        assert at in started
        assert not [i for i in started if i % workers == at % workers and i > at]


def test_an_interrupt_of_the_calling_thread_stops_the_other_workers(monkeypatch, tmp_path):
    # Each worker's first run would take 20 s; the caller interrupts its first
    # run once every worker has started one, and the workers are killed.
    caller = os.getpid()
    for workers in WORKERS:
        log, slept = tmp_path / f"started-{workers}", []  # each worker sleeps in its own copy

        def run(key, log=log, workers=workers, slept=slept):
            if os.getpid() != caller:
                if not slept:
                    slept.append(key)
                    time.sleep(20)
                return None
            deadline = time.monotonic() + 10
            while len(logged(log)) < workers and time.monotonic() < deadline:
                time.sleep(0.005)
            raise KeyboardInterrupt

        fake_estimators(monkeypatch, log, run)
        start = time.monotonic()
        with leaves_nothing(), pytest.raises(KeyboardInterrupt):
            report_with(monkeypatch, workers)
        assert time.monotonic() - start < 15
        assert len({entry[3] for entry in logged(log)}) == workers  # every worker had started a run


@pytest.mark.parametrize("workers", [2, 5])
def test_a_worker_that_dies_raises_child_process_error(monkeypatch, tmp_path, capsys, workers):
    caller = os.getpid()

    def run(key):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.002)

    fake_estimators(monkeypatch, tmp_path / "started", run)
    with leaves_nothing(), pytest.raises(ChildProcessError):
        report_with(monkeypatch, workers)
    # Through the CLI: an OSError, so one line on stderr and exit 1.
    with leaves_nothing():
        code = main(["validate", "--p", "0.1,0.4", "--M", "1,3", "--slots", "2000", "--cycles", "2000"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
