"""The estimator agreement criterion where its 0.5 % floor binds, and the report's seed and grid size."""

import numpy as np
import pytest

from aoilink.analytic import EnergyParams
from aoilink.output import emit_report_csv, emit_report_json
import aoilink.validation as validation
from aoilink.validation import build_report, within_tolerance


# With no standard error, an estimate 0.4 % off passes and 0.6 % off fails, on
# either side of an exact value of either sign, below and above magnitude 1.
@pytest.mark.parametrize("exact", [10.0, -10.0, 0.5, -0.5, 250.0])
def test_half_percent_floor_with_zero_stderr(exact):
    for offset in (0.004, -0.004):
        assert within_tolerance(exact * (1 + offset), 0.0, exact)
    for offset in (0.006, -0.006):
        assert not within_tolerance(exact * (1 + offset), 0.0, exact)


def test_three_stderrs_win_over_a_smaller_floor():
    # 3 * 0.1 = 0.3 against a floor of 0.05.
    assert within_tolerance(10.29, 0.1, 10.0)
    assert not within_tolerance(10.31, 0.1, 10.0)


GRID = ([0.4, 0.7], [2], EnergyParams(1.0, 1.0), 5000, 5000)


# The top seed makes the second point's seed wrap modulo 2**64.
@pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7), np.uint64(2**64 - 1)])
def test_report_takes_a_numpy_seed(seed):
    assert build_report(*GRID, seed) == build_report(*GRID, int(seed))


@pytest.mark.parametrize("p_values", [[0.4], []], ids=["one-point", "empty-grid"])
def test_report_rejects_a_float_seed(p_values):
    with pytest.raises(ValueError, match="seed must be an integer"):
        build_report(p_values, *GRID[1:], 7.0)


def test_report_stores_the_grid_values_as_checked():
    # A numpy grid value reached the report as given, so emit_report_json raised
    # TypeError: Object of type float32 is not JSON serializable.
    report = build_report((np.float32(0.4),), (np.int64(2),), *GRID[2:], np.uint64(7))
    (point,) = report.points
    assert (type(point.p), type(point.max_tx)) == (float, int)
    plain = build_report((float(np.float32(0.4)),), (2,), *GRID[2:], 7)
    assert report == plain
    assert emit_report_json(report) == emit_report_json(plain)
    assert emit_report_csv(report) == emit_report_csv(plain)


def test_report_rejects_an_energy_of_the_wrong_type():
    # A plain tuple used to build its configs and raise AttributeError in the runs.
    with pytest.raises(ValueError, match="energy must be EnergyParams, got tuple"):
        build_report([0.4], [3], (1, 1), 1000, 1000, 1)


# A float seed would be rejected, and a config built, only after the grid's size.
@pytest.mark.parametrize("seed", [7, 7.0])
def test_report_rejects_a_grid_past_the_limit_first(monkeypatch, seed):
    configs = []
    monkeypatch.setattr(validation, "SimConfig", lambda *args, **kwargs: configs.append(args))
    with pytest.raises(ValueError, match="^grid of 1001000 points exceeds the limit of 1000000$"):
        build_report([0.4] * 1001, range(1, 1001), *GRID[2:], seed)
    assert configs == []


def test_report_takes_a_grid_at_the_limit():
    # Past the size check, the first config rejects the horizon of 0 slots.
    with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
        build_report([0.4] * 1000, range(1, 1001), EnergyParams(1.0, 1.0), 0, 0, 7)
