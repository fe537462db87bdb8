"""The estimator agreement criterion where its 0.5 % floor binds."""

import pytest

from aoilink.validation import within_tolerance


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
