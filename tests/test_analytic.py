import math
import pickle
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoilink.analytic import (
    EnergyParams,
    FixedFailureLink,
    MetricPoint,
    Policy,
    PowerModel,
    RayleighLink,
    avg_aoi,
    avg_energy,
    cycle_length_moments,
    cycle_length_pmf,
    dbm_to_watts,
    delivered_tx_count_mean,
    delivered_tx_count_pmf,
    evaluate,
    failure_prob,
    noise_from_reference_snr,
    pow_complement,
    sense_count_mean,
    sense_count_pmf,
    transmit_energy,
)
from aoilink.sweep import EsSweep, MSweep, PowerSweep, TradeoffCurve

ET_REF = 4.02308  # 2.1 + 19.2308 * 0.1


# ---------------------------------------------------------------------------
# Frozen-value checks. Expected numbers were computed independently with
# mpmath at 60 digits from the defining formulas.
# ---------------------------------------------------------------------------


def test_failure_prob_fixed_is_verbatim():
    assert failure_prob(FixedFailureLink(0.37)) == 0.37
    assert failure_prob(FixedFailureLink(0.0)) == 0.0


@pytest.mark.parametrize(
    "link, expected",
    [
        (RayleighLink(2.0, 0.001, 0.1), 0.029554466451491823),
        (RayleighLink(0.0, 0.5, 0.3), 0.0),
        (RayleighLink(2.0, 0.001, dbm_to_watts(2.0)), 0.84936145198293994),
    ],
)
def test_failure_prob_rayleigh(link, expected):
    assert failure_prob(link) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_failure_prob_stays_below_one():
    p = failure_prob(RayleighLink(40.0, 1.0, 1e-6))
    assert 0.0 <= p < 1.0


def test_failure_prob_clamps_an_overflowing_exponent():
    # 2**rate passes the float range from rate 1024 on; the outage rounds to 1.
    assert failure_prob(RayleighLink(2000.0, 1.0, 0.01)) == math.nextafter(1.0, 0.0)
    assert failure_prob(RayleighLink(1100.0, 1e-20, 1e3)) == math.nextafter(1.0, 0.0)


@pytest.mark.parametrize("dbm", [4000.0, 1e308])
def test_dbm_to_watts_past_the_float_range_raises(dbm):
    with pytest.raises(ValueError, match="past the float range"):
        dbm_to_watts(dbm)


@pytest.mark.parametrize("snr_db", [1e308, 4000.0, -4000.0])
def test_noise_from_reference_snr_past_the_float_range_raises(snr_db):
    with pytest.raises(ValueError, match="past the float range"):
        noise_from_reference_snr(0.1, snr_db)


@pytest.mark.parametrize("pmf", [delivered_tx_count_pmf, sense_count_pmf])
def test_pmfs_compute_with_the_checked_p(pmf):
    # The check passed a Decimal p, and the formula then mixed it with floats, which raised TypeError.
    for p in (Fraction(1, 2), Decimal("0.5")):
        assert [pmf(m, p, 3) for m in range(5)] == [pmf(m, 0.5, 3) for m in range(5)]


def test_noise_from_reference_snr_rejects_an_infinite_snr():
    with pytest.raises(ValueError, match="must be finite"):
        noise_from_reference_snr(1.0, math.inf)


@pytest.mark.parametrize(
    "model, expected",
    [
        (PowerModel(2.1, 19.2308, 0.1, 0.1), 4.02308),
        (PowerModel(0.0, 1.0, 0.5, 1.0), 0.5),
        (PowerModel(2.1, 19.2308, dbm_to_watts(2.0), 0.1), 2.1304787640055812),
    ],
)
def test_transmit_energy(model, expected):
    assert transmit_energy(model) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "dbm, watts",
    [(20.0, 0.1), (30.0, 1.0), (2.0, 0.0015848931924611135)],
)
def test_dbm_to_watts(dbm, watts):
    assert dbm_to_watts(dbm) == pytest.approx(watts, rel=1e-12)


@pytest.mark.parametrize(
    "p_ref, snr_db, expected",
    [(0.1, 20.0, 0.001), (1.0, 0.0, 1.0), (0.1, 10.0, 0.01)],
)
def test_noise_from_reference_snr(p_ref, snr_db, expected):
    assert noise_from_reference_snr(p_ref, snr_db) == pytest.approx(expected, rel=1e-12)


def test_cycle_length_pmf_values():
    assert cycle_length_pmf(1, 0.4) == pytest.approx(0.6, rel=1e-12)
    assert cycle_length_pmf(3, 0.4) == pytest.approx(0.096, rel=1e-12)
    assert cycle_length_pmf(0, 0.4) == 0.0
    assert cycle_length_pmf(-2, 0.9) == 0.0


@pytest.mark.parametrize(
    "p, mean, second",
    [(0.0, 1.0, 1.0), (0.4, 5.0 / 3.0, 3.8888888888888889), (0.5, 2.0, 6.0)],
)
def test_cycle_length_moments(p, mean, second):
    got_mean, got_second = cycle_length_moments(p)
    assert got_mean == pytest.approx(mean, rel=1e-12)
    assert got_second == pytest.approx(second, rel=1e-12)


def test_delivered_tx_count_pmf_values():
    assert delivered_tx_count_pmf(1, 0.73, 1) == pytest.approx(1.0, rel=1e-12)
    assert delivered_tx_count_pmf(2, 0.4, 3) == pytest.approx(0.25641025641025641, rel=1e-12)
    assert delivered_tx_count_pmf(0, 0.4, 3) == 0.0
    assert delivered_tx_count_pmf(4, 0.4, 3) == 0.0


def test_delivered_tx_count_mean_values():
    assert delivered_tx_count_mean(0.99, 1) == pytest.approx(1.0, rel=1e-12)
    assert delivered_tx_count_mean(0.4, 6) == pytest.approx(1.6419895893580104, rel=1e-12)
    assert delivered_tx_count_mean(0.0, 10) == pytest.approx(1.0, rel=1e-12)


def test_sense_count_pmf_values():
    assert sense_count_pmf(1, 0.4, 3) == pytest.approx(0.936, rel=1e-12)
    assert sense_count_pmf(2, 0.4, 3) == pytest.approx(0.059904, rel=1e-12)
    assert sense_count_pmf(1, 0.0, 5) == pytest.approx(1.0, rel=1e-12)
    assert sense_count_pmf(0, 0.4, 3) == 0.0


def test_sense_count_mean_values():
    assert sense_count_mean(0.0, 7) == pytest.approx(1.0, rel=1e-12)
    assert sense_count_mean(0.4, 3) == pytest.approx(1.0683760683760684, rel=1e-12)
    assert sense_count_mean(0.4, 6) == pytest.approx(1.0041128462181094, rel=1e-12)


@pytest.mark.parametrize("max_tx", [1, 2, 5, 40])
def test_avg_aoi_perfect_channel(max_tx):
    assert avg_aoi(0.0, max_tx) == pytest.approx(1.5, rel=1e-12)


def test_avg_aoi_values():
    assert avg_aoi(0.4, 1) == pytest.approx(2.1666666666666667, rel=1e-12)
    assert avg_aoi(0.4, 6) == pytest.approx(2.8086562560246771, rel=1e-12)


def test_avg_energy_values():
    e = EnergyParams(ET_REF, ET_REF)
    for p in (0.0, 0.1, 0.4, 0.7, 0.999):
        assert avg_energy(p, 1, e) == pytest.approx(8.04616, abs=1e-9)
    assert avg_energy(0.4, 6, e) == pytest.approx(6.4468557856178909, rel=1e-12)
    assert avg_energy(0.4, 3, EnergyParams(0.0, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_evaluate_packs_provenance():
    link = FixedFailureLink(0.4)
    e = EnergyParams(ET_REF, ET_REF)
    point = evaluate(link, 6, e, tx_power_dbm=None)
    assert point.p == 0.4
    assert point.max_tx == 6
    assert point.avg_aoi == avg_aoi(0.4, 6)
    assert point.avg_energy == avg_energy(0.4, 6, e)


def test_metric_point_fields_order_and_default():
    assert MetricPoint._fields == ("p", "max_tx", "avg_aoi", "avg_energy", "tx_power_dbm")
    assert MetricPoint._field_defaults == {"tx_power_dbm": None}
    assert MetricPoint(0.4, 3, 2.5, 1.25).tx_power_dbm is None
    assert MetricPoint.__doc__ == "One (average energy, average age) evaluation of the closed forms."


def test_metric_point_is_an_immutable_value():
    point = MetricPoint(0.4, 3, 2.5, 1.25, -3.5)
    with pytest.raises(AttributeError):
        point.avg_aoi = 1.0
    p, max_tx, aoi, energy, dbm = point
    assert (p, max_tx, aoi, energy, dbm) == (0.4, 3, 2.5, 1.25, -3.5)
    assert point == (0.4, 3, 2.5, 1.25, -3.5) == MetricPoint(0.4, 3, 2.5, 1.25, -3.5)
    assert point != MetricPoint(0.4, 3, 2.5, 1.25)
    assert hash(point) == hash(MetricPoint(0.4, 3, 2.5, 1.25, -3.5)) == hash((0.4, 3, 2.5, 1.25, -3.5))
    assert len({point, MetricPoint(0.4, 3, 2.5, 1.25, -3.5)}) == 1
    moved = point._replace(avg_energy=2.5, tx_power_dbm=None)
    assert moved == MetricPoint(0.4, 3, 2.5, 2.5) and point.avg_energy == 1.25


def sim_config(*args, **kwargs):
    return pytest.importorskip("aoilink.simulator").SimConfig(*args, **kwargs)


POWER_SWEEP = (2.0, 20.0, 3.0, (1, 3), 2.0, 20.0, 20.0, ET_REF, 2.1, 19.2308, 0.1)

# Each checked value type: a valid value, and one field change its constructor rejects.
CHECKED_VALUES = {
    "FixedFailureLink": (lambda: FixedFailureLink(0.4), {"p": 1.0}, "failure probability"),
    "RayleighLink": (lambda: RayleighLink(2.0, 1e-3, 0.1), {"noise_power": 0.0}, "noise power"),
    "PowerModel": (lambda: PowerModel(2.1, 19.2308, 0.1, 0.1), {"tx_power": 0.2}, "0 < Pt <= Pmax"),
    "Policy": (lambda: Policy(3), {"max_tx": 0}, "max_tx must be >= 1"),
    "EnergyParams": (lambda: EnergyParams(1.0, ET_REF), {"tx_energy": -1.0}, "tx energy"),
    "MSweep": (lambda: MSweep((0.4,), (1, 3), EnergyParams(1.0, ET_REF)), {"p_list": ()}, "p_list"),
    "PowerSweep": (lambda: PowerSweep(*POWER_SWEEP), {"max_tx_list": (2, 2.5)}, "must be an integer"),
    "EsSweep": (lambda: EsSweep((0.5,), PowerSweep(*POWER_SWEEP)), {"normalizer": math.inf}, "normalizer"),
    "SimConfig": (
        lambda: sim_config(FixedFailureLink(0.4), Policy(3), EnergyParams(1.0, ET_REF), 7, 5000),
        {"batches": 1},
        "batches must be >= 2",
    ),
}


@pytest.mark.parametrize("name", CHECKED_VALUES)
def test_replace_reruns_the_constructor_checks(name):
    build, bad, match = CHECKED_VALUES[name]
    value = build()
    assert type(value).__name__ == name
    with pytest.raises(ValueError, match=match):
        type(value)(**{**value._asdict(), **bad})
    with pytest.raises(ValueError, match=match):
        value._replace(**bad)
    with pytest.raises(ValueError, match=match):
        type(value)._make({**value._asdict(), **bad}.values())
    assert value._replace() == value


@pytest.mark.parametrize("name", CHECKED_VALUES)
def test_checked_values_are_immutable_and_pickle(name):
    value = CHECKED_VALUES[name][0]()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and again == value and hash(again) == hash(value)
    assert value == tuple(value) and value == type(value)(*value)


def test_value_type_reprs():
    assert repr(Policy(3)) == "Policy(max_tx=3)"
    assert repr(FixedFailureLink(0.4)) == "FixedFailureLink(p=0.4)"
    assert repr(EnergyParams(1.0, 2.0)) == "EnergyParams(sense_energy=1.0, tx_energy=2.0)"
    assert repr(MSweep([0.4], [True], EnergyParams(1.0, 2.0))) == (
        "MSweep(p_list=(0.4,), max_tx_list=(1,), energy=EnergyParams(sense_energy=1.0, tx_energy=2.0))"
    )
    assert repr(TradeoffCurve("a", [MetricPoint(0.4, 3, 2.5, 1.25)])) == (
        "TradeoffCurve(label='a', points=(MetricPoint(p=0.4, max_tx=3, avg_aoi=2.5, avg_energy=1.25, "
        "tx_power_dbm=None),), normalizer=None)"
    )


def test_list_fields_are_stored_as_tuples():
    spec = MSweep([0.4], [3, 1], EnergyParams(1.0, ET_REF))
    assert spec.p_list == (0.4,) and spec.max_tx_list == (3, 1)
    assert PowerSweep(*POWER_SWEEP)._replace(max_tx_list=[2]).max_tx_list == (2,)
    assert EsSweep([0.5, 1.0], spec).es_list == (0.5, 1.0)
    curve = TradeoffCurve("a", [])._replace(points=[MetricPoint(0.4, 3, 2.5, 1.25)])
    assert curve.points == (MetricPoint(0.4, 3, 2.5, 1.25),) and curve.normalizer is None


def test_sim_config_resolves_the_default_warmup():
    def warmup(horizon, **kwargs):
        return sim_config(FixedFailureLink(0.4), Policy(3), EnergyParams(1.0, ET_REF), 7, horizon, **kwargs).warmup_slots

    assert warmup(5000) == 1000  # the floor of 1000
    assert warmup(200_000) == 2000  # 1% of the horizon
    assert warmup(500) == 50  # capped to a tenth of a short horizon
    assert warmup(5000, warmup_slots=0) == 0
    cfg = sim_config(FixedFailureLink(0.4), Policy(3), EnergyParams(1.0, ET_REF), 7, 5000)
    assert cfg.batches == 100 and cfg._replace(horizon_slots=200_000).warmup_slots == 1000


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_p", [-0.1, 1.0, 1.5])
def test_fixed_link_rejects_bad_p(bad_p):
    with pytest.raises(ValueError):
        FixedFailureLink(bad_p)


def test_rayleigh_rejects_bad_params():
    with pytest.raises(ValueError):
        RayleighLink(-1.0, 0.001, 0.1)
    with pytest.raises(ValueError):
        RayleighLink(2.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        RayleighLink(2.0, 0.001, 0.0)


def test_power_model_rejects_bad_params():
    with pytest.raises(ValueError):
        PowerModel(-0.1, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        PowerModel(0.0, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        PowerModel(0.0, 1.0, 0.2, 0.1)
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0, 0.1, 0.1), (0.0, bad, 0.1, 0.1), (0.0, 1.0, 0.1, bad)):
            with pytest.raises(ValueError, match="finite"):
                PowerModel(*args)


def test_energy_params_reject_negative():
    with pytest.raises(ValueError):
        EnergyParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        EnergyParams(0.0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            EnergyParams(bad, 0.0)
        with pytest.raises(ValueError, match="finite"):
            EnergyParams(0.0, bad)


def test_ops_reject_bad_p_and_max_tx():
    with pytest.raises(ValueError):
        cycle_length_pmf(3, 1.0)
    with pytest.raises(ValueError):
        cycle_length_moments(-0.2)
    with pytest.raises(ValueError):
        delivered_tx_count_pmf(1, 0.5, 0)
    with pytest.raises(ValueError):
        avg_aoi(1.0, 3)
    with pytest.raises(ValueError):
        avg_energy(0.5, 0, EnergyParams(1.0, 1.0))
    with pytest.raises(ValueError):
        dbm_to_watts(math.inf)
    with pytest.raises(ValueError):
        noise_from_reference_snr(0.0, 20.0)


# ---------------------------------------------------------------------------
# Numerical contract for 1 - p**M
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9])
@pytest.mark.parametrize("max_tx", [1, 2, 10, 1000, 10**6])
def test_pow_complement_accuracy(p, max_tx):
    pm, comp = pow_complement(p, max_tx)
    with mp.workdps(60):
        exact_pm = mp.mpf(p) ** max_tx
        exact_comp = 1 - exact_pm
        assert abs(comp - exact_comp) / exact_comp <= 1e-12
        if exact_pm > mp.mpf("1e-300"):
            assert abs(pm - exact_pm) / exact_pm <= 1e-12


def test_pow_complement_edge_cases():
    assert pow_complement(0.0, 5) == (0.0, 1.0)
    assert pow_complement(0.25, 1) == (0.25, 0.75)


def exact_delivered_tx_count_mean(p, max_tx):
    with mp.workdps(60):
        pm = mp.mpf(p) ** max_tx
        return 1 / (1 - mp.mpf(p)) - max_tx * pm / (1 - pm)


def assert_delivered_mean_accurate(p, max_tx):
    exact = exact_delivered_tx_count_mean(p, max_tx)
    with mp.workdps(60):
        assert abs(delivered_tx_count_mean(p, max_tx) - exact) / exact <= 4e-15


EXTREME_P = [1e-300, 1e-100, 1e-10, 0.1, 0.5, 0.9] + [1.0 - 10.0**-k for k in range(2, 16)]


@pytest.mark.parametrize("p", EXTREME_P)
@pytest.mark.parametrize("max_tx", [1, 2, 6, 1000, 10**6, 10**9])
def test_delivered_tx_count_mean_against_mpmath(p, max_tx):
    # The subtractive form returned 3.375 for 3.5 at p = 1 - 1e-15, M = 6.
    assert_delivered_mean_accurate(p, max_tx)


@given(
    st.one_of(
        st.floats(min_value=1e-300, max_value=1.0 - 1e-15),
        st.floats(min_value=-15.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e),
    ),
    st.integers(min_value=1, max_value=10**9),
)
def test_delivered_tx_count_mean_property(p, max_tx):
    assert_delivered_mean_accurate(p, max_tx)


EXTREME_M = [1, 2, 6, 1000, 10**6, 10**9]


@pytest.mark.parametrize("p", [0.0] + EXTREME_P)
@pytest.mark.parametrize("max_tx", EXTREME_M)
def test_closed_forms_against_mpmath(p, max_tx):
    # Each closed form against its defining formula at 60 digits, at the float p.
    energies = [EnergyParams(4.02308, 1.5), EnergyParams(1.0, 0.0)]
    pm, comp = pow_complement(p, max_tx)
    with mp.workdps(60):
        x = mp.mpf(p)
        exact_pm = x**max_tx
        exact_comp = 1 - exact_pm
        exact_aoi = (3 + x) / (2 * (1 - x)) - max_tx * exact_pm / exact_comp
        exact_rate = (1 - x) / exact_comp

        def rel(value, exact):
            return abs(value - exact) / exact

        assert rel(comp, exact_comp) <= 4e-15
        if exact_pm > mp.mpf("1e-300"):
            # exp(M log p) carries log p's rounding times M |log p|.
            assert rel(pm, exact_pm) <= 4e-15 * (1 + max_tx * abs(mp.log(x)))
        else:
            assert pm <= 1e-300
        assert rel(avg_aoi(p, max_tx), exact_aoi) <= 4e-15
        assert rel(sense_count_mean(p, max_tx), 1 / exact_comp) <= 4e-15
        for energy in energies:
            exact_energy = exact_rate * mp.mpf(energy.sense_energy) + mp.mpf(energy.tx_energy)
            assert rel(avg_energy(p, max_tx, energy), exact_energy) <= 4e-15


def test_delivered_tx_count_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        delivered_tx_count_mean(1.0, 3)
    with pytest.raises(ValueError):
        delivered_tx_count_mean(0.5, 0)


# ---------------------------------------------------------------------------
# Identities, normalization, and moment consistency
# ---------------------------------------------------------------------------


def decomposed_aoi(p, max_tx):
    mean, second = cycle_length_moments(p)
    return delivered_tx_count_mean(p, max_tx) + second / (2.0 * mean)


def energy_from_counts(p, max_tx, e):
    mean, _ = cycle_length_moments(p)
    return sense_count_mean(p, max_tx) / mean * e.sense_energy + e.tx_energy


def test_aoi_decomposition_identity_grid():
    for cp in range(1, 100):
        p = cp / 100.0
        for max_tx in range(1, 21):
            direct = avg_aoi(p, max_tx)
            assert math.isclose(direct, decomposed_aoi(p, max_tx), rel_tol=1e-12)


def test_energy_form_identity_grid():
    e = EnergyParams(1.7, 0.3)
    for cp in range(1, 100):
        p = cp / 100.0
        for max_tx in range(1, 21):
            direct = avg_energy(p, max_tx, e)
            assert math.isclose(direct, energy_from_counts(p, max_tx, e), rel_tol=1e-12)


def tail_cutoff(ratio, mass=1e-10):
    """Smallest K with ratio**K <= mass (geometric tail bound)."""
    if ratio == 0.0:
        return 1
    return int(math.ceil(math.log(mass) / math.log(ratio))) + 1


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 0.99])
@pytest.mark.parametrize("max_tx", [1, 2, 5, 20])
def test_pmf_normalization(p, max_tx):
    total = sum(delivered_tx_count_pmf(m, p, max_tx) for m in range(1, max_tx + 1))
    assert math.isclose(total, 1.0, rel_tol=1e-12)

    k = tail_cutoff(p)
    assert sum(cycle_length_pmf(m, p) for m in range(1, k + 1)) >= 1.0 - 1e-10

    pm, _ = pow_complement(p, max_tx)
    k = tail_cutoff(pm)
    assert sum(sense_count_pmf(l, p, max_tx) for l in range(1, k + 1)) >= 1.0 - 1e-10


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 0.99])
@pytest.mark.parametrize("max_tx", [1, 3, 12])
def test_moment_consistency(p, max_tx):
    summed = sum(m * delivered_tx_count_pmf(m, p, max_tx) for m in range(1, max_tx + 1))
    assert math.isclose(summed, delivered_tx_count_mean(p, max_tx), rel_tol=1e-12)

    k = tail_cutoff(p, mass=1e-16)
    num_mean = sum(m * cycle_length_pmf(m, p) for m in range(1, k + 1))
    num_second = sum(m * m * cycle_length_pmf(m, p) for m in range(1, k + 1))
    mean, second = cycle_length_moments(p)
    assert math.isclose(num_mean, mean, rel_tol=1e-9)
    assert math.isclose(num_second, second, rel_tol=1e-9)


def test_monotonicity_grid():
    e = EnergyParams(2.0, 1.0)
    p_grid = [k / 20.0 for k in range(1, 20)]  # 0.05 .. 0.95
    for p in p_grid:
        for max_tx in range(1, 12):
            assert avg_aoi(p, max_tx + 1) >= avg_aoi(p, max_tx) - 1e-12
            assert avg_energy(p, max_tx + 1, e) <= avg_energy(p, max_tx, e) + 1e-12
    for p, p_next in zip(p_grid, p_grid[1:]):
        for max_tx in range(1, 13):
            assert avg_aoi(p_next, max_tx) >= avg_aoi(p, max_tx) - 1e-12


def test_bounds():
    e = EnergyParams(3.0, 0.5)
    for cp in range(0, 100, 7):
        p = cp / 100.0
        for max_tx in (1, 2, 4, 9):
            aoi = avg_aoi(p, max_tx)
            en = avg_energy(p, max_tx, e)
            assert aoi >= 1.5 - 1e-12
            lower = e.tx_energy + (1.0 - p) * e.sense_energy
            upper = e.tx_energy + e.sense_energy
            assert lower - 1e-12 <= en <= upper + 1e-12
        assert avg_energy(p, 1, e) == e.sense_energy + e.tx_energy


def test_limits_for_large_max_tx():
    p = 0.5
    e = EnergyParams(1.3, 0.7)
    assert abs(avg_aoi(p, 200) - (3.0 + p) / (2.0 * (1.0 - p))) <= 1e-10
    assert abs(avg_energy(p, 200, e) - ((1.0 - p) * e.sense_energy + e.tx_energy)) <= 1e-10


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

probabilities = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
limits = st.integers(min_value=1, max_value=60)


@given(probabilities, limits)
def test_delivered_pmf_sums_to_one(p, max_tx):
    total = sum(delivered_tx_count_pmf(m, p, max_tx) for m in range(1, max_tx + 1))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


@given(probabilities, limits)
def test_decomposition_identity_property(p, max_tx):
    assert math.isclose(avg_aoi(p, max_tx), decomposed_aoi(p, max_tx), rel_tol=1e-12)


@given(st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))
def test_dbm_conversion_round_trip(dbm):
    watts = dbm_to_watts(dbm)
    assert math.isclose(10.0 * math.log10(watts) + 30.0, dbm, rel_tol=0, abs_tol=1e-9)
