import math
import sys
from dataclasses import replace

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
    dbm_to_watts,
    evaluate,
    noise_from_reference_snr,
    transmit_energy,
)
from aoilink.sweep import (
    MAX_GRID_POINTS,
    EsSweep,
    MSweep,
    PowerSweep,
    TradeoffCurve,
    _grid_count,
    dbm_grid,
    es_sweep,
    m_sweep,
    normalize_curve,
    pareto_front,
    power_sweep,
)

ET_REF = 4.02308
REF_ENERGY = EnergyParams(ET_REF, ET_REF)


def ref_power_spec(max_tx_list=(6,), dbm_min=2.0, dbm_max=20.0, dbm_step=3.0):
    return PowerSweep(
        dbm_min=dbm_min,
        dbm_max=dbm_max,
        dbm_step=dbm_step,
        max_tx_list=max_tx_list,
        rate=2.0,
        snr_ref_db=20.0,
        ref_power_dbm=20.0,
        sense_energy=ET_REF,
        circuit_power=2.1,
        inv_drain_eff=19.2308,
        max_power=0.1,
    )


def point(energy, aoi):
    return MetricPoint(p=0.5, max_tx=1, avg_aoi=aoi, avg_energy=energy)


# ---------------------------------------------------------------------------
# M sweep
# ---------------------------------------------------------------------------


def test_m_sweep_endpoints():
    curves = m_sweep(MSweep((0.4,), tuple(range(1, 7)), REF_ENERGY))
    assert len(curves) == 1
    pts = curves[0].points
    assert curves[0].label == "p=0.4"
    assert len(pts) == 6
    assert [pt.max_tx for pt in pts] == [1, 2, 3, 4, 5, 6]
    assert pts[0].avg_energy == pytest.approx(8.04616, abs=1e-9)
    assert pts[0].avg_aoi == pytest.approx(2.1666666666666667, rel=1e-12)
    assert pts[-1].avg_energy == pytest.approx(6.4468557856178909, rel=1e-12)
    assert pts[-1].avg_aoi == pytest.approx(2.8086562560246771, rel=1e-12)


def test_m_sweep_small_p_curves_overlap():
    curves = m_sweep(MSweep((0.1,), (3, 4, 5, 6), REF_ENERGY))
    aois = [pt.avg_aoi for pt in curves[0].points]
    assert max(aois) - min(aois) <= 0.0035


def test_m_sweep_orders_max_tx():
    curves = m_sweep(MSweep((0.2,), (5, 1, 3), REF_ENERGY))
    assert [pt.max_tx for pt in curves[0].points] == [1, 3, 5]


def test_m_sweep_rejects_bad_specs():
    with pytest.raises(ValueError):
        MSweep((), (1, 2), REF_ENERGY)
    with pytest.raises(ValueError):
        MSweep((0.4,), (), REF_ENERGY)
    with pytest.raises(ValueError):
        MSweep((1.0,), (1,), REF_ENERGY)
    with pytest.raises(ValueError):
        MSweep((0.4,), (0,), REF_ENERGY)


# 2**1024 - 1 rounds up to 2**1024 as a float; int(float max) is the largest M accepted.
@pytest.mark.parametrize("max_tx", [2**1024, 2**1024 - 1], ids=["2**1024", "2**1024-1"])
def test_max_tx_past_the_float_range_is_rejected(max_tx):
    with pytest.raises(ValueError, match="past the float range"):
        Policy(max_tx)
    with pytest.raises(ValueError, match="past the float range"):
        MSweep((0.4,), (1, max_tx), REF_ENERGY)
    assert Policy(int(sys.float_info.max)).max_tx == int(sys.float_info.max)


@pytest.mark.parametrize("max_tx", [2.5, 3.0, "3", None], ids=["2.5", "3.0", "str", "None"])
def test_non_integral_max_tx_is_rejected(max_tx):
    # An M of 2.5 used to be evaluated, and emitted as an M cell parse_csv rejects.
    with pytest.raises(ValueError, match="must be an integer"):
        Policy(max_tx)
    with pytest.raises(ValueError, match="must be an integer"):
        avg_aoi(0.4, max_tx)
    with pytest.raises(ValueError, match="must be an integer"):
        avg_energy(0.4, max_tx, REF_ENERGY)
    with pytest.raises(ValueError, match="must be an integer"):
        m_sweep(MSweep((0.4,), (3, max_tx), REF_ENERGY))


def test_numpy_and_bool_max_tx_are_accepted():
    np = pytest.importorskip("numpy")
    for max_tx in (np.int64(3), np.uint8(3), np.int32(3)):
        assert Policy(max_tx).max_tx == 3
        assert avg_aoi(0.4, max_tx) == avg_aoi(0.4, 3)
        assert m_sweep(MSweep((0.4,), (max_tx,), REF_ENERGY)) == m_sweep(MSweep((0.4,), (3,), REF_ENERGY))
    assert avg_aoi(0.4, True) == avg_aoi(0.4, 1)  # operator.index(True) == 1


def test_m_sweep_points_reproducible_standalone():
    spec = MSweep((0.1, 0.4), (1, 3, 6), REF_ENERGY)
    for curve in m_sweep(spec):
        for pt in curve.points:
            again = evaluate(FixedFailureLink(pt.p), pt.max_tx, spec.energy)
            assert again.avg_aoi == pt.avg_aoi
            assert again.avg_energy == pt.avg_energy


# ---------------------------------------------------------------------------
# Power sweep
# ---------------------------------------------------------------------------


def test_dbm_grid_counts():
    assert dbm_grid(2.0, 20.0, 3.0) == [2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0]
    assert len(dbm_grid(0.1, 0.3, 0.1)) == 3
    assert dbm_grid(5.0, 5.0, 3.0) == [5.0]
    assert len(dbm_grid(2.0, 21.0, 3.0)) == 7  # last step does not reach 21


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((2.0, math.inf, 1.0), "finite"),
        ((-math.inf, 20.0, 1.0), "finite"),
        ((2.0, 20.0, math.nan), "finite"),
        ((2.0, 20.0, math.inf), "finite"),
        ((2.0, 20.0, 1e-12), "limit of 1000000"),
        ((-1e308, 1e308, 1.0), "limit of 1000000"),  # the span overflows to inf
    ],
)
def test_dbm_grid_rejects_non_finite_and_oversize(bounds, message):
    with pytest.raises(ValueError, match=message):
        dbm_grid(*bounds)
    with pytest.raises(ValueError, match=message):
        ref_power_spec(dbm_min=bounds[0], dbm_max=bounds[1], dbm_step=bounds[2])


def test_dbm_grid_limit_is_inclusive():
    assert len(dbm_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
    with pytest.raises(ValueError):
        dbm_grid(0.0, float(MAX_GRID_POINTS), 1.0)


def test_dbm_grid_limit_at_a_ratio_of_exactly_the_limit():
    # The nudged ratio lands on MAX_GRID_POINTS itself, which would floor to
    # one point past the limit. Only counted, so no grid is built; the
    # grid's own count is checked here, not the sweep's size limit.
    dbm_max = 999999.999999999
    assert (dbm_max - 0.0) / 1.0 + 1e-9 == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="dBm grid exceeds the limit of 1000000"):
        _grid_count(0.0, dbm_max, 1.0)
    assert _grid_count(0.0, MAX_GRID_POINTS - 1.0, 1.0) == MAX_GRID_POINTS


def test_power_sweep_reference_points():
    curves = power_sweep(ref_power_spec())
    assert len(curves) == 1
    pts = curves[0].points
    assert len(pts) == 7
    assert [pt.tx_power_dbm for pt in pts] == [2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0]
    last = pts[-1]
    assert last.p == pytest.approx(0.029554466451491823, abs=1e-12)
    assert last.avg_aoi == pytest.approx(1.5609090639085992, rel=1e-9)
    assert last.avg_energy == pytest.approx(7.9272600197101003, rel=1e-9)
    first = pts[0]
    assert first.p == pytest.approx(0.84936145198293994, rel=1e-12)
    assert first.avg_aoi == pytest.approx(9.1698549496311578, rel=1e-9)
    assert first.avg_energy == pytest.approx(3.1008311628061864, rel=1e-9)


@pytest.mark.parametrize("max_tx", [1, 3, 6])
def test_power_sweep_monotone_along_grid(max_tx):
    curves = power_sweep(ref_power_spec(max_tx_list=(max_tx,)))
    pts = curves[0].points
    for a, b in zip(pts, pts[1:]):
        assert b.avg_aoi < a.avg_aoi
        assert b.avg_energy > a.avg_energy


def test_power_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        ref_power_spec(dbm_min=21.0, dbm_max=20.0)
    with pytest.raises(ValueError):
        ref_power_spec(dbm_step=0.0)
    with pytest.raises(ValueError):
        ref_power_spec(max_tx_list=())


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_unit_cases():
    curves = m_sweep(MSweep((0.4,), (1,), REF_ENERGY))
    normalized = normalize_curve(curves[0], ET_REF + ET_REF)
    assert normalized.points[0].avg_energy == 1.0
    assert normalized.normalizer == ET_REF + ET_REF
    assert normalized.label.startswith("p=0.4")
    assert normalized.label != curves[0].label

    no_sense = m_sweep(MSweep((0.4,), (1, 2, 3), EnergyParams(0.0, 2.5)))[0]
    normalized = normalize_curve(no_sense, 2.5)
    assert all(pt.avg_energy == 1.0 for pt in normalized.points)


def test_normalize_reference_ratio():
    curve = m_sweep(MSweep((0.4,), (6,), REF_ENERGY))[0]
    normalized = normalize_curve(curve, 8.04616)
    assert normalized.points[0].avg_energy == pytest.approx(0.80123385386543281, rel=1e-12)
    assert normalized.points[0].avg_aoi == curve.points[0].avg_aoi


def test_normalize_rejects_bad_factor():
    curve = m_sweep(MSweep((0.4,), (1,), REF_ENERGY))[0]
    with pytest.raises(ValueError):
        normalize_curve(curve, 0.0)
    with pytest.raises(ValueError):
        normalize_curve(curve, -2.0)


@given(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_normalize_composes(a, b):
    curve = m_sweep(MSweep((0.3,), (1, 2, 4), REF_ENERGY))[0]
    twice = normalize_curve(normalize_curve(curve, a), b)
    once = normalize_curve(curve, a * b)
    assert math.isclose(twice.normalizer, once.normalizer, rel_tol=1e-12)
    for pt_twice, pt_once in zip(twice.points, once.points):
        assert math.isclose(pt_twice.avg_energy, pt_once.avg_energy, rel_tol=1e-12)
        assert pt_twice.avg_aoi == pt_once.avg_aoi


# ---------------------------------------------------------------------------
# Es sweep
# ---------------------------------------------------------------------------


def test_es_sweep_m_base():
    base = MSweep((0.4,), tuple(range(1, 7)), EnergyParams(0.0, ET_REF))
    curves = es_sweep(EsSweep((0.0, ET_REF, 2 * ET_REF), base))
    assert len(curves) == 3
    for curve, es in zip(curves, (0.0, ET_REF, 2 * ET_REF)):
        assert curve.normalizer == es + ET_REF
        assert curve.label.startswith(f"Es={es:g}")
        for pt in curve.points:
            assert 0.0 < pt.avg_energy <= 1.0 + 1e-12
    # Zero sensing energy: constant transmit energy means every point is 1.
    assert all(pt.avg_energy == 1.0 for pt in curves[0].points)


def test_es_sweep_power_base_normalizer():
    spec = EsSweep((2.0,), ref_power_spec())
    curves = es_sweep(spec)
    assert len(curves) == 1
    # tx reference defaults to circuit + amplifier drain at max power
    assert curves[0].normalizer == pytest.approx(2.0 + 2.1 + 19.2308 * 0.1, rel=1e-12)


def test_es_sweep_explicit_tx_ref():
    base = MSweep((0.4,), (1, 2), EnergyParams(0.0, 1.0))
    curves = es_sweep(EsSweep((3.0,), base, normalizer=2.0))
    assert curves[0].normalizer == 5.0


def test_es_sweep_rejects_bad_specs():
    base = MSweep((0.4,), (1,), REF_ENERGY)
    with pytest.raises(ValueError):
        EsSweep((), base)
    with pytest.raises(ValueError):
        EsSweep((-1.0,), base)
    with pytest.raises(ValueError):
        EsSweep((1.0,), base, normalizer=0.0)


def rerun_es_sweep(spec):
    """The Es sweep as first defined: the base sweep rerun per sensing energy,
    each curve relabelled and normalized by Es + tx_ref."""
    base = spec.base
    if spec.normalizer is not None:
        tx_ref = spec.normalizer
    elif isinstance(base, MSweep):
        tx_ref = base.energy.tx_energy
    else:
        tx_ref = base.circuit_power + base.inv_drain_eff * base.max_power
    out = []
    for es in spec.es_list:
        if isinstance(base, MSweep):
            curves = m_sweep(replace(base, energy=EnergyParams(es, base.energy.tx_energy)))
        else:
            curves = power_sweep(replace(base, sense_energy=es))
        for curve in curves:
            out.append(normalize_curve(replace(curve, label=f"Es={es:.9g} {curve.label}"), es + tx_ref))
    return out


def hexed(pt):
    return (pt.p.hex(), pt.max_tx, pt.avg_aoi.hex(), pt.avg_energy.hex(), pt.tx_power_dbm)


def curve_key(c):
    return c.label, None if c.normalizer is None else c.normalizer.hex(), len(c.points)


def assert_same_curves(got, want):
    assert list(map(curve_key, got)) == list(map(curve_key, want))
    for curve, expected in zip(got, want):
        assert curve.points == expected.points
        assert list(map(hexed, curve.points)) == list(map(hexed, expected.points))


def assert_same_outcome(sweep, oracle, spec):
    """Both give the same curves, or raise ValueError with the same message."""
    try:
        want = oracle(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            sweep(spec)
        assert str(raised.value) == str(exc)
        return
    assert_same_curves(sweep(spec), want)


unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
energy_value = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3), st.just(1e308))
max_tx_lists = st.lists(st.integers(min_value=1, max_value=10**9) | st.integers(1, 12), min_size=1, max_size=5)


@st.composite
def power_specs(draw, max_size=40):
    dbm_min = draw(st.floats(min_value=-40.0, max_value=30.0))
    step = draw(st.floats(min_value=0.05, max_value=10.0))
    count = draw(st.integers(min_value=1, max_value=max_size))
    return PowerSweep(
        dbm_min=dbm_min,
        dbm_max=dbm_min + (count - 1) * step,
        dbm_step=step,
        max_tx_list=tuple(draw(max_tx_lists)),
        rate=draw(st.floats(min_value=0.0, max_value=12.0)),
        snr_ref_db=draw(st.floats(min_value=-20.0, max_value=40.0)),
        ref_power_dbm=draw(st.floats(min_value=-10.0, max_value=40.0)),
        sense_energy=draw(energy_value),
        circuit_power=draw(st.floats(min_value=0.0, max_value=10.0)),
        inv_drain_eff=draw(st.floats(min_value=0.5, max_value=40.0)),
        # Sometimes below the top of the grid, where PowerModel rejects the point.
        max_power=dbm_to_watts(dbm_min + draw(st.floats(min_value=-5.0, max_value=400.0))),
    )


m_specs = st.builds(
    MSweep,
    st.lists(unit, min_size=1, max_size=6).map(tuple),
    max_tx_lists.map(tuple),
    st.builds(EnergyParams, energy_value, energy_value),
)


@given(
    st.one_of(m_specs, power_specs()),
    st.lists(energy_value, min_size=1, max_size=4),
    st.one_of(st.none(), st.floats(min_value=1e-300, max_value=1e3), st.just(1e308)),
)
def test_es_sweep_matches_rerun_base_sweeps(base, es_list, normalizer):
    assert_same_outcome(es_sweep, rerun_es_sweep, EsSweep(tuple(es_list), base, normalizer=normalizer))


def per_point_power_sweep(spec):
    """The power sweep as first defined: link, power model and energies built
    and evaluated at every (M, dBm) point."""
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


@given(power_specs())
def test_power_sweep_matches_evaluate_per_point(spec):
    assert_same_outcome(power_sweep, per_point_power_sweep, spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_specs_reject_non_finite_energies(bad):
    base = MSweep((0.4,), (1,), REF_ENERGY)
    with pytest.raises(ValueError, match="finite"):
        replace(ref_power_spec(), sense_energy=bad)
    with pytest.raises(ValueError, match="finite"):
        EsSweep((bad,), base)
    with pytest.raises(ValueError, match="finite"):
        EsSweep((1.0,), base, normalizer=bad)


def test_sweep_size_limit_is_inclusive():
    # Specs are only constructed: the limit is checked before any evaluation.
    p_list = tuple(i / 1000 for i in range(1000))
    m_list = tuple(range(1, 1001))
    grid = {"dbm_min": 0.0, "dbm_max": 999.0, "dbm_step": 1.0}  # 1000 powers
    assert MSweep(p_list, m_list, REF_ENERGY).size == MAX_GRID_POINTS
    assert ref_power_spec(m_list, **grid).size == MAX_GRID_POINTS
    m_base = MSweep(p_list[:10], m_list[:100], REF_ENERGY)
    power_base = ref_power_spec(m_list[:1], **grid)
    for base in (m_base, power_base):
        EsSweep((1.0,) * 1000, base)
        with pytest.raises(ValueError, match="limit of 1000000"):
            EsSweep((1.0,) * 1001, base)
    with pytest.raises(ValueError, match="limit of 1000000"):
        MSweep(p_list, m_list + (1001,), REF_ENERGY)
    with pytest.raises(ValueError, match="limit of 1000000"):
        ref_power_spec(m_list + (1001,), **grid)
    with pytest.raises(ValueError, match="limit of 1000000"):
        MSweep(p_list * 2, range(1, 10**6 + 1), REF_ENERGY)  # 2e9 points


# ---------------------------------------------------------------------------
# Pareto filter
# ---------------------------------------------------------------------------


def test_pareto_keeps_mutually_nondominated():
    pts = [point(2, 5), point(3, 4), point(4, 3)]
    assert pareto_front(pts) == pts


def test_pareto_drops_dominated_on_tie():
    a, b = point(2, 5), point(2, 4)
    assert pareto_front([a, b]) == [b]


def test_pareto_exact_duplicates_keep_first():
    a, b = point(2, 5), point(2, 5)
    result = pareto_front([a, b])
    assert len(result) == 1
    assert result[0] is a


def test_pareto_whole_m_sweep_curve_survives():
    curve = m_sweep(MSweep((0.4,), tuple(range(1, 7)), REF_ENERGY))[0]
    front = pareto_front(curve.points)
    assert front == sorted(curve.points, key=lambda pt: pt.avg_energy)
    assert len(front) == len(curve.points)


def test_pareto_rejects_empty():
    with pytest.raises(ValueError):
        pareto_front([])


coords = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)


@given(st.lists(coords, min_size=1, max_size=24))
def test_pareto_properties(raw):
    pts = [point(float(e), float(a)) for e, a in raw]
    front = pareto_front(pts)
    ids = {id(pt) for pt in pts}
    assert front and all(id(pt) in ids for pt in front)
    energies = [pt.avg_energy for pt in front]
    assert energies == sorted(energies)
    for a in front:
        for b in front:
            if a is not b:
                dominates = (
                    a.avg_energy <= b.avg_energy
                    and a.avg_aoi <= b.avg_aoi
                    and (a.avg_energy < b.avg_energy or a.avg_aoi < b.avg_aoi)
                )
                assert not dominates


@given(st.lists(coords, min_size=1, max_size=16))
def test_pareto_ignores_appended_dominated_point(raw):
    pts = [point(float(e), float(a)) for e, a in raw]
    front = pareto_front(pts)
    worst = point(
        max(pt.avg_energy for pt in pts) + 1.0, max(pt.avg_aoi for pt in pts) + 1.0
    )
    assert pareto_front(pts + [worst]) == front


def quadratic_pareto(pts):
    """The all-pairs filter pareto_front replaced, kept as its reference."""

    def dominates(a, b):
        return (
            a.avg_energy <= b.avg_energy
            and a.avg_aoi <= b.avg_aoi
            and (a.avg_energy < b.avg_energy or a.avg_aoi < b.avg_aoi)
        )

    survivors = []
    seen = set()
    for i, pt in enumerate(pts):
        if any(j != i and dominates(other, pt) for j, other in enumerate(pts)):
            continue
        key = (pt.avg_energy, pt.avg_aoi)
        if key in seen:
            continue
        seen.add(key)
        survivors.append((i, pt))
    survivors.sort(key=lambda item: (item[1].avg_energy, item[0]))
    return [pt for _, pt in survivors]


# Few distinct values, so equal energies, equal ages and exact duplicates are
# common; both signed zeros and both infinities are among them.
tie_values = st.sampled_from([0.0, -0.0, 1.0, 2.5, 3.0, 1e300, math.inf, -math.inf])


@given(
    st.lists(st.tuples(tie_values, tie_values), min_size=1, max_size=30),
    st.lists(st.integers(min_value=0), max_size=10),
)
def test_pareto_matches_quadratic_reference(raw, repeats):
    pts = [point(e, a) for e, a in raw]
    # Re-append exact copies (new objects) of earlier points.
    pts += [point(pts[k % len(pts)].avg_energy, pts[k % len(pts)].avg_aoi) for k in repeats]
    front = pareto_front(pts)
    expected = quadratic_pareto(pts)
    assert len(front) == len(expected)
    assert all(got is want for got, want in zip(front, expected))


@pytest.mark.parametrize("energy, aoi", [(math.nan, 1.0), (1.0, math.nan)])
def test_pareto_rejects_nan(energy, aoi):
    with pytest.raises(ValueError, match="NaN"):
        pareto_front([point(1.0, 2.0), point(energy, aoi)])


# ---------------------------------------------------------------------------
# Curve container
# ---------------------------------------------------------------------------


def test_curve_defaults():
    curve = TradeoffCurve("x", (point(1, 2),))
    assert curve.normalizer is None
    assert isinstance(curve.points, tuple)
