import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import cycles_from_rows, reference_trace
from hypothesis import given
from hypothesis import strategies as st
from slot_replay import Replay, replay

from aoilink.analytic import EnergyParams, FixedFailureLink, Policy, avg_aoi, avg_energy
from aoilink.analytic import delivered_tx_count_pmf, sense_count_pmf
from aoilink import simulator
from aoilink.output import emit_result_csv, emit_result_json, parse_csv
from aoilink.simulator import (
    SimConfig,
    age_trace,
    run_cycle_sim,
    run_slot_sim,
    sample_cycles,
    write_age_trace,
)


def make_config(p=0.4, max_tx=3, es=1.0, et=1.0, seed=7, horizon=50_000, warmup=1000, batches=100):
    return SimConfig(
        link=FixedFailureLink(p),
        policy=Policy(max_tx),
        energy=EnergyParams(es, et),
        seed=seed,
        horizon_slots=horizon,
        warmup_slots=warmup,
        batches=batches,
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        make_config(seed=-1)
    with pytest.raises(ValueError):
        make_config(seed=2**64)
    with pytest.raises(ValueError):
        make_config(horizon=0)
    with pytest.raises(ValueError):
        make_config(warmup=50_000)  # warmup == horizon
    with pytest.raises(ValueError):
        make_config(batches=1)
    with pytest.raises(ValueError):
        make_config(horizon=150, warmup=100, batches=100)  # kept < batches


WRONG_PARTS = [
    ("link", 0.4, "link must be FixedFailureLink or RayleighLink, got float"),
    ("policy", 3, "policy must be Policy, got int"),
    ("energy", (1, 1), "energy must be EnergyParams, got tuple"),
]


@pytest.mark.parametrize("field, value, match", WRONG_PARTS, ids=[field for field, *_ in WRONG_PARTS])
def test_config_rejects_a_part_of_the_wrong_type(field, value, match):
    # Each used to build, and the run raised AttributeError.
    parts = {"link": FixedFailureLink(0.4), "policy": Policy(3), "energy": EnergyParams(1.0, 1.0)}
    with pytest.raises(ValueError, match=match):
        SimConfig(**{**parts, field: value}, seed=1, horizon_slots=1000)


def test_config_rejects_more_batches_than_the_grid_limit():
    # The estimate allocates four rows of batches + 2 ints before it draws, so
    # 10**8 batches would take gigabytes. Neither config is run.
    assert make_config(horizon=10**12, batches=10**6).batches == 10**6
    with pytest.raises(ValueError, match="batches must be >= 2 and <= 1000000, got 1000001"):
        make_config(horizon=10**12, batches=10**6 + 1)


def test_config_stores_plain_ints():
    cfg = make_config(seed=True, horizon=np.int64(5000), warmup=np.uint16(100), batches=np.int32(10))
    assert cfg[3:] == (1, 5000, 100, 10)
    assert [type(value) for value in cfg[3:]] == [int] * 4


@pytest.mark.parametrize("field, value", [("horizon", 1e4), ("batches", 10.5), ("seed", 7.0), ("warmup", 100.0)])
def test_config_rejects_counts_that_are_not_integers(field, value):
    # 1e4 and 10.5 used to pass the constructor and raise TypeError inside the run.
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        make_config(**{field: value})


def test_bool_seed_is_emitted_as_an_int():
    # A seed of True used to be emitted as True, which parse_csv rejects.
    result = run_slot_sim(make_config(seed=True, horizon=5000))
    assert parse_csv(emit_result_csv(result, "slot", 0.4, 3))[0]["seed"] == 1


def test_numpy_seed_is_emitted_as_its_value():
    # An np.uint64 seed used to make emit_result_json raise TypeError.
    emitted = [emit_result_json(run_slot_sim(make_config(seed=seed, horizon=5000)), "slot", 0.4, 3)
               for seed in (np.uint64(7), 7)]
    assert emitted[0] == emitted[1]


def test_config_default_warmup():
    cfg = SimConfig(
        FixedFailureLink(0.1), Policy(2), EnergyParams(1, 1), seed=0, horizon_slots=500_000
    )
    assert cfg.warmup_slots == 5000
    small = SimConfig(
        FixedFailureLink(0.1), Policy(2), EnergyParams(1, 1), seed=0, horizon_slots=800,
        batches=2,
    )
    assert small.warmup_slots == 80


# ---------------------------------------------------------------------------
# Determinism and exact cases
# ---------------------------------------------------------------------------


def test_slot_sim_deterministic():
    cfg = make_config()
    assert run_slot_sim(cfg) == run_slot_sim(cfg)


def test_cycle_sim_deterministic():
    cfg = make_config()
    assert run_cycle_sim(cfg) == run_cycle_sim(cfg)


def test_different_seeds_differ():
    a = run_slot_sim(make_config(seed=1))
    b = run_slot_sim(make_config(seed=2))
    assert a.avg_aoi_est != b.avg_aoi_est


def test_perfect_channel_slot_sim_is_exact():
    cfg = make_config(p=0.0, max_tx=3, es=1.0, et=1.0, horizon=100_000, warmup=1000)
    res = run_slot_sim(cfg)
    assert res.avg_aoi_est == 1.5
    assert res.avg_energy_est == 2.0
    assert res.stderr_aoi == 0.0
    assert res.stderr_energy == 0.0
    assert res.successes == res.slots == 100_000
    assert res.packets_generated == 100_000


def test_perfect_channel_cycle_sim_is_exact():
    cfg = make_config(p=0.0, max_tx=4, es=1.0, et=1.0, horizon=20_000, warmup=100)
    res = run_cycle_sim(cfg)
    assert res.avg_aoi_est == 1.5
    assert res.avg_energy_est == 2.0
    assert res.slots == 20_000


def test_single_tx_energy_is_deterministic():
    # With max_tx = 1 every slot senses a fresh packet, so the energy
    # estimate equals Es + Et with no Monte Carlo noise.
    es = et = 4.02308
    cfg = make_config(p=0.4, max_tx=1, es=es, et=et, horizon=200_000, warmup=2000)
    res = run_slot_sim(cfg)
    assert res.avg_energy_est == es + et
    assert res.stderr_energy == 0.0
    assert res.packets_generated == 200_000


# ---------------------------------------------------------------------------
# State machine vs the naive reference interpreter
# ---------------------------------------------------------------------------


@given(
    st.lists(st.booleans(), min_size=0, max_size=200),
    st.integers(min_value=1, max_value=5),
)
def test_machine_matches_reference(fails, max_tx):
    events = replay(fails, max_tx)
    rows, sensing_instants = reference_trace(fails, max_tx)
    assert [e.slot for e in events] == [r["slot"] for r in rows]
    assert [e.sensed for e in events] == [r["sensed"] for r in rows]
    assert [e.tx_count for e in events] == [r["tx_count"] for r in rows]
    assert [e.success for e in events] == [r["success"] for r in rows]
    assert [e.age_start for e in events] == [r["age_start"] for r in rows]
    assert [e.age_end for e in events] == [r["age_end"] for r in rows]
    assert [e.slot for e in events if e.sensed] == sensing_instants


@given(
    st.lists(st.booleans(), min_size=0, max_size=200),
    st.sampled_from([1, 2, 3, 5, 10**20]),
    st.lists(st.integers(min_value=0, max_value=200), max_size=4),
)
def test_chunked_replay_matches_reference(fails, max_tx, cuts):
    # One replay fed in chunks carries its state across every cut.
    machine = Replay(max_tx)
    bounds = [0, *sorted(min(c, len(fails)) for c in cuts), len(fails)]
    events = [e for a, b in zip(bounds, bounds[1:]) for e in machine(fails[a:b])]
    rows, _ = reference_trace(fails, max_tx)
    assert [
        (e.slot, e.sensed, e.tx_count, e.success, e.age_start, e.age_end) for e in events
    ] == [
        (r["slot"], r["sensed"], r["tx_count"], r["success"], r["age_start"], r["age_end"])
        for r in rows
    ]


@given(
    st.lists(st.booleans(), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=5),
)
def test_cycle_maps_hold_on_every_cycle(fails, max_tx):
    rows, _ = reference_trace(fails, max_tx)
    for length, delivered, senses in cycles_from_rows(rows):
        assert delivered == (length - 1) % max_tx + 1
        assert senses == math.ceil(length / max_tx)


def test_known_cycle_shapes():
    # Six failures then a success with max_tx=6: the first packet is
    # abandoned, the second is delivered on its first transmission.
    rows, _ = reference_trace([True] * 6 + [False], 6)
    assert cycles_from_rows(rows) == [(7, 1, 2)]
    # Five failures then a success: one packet, delivered on transmission 6.
    rows, _ = reference_trace([True] * 5 + [False], 6)
    assert cycles_from_rows(rows) == [(6, 6, 1)]


@pytest.mark.parametrize("p, max_tx", [(0.3, 2), (0.7, 4), (0.05, 1)])
def test_slot_sim_matches_machine_replay(p, max_tx):
    """The estimator's chunked sums and counts must agree with per-event sums."""
    cfg = make_config(p=p, max_tx=max_tx, es=1.25, et=0.5, horizon=20_000, warmup=500)
    res = run_slot_sim(cfg)

    rng = np.random.default_rng(cfg.seed)
    fails = (rng.random(cfg.horizon_slots) < p).tolist()
    events = replay(fails, max_tx)
    kept = [e for e in events if e.slot >= cfg.warmup_slots]
    n = len(kept)
    age_integral = sum(e.age_start for e in kept) + 0.5 * n
    senses = sum(e.sensed for e in kept)

    assert res.avg_aoi_est == age_integral / n
    assert res.avg_energy_est == cfg.energy.tx_energy + cfg.energy.sense_energy * (senses / n)
    assert res.packets_generated == sum(e.sensed for e in events)
    assert res.successes == sum(e.success for e in events)
    assert res.slots == cfg.horizon_slots


# ---------------------------------------------------------------------------
# Statistical agreement with the closed forms (smoke level; the full-size
# grid lives in the acceptance suite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("runner", [run_slot_sim, run_cycle_sim])
def test_estimators_near_closed_forms(runner):
    cfg = make_config(p=0.4, max_tx=3, es=2.0, et=1.0, horizon=200_000, warmup=2000)
    res = runner(cfg)
    exact_aoi = avg_aoi(0.4, 3)
    exact_energy = avg_energy(0.4, 3, cfg.energy)
    assert abs(res.avg_aoi_est - exact_aoi) <= max(4 * res.stderr_aoi, 0.01 * exact_aoi)
    assert abs(res.avg_energy_est - exact_energy) <= max(
        4 * res.stderr_energy, 0.01 * exact_energy
    )
    assert res.stderr_aoi >= 0.0 and res.stderr_energy >= 0.0
    assert res.packets_generated >= res.successes


def test_cycle_sim_counters():
    cfg = make_config(p=0.6, max_tx=2, horizon=10_000, warmup=10)
    res = run_cycle_sim(cfg)
    lengths, _, sensed = sample_cycles(cfg.link, cfg.policy, cfg.seed, cfg.horizon_slots)
    assert res.slots == int(lengths.sum())
    assert res.packets_generated == int(sensed.sum())
    assert res.successes == 10_000


@pytest.mark.parametrize("max_tx", [1, 3])
def test_cycle_sim_counts_exact_past_int64(max_tx):
    # Mean cycle 1e14 slots, so 2e5 cycles cover ~2e19 > 2**63 slots.
    cfg = make_config(p=1 - 1e-14, max_tx=max_tx, horizon=200_000, warmup=1)
    res = run_cycle_sim(cfg)
    lengths, _, sensed = sample_cycles(cfg.link, cfg.policy, cfg.seed, cfg.horizon_slots)
    assert res.slots == sum(lengths.tolist()) > 2**63
    assert res.packets_generated == sum(sensed.tolist())


def test_cycle_sim_counts_exact_past_int64_within_one_chunk():
    # Mean cycle 1e15 slots, so the 20,000 cycles of one draw chunk already
    # cover ~2e19 > 2**63 slots.
    cfg = make_config(p=1 - 1e-15, max_tx=3, horizon=20_000, warmup=1)
    res = run_cycle_sim(cfg)
    lengths, _, sensed = sample_cycles(cfg.link, cfg.policy, cfg.seed, cfg.horizon_slots)
    assert res.slots == sum(lengths.tolist()) > 2**63
    assert res.packets_generated == sum(sensed.tolist())


def test_cycle_sim_single_tx_energy_near_largest_p():
    # With max_tx = 1 every cycle slot senses, so the energy is Es + Et. At
    # the largest p below 1 (mean cycle ~9e15 slots) the sensing counts of one
    # 2,000-cycle batch pass 2**63, so they must not be summed in int64.
    cfg = make_config(p=0.9999999999999999, max_tx=1, es=1.25, et=0.5, horizon=200_000, warmup=1)
    assert run_cycle_sim(cfg).avg_energy_est == pytest.approx(1.75, rel=1e-12, abs=0)


def exact_batch_means(cfg, runner):
    """Each full batch's mean age and sensing events per slot, exact ratios of
    its sums, from counts derived here: the naive per-slot oracle's start ages
    and sensing flags for slots, ``sample_cycles``' counts for cycles."""
    if runner is run_slot_sim:
        fails = (np.random.default_rng(cfg.seed).random(cfg.horizon_slots) < cfg.link.p).tolist()
        rows, _ = reference_trace(fails, cfg.policy.max_tx)
        # A slot's age rises by 1 from its start age: twice its area is 2 * start + 1.
        areas2 = [2 * row["age_start"] + 1 for row in rows]
        senses, slots = [int(row["sensed"]) for row in rows], [1] * len(rows)
    else:
        lengths, delivered, sensed = sample_cycles(cfg.link, cfg.policy, cfg.seed, cfg.horizon_slots)
        # A cycle of y slots after a delivery of d transmissions: twice its area is y (2 d + y).
        slots, prev = lengths.tolist(), [0, *delivered.tolist()]
        areas2, senses = [y * (2 * d + y) for d, y in zip(prev, slots)], sensed.tolist()
    width = (cfg.horizon_slots - cfg.warmup_slots) // cfg.batches
    starts = range(cfg.warmup_slots, cfg.warmup_slots + cfg.batches * width, width)
    ages = [Fraction(sum(areas2[i : i + width]), 2 * sum(slots[i : i + width])) for i in starts]
    return ages, [Fraction(sum(senses[i : i + width]), sum(slots[i : i + width])) for i in starts]


def exact_stderr(means):
    """The batch-means standard error of ``means``, in exact arithmetic to within 2**-200."""
    b = len(means)
    mean = sum(means) / b
    var = sum((x - mean) ** 2 for x in means) / (b * (b - 1))
    return Fraction(math.isqrt((var.numerator << 400) // var.denominator), 1 << 200)


# Es far below Et, where the spread of the batch energies Et + Es x lost Es x's digits
# to Et, and the Es and Et of the pinned runs in test_slot_kernel.py; each at the default
# p 0.4, and at p 0.1, 0.5 and 1 - 1e-9, where the cycle batch rates spread by far less
# than their size and rounding each one before taking their spread lost billions of ulps.
STDERR_CASES = [
    pytest.param(p, es, et, id=f"{es}-{et}" if p == 0.4 else f"{es}-{et}-p{p}")
    for p in (0.4, 0.1, 0.5, 1 - 1e-9)
    for es, et in [(1e-12, 4.0), (1e-9, 1.0), (1.25, 0.5)]
]


@pytest.mark.parametrize("p, es, et", STDERR_CASES)
@pytest.mark.parametrize("runner", [run_slot_sim, run_cycle_sim], ids=["slot", "cycle"])
def test_energy_stderr_is_es_times_the_sensing_rate_stderr(runner, p, es, et):
    # The age's standard error is that of the exact batch mean ages, too.
    cfg = make_config(p=p, es=es, et=et, horizon=20_000, warmup=500, batches=10)
    ages, rates = exact_batch_means(cfg, runner)
    res = runner(cfg)
    for got, want in [(res.stderr_aoi, float(exact_stderr(ages))),
                      (res.stderr_energy, float(Fraction(es) * exact_stderr(rates)))]:
        assert abs(got - want) <= 2 * math.ulp(want)


def test_sample_cycles_rejects_a_seed_past_64_bits():
    # No SimConfig can name this stream, so run_cycle_sim never draws it.
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer, got 18446744073709551616"):
        sample_cycles(FixedFailureLink(0.4), Policy(3), 2**64, 10)


def test_sample_cycles_rejects_a_str_seed():
    # numpy's SeedSequence used to raise TypeError on it.
    with pytest.raises(ValueError, match="seed must be an integer, got '7'"):
        sample_cycles(FixedFailureLink(0.4), Policy(3), "7", 10)


@pytest.mark.parametrize("cycles", [2.5, "3"])
def test_sample_cycles_rejects_a_count_that_is_not_an_integer(cycles):
    with pytest.raises(ValueError, match=f"cycles must be an integer, got {cycles!r}"):
        sample_cycles(FixedFailureLink(0.4), Policy(3), 7, cycles)


@pytest.mark.parametrize("cycles", [0, -1])
def test_sample_cycles_rejects_a_count_below_one(cycles):
    with pytest.raises(ValueError, match=f"cycle count must be >= 1, got {cycles}"):
        sample_cycles(FixedFailureLink(0.4), Policy(3), 7, cycles)


@pytest.mark.parametrize("link, policy, match", [(0.4, Policy(3), WRONG_PARTS[0][2]),
                                                 (FixedFailureLink(0.4), 3, WRONG_PARTS[1][2])],
                         ids=["link", "policy"])
def test_sample_cycles_rejects_a_part_of_the_wrong_type(link, policy, match):
    # Each used to raise AttributeError from inside the draws.
    with pytest.raises(ValueError, match=match):
        sample_cycles(link, policy, 1, 5)


def test_empirical_pmfs_match_analytic():
    p, max_tx, cycles = 0.4, 3, 200_000
    lengths, delivered, sensed = sample_cycles(
        FixedFailureLink(p), Policy(max_tx), seed=123, cycles=cycles
    )
    assert np.all(delivered == (lengths - 1) % max_tx + 1)
    assert np.all(sensed == -(-lengths // max_tx))

    tv = 0.0
    for m in range(1, max_tx + 1):
        emp = float(np.mean(delivered == m))
        tv += abs(emp - delivered_tx_count_pmf(m, p, max_tx))
    assert 0.5 * tv <= 0.01

    top = int(sensed.max())
    tv = sum(
        abs(float(np.mean(sensed == l)) - sense_count_pmf(l, p, max_tx))
        for l in range(1, top + 1)
    )
    tv += sum(sense_count_pmf(l, p, max_tx) for l in range(top + 1, top + 200))
    assert 0.5 * tv <= 0.01


# ---------------------------------------------------------------------------
# Age trace
# ---------------------------------------------------------------------------


def test_age_trace_invariants():
    cfg = make_config(p=0.5, max_tx=3, horizon=5000, warmup=100)
    slot, age_end, success = (np.concatenate(col) for col in zip(*age_trace(cfg)))
    assert len(slot) == 5000
    assert slot.tolist() == list(range(5000))
    for prev, cur, ok in zip(age_end.tolist(), age_end[1:].tolist(), success[1:].tolist()):
        if ok:
            assert 1 <= cur <= cfg.policy.max_tx
        else:
            assert cur == prev + 1


def test_age_trace_yields_the_replay_chunk_by_chunk():
    # Three draw chunks, the last of 3 slots; the state carries across both joints.
    chunk = simulator._CHUNK
    cfg = make_config(p=0.6, max_tx=4, horizon=2 * chunk + 3)
    chunks = list(age_trace(cfg))
    assert [len(slot) for slot, _, _ in chunks] == [chunk, chunk, 3]
    fails = np.random.default_rng(cfg.seed).random(cfg.horizon_slots) < 0.6
    events = replay(fails, cfg.policy.max_tx)
    slot, age_end, success = (np.concatenate(col).tolist() for col in zip(*chunks))
    assert slot == [e.slot for e in events]
    assert age_end == [e.age_end for e in events]
    assert success == [e.success for e in events]


def test_write_age_trace_csv(tmp_path):
    cfg = make_config(p=0.5, max_tx=2, horizon=250, warmup=50, batches=2)
    path = tmp_path / "trace.csv"
    write_age_trace(cfg, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slot", "age", "reset"]
    assert len(rows) == 251
    fails = np.random.default_rng(cfg.seed).random(250) < 0.5
    events = replay(fails, cfg.policy.max_tx)
    for row, ev in zip(rows[1:], events):
        assert row == [str(ev.slot), str(ev.age_end), str(int(ev.success))]
