"""Bit identity and flat memory of the chunked estimators.

The ``PINNED`` literals were recorded from the per-slot Python loop that the
chunked numpy slot kernel replaced. They pin every estimate (as
``float.hex``) and counter of :func:`run_slot_sim`, and the bytes of
:func:`write_age_trace`, at horizons on both sides of the chunk boundaries.
The ``CYCLE_PINNED`` literals were recorded from the cycle estimator that
drew and reduced all cycles at once, before it streamed by chunk. The slot
estimator's per-run reducer and the trace's byte renderer are checked here
against the per-slot kernel and against ``%d`` formatting.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aoilink import simulator
from aoilink.analytic import EnergyParams, FixedFailureLink, Policy
from aoilink.simulator import (
    SimConfig,
    _batch_cuts,
    _csv_rows,
    _run_sums,
    _slot_chunk,
    run_cycle_sim,
    run_slot_sim,
    sample_cycles,
    write_age_trace,
)

CHUNK = 1 << 16
HUGE_M = 10**20

# p, max_tx, seed, horizon, warmup, batches,
# (avg_aoi, avg_energy, stderr_aoi, stderr_energy), (slots, packets, successes)
PINNED = [
    (0.0, 1, 1, CHUNK - 1, None, 100,
     ("0x1.8000000000000p+0", "0x1.c000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
     (65535, 65535, 65535)),
    (0.95, HUGE_M, 2, CHUNK, None, 100,
     ("0x1.391783db0fb56p+5", "0x1.204f3568a0b3cp-1", "0x1.73b7019cfb171p-1", "0x1.f9b3bacd7a02ep-11"),
     (65536, 3308, 3307)),
    (0.4, 3, 3, CHUNK + 1, None, 100,
     ("0x1.50aa897e8cd7ap+1", "0x1.4d564bc1a099cp+0", "0x1.2f51e0e35255cp-7", "0x1.0076d5045a7afp-9"),
     (65537, 42045, 39309)),
    (0.95, 1, 4, 2 * CHUNK + 3, None, 100,
     ("0x1.4f9376f01df47p+4", "0x1.c000000000000p+0", "0x1.648edef9d3ee2p-2", "0x0.0p+0"),
     (131075, 131075, 6434)),
    (0.7, 6, 5, 2 * CHUNK + 3, 0, 7,
     ("0x1.581f8bd0ae470p+2", "0x1.d95e39f2a9140p-1", "0x1.2cd5677b48aa4p-5", "0x1.c74a15641e94ep-10"),
     (131075, 44518, 39274)),
    (0.9999, HUGE_M, 6, 2 * CHUNK + 3, None, 100,
     ("0x1.db660ed9e9450p+14", "0x1.0011ad1f6fbfcp-1", "0x1.2bd865e9cccbdp+11", "0x1.19f074870bef0p-15"),
     (131075, 15, 14)),
    # Warmups ending inside the second chunk and exactly at the third.
    (0.4, 2, 9, 3 * CHUNK + 5, CHUNK + 7, 10,
     ("0x1.3a4aba4aba4acp+1", "0x1.647f447f447f4p+0", "0x1.b4db6d460bbc9p-9", "0x1.91a19cd246c6fp-11"),
     (196613, 140367, 117671)),
    (0.3, 4, 10, 3 * CHUNK, 2 * CHUNK, 3,
     ("0x1.2905800000000p+1", "0x1.6247800000000p+0", "0x1.d08f0a83c29b9p-7", "0x1.fe22ee0398701p-9"),
     (196608, 138646, 137521)),
    # Its third chunk has no delivery at all (asserted below).
    (0.99999, 10**9, 8, 3 * CHUNK, 100, 50,
     ("0x1.af0061955f732p+15", "0x1.0002805360308p-1", "0x1.18cf4b773abbbp+12", "0x1.6a156771d9ccep-17"),
     (196608, 4, 3)),
]

# The same columns for run_cycle_sim; horizon and warmup count cycles.
CYCLE_PINNED = [
    (0.0, 1, 21, CHUNK - 1, None, 100,
     ("0x1.8000000000000p+0", "0x1.c000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
     (65535, 65535, 65535)),
    (0.1, 3, 22, CHUNK + 1, None, 100,
     ("0x1.b7e2e904aa394p+0", "0x1.a06a4cf0764d6p+0", "0x1.4a82b84c39f7ap-9", "0x1.4cede950643e0p-10"),
     (72764, 65596, 65537)),
    # Batch widths that do not divide the chunk.
    (0.4, 6, 23, 2 * CHUNK + 3, None, 7,
     ("0x1.67acc076f60d0p+1", "0x1.40aed848314e2p+0", "0x1.d8f4c1d06a0d6p-8", "0x1.654f4f3439fd5p-10"),
     (218516, 131598, 131075)),
    (0.4, 10**9, 28, 2 * CHUNK + 3, 3, 99,
     ("0x1.69dc021b580f7p+1", "0x1.4031a0036a7b6p+0", "0x1.a67b4bbdf7b2ap-8", "0x1.50a61d4ef7329p-10"),
     (218241, 131075, 131075)),
    (0.7, 6, 26, 3 * CHUNK, 1, 3,
     ("0x1.5830cd66f9aaep+2", "0x1.d9cbe1d5388d0p-1", "0x1.e693b3bad14fdp-7", "0x1.515f5b144caecp-11"),
     (654617, 222771, 196608)),
    (0.95, 1, 27, CHUNK + 1, 1, 2,
     ("0x1.494954208e920p+4", "0x1.c000000000000p+0", "0x1.cbb7ea3205300p-5", "0x0.0p+0"),
     (1314516, 1314516, 65537)),
    # Warmups ending inside the second chunk, inside the third and at the second.
    (0.7, HUGE_M, 24, 2 * CHUNK + 3, CHUNK + 7, 13,
     ("0x1.8b5ca097c3d1fp+2", "0x1.c052f1ddaf10ap-1", "0x1.9781ff4b50a6dp-6", "0x1.38664f5aa6e13p-10"),
     (436412, 131075, 131075)),
    (0.95, 3, 25, 3 * CHUNK + 5, 2 * CHUNK + 1, 10,
     ("0x1.5792e01e7d4bcp+4", "0x1.e05fdf4899b86p-1", "0x1.1369e4e71a31dp-3", "0x1.461f4da6be12bp-13"),
     (3925460, 1376212, 196613)),
    (0.1, 1, 29, 2 * CHUNK + 3, CHUNK, 100,
     ("0x1.9bfb9ee8f776ap+0", "0x1.c000000000000p+0", "0x1.68b1dac13a420p-10", "0x0.0p+0"),
     (145438, 145438, 131075)),
    (0.99999, HUGE_M, 30, 2 * CHUNK + 3, None, 100,
     ("0x1.88da6b86302cap+17", "0x1.0001a1faee761p-1", "0x1.47b90ba1db033p+9", "0x1.2068c8bc0a8b7p-25"),
     (13156402864, 131075, 131075)),
]

# Near p = 1 the float sums of cycle lengths and areas pass 2**52 and are
# rounded, so they depend on the summation order, which chunking changed:
# these estimates differ from the recorded ones in the last bits only.
CYCLE_ROUNDED = [
    (1 - 1e-9, 3, 41, 500_000, None, 100,
     ("0x1.dbaac819c4eb3p+29", "0x1.d5555558ea09bp-1", "0x1.0a823f2ecc53fp+21", "0x1.c4a37ba289d61p-41"),
     (499727911381158, 166575970627045, 500000)),
    (1 - 1e-9, HUGE_M, 43, 4 * CHUNK + 1, CHUNK + 3, 10,
     ("0x1.dc98ad42e7ac2p+30", "0x1.0000000abc2bcp-1", "0x1.f2deff08477abp+21", "0x1.71ce8d7da8871p-39"),
     (262347311647242, 262145, 262145)),
]

# The same columns, plus which draw chunks are reduced in Python ints (object
# dtype) because their doubled areas could pass 2**63. Recorded before the
# cycle path computed its arrays in place.
CYCLE_OBJECT = [
    (0.999998, 3, 38, 3 * CHUNK + 2, CHUNK + 5, 10,
     ("0x1.e6d4851771371p+18", "0x1.d555714bafd20p-1", "0x1.de3e4261e52cfp+10", "0x1.a4deedfd9b4f7p-29"),
     (98172893736, 32724363438, 196610), [False, False, True, False]),
    (1 - 1e-9, HUGE_M, 44, CHUNK + 3, 1, 10,
     ("0x1.dcdd1aaa121cdp+30", "0x1.0000000abcdb4p-1", "0x1.119701e2e62fbp+23", "0x1.2e5b9965351f1p-38"),
     (65536528595058, 65539, 65539), [True, True]),
]

# p, max_tx, seed, horizon, trace slots, sha256 of the CSV
PINNED_TRACES = [
    (0.4, 3, 11, 2 * CHUNK + 3, None, "49aee286b6f421840db416218bc62be3b722c997102005e50cb8ef0f4a0c9bcb"),
    (0.95, HUGE_M, 12, 10**6, CHUNK + 1, "d8dccc3de744060088524a40ae9accf18b164a472470742b04d3c1fb3085f4e0"),
]


def config(p, max_tx, seed, horizon, warmup=None, batches=100, energy=EnergyParams(1.25, 0.5)):
    return SimConfig(
        FixedFailureLink(p), Policy(max_tx), energy, seed=seed,
        horizon_slots=horizon, warmup_slots=warmup, batches=batches,
    )


def test_chunk_size_matches_the_pinned_boundaries():
    assert simulator._CHUNK == CHUNK


def test_chunked_draws_equal_one_draw():
    n = 2 * CHUNK + 3
    whole = np.random.default_rng(99).random(n)
    rng = np.random.default_rng(99)
    parts = [rng.random(min(CHUNK, n - i)) for i in range(0, n, CHUNK)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("p, max_tx, seed, horizon, warmup, batches, estimates, counts", PINNED)
def test_slot_sim_pinned(p, max_tx, seed, horizon, warmup, batches, estimates, counts):
    res = run_slot_sim(config(p, max_tx, seed, horizon, warmup, batches))
    got = (res.avg_aoi_est, res.avg_energy_est, res.stderr_aoi, res.stderr_energy)
    assert tuple(v.hex() for v in got) == estimates
    assert (res.slots, res.packets_generated, res.successes) == counts
    assert res.seed == seed


def estimates(res):
    return (res.avg_aoi_est, res.avg_energy_est, res.stderr_aoi, res.stderr_energy)


@pytest.mark.parametrize("p, max_tx, seed, horizon, warmup, batches, pinned, counts", CYCLE_PINNED)
def test_cycle_sim_pinned(p, max_tx, seed, horizon, warmup, batches, pinned, counts):
    res = run_cycle_sim(config(p, max_tx, seed, horizon, warmup, batches))
    assert tuple(v.hex() for v in estimates(res)) == pinned
    assert (res.slots, res.packets_generated, res.successes) == counts


@pytest.mark.parametrize("p, max_tx, seed, horizon, warmup, batches, pinned, counts", CYCLE_ROUNDED)
def test_cycle_sim_rounded_sums_near_pinned(p, max_tx, seed, horizon, warmup, batches, pinned, counts):
    res = run_cycle_sim(config(p, max_tx, seed, horizon, warmup, batches))
    for got, want in zip(estimates(res), pinned):
        assert math.isclose(got, float.fromhex(want), rel_tol=1e-12, abs_tol=0.0)
    assert (res.slots, res.packets_generated, res.successes) == counts


@pytest.mark.parametrize("p, max_tx, seed, horizon, warmup, batches, pinned, counts, object_chunks", CYCLE_OBJECT)
def test_cycle_sim_object_path_pinned(p, max_tx, seed, horizon, warmup, batches, pinned, counts, object_chunks):
    cfg = config(p, max_tx, seed, horizon, warmup, batches)
    prev, paths = 0, []
    for lengths, delivered, _ in simulator._cycle_chunks(cfg.link, cfg.policy, seed, horizon):
        top = max(int(lengths.max()), prev)  # run_cycle_sim's guard
        paths.append(3 * top * top * lengths.size >= 2**63)
        prev = int(delivered[-1])
    assert paths == object_chunks
    res = run_cycle_sim(cfg)
    assert tuple(v.hex() for v in estimates(res)) == pinned
    assert (res.slots, res.packets_generated, res.successes) == counts


def exact_mean_age(lengths, delivered, warmup):
    """The renewal age estimate of the cycles past the warmup, as a correctly
    rounded ratio of exact sums: each cycle of y slots after one that delivered
    a packet of ``prev`` transmissions has twice its area, y * (2 * prev + y)."""
    y, prev = lengths.tolist(), delivered.tolist()
    twice_area = sum(b * (2 * a + b) for a, b in zip(prev[warmup - 1 : -1], y[warmup:]))
    return float(Fraction(twice_area, 2 * sum(y[warmup:])))


# Configs whose summed areas pass 2**53; those of the *_past_int64 tests in
# test_simulator.py (the last three) also pass 2**63.
EXACT_AREAS = [row[:6] for row in CYCLE_ROUNDED] + [
    (1 - 1e-14, 1, 7, 200_000, 1, 100),
    (1 - 1e-14, 3, 7, 200_000, 1, 100),
    (1 - 1e-15, 3, 7, 20_000, 1, 100),
]


def exact_mean_energy(cfg, senses, slots):
    """Both estimators' energy estimate: Et plus Es times the sensing events
    per slot, the ratio of the exact integer sums taken first."""
    return cfg.energy.tx_energy + cfg.energy.sense_energy * (senses / slots)


# A config where es * S / L + et and et + es * (S / L) round apart.
ENERGY_ORDER = (0.4, 3, 9, 5000, None, 10)


@pytest.mark.parametrize("p, max_tx, seed, horizon, warmup, batches", [*EXACT_AREAS, ENERGY_ORDER])
def test_cycle_sim_age_is_the_exact_area_ratio(p, max_tx, seed, horizon, warmup, batches):
    cfg = config(p, max_tx, seed, horizon, warmup, batches)
    lengths, delivered, sensed = sample_cycles(cfg.link, cfg.policy, seed, horizon)
    res = run_cycle_sim(cfg)
    assert res.avg_aoi_est == exact_mean_age(lengths, delivered, cfg.warmup_slots)
    senses, slots = (sum(x[cfg.warmup_slots :].tolist()) for x in (sensed, lengths))
    assert res.avg_energy_est == exact_mean_energy(cfg, senses, slots)


def test_cycle_sim_guards_int64_area_sums(monkeypatch):
    # Cycles of about 2**30 slots, each delivered on its last transmission:
    # every doubled area (about 3 * 2**60) and the chunk's length sum (about
    # 2**40) fit int64, but the chunk's summed areas (about 2**71) do not.
    lengths = (1 << 30) + np.arange(1000, dtype=np.int64)
    chunks = [lengths, lengths[::-1].copy()]
    assert int(lengths.sum()) < 2**63 < sum(3 * y * y for y in lengths.tolist())
    monkeypatch.setattr(simulator, "_cycle_chunks", lambda *args: ((y, y, np.ones_like(y)) for y in chunks))
    res = run_cycle_sim(config(0.5, HUGE_M, 1, 2000, 10, 10))
    y = np.concatenate(chunks)
    assert res.avg_aoi_est == exact_mean_age(y, y, 10)
    assert (res.slots, res.packets_generated, res.successes) == (sum(y.tolist()), 2000, 2000)


@st.composite
def short_configs(draw):
    """Configs of up to 3 chunks of 2**10, at any p below 1 and M up to 10**20."""
    batches = draw(st.integers(min_value=2, max_value=20))
    horizon = draw(st.integers(min_value=batches + 1, max_value=3 << 10))
    return config(
        draw(st.floats(min_value=0.0, max_value=1 - 2**-53)),
        draw(st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=HUGE_M))),
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
        horizon,
        draw(st.integers(min_value=1, max_value=horizon - batches)),
        batches,
    )


@settings(deadline=None)
@given(short_configs())
@example(config(1 - 1e-12, 3, 1, 3 << 10, 1, 2))  # batches straddle the 2**10 chunk edges
@example(config(1 - 2**-53, HUGE_M, 2, 3 << 10, 5, 3))
def test_results_do_not_depend_on_the_chunk_size(cfg):
    results = []
    for chunk in (1 << 10, 1 << 16, 1 << 18):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            results.append((run_slot_sim(cfg), run_cycle_sim(cfg)))
    assert results[0] == results[1] == results[2]


@settings(deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1 - 2**-53),
    st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=HUGE_M)),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=3 << 10),
)
def test_sample_cycles_is_the_concatenation_of_fresh_chunks(p, max_tx, seed, n):
    # A copy taken as each chunk is yielded keeps its values if a later chunk
    # reuses its arrays; sample_cycles, which collects every chunk before it
    # concatenates, would then repeat the last one.
    link, policy = FixedFailureLink(p), Policy(max_tx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_CHUNK", 1 << 10)
        chunks = [tuple(x.copy() for x in chunk) for chunk in simulator._cycle_chunks(link, policy, seed, n)]
        sampled = sample_cycles(link, policy, seed, n)
    lengths = np.random.default_rng(seed).geometric(1 - p, n).tolist()  # one draw
    reference = (lengths, [(y - 1) % max_tx + 1 for y in lengths], [-(-y // max_tx) for y in lengths])
    for got, chunked, want in zip(sampled, zip(*chunks), reference):
        assert got.tolist() == np.concatenate(chunked).tolist() == want


@settings(deadline=None)
@given(short_configs())
@example(config(*ENERGY_ORDER))
@example(config(0.4, 3, 3, CHUNK + 1))  # two chunks
def test_slot_sim_estimates_are_exact_sum_ratios(cfg):
    # Sums over a per-slot replay of the same draws: each slot's area is its
    # start age plus one half, and it senses when it makes transmission 1.
    k = last = 0
    ages, senses = [], []
    for fails in simulator._draws(cfg.link, cfg.seed, cfg.horizon_slots):
        tx, age, k, last = _slot_chunk(fails, cfg.policy.max_tx, k, last)
        ages += age.tolist()
        senses += (tx == 1).tolist()
    slots = cfg.horizon_slots - cfg.warmup_slots
    twice_area = sum(2 * a + 1 for a in ages[cfg.warmup_slots :])
    res = run_slot_sim(cfg)
    assert res.avg_aoi_est == float(Fraction(twice_area, 2 * slots))
    assert res.avg_energy_est == exact_mean_energy(cfg, sum(senses[cfg.warmup_slots :]), slots)


@pytest.mark.parametrize("runner", [run_slot_sim, run_cycle_sim])
def test_memory_flat_in_horizon(runner):
    def peak(horizon):
        tracemalloc.start()
        try:
            runner(config(0.4, 3, 13, horizon))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40 * CHUNK) <= peak(4 * CHUNK) + (1 << 20)


def test_pinned_run_covers_a_chunk_without_delivery():
    p, _, seed, horizon = PINNED[-1][:4]
    fails = np.random.default_rng(seed).random(horizon) < p
    assert any(fails[i : i + CHUNK].all() for i in range(0, horizon, CHUNK))


@pytest.mark.parametrize("p, max_tx, seed, horizon, slots, digest", PINNED_TRACES)
def test_trace_bytes_pinned(tmp_path, p, max_tx, seed, horizon, slots, digest):
    path = tmp_path / "trace.csv"
    # A trace pinned at fewer slots than its run is traced from the run cut to that length.
    length = horizon if slots is None else slots
    write_age_trace(config(p, max_tx, seed, length, energy=EnergyParams(1, 1)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("runner", [run_slot_sim, run_cycle_sim])
def test_huge_max_tx_equals_unreachable_max_tx(runner):
    # No cycle reaches 10**9 slots, so 10**20 must behave exactly like it.
    a = runner(config(0.4, HUGE_M, 5, 20_000))
    b = runner(config(0.4, 10**9, 5, 20_000))
    assert a == b


@given(
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=1, max_value=40),
)
def test_chunked_batch_sums_match_whole_run_sums(n, warmup, batches, c):
    # Cutting a run chunk by chunk, c samples at a time, and adding each piece
    # to its batch gives the sums of the warmup, the batch windows and the remainder.
    warmup = min(warmup, n - 1)
    width = (n - warmup) // batches
    assume(width >= 1)
    x = np.arange(n) ** 2
    got = [0] * (batches + 2)
    for first in range(0, n, c):
        chunk = x[first : first + c]
        b0, cuts = _batch_cuts(first, chunk.size, warmup, width, batches)
        assert cuts[0] == 0 and cuts[-1] == chunk.size
        assert all(a < b for a, b in zip(cuts, cuts[1:]))  # no empty piece
        for i, piece in enumerate(np.split(chunk, cuts[1:-1]), b0 + 1):
            got[i] += int(piece.sum())
    kept = x[warmup:]
    want = [int(kept[b * width : (b + 1) * width].sum()) for b in range(batches)]
    assert got == [int(x[:warmup].sum())] + want + [int(kept[batches * width :].sum())]


fail_strings = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=80),
    st.integers(min_value=1, max_value=80).map(lambda n: [True] * n),
    st.integers(min_value=1, max_value=80).map(lambda n: [False] * n),
)


@given(
    fail_strings,
    st.one_of(st.just(1), st.integers(min_value=2, max_value=6), st.just(HUGE_M)),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=7),
    st.sets(st.integers(min_value=1, max_value=79), max_size=6),
)
# Cuts inside a failure run (3), exactly at a delivery (5) and right after one (6).
@example([False, False, True, True, True, False, True, True], 3, 0, 1, {3, 5, 6})
@example([True] * 9, 2, 4, 2, {1, 4})  # no delivery; the entry run is carried through
@example([False] * 5, HUGE_M, 7, 3, {1})  # the entry run is closed by slot 0
def test_run_sums_equal_the_per_slot_kernel(fails, max_tx, k, last, cut_set):
    # Each piece's age sum, sensing count and deliveries, and the state leaving
    # the chunk, are the sums of the per-slot kernel's outputs.
    fails = np.array(fails)
    cuts = [0, *sorted(x for x in cut_set if x < fails.size), fails.size]
    tx, age, k_out, last_out = _slot_chunk(fails, max_tx, k, last)
    pieces = list(zip(cuts[:-1], cuts[1:]))
    want = (
        [int(age[lo:hi].sum()) for lo, hi in pieces],
        [int((tx[lo:hi] == 1).sum()) for lo, hi in pieces],
        [int((~fails[lo:hi]).sum()) for lo, hi in pieces],
        k_out,
        last_out,
    )
    assert _run_sums(fails, max_tx, k, last, cuts) == want


def rows_by_format(*columns):
    return "".join("%d,%d,%d\n" % row for row in zip(*(col.tolist() for col in columns))).encode()


POWERS_OF_TEN = [v for e in range(10) for v in (10**e - 1, 10**e)]  # 0, 1, 9, 10, ... 10**9


@pytest.mark.parametrize(
    "slot, age",
    [
        # uint32 digits, up to the largest uint32 value
        (np.arange(len(POWERS_OF_TEN) + 1), np.array([*POWERS_OF_TEN, 2**32 - 1])),
        # int64 digits: 2**32 and slot numbers past 2**32
        (np.arange(2**32 - 10, 2**32 + 12), np.array([*POWERS_OF_TEN, 2**32 - 1, 2**32])),
        # a one-row chunk
        (np.array([7]), np.array([0])),
        (np.array([2**33]), np.array([10**9])),
    ],
    ids=["uint32", "int64", "one-row", "one-row-int64"],
)
def test_csv_rows_equal_percent_d(slot, age):
    reset = np.arange(slot.size) % 3 == 0
    assert _csv_rows(slot, age, reset) == rows_by_format(slot, age, reset)


@given(st.lists(st.tuples(*[st.integers(min_value=0, max_value=2**40)] * 3), min_size=1, max_size=30))
def test_csv_rows_equal_percent_d_on_random_columns(rows):
    columns = [np.array(col) for col in zip(*rows)]
    assert _csv_rows(*columns) == rows_by_format(*columns)
