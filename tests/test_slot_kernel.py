"""Bit identity of the chunked slot kernel.

The literals below were recorded from the per-slot Python loop that the
chunked numpy kernel replaced. They pin every estimate (as ``float.hex``)
and counter of :func:`run_slot_sim`, and the bytes of
:func:`write_age_trace`, at horizons on both sides of the chunk boundaries.
"""

import hashlib

import numpy as np
import pytest

from aoilink import simulator
from aoilink.analytic import EnergyParams, FixedFailureLink, Policy
from aoilink.simulator import SimConfig, run_cycle_sim, run_slot_sim, write_age_trace

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


def test_pinned_run_covers_a_chunk_without_delivery():
    p, _, seed, horizon = PINNED[-1][:4]
    fails = np.random.default_rng(seed).random(horizon) < p
    assert any(fails[i : i + CHUNK].all() for i in range(0, horizon, CHUNK))


@pytest.mark.parametrize("p, max_tx, seed, horizon, slots, digest", PINNED_TRACES)
def test_trace_bytes_pinned(tmp_path, p, max_tx, seed, horizon, slots, digest):
    path = tmp_path / "trace.csv"
    write_age_trace(config(p, max_tx, seed, horizon, energy=EnergyParams(1, 1)), path, slots)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("runner", [run_slot_sim, run_cycle_sim])
def test_huge_max_tx_equals_unreachable_max_tx(runner):
    # No cycle reaches 10**9 slots, so 10**20 must behave exactly like it.
    a = runner(config(0.4, HUGE_M, 5, 20_000))
    b = runner(config(0.4, 10**9, 5, 20_000))
    assert a == b
