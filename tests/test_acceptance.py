"""Acceptance gate: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria cover the reference power model (circuit power 2.1 W, inverse
drain efficiency 19.2308, 0.1 W maximum transmit power, so sensing and
transmit energies of 4.02308 J each), the closed-form identities, the
exhaustive replay oracle, and the simulator-vs-closed-form grid.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import cycles_from_rows, reference_trace

from aoilink.analytic import (
    EnergyParams,
    avg_aoi,
    avg_energy,
    cycle_length_moments,
    cycle_length_pmf,
    delivered_tx_count_mean,
    delivered_tx_count_pmf,
    pow_complement,
    sense_count_mean,
    sense_count_pmf,
)
from aoilink.simulator import SlotMachine, _slot_chunk
from aoilink.sweep import MSweep, PowerSweep, m_sweep, power_sweep
from aoilink.validation import build_report

ET_REF = 4.02308
REF_ENERGY = EnergyParams(ET_REF, ET_REF)
SPLIT_MAX_LEN = 10


def test_acceptance_1_max_energy_at_single_transmission():
    for p in [0.0, 0.01, 0.1, 0.2, 0.4, 0.5, 0.7, 0.9, 0.99, 0.999999]:
        value = avg_energy(p, 1, REF_ENERGY)
        assert abs(value - 8.04616) <= 1e-9, f"p={p}: {value}"
        assert round(value, 2) == 8.05
    print("ACCEPTANCE 1 (max energy 8.04616 at M=1, every p): PASS")


def test_acceptance_2_tradeoff_deltas_at_p04():
    energy_drop = avg_energy(0.4, 1, REF_ENERGY) - avg_energy(0.4, 6, REF_ENERGY)
    aoi_rise = avg_aoi(0.4, 6) - avg_aoi(0.4, 1)
    assert abs(energy_drop - 1.599) <= 0.01, energy_drop
    assert abs(aoi_rise - 0.642) <= 0.01, aoi_rise
    print(
        f"ACCEPTANCE 2 (p=0.4, M 1->6: energy -{energy_drop:.4f}, "
        f"age +{aoi_rise:.4f}): PASS"
    )


def test_acceptance_3_curve_overlap_at_p01():
    aois = [avg_aoi(0.1, m) for m in range(3, 7)]
    energies = [avg_energy(0.1, m, REF_ENERGY) for m in range(3, 7)]
    aoi_spread = max(aois) - min(aois)
    energy_spread = max(energies) - min(energies)
    assert aoi_spread <= 0.0035, aoi_spread
    assert energy_spread <= 0.005, energy_spread
    print(
        f"ACCEPTANCE 3 (p=0.1, M 3..6 spreads: age {aoi_spread:.5f}, "
        f"energy {energy_spread:.5f}): PASS"
    )


def test_acceptance_4_simulation_matches_analysis():
    report = build_report(
        p_values=(0.1, 0.4, 0.7),
        max_tx_values=(1, 3, 6),
        energy=REF_ENERGY,
        slots=1_000_000,
        cycles=1_000_000,
        seed=7,
    )
    for pt in report.points:
        assert pt.slot_pass, (pt.p, pt.max_tx, pt.slot, pt.exact_aoi, pt.exact_energy)
        assert pt.cycle_pass, (pt.p, pt.max_tx, pt.cycle, pt.exact_aoi, pt.exact_energy)
    assert report.passed
    print(
        "ACCEPTANCE 4 (slot sim @1e6 slots and cycle sim @1e6 cycles within "
        "max(3*stderr, 0.5%) on 3x3 grid): PASS"
    )


def test_acceptance_5_identity_suite():
    for cp, max_tx in itertools.product(range(1, 100), range(1, 21)):
        p = cp / 100.0
        mean, second = cycle_length_moments(p)
        decomposed = delivered_tx_count_mean(p, max_tx) + second / (2.0 * mean)
        assert math.isclose(avg_aoi(p, max_tx), decomposed, rel_tol=1e-12)

        counts_form = sense_count_mean(p, max_tx) / mean * ET_REF + ET_REF
        assert math.isclose(avg_energy(p, max_tx, REF_ENERGY), counts_form, rel_tol=1e-12)

    for p in (0.0, 0.25, 0.5, 0.75, 0.99):
        for max_tx in (1, 2, 7, 20):
            total = sum(delivered_tx_count_pmf(m, p, max_tx) for m in range(1, max_tx + 1))
            assert math.isclose(total, 1.0, rel_tol=1e-12)
            cutoff = 1 if p == 0.0 else int(math.ceil(math.log(1e-10) / math.log(p))) + 1
            assert sum(cycle_length_pmf(m, p) for m in range(1, cutoff + 1)) >= 1 - 1e-10
            pm, _ = pow_complement(p, max_tx)
            cutoff = 1 if pm == 0.0 else int(math.ceil(math.log(1e-10) / math.log(pm))) + 1
            assert (
                sum(sense_count_pmf(l, p, max_tx) for l in range(1, cutoff + 1))
                >= 1 - 1e-10
            )
    print("ACCEPTANCE 5 (closed-form identities and pmf normalization @1e-12): PASS")


def _reference_state(rows):
    """(slots since the last delivery, tx count of the last delivered packet)
    after the replayed rows, read off the reference interpreter's output."""
    delivered = [i for i, r in enumerate(rows) if r["success"]]
    if not delivered:
        return len(rows), 0
    return len(rows) - delivered[-1] - 1, rows[delivered[-1]]["tx_count"]


def test_acceptance_6_exhaustive_replay_oracle():
    checked_cycles = 0
    checked_splits = 0
    for max_tx in (1, 2, 3):
        state_after = {(): (0, 0)}  # prefix -> kernel state leaving it
        for length in range(13):
            for bits in itertools.product((False, True), repeat=length):
                fails = list(bits)
                events = SlotMachine(max_tx).replay(fails)
                rows, sensing_instants = reference_trace(fails, max_tx)
                assert [e.sensed for e in events] == [r["sensed"] for r in rows]
                assert [e.age_end for e in events] == [r["age_end"] for r in rows]
                assert [e.age_start for e in events] == [r["age_start"] for r in rows]
                assert [e.tx_count for e in events] == [r["tx_count"] for r in rows]
                assert [e.slot for e in events if e.sensed] == sensing_instants
                for cycle_len, delivered, senses in cycles_from_rows(rows):
                    assert delivered == (cycle_len - 1) % max_tx + 1
                    assert senses == math.ceil(cycle_len / max_tx)
                    checked_cycles += 1

                # The chunk kernel, split at every position: the first chunk
                # is the prefix (itself an enumerated sequence, whose state
                # was checked when it was replayed whole), the second resumes
                # from the state the prefix left.
                tx_ref = [r["tx_count"] for r in rows]
                age_ref = [r["age_start"] for r in rows]
                for split in range(length) if 0 < length <= SPLIT_MAX_LEN else (0,):
                    k, last = state_after[bits[:split]]
                    rest = np.array(bits[split:], dtype=bool)
                    tx, age, k, last = _slot_chunk(rest, max_tx, k, last)
                    assert tx.tolist() == tx_ref[split:]
                    assert age.tolist() == age_ref[split:]
                    checked_splits += 1
                assert (k, last) == _reference_state(rows)
                state_after[bits] = (k, last)
    assert checked_cycles > 0
    print(
        f"ACCEPTANCE 6 (exhaustive replay, strings <= 12 slots, M in 1..3, "
        f"{checked_cycles} cycles verified; chunk kernel split at every position "
        f"of strings <= {SPLIT_MAX_LEN} slots, {checked_splits} splits): PASS"
    )


def test_acceptance_7_power_sweep_reproduction():
    for max_tx in (1, 3, 6):
        spec = PowerSweep(
            dbm_min=2.0,
            dbm_max=20.0,
            dbm_step=3.0,
            max_tx_list=(max_tx,),
            rate=2.0,
            snr_ref_db=20.0,
            ref_power_dbm=20.0,
            sense_energy=ET_REF,
            circuit_power=2.1,
            inv_drain_eff=19.2308,
            max_power=0.1,
        )
        (curve,) = power_sweep(spec)
        assert len(curve.points) == 7
        assert abs(curve.points[-1].p - 0.02955) <= 1e-5
        for a, b in zip(curve.points, curve.points[1:]):
            assert b.avg_aoi < a.avg_aoi
            assert b.avg_energy > a.avg_energy
    print("ACCEPTANCE 7 (2..20 dBm step 3 grid, p(20 dBm)=0.02955, monotone): PASS")


def test_acceptance_8_monotonicity_grid():
    p_grid = [k / 20.0 for k in range(1, 20)]
    for p in p_grid:
        for max_tx in range(1, 12):
            assert avg_aoi(p, max_tx + 1) >= avg_aoi(p, max_tx) - 1e-12
            assert (
                avg_energy(p, max_tx + 1, REF_ENERGY)
                <= avg_energy(p, max_tx, REF_ENERGY) + 1e-12
            )
    for p, p_next in zip(p_grid, p_grid[1:]):
        for max_tx in range(1, 13):
            assert avg_aoi(p_next, max_tx) >= avg_aoi(p, max_tx) - 1e-12
    print("ACCEPTANCE 8 (age up in M and p, energy down in M, on grid): PASS")
