"""Seeded Monte Carlo estimators for the retransmitting status-update link.

Two independent estimators of the average age and average energy:

- :func:`run_slot_sim` replays the link slot by slot: sense a packet, pay
  the transmit energy, draw the channel, act on the ACK/NACK, retransmit up
  to the policy limit.
- :func:`run_cycle_sim` samples success cycles directly: the cycle length is
  geometric, and the delivered packet's transmission count and the number of
  sensing events are deterministic functions of it.

Randomness comes from numpy's default generator (PCG64) seeded with
``SimConfig.seed``: one uniform per slot, run through the numpy kernel
:func:`_slot_chunk`, or one geometric variate per cycle. Both estimators draw
and reduce in chunks of ``_CHUNK`` (65,536), so memory is flat in the
horizon, and PCG64 yields the same stream whether drawn at once or in chunks,
so identical configs give bit-identical results on one build. Near ``p = 1``
the cycle sums pass 2**52 and round, so their last bits depend on the order
of summation; the counters are exact integers.

Timing convention: sensing happens instantly at slot start, the ACK/NACK is
revealed at slot end, and on a success the age resets at slot end to the
number of slots the delivered packet spent in transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .analytic import EnergyParams, LinkSpec, Policy, _check_max_tx, failure_prob

__all__ = [
    "SimConfig",
    "SimResult",
    "SlotEvent",
    "SlotMachine",
    "run_slot_sim",
    "run_cycle_sim",
    "sample_cycles",
    "age_trace",
    "write_age_trace",
]

_CHUNK = 1 << 16  # slots or cycles per kernel call; bounds both estimators' memory


@dataclass(frozen=True)
class SimConfig:
    """Configuration shared by both estimators.

    ``horizon_slots`` counts slots for the slot estimator and success cycles
    for the cycle estimator; ``warmup_slots`` is interpreted in the same
    unit and is discarded before averaging. When ``warmup_slots`` is None it
    defaults to 1% of the horizon with a floor of 1000 (capped to a tenth of
    short horizons). Standard errors use batch means over ``batches`` equal
    contiguous windows of ``(horizon - warmup) // batches`` samples; any
    remainder still enters the point estimates. Both estimators stream in
    chunks of 65,536 slots or cycles, so memory is flat in the horizon.
    """

    link: LinkSpec
    policy: Policy
    energy: EnergyParams
    seed: int
    horizon_slots: int
    warmup_slots: int | None = None
    batches: int = 100

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.horizon_slots < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon_slots}")
        if self.warmup_slots is None:
            default = max(1000, self.horizon_slots // 100)
            if default >= self.horizon_slots:
                default = self.horizon_slots // 10
            object.__setattr__(self, "warmup_slots", default)
        if not 0 <= self.warmup_slots < self.horizon_slots:
            raise ValueError(
                f"warmup must satisfy 0 <= warmup < horizon, "
                f"got warmup={self.warmup_slots}, horizon={self.horizon_slots}"
            )
        if self.batches < 2:
            raise ValueError(f"batches must be >= 2, got {self.batches}")
        if (self.horizon_slots - self.warmup_slots) // self.batches < 1:
            raise ValueError(
                f"horizon - warmup = {self.horizon_slots - self.warmup_slots} "
                f"is too small for {self.batches} batches"
            )


@dataclass(frozen=True)
class SimResult:
    """Monte Carlo estimates with batch-means standard errors and counters."""

    avg_aoi_est: float
    avg_energy_est: float
    stderr_aoi: float
    stderr_energy: float
    slots: int
    packets_generated: int
    successes: int
    seed: int


@dataclass(frozen=True)
class SlotEvent:
    """What happened in one slot of the slot-level state machine."""

    slot: int
    sensed: bool  # a fresh packet was generated (and charged) at slot start
    tx_count: int  # transmissions of the current packet, including this slot
    success: bool
    age_start: int  # age at slot start
    age_end: int  # age at slot end, after any reset


def _slot_chunk(fails: np.ndarray, max_tx: int, k: int, last: int):
    """Advance the slot state machine over one chunk of channel outcomes.

    The state is ``k``, the slots since the last delivery (or since t=0),
    and ``last``, the transmission count of the last delivered packet (0
    before any). A slot with state ``(k_i, last_i)`` makes transmission
    ``k_i % max_tx + 1`` of its packet (sensed fresh when that is 1) and
    starts at age ``last_i + k_i``. Returns the per-slot transmission counts
    and start ages, and the state leaving the chunk.
    """
    c = fails.size
    pos = np.arange(k, k + c + 1)  # k plus the chunk index
    # k plus the chunk index at which the current cycle began (0 before the chunk's
    # first delivery); updated in place, as fresh chunk-sized arrays cost page faults.
    begin = np.concatenate(([0], pos[1:] * ~fails))
    np.maximum.accumulate(begin, out=begin)
    since = pos - begin
    # Every k_i is below k + c, so a larger limit never binds (and cannot overflow).
    m = min(max_tx, k + c)
    tx = since[:c] - since[:c] // m * m + 1  # since % m + 1; numpy's integer % is slow
    delivered = np.concatenate(([last], tx))[np.maximum(begin - k, 0)]
    return tx, delivered[:c] + since[:c], int(since[c]), int(delivered[c])


class SlotMachine:
    """Slot-level state machine of the sense/transmit/feedback loop.

    Drive it with channel outcomes (True = failure), one slot or one chunk at
    a time. Its transitions are those of :func:`_slot_chunk`, the kernel that
    the slot estimator and the trace exporter also run, so the replayable
    surface used by the equivalence tests is the code that produces results.
    """

    def __init__(self, max_tx: int):
        _check_max_tx(max_tx)
        self.max_tx = max_tx
        self.slot = 0
        self.k = 0  # slots since the last delivery
        self.last = 0  # transmissions of the last delivered packet

    def advance(self, fails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot transmission counts and start ages for a bool array of outcomes."""
        tx, age, self.k, self.last = _slot_chunk(fails, self.max_tx, self.k, self.last)
        self.slot += fails.size
        return tx, age

    def step(self, fail: bool) -> SlotEvent:
        return self.replay([fail])[0]

    def replay(self, fails: Iterable[bool]) -> list[SlotEvent]:
        fails = np.fromiter(fails, dtype=bool)
        first = self.slot
        tx, age = self.advance(fails)
        age_end = np.where(fails, age + 1, tx)
        rows = zip(fails.tolist(), tx.tolist(), age.tolist(), age_end.tolist())
        return [SlotEvent(first + i, t == 1, t, not f, a, e) for i, (f, t, a, e) in enumerate(rows)]


def _draws(link: LinkSpec, seed: int, n: int) -> Iterator[np.ndarray]:
    """Per-slot failure outcomes of an n-slot run, one uniform per slot, by chunk."""
    rng = np.random.default_rng(seed)
    p = failure_prob(link)
    for start in range(0, n, _CHUNK):
        yield rng.random(min(_CHUNK, n - start)) < p


def _batch_stderr(batch_means: np.ndarray) -> float:
    b = batch_means.size
    center = batch_means.mean()
    return float(math.sqrt(float(((batch_means - center) ** 2).sum()) / (b * (b - 1))))


def _add_batch_sums(sums, rows, first: int, warmup: int, width: int) -> None:
    """Add each row's kept samples (column ``j`` is sample ``first + j``; kept
    from ``warmup`` on) into the matching row of ``sums``, one column per batch
    of ``width`` samples; the last column gathers the remainder past the last
    full batch, which enters only the point estimates."""
    batches, c = len(sums[0]) - 1, len(rows[0])
    lo = max(warmup - first, 0)
    if lo >= c:
        return
    q0 = first + lo - warmup  # kept index of the first kept sample
    b0 = min(q0 // width, batches)
    starts = np.arange(b0, min((first + c - 1 - warmup) // width, batches) + 1) * width - q0
    starts[0] = 0
    for acc, row in zip(sums, rows):
        for b, v in enumerate(np.add.reduceat(row[lo:], starts).tolist(), b0):
            acc[b] += v


def run_slot_sim(cfg: SimConfig) -> SimResult:
    """Slot-by-slot estimate of average age and average energy.

    Every slot charges the transmit energy; every packet generation
    (including the one at t=0) charges the sensing energy. The age estimate
    is the continuous time integral of the age over the post-warmup slots
    divided by their count; since the age is piecewise linear with unit
    slope, each slot contributes its start age plus one half.
    """
    n = cfg.horizon_slots
    kept = n - cfg.warmup_slots
    width = kept // cfg.batches

    machine = SlotMachine(cfg.policy.max_tx)
    packets = successes = 0
    # Exact integer sums of slot-start ages and of sensing events, per batch.
    ages, senses = sums = [[0] * (cfg.batches + 1) for _ in range(2)]
    for fails in _draws(cfg.link, cfg.seed, n):
        first = machine.slot
        tx, age = machine.advance(fails)
        sensed = tx == 1
        packets += int(np.count_nonzero(sensed))
        successes += fails.size - int(np.count_nonzero(fails))
        # int64-exact within a chunk: _CHUNK ages, each below 2 * horizon
        _add_batch_sums(sums, (age, sensed), first, cfg.warmup_slots, width)

    es, et = cfg.energy.sense_energy, cfg.energy.tx_energy
    aoi_means = (np.array(ages[:-1], dtype=float) + 0.5 * width) / width
    energy_means = et + es * np.array(senses[:-1], dtype=float) / width
    return SimResult(
        avg_aoi_est=(sum(ages) + 0.5 * kept) / kept,
        avg_energy_est=et + es * (sum(senses) / kept),
        stderr_aoi=_batch_stderr(aoi_means),
        stderr_energy=_batch_stderr(energy_means),
        slots=n,
        packets_generated=packets,
        successes=successes,
        seed=cfg.seed,
    )


def _cycle_chunks(link: LinkSpec, policy: Policy, seed: int, n: int):
    """The (length, delivered tx count, sensing count) arrays of n cycles, by chunk."""
    rng = np.random.default_rng(seed)
    success = 1.0 - failure_prob(link)
    for start in range(0, n, _CHUNK):
        lengths = rng.geometric(success, min(_CHUNK, n - start))
        # No cycle of the chunk is longer than its longest, so a larger limit never binds.
        max_tx = min(policy.max_tx, int(lengths.max()))
        abandoned = (lengths - 1) // max_tx  # packets that used all max_tx transmissions
        yield lengths, lengths - abandoned * max_tx, abandoned + 1


def sample_cycles(
    link: LinkSpec, policy: Policy, seed: int, cycles: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample per-cycle (length, delivered-packet tx count, sensing count).

    The cycle length is geometric on {1, 2, ...} with success probability
    ``1 - p``. Within a cycle of length y, full groups of max_tx failures are
    abandoned packets, so the delivered packet used ``(y - 1) % max_tx + 1``
    transmissions and the cycle sensed ``ceil(y / max_tx)`` packets. The
    draws are those of :func:`run_cycle_sim` with the same seed.
    """
    if cycles < 1:
        raise ValueError(f"cycle count must be >= 1, got {cycles}")
    return tuple(np.concatenate(part) for part in zip(*_cycle_chunks(link, policy, seed, cycles)))


def run_cycle_sim(cfg: SimConfig) -> SimResult:
    """Renewal estimate over success cycles.

    ``horizon_slots`` counts cycles here and ``warmup_slots`` leading cycles
    to discard (at least 1, so the previous cycle's delivered-packet age is
    defined). Each cycle contributes the trapezoid area
    ``(prev_delivered + y/2) * y`` to the age numerator and its sensing count
    times the sensing energy to the energy numerator; both are divided by
    the total slots covered.
    """
    if cfg.warmup_slots < 1:
        raise ValueError("cycle estimator needs warmup >= 1 cycle")
    width = (cfg.horizon_slots - cfg.warmup_slots) // cfg.batches
    sums = np.zeros((3, cfg.batches + 1))  # per batch: slots, age area, sensing count
    slots = packets = first = prev = 0  # prev: delivered tx count of the cycle before the chunk
    for lengths, delivered, sensed in _cycle_chunks(cfg.link, cfg.policy, cfg.seed, cfg.horizon_slots):
        ylen = lengths.astype(float)
        areas = (np.concatenate(([prev], delivered[:-1])) + ylen / 2.0) * ylen
        _add_batch_sums(sums, (ylen, areas, sensed.astype(float)), first, cfg.warmup_slots, width)
        wraps = int(lengths.max()) >= 2**63 // lengths.size  # int64 sums could wrap (p near 1)
        slots += sum(lengths.tolist()) if wraps else int(lengths.sum())
        packets += sum(sensed.tolist()) if wraps else int(sensed.sum())
        prev = int(delivered[-1])
        first += lengths.size

    es, et = cfg.energy.sense_energy, cfg.energy.tx_energy
    total_len, total_area, total_sense = sums.sum(axis=1)
    blen, barea, bsense = sums[:, :-1]
    return SimResult(
        avg_aoi_est=float(total_area / total_len),
        avg_energy_est=float(es * total_sense / total_len + et),
        stderr_aoi=_batch_stderr(barea / blen),
        stderr_energy=_batch_stderr(es * bsense / blen + et),
        slots=slots,
        packets_generated=packets,
        successes=cfg.horizon_slots,
        seed=cfg.seed,
    )


def _trace_length(cfg: SimConfig, slots: int | None) -> int:
    n = cfg.horizon_slots if slots is None else slots
    if n < 1:
        raise ValueError(f"trace length must be >= 1, got {n}")
    return n


def age_trace(cfg: SimConfig, slots: int | None = None) -> list[SlotEvent]:
    """Replay the slot state machine and return the per-slot events.

    Uses the same seed and draw discipline as :func:`run_slot_sim`, so the
    trace describes exactly the run that produced the estimates.
    """
    machine = SlotMachine(cfg.policy.max_tx)
    events: list[SlotEvent] = []
    for fails in _draws(cfg.link, cfg.seed, _trace_length(cfg, slots)):
        events += machine.replay(fails)
    return events


def write_age_trace(cfg: SimConfig, path: str | Path, slots: int | None = None) -> None:
    """Export the age trace as CSV with columns ``slot,age,reset``.

    ``age`` is the age at slot end after any reset; ``reset`` is 1 on
    delivery slots and 0 otherwise. Rows are streamed chunk by chunk, so
    memory stays flat in the trace length. The draws are those of
    :func:`run_slot_sim` with the same config.
    """
    n = _trace_length(cfg, slots)
    machine = SlotMachine(cfg.policy.max_tx)
    with open(path, "w", newline="") as fh:
        fh.write("slot,age,reset\n")
        for fails in _draws(cfg.link, cfg.seed, n):
            first = machine.slot
            tx, age = machine.advance(fails)
            slot = np.arange(first, machine.slot)
            rows = np.column_stack((slot, np.where(fails, age + 1, tx), ~fails))
            fh.write("%d,%d,%d\n" * fails.size % tuple(rows.ravel().tolist()))
