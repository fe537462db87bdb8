"""Seeded Monte Carlo estimators for the retransmitting status-update link.

Two independent estimators of the average age and average energy:

- :func:`run_slot_sim` replays the link slot by slot: sense a packet, pay
  the transmit energy, draw the channel, act on the ACK/NACK, retransmit up
  to the policy limit.
- :func:`run_cycle_sim` samples success cycles directly: the cycle length is
  geometric, and the delivered packet's transmission count and the number of
  sensing events are deterministic functions of it.

Randomness comes from numpy's default generator (PCG64) seeded with
``SimConfig.seed``. The slot estimator draws one uniform per slot in slot
order and streams them through one numpy kernel (:func:`_slot_chunk`) in
chunks of ``_CHUNK`` slots; PCG64 yields the same stream whether drawn at
once or in chunks. The cycle estimator draws one geometric variate per
cycle. Identical configs therefore produce bit-identical results on the
same build of this package.

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

_CHUNK = 1 << 16  # slots per kernel call; bounds the slot estimator's memory


@dataclass(frozen=True)
class SimConfig:
    """Configuration shared by both estimators.

    ``horizon_slots`` counts slots for the slot estimator and success cycles
    for the cycle estimator; ``warmup_slots`` is interpreted in the same
    unit and is discarded before averaging. When ``warmup_slots`` is None it
    defaults to 1% of the horizon with a floor of 1000 (capped to a tenth of
    short horizons). Standard errors use batch means over ``batches`` equal
    contiguous windows of ``(horizon - warmup) // batches`` samples; any
    remainder still enters the point estimates.
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
    pos = np.arange(c + 1)
    # Chunk index at which the current cycle began; -k before the first delivery.
    begin = np.maximum.accumulate(np.concatenate(([-k], np.where(fails, -k, pos[1:]))))
    since = pos - begin
    # Every k_i is below k + c, so a larger limit never binds (and cannot overflow).
    tx = since[:c] % min(max_tx, k + c) + 1
    delivered = np.concatenate(([last], tx))[np.maximum(begin, 0)]
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


def run_slot_sim(cfg: SimConfig) -> SimResult:
    """Slot-by-slot estimate of average age and average energy.

    Every slot charges the transmit energy; every packet generation
    (including the one at t=0) charges the sensing energy. The age estimate
    is the continuous time integral of the age over the post-warmup slots
    divided by their count; since the age is piecewise linear with unit
    slope, each slot contributes its start age plus one half.
    """
    n = cfg.horizon_slots
    warmup = cfg.warmup_slots
    kept = n - warmup
    width = kept // cfg.batches
    marks = warmup + width * np.arange(1, cfg.batches + 1)  # slot counts ending each batch

    machine = SlotMachine(cfg.policy.max_tx)
    packets = successes = 0
    age_sum = 0  # integer sum of post-warmup slot-start ages (exact)
    senses = 0  # post-warmup sensing events
    age_marks: list[int] = []
    sense_marks: list[int] = []
    for fails in _draws(cfg.link, cfg.seed, n):
        first = machine.slot
        tx, age = machine.advance(fails)
        sensed = tx == 1
        packets += int(np.count_nonzero(sensed))
        successes += fails.size - int(np.count_nonzero(fails))
        lo = max(warmup - first, 0)
        if lo >= fails.size:
            continue
        age_cum = np.cumsum(age[lo:])  # int64-exact: _CHUNK ages, each below 2 * horizon
        sense_cum = np.cumsum(sensed[lo:])
        ends = marks[(marks > first + lo) & (marks <= machine.slot)] - (first + lo + 1)
        age_marks += [age_sum + v for v in age_cum[ends].tolist()]
        sense_marks += [senses + v for v in sense_cum[ends].tolist()]
        age_sum += int(age_cum[-1])
        senses += int(sense_cum[-1])

    es, et = cfg.energy.sense_energy, cfg.energy.tx_energy
    batch_age = np.diff(np.asarray(age_marks, dtype=float), prepend=0.0)
    batch_senses = np.diff(np.asarray(sense_marks, dtype=float), prepend=0.0)
    aoi_means = (batch_age + 0.5 * width) / width
    energy_means = et + es * batch_senses / width
    return SimResult(
        avg_aoi_est=(age_sum + 0.5 * kept) / kept,
        avg_energy_est=et + es * (senses / kept),
        stderr_aoi=_batch_stderr(aoi_means),
        stderr_energy=_batch_stderr(energy_means),
        slots=n,
        packets_generated=packets,
        successes=successes,
        seed=cfg.seed,
    )


def sample_cycles(
    link: LinkSpec, policy: Policy, seed: int, cycles: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample per-cycle (length, delivered-packet tx count, sensing count).

    The cycle length is geometric on {1, 2, ...} with success probability
    ``1 - p``. Within a cycle of length y, full groups of max_tx failures are
    abandoned packets, so the delivered packet used ``(y - 1) % max_tx + 1``
    transmissions and the cycle sensed ``ceil(y / max_tx)`` packets.
    """
    if cycles < 1:
        raise ValueError(f"cycle count must be >= 1, got {cycles}")
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(1.0 - failure_prob(link), size=cycles)
    # No cycle is longer than the longest, so a larger limit never binds.
    max_tx = min(policy.max_tx, int(lengths.max()))
    delivered = (lengths - 1) % max_tx + 1
    sensed = (lengths + max_tx - 1) // max_tx
    return lengths, delivered, sensed


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
    n = cfg.horizon_slots
    w0 = cfg.warmup_slots
    lengths, delivered, sensed = sample_cycles(cfg.link, cfg.policy, cfg.seed, n)

    prev = delivered[w0 - 1 : n - 1].astype(float)
    ylen = lengths[w0:].astype(float)
    areas = (prev + ylen / 2.0) * ylen
    nsense = sensed[w0:].astype(float)

    es, et = cfg.energy.sense_energy, cfg.energy.tx_energy
    total_len = ylen.sum()
    kept = n - w0
    width = kept // cfg.batches
    m = cfg.batches * width
    blen = ylen[:m].reshape(cfg.batches, width).sum(axis=1)
    barea = areas[:m].reshape(cfg.batches, width).sum(axis=1)
    bsense = nsense[:m].reshape(cfg.batches, width).sum(axis=1)
    if int(lengths.max()) * n < 2**63:
        slots, packets = int(lengths.sum()), int(sensed.sum())
    else:  # the int64 sums could wrap (p near 1): add as Python ints
        slots, packets = sum(lengths.tolist()), sum(sensed.tolist())

    return SimResult(
        avg_aoi_est=float(areas.sum() / total_len),
        avg_energy_est=float(es * nsense.sum() / total_len + et),
        stderr_aoi=_batch_stderr(barea / blen),
        stderr_energy=_batch_stderr(es * bsense / blen + et),
        slots=slots,
        packets_generated=packets,
        successes=n,
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
