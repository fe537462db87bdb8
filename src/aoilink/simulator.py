"""Seeded Monte Carlo estimators for the retransmitting status-update link.

Two independent estimators of the average age and average energy:

- :func:`run_slot_sim` replays the link slot by slot: sense a packet, pay
  the transmit energy, draw the channel, act on the ACK/NACK, retransmit up
  to the policy limit.
- :func:`run_cycle_sim` samples success cycles directly: the cycle length is
  geometric, and the delivered packet's transmission count and the number of
  sensing events are deterministic functions of it.

Randomness comes from numpy's default generator (PCG64) seeded with
``SimConfig.seed``: one uniform per slot, or one geometric variate per cycle.
Both estimators draw and reduce in chunks of ``_CHUNK`` (65,536), so memory
is flat in the horizon, and PCG64 yields the same stream whether drawn at
once or in chunks, so identical configs give bit-identical results on one
build. One helper (:func:`_batch_cuts`) cuts each chunk at the warmup and
batch edges for both estimators. The slot estimator reduces each chunk per
run of channel outcomes (:func:`_run_sums`), in exact integer sums equal to
those of the per-slot kernel :func:`_slot_chunk`. That kernel is the only
per-slot replay: :func:`age_trace` yields its rows chunk by chunk, and
:func:`write_age_trace` renders them as bytes (:func:`_csv_rows`). Near
``p = 1`` the cycle sums pass 2**52 and round, so their last bits depend on
the order of summation; the counters are exact integers.

Timing convention: sensing happens instantly at slot start, the ACK/NACK is
revealed at slot end, and on a success the age resets at slot end to the
number of slots the delivered packet spent in transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Iterator

import numpy as np

from .analytic import EnergyParams, LinkSpec, Policy, failure_prob

__all__ = [
    "SimConfig",
    "SimResult",
    "run_slot_sim",
    "run_cycle_sim",
    "sample_cycles",
    "age_trace",
    "write_age_trace",
]

_CHUNK = 1 << 16  # slots or cycles per kernel call; bounds both estimators' memory


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


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
        _check_seed(self.seed)
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


def _batch_cuts(first: int, c: int, warmup: int, width: int, batches: int) -> tuple[int, list[int]]:
    """Cut samples ``[first, first + c)`` at the warmup and batch edges.

    Returns the batch of the first piece (-1 in the warmup, ``batches`` past
    the last full batch, whose remainder enters only the point estimates) and
    the offsets ``[0, ..., c]`` of the pieces; piece ``i`` is in batch ``b0 + i``.
    """

    def batch(i: int) -> int:
        return -1 if i < warmup else min((i - warmup) // width, batches)

    b0, b1 = batch(first), batch(first + c - 1)
    return b0, [0, *(warmup + b * width - first for b in range(b0 + 1, b1 + 1)), c]


def _prefix(x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``x[:i].sum()`` for each ``i`` of the sorted indices ``j``; ``j[0] == 0``
    and every index is below ``x.size``."""
    parts = np.add.reduceat(x, j)[:-1]
    parts[j[1:] == j[:-1]] = 0
    return np.concatenate(([0], np.cumsum(parts)))


def _run_sums(fails: np.ndarray, max_tx: int, k: int, last: int, cuts: list[int]):
    """Sums over the pieces of one chunk, reduced per run of failures.

    For each piece ``[cuts[i], cuts[i + 1])`` (``cuts`` rises from 0 to ``c =
    fails.size``): the sums of the slot-start ages, of the sensing events and
    of the deliveries that :func:`_slot_chunk` yields slot by slot from the
    state ``(k, last)``; then the state leaving the chunk. All are exact
    integers, computed with work per failure run rather than per slot.

    A failure run fills slots ``[start, end)`` and its packet is delivered at
    ``end``. If ``k > 0`` the chunk opens inside run 0 (``start = 0``, and
    ``end = 0`` when slot 0 succeeds); an open run with ``end = c``, possibly
    empty, always comes last. A run entered ``k0`` slots after the last
    delivery (``k`` for run 0, else 0) has its ``r = end - start`` failures
    and its delivery at ``k0 .. k0 + r`` slots since delivery. They add
    ``(r + 1) * k0 + r * (r + 1) / 2`` to the ages, sense at each multiple
    of ``m`` in that range, and deliver a packet of ``(k0 + r) % m + 1``
    transmissions. Any other success comes right after a delivery: it senses
    once and adds 0. The rest of each age is ``last``: the entry ``last`` up
    to the chunk's first delivery, 1 after it, plus ``tx - 1`` on each slot
    that follows a delivery of ``tx`` up to the next delivery. A cut inside a
    run splits that run's sums at the cut.
    """
    c = fails.size
    m = min(max_tx, k + c)  # every k_i is below k + c, so a larger limit never binds
    flips = np.flatnonzero(fails[1:] != fails[:-1]) + 1
    lead, tail = bool(fails[0]), bool(fails[-1])
    carried = lead or k > 0
    start = np.concatenate((np.zeros(int(carried), int), flips[lead::2], np.full(int(not tail), c)))
    end = np.concatenate((np.zeros(int(carried and not lead), int), flips[1 - lead :: 2], [c]))
    r = end - start
    senses = r // m  # sensing events of each run and its delivery, less one
    tx_extra = r - senses * m  # tx - 1 of each run's delivery
    if carried:
        r0 = int(r[0])
        tx_extra[0] = (k + r0) % m
        senses[0] = (k + r0) // m - (k - 1) // m - 1
    # Slots from each run's delivery up to and including the next delivery;
    # the part past a cut (or the chunk end) is taken off at the cut.
    after = np.ones_like(r)
    after[:-1] += (start[1:] == end[:-1] + 1) * r[1:]
    # int64-exact: the chunk's c ages are each below 2 * horizon
    ages = (r * (r + 1) >> 1) + tx_extra * after
    if carried:
        ages[0] += (r0 + 1) * k

    t = np.asarray(cuts)
    j = np.searchsorted(end, t)  # runs delivered before each cut; j < start.size
    n = np.maximum(t - start[j], 0)  # slots of run j before the cut
    k0 = np.where(j == 0, k, 0)
    before = j - 1  # the last run delivered before the cut (if j > 0)
    overshoot = np.maximum(after[before] - (t - 1 - end[before]), 0) * (j > 0)
    first_delivery = int(end[0]) if carried else 0
    delivered = t - _prefix(r, j) - n
    sums = (
        _prefix(ages, j) + n * k0 + (n * (n - 1) >> 1) - tx_extra[before] * overshoot
        + last * np.minimum(first_delivery + 1, t) + np.maximum(t - 1 - first_delivery, 0),
        _prefix(senses, j) + (k0 + n + m - 1) // m - (k0 + m - 1) // m + delivered,
        delivered,
    )
    s = int(start[-1])  # the open run's first slot
    if s == 0:
        last_out = last
    else:
        last_out = int(tx_extra[-2]) + 1 if r.size > 1 and int(end[-2]) == s - 1 else 1
    k_out = int(r[-1]) + (k if r.size == 1 else 0)
    return *(np.diff(x).tolist() for x in sums), k_out, last_out


def run_slot_sim(cfg: SimConfig) -> SimResult:
    """Slot-by-slot estimate of average age and average energy.

    Every slot charges the transmit energy; every packet generation
    (including the one at t=0) charges the sensing energy. The age estimate
    is the continuous time integral of the age over the post-warmup slots
    divided by their count; since the age is piecewise linear with unit
    slope, each slot contributes its start age plus one half. Each chunk is
    cut at the warmup and batch edges and reduced by :func:`_run_sums`.
    """
    n, warmup, batches = cfg.horizon_slots, cfg.warmup_slots, cfg.batches
    kept = n - warmup
    width = kept // batches
    k = last = first = packets = successes = 0
    # Exact integer sums of slot-start ages and of sensing events over the
    # warmup, each batch, and the remainder past the last full batch.
    ages, senses = [0] * (batches + 2), [0] * (batches + 2)
    for fails in _draws(cfg.link, cfg.seed, n):
        b0, cuts = _batch_cuts(first, fails.size, warmup, width, batches)
        piece_ages, piece_senses, piece_deliveries, k, last = _run_sums(fails, cfg.policy.max_tx, k, last, cuts)
        for i, (age, sensed) in enumerate(zip(piece_ages, piece_senses), b0 + 1):
            ages[i] += age
            senses[i] += sensed
        packets += sum(piece_senses)
        successes += sum(piece_deliveries)
        first += fails.size

    es, et = cfg.energy.sense_energy, cfg.energy.tx_energy
    # An energy past the float range gives inf or nan, which the emitters reject.
    with np.errstate(over="ignore", invalid="ignore"):
        aoi_means = (np.array(ages[1:-1], dtype=float) + 0.5 * width) / width
        energy_means = et + es * np.array(senses[1:-1], dtype=float) / width
        return SimResult(
            avg_aoi_est=(sum(ages[1:]) + 0.5 * kept) / kept,
            avg_energy_est=et + es * (sum(senses[1:]) / kept),
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
    warmup, batches = cfg.warmup_slots, cfg.batches
    width = (cfg.horizon_slots - warmup) // batches
    # Slots, age area and sensing count over the warmup, each batch, and the remainder.
    sums = np.zeros((3, batches + 2))
    slots = packets = first = prev = 0  # prev: delivered tx count of the cycle before the chunk
    for lengths, delivered, sensed in _cycle_chunks(cfg.link, cfg.policy, cfg.seed, cfg.horizon_slots):
        b0, cuts = _batch_cuts(first, lengths.size, warmup, width, batches)
        ylen = lengths.astype(float)
        areas = (np.concatenate(([prev], delivered[:-1])) + ylen / 2.0) * ylen
        pieces = slice(b0 + 1, b0 + len(cuts))
        for row, x in zip(sums, (ylen, areas, sensed)):
            row[pieces] += np.add.reduceat(x, cuts[:-1], dtype=float)
        wraps = int(lengths.max()) >= 2**63 // lengths.size  # int64 sums could wrap (p near 1)
        slots += sum(lengths.tolist()) if wraps else int(lengths.sum())
        packets += sum(sensed.tolist()) if wraps else int(sensed.sum())
        prev = int(delivered[-1])
        first += lengths.size

    es, et = cfg.energy.sense_energy, cfg.energy.tx_energy
    total_len, total_area, total_sense = sums[:, 1:].sum(axis=1)
    blen, barea, bsense = sums[:, 1:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # as in run_slot_sim
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


def age_trace(
    cfg: SimConfig, slots: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Replay the slot state machine over ``slots`` slots (default: the horizon).

    Yields, chunk by chunk, the slot numbers, the ages at slot end after any
    reset, and the delivery flags. The length is checked on the call, before
    any draw. The seed and draw discipline are those of :func:`run_slot_sim`,
    so the trace describes exactly the run that produced the estimates.
    """
    n = cfg.horizon_slots if slots is None else slots
    if n < 1:
        raise ValueError(f"trace length must be >= 1, got {n}")

    def chunks():
        k = last = first = 0
        for fails in _draws(cfg.link, cfg.seed, n):
            tx, age, k, last = _slot_chunk(fails, cfg.policy.max_tx, k, last)
            yield np.arange(first, first + fails.size), np.where(fails, age + 1, tx), ~fails
            first += fails.size

    return chunks()


def _csv_rows(*columns: np.ndarray) -> bytes:
    """The bytes of ``"%d,%d,...\n"`` for each row of non-negative integer columns.

    Each column fills a fixed-width field of a ``uint8`` matrix, digits
    right-aligned and taken by ``// 10`` in uint32 when its values fit, else
    int64; a field's commas and the newline have columns of their own. The
    positions left of a value's leading digit stay 0, and no other byte is 0,
    so dropping every 0 byte leaves the rows.
    """
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    out = np.zeros((len(columns[0]), sum(widths) + len(columns)), np.uint8)
    comma = -1
    for col, top, width in zip(columns, tops, widths):
        comma += width + 1
        out[:, comma] = ord(",")
        low = int(col.min())
        value = col.astype(np.uint32 if top < 2**32 else np.int64)
        for place in range(width):
            rest = value // 10
            digit = value - rest * 10 + ord("0")
            if place and low < 10**place:  # some values have no digit here
                digit *= value != 0
            out[:, comma - 1 - place] = digit
            value = rest
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes()


def write_age_trace(cfg: SimConfig, path: str | Path, slots: int | None = None) -> None:
    """Export the age trace as CSV with columns ``slot,age,reset``.

    ``age`` is the age at slot end after any reset; ``reset`` is 1 on
    delivery slots and 0 otherwise. Rows are rendered and written as bytes
    chunk by chunk, so memory stays flat in the trace length. The draws are
    those of :func:`run_slot_sim` with the same config.
    """
    rows = age_trace(cfg, slots)
    with open(path, "wb") as fh:
        fh.write(b"slot,age,reset\n")
        # starmap keeps no chunk alive while the next one is drawn
        fh.writelines(starmap(_csv_rows, rows))
