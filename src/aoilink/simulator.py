"""Seeded Monte Carlo estimators for the retransmitting status-update link.

Two independent estimators of the average age and average energy:

- :func:`run_slot_sim` replays the link slot by slot: sense a packet, pay
  the transmit energy, draw the channel, act on the ACK/NACK, retransmit up
  to the policy limit.
- :func:`run_cycle_sim` samples success cycles directly: the cycle length is
  geometric, and the delivered packet's transmission count and the number of
  sensing events are deterministic functions of it.

Both reduce to one renewal-reward ratio estimate with batch-means standard
errors taken in integers from the exact batch sums (:func:`_estimate`). Each
draws and reduces in chunks of ``_CHUNK`` (65,536) slots or ``_CYCLE_CHUNK``
(32,768) cycles, so memory is flat in the horizon; each chunk is cut at the
warmup and batch edges (:func:`_batch_cuts`), and each piece is summed into
per-batch rows of exact integers, so no result depends on the chunking.
Randomness comes from numpy's default generator (PCG64) seeded with
``SimConfig.seed``: one uniform per slot, or one geometric variate per cycle,
which :func:`_geometric` draws bit for bit as ``rng.geometric`` does, by numpy's
algorithm on whole arrays of ``standard_exponential`` or ``random`` draws (a
test pins the two). PCG64 yields the same stream whether drawn at once or in
chunks, so identical configs give bit-identical results on one build. The slot
estimator reduces each chunk per run of channel outcomes (:func:`_run_sums`),
in sums equal to those of the per-slot kernel :func:`_slot_chunk`. That kernel
is the only per-slot replay: :func:`age_trace` yields its rows chunk by chunk,
and :func:`write_age_trace` renders them as bytes (:func:`_csv_rows`).

Timing convention: sensing happens instantly at slot start, the ACK/NACK is
revealed at slot end, and on a success the age resets at slot end to the
number of slots the delivered packet spent in transmission.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import partial
from itertools import starmap
from pathlib import Path

import numpy as np

from .analytic import EnergyParams, LinkSpec, Policy, _Checked, _check_type, _integer, failure_prob
from .sweep import MAX_GRID_POINTS

__all__ = [
    "SimConfig",
    "SimResult",
    "run_slot_sim",
    "run_cycle_sim",
    "sample_cycles",
    "age_trace",
    "write_age_trace",
]

_CHUNK = 1 << 16  # slots per kernel call; bounds the slot estimator's and the trace's memory
_CYCLE_CHUNK = 1 << 15  # cycles per chunk: a cycle holds about twice a slot's bytes in flight


def _check_seed(seed: int) -> int:
    if not 0 <= (seed := _integer("seed", seed)) < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


class SimConfig(_Checked, namedtuple("SimConfig", "link policy energy seed horizon_slots warmup_slots batches",
                                     defaults=(None, 100))):
    """Configuration shared by both estimators.

    ``horizon_slots`` counts slots for the slot estimator and success cycles
    for the cycle estimator; ``warmup_slots`` is interpreted in the same
    unit and is discarded before averaging. When ``warmup_slots`` is None it
    defaults to 1% of the horizon with a floor of 1000 (capped to a tenth of
    short horizons). Standard errors use batch means over ``batches`` equal
    contiguous windows of ``(horizon - warmup) // batches`` samples; any
    remainder still enters the point estimates. The estimators stream in
    chunks of 65,536 slots or 32,768 cycles (a cycle holds about twice a
    slot's bytes in flight), so memory is flat in the horizon. The link,
    policy and energy must be of their types, the seed and the three counts
    integers (stored as plain ints), and ``batches`` at most 10**6.
    """

    __slots__ = ()

    def __new__(cls, link: LinkSpec, policy: Policy, energy: EnergyParams, seed: int, horizon_slots: int,
                warmup_slots: int | None = None, batches: int = 100):
        link, policy, energy = map(_check_type, ("link", "policy", "energy"), (link, policy, energy),
                                   (LinkSpec, Policy, EnergyParams))
        seed = _check_seed(seed)
        horizon_slots, batches = _integer("horizon", horizon_slots), _integer("batches", batches)
        if horizon_slots < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon_slots}")
        if warmup_slots is None:
            warmup_slots = max(1000, horizon_slots // 100)
            if warmup_slots >= horizon_slots:
                warmup_slots = horizon_slots // 10
        warmup_slots = _integer("warmup", warmup_slots)
        if not 0 <= warmup_slots < horizon_slots:
            raise ValueError(
                f"warmup must satisfy 0 <= warmup < horizon, "
                f"got warmup={warmup_slots}, horizon={horizon_slots}"
            )
        if not 2 <= batches <= MAX_GRID_POINTS:
            raise ValueError(f"batches must be >= 2 and <= {MAX_GRID_POINTS}, got {batches}")
        if (horizon_slots - warmup_slots) // batches < 1:
            raise ValueError(
                f"horizon - warmup = {horizon_slots - warmup_slots} "
                f"is too small for {batches} batches"
            )
        return tuple.__new__(cls, (link, policy, energy, seed, horizon_slots, warmup_slots, batches))


class SimResult(namedtuple("SimResult", "avg_aoi_est avg_energy_est stderr_aoi stderr_energy slots "
                                        "packets_generated successes seed")):
    """Monte Carlo estimates with batch-means standard errors and counters."""

    __slots__ = ()


def _slot_chunk(fails: np.ndarray, max_tx: int, k: int, last: int):
    """Advance the slot state machine over one chunk of channel outcomes.

    The state is ``k``, the slots since the last delivery (or since t=0),
    and ``last``, the transmission count of the last delivered packet (0
    before any). A slot with state ``(k_i, last_i)`` makes transmission
    ``k_i % max_tx + 1`` of its packet (sensed fresh when that is 1) and
    starts at age ``last_i + k_i``. Returns the per-slot transmission counts, the start ages
    of slots 0 to ``c`` (from 1 on, the slot-end ages after any reset), and the outgoing state.
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
    return tx, delivered + since, int(since[c]), int(delivered[c])


def _draws(link: LinkSpec, seed: int, n: int) -> Iterator[np.ndarray]:
    """Per-slot failure outcomes of an n-slot run, one uniform per slot, by chunk."""
    rng = np.random.default_rng(seed)
    p = failure_prob(link)
    for start in range(0, n, _CHUNK):
        yield rng.random(min(_CHUNK, n - start)) < p


def _batch_stderr(sums: list[int], counts: list[int]) -> float:
    b, k, total, squares = len(sums), 2 * sum(counts).bit_length() + 80, 0, 0
    for s, c in zip(sums, counts):  # each ratio in units of 2**-k, floored: unequal ones lie over 2**80 apart
        total += (r := (s << k) // c)
        squares += r * r
    return math.isqrt((b * squares - total**2) // (b * b * (b - 1))) / (1 << k)  # isqrt of (2**k se)**2


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
    """``x[j[0]:i].sum()`` for each ``i`` of the sorted indices ``j``, each below ``x.size``."""
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

    A run fills slots ``[start, end)`` right after a delivery, and its packet
    is delivered at ``end``. Run 0 is the entry state: a delivery of ``last``
    transmissions at slot ``-k - 1``. Run 1 starts at ``-k``, so it carries
    the failures before the chunk (it is empty if ``k`` is 0 and slot 0
    succeeds); every later run is a maximal failure run, and the open run,
    with ``end = c`` and possibly empty, comes last. A run's ``r = end -
    start`` failures and its delivery lie at ``0 .. r`` slots since a
    delivery, so it senses ``r // m + 1`` times, delivers ``r % m + 1``
    transmissions and adds the ramp ``r (r + 1) / 2`` to the ages; its ``n``
    slots before a cut add ``n (n - 1) / 2``. Any other success comes right
    after a delivery: it senses once and adds 0. The rest of each age is 1,
    plus ``tx - 1`` on each slot that follows a delivery of ``tx`` up to the
    next delivery. The sums run from slot ``-k``, which cancels in each
    piece's difference. Each ramp is a product of exact halves, so every sum
    is exact modulo 2**64, and so is each piece's, which is below 2**63.
    """
    c = fails.size
    m = min(max_tx, k + c)  # every k_i is below k + c, so a larger limit never binds
    flips = np.flatnonzero(fails[1:] != fails[:-1]) + 1
    lead, tail = bool(fails[0]), bool(fails[-1])
    start = np.concatenate(([-k - 1, -k], flips[lead::2], np.full(int(not tail), c)))
    end = np.concatenate(([-k - 1], np.zeros(int(not lead), int), flips[1 - lead :: 2], [c]))
    r = end - start
    senses = r // m  # sensing events of each run and its delivery, less one
    tx_extra = r - senses * m  # tx - 1 of each run's delivery
    tx_extra[0] = last - 1
    # Slots from each run's delivery up to and including the next delivery;
    # the part past a cut (or the chunk end) is taken off at the cut.
    after = np.ones_like(r)
    after[:-1] += (start[1:] == end[:-1] + 1) * r[1:]
    ages = ((r + 1) >> 1) * (r | 1) + tx_extra * after

    t = np.asarray(cuts)
    j = np.searchsorted(end, t)  # runs delivered before each cut; 0 < j < r.size
    n = np.maximum(t - start[j], 0)  # slots of run j before the cut
    before = j - 1  # the last run delivered before the cut
    overshoot = np.maximum(after[before] - (t - 1 - end[before]), 0)
    delivered = t - _prefix(r, j) - n
    sums = (
        _prefix(ages, j) + (n >> 1) * ((n - 1) | 1) + t - tx_extra[before] * overshoot,
        _prefix(senses, j) + (n + m - 1) // m + delivered,
        delivered,
    )
    last_out = int(tx_extra[-2]) + 1 if end[-2] + 1 == start[-1] else 1
    return *(np.diff(x).tolist() for x in sums), int(r[-1]), last_out


def _estimate(cfg: SimConfig, chunks: Callable) -> SimResult:
    """The renewal-reward estimate of one run, with batch-means standard errors.

    ``chunks(cut)`` yields, per chunk of ``c`` samples from sample ``first``,
    the batch of its first piece and exact integer sums over the pieces that
    ``cut(first, c)`` (:func:`_batch_cuts` at the run's edges) gives: slots,
    twice the age area, sensing events and deliveries. The age is the area
    per slot, and the energy Et plus Es times the sensing events per slot; each
    standard error is :func:`_batch_stderr`'s, the energy's Es times the rates'.
    """
    warmup, batches = cfg.warmup_slots, cfg.batches
    width = (cfg.horizon_slots - warmup) // batches
    # Exact sums over the warmup, each batch, and the remainder past the last full batch.
    slots, areas2, senses, deliveries = rows = [[0] * (batches + 2) for _ in range(4)]
    for b0, pieces in chunks(partial(_batch_cuts, warmup=warmup, width=width, batches=batches)):
        for row, piece in zip(rows, pieces):
            for i, x in enumerate(piece, b0 + 1):
                row[i] += x

    es, et = cfg.energy.sense_energy, cfg.energy.tx_energy
    kept = sum(slots[1:])
    # An energy past the float range gives inf, which the emitters reject.
    return SimResult(
        avg_aoi_est=sum(areas2[1:]) / (2 * kept),
        avg_energy_est=et + es * (sum(senses[1:]) / kept),
        stderr_aoi=_batch_stderr(areas2[1:-1], slots[1:-1]) / 2,
        stderr_energy=es * _batch_stderr(senses[1:-1], slots[1:-1]),
        slots=sum(slots),
        packets_generated=sum(senses),
        successes=sum(deliveries),
        seed=cfg.seed,
    )


def run_slot_sim(cfg: SimConfig) -> SimResult:
    """Slot-by-slot estimate of average age and average energy.

    Every slot charges the transmit energy; every packet generation
    (including the one at t=0) charges the sensing energy. The age is
    piecewise linear with unit slope, so each slot's area is its start age
    plus one half. Each chunk is cut at the warmup and batch edges and
    reduced by :func:`_run_sums`.
    """

    def chunks(cut):
        k = last = first = 0
        for fails in _draws(cfg.link, cfg.seed, cfg.horizon_slots):
            b0, cuts = cut(first, fails.size)
            ages, senses, deliveries, k, last = _run_sums(fails, cfg.policy.max_tx, k, last, cuts)
            slots = np.diff(cuts).tolist()
            yield b0, (slots, [2 * a + n for a, n in zip(ages, slots)], senses, deliveries)
            first += fails.size

    return _estimate(cfg, chunks)


def _geometric(rng: np.random.Generator, s: float, n: int) -> np.ndarray:
    """``rng.geometric(s, n)`` bit for bit by numpy's samplers (Devroye 1986, ch. X) on whole arrays:
    ``ceil(-E / log1p(-s))`` for a standard exponential E below s = 1/3, else the least k with U <= S_k."""
    u = (out := np.empty(n, np.int64)).view(np.float64)  # the draws go into the result's own memory
    if s < 1 / 3:  # z < 2**59 for s >= 2**-53 (any link), so numpy's cap of z at 2**63 never binds
        rng.standard_exponential(out=u)
        u /= -math.log1p(-s)  # negation is exact
        out[...] = np.ceil(u, out=u)  # a 1-d same-direction cast in place copies nothing
        return out
    sums, prod, q = [s], s, 1.0 - s  # S_1 = s, S_k = S_(k-1) + (prod *= q), up to a term that adds nothing
    while sums[-1] + prod * q != sums[-1]:
        prod *= q
        sums.append(sums[-1] + prod)
    rng.random(out=u)  # one uniform U per variate
    k = sum(x < 0.99 for x in sums) + 1  # at most about 1% of the draws lie past S_k
    counts = np.ones(n, np.uint8)  # 1 + how many of S_1..S_k lie below U
    for bound in sums[:k]:
        counts += (u > bound).view(np.uint8)  # a same-type add: no cast
    tail = np.flatnonzero(u > sums[k - 1])
    tail_values = np.searchsorted(sums, u[tail]) + 1  # len(sums) + 1 past the last sum, where numpy loops forever
    out[...] = counts
    out[tail] = tail_values
    return out


def _cycle_chunks(link: LinkSpec, policy: Policy, seed: int, n: int):
    """The (length, delivered tx count, sensing count) arrays of n cycles, by chunk."""
    rng = np.random.default_rng(seed)
    success = 1.0 - failure_prob(link)
    for start in range(0, n, _CYCLE_CHUNK):
        lengths = _geometric(rng, success, min(_CYCLE_CHUNK, n - start))
        # No cycle of the chunk is longer than its longest, so a larger limit never binds.
        max_tx = min(policy.max_tx, int(lengths.max()))
        sensed = lengths - 1
        sensed //= max_tx  # packets that used all max_tx transmissions
        delivered = sensed * -max_tx  # lengths - sensed * max_tx, in place: one chunk array fewer in flight
        delivered += lengths
        sensed += 1
        yield lengths, delivered, sensed


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
    link, policy = map(_check_type, ("link", "policy"), (link, policy), (LinkSpec, Policy))
    seed = _check_seed(seed)
    if (cycles := _integer("cycles", cycles)) < 1:
        raise ValueError(f"cycle count must be >= 1, got {cycles}")
    return tuple(np.concatenate(part) for part in zip(*_cycle_chunks(link, policy, seed, cycles)))


def run_cycle_sim(cfg: SimConfig) -> SimResult:
    """Renewal estimate over success cycles.

    ``horizon_slots`` counts cycles here and ``warmup_slots`` leading cycles
    to discard. The cycle before the first is a delivery of 0 transmissions
    at t = 0, the start of :func:`run_slot_sim`. A cycle of ``y`` slots is
    ``y`` slots of the run, with twice the trapezoid area ``(prev_delivered
    + y/2) * y``, its sensing count and one delivery.
    """

    def chunks(cut):
        first = prev = 0  # prev: delivered tx count of the cycle before the chunk
        for lengths, delivered, sensed in _cycle_chunks(cfg.link, cfg.policy, cfg.seed, cfg.horizon_slots):
            b0, cuts = cut(first, lengths.size)
            first += lengths.size
            twice_areas = np.concatenate(([prev], delivered[:-1]))  # each cycle's prev_delivered
            top = max(int(lengths.max()), prev)  # bounds every length and delivered count
            prev = int(delivered[-1])
            if top * (2 * min(cfg.policy.max_tx, top) + top) * lengths.size >= 2**63:  # int64 sums could wrap (p near 1)
                lengths, twice_areas, sensed = (x.astype(object) for x in (lengths, twice_areas, sensed))
            twice_areas *= 2  # y * (2 * prev + y) in place, each at most top * (2 * min(max_tx, top) + top)
            twice_areas += lengths
            twice_areas *= lengths
            sums = [np.add.reduceat(x, cuts[:-1]).tolist() for x in (lengths, twice_areas, sensed)]
            # Dropped here, each array is freed as _cycle_chunks replaces it, so malloc
            # reuses its blocks; freeing them all before the next draw trims and refaults them.
            del lengths, delivered, sensed, twice_areas
            yield b0, (*sums, np.diff(cuts).tolist())  # one delivery per cycle

    return _estimate(cfg, chunks)


def age_trace(cfg: SimConfig) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Replay the slot state machine over the horizon's slots.

    Yields, chunk by chunk, the slot numbers, the ages at slot end after any
    reset, and the delivery flags. The seed and draw discipline are those of
    :func:`run_slot_sim`, so the trace describes exactly the run that
    produced the estimates. The draws depend only on the seed and ``p``, so
    a config with a shorter horizon traces a prefix of the run.
    """
    k = last = first = 0
    for fails in _draws(cfg.link, cfg.seed, cfg.horizon_slots):
        _, ages, k, last = _slot_chunk(fails, cfg.policy.max_tx, k, last)
        yield np.arange(first, first + fails.size), ages[1:], ~fails
        first += fails.size


def _csv_rows(*columns: np.ndarray) -> bytes:
    """The bytes of ``"%d,%d,...\n"`` for each row of non-negative integer columns.

    Each column fills a fixed-width field of a ``uint8`` matrix, digits
    right-aligned and taken by ``// 10`` in uint32 when its values fit, else
    int64; a field's commas and the newline have columns of their own. The
    positions left of a value's leading digit are set to 0, and no other byte
    is 0, so dropping every 0 byte leaves the rows.
    """
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    out = np.empty((len(columns[0]), sum(widths) + len(columns)), np.uint8)  # every byte is written below
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
    return out.tobytes().translate(None, b"\0")


def write_age_trace(cfg: SimConfig, path: str | Path) -> None:
    """Export the age trace as CSV with columns ``slot,age,reset``.

    ``age`` is the age at slot end after any reset; ``reset`` is 1 on
    delivery slots and 0 otherwise. Rows are rendered and written as bytes
    chunk by chunk, so memory stays flat in the trace length. The draws are
    those of :func:`run_slot_sim` with the same config.
    """
    with open(path, "wb") as fh:
        fh.write(b"slot,age,reset\n")
        # starmap keeps no chunk alive while the next one is drawn
        fh.writelines(starmap(_csv_rows, age_trace(cfg)))
