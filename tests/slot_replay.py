"""Per-slot event replay for the tests, built on the simulator's slot kernel.

:class:`Replay` feeds channel outcomes (True = failure) to
:func:`aoilink.simulator._slot_chunk`, the kernel behind the age trace and
the reference for the slot estimator's per-run sums, and carries its state
across calls, so the events it returns are those of the code that produces
results. The naive interpreter in ``conftest.py`` is the independent oracle
these events are checked against; it does not use this module.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from aoilink.simulator import _slot_chunk


class SlotEvent(NamedTuple):
    """What happened in one slot."""

    slot: int
    sensed: bool  # a fresh packet was generated (and charged) at slot start
    tx_count: int  # transmissions of the current packet, including this slot
    success: bool
    age_start: int  # age at slot start
    age_end: int  # age at slot end, after any reset


class Replay:
    """The slot state machine, driven one chunk of outcomes per call."""

    def __init__(self, max_tx: int):
        self.max_tx = max_tx
        self.slot = 0
        self.k = 0  # slots since the last delivery
        self.last = 0  # transmissions of the last delivered packet

    def __call__(self, fails: Iterable[bool]) -> list[SlotEvent]:
        fails = np.fromiter(fails, dtype=bool)
        tx, ages, self.k, self.last = _slot_chunk(fails, self.max_tx, self.k, self.last)
        age = ages[:-1]  # the last entry starts the slot after the chunk
        age_end = np.where(fails, age + 1, tx)
        rows = zip(fails.tolist(), tx.tolist(), age.tolist(), age_end.tolist())
        first, self.slot = self.slot, self.slot + fails.size
        return [SlotEvent(first + i, t == 1, t, not f, a, e) for i, (f, t, a, e) in enumerate(rows)]


def replay(fails: Iterable[bool], max_tx: int) -> list[SlotEvent]:
    """The events of one run of outcomes from the initial state."""
    return Replay(max_tx)(fails)
