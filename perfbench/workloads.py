"""The three benchmark workloads: the argv of each CLI call, the work it
represents, and the checker that judges its output.

A workload is a repeating cycle of call kinds. The workload seed draws the
per-call ``--seed`` and the ``p``/``M`` values or grid offsets; the program
sees only the argv.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ES = ET = "4.02308"
POWER_LINK = [
    "--rate", "2", "--snr-ref-db", "20", "--p-ref-dbm", "20",
    "--pc", "2.1", "--eta", "19.2308", "--pmax-dbm", "20",
]
ES_LIST = "0,2.01154,4.02308,8.04616"
TRACE_HORIZON = 500_000

WORKLOADS = ("validate", "sweep", "trace")

# Why each workload exists (also in BENCHMARK.json).
WHY = {
    "validate": "both estimators on the default 3x3 grid; the slot loop and cycle sampler dominate",
    "sweep": "closed-form sweeps: Pareto filter, emission of large JSON/CSV, and import time; no simulator",
    "trace": "slot estimator with --trace: the SlotMachine copy of the transitions plus a 5 MB CSV write",
}


@dataclass(frozen=True)
class Call:
    kind: str  # validate | sweep_power | sweep_es | sweep_m | trace
    argv: tuple[str, ...]  # arguments after ``python -m aoilink``
    work: int  # slots simulated (validate, trace) or closed-form points swept (sweep)
    trace_path: Path | None = None

    @property
    def ok_codes(self) -> tuple[int, ...]:
        # validate exits 1 on its own 3-sigma verdict; that is a statistical
        # outcome, not a defect, so the harness judges the numbers itself.
        return (0, 1) if self.kind == "validate" else (0,)


def _dbm_window(rng: np.random.Generator) -> list[str]:
    # Shift the 2..20 dBm grid down by 0..0.04 dB: same point count, and the
    # top stays at or below the 20 dBm amplifier cap.
    shift = int(rng.integers(0, 5)) * 0.01
    return ["--dbm-min", f"{2 - shift:.2f}", "--dbm-max", f"{20 - shift:.2f}", "--dbm-step", "0.05"]


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**32)))


def _validate(rng: np.random.Generator, tmp: Path) -> Call:
    argv = ("validate", "--grid", "default", "--seed", _seed(rng))
    return Call("validate", argv, len(checks.VALIDATE_P) * len(checks.VALIDATE_M) * checks.VALIDATE_SLOTS)


def _sweep_power(rng: np.random.Generator, tmp: Path) -> Call:
    argv = ("sweep", "power", "--pareto", "--format", "json", *_dbm_window(rng), "--M", "1..8", "--es", ES, *POWER_LINK)
    return Call("sweep_power", argv, checks.dbm_grid(list(argv)).size * 8)


def _sweep_es(rng: np.random.Generator, tmp: Path) -> Call:
    argv = ("sweep", "es", "--base", "power", "--format", "json", "--es-list", ES_LIST,
            *_dbm_window(rng), "--M", "1..8", *POWER_LINK)
    return Call("sweep_es", argv, checks.dbm_grid(list(argv)).size * 8 * len(ES_LIST.split(",")))


def _sweep_m(rng: np.random.Generator, tmp: Path) -> Call:
    # 100 failure probabilities, one in each 1/101-wide cell of (0, 1).
    offset = rng.uniform(0.1, 0.9)
    ps = ",".join(f"{(j + offset) / 101:.6f}" for j in range(100))
    argv = ("sweep", "m", "--format", "csv", "--p", ps, "--M", "1..100", "--es", ES, "--et", ET)
    return Call("sweep_m", argv, 100 * 100)


def _trace(rng: np.random.Generator, tmp: Path) -> Call:
    path = tmp / "trace.csv"
    argv = ("simulate", "--estimator", "slot", "--p", f"{rng.uniform(0.3, 0.5):.4f}",
            "--M", str(int(rng.integers(3, 9))), "--es", ES, "--et", ET,
            "--horizon", str(TRACE_HORIZON), "--seed", _seed(rng), "--trace", str(path))
    return Call("trace", argv, TRACE_HORIZON, trace_path=path)


CYCLES = {
    "validate": (_validate,),
    "sweep": (_sweep_power, _sweep_es, _sweep_m),
    "trace": (_trace,),
}


def cycle(workload: str, rng: np.random.Generator, tmp: Path) -> list[Call]:
    """One pass over the workload's call kinds, drawn from ``rng``."""
    return [make(rng, tmp) for make in CYCLES[workload]]


def check(call: Call, out: bytes) -> list[str]:
    """Judge one call's stdout (and trace file)."""
    argv = list(call.argv)
    try:
        if call.kind == "trace":
            return checks.check_simulate_trace(argv, out, call.trace_path.read_bytes())
        checker = {
            "validate": checks.check_validate,
            "sweep_power": checks.check_sweep_power_pareto,
            "sweep_es": checks.check_sweep_es,
            "sweep_m": checks.check_sweep_m,
        }[call.kind]
        return checker(argv, out)
    except (ValueError, KeyError, TypeError, IndexError, OSError, csv.Error) as exc:
        return [f"{call.kind}: unreadable output ({type(exc).__name__}: {exc})"]


def produced(call: Call, out: bytes) -> bytes:
    """Everything a call wrote, for the determinism check."""
    return out + (call.trace_path.read_bytes() if call.trace_path else b"")
