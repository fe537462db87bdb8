"""The benchmark's checkers accept real program output and reject corrupted
output. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def aoilink(*argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "aoilink", *argv], env=env, capture_output=True, check=True)
    return proc.stdout


def perturb(text: str, start: int) -> str:
    """Change one digit of the number starting at ``start``: the fifth after
    its decimal point, a relative change far above 1e-8."""
    at = text.index(".", start) + 5
    assert text[at].isdigit()
    return text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1 :]


SWEEP_M = ["sweep", "m", "--p", "0.1,0.4,0.7", "--M", "1..6", "--es", "4.02308", "--et", "4.02308"]
POWER = ["--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "0.5", "--M", "1..4", *workloads.POWER_LINK]
PARETO = ["sweep", "power", "--pareto", "--format", "json", "--es", "4.02308", *POWER]
ES = ["sweep", "es", "--base", "power", "--format", "json", "--es-list", "0,4.02308", *POWER]


def test_sweep_m_perturbed_digit():
    out = aoilink(*SWEEP_M)
    assert checks.check_sweep_m(SWEEP_M, out) == []
    text = out.decode()
    row = text.splitlines()[8]
    avg_aoi = text.index(row) + row.rindex(",") + 1
    errors = checks.check_sweep_m(SWEEP_M, perturb(text, avg_aoi).encode())
    assert errors and "avg_aoi: row 7" in errors[0]


def test_sweep_es_perturbed_digit():
    out = aoilink(*ES)
    assert checks.check_sweep_es(ES, out) == []
    rows = json.loads(out)
    text = out.decode()
    value = text.index(json.dumps(rows[20]["avg_energy_normalized"]))
    errors = checks.check_sweep_es(ES, perturb(text, value).encode())
    assert errors and "avg_energy_normalized" in errors[0]


def test_pareto_dropped_survivor():
    out = aoilink(*PARETO)
    assert checks.check_sweep_power_pareto(PARETO, out) == []
    rows = json.loads(out)
    assert len(rows) > 3
    dropped = json.dumps(rows[: len(rows) // 2] + rows[len(rows) // 2 + 1 :]).encode()
    errors = checks.check_sweep_power_pareto(PARETO, dropped)
    assert errors and "missing" in errors[0]


def test_pareto_dominated_point_emitted():
    out = json.loads(aoilink(*PARETO))
    full = json.loads(aoilink(*[a for a in PARETO if a != "--pareto"]))
    kept = {(row["M"], row["pt_dbm"]) for row in out}
    extra = next(row for row in full if (row["M"], row["pt_dbm"]) not in kept)
    rows = sorted(out + [dict(extra, label="pareto")], key=lambda row: row["avg_energy"])
    errors = checks.check_sweep_power_pareto(PARETO, json.dumps(rows).encode())
    assert any("dominated" in error for error in errors)


def test_pareto_indices_tie_rule():
    energy = np.array([2.0, 1.0, 1.0, 3.0, 1.0])
    aoi = np.array([1.0, 2.0, 2.0, 0.5, 3.0])
    # index 2 duplicates index 1 (earliest wins); index 4 is dominated by 1.
    assert checks.pareto_indices(energy, aoi).tolist() == [0, 1, 3]


@pytest.fixture
def trace_call(tmp_path):
    path = tmp_path / "trace.csv"
    argv = ["simulate", "--estimator", "slot", "--p", "0.35", "--M", "4", "--es", "4.02308",
            "--et", "4.02308", "--horizon", "20000", "--seed", "5", "--trace", str(path)]
    return argv, aoilink(*argv), path.read_bytes()


def test_trace_matches_estimate(trace_call):
    argv, out, trace = trace_call
    assert checks.check_simulate_trace(argv, out, trace) == []


@pytest.mark.parametrize("cut", [-1, -7, 50_000])
def test_truncated_trace(trace_call, cut):
    argv, out, trace = trace_call
    errors = checks.check_simulate_trace(argv, out, trace[:cut])
    assert errors and "trace" in errors[-1]


def test_trace_edited_age(trace_call):
    argv, out, trace = trace_call
    lines = trace.split(b"\n")
    slot, age, reset = lines[12345].split(b",")
    lines[12345] = b",".join([slot, str(int(age) + 1).encode(), reset])
    errors = checks.check_simulate_trace(argv, out, b"\n".join(lines))
    assert any("slot 12344" in error for error in errors)


def test_non_deterministic_second_call():
    first = aoilink(*SWEEP_M)
    assert checks.check_same(first, aoilink(*SWEEP_M)) == []
    second = perturb(first.decode(), first.decode().index("\n", 200)).encode()
    errors = checks.check_same(first, second)
    assert errors and "differs" in errors[0]


def test_leftover_part_file(tmp_path):
    assert checks.check_no_part(tmp_path) == []
    (tmp_path / "trace.csv.part").write_text("")
    assert checks.check_no_part(tmp_path)
