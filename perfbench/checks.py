"""Correctness checks for one CLI call, written independently of ``aoilink``.

Every checker takes the argv the program saw and the bytes it produced and
returns a list of error strings; an empty list means the call is correct.
The closed forms below are the model's published formulas (README "Model
summary"), evaluated here with numpy so that nothing is imported from the
package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

ROW_RTOL = 1e-8  # swept and analytic rows against the harness closed form
EST_SIGMAS = 6.0  # Monte Carlo estimates: max(6 sigma, 0.5 %) of the closed form
EST_FLOOR = 0.005
TIE_RTOL = 1e-12  # Pareto: coordinates closer than this are treated as one point

# Program defaults that the workload argv relies on (documented CLI defaults).
VALIDATE_P = (0.1, 0.4, 0.7)
VALIDATE_M = (1, 3, 6)
VALIDATE_ES = VALIDATE_ET = 4.02308
VALIDATE_SLOTS = 1_000_000


# ---------------------------------------------------------------------------
# argv helpers
# ---------------------------------------------------------------------------


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def float_list(text: str) -> list[float]:
    return [float(item) for item in text.split(",") if item]


def int_list(text: str) -> list[int]:
    values: list[int] = []
    for item in text.split(","):
        if ".." in item:
            lo, hi = item.split("..")
            values.extend(range(int(lo), int(hi) + 1))
        elif item:
            values.append(int(item))
    return values


def dbm_grid(argv: list[str]) -> np.ndarray:
    lo, hi, step = (float(flag(argv, f)) for f in ("--dbm-min", "--dbm-max", "--dbm-step"))
    count = math.floor((hi - lo) / step + 1e-6) + 1
    return np.array([lo + i * step for i in range(count)])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def closed_form(p, m, es, et) -> tuple[np.ndarray, np.ndarray]:
    """Average age and average energy per slot, vectorised over p and M.

    ``p**M`` and ``1 - p**M`` come from ``exp``/``expm1`` of ``M log p`` so
    that p near 1 keeps full relative precision.
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    with np.errstate(divide="ignore"):
        mlogp = m * np.log(p)
    pm, comp = np.exp(mlogp), -np.expm1(mlogp)
    aoi = (3.0 + p) / (2.0 * (1.0 - p)) - m * pm / comp
    energy = (1.0 - p) / comp * es + et
    return aoi, energy


def dbm_to_watts(dbm):
    return 10.0 ** ((np.asarray(dbm, dtype=float) - 30.0) / 10.0)


def rayleigh(argv: list[str], dbm) -> tuple[np.ndarray, np.ndarray]:
    """Failure probability and transmit energy at each power under the
    Rayleigh budget and amplifier model named in argv."""
    rate = float(flag(argv, "--rate"))
    noise = dbm_to_watts(float(flag(argv, "--p-ref-dbm"))) / 10.0 ** (float(flag(argv, "--snr-ref-db")) / 10.0)
    pt = dbm_to_watts(dbm)
    p = -np.expm1(-(2.0**rate - 1.0) * noise / pt)
    et = float(flag(argv, "--pc")) + float(flag(argv, "--eta")) * pt
    return p, et


def power_grid(argv: list[str], es: float) -> dict[str, np.ndarray]:
    """Every point of a power sweep, in the program's order (M outer, ascending
    power inner)."""
    grid = dbm_grid(argv)
    ms = np.array(sorted(int_list(flag(argv, "--M"))))
    dbm = np.tile(grid, ms.size)
    m = np.repeat(ms, grid.size)
    p, et = rayleigh(argv, dbm)
    aoi, energy = closed_form(p, m, es, et)
    return {"dbm": dbm, "M": m, "p": p, "aoi": aoi, "energy": energy}


# ---------------------------------------------------------------------------
# Parsing and comparison
# ---------------------------------------------------------------------------


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def column(rows, name: str) -> np.ndarray:
    return np.array([float(row[name]) for row in rows])


def mismatch(what: str, got, want, rtol: float = ROW_RTOL) -> list[str]:
    """Report the first row where ``got`` differs from ``want`` by more than rtol."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: {got.size} values, expected {want.size}"]
    bad = np.flatnonzero(~(np.abs(got - want) <= rtol * np.abs(want)))
    if bad.size:
        i = int(bad[0])
        return [f"{what}: row {i} is {got[i]!r}, closed form {want[i]!r} ({bad.size} rows off)"]
    return []


def within_estimate(what: str, est, err, exact) -> list[str]:
    est, err, exact = (np.asarray(a, dtype=float) for a in (est, err, exact))
    tol = np.maximum(EST_SIGMAS * err, EST_FLOOR * np.abs(exact))
    bad = np.flatnonzero(~(np.abs(est - exact) <= tol))
    if bad.size:
        i = int(bad[0])
        return [f"{what}: row {i} estimate {est[i]!r} vs closed form {exact[i]!r} (tolerance {tol[i]:.3g})"]
    return []


# ---------------------------------------------------------------------------
# Checkers, one per call kind
# ---------------------------------------------------------------------------


def check_sweep_m(argv: list[str], out: bytes) -> list[str]:
    rows = csv_rows(out.decode())
    ps = float_list(flag(argv, "--p"))
    ms = sorted(int_list(flag(argv, "--M")))
    es, et = float(flag(argv, "--es")), float(flag(argv, "--et"))
    if len(rows) != len(ps) * len(ms):
        return [f"sweep m: {len(rows)} rows, expected {len(ps) * len(ms)}"]
    p = np.repeat(ps, len(ms))
    m = np.tile(ms, len(ps))
    aoi, energy = closed_form(p, m, es, et)
    errors = mismatch("sweep m p", column(rows, "p"), p)
    errors += mismatch("sweep m M", column(rows, "M"), m, rtol=0.0)
    errors += mismatch("sweep m avg_aoi", column(rows, "avg_aoi"), aoi)
    errors += mismatch("sweep m avg_energy", column(rows, "avg_energy"), energy)
    return errors


def check_sweep_es(argv: list[str], out: bytes) -> list[str]:
    rows = json.loads(out)
    es_list = float_list(flag(argv, "--es-list"))
    tx_ref = float(flag(argv, "--pc")) + float(flag(argv, "--eta")) * float(dbm_to_watts(float(flag(argv, "--pmax-dbm"))))
    want = {key: [] for key in ("dbm", "M", "p", "aoi", "energy")}
    for es in es_list:
        grid = power_grid(argv, es)
        grid["energy"] = grid["energy"] / (es + tx_ref)
        for key in want:
            want[key].append(grid[key])
    want = {key: np.concatenate(parts) for key, parts in want.items()}
    if len(rows) != want["M"].size:
        return [f"sweep es: {len(rows)} rows, expected {want['M'].size}"]
    if any(row["avg_energy"] is not None for row in rows):
        return ["sweep es: avg_energy must be null on normalized curves"]
    errors = mismatch("sweep es pt_dbm", [row["pt_dbm"] for row in rows], want["dbm"])
    errors += mismatch("sweep es M", [row["M"] for row in rows], want["M"], rtol=0.0)
    errors += mismatch("sweep es p", [row["p"] for row in rows], want["p"])
    errors += mismatch("sweep es avg_aoi", [row["avg_aoi"] for row in rows], want["aoi"])
    errors += mismatch(
        "sweep es avg_energy_normalized", [row["avg_energy_normalized"] for row in rows], want["energy"]
    )
    return errors


def dominated(energy, aoi, e_all, a_all, rtol: float = 0.0, chunk: int = 512) -> np.ndarray:
    """For each point (energy[i], aoi[i]), whether some point of (e_all, a_all)
    is no worse in both coordinates and better in one, both by more than rtol
    (relative). Coordinates are positive; both are minimised."""
    out = np.zeros(energy.size, dtype=bool)
    for lo in range(0, energy.size, chunk):
        e, a = energy[lo : lo + chunk, None], aoi[lo : lo + chunk, None]
        no_worse = (e_all <= e * (1 + rtol)) & (a_all <= a * (1 + rtol))
        better = (e_all < e * (1 - rtol)) | (a_all < a * (1 - rtol))
        out[lo : lo + chunk] = (no_worse & better).any(axis=1)
    return out


def pareto_indices(energy: np.ndarray, aoi: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated points; among exact duplicates only the
    earliest index survives."""
    _, first = np.unique(np.stack([energy, aoi], axis=1), axis=0, return_index=True)
    earliest = np.zeros(energy.size, dtype=bool)
    earliest[first] = True
    return np.flatnonzero(earliest & ~dominated(energy, aoi, energy, aoi))


def _near(e1, a1, e2, a2) -> np.ndarray:
    """Pairwise near-equality of points (rows: first set, columns: second)."""
    return (np.abs(e1[:, None] - e2[None, :]) <= TIE_RTOL * np.abs(e1[:, None])) & (
        np.abs(a1[:, None] - a2[None, :]) <= TIE_RTOL * np.abs(a1[:, None])
    )


def check_sweep_power_pareto(argv: list[str], out: bytes) -> list[str]:
    rows = json.loads(out)
    swept = power_grid(argv, float(flag(argv, "--es")))
    if not rows:
        return ["pareto: no points emitted"]
    ms = sorted(int_list(flag(argv, "--M")))
    grid = dbm_grid(argv)
    index = []
    for row in rows:
        near = np.flatnonzero(np.abs(grid - row["pt_dbm"]) <= 1e-9)
        if row["M"] not in ms or near.size != 1:
            return [f"pareto: emitted point M={row['M']} pt_dbm={row['pt_dbm']} is not on the swept grid"]
        index.append(ms.index(row["M"]) * grid.size + int(near[0]))
    index = np.array(index)
    if np.unique(index).size != index.size:
        return ["pareto: a swept point is emitted twice"]
    e_out = np.array([row["avg_energy"] for row in rows], dtype=float)
    a_out = np.array([row["avg_aoi"] for row in rows], dtype=float)
    errors = mismatch("pareto p", [row["p"] for row in rows], swept["p"][index])
    errors += mismatch("pareto avg_energy", e_out, swept["energy"][index])
    errors += mismatch("pareto avg_aoi", a_out, swept["aoi"][index])
    if np.any(np.diff(e_out) < 0):
        errors.append("pareto: points are not sorted by avg_energy")

    e_all, a_all = swept["energy"], swept["aoi"]
    # No emitted point may be dominated by any swept point beyond rounding.
    bad = np.flatnonzero(dominated(e_out, a_out, e_all, a_all, TIE_RTOL))
    if bad.size:
        i = int(bad[0])
        errors.append(f"pareto: emitted point {i} (M={rows[i]['M']}, pt_dbm={rows[i]['pt_dbm']}) is dominated")
    # Every non-dominated swept point must be emitted (earliest of exact twins);
    # a near-equal emitted point stands in for one that differs only by rounding.
    expected = pareto_indices(e_all, a_all)
    missing = np.setdiff1d(expected, index)
    if missing.size:
        covered = _near(e_all[missing], a_all[missing], e_out, a_out).any(axis=1)
        if not covered.all():
            i = int(missing[~covered][0])
            errors.append(
                f"pareto: non-dominated point M={int(swept['M'][i])} pt_dbm={swept['dbm'][i]!r} "
                f"is missing ({int((~covered).sum())} missing)"
            )
    extra = np.setdiff1d(index, expected)
    if extra.size and not _near(e_all[extra], a_all[extra], e_all[expected], a_all[expected]).any(axis=1).all():
        errors.append("pareto: an emitted point is not on the front")
    return errors


def check_validate(argv: list[str], out: bytes) -> list[str]:
    """Check a validation report against the closed forms. The program's own
    pass/fail verdict is not judged: a 3-sigma miss is not a defect."""
    rows = csv_rows(out.decode())
    ps = float_list(flag(argv, "--p", ",".join(map(str, VALIDATE_P))))
    ms = int_list(flag(argv, "--M", ",".join(map(str, VALIDATE_M))))
    es = float(flag(argv, "--es", str(VALIDATE_ES)))
    et = float(flag(argv, "--et", str(VALIDATE_ET)))
    if len(rows) != len(ps) * len(ms):
        return [f"validate: {len(rows)} rows, expected {len(ps) * len(ms)}"]
    p = np.repeat(ps, len(ms))
    m = np.tile(ms, len(ps))
    aoi, energy = closed_form(p, m, es, et)
    errors = mismatch("validate p", column(rows, "p"), p)
    errors += mismatch("validate M", column(rows, "M"), m, rtol=0.0)
    errors += mismatch("validate analytic_aoi", column(rows, "analytic_aoi"), aoi)
    errors += mismatch("validate analytic_energy", column(rows, "analytic_energy"), energy)
    for est in ("slot", "cycle"):
        errors += within_estimate(
            f"validate {est}_aoi", column(rows, f"{est}_aoi"), column(rows, f"{est}_stderr_aoi"), aoi
        )
        errors += within_estimate(
            f"validate {est}_energy", column(rows, f"{est}_energy"), column(rows, f"{est}_stderr_energy"), energy
        )
    verdicts = [row[f"{est}_pass"] for row in rows for est in ("slot", "cycle")]
    if set(verdicts) - {"true", "false"}:
        errors.append("validate: pass columns must be true or false")
    return errors


def default_warmup(horizon: int) -> int:
    warmup = max(1000, horizon // 100)
    return horizon // 10 if warmup >= horizon else warmup


def check_simulate_trace(argv: list[str], out: bytes, trace: bytes) -> list[str]:
    """Check a slot-estimator result and its per-slot trace against each other.

    The trace's ``age`` column is the age at slot end, so the previous row's
    age is the next slot's start age; the post-warmup mean of start ages plus
    one half must print as the reported ``avg_aoi_est``.
    """
    rows = csv_rows(out.decode())
    if len(rows) != 1:
        return [f"simulate: {len(rows)} result rows, expected 1"]
    row = rows[0]
    p, m = float(flag(argv, "--p")), int(flag(argv, "--M"))
    es, et = float(flag(argv, "--es")), float(flag(argv, "--et"))
    n = int(flag(argv, "--horizon"))
    warmup = int(flag(argv, "--warmup", str(default_warmup(n))))
    aoi, energy = closed_form(p, m, es, et)
    errors = mismatch("simulate p", [float(row["p"])], [p])
    if int(row["slots"]) != n or int(row["M"]) != m:
        errors.append(f"simulate: slots={row['slots']} M={row['M']}, expected {n} and {m}")
    errors += within_estimate("simulate avg_aoi_est", [float(row["avg_aoi_est"])], [float(row["stderr_aoi"])], [aoi])
    errors += within_estimate(
        "simulate avg_energy_est", [float(row["avg_energy_est"])], [float(row["stderr_energy"])], [energy]
    )

    header, _, body = trace.partition(b"\n")
    if header != b"slot,age,reset":
        return errors + [f"trace: header {header[:40]!r}"]
    try:
        cells = np.array(body.replace(b"\n", b",").split(b",")[:-1], dtype=np.int64)
    except ValueError:
        return errors + ["trace: non-integer cell"]
    if cells.size != 3 * n or not body.endswith(b"\n"):
        return errors + [f"trace: {cells.size / 3:g} rows, expected {n}"]
    slot, age, reset = cells.reshape(n, 3).T
    if not (np.array_equal(slot, np.arange(n)) and np.isin(reset, (0, 1)).all()):
        return errors + ["trace: slot column is not 0..n-1 or reset is not 0/1"]
    # Replay the transitions the reset column implies: k slots since the last
    # delivery; a packet is sensed when k % M == 0 and delivered with k % M + 1
    # transmissions.
    idx = np.arange(n)
    last = np.maximum.accumulate(np.where(reset == 1, idx, -1))
    k = idx - np.concatenate(([-1], last[:-1])) - 1
    start = np.concatenate(([0], age[:-1]))
    want_age = np.where(reset == 1, k % m + 1, start + 1)
    bad = np.flatnonzero(age != want_age)
    if bad.size:
        errors.append(f"trace: slot {int(bad[0])} age {int(age[bad[0]])}, transitions give {int(want_age[bad[0]])}")
    kept = n - warmup
    age_sum = int(start[warmup:].sum())
    senses = int((k[warmup:] % m == 0).sum())
    if format((age_sum + 0.5 * kept) / kept, ".9g") != row["avg_aoi_est"]:
        errors.append(f"trace: start-age mean gives {(age_sum + 0.5 * kept) / kept:.9g}, program printed {row['avg_aoi_est']}")
    if format(et + es * (senses / kept), ".9g") != row["avg_energy_est"]:
        errors.append(f"trace: sensing count gives energy {et + es * (senses / kept):.9g}, program printed {row['avg_energy_est']}")
    if int(reset.sum()) != int(row["successes"]) or int((k % m == 0).sum()) != int(row["packets_generated"]):
        errors.append("trace: deliveries or sensing events disagree with the result row")
    return errors


def check_same(first: bytes, second: bytes) -> list[str]:
    """Determinism: a repeated call must reproduce the first call's bytes."""
    if first == second:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, second)) if a != b), min(len(first), len(second)))
    return [f"repeat call differs from the first at byte {at} ({len(first)} vs {len(second)} bytes)"]


def check_no_part(directory: Path) -> list[str]:
    left = sorted(path.name for path in directory.glob("*.part"))
    return [f"leftover partial files: {left}"] if left else []
