"""CSV and JSON emitters for curves, simulation results, and validation
reports, plus the parsers that make the emitted artifacts round-trip.

Floats are printed with 9 significant digits, enough that parsing an
emitted file and re-emitting it reproduces the bytes exactly. Missing
fields are empty in CSV and null in JSON. The row builders reject a
non-finite value, so no emitted file carries ``nan`` or ``inf``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .sweep import TradeoffCurve

if TYPE_CHECKING:  # annotations only: importing these loads numpy
    from .simulator import SimResult
    from .validation import ValidationReport

__all__ = [
    "CURVE_FIELDS",
    "RESULT_FIELDS",
    "REPORT_FIELDS",
    "curve_rows",
    "emit_csv",
    "emit_json",
    "parse_csv",
    "parse_json",
    "rows_to_csv",
    "rows_to_json",
    "result_rows",
    "report_rows",
    "emit_result_csv",
    "emit_result_json",
    "emit_report_csv",
    "emit_report_json",
]

CURVE_FIELDS = ("label", "p", "M", "pt_dbm", "avg_energy", "avg_energy_normalized", "avg_aoi")

RESULT_FIELDS = (
    "estimator",
    "p",
    "M",
    "avg_aoi_est",
    "stderr_aoi",
    "avg_energy_est",
    "stderr_energy",
    "slots",
    "packets_generated",
    "successes",
    "seed",
)

REPORT_FIELDS = (
    "p",
    "M",
    "analytic_aoi",
    "analytic_energy",
    "slot_aoi",
    "slot_stderr_aoi",
    "slot_energy",
    "slot_stderr_energy",
    "slot_pass",
    "cycle_aoi",
    "cycle_stderr_aoi",
    "cycle_energy",
    "cycle_stderr_energy",
    "cycle_pass",
)


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _finite(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """``rows``, once every float in them is checked to be finite."""
    for row in rows:
        for name, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is {value}: the inputs are past the float range")
    return rows


def curve_rows(curves: Sequence[TradeoffCurve]) -> list[dict[str, Any]]:
    """Flatten curves into row dicts with the CURVE_FIELDS keys.

    Unnormalized curves fill ``avg_energy``; normalized curves fill
    ``avg_energy_normalized`` (their stored energies are already divided).
    """
    rows = []
    for curve in curves:
        normalized = curve.normalizer != 1.0
        for pt in curve.points:
            rows.append(
                {
                    "label": curve.label,
                    "p": pt.p,
                    "M": pt.max_tx,
                    "pt_dbm": pt.tx_power_dbm,
                    "avg_energy": None if normalized else pt.avg_energy,
                    "avg_energy_normalized": pt.avg_energy if normalized else None,
                    "avg_aoi": pt.avg_aoi,
                }
            )
            # A sum of floats is finite only if each one is; one that overflows is rechecked.
            if not math.isfinite(pt.p + pt.avg_energy + pt.avg_aoi + (pt.tx_power_dbm or 0.0)):
                _finite(rows[-1:])
    return rows


def rows_to_csv(rows: Sequence[Mapping[str, Any]], fields: Sequence[str] = CURVE_FIELDS) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_cell(row.get(name)) for name in fields])
    return buf.getvalue()


# json.dumps(..., indent=2) runs the pure-Python encoder; without an indent
# the C encoder runs, so the row indentation lives in the item separator.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))


def rows_to_json(rows: Sequence[Mapping[str, Any]], fields: Sequence[str] = CURVE_FIELDS) -> str:
    """The text of ``json.dumps(rows, indent=2) + "\\n"``, rows keyed by ``fields`` (nonempty)."""
    fields = list(fields)
    if any(type(row) is not dict or list(row) != fields for row in rows):
        rows = [{name: row.get(name) for name in fields} for row in rows]
    text = _ROW_ENCODER.encode(rows)
    # Raw newlines occur only in separators and no scalar ends in "}": a joint of two rows.
    joined = text[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    return "[\n  {\n    " + joined + "\n  }\n]\n" if rows else "[]\n"


def emit_csv(curves: Sequence[TradeoffCurve]) -> str:
    """Curves as CSV text: header row, then one row per point in curve order."""
    return rows_to_csv(curve_rows(curves))


def emit_json(curves: Sequence[TradeoffCurve]) -> str:
    """Curves as a JSON array of objects mirroring the CSV columns."""
    return rows_to_json(curve_rows(curves))


# Emitted columns that parse as other than float; ``*_pass`` columns are booleans.
_COLUMN_TYPES: dict[str, Any] = {
    "label": str,
    "M": int,
    "estimator": str,
    "slots": int,
    "packets_generated": int,
    "successes": int,
    "seed": int,
}


def _typed(name: str, text: str) -> Any:
    if text == "":
        return None
    if name.endswith("_pass"):
        return text == "true"
    return _COLUMN_TYPES.get(name, float)(text)


def parse_csv(text: str) -> list[dict[str, Any]]:
    """Parse an emitted CSV back into typed row dicts (header-driven)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV input is empty") from None
    return [
        {name: _typed(name, cell) for name, cell in zip(header, row)} for row in reader
    ]


def parse_json(text: str) -> list[dict[str, Any]]:
    """Parse an emitted JSON array back into row dicts."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("JSON input must be an array of row objects")
    return rows


def result_rows(
    result: SimResult, estimator: str, p: float, max_tx: int
) -> list[dict[str, Any]]:
    return _finite([
        {
            "estimator": estimator,
            "p": p,
            "M": max_tx,
            "avg_aoi_est": result.avg_aoi_est,
            "stderr_aoi": result.stderr_aoi,
            "avg_energy_est": result.avg_energy_est,
            "stderr_energy": result.stderr_energy,
            "slots": result.slots,
            "packets_generated": result.packets_generated,
            "successes": result.successes,
            "seed": result.seed,
        }
    ])


def emit_result_csv(result: SimResult, estimator: str, p: float, max_tx: int) -> str:
    return rows_to_csv(result_rows(result, estimator, p, max_tx), RESULT_FIELDS)


def emit_result_json(result: SimResult, estimator: str, p: float, max_tx: int) -> str:
    return rows_to_json(result_rows(result, estimator, p, max_tx), RESULT_FIELDS)


def report_rows(report: ValidationReport) -> list[dict[str, Any]]:
    rows = []
    for point in report.points:
        rows.append(
            {
                "p": point.p,
                "M": point.max_tx,
                "analytic_aoi": point.exact_aoi,
                "analytic_energy": point.exact_energy,
                "slot_aoi": point.slot.avg_aoi_est,
                "slot_stderr_aoi": point.slot.stderr_aoi,
                "slot_energy": point.slot.avg_energy_est,
                "slot_stderr_energy": point.slot.stderr_energy,
                "slot_pass": point.slot_pass,
                "cycle_aoi": point.cycle.avg_aoi_est,
                "cycle_stderr_aoi": point.cycle.stderr_aoi,
                "cycle_energy": point.cycle.avg_energy_est,
                "cycle_stderr_energy": point.cycle.stderr_energy,
                "cycle_pass": point.cycle_pass,
            }
        )
    return _finite(rows)


def emit_report_csv(report: ValidationReport) -> str:
    return rows_to_csv(report_rows(report), REPORT_FIELDS)


def emit_report_json(report: ValidationReport) -> str:
    """Validation report as JSON: per-point rows plus the global verdict."""
    payload = {
        "points": report_rows(report),
        "num_points": len(report.points),
        "num_passed": sum(1 for pt in report.points if pt.slot_pass and pt.cycle_pass),
        "passed": report.passed,
    }
    return json.dumps(payload, indent=2) + "\n"
