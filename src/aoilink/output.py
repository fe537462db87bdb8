"""CSV and JSON emitters for curves, simulation results, and validation
reports, plus the parsers that make the emitted artifacts round-trip.

CSV floats are printed with 9 significant digits and JSON floats exactly, so an
emitted file parses and re-emits to the same bytes. Missing fields are empty in
CSV and null in JSON; a non-finite value is rejected, never printed. Curves render
from one row format per curve, byte-equal to ``rows_to_csv``/``rows_to_json`` over ``curve_rows``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .sweep import _FLOAT_FORMAT, TradeoffCurve

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


# Each cell type as (printer, parser) of a cell that is not empty; None
# prints as an empty cell, and an empty cell parses as None.
_STR = (str, str)
_INT = (str, int)
_BOOL = (lambda value: "true" if value else "false", lambda text: text == "true")
_FLOAT = (_FLOAT_FORMAT.format, float)

# The type of each emitted column that does not hold floats; every other
# column of the three field tuples holds floats.
_COLUMN_TYPES = {
    "label": _STR,
    "estimator": _STR,
    "M": _INT,
    "slots": _INT,
    "packets_generated": _INT,
    "successes": _INT,
    "seed": _INT,
    "slot_pass": _BOOL,
    "cycle_pass": _BOOL,
}


def _finite(rows: list[dict[str, Any]], fields: Sequence[str]) -> list[dict[str, Any]]:
    """``rows``, once every cell of their float columns is checked to be finite."""
    floats = [name for name in fields if name not in _COLUMN_TYPES]
    for row in rows:
        for name in floats:
            value = row[name]
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} is {value}: the inputs are past the float range")
    return rows


def curve_rows(curves: Sequence[TradeoffCurve]) -> list[dict[str, Any]]:
    """Flatten curves into row dicts with the CURVE_FIELDS keys.

    Unnormalized curves fill ``avg_energy``; normalized curves fill
    ``avg_energy_normalized`` (their stored energies are already divided).
    """
    rows = []
    for curve in curves:
        normalized = curve.normalizer is not None
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
    return _finite(rows, CURVE_FIELDS)


def rows_to_csv(rows: Sequence[Mapping[str, Any]], fields: Sequence[str] = CURVE_FIELDS) -> str:
    printers = [(name, _COLUMN_TYPES.get(name, _FLOAT)[0]) for name in fields]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(["" if (value := row.get(name)) is None else show(value) for name, show in printers])
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


def _curve_columns(curves: Sequence[TradeoffCurve]) -> list[tuple[str, str, list[tuple[Any, ...]]]]:
    """Per curve that has points: its label, the energy column it leaves empty, and its p, M,
    pt_dbm, energy and age columns. A float cell that is not finite raises as in curve_rows."""
    out = [(curve.label, "avg_energy" if curve.normalizer is not None else "avg_energy_normalized",
            list(zip(*[(pt.p, pt.max_tx, pt.tx_power_dbm, pt.avg_energy, pt.avg_aoi) for pt in curve.points])))
           for curve in curves if curve.points]
    if not all(all(map(math.isfinite, [v for v in column if v is not None]))
               for *_, (p, _m, dbm, energy, aoi) in out for column in (p, dbm, energy, aoi)):
        curve_rows(curves)  # raises on the first cell that is not finite, in row order
    return out


def emit_csv(curves: Sequence[TradeoffCurve]) -> str:
    """``rows_to_csv(curve_rows(curves))``, each curve's rows from one row format."""
    out = [rows_to_csv(())]
    for label, empty, columns in _curve_columns(curves):
        head = rows_to_csv([{"label": label}], ("label", "p")).partition("\n")[2][:-1]  # the label cell, a comma
        row = ",".join("" if name == empty else "{}" for name in CURVE_FIELDS[1:]) + "\n"
        shows = [_COLUMN_TYPES.get(name, _FLOAT)[0] for name in CURVE_FIELDS[1:] if name != empty]
        cells = [["" if v is None else show(v) for v in column] for show, column in zip(shows, columns)]
        out.append(head + head.join(map(row.format, *cells)))
    return "".join(out)


def emit_json(curves: Sequence[TradeoffCurve]) -> str:
    """``rows_to_json(curve_rows(curves))``, each curve's rows from one row format."""
    sep, texts = _ROW_ENCODER.item_separator, []
    for label, empty, columns in _curve_columns(curves):
        head = '  {\n    "label": ' + _ROW_ENCODER.encode(label) + sep
        row = sep.join(f'"{name}": ' + ("null" if name == empty else "{}") for name in CURVE_FIELDS[1:]) + "\n  }}"
        cells = [_ROW_ENCODER.encode(column)[1:-1].split(sep) for column in columns]  # no scalar's text holds a newline
        texts.append(head + (",\n" + head).join(map(row.format, *cells)))
    return "[\n" + ",\n".join(texts) + "\n]\n" if texts else "[]\n"


def parse_csv(text: str) -> list[dict[str, Any]]:
    """Parse an emitted CSV back into typed row dicts (header-driven)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV input is empty") from None
    parsers = [_COLUMN_TYPES.get(name, _FLOAT)[1] for name in header]
    return [
        {name: None if cell == "" else parse(cell) for name, parse, cell in zip(header, parsers, row)}
        for row in reader
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
    ], RESULT_FIELDS)


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
    return _finite(rows, REPORT_FIELDS)


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
