"""CSV and JSON emitters for curves, simulation results, and validation
reports, plus the parsers that make the emitted artifacts round-trip.

CSV floats are printed with 9 significant digits and JSON floats exactly, so an
emitted file parses and re-emits to the same bytes. Missing fields are empty in
CSV and null in JSON; a non-finite value is rejected, never printed. The curve
emitters print each distinct cell of a column once per call, and their output stays
byte-equal to ``rows_to_csv``/``rows_to_json`` over ``curve_rows``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

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


def _curve_rows(curves: Sequence[TradeoffCurve], show: Callable[[str, Sequence[Any]], list[str]],
                head: Callable[[str], str], key: Callable[[str], str], null: str, tail: str) -> list[str]:
    """Per curve that has points, the text of its rows: each row is ``head(label)``, then per
    field ``key(name)`` and the cell's text (``null`` in the energy column the curve leaves
    empty), then ``tail``. ``show(name, values)`` prints a column's values: once over its
    distinct values in all the curves, unless the column holds a zero or mixes types, whose
    equal keys print apart (0.0 and -0.0; 1, 1.0 and True). A float cell that is not finite
    raises as in curve_rows."""
    curves, columns, out = [curve for curve in curves if curve.points], [], []
    for name, cells in zip(("p", "M", "avg_aoi", "avg_energy", "pt_dbm"), zip(*[zip(*c.points) for c in curves])):
        distinct = dict.fromkeys(chain.from_iterable(cells))
        if name != "M" and not all(map(math.isfinite, [v for v in distinct if v is not None])):
            curve_rows(curves)  # raises on the first cell that is not finite, in row order
        if 0 in distinct or len(set(map(type, chain.from_iterable(cells))) - {type(None)}) > 1:
            columns.append([show(name, column) for column in cells])
        else:
            text = dict(zip(distinct, show(name, list(distinct)))).__getitem__
            columns.append([list(map(text, column)) for column in cells])
    for curve, (p, m, aoi, energy, dbm) in zip(curves, zip(*columns)):
        e, n, a = key("avg_energy"), key("avg_energy_normalized"), key("avg_aoi")
        gaps = (e, n + null + a) if curve.normalizer is None else (e + null + n, a)
        g0, g1, g2, g3, g4, g5 = map(repeat, (head(curve.label) + key("p"), key("M"), key("pt_dbm"), *gaps, tail))
        out.append("".join(chain.from_iterable(zip(g0, p, g1, m, g2, dbm, g3, energy, g4, aoi, g5))))
    return out


def _show_csv(name: str, values: Sequence[Any]) -> list[str]:
    show = _COLUMN_TYPES.get(name, _FLOAT)[0]
    return ["" if value is None else show(value) for value in values]


def emit_csv(curves: Sequence[TradeoffCurve]) -> str:
    """``rows_to_csv(curve_rows(curves))``, each distinct cell of a column printed once."""
    def label(text: str) -> str:  # the label cell, quoted as in a row
        return rows_to_csv([{"label": text}], ("label", "p")).partition("\n")[2][:-2]
    return "".join([rows_to_csv(()), *_curve_rows(curves, _show_csv, label, lambda name: ",", "", "\n")])


def emit_json(curves: Sequence[TradeoffCurve]) -> str:
    """``rows_to_json(curve_rows(curves))``, each distinct cell of a column printed once."""
    sep = _ROW_ENCODER.item_separator  # no scalar's text holds a newline, so sep splits the items
    texts = _curve_rows(curves, lambda name, values: _ROW_ENCODER.encode(values)[1:-1].split(sep),
                        lambda label: '  {\n    "label": ' + _ROW_ENCODER.encode(label),
                        (sep + '"{}": ').format, "null", "\n  },\n")
    # The last row takes no comma.
    return "".join(["[\n", *texts[:-1], texts[-1][:-2], "\n]\n"]) if texts else "[]\n"


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
