"""CSV and JSON emitters for curves, simulation results, and validation
reports, plus the parsers that make the emitted artifacts round-trip.

CSV floats are printed with 9 significant digits and JSON floats exactly, so an
emitted file parses and re-emits to the same bytes. Missing fields are empty in
CSV and null in JSON; a non-finite value is rejected, never printed. Every table
(curves, results, reports, and row dicts) is rendered from its columns by one
renderer, which prints each distinct cell of a column once per call; its text is
that of ``csv.writer`` and of ``json.dumps(rows, indent=2)`` over the row dicts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Mapping, Sequence
from itertools import chain, repeat

from .sweep import _FLOAT_FORMAT, TradeoffCurve

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


def _quote(text: object) -> str:
    """``text`` as csv.writer prints it inside a row, quoted where that writer quotes it (which
    varies with the Python version: 3.13 quotes a carriage return, 3.12 does not)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


# Each cell type as (CSV printer, parser) of a cell that is not empty; None
# prints as an empty cell, and an empty cell parses as None.
_STR = (_quote, str)
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

# json.dumps(..., indent=2) runs the pure-Python encoder; without an indent
# the C encoder runs, so the row indentation lives in the item separator.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))


def _cells(fmt: str, name: str, values: Sequence[object]) -> list[str]:
    """The text of each of ``values``, cells of the column ``name``."""
    if fmt == "json":  # no scalar's text holds a raw newline, so the item separator splits the items
        return _ROW_ENCODER.encode(values)[1:-1].split(_ROW_ENCODER.item_separator)
    show = _COLUMN_TYPES.get(name, _FLOAT)[0]
    return ["" if value is None else show(value) for value in values]


def _render(fields: Sequence[str], columns: Sequence[Sequence[object]], fmt: str) -> str:
    """The table whose k-th column holds the cells of ``fields[k]`` (None where missing), as
    ``csv.writer`` writes it (``fmt`` "csv") or as ``json.dumps(rows, indent=2) + "\\n"`` of
    its row dicts (``fmt`` "json"). A column prints once over its distinct cells, unless it
    holds a zero or mixes types, whose equal cells print apart (0.0 and -0.0; 1, 1.0, True)."""
    if fmt == "csv":
        head, keys, end, last = ",".join(fields) + "\n", ["", *[","] * (len(fields) - 1)], "\n", "\n"
    else:
        sep = _ROW_ENCODER.item_separator
        keys = [(sep if k else "  {\n    ") + _ROW_ENCODER.encode(name) + ": " for k, name in enumerate(fields)]
        head, end, last = "[\n", "\n  },\n", "\n  }\n]\n"  # the last row takes no comma
    if not columns[0]:
        return head if fmt == "csv" else "[]\n"
    texts = []
    for name, column in zip(fields, columns):
        distinct = dict.fromkeys(column)
        if 0 in distinct or len(set(map(type, column)) - {type(None)}) > 1:
            texts.append(_cells(fmt, name, column))
        else:
            texts.append(map(dict(zip(distinct, _cells(fmt, name, list(distinct)))).__getitem__, column))
    # Each row's end and the next row's first key are one piece.
    pieces = [head + keys[0]]
    pieces += chain.from_iterable(zip(*chain.from_iterable(zip(texts, map(repeat, [*keys[1:], end + keys[0]])))))
    pieces[-1] = last
    return "".join(pieces)


def _checked(fields: Sequence[str], columns: list[Sequence[object]]) -> list[Sequence[object]]:
    """``columns``, once every cell of their float columns is checked to be finite; the
    first cell that is not, in row order, raises."""
    floats = [(name, column) for name, column in zip(fields, columns) if name not in _COLUMN_TYPES]
    if not all(math.isfinite(sum(filter(None, column))) for _, column in floats):  # a sum may overflow
        for row in zip(*[column for _, column in floats]):
            for (name, _), value in zip(floats, row):
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{name} is {value}: the inputs are past the float range")
    return columns


def _dicts(fields: Sequence[str], columns: Sequence[Sequence[object]]) -> list[dict[str, object]]:
    return [dict(zip(fields, row)) for row in zip(*columns)]


def _curve_columns(curves: Sequence[TradeoffCurve]) -> list[Sequence[object]]:
    """The CURVE_FIELDS columns of ``curves``. Unnormalized curves fill ``avg_energy``;
    normalized curves fill ``avg_energy_normalized`` (their stored energies are already
    divided)."""
    columns = [[] for _ in CURVE_FIELDS]
    for curve in curves:
        if curve.points:
            p, m, aoi, energy, dbm = zip(*curve.points)
            blank = (None,) * len(p)
            energies = (energy, blank) if curve.normalizer is None else (blank, energy)
            for column, cells in zip(columns, ((curve.label,) * len(p), p, m, dbm, *energies, aoi)):
                column += cells
    return _checked(CURVE_FIELDS, columns)


def curve_rows(curves: Sequence[TradeoffCurve]) -> list[dict[str, object]]:
    """Flatten curves into row dicts with the CURVE_FIELDS keys."""
    return _dicts(CURVE_FIELDS, _curve_columns(curves))


def rows_to_csv(rows: Sequence[Mapping[str, object]], fields: Sequence[str] = CURVE_FIELDS) -> str:
    return _render(fields, [[row.get(name) for row in rows] for name in fields], "csv")


def rows_to_json(rows: Sequence[Mapping[str, object]], fields: Sequence[str] = CURVE_FIELDS) -> str:
    """The text of ``json.dumps(rows, indent=2) + "\\n"``, rows keyed by ``fields`` (nonempty)."""
    return _render(fields, [[row.get(name) for row in rows] for name in fields], "json")


def emit_csv(curves: Sequence[TradeoffCurve]) -> str:
    return _render(CURVE_FIELDS, _curve_columns(curves), "csv")


def emit_json(curves: Sequence[TradeoffCurve]) -> str:
    return _render(CURVE_FIELDS, _curve_columns(curves), "json")


def parse_csv(text: str) -> list[dict[str, object]]:
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


def parse_json(text: str) -> list[dict[str, object]]:
    """Parse an emitted JSON array back into row dicts."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("JSON input must be an array of row objects")
    return rows


def _result_columns(result: SimResult, estimator: str, p: float, max_tx: int) -> list[Sequence[object]]:
    cells = (estimator, p, max_tx, result.avg_aoi_est, result.stderr_aoi, result.avg_energy_est,
             result.stderr_energy, result.slots, result.packets_generated, result.successes, result.seed)
    return _checked(RESULT_FIELDS, [(cell,) for cell in cells])


def result_rows(result: SimResult, estimator: str, p: float, max_tx: int) -> list[dict[str, object]]:
    return _dicts(RESULT_FIELDS, _result_columns(result, estimator, p, max_tx))


def emit_result_csv(result: SimResult, estimator: str, p: float, max_tx: int) -> str:
    return _render(RESULT_FIELDS, _result_columns(result, estimator, p, max_tx), "csv")


def emit_result_json(result: SimResult, estimator: str, p: float, max_tx: int) -> str:
    return _render(RESULT_FIELDS, _result_columns(result, estimator, p, max_tx), "json")


def _report_columns(report: ValidationReport) -> list[Sequence[object]]:
    rows = [
        (pt.p, pt.max_tx, pt.exact_aoi, pt.exact_energy,
         pt.slot.avg_aoi_est, pt.slot.stderr_aoi, pt.slot.avg_energy_est, pt.slot.stderr_energy, pt.slot_pass,
         pt.cycle.avg_aoi_est, pt.cycle.stderr_aoi, pt.cycle.avg_energy_est, pt.cycle.stderr_energy, pt.cycle_pass)
        for pt in report.points
    ]
    return _checked(REPORT_FIELDS, [*zip(*rows)] or [()] * len(REPORT_FIELDS))


def report_rows(report: ValidationReport) -> list[dict[str, object]]:
    return _dicts(REPORT_FIELDS, _report_columns(report))


def emit_report_csv(report: ValidationReport) -> str:
    return _render(REPORT_FIELDS, _report_columns(report), "csv")


def emit_report_json(report: ValidationReport) -> str:
    """Validation report as JSON: per-point rows plus the global verdict."""
    points = _render(REPORT_FIELDS, _report_columns(report), "json")
    passed = sum(1 for pt in report.points if pt.slot_pass and pt.cycle_pass)
    verdict = json.dumps({"num_points": len(report.points), "num_passed": passed, "passed": report.passed}, indent=2)
    # json.dumps(..., indent=2) of {"points": rows, **verdict}: the rows indented one level.
    return '{\n  "points": ' + points[:-1].replace("\n", "\n  ") + "," + verdict[1:] + "\n"
