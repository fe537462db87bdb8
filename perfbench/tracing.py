"""In-process span tracing around the package's public functions.

Each target is wrapped at the module attribute its caller looks up (for
example ``aoilink.validation.run_slot_sim``, which ``build_report`` calls),
so nothing inside ``src/`` changes. A span records its name, start, end,
parent span and the id of the CLI call it belongs to; spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, attribute, span name). Every binding a caller resolves at call time
# is wrapped, so a function imported into two modules is traced through both.
TARGETS = (
    ("cli", "build_report", "validation.build_report"),
    ("validation", "run_slot_sim", "simulator.run_slot_sim"),
    ("cli", "run_slot_sim", "simulator.run_slot_sim"),
    ("validation", "run_cycle_sim", "simulator.run_cycle_sim"),
    ("simulator", "sample_cycles", "simulator.sample_cycles"),
    ("simulator", "age_trace", "simulator.age_trace"),
    ("cli", "write_age_trace", "simulator.write_age_trace"),
    ("sweep", "evaluate", "analytic.evaluate"),
    ("cli", "evaluate", "analytic.evaluate"),
    ("cli", "m_sweep", "sweep.m_sweep"),
    ("sweep", "m_sweep", "sweep.m_sweep"),
    ("cli", "power_sweep", "sweep.power_sweep"),
    ("sweep", "power_sweep", "sweep.power_sweep"),
    ("cli", "es_sweep", "sweep.es_sweep"),
    ("cli", "pareto_front", "sweep.pareto_front"),
    ("cli", "emit_csv", "output.emit"),
    ("cli", "emit_json", "output.emit"),
    ("cli", "emit_result_csv", "output.emit"),
    ("cli", "emit_result_json", "output.emit"),
    ("cli", "emit_report_csv", "output.emit"),
    ("cli", "emit_report_json", "output.emit"),
)

SWEEPS = ("sweep.m_sweep", "sweep.power_sweep", "sweep.es_sweep")


def _points(curves) -> int:
    return sum(len(curve.points) for curve in curves)


def _attrs(name: str, args: tuple, result: Any) -> dict[str, Any]:
    """Counts recorded at the span boundary; kept cheap, they run inside the
    parent span."""
    if name == "simulator.run_slot_sim":
        cfg = args[0]
        return {"slots": cfg.horizon_slots, "seed": cfg.seed, "p": getattr(cfg.link, "p", None)}
    if name == "simulator.run_cycle_sim":
        return {"cycles": args[0].horizon_slots}
    if name == "simulator.write_age_trace":
        return {"bytes": os.path.getsize(args[1])}
    if name in SWEEPS:
        return {"points": _points(result)}
    if name == "sweep.pareto_front":
        return {"in": len(args[0]), "out": len(result)}
    if name == "output.emit":
        if len(args) > 1:  # emit_result_*(result, estimator, p, max_tx): one row
            rows = 1
        elif hasattr(args[0], "passed"):  # a validation report
            rows = len(args[0].points)
        else:
            rows = _points(args[0])
        return {"bytes": len(result.encode()), "rows": rows}
    if name == "validation.build_report":
        passed = sum(pt.slot_pass and pt.cycle_pass for pt in result.points)
        return {"points": len(result.points), "passed": passed}
    return {}


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls made while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.call = 0  # id of the CLI call in progress; set by the caller

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, self.call, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs = _attrs(name, args, result)
            return result

        return traced

    def install(self, package) -> Callable[[], None]:
        """Wrap every target in ``package`` (the imported ``aoilink``); returns
        the function that restores the originals."""
        saved = []
        for module_name, attr, span_name in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

        def restore() -> None:
            for module, attr, original in saved:
                setattr(module, attr, original)

        return restore


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    The program is single-threaded, so children never overlap each other.
    """
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "simulator.run_slot_sim_s": ("s", "lower"),
    "simulator.slots": ("count", "higher"),
    "simulator.slot_ns": ("ns", "lower"),
    "simulator.draw_s": ("s", "lower"),
    "simulator.slot_loop_s": ("s", "lower"),
    "simulator.sample_cycles_s": ("s", "lower"),
    "simulator.cycle_reduce_s": ("s", "lower"),
    "simulator.cycles": ("count", "higher"),
    "simulator.cycle_ns": ("ns", "lower"),
    "simulator.age_trace_s": ("s", "lower"),
    "simulator.trace_write_s": ("s", "lower"),
    "simulator.trace_bytes": ("B", "lower"),
    "analytic.evaluate_calls": ("count", "lower"),
    "analytic.evaluate_us": ("us", "lower"),
    "sweep.assembly_s": ("s", "lower"),
    "sweep.points": ("count", "higher"),
    "sweep.pareto_s": ("s", "lower"),
    "sweep.pareto_in": ("count", "higher"),
    "sweep.pareto_out": ("count", "higher"),
    "sweep.pareto_keep_ratio": ("ratio", "higher"),
    "output.emit_s": ("s", "lower"),
    "output.bytes": ("B", "lower"),
    "output.rows": ("count", "higher"),
    "validation.self_s": ("s", "lower"),
    "validation.pass_ratio": ("ratio", "higher"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list[Span], draw_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer figures for one pass over a workload's call kinds.

    ``draw_s`` is the replayed draw time of the pass's slot simulations and
    ``untraced_s`` the wall time of the same calls made without tracing.
    Counts and ratios of a layer the workload does not reach are 0.
    """
    own = self_times(spans)

    def total(name: str, key: str | None = None, self_only: bool = False) -> float:
        picked = [s for s in spans if s.name == name]
        if key is not None:
            return float(sum(s.attrs.get(key, 0) for s in picked))
        return float(sum(own[s.id] if self_only else s.duration for s in picked))

    def per(part: float, whole: float, scale: float = 1.0) -> float:
        return part / whole * scale if whole else 0.0

    ids_main = {s.id for s in spans if s.name == "cli.main"}
    slot_s, slots = total("simulator.run_slot_sim"), total("simulator.run_slot_sim", "slots")
    cycle_s, cycles = total("simulator.run_cycle_sim"), total("simulator.run_cycle_sim", "cycles")
    evaluate_calls = sum(s.name == "analytic.evaluate" for s in spans)
    pareto_in = total("sweep.pareto_front", "in")
    pareto_out = total("sweep.pareto_front", "out")
    reports = total("validation.build_report", "points")
    main_s = total("cli.main")
    return {
        "simulator.run_slot_sim_s": slot_s,
        "simulator.slots": slots,
        "simulator.slot_ns": per(slot_s, slots, 1e9),
        "simulator.draw_s": draw_s,
        "simulator.slot_loop_s": slot_s - draw_s,
        "simulator.sample_cycles_s": total("simulator.sample_cycles"),
        "simulator.cycle_reduce_s": total("simulator.run_cycle_sim", self_only=True),
        "simulator.cycles": cycles,
        "simulator.cycle_ns": per(cycle_s, cycles, 1e9),
        "simulator.age_trace_s": total("simulator.age_trace"),
        "simulator.trace_write_s": total("simulator.write_age_trace", self_only=True),
        "simulator.trace_bytes": total("simulator.write_age_trace", "bytes"),
        "analytic.evaluate_calls": float(evaluate_calls),
        "analytic.evaluate_us": per(total("analytic.evaluate"), evaluate_calls, 1e6),
        "sweep.assembly_s": sum(total(name, self_only=True) for name in SWEEPS),
        "sweep.points": float(sum(s.attrs["points"] for s in spans if s.name in SWEEPS and s.parent in ids_main)),
        "sweep.pareto_s": total("sweep.pareto_front"),
        "sweep.pareto_in": pareto_in,
        "sweep.pareto_out": pareto_out,
        "sweep.pareto_keep_ratio": per(pareto_out, pareto_in),
        "output.emit_s": total("output.emit"),
        "output.bytes": total("output.emit", "bytes"),
        "output.rows": total("output.emit", "rows"),
        "validation.self_s": total("validation.build_report", self_only=True),
        "validation.pass_ratio": per(total("validation.build_report", "passed"), reports),
        "cli.main_s": main_s,
        "cli.self_s": total("cli.main", self_only=True),
        "trace.overhead_s": main_s - untraced_s,
    }
