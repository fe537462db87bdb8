"""Benchmark of the ``aoilink`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload validate|sweep|trace --seed N --seconds S --trace 0|1

``--trace 0`` is the closed loop: one client starts ``python -m aoilink``
child after child, each only after the previous one exited, for ``S``
seconds, and checks every call. It reports the end-to-end metrics.
``--trace 1`` runs the same calls in process through ``aoilink.cli.main``,
each once untraced and once with spans around the package's public
functions, and reports the per-layer metrics.

Both print a human-readable report, a ``record`` line with the machine
facts and the workload's provenance, and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. All files go to
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 10
CALL_TIMEOUT_S = 60.0
P90_MIN_BEYOND = 10  # report a percentile only with this many samples above it


@dataclass
class CallResult:
    call: workloads.Call
    wall_s: float
    maxrss_kb: int
    code: int
    errors: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, stdout: Path) -> tuple[float, int, int, bytes]:
    """Run one child to completion with stdout in a file.

    Returns wall time from spawn to exit, the child's ``ru_maxrss`` (KiB),
    its exit code and the tail of its stderr. Output goes to a file, not a
    pipe: waiting on a child whose pipe is full would deadlock.
    """
    err_path = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(CALL_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_bytes()[-400:]
    err_path.unlink()
    return wall, usage.ru_maxrss, proc.returncode, tail


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def machine_facts() -> dict[str, object]:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def percentile_report(values: list[float]) -> dict[str, object]:
    """p50 always; p90 only when at least P90_MIN_BEYOND samples lie above it."""
    out: dict[str, object] = {"p50": statistics.median(values), "n": len(values)}
    if len(values) * 0.1 >= P90_MIN_BEYOND:
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


# ---------------------------------------------------------------------------
# Closed loop (end-to-end metrics)
# ---------------------------------------------------------------------------


def closed_loop(workload: str, seed: int, seconds: float, tmp: Path) -> dict[str, object]:
    py = sys.executable

    def import_only() -> tuple[float, int]:
        wall, rss, code, err = spawn([py, "-c", "import aoilink.cli"], tmp, tmp / "setup.out")
        if code != 0:
            raise SystemExit(f"perfbench: importing aoilink.cli failed: {err.decode(errors='replace')}")
        return wall, rss

    import_only()  # discarded: compiles the bytecode and fills the page cache
    setup: list[tuple[float, int]] = []
    rng = np.random.default_rng(seed)
    pending: list[workloads.Call] = []
    results: list[CallResult] = []
    first_bytes = b""
    start = time.perf_counter()
    while len(results) < 2 or time.perf_counter() - start < seconds:
        # Set-up samples are spread over the run, between calls, so that a
        # short slow spell of the host does not set their median.
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(import_only())
        if len(results) == 1:
            call = results[0].call  # repeat the first call for the determinism check
        else:
            pending = pending or workloads.cycle(workload, rng, tmp)
            call = pending.pop(0)
        out_path = tmp / "call.out"
        wall, rss, code, err = spawn([py, "-m", "aoilink", *call.argv], tmp, out_path)
        out = out_path.read_bytes()
        if code in call.ok_codes:
            errors = workloads.check(call, out)
        else:
            errors = [f"{call.kind}: exit {code}: {err.decode(errors='replace').strip()}"]
        errors += checks.check_no_part(tmp)
        if not results:
            first_bytes = workloads.produced(call, out)
        elif len(results) == 1 and not errors:
            errors += checks.check_same(first_bytes, workloads.produced(call, out))
        results.append(CallResult(call, wall, rss, code, errors))

    walls = [r.wall_s for r in results]
    failed = sum(bool(r.errors) for r in results)
    # Throughput of one pass over the call kinds, each kind at its median
    # wall time, so that one call slowed by the host does not move it.
    kinds = {r.call.kind: r.call.work for r in results}
    pass_s = sum(statistics.median(r.wall_s for r in results if r.call.kind == kind) for kind in kinds)
    return {
        "setup_s": [s[0] for s in setup],
        "calls": percentile_report(walls),
        "call_s": walls,
        "work_per_s": sum(kinds.values()) / pass_s,
        "peak_rss_mb": max([r.maxrss_kb for r in results] + [s[1] for s in setup]) / 1024,
        "attempted": len(results),
        "failed": failed,
        "errors": [e for r in results for e in r.errors][:20],
        "argv": [list(r.call.argv) for r in results],
    }


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)
# ---------------------------------------------------------------------------


def run_in_process(main, call: workloads.Call) -> tuple[float, int, bytes]:
    buf = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(list(call.argv))
    return time.perf_counter() - start, code, buf.getvalue().encode()


def traced_run(workload: str, seed: int, seconds: float, tmp: Path) -> dict[str, object]:
    sys.path.insert(0, str(ROOT / "src"))
    import aoilink
    import aoilink.cli

    rng = np.random.default_rng(seed)
    passes: list[dict[str, float]] = []
    attempted = failed = 0
    errors: list[str] = []
    argv: list[list[str]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # One tracer per pass bounds memory; the last pass's spans are kept.
        tracer = tracing.Tracer()
        untraced = draw = 0.0
        for call in workloads.cycle(workload, rng, tmp):
            argv.append(list(call.argv))
            wall, _, plain = run_in_process(aoilink.cli.main, call)
            untraced += wall
            plain = workloads.produced(call, plain)
            tracer.call = attempted
            restore = tracer.install(aoilink)
            try:
                _, code, out = run_in_process(tracer.wrap("cli.main", aoilink.cli.main), call)
            finally:
                restore()
            found = [] if code in call.ok_codes else [f"{call.kind}: exit {code}"]
            if not found:
                found = workloads.check(call, out)
                found += checks.check_no_part(tmp)
                found += checks.check_same(plain, workloads.produced(call, out))
            attempted += 1
            failed += bool(found)
            errors += found
        # Replay the slot estimator's draw discipline outside every span.
        for span in tracer.spans:
            if span.name == "simulator.run_slot_sim" and span.attrs["p"] is not None:
                t0 = time.perf_counter()
                np.random.default_rng(span.attrs["seed"]).random(span.attrs["slots"]) < span.attrs["p"]
                draw += time.perf_counter() - t0
        passes.append(tracing.layer_metrics(tracer.spans, draw, untraced))

    spans_path = WORKDIR / f"spans-{workload}-seed{seed}.json"
    fields = ["id", "parent", "call", "name", "start", "end", "attrs"]
    rows = [[getattr(span, name) for name in fields] for span in tracer.spans]
    spans_path.write_text(json.dumps({"fields": fields, "spans": rows}, separators=(",", ":")))
    return {
        "layers": {name: statistics.median(p[name] for p in passes) for name in tracing.LAYER_METRICS},
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "argv": argv,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report_closed_loop(workload: str, run: dict[str, object]) -> dict[str, dict[str, object]]:
    calls = run["calls"]
    setup = run["setup_s"]
    n = calls["n"]
    work_name = "points_per_s" if workload == "sweep" else "slots_per_s"
    lines = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("call_s_p50", calls["p50"], "s", n),
    ]
    if "p90" in calls:
        lines.append(("call_s_p90", calls["p90"], "s", n))
    lines.append((work_name, run["work_per_s"], "1/s", n))
    if workload == "trace":
        lines.append(("trace_rows_per_s", run["work_per_s"], "1/s", n))
    lines += [
        ("peak_rss_mb", run["peak_rss_mb"], "MB", n + len(setup)),
        ("error_rate", run["failed"] / run["attempted"], "ratio", run["attempted"]),
    ]
    for name, value, unit, count in lines:
        print(f"  {name:<18} {value:>14.6g} {unit:<6} n={count}")
    if "p90" not in calls:
        print(f"  {'call_s_p90':<18} {'omitted':>14} {'s':<6} n={n} (needs {P90_MIN_BEYOND * 10} calls)")
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "call_s_p50": {"value": calls["p50"], "unit": "s"},
        "work_per_s": {"value": run["work_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def report_traced(run: dict[str, object]) -> dict[str, dict[str, object]]:
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        value = run["layers"][name]
        print(f"  {name:<28} {value:>14.6g} {unit:<6} median of {run['passes']} passes")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the aoilink CLI.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aoilink" / "cli.py").is_file():
        print(f"perfbench: no aoilink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        runner = traced_run if args.trace else closed_loop
        run = runner(args.workload, args.seed, args.seconds, Path(tmp))

    mode = "traced, in process" if args.trace else "closed loop, 1 client"
    print(f"workload {args.workload}  seed {args.seed}  {mode}, {args.seconds:g} s  ({workloads.WHY[args.workload]})")
    metrics = report_traced(run) if args.trace else report_closed_loop(args.workload, run)
    for error in run["errors"]:
        print(f"  error: {error}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        **{key: value for key, value in run.items() if key != "layers"},
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
