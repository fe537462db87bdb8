"""Command-line front end.

Subcommands:

- ``analytic``: evaluate one parameter combination with the closed forms.
- ``simulate``: run one Monte Carlo estimate (slot or cycle estimator).
- ``sweep m|power|es``: emit tradeoff curves for external plotting.
- ``validate``: compare both estimators against the closed forms on a grid;
  exits 1 if any grid point misses the tolerance.

Results go to stdout or ``--output`` as CSV (default) or JSON. A JSON config
file (``--config``) may supply any flag value, using the flag's long name
with dashes or underscores; explicit flags win. Exit codes: 0 success,
1 validation failure or I/O error, 2 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

from .analytic import (
    EnergyParams,
    FixedFailureLink,
    LinkSpec,
    Policy,
    PowerModel,
    RayleighLink,
    dbm_to_watts,
    evaluate,
    failure_prob,
    noise_from_reference_snr,
    transmit_energy,
)
from .output import (
    emit_csv,
    emit_json,
    emit_report_csv,
    emit_report_json,
    emit_result_csv,
    emit_result_json,
)
from .simulator import SimConfig, run_cycle_sim, run_slot_sim, write_age_trace
from .sweep import (
    MAX_GRID_POINTS,
    EsSweep,
    MSweep,
    PowerSweep,
    TradeoffCurve,
    es_sweep,
    m_sweep,
    normalize_curve,
    pareto_front,
    power_sweep,
)
from .validation import DEFAULT_MAX_TX_GRID, DEFAULT_P_GRID, build_report

__all__ = ["main", "run", "build_parser"]


class CliError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


def parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(item) for item in str(text).split(",") if item != ""]
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None
    if not values:
        raise CliError(f"{flag}: expected a comma-separated list of numbers")
    return values


def parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers where each item may be an inclusive a..b range;
    ranges are counted before expansion, to at most MAX_GRID_POINTS values."""
    values: list[int] = []
    for item in str(text).split(","):
        if item == "":
            continue
        try:
            if ".." in item:
                lo_text, hi_text = item.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise CliError(f"{flag}: empty range {item!r}")
            else:
                lo = hi = int(item)
        except ValueError:
            raise CliError(f"{flag}: cannot parse {item!r} as an integer") from None
        if len(values) + (hi - lo + 1) > MAX_GRID_POINTS:
            raise CliError(f"{flag}: more than the limit of {MAX_GRID_POINTS} values")
        values.extend(range(lo, hi + 1))
    if not values:
        raise CliError(f"{flag}: expected integers or a..b ranges")
    return values


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file supplying defaults for any flag")
    parser.add_argument("--output", "-o", help="write to this file instead of stdout")
    parser.add_argument("--format", choices=["csv", "json"], help="output format (default: csv)")


def _add_link_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, help="per-slot failure probability in [0, 1)")
    parser.add_argument("--rate", type=float, help="Rayleigh link spectral efficiency, bits/s/Hz")
    parser.add_argument("--pt-dbm", type=float, help="transmit power, dBm")
    parser.add_argument("--sigma2", type=float, help="noise power, W")
    parser.add_argument("--snr-ref-db", type=float, help="reference SNR defining the noise power, dB")
    parser.add_argument("--p-ref-dbm", type=float, help="reference power for --snr-ref-db, dBm")


def _add_energy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--es", type=float, help="sensing energy per generated packet, J")
    parser.add_argument("--et", type=float, help="transmit energy per slot, J")
    parser.add_argument("--pc", type=float, help="circuit power, W (derives --et together with --eta)")
    parser.add_argument("--eta", type=float, help="inverse amplifier drain efficiency")
    parser.add_argument("--pmax-dbm", type=float, help="amplifier power cap, dBm (default: --pt-dbm)")


def _add_power_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dbm-min", type=float, help="lowest transmit power, dBm")
    parser.add_argument("--dbm-max", type=float, help="highest transmit power, dBm")
    parser.add_argument("--dbm-step", type=float, help="grid spacing, dB")
    parser.add_argument("--rate", type=float, help="Rayleigh link spectral efficiency, bits/s/Hz")
    parser.add_argument("--snr-ref-db", type=float, help="reference SNR defining the noise power, dB")
    parser.add_argument("--p-ref-dbm", type=float, help="reference power for --snr-ref-db, dBm")
    parser.add_argument("--pc", type=float, help="circuit power, W")
    parser.add_argument("--eta", type=float, help="inverse amplifier drain efficiency")
    parser.add_argument("--pmax-dbm", type=float, help="amplifier power cap, dBm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoilink",
        description="Energy-age analysis of a status-update link with bounded retransmissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="evaluate the closed forms at one point")
    _add_link_options(p_analytic)
    p_analytic.add_argument("--M", type=int, help="maximum transmissions per packet")
    _add_energy_options(p_analytic)
    _add_output_options(p_analytic)

    p_sim = sub.add_parser("simulate", help="run one Monte Carlo estimate")
    _add_link_options(p_sim)
    p_sim.add_argument("--M", type=int, help="maximum transmissions per packet")
    _add_energy_options(p_sim)
    p_sim.add_argument("--estimator", choices=["slot", "cycle"], help="estimator (default: slot)")
    p_sim.add_argument("--seed", type=int, help="RNG seed (default: 1)")
    p_sim.add_argument("--horizon", type=int, help="slots (slot) or cycles (cycle); default 1000000")
    p_sim.add_argument("--warmup", type=int, help="discarded leading slots/cycles")
    p_sim.add_argument("--batches", type=int, help="batch count for standard errors (default: 100)")
    p_sim.add_argument("--trace", help="also write the per-slot age trace CSV here (slot only)")
    _add_output_options(p_sim)

    p_sweep = sub.add_parser("sweep", help="emit tradeoff curves")
    kind = p_sweep.add_subparsers(dest="kind", required=True)

    p_m = kind.add_parser("m", help="sweep the retransmission limit at fixed p")
    p_m.add_argument("--p", help="comma-separated failure probabilities")
    p_m.add_argument("--M", help="retransmission limits: comma list and/or a..b ranges")
    p_m.add_argument("--es", type=float, help="sensing energy, J")
    p_m.add_argument("--et", type=float, help="transmit energy per slot, J")
    p_m.add_argument("--normalizer", type=float, help="divide emitted energies by this")
    p_m.add_argument("--pareto", action="store_true", help="emit only the non-dominated points")
    _add_output_options(p_m)

    p_pw = kind.add_parser("power", help="sweep the transmit power under a Rayleigh budget")
    p_pw.add_argument("--M", help="retransmission limits: comma list and/or a..b ranges")
    p_pw.add_argument("--es", type=float, help="sensing energy, J")
    _add_power_sweep_options(p_pw)
    p_pw.add_argument("--normalizer", type=float, help="divide emitted energies by this")
    p_pw.add_argument("--pareto", action="store_true", help="emit only the non-dominated points")
    _add_output_options(p_pw)

    p_es = kind.add_parser("es", help="rerun a base sweep per sensing energy, normalized")
    p_es.add_argument("--es-list", help="comma-separated sensing energies, J")
    p_es.add_argument("--base", choices=["m", "power"], help="base sweep kind (default: m)")
    p_es.add_argument("--p", help="base m sweep: failure probabilities")
    p_es.add_argument("--M", help="retransmission limits: comma list and/or a..b ranges")
    p_es.add_argument("--et", type=float, help="base m sweep: transmit energy per slot, J")
    _add_power_sweep_options(p_es)
    p_es.add_argument(
        "--tx-ref",
        type=float,
        help="transmit-side energy added to each Es to form that curve's normalizer "
        "(default: derived from the base sweep)",
    )
    _add_output_options(p_es)

    p_val = sub.add_parser("validate", help="check both estimators against the closed forms")
    p_val.add_argument("--grid", choices=["default"], help="named grid (p x M defaults)")
    p_val.add_argument("--p", help="comma-separated failure probabilities")
    p_val.add_argument("--M", help="retransmission limits: comma list and/or a..b ranges")
    p_val.add_argument("--slots", type=int, help="slot-estimator horizon (default: 1000000)")
    p_val.add_argument("--cycles", type=int, help="cycle-estimator horizon (default: --slots)")
    p_val.add_argument("--seed", type=int, help="base RNG seed (default: 7)")
    p_val.add_argument("--es", type=float, help="sensing energy, J (default: 4.02308)")
    p_val.add_argument("--et", type=float, help="transmit energy per slot, J (default: 4.02308)")
    p_val.add_argument("--batches", type=int, help="batch count for standard errors (default: 100)")
    _add_output_options(p_val)

    return parser


_DEFAULTS: dict[str, dict[str, object]] = {
    "analytic": {"format": "csv"},
    "simulate": {
        "format": "csv",
        "estimator": "slot",
        "seed": 1,
        "horizon": 1_000_000,
        "batches": 100,
    },
    "sweep": {"format": "csv", "base": "m"},
    "validate": {
        "format": "csv",
        "p": ",".join(str(v) for v in DEFAULT_P_GRID),
        "M": ",".join(str(v) for v in DEFAULT_MAX_TX_GRID),
        "slots": 1_000_000,
        "seed": 7,
        "es": 4.02308,
        "et": 4.02308,
        "batches": 100,
    },
}


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config JSON file (flags take precedence)."""
    if getattr(args, "config", None) is None:
        return
    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"--config {args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"--config {args.config}: expected a JSON object")
    known = vars(args)
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise CliError(f"--config {args.config}: unknown key {key!r}")
        if isinstance(value, list):
            value = ",".join(str(item) for item in value)
        current = known[dest]
        if current is None or current is False:
            setattr(args, dest, value)


def _apply_defaults(args: argparse.Namespace) -> None:
    for dest, value in _DEFAULTS.get(args.command, {}).items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require(value, flag: str):
    if value is None:
        raise CliError(f"{flag} is required")
    return value


def _resolve_link(args: argparse.Namespace) -> tuple[LinkSpec, float | None]:
    """Build the link from either --p or the Rayleigh budget flags."""
    if args.p is not None:
        if args.rate is not None or args.pt_dbm is not None:
            raise CliError("give either --p or the Rayleigh flags (--rate/--pt-dbm), not both")
        return FixedFailureLink(float(args.p)), None
    if args.rate is None or args.pt_dbm is None:
        raise CliError("link needs --p, or --rate and --pt-dbm")
    if args.sigma2 is not None:
        noise = float(args.sigma2)
    else:
        if args.snr_ref_db is None or args.p_ref_dbm is None:
            raise CliError("noise power needs --sigma2, or --snr-ref-db and --p-ref-dbm")
        noise = noise_from_reference_snr(dbm_to_watts(float(args.p_ref_dbm)), float(args.snr_ref_db))
    pt_dbm = float(args.pt_dbm)
    return RayleighLink(float(args.rate), noise, dbm_to_watts(pt_dbm)), pt_dbm


def _resolve_energy(args: argparse.Namespace, pt_dbm: float | None) -> EnergyParams:
    sense = float(_require(args.es, "--es"))
    if args.et is not None:
        return EnergyParams(sense, float(args.et))
    if args.pc is None or args.eta is None:
        raise CliError("transmit energy needs --et, or --pc and --eta")
    if pt_dbm is None:
        raise CliError("--pc/--eta need --pt-dbm to derive the transmit energy")
    pmax_dbm = float(args.pmax_dbm) if args.pmax_dbm is not None else pt_dbm
    model = PowerModel(float(args.pc), float(args.eta), dbm_to_watts(pt_dbm), dbm_to_watts(pmax_dbm))
    return EnergyParams(sense, transmit_energy(model))


def _emit_curves(curves, fmt: str) -> str:
    return emit_csv(curves) if fmt == "csv" else emit_json(curves)


def _postprocess(curves, args: argparse.Namespace):
    """Apply --pareto and --normalizer to freshly swept curves."""
    if getattr(args, "pareto", False):
        points = [pt for curve in curves for pt in curve.points]
        curves = [TradeoffCurve(label="pareto", points=tuple(pareto_front(points)))]
    normalizer = getattr(args, "normalizer", None)
    if normalizer is not None:
        curves = [normalize_curve(curve, float(normalizer)) for curve in curves]
    return curves


def _handle_analytic(args) -> tuple[int, str]:
    link, pt_dbm = _resolve_link(args)
    energy = _resolve_energy(args, pt_dbm)
    point = evaluate(link, int(_require(args.M, "--M")), energy, tx_power_dbm=pt_dbm)
    curve = TradeoffCurve(label="analytic", points=(point,))
    return 0, _emit_curves([curve], args.format)


def _handle_simulate(args) -> tuple[int, str]:
    link, pt_dbm = _resolve_link(args)
    energy = _resolve_energy(args, pt_dbm)
    cfg = SimConfig(
        link=link,
        policy=Policy(int(_require(args.M, "--M"))),
        energy=energy,
        seed=int(args.seed),
        horizon_slots=int(args.horizon),
        warmup_slots=None if args.warmup is None else int(args.warmup),
        batches=int(args.batches),
    )
    if args.estimator == "cycle":
        if args.trace is not None:
            raise CliError("--trace requires the slot estimator")
        result = run_cycle_sim(cfg)
    else:
        result = run_slot_sim(cfg)
        if args.trace is not None:
            _atomic_write(args.trace, lambda tmp: write_age_trace(cfg, tmp))
    emit = emit_result_csv if args.format == "csv" else emit_result_json
    return 0, emit(result, args.estimator, failure_prob(link), cfg.policy.max_tx)


def _atomic_write(path: str, write: Callable[[str], object]) -> None:
    """Have ``write`` fill a ``.part`` file beside ``path``, then rename it
    over ``path``; on any error the ``.part`` file is removed."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".part")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _handle_sweep_m(args) -> tuple[int, str]:
    spec = MSweep(
        p_list=tuple(parse_float_list(_require(args.p, "--p"), "--p")),
        max_tx_list=tuple(parse_int_list(_require(args.M, "--M"), "--M")),
        energy=EnergyParams(float(_require(args.es, "--es")), float(_require(args.et, "--et"))),
    )
    return 0, _emit_curves(_postprocess(m_sweep(spec), args), args.format)


def _power_spec(args) -> PowerSweep:
    return PowerSweep(
        dbm_min=float(_require(args.dbm_min, "--dbm-min")),
        dbm_max=float(_require(args.dbm_max, "--dbm-max")),
        dbm_step=float(_require(args.dbm_step, "--dbm-step")),
        max_tx_list=tuple(parse_int_list(_require(args.M, "--M"), "--M")),
        rate=float(_require(args.rate, "--rate")),
        snr_ref_db=float(_require(args.snr_ref_db, "--snr-ref-db")),
        ref_power_dbm=float(_require(args.p_ref_dbm, "--p-ref-dbm")),
        sense_energy=float(_require(args.es, "--es")),
        circuit_power=float(_require(args.pc, "--pc")),
        inv_drain_eff=float(_require(args.eta, "--eta")),
        max_power=dbm_to_watts(float(_require(args.pmax_dbm, "--pmax-dbm"))),
    )


def _handle_sweep_power(args) -> tuple[int, str]:
    return 0, _emit_curves(_postprocess(power_sweep(_power_spec(args)), args), args.format)


def _handle_sweep_es(args) -> tuple[int, str]:
    es_list = tuple(parse_float_list(_require(args.es_list, "--es-list"), "--es-list"))
    if args.base == "m":
        base = MSweep(
            p_list=tuple(parse_float_list(_require(args.p, "--p"), "--p")),
            max_tx_list=tuple(parse_int_list(_require(args.M, "--M"), "--M")),
            energy=EnergyParams(0.0, float(_require(args.et, "--et"))),
        )
    else:
        args.es = 0.0  # placeholder; replaced per sweep entry
        base = _power_spec(args)
    spec = EsSweep(es_list=es_list, base=base, normalizer=args.tx_ref)
    return 0, _emit_curves(es_sweep(spec), args.format)


def _handle_validate(args) -> tuple[int, str]:
    slots = int(args.slots)
    cycles = int(args.cycles) if args.cycles is not None else slots
    report = build_report(
        p_values=parse_float_list(args.p, "--p"),
        max_tx_values=parse_int_list(args.M, "--M"),
        energy=EnergyParams(float(args.es), float(args.et)),
        slots=slots,
        cycles=cycles,
        seed=int(args.seed),
        batches=int(args.batches),
    )
    emit = emit_report_csv if args.format == "csv" else emit_report_json
    return (0 if report.passed else 1), emit(report)


def _dispatch(args: argparse.Namespace) -> tuple[int, str]:
    if args.command == "analytic":
        return _handle_analytic(args)
    if args.command == "simulate":
        return _handle_simulate(args)
    if args.command == "sweep":
        handler = {"m": _handle_sweep_m, "power": _handle_sweep_power, "es": _handle_sweep_es}
        return handler[args.kind](args)
    return _handle_validate(args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _merge_config(args)
        _apply_defaults(args)
        code, text = _dispatch(args)
    except (CliError, ValueError) as exc:
        print(f"aoilink: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"aoilink: error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.output is None:
            sys.stdout.write(text)
        else:
            _atomic_write(args.output, lambda tmp: Path(tmp).write_text(text))
    except OSError as exc:
        print(f"aoilink: error: {exc}", file=sys.stderr)
        return 1
    return code


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
