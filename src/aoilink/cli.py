"""Command-line front end.

Subcommands:

- ``analytic``: evaluate one parameter combination with the closed forms.
- ``simulate``: run one Monte Carlo estimate (slot or cycle estimator).
- ``sweep m|power|es``: emit tradeoff curves for external plotting.
- ``validate``: compare both estimators against the closed forms on a grid;
  exits 1 if any grid point misses the tolerance.

Results go to stdout or ``--output`` as CSV (default) or JSON. A JSON config
file (``--config``) may supply any flag value, keyed by the flag's long name
with dashes or underscores; argparse parses it as that flag, and explicit
flags win. Exit codes: 0 success, 1 validation failure, I/O error or numpy
missing for ``simulate``/``validate``, 2 bad configuration or usage.

``analytic`` and ``sweep`` run on the closed forms alone and never import
numpy: the package's numpy-side names (``SimConfig``, ``run_slot_sim``,
``build_report``, ...) are bound as module attributes on first use, by
``simulate``/``validate`` or by an attribute lookup from outside.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
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

__all__ = ["main", "run", "build_parser"]


def _bind(name: str):
    """The module attribute ``name``, taken from the package on first use.

    A binding already present (for example one replaced from outside) is
    never overwritten, so callers always get the current attribute.
    """
    if name not in globals():
        globals()[name] = getattr(sys.modules[__package__], name)
    return globals()[name]


def __getattr__(name: str):
    if name in sys.modules[__package__]._LAZY:
        return _bind(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _add(parser: argparse.ArgumentParser, flag: str, help: str, default=None, **spec) -> None:
    """Add one flag; a default, when given, is shown in its help."""
    if default is not None:
        spec["default"] = default
        help += " (default: %(default)s)"
    parser.add_argument(flag, help=help, **spec)


# Flags that several subcommands take, each declared once.
_SHARED: dict[str, dict] = {
    "--p": {"help": "comma-separated failure probabilities"},
    "--M": {"help": "retransmission limits: comma list and/or a..b ranges"},
    "--es": {"type": float, "help": "sensing energy per generated packet, J"},
    "--et": {"type": float, "help": "transmit energy per slot, J"},
    "--dbm-min": {"type": float, "help": "lowest transmit power, dBm"},
    "--dbm-max": {"type": float, "help": "highest transmit power, dBm"},
    "--dbm-step": {"type": float, "help": "grid spacing, dB"},
    "--rate": {"type": float, "help": "Rayleigh link spectral efficiency, bits/s/Hz"},
    "--snr-ref-db": {"type": float, "help": "reference SNR defining the noise power, dB"},
    "--p-ref-dbm": {"type": float, "help": "reference power for --snr-ref-db, dBm"},
    "--pc": {"type": float, "help": "circuit power, W"},
    "--eta": {"type": float, "help": "inverse amplifier drain efficiency"},
    "--pmax-dbm": {"type": float, "help": "amplifier power cap, dBm (analytic, simulate: default --pt-dbm)"},
    "--normalizer": {"type": float, "help": "divide emitted energies by this"},
    "--pareto": {"action": "store_true", "help": "emit only the non-dominated points"},
    "--seed": {"type": int, "help": "RNG seed"},
    "--batches": {"type": int, "help": "batch count for standard errors"},
}
# The grid ``validate`` checks along an axis whose flag is not given; not an
# argparse default, so that a --p or --M given with --grid can be told apart.
_VALIDATE_GRID = {"--p": "0.1,0.4,0.7", "--M": "1,3,6"}
_BUDGET = ("--rate", "--snr-ref-db", "--p-ref-dbm", "--pc", "--eta", "--pmax-dbm")
_POWER_GRID = ("--dbm-min", "--dbm-max", "--dbm-step", *_BUDGET)


def _add_shared(parser: argparse.ArgumentParser, *flags: str, **defaults) -> None:
    """Add flags from _SHARED; ``defaults`` maps a flag's dest to its default."""
    for flag in flags:
        _add(parser, flag, default=defaults.get(flag[2:].replace("-", "_")), **_SHARED[flag])


def _add_point_options(parser: argparse.ArgumentParser) -> None:
    """One parameter point: a link from --p or a Rayleigh budget, --M and the energies."""
    parser.add_argument("--p", type=float, help="per-slot failure probability in [0, 1)")
    parser.add_argument("--M", type=int, help="maximum transmissions per packet")
    parser.add_argument("--pt-dbm", type=float, help="transmit power, dBm (with --pc/--eta, derives --et)")
    parser.add_argument("--sigma2", type=float, help="noise power, W")
    _add_shared(parser, "--es", "--et", *_BUDGET)


def _subcommand(
    parent, name: str, summary: str, handler: Callable[[argparse.Namespace], tuple[int, str]]
) -> argparse.ArgumentParser:
    """A subcommand's parser, with the input and output flags every one takes;
    ``handler(args)`` runs it and returns the exit code and the text to emit."""
    parser = parent.add_parser(name, help=summary)
    parser.set_defaults(handler=handler)
    parser.add_argument("--config", help="JSON object of flag values; explicit flags win")
    parser.add_argument("--output", "-o", help="write to this file instead of stdout")
    _add(parser, "--format", "output format", "csv", choices=["csv", "json"])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoilink",
        description="Energy-age analysis of a status-update link with bounded retransmissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_point_options(_subcommand(sub, "analytic", "evaluate the closed forms at one point", _handle_analytic))

    p_sim = _subcommand(sub, "simulate", "run one Monte Carlo estimate", _handle_simulate)
    _add_point_options(p_sim)
    _add(p_sim, "--estimator", "estimator", "slot", choices=["slot", "cycle"])
    _add(p_sim, "--horizon", "slots (slot) or cycles (cycle)", 1_000_000, type=int)
    p_sim.add_argument("--warmup", type=int, help="discarded leading slots/cycles")
    p_sim.add_argument("--trace", help="also write the per-slot age trace CSV here (slot only)")
    _add_shared(p_sim, "--seed", "--batches", seed=1, batches=100)

    kind = sub.add_parser("sweep", help="emit tradeoff curves").add_subparsers(dest="kind", required=True)
    p_m = _subcommand(kind, "m", "sweep the retransmission limit at fixed p", _handle_sweep_m)
    _add_shared(p_m, "--p", "--M", "--es", "--et", "--normalizer", "--pareto")

    p_pw = _subcommand(kind, "power", "sweep the transmit power under a Rayleigh budget", _handle_sweep_power)
    _add_shared(p_pw, "--M", "--es", *_POWER_GRID, "--normalizer", "--pareto")

    p_es = _subcommand(kind, "es", "rerun a base sweep per sensing energy, normalized", _handle_sweep_es)
    p_es.add_argument("--es-list", help="comma-separated sensing energies, J")
    _add(p_es, "--base", "base sweep kind", "m", choices=["m", "power"])
    _add_shared(p_es, "--p", "--M", "--et", *_POWER_GRID)
    p_es.add_argument(
        "--tx-ref",
        type=float,
        help="transmit-side energy added to each Es to form that curve's normalizer "
        "(default: derived from the base sweep)",
    )

    p_val = _subcommand(sub, "validate", "check both estimators against the closed forms", _handle_validate)
    p_val.add_argument("--grid", choices=["default"], help="named grid: the --p and --M defaults")
    _add(p_val, "--slots", "slot-estimator horizon", 1_000_000, type=int)
    p_val.add_argument("--cycles", type=int, help="cycle-estimator horizon (default: --slots)")
    for flag, values in _VALIDATE_GRID.items():
        p_val.add_argument(flag, help=f"{_SHARED[flag]['help']} (default: {values})")
    _add_shared(p_val, "--seed", "--es", "--et", "--batches", seed=7, es=4.02308, et=4.02308, batches=100)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, splicing in the --config file as flags.

    Each key becomes ``--key=value`` (``true`` a bare flag; ``false`` and
    ``null`` are dropped; a list a comma list), placed right after the
    subcommand words, so argparse checks config values exactly as it checks
    flags, and an explicit flag, coming later, wins.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"--config {args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"--config {args.config}: expected a JSON object")
    known = vars(args).keys() - {"command", "kind", "config", "handler"}
    tokens = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise CliError(f"--config {args.config}: unknown key {key!r}")
        items = value if isinstance(value, list) else [value]
        if any(isinstance(item, (dict, list)) for item in items):
            raise CliError(f"--config {args.config}: {key!r} is not a flag value")
        flag = "--" + dest.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            tokens.append(f"{flag}={','.join(map(str, items))}")
    words = 2 if args.command == "sweep" else 1
    return parser.parse_args(argv[:words] + tokens + argv[words:])


def _require(value, flag: str):
    if value is None:
        raise CliError(f"{flag} is required")
    return value


def _unused(args: argparse.Namespace, flags: tuple[str, ...], why: str) -> None:
    """Reject the first of ``flags`` that was given: it would be silently ignored."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise CliError(f"{flag} {why}")


def _resolve_link(args: argparse.Namespace) -> tuple[LinkSpec, float | None]:
    """Build the link from either --p or the Rayleigh budget flags."""
    if args.p is not None:
        rayleigh = ("--rate", "--pt-dbm", "--sigma2", "--snr-ref-db", "--p-ref-dbm")
        _unused(args, rayleigh, "cannot be combined with --p")
        return FixedFailureLink(args.p), None
    if args.rate is None or args.pt_dbm is None:
        raise CliError("link needs --p, or --rate and --pt-dbm")
    if args.sigma2 is not None:
        _unused(args, ("--snr-ref-db", "--p-ref-dbm"), "cannot be combined with --sigma2")
        noise = args.sigma2
    else:
        if args.snr_ref_db is None or args.p_ref_dbm is None:
            raise CliError("noise power needs --sigma2, or --snr-ref-db and --p-ref-dbm")
        noise = noise_from_reference_snr(dbm_to_watts(args.p_ref_dbm), args.snr_ref_db)
    return RayleighLink(args.rate, noise, dbm_to_watts(args.pt_dbm)), args.pt_dbm


def _resolve_energy(args: argparse.Namespace, pt_dbm: float | None) -> EnergyParams:
    sense = _require(args.es, "--es")
    if args.et is not None:
        _unused(args, ("--pc", "--eta", "--pmax-dbm"), "cannot be combined with --et")
        return EnergyParams(sense, args.et)
    if args.pc is None or args.eta is None:
        raise CliError("transmit energy needs --et, or --pc and --eta")
    if pt_dbm is None:
        raise CliError("--pc/--eta need --pt-dbm to derive the transmit energy")
    pmax_dbm = args.pmax_dbm if args.pmax_dbm is not None else pt_dbm
    model = PowerModel(args.pc, args.eta, dbm_to_watts(pt_dbm), dbm_to_watts(pmax_dbm))
    return EnergyParams(sense, transmit_energy(model))


def _emit_curves(curves, fmt: str) -> str:
    return emit_csv(curves) if fmt == "csv" else emit_json(curves)


def _postprocess(curves, args: argparse.Namespace):
    """Apply --pareto and --normalizer to freshly swept curves."""
    if args.pareto:
        points = [pt for curve in curves for pt in curve.points]
        curves = [TradeoffCurve(label="pareto", points=tuple(pareto_front(points)))]
    if args.normalizer is not None:
        curves = [normalize_curve(curve, args.normalizer) for curve in curves]
    return curves


def _handle_analytic(args) -> tuple[int, str]:
    link, pt_dbm = _resolve_link(args)
    energy = _resolve_energy(args, pt_dbm)
    point = evaluate(link, _require(args.M, "--M"), energy, tx_power_dbm=pt_dbm)
    curve = TradeoffCurve(label="analytic", points=(point,))
    return 0, _emit_curves([curve], args.format)


def _handle_simulate(args) -> tuple[int, str]:
    link, pt_dbm = _resolve_link(args)
    energy = _resolve_energy(args, pt_dbm)
    cfg = _bind("SimConfig")(
        link=link,
        policy=Policy(_require(args.M, "--M")),
        energy=energy,
        seed=args.seed,
        horizon_slots=args.horizon,
        warmup_slots=args.warmup,
        batches=args.batches,
    )
    if args.estimator == "cycle" and args.trace is not None:
        raise CliError("--trace requires the slot estimator")
    result = _bind("run_cycle_sim" if args.estimator == "cycle" else "run_slot_sim")(cfg)
    emit = emit_result_csv if args.format == "csv" else emit_result_json
    # Rendered first: a result that cannot be emitted leaves no trace file.
    text = emit(result, args.estimator, failure_prob(link), cfg.policy.max_tx)
    if args.trace is not None:
        _atomic_write(args.trace, lambda tmp: _bind("write_age_trace")(cfg, tmp))
    return 0, text


def _atomic_write(path: str, write: Callable[[str], object]) -> None:
    """Have ``write`` fill a ``.part`` file beside ``path``, then rename it
    over ``path``; on any error the ``.part`` file is removed, and an
    ``OSError`` is raised again naming ``path``, not the ``.part`` file."""
    import tempfile  # only --output and --trace pay for it

    try:
        fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".part")
        os.close(fd)
        try:
            write(tmp)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _m_spec(args, sense_energy: float | None) -> MSweep:
    return MSweep(
        p_list=parse_float_list(_require(args.p, "--p"), "--p"),
        max_tx_list=parse_int_list(_require(args.M, "--M"), "--M"),
        energy=EnergyParams(_require(sense_energy, "--es"), _require(args.et, "--et")),
    )


def _handle_sweep_m(args) -> tuple[int, str]:
    return 0, _emit_curves(_postprocess(m_sweep(_m_spec(args, args.es)), args), args.format)


def _power_spec(args, sense_energy: float) -> PowerSweep:
    return PowerSweep(
        dbm_min=_require(args.dbm_min, "--dbm-min"),
        dbm_max=_require(args.dbm_max, "--dbm-max"),
        dbm_step=_require(args.dbm_step, "--dbm-step"),
        max_tx_list=parse_int_list(_require(args.M, "--M"), "--M"),
        rate=_require(args.rate, "--rate"),
        snr_ref_db=_require(args.snr_ref_db, "--snr-ref-db"),
        ref_power_dbm=_require(args.p_ref_dbm, "--p-ref-dbm"),
        sense_energy=sense_energy,
        circuit_power=_require(args.pc, "--pc"),
        inv_drain_eff=_require(args.eta, "--eta"),
        max_power=dbm_to_watts(_require(args.pmax_dbm, "--pmax-dbm")),
    )


def _handle_sweep_power(args) -> tuple[int, str]:
    spec = _power_spec(args, _require(args.es, "--es"))
    return 0, _emit_curves(_postprocess(power_sweep(spec), args), args.format)


def _handle_sweep_es(args) -> tuple[int, str]:
    es_list = parse_float_list(_require(args.es_list, "--es-list"), "--es-list")
    unused = _POWER_GRID if args.base == "m" else ("--p", "--et")
    _unused(args, unused, f"is not used with --base {args.base}")
    # The sensing energy of the base is replaced per es_list entry.
    base = (_m_spec if args.base == "m" else _power_spec)(args, 0.0)
    spec = EsSweep(es_list=es_list, base=base, normalizer=args.tx_ref)
    return 0, _emit_curves(es_sweep(spec), args.format)


def _handle_validate(args) -> tuple[int, str]:
    if args.grid is not None:
        _unused(args, tuple(_VALIDATE_GRID), "cannot be combined with --grid")
    p_values = parse_float_list(_VALIDATE_GRID["--p"] if args.p is None else args.p, "--p")
    max_tx_values = parse_int_list(_VALIDATE_GRID["--M"] if args.M is None else args.M, "--M")
    points = len(p_values) * len(max_tx_values)
    if points > MAX_GRID_POINTS:
        raise CliError(f"grid of {points} points exceeds the limit of {MAX_GRID_POINTS}")
    report = _bind("build_report")(
        p_values=p_values,
        max_tx_values=max_tx_values,
        energy=EnergyParams(args.es, args.et),
        slots=args.slots,
        cycles=args.slots if args.cycles is None else args.cycles,
        seed=args.seed,
        batches=args.batches,
    )
    emit = emit_report_csv if args.format == "csv" else emit_report_json
    return (0 if report.passed else 1), emit(report)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(build_parser(), argv)
        code, text = args.handler(args)
    except SystemExit as exc:  # argparse has printed usage or help
        return int(exc.code) if exc.code else 0
    except (CliError, ValueError) as exc:
        print(f"aoilink: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"aoilink: error: {exc}", file=sys.stderr)
        return 1
    except ImportError as exc:
        print(f"aoilink: error: {exc} (simulate and validate need numpy)", file=sys.stderr)
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
