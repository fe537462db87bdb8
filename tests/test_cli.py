import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import aoilink
import aoilink.cli as cli
import aoilink.validation as validation
from aoilink.analytic import EnergyParams, FixedFailureLink, MetricPoint, Policy
from aoilink.cli import main, parse_float_list, parse_int_list
from aoilink.cli import CliError
from aoilink.output import (
    CURVE_FIELDS,
    REPORT_FIELDS,
    RESULT_FIELDS,
    curve_rows,
    emit_csv,
    emit_json,
    emit_report_csv,
    emit_report_json,
    emit_result_csv,
    emit_result_json,
    parse_csv,
    parse_json,
    report_rows,
    result_rows,
    rows_to_csv,
    rows_to_json,
)
from aoilink.simulator import SimConfig, SimResult, run_cycle_sim, run_slot_sim
from aoilink.sweep import MSweep, PowerSweep, TradeoffCurve, m_sweep, normalize_curve, power_sweep
from aoilink.validation import ValidationPoint, ValidationReport

REF = ["--es", "4.02308", "--et", "4.02308"]
POWER_LINK = ["--rate", "2", "--snr-ref-db", "20", "--p-ref-dbm", "20",
              "--pc", "2.1", "--eta", "19.2308", "--pmax-dbm", "20"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def test_parse_int_list_ranges():
    assert parse_int_list("1..6", "--M") == [1, 2, 3, 4, 5, 6]
    assert parse_int_list("1,3,6", "--M") == [1, 3, 6]
    assert parse_int_list("1..3,8", "--M") == [1, 2, 3, 8]
    with pytest.raises(CliError):
        parse_int_list("6..1", "--M")
    with pytest.raises(CliError):
        parse_int_list("a", "--M")


def test_parse_int_list_limit_is_inclusive():
    assert parse_int_list("1..1000000", "--M") == list(range(1, 1_000_001))
    for text in ("1..1000001", "1..999999,5,6"):
        with pytest.raises(CliError, match="more than the limit of 1000000 values"):
            parse_int_list(text, "--M")


def test_parse_float_list():
    assert parse_float_list("0.1,0.4", "--p") == [0.1, 0.4]
    with pytest.raises(CliError):
        parse_float_list("", "--p")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_analytic_row(capsys):
    code, out, _ = run_cli(capsys, ["analytic", "--p", "0.4", "--M", "6", *REF])
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["avg_aoi"]) == pytest.approx(2.8086562560246771, rel=1e-8)
    assert float(rows[0]["avg_energy"]) == pytest.approx(6.4468557856178909, rel=1e-8)
    assert rows[0]["pt_dbm"] == ""
    assert rows[0]["avg_energy_normalized"] == ""


def test_analytic_rayleigh_link(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "analytic", "--rate", "2", "--pt-dbm", "20", "--snr-ref-db", "20",
            "--p-ref-dbm", "20", "--M", "6", "--es", "4.02308", "--pc", "2.1",
            "--eta", "19.2308", "--pmax-dbm", "20",
        ],
    )
    assert code == 0
    row = csv_rows(out)[0]
    assert float(row["p"]) == pytest.approx(0.029554466451491823, abs=1e-9)
    assert row["pt_dbm"] == "20"
    assert float(row["avg_energy"]) == pytest.approx(7.9272600197101003, rel=1e-8)


def test_sweep_m_example(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "m", "--p", "0.1,0.2,0.3,0.4", "--M", "1..6", *REF]
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 24
    assert len({row["label"] for row in rows}) == 4
    max_energy = max(float(row["avg_energy"]) for row in rows)
    assert max_energy == pytest.approx(8.04616, abs=1e-9)


def test_sweep_m_range_and_list_agree(capsys):
    code_a, out_a, _ = run_cli(capsys, ["sweep", "m", "--p", "0.4", "--M", "1..6", *REF])
    code_b, out_b, _ = run_cli(
        capsys, ["sweep", "m", "--p", "0.4", "--M", "1,2,3,4,5,6", *REF]
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sweep_power_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep", "power", "--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "3",
            "--M", "1,6", "--rate", "2", "--snr-ref-db", "20", "--p-ref-dbm", "20",
            "--es", "4.02308", "--pc", "2.1", "--eta", "19.2308", "--pmax-dbm", "20",
        ],
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 14
    assert {row["label"] for row in rows} == {"M=1", "M=6"}


def test_sweep_pareto_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "m", "--p", "0.4", "--M", "1..6", *REF, "--pareto"]
    )
    assert code == 0
    rows = csv_rows(out)
    assert all(row["label"] == "pareto" for row in rows)
    energies = [float(row["avg_energy"]) for row in rows]
    assert energies == sorted(energies)


def test_sweep_es(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "es", "--es-list", "0,4.02308", "--base", "m", "--p", "0.4",
         "--M", "1..6", "--et", "4.02308"],
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 12
    assert all(row["avg_energy"] == "" for row in rows)
    first_curve = [row for row in rows if row["label"].startswith("Es=0 ")]
    assert all(float(row["avg_energy_normalized"]) == 1.0 for row in first_curve)


@pytest.mark.parametrize(
    "argv, count",
    [
        (["sweep", "m", "--p", "0.4", "--M", "1..2", "--es", "4", "--et", "1", "--normalizer", "1"], 2),
        # Es = 0 plus the default tx reference (the base's Et = 1) divides by exactly 1.
        (["sweep", "es", "--base", "m", "--es-list", "0,1", "--p", "0.4", "--M", "1..2", "--et", "1"], 4),
    ],
    ids=["normalizer", "es-sweep"],
)
def test_curve_normalized_by_one_fills_the_normalized_column(capsys, argv, count):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == count
    assert sum(row["label"].endswith(" (energy/1)") for row in rows) == 2
    assert all(row["avg_energy"] == "" and row["avg_energy_normalized"] != "" for row in rows)
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert all(row["avg_energy"] is None and row["avg_energy_normalized"] > 0 for row in json.loads(out))


def test_curve_labels_carry_nine_significant_digits(capsys):
    # Two p values equal to 6 digits get distinct labels, each the row's own p cell.
    code, out, _ = run_cli(capsys, ["sweep", "m", "--p", "0.1234561,0.1234564", "--M", "1", "--es", "1", "--et", "1"])
    assert code == 0
    rows = csv_rows(out)
    assert [row["label"] for row in rows] == ["p=0.1234561", "p=0.1234564"]
    assert all(row["label"] == "p=" + row["p"] for row in rows)
    code, out, _ = run_cli(
        capsys, ["sweep", "es", "--es-list", "1.2345671,1.2345674", "--p", "0.4", "--M", "1", "--et", "1"]
    )
    assert code == 0
    assert [row["label"].split()[0] for row in csv_rows(out)] == ["Es=1.2345671", "Es=1.2345674"]


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--p", "0", "--M", "3", "--es", "1", "--et", "1",
         "--horizon", "20000", "--warmup", "500", "--seed", "3"],
    )
    assert code == 0
    row = csv_rows(out)[0]
    assert row["estimator"] == "slot"
    assert float(row["avg_aoi_est"]) == 1.5
    assert float(row["avg_energy_est"]) == 2.0
    assert row["slots"] == "20000"
    assert row["seed"] == "3"


def test_simulate_cycle_estimator(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--p", "0.3", "--M", "2", "--es", "1", "--et", "1",
         "--horizon", "5000", "--warmup", "100", "--estimator", "cycle",
         "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["estimator"] == "cycle"
    assert rows[0]["successes"] == 5000


def test_simulate_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys,
        ["simulate", "--p", "0.4", "--M", "2", "--es", "1", "--et", "1",
         "--horizon", "300", "--warmup", "50", "--batches", "2",
         "--trace", str(trace)],
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "slot,age,reset"
    assert len(lines) == 301


def test_trace_requires_slot_estimator(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        ["simulate", "--p", "0.4", "--M", "2", "--es", "1", "--et", "1",
         "--horizon", "300", "--warmup", "50", "--batches", "2",
         "--estimator", "cycle", "--trace", str(tmp_path / "t.csv")],
    )
    assert code == 2
    assert "slot" in err
    assert not (tmp_path / "t.csv").exists()


def test_validate_small_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        ["validate", "--p", "0.4", "--M", "1,3", "--slots", "200000",
         "--cycles", "200000", "--seed", "7", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["num_points"] == 2
    assert all(pt["slot_pass"] and pt["cycle_pass"] for pt in report["points"])


def test_validate_default_grid_flagged(capsys):
    # --grid default only names the built-in grid; tiny horizons keep it fast.
    code, out, _ = run_cli(
        capsys,
        ["validate", "--grid", "default", "--slots", "30000", "--cycles", "30000",
         "--seed", "11"],
    )
    rows = csv_rows(out)
    assert len(rows) == 9
    assert code in (0, 1)
    all_pass = all(
        row["slot_pass"] == "true" and row["cycle_pass"] == "true" for row in rows
    )
    assert (code == 0) == all_pass


# ---------------------------------------------------------------------------
# Exit codes and error handling
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, ["analytic", "--bogus", "1"])
    assert code == 2
    assert "usage" in err


def test_missing_required_params_exit_2(capsys):
    code, _, err = run_cli(capsys, ["analytic", "--p", "0.4"])
    assert code == 2
    assert "--M" in err or "--es" in err


def test_conflicting_link_flags_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["analytic", "--p", "0.4", "--rate", "2", "--M", "1", *REF]
    )
    assert code == 2


P_POINT = ["--p", "0.4", "--M", "3", "--es", "1", "--et", "1"]
SIGMA2_POINT = ["--rate", "2", "--pt-dbm", "20", "--sigma2", "1e-5", "--M", "3", "--es", "1", "--et", "1"]


# Two forms of one input: each extra flag would otherwise be silently ignored.
@pytest.mark.parametrize(
    "point, extra",
    [
        (P_POINT, ["--pt-dbm", "20"]),
        (P_POINT, ["--sigma2", "1e-5"]),
        (P_POINT, ["--snr-ref-db", "20"]),
        (P_POINT, ["--p-ref-dbm", "20"]),
        (SIGMA2_POINT, ["--snr-ref-db", "0"]),
        (SIGMA2_POINT, ["--p-ref-dbm", "20"]),
        (SIGMA2_POINT, ["--pc", "5"]),
        (SIGMA2_POINT, ["--eta", "3"]),
        (SIGMA2_POINT, ["--pmax-dbm", "20"]),
    ],
)
@pytest.mark.parametrize("command", [["analytic"], ["simulate", "--horizon", "1000"]])
def test_second_form_of_one_input_exits_2(capsys, point, extra, command):
    assert run_cli(capsys, [*command, *point])[0] == 0
    code, out, err = run_cli(capsys, [*command, *point, *extra])
    assert code == 2
    assert out == ""
    assert err.startswith(f"aoilink: error: {extra[0]} cannot be combined with ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "base, extra, flag",
    [
        (["--base", "m", "--p", "0.4", "--et", "4.02308"], ["--dbm-min", "2"], "--dbm-min"),
        (["--base", "m", "--p", "0.4", "--et", "4.02308"], ["--rate", "2"], "--rate"),
        (["--base", "m", "--p", "0.4", "--et", "4.02308"], ["--pmax-dbm", "20"], "--pmax-dbm"),
        (["--base", "power", "--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "3", *POWER_LINK],
         ["--p", "0.9"], "--p"),
        (["--base", "power", "--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "3", *POWER_LINK],
         ["--et", "99"], "--et"),
    ],
)
def test_sweep_es_rejects_the_other_bases_flags(capsys, base, extra, flag):
    argv = ["sweep", "es", "--es-list", "0,4.02308", "--M", "1..3", *base]
    assert run_cli(capsys, argv)[0] == 0
    code, out, err = run_cli(capsys, [*argv, *extra])
    assert code == 2
    assert out == ""
    assert err == f"aoilink: error: {flag} is not used with {base[0]} {base[1]}\n"


# validate's built-in grid is the second form of --p and --M: given as a flag
# or a config key, either one is rejected with --grid (an empty --p is given).
@pytest.mark.parametrize(
    "extra, config, flag",
    [
        (["--grid", "default", "--p", "0.5"], None, "--p"),
        (["--grid", "default", "--M", "2"], None, "--M"),
        (["--grid", "default", "--p", "0.5", "--M", "2"], None, "--p"),
        (["--grid", "default", "--p", ""], None, "--p"),
        (["--grid", "default"], {"p": [0.5]}, "--p"),
        (["--M", "2"], {"grid": "default"}, "--M"),
    ],
)
def test_validate_grid_rejects_p_and_m(capsys, tmp_path, extra, config, flag):
    argv = ["validate", "--slots", "2000"]
    if config is not None:
        (tmp_path / "grid.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "grid.json")]
    assert run_cli(capsys, [*argv, *extra]) == (2, "", f"aoilink: error: {flag} cannot be combined with --grid\n")


def test_validate_without_grid_flags_runs_the_built_in_grid(capsys):
    argv = ["validate", "--slots", "2000", "--seed", "3"]
    code, out, err = run_cli(capsys, [*argv, "--grid", "default"])
    assert code in (0, 1) and err == ""
    assert [(row["p"], row["M"]) for row in csv_rows(out)] == [(p, m) for p in ("0.1", "0.4", "0.7") for m in "136"]
    assert run_cli(capsys, argv) == (code, out, err)
    assert run_cli(capsys, [*argv, "--p", ""]) == (2, "", "aoilink: error: --p: expected a comma-separated list of numbers\n")
    help_text = " ".join(run_cli(capsys, ["validate", "--help"])[1].split())  # unwrapped
    assert "(default: 0.1,0.4,0.7)" in help_text and "(default: 1,3,6)" in help_text


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_validate_seed_out_of_range_exits_2(capsys, seed):
    # The base seed is checked like simulate's, not wrapped into range.
    code, out, err = run_cli(capsys, ["validate", "--p", "0.4", "--M", "1", "--slots", "1000", f"--seed={seed}"])
    assert code == 2
    assert out == ""
    assert err == f"aoilink: error: seed must be a 64-bit unsigned integer, got {seed}\n"


def test_invalid_probability_exit_2(capsys):
    code, _, err = run_cli(capsys, ["analytic", "--p", "1.0", "--M", "1", *REF])
    assert code == 2
    assert "probability" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--es", "nan", "--et", "4"],
        ["--es", "1", "--et", "inf"],
        ["--es", "1", "--pc", "nan", "--eta", "19.2308", "--rate", "2", "--pt-dbm", "20",
         "--snr-ref-db", "20", "--p-ref-dbm", "20"],
    ],
)
def test_non_finite_energy_exits_2(capsys, argv):
    link = [] if "--rate" in argv else ["--p", "0.4"]
    code, out, err = run_cli(capsys, ["analytic", *link, "--M", "6", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
    assert "finite" in err


def test_overflowing_outage_exponent_clamps_below_one(capsys):
    # 2**2000 overflows a float: the budget is hopeless, so p is the largest double below 1.
    code, out, err = run_cli(
        capsys, ["analytic", "--rate", "2000", "--pt-dbm", "10", "--sigma2", "1", "--M", "2",
                 "--es", "1", "--et", "1"],
    )
    assert (code, err) == (0, "")
    (row,) = csv_rows(out)
    assert float(row["p"]) == 1.0  # 1 - 2**-53 printed with 9 digits
    assert all(math.isfinite(float(row[name])) for name in ("p", "avg_energy", "avg_aoi"))


@pytest.mark.parametrize(
    "argv",
    [
        # dBm and SNR values whose watts or noise power are past the float range
        ["analytic", "--rate", "2", "--pt-dbm", "4000", "--sigma2", "1", "--M", "2", "--es", "1", "--et", "1"],
        ["analytic", "--rate", "2", "--pt-dbm", "10", "--snr-ref-db", "1e308", "--p-ref-dbm", "20",
         "--M", "2", "--es", "1", "--et", "1"],
        ["analytic", "--rate", "2", "--pt-dbm", "10", "--snr-ref-db", "-4000", "--p-ref-dbm", "20",
         "--M", "2", "--es", "1", "--et", "1"],
        # results that overflow to inf or nan
        ["sweep", "m", "--p", "0.5", "--M", "1", "--es", "1e308", "--et", "1e308"],
        ["sweep", "m", "--p", "0.5", "--M", "1", "--es", "1e308", "--et", "1e308", "--format", "json"],
        ["sweep", "m", "--p", "0.5", "--M", "1", "--es", "1", "--et", "1", "--normalizer", "1e-308"],
        ["simulate", "--p", "0.5", "--M", "2", "--es", "1e308", "--et", "0", "--horizon", "2000",
         "--format", "json"],
    ],
    ids=["pt-dbm", "snr-high", "snr-low", "es-et-csv", "es-et-json", "normalizer", "simulate-json"],
)
def test_out_of_range_values_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("aoilink: error:")


def test_unemittable_result_leaves_no_trace_file(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, ["simulate", "--p", "0.5", "--M", "2", "--es", "1e308", "--et", "0",
                 "--horizon", "2000", "--trace", str(trace)],
    )
    assert (code, out) == (2, "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p", "0.5", "--M", "2", "--es", "1e308", "--et", "0", "--horizon", "2000"],
        ["simulate", "--p", "0.5", "--M", "2", "--es", "1e308", "--et", "0", "--horizon", "2000",
         "--estimator", "cycle"],
        ["validate", "--p", "0.5", "--M", "2", "--es", "1e308", "--et", "0", "--slots", "2000"],
    ],
    ids=["slot", "cycle", "validate"],
)
def test_energy_past_float_range_prints_only_the_error_line(argv):
    # In a fresh interpreter with default warning filters, so that a numpy
    # RuntimeWarning would reach stderr.
    src = str(Path(aoilink.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "aoilink", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aoilink: error:"), proc.stderr


@pytest.mark.parametrize("estimator", ["slot", "cycle"])
def test_simulate_huge_max_tx_exits_0(capsys, estimator):
    code, out, err = run_cli(
        capsys,
        ["simulate", "--estimator", estimator, "--p", "0.4", "--M", str(10**20),
         "--es", "1", "--et", "1", "--horizon", "20000"],
    )
    assert code == 0, err
    assert csv_rows(out)[0]["M"] == str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--p", "0.4", "--es", "1", "--et", "1"],
        ["sweep", "m", "--p", "0.4", "--es", "1", "--et", "1"],
        ["sweep", "power", "--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "3", "--es", "4.02308",
         *POWER_LINK],
        ["validate", "--p", "0.4", "--slots", "2000"],
        ["simulate", "--p", "0.4", "--es", "1", "--et", "1", "--horizon", "1000"],
    ],
    ids=["analytic", "sweep-m", "sweep-power", "validate", "simulate"],
)
# 2**1024 - 1 rounds up to 2**1024 as a float.
@pytest.mark.parametrize("max_tx", [2**1024, 2**1024 - 1], ids=["2**1024", "2**1024-1"])
def test_max_tx_past_the_float_range_exits_2(capsys, argv, max_tx):
    code, out, err = run_cli(capsys, [*argv, "--M", str(max_tx)])
    assert (code, out) == (2, "")
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
    assert "past the float range" in err


@pytest.mark.parametrize("es", [1e160, 1e-160])  # the squared deviations would overflow, or underflow
@pytest.mark.parametrize("estimator", ["slot", "cycle"])
def test_energy_stderr_scales_with_es(capsys, estimator, es):
    def stderr_energy(es):
        code, out, err = run_cli(
            capsys,
            ["simulate", "--estimator", estimator, "--p", "0.5", "--M", "2", "--es", repr(es), "--et", "0",
             "--horizon", "2000", "--format", "json"],
        )
        assert code == 0, err
        return json.loads(out)[0]["stderr_energy"]

    assert stderr_energy(es) / es == pytest.approx(stderr_energy(1.0), rel=1e-12, abs=0)


# 100 one-slot batches: a seed where one batch senses has a deviation of 9.9e307, past 2**1023.
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("estimator", ["slot", "cycle"])
def test_energy_stderr_near_the_largest_float(capsys, estimator, seed):
    code, out, err = run_cli(
        capsys,
        ["simulate", "--estimator", estimator, "--p", "0.99", "--M", "1000", "--es", "1e308", "--et", "0",
         "--horizon", "112", "--seed", str(seed), "--format", "json"],
    )
    assert code == 0, err
    assert 0 <= json.loads(out)[0]["stderr_energy"] < 1e308


@pytest.mark.parametrize(
    "grid",
    [
        ["--dbm-min", "2", "--dbm-max", "inf", "--dbm-step", "1"],
        ["--dbm-min=-inf", "--dbm-max", "20", "--dbm-step", "1"],
        ["--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "nan"],
    ],
)
@pytest.mark.parametrize("kind", ["power", "es"])
def test_non_finite_dbm_grid_exits_2(capsys, grid, kind):
    energy = ["--es", "4.02308"] if kind == "power" else ["--base", "power", "--es-list", "1"]
    code, out, err = run_cli(capsys, ["sweep", kind, *grid, "--M", "1..2", *energy, *POWER_LINK])
    assert code == 2
    assert out == ""
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "m", "--p", "0.4", "--M", "1..1000000000", *REF],
        ["sweep", "m", "--p", "0.4", "--M", "1..600000,1..600000", *REF],
        ["sweep", "power", "--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "1e-12",
         "--M", "1", "--es", "4.02308", *POWER_LINK],
    ],
)
def test_oversize_grid_exits_2_before_allocating(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
    assert "limit of 1000000" in err


def validate_grid_argv(p_count, m_count):
    # --slots 0 makes the real build_report fail at its first point, so a
    # grid that slipped past the check can never start a long simulation.
    return ["validate", "--p", ",".join(["0.4"] * p_count), "--M", f"1..{m_count}", "--slots", "0"]


def test_validate_grid_at_the_limit_reaches_build_report(capsys, monkeypatch):
    calls = []

    def fake_build_report(**kwargs):  # the grid is checked, not simulated
        calls.append(len(kwargs["p_values"]) * len(kwargs["max_tx_values"]))
        return ValidationReport(points=(), passed=True)

    monkeypatch.setattr(cli, "build_report", fake_build_report)
    code, out, err = run_cli(capsys, validate_grid_argv(1000, 1000))
    assert (code, err) == (0, "")
    assert calls == [1_000_000]
    assert out == ",".join(REPORT_FIELDS) + "\n"


@pytest.mark.parametrize("p_count, m_count", [(1001, 1000), (1_000_001, 1)])
def test_validate_grid_past_the_limit_exits_2(capsys, monkeypatch, p_count, m_count):
    calls = []
    monkeypatch.setattr(cli, "build_report", lambda **kwargs: calls.append(kwargs))
    code, out, err = run_cli(capsys, validate_grid_argv(p_count, m_count))
    assert code == 2
    assert out == "" and calls == []
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
    assert f"grid of {p_count * m_count} points exceeds the limit of 1000000" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--p", "0.1,0.4,0.7,1.5", "--M", "1,3,6"],
        ["--p", "0.4", "--M", "1,3,0"],
        ["--p", "0.4", "--M", "1,3", "--cycles", "1", "--batches", "2"],
        # A valid cycle config whose default warmup is 5 // 10 = 0 cycles.
        ["--p", "0.4", "--M", "1,3", "--cycles", "5", "--batches", "2"],
    ],
    ids=["p", "M", "cycles", "cycle-warmup"],
)
def test_validate_rejects_a_bad_grid_before_simulating(capsys, monkeypatch, extra):
    calls = []
    monkeypatch.setattr(validation, "run_slot_sim", lambda cfg: calls.append(cfg))
    monkeypatch.setattr(validation, "run_cycle_sim", lambda cfg: calls.append(cfg))
    code, out, err = run_cli(capsys, ["validate", "--slots", "2000", *extra])
    assert code == 2
    assert out == "" and calls == []
    assert err.startswith("aoilink: error:") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--output", "--trace"])
def test_failed_atomic_write_leaves_no_part_file(tmp_path, capsys, flag):
    blocker = tmp_path / "taken"
    blocker.mkdir()  # renaming a file over a directory fails
    code, _, err = run_cli(
        capsys,
        ["simulate", "--p", "0.4", "--M", "2", *REF, "--horizon", "300",
         "--warmup", "50", "--batches", "2", flag, str(blocker)],
    )
    assert code == 1
    assert "error" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("flag", ["--output", "--trace"])
@pytest.mark.parametrize("target", ["missing/out.csv", "taken"])
def test_io_error_names_the_given_path(tmp_path, capsys, flag, target):
    (tmp_path / "taken").mkdir()
    path = str(tmp_path / target)
    code, out, err = run_cli(
        capsys,
        ["simulate", "--p", "0.4", "--M", "2", *REF, "--horizon", "300",
         "--warmup", "50", "--batches", "2", flag, path],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
    assert repr(path) in err and ".part" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]


def test_no_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2


def test_error_leaves_no_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, ["analytic", "--p", "2.0", "--M", "1", *REF, "--output", str(target)]
    )
    assert code == 2
    assert not target.exists()


def test_unwritable_output_exits_1(capsys):
    code, _, err = run_cli(
        capsys,
        ["analytic", "--p", "0.4", "--M", "1", *REF,
         "--output", "/no/such/dir/out.csv"],
    )
    assert code == 1
    assert "error" in err


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ["sweep", "m", "--p", "0.4", "--M", "1..3", *REF]
    code, out, _ = run_cli(capsys, argv)
    target = tmp_path / "curves.csv"
    code2 = main(argv + ["--output", str(target)])
    capsys.readouterr()
    assert code == code2 == 0
    assert target.read_text() == out


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


def test_config_file_equals_flags(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "p": "0.1,0.2,0.3,0.4", "M": "1..6", "es": 4.02308, "et": 4.02308,
    }))
    _, out_flags, _ = run_cli(
        capsys, ["sweep", "m", "--p", "0.1,0.2,0.3,0.4", "--M", "1..6", *REF]
    )
    _, out_config, _ = run_cli(capsys, ["sweep", "m", "--config", str(config)])
    assert out_flags == out_config


def test_config_flags_take_precedence(tmp_path, capsys):
    config = tmp_path / "point.json"
    config.write_text(json.dumps({"p": 0.1, "M": 6, "es": 4.02308, "et": 4.02308}))
    _, out, _ = run_cli(
        capsys, ["analytic", "--config", str(config), "--p", "0.4"]
    )
    assert csv_rows(out)[0]["p"] == "0.4"


def test_config_accepts_lists(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"p": [0.1, 0.4], "M": "1..3", "es": 1.0, "et": 1.0}))
    code, out, _ = run_cli(capsys, ["sweep", "m", "--config", str(config)])
    assert code == 0
    assert len(csv_rows(out)) == 6


def test_config_unknown_key_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"nope": 1}))
    code, _, err = run_cli(capsys, ["analytic", "--config", str(config)])
    assert code == 2
    assert "nope" in err


def test_config_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, ["analytic", "--config", "/does/not/exist.json"])
    assert code == 2


SIM_CONFIG = {"p": 0.4, "M": 2, "es": 1, "et": 1, "horizon": 3000, "warmup": 100}
M_CONFIG = {"p": 0.4, "M": "1..3", "es": 1, "et": 1}


# Config values get the flag's own argparse checks: each of these is a type,
# choice or arity error, or a key that names no settable flag.
@pytest.mark.parametrize(
    "command, config",
    [
        (["simulate"], {**SIM_CONFIG, "p": {"a": 1}}),
        (["simulate"], {**SIM_CONFIG, "M": 3.7}),
        (["simulate"], {**SIM_CONFIG, "seed": 2.9}),
        (["simulate"], {**SIM_CONFIG, "format": "xml"}),
        (["simulate"], {**SIM_CONFIG, "estimator": "bogus"}),
        (["simulate"], {**SIM_CONFIG, "horizon": True}),
        (["simulate"], {**SIM_CONFIG, "seed": True}),
        (["sweep", "m"], {**M_CONFIG, "pareto": "false"}),
        (["sweep", "m"], {**M_CONFIG, "config": "other.json"}),
    ],
)
def test_config_bad_value_exits_2(tmp_path, capsys, command, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, [*command, "--config", str(path)])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["analytic", "--M", "1", "--es", "1", "--et", "1"], None, "link needs --p, or --rate and --pt-dbm"),
        (["analytic", "--rate", "2", "--pt-dbm", "10", "--M", "1", "--es", "1", "--et", "1"], None,
         "noise power needs --sigma2, or --snr-ref-db and --p-ref-dbm"),
        (["analytic", "--p", "0.4", "--M", "1", "--es", "1"], None, "transmit energy needs --et, or --pc and --eta"),
        (["analytic", "--p", "0.4", "--M", "1", "--es", "1", "--pc", "1", "--eta", "1"], None,
         "--pc/--eta need --pt-dbm to derive the transmit energy"),
        (["analytic"], [1, 2], "expected a JSON object"),
        (["analytic"], {"handler": 1}, "unknown key 'handler'"),
        (["sweep", "m", "--p", "0.4,x", "--M", "1", "--es", "1", "--et", "1"], None,
         "--p: could not convert string to float: 'x'"),
        (["sweep", "m", "--p", "0.4", "--M", ",", "--es", "1", "--et", "1"], None,
         "--M: expected integers or a..b ranges"),
    ],
    ids=["no-link", "no-noise", "no-tx-energy", "pc-without-pt", "config-list", "config-handler",
         "p-not-a-number", "empty-M"],
)
def test_usage_error_prints_one_line_and_exits_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("aoilink: error:") and err.count("\n") == 1
    assert message in err


def test_config_number_is_parsed_as_the_flag_text(tmp_path, capsys, monkeypatch):
    # {"trace": 5} means what --trace 5 means: the trace goes to the file "5".
    monkeypatch.chdir(tmp_path)
    Path("sim.json").write_text(json.dumps({**SIM_CONFIG, "trace": 5}))
    code, out, _ = run_cli(capsys, ["simulate", "--config", "sim.json"])
    flags = ["--p", "0.4", "--M", "2", "--es", "1", "--et", "1", "--horizon", "3000",
             "--warmup", "100", "--trace", "6"]
    code_flags, out_flags, _ = run_cli(capsys, ["simulate", *flags])
    assert code == code_flags == 0
    assert out == out_flags
    assert Path("5").read_text() == Path("6").read_text()


@pytest.mark.parametrize("dbm_min, pt_dbm", [(-10, "-10"), (-1e-05, "-1e-05")])
def test_config_negative_value_reaches_sweep(tmp_path, capsys, dbm_min, pt_dbm):
    # A separate "-1e-05" word would read as a flag; the config uses --dbm-min=-1e-05.
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"dbm_min": dbm_min}))
    argv = ["sweep", "power", "--dbm-max", "0", "--dbm-step", "5", "--M", "1",
            "--es", "4.02308", *POWER_LINK]
    code, out, _ = run_cli(capsys, [*argv, "--config", str(path)])
    _, out_flags, _ = run_cli(capsys, [*argv, f"--dbm-min={dbm_min}"])
    assert code == 0
    assert out == out_flags
    assert csv_rows(out)[0]["pt_dbm"] == pt_dbm


@pytest.mark.parametrize(
    "command",
    [["analytic"], ["simulate"], ["sweep", "m"], ["sweep", "power"], ["sweep", "es"], ["validate"]],
)
def test_help_exits_0(capsys, command):
    code, out, _ = run_cli(capsys, [*command, "--help"])
    assert code == 0
    assert out.startswith("usage: aoilink " + " ".join(command))


def test_make_tradeoff_curves_script(tmp_path, capsys, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_tradeoff_curves.py"
    spec = importlib.util.spec_from_file_location("make_tradeoff_curves", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path)])
    module.main()
    capsys.readouterr()
    points = {path.name: len(csv_rows(path.read_text())) for path in tmp_path.iterdir()}
    assert points == {
        "m_sweep_constant_power.csv": 24,
        "es_sweep_constant_power.csv": 24,
        "power_control_sweep.csv": 42,
        "es_sweep_power_control.csv": 28,
    }
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == {
        "m_sweep_constant_power.csv": "02b85ddac23274ef1232a9d00963873e389776565f9d1cb8e9265ff5c7da0b8a",
        "es_sweep_constant_power.csv": "b9500ec5db5b4716c2d84bd60afd44b6d2ad3a08913a381fcd9f769753d109b9",
        "power_control_sweep.csv": "baf228569cc8ee4fc6be0ca602e766703e989620cb1fa1d929faf71cdf9b0e84",
        "es_sweep_power_control.csv": "91297dd8f6505415136eb1d71a22fd1141d954ed57406c84056f15e25532cf6c",
    }


POINT_FLAGS = ("--p", "--M", "--es", "--et", "--pt-dbm", "--rate", "--sigma2",
               "--snr-ref-db", "--p-ref-dbm", "--pc", "--eta", "--pmax-dbm")
GRID_FLAGS = ("--dbm-min", "--dbm-max", "--dbm-step", "--rate", "--snr-ref-db",
              "--p-ref-dbm", "--pc", "--eta", "--pmax-dbm")
POWER_GRID = ["--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "3", *POWER_LINK]
# Per subcommand: an argv that succeeds, cheaply, and the flags to draw; a
# drawn flag comes later, so it replaces a value of the argv.
FUZZ_COMMANDS = [
    (["analytic", *P_POINT], POINT_FLAGS),
    (["analytic", *SIGMA2_POINT], POINT_FLAGS),
    (["simulate", *P_POINT, "--horizon", "1000"],
     (*POINT_FLAGS, "--estimator", "--horizon", "--warmup", "--batches", "--seed", "--trace")),
    (["sweep", "m", "--p", "0.4", "--M", "1..3", *REF], ("--p", "--M", "--es", "--et", "--normalizer", "--pareto")),
    (["sweep", "power", *POWER_GRID, "--M", "1..3", "--es", "1"],
     ("--M", "--es", *GRID_FLAGS, "--normalizer", "--pareto")),
    (["sweep", "es", "--es-list", "0,1", "--M", "1..3", "--p", "0.4", "--et", "1"],
     ("--es-list", "--base", "--p", "--M", "--et", "--tx-ref", *GRID_FLAGS)),
    (["validate", "--slots", "2000", "--p", "0.4", "--M", "1,3"],
     ("--grid", "--slots", "--cycles", "--p", "--M", "--seed", "--es", "--et", "--batches")),
]
# Ordinary, boundary and malformed values of each flag; horizons stay at or
# below 1e4 and grids at a few points. None marks a flag without a value.
FUZZ_VALUES = {
    "--p": ["0", "0.4", "0.999", "1", "-0.1", "nan", "0.1,0.7", "x"],
    "--M": ["1", "3", "1..3", "0", str(10**20), "3..1", "a"],
    "--es": ["0", "4.02308", "-1", "nan", "inf", "1e308"],
    "--et": ["0", "4.02308", "-1", "nan", "inf", "1e308"],
    "--pt-dbm": ["20", "-10", "inf", "4000"],
    "--rate": ["2", "0", "-1", "2000"],
    "--sigma2": ["1e-5", "0"],
    "--snr-ref-db": ["20", "-3", "1e308", "-4000"],
    "--p-ref-dbm": ["20", "-1e1"],
    "--pc": ["2.1", "-1"],
    "--eta": ["19.2308", "0"],
    "--pmax-dbm": ["20", "nan"],
    "--estimator": ["slot", "cycle", "bogus"],
    "--horizon": ["1", "100", "10000", "0"],
    "--warmup": ["0", "10", "9999", "-1"],
    "--batches": ["1", "2", "100"],
    "--seed": ["0", "7", "-1", str(2**64)],
    "--dbm-min": ["2", "-10", "inf"],
    "--dbm-max": ["20", "2", "inf"],
    "--dbm-step": ["3", "0", "-1", "1e-12"],
    "--es-list": ["0,4.02308", "nan", ""],
    "--base": ["m", "power", "x"],
    "--tx-ref": ["1", "0", "-1"],
    "--normalizer": ["2", "0", "nan", "1e-308"],
    "--slots": ["100", "10000", "0"],
    "--cycles": ["100", "10000", "0"],
    "--grid": ["default", "other"],
    "--format": ["csv", "json", "xml"],
    "--pareto": [None],
    "--output": ["out.txt", "missing/out.txt"],
    "--trace": ["trace.csv"],
    "--config": ["m.json", "missing.json"],
}
COMMON_FLAGS = ("--format", "--output", "--config")


@st.composite
def fuzzed_argv(draw):
    argv, flags = draw(st.sampled_from(FUZZ_COMMANDS))
    for flag in draw(st.lists(st.sampled_from((*flags, *COMMON_FLAGS)), max_size=4)):
        value = draw(st.sampled_from(FUZZ_VALUES[flag]))
        argv = [*argv, flag] if value is None else [*argv, flag, value]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_argv())
def test_fuzzed_argv_exits_cleanly(tmp_path, capsys, monkeypatch, argv):
    # Any argv from the flag vocabulary gives a documented exit code and no
    # traceback (an uncaught exception fails the test), prints no nan or inf
    # on success, and leaves no .part file.
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text('{"M": 2}')
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower(), out
    assert not list(tmp_path.rglob("*.part"))


# ---------------------------------------------------------------------------
# Import cost: the closed-form path never loads numpy
# ---------------------------------------------------------------------------


def run_fresh(script, *flags):
    """Run ``script`` in a new interpreter (given ``flags``) that imports this
    aoilink; return its last stdout line as JSON."""
    src = str(Path(aoilink.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(proc.stdout.splitlines()[-1])


CLOSED_FORM_CALLS = [
    ["analytic", "--p", "0.4", "--M", "3", *REF],
    ["sweep", "m", "--p", "0.4,0.7", "--M", "1..6", *REF],
    ["sweep", "power", "--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "2",
     "--M", "1,3", "--es", "4.02308", *POWER_LINK, "--pareto"],
    ["sweep", "es", "--es-list", "0.5,4", "--p", "0.4", "--M", "1..4", "--et", "4.02308",
     "--format", "json"],
    ["--help"],
]


# The package's public names; removing one is an API change.
PUBLIC_NAMES = {
    "EnergyParams", "EsSweep", "FixedFailureLink", "LinkSpec", "MSweep", "MetricPoint", "Policy",
    "PowerModel", "PowerSweep", "RayleighLink", "SimConfig", "SimResult", "TradeoffCurve",
    "ValidationPoint", "ValidationReport", "age_trace", "avg_aoi", "avg_energy", "build_report",
    "cycle_length_moments", "cycle_length_pmf", "dbm_grid", "dbm_to_watts", "delivered_tx_count_mean",
    "delivered_tx_count_pmf", "es_sweep", "evaluate", "failure_prob", "m_sweep",
    "noise_from_reference_snr", "normalize_curve", "pareto_front", "pow_complement", "power_sweep",
    "run_cycle_sim", "run_slot_sim", "sample_cycles", "sense_count_mean", "sense_count_pmf",
    "transmit_energy", "within_tolerance", "write_age_trace",
}


def test_closed_form_path_does_not_import_numpy():
    seen = run_fresh(f"""
import contextlib, io, json, sys
steps = {{}}
import aoilink
steps["import aoilink"] = "numpy" in sys.modules
import aoilink.cli
steps["import aoilink.cli"] = "numpy" in sys.modules
for argv in {CLOSED_FORM_CALLS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert aoilink.cli.main(argv) == 0
    steps[" ".join(argv[:2])] = "numpy" in sys.modules
listed = set(aoilink.__all__) <= set(dir(aoilink))
steps["dir(aoilink)"] = "numpy" in sys.modules
print(json.dumps({{"listed": listed, "all": aoilink.__all__, "numpy_after": steps}}))
""")
    assert seen["listed"] is True
    assert len(seen["all"]) == len(set(seen["all"]))
    assert set(seen["all"]) == PUBLIC_NAMES
    steps = seen["numpy_after"]
    assert len(steps) == 2 + len(CLOSED_FORM_CALLS) + 1
    assert not any(steps.values()), steps


def test_closed_form_path_loads_no_dataclasses_inspect_or_typing():
    # Those three modules once took a fifth of the CLI's start-up. -S keeps the
    # host's site hooks out: a package's .pth file may import typing itself.
    seen = run_fresh(f"""
import contextlib, io, json, sys
slow = ("dataclasses", "inspect", "typing")
steps = {{"before": [name for name in slow if name in sys.modules]}}
import aoilink.cli
steps["import aoilink.cli"] = [name for name in slow if name in sys.modules]
for argv in {CLOSED_FORM_CALLS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert aoilink.cli.main(argv) == 0
    steps[" ".join(argv[:2])] = [name for name in slow if name in sys.modules]
print(json.dumps(steps))
""", "-S")
    assert len(seen) == 2 + len(CLOSED_FORM_CALLS)
    assert not any(seen.values()), seen


def test_simulate_imports_numpy_and_calls_the_current_binding():
    # Names are bound on first use, never over a binding already set, so a
    # wrapper installed before the first call is the one that runs.
    seen = run_fresh(f"""
import contextlib, io, json, sys
import aoilink.cli as cli
import aoilink
validation = aoilink.validation.__name__  # a submodule not yet imported
found = callable(getattr(cli, "run_slot_sim"))
real = cli.run_slot_sim
calls = []
cli.run_slot_sim = lambda cfg: calls.append(cfg.horizon_slots) or real(cfg)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["simulate", "--p", "0.4", "--M", "3", *{REF!r}, "--horizon", "500"])
from aoilink import build_report, run_slot_sim
print(json.dumps({{
    "found": found,
    "code": code,
    "calls": calls,
    "numpy": "numpy" in sys.modules,
    "package": run_slot_sim is real and build_report is aoilink.validation.build_report,
    "submodules": [validation, aoilink.simulator.run_slot_sim is real],
}}))
""")
    assert seen == {"found": True, "code": 0, "calls": [500], "numpy": True,
                    "package": True, "submodules": ["aoilink.validation", True]}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p", "0.4", "--M", "6", "--es", "1", "--et", "1", "--horizon", "1000"],
        ["validate", "--p", "0.4", "--M", "6", "--slots", "1000"],
    ],
    ids=["simulate", "validate"],
)
def test_simulator_commands_without_numpy_fail_in_one_line(argv):
    # As on an interpreter without numpy: importing it raises ImportError.
    seen = run_fresh(f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
from aoilink import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "out": out.getvalue(), "err": err.getvalue()}}))
""")
    assert seen["code"] == 1
    assert seen["out"] == ""
    assert seen["err"].startswith("aoilink: error:") and seen["err"].count("\n") == 1
    assert seen["err"].endswith("(simulate and validate need numpy)\n")


def test_lazy_names_fail_like_missing_attributes():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        aoilink.nope
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cli.nope


# ---------------------------------------------------------------------------
# Emitters and round trips
# ---------------------------------------------------------------------------


def curves_for_roundtrip():
    raw = m_sweep(MSweep((0.4, 0.7), (1, 3, 6), EnergyParams(4.02308, 4.02308)))
    normalized = [normalize_curve(curve, 8.04616) for curve in raw]
    return raw + normalized


def test_emit_csv_empty_is_header_only():
    assert emit_csv([]) == "label,p,M,pt_dbm,avg_energy,avg_energy_normalized,avg_aoi\n"


def test_emit_csv_single_point():
    curves = m_sweep(MSweep((0.4,), (1,), EnergyParams(4.02308, 4.02308)))
    lines = emit_csv(curves).splitlines()
    assert len(lines) == 2
    assert lines[1] == "p=0.4,0.4,1,,8.04616,,2.16666667"


def test_csv_round_trip_is_identity():
    text = emit_csv(curves_for_roundtrip())
    rows = parse_csv(text)
    assert rows_to_csv(rows) == text


def test_json_round_trip_is_identity():
    text = emit_json(curves_for_roundtrip())
    rows = parse_json(text)
    assert rows_to_json(rows) == text


def test_parse_csv_types():
    text = emit_csv(curves_for_roundtrip())
    rows = parse_csv(text)
    first = rows[0]
    assert isinstance(first["p"], float)
    assert isinstance(first["M"], int)
    assert first["pt_dbm"] is None
    assert isinstance(first["avg_aoi"], float)


@pytest.mark.parametrize("parse, text", [(parse_csv, ""), (parse_json, "{}")], ids=["csv", "json"])
def test_parse_rejects_input_without_rows(parse, text):
    with pytest.raises(ValueError):
        parse(text)


def test_report_pass_columns_round_trip_by_value():
    result = SimResult(2.0, 3.0, 0.1, 0.1, slots=100, packets_generated=60, successes=50, seed=5)
    verdicts = [(True, False), (False, True)]
    points = tuple(ValidationPoint(0.4, 2, 2.0, 3.0, result, result, *pair) for pair in verdicts)
    rows = parse_csv(emit_report_csv(ValidationReport(points, passed=False)))
    assert [(row["slot_pass"], row["cycle_pass"]) for row in rows] == verdicts


def simulated_results():
    cfg = SimConfig(FixedFailureLink(0.4), Policy(3), EnergyParams(4.02308, 4.02308), 7, 5000)
    return {"slot": run_slot_sim(cfg), "cycle": run_cycle_sim(cfg)}


def report_with_both_verdicts():
    results = simulated_results()
    verdicts = [(True, False), (False, True)]
    points = tuple(ValidationPoint(0.4, 3, 2.0, 3.0, results["slot"], results["cycle"], *pair) for pair in verdicts)
    return ValidationReport(points, passed=False)


@pytest.mark.parametrize("estimator", ["slot", "cycle"])
def test_result_round_trips_by_bytes(estimator):
    result = simulated_results()[estimator]
    text = emit_result_csv(result, estimator, 0.4, 3)
    assert rows_to_csv(parse_csv(text), RESULT_FIELDS) == text
    text = emit_result_json(result, estimator, 0.4, 3)
    assert rows_to_json(parse_json(text), RESULT_FIELDS) == text


def test_report_round_trips_by_bytes():
    report = report_with_both_verdicts()
    text = emit_report_csv(report)
    assert rows_to_csv(parse_csv(text), REPORT_FIELDS) == text
    # The JSON report is an object whose "points" are the rows.
    text = emit_report_json(report)
    payload = json.loads(text)
    assert [(row["slot_pass"], row["cycle_pass"]) for row in payload["points"]] == [(True, False), (False, True)]
    assert json.dumps(payload, indent=2) + "\n" == text


def test_parse_csv_gives_each_column_its_declared_type():
    declared = {
        **dict.fromkeys(["label", "estimator"], str),
        **dict.fromkeys(["M", "slots", "packets_generated", "successes", "seed"], int),
        **dict.fromkeys(["slot_pass", "cycle_pass"], bool),
    }
    power = power_sweep(PowerSweep(2.0, 8.0, 3.0, (1, 3), 2.0, 20.0, 20.0, 4.02308, 2.1, 19.2308, 0.1))
    curves = power + [normalize_curve(curve, 8.04616) for curve in power]
    results = simulated_results()
    tables = [
        (emit_csv(curves), CURVE_FIELDS),
        (rows_to_csv([*result_rows(results["slot"], "slot", 0.4, 3), *result_rows(results["cycle"], "cycle", 0.4, 3)],
                     RESULT_FIELDS), RESULT_FIELDS),
        (emit_report_csv(report_with_both_verdicts()), REPORT_FIELDS),
    ]
    for text, fields in tables:
        rows = parse_csv(text)
        for name in fields:
            values = [row[name] for row in rows]
            assert {type(value) for value in values if value is not None} == {declared.get(name, float)}, name


def test_csv_and_json_carry_same_values():
    curves = curves_for_roundtrip()
    csv_parsed = parse_csv(emit_csv(curves))
    json_parsed = parse_json(emit_json(curves))
    assert len(csv_parsed) == len(json_parsed)
    for via_csv, via_json in zip(csv_parsed, json_parsed):
        assert via_csv["label"] == via_json["label"]
        assert via_csv["M"] == via_json["M"]
        assert via_csv["avg_aoi"] == pytest.approx(via_json["avg_aoi"], rel=1e-8)


def test_report_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        ["validate", "--p", "0.2", "--M", "2", "--slots", "20000",
         "--cycles", "20000", "--seed", "5", "--format", "json"],
    )
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


# Non-ASCII labels, None, big ints, awkward floats: everything a flat row
# can carry through json.dumps.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)


@settings(deadline=None)  # wall time varies with the drawn text; the result does not
@given(
    st.lists(
        st.fixed_dictionaries(
            {}, optional=dict.fromkeys(CURVE_FIELDS + RESULT_FIELDS, json_scalars)
        ),
        max_size=8,
    ),
    st.sampled_from([CURVE_FIELDS, RESULT_FIELDS]),
)
@example([{"label": "Es=1 \u00b5J \u2206", "M": 2**64, "p": None}], CURVE_FIELDS)
@example([], CURVE_FIELDS)
@example([dict.fromkeys(CURVE_FIELDS, 0.1)], CURVE_FIELDS)  # keyed as emitted: not re-keyed
@example([dict.fromkeys(CURVE_FIELDS, 2), dict.fromkeys(reversed(CURVE_FIELDS), 1.5)], CURVE_FIELDS)
def test_rows_to_json_equals_indented_dumps(rows, fields):
    ordered = [{name: row.get(name) for name in fields} for row in rows]
    assert rows_to_json(rows, fields) == json.dumps(ordered, indent=2) + "\n"


@st.composite
def curve_lists(draw):
    """Curves of drawn points: normalized or not, pt_dbm None, a float or mixed
    within a curve, M up to 2**70, and in some lists non-finite float cells. Each
    column draws from a few values shared by every curve of the list, so cells
    repeat across curves; a column's values may include a pair that compares
    equal but prints apart: 0.0 and -0.0, 0 and 0.0, 1 and 1.0, or in M True and 1."""
    floats = draw(st.sampled_from([st.floats(allow_nan=False, allow_infinity=False), st.floats()]))

    def pool(values, pairs):
        shared = draw(st.lists(values, max_size=3)) + list(draw(st.sampled_from(pairs)))
        return st.sampled_from(shared or [draw(values)])

    equal = [(), (0.0, -0.0), (0, 0.0), (1, 1.0)]
    dbm = draw(st.sampled_from([st.none(), floats, st.none() | floats]))
    point = st.builds(MetricPoint, pool(floats, equal), pool(st.integers(1, 2**70), [(), (True, 1)]),
                      pool(floats, equal), pool(floats, equal), pool(dbm, equal))
    curves = []
    for _ in range(draw(st.integers(0, 3))):
        curves.append(TradeoffCurve(draw(st.text()), draw(st.lists(point, max_size=5)),
                                    draw(st.none() | st.floats(0.1, 10.0))))
    return curves


def labelled(label):
    """An unnormalized and a normalized curve named ``label``, pt_dbm mixed."""
    points = (MetricPoint(0.4, 3, 2.5, 1.25), MetricPoint(0.1, 2**70, 1.5, 3.0, -3.5))
    return [TradeoffCurve(label, points), TradeoffCurve(label, points, 2.0)]


def outcome(emit, *args):
    """The emitted text, or the type and message of the error raised instead
    (csv.Error: Python 3.10's csv.writer cannot write a NUL)."""
    try:
        return emit(*args)
    except (ValueError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"


# The emitters' reference, independent of aoilink.output: csv.writer and
# json.dumps(indent=2) over row dicts built here, with the README's cell rules.
TEXT_COLUMNS = {"label", "estimator"}
INT_COLUMNS = {"M", "slots", "packets_generated", "successes", "seed"}
BOOL_COLUMNS = {"slot_pass", "cycle_pass"}


def reference_cell(name, value):
    if value is None:
        return ""
    if name in BOOL_COLUMNS:
        return "true" if value else "false"
    if name in TEXT_COLUMNS or name in INT_COLUMNS:
        return str(value)  # integers in full
    return f"{value:.9g}"


def reference_table(fields, rows, fmt, verdict=None):
    """The text emitted for ``rows`` (a JSON report adds ``verdict`` beside its
    points); their first float cell, in row order, that is not finite raises."""
    for row in rows:
        for name in fields:
            value = row[name]
            if name not in TEXT_COLUMNS | INT_COLUMNS | BOOL_COLUMNS and value is not None and not math.isfinite(value):
                raise ValueError(f"{name} is {value}: the inputs are past the float range")
    if fmt == "json":
        return json.dumps(rows if verdict is None else {"points": rows, **verdict}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([reference_cell(name, row[name]) for name in fields] for row in rows)
    return buf.getvalue()


@settings(deadline=None)
@given(curve_lists())
@example([])
@example([TradeoffCurve("empty", ())])
@example(labelled(""))
@example(labelled("a,b"))
@example(labelled('q"x'))
@example(labelled("50%"))
@example(labelled("{}"))
@example(labelled("l\nm"))
@example(labelled("\r"))  # quoted by csv.writer from Python 3.13 on
@example(labelled("\x00"))  # csv.writer raises on Python 3.10
@example(labelled("Es=1 \u00b5J \u2206 \U0001f4e1"))
# Non-finite cells in two columns: the age of the first row is reported, though the
# fast check meets the second row's p first.
@example([TradeoffCurve("x", (MetricPoint(0.4, 1, math.nan, 1.0), MetricPoint(math.inf, 1, 1.0, 1.0, -math.inf)))])
# Equal cells that print apart, in two curves: p 0.0 and -0.0, and M True beside 1.
@example([TradeoffCurve("a", (MetricPoint(0.0, 1, 1.5, 2.0),)), TradeoffCurve("b", (MetricPoint(-0.0, 1, 1.5, 2.0),))])
@example([TradeoffCurve("a", (MetricPoint(0.4, True, 1.5, 2.0),)), TradeoffCurve("b", (MetricPoint(0.4, 1, 1.5, 2.0),))])
def test_curve_emitters_equal_the_row_path(curves):
    rows = [
        {"label": curve.label, "p": p, "M": m, "pt_dbm": dbm,
         "avg_energy": None if curve.normalizer is not None else energy,
         "avg_energy_normalized": None if curve.normalizer is None else energy, "avg_aoi": aoi}
        for curve in curves for p, m, aoi, energy, dbm in curve.points
    ]
    assert outcome(emit_csv, curves) == outcome(reference_table, CURVE_FIELDS, rows, "csv")
    text = outcome(reference_table, CURVE_FIELDS, rows, "json")
    assert outcome(emit_json, curves) == text
    assert outcome(curve_rows, curves) == (text if text.startswith("ValueError") else rows)


CELLS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0, -0.0, math.inf, math.nan])


def result_cells(floats):
    """A SimResult whose four estimates are drawn from ``floats``."""
    counts = st.integers(0, 2**64 - 1)
    return st.builds(SimResult, floats, floats, floats, floats, counts, counts, counts, counts)


def estimates(result):
    return [result.avg_aoi_est, result.stderr_aoi, result.avg_energy_est, result.stderr_energy]


@settings(deadline=None)
@given(st.sampled_from(["slot", "cycle"]) | st.text(), CELLS, st.integers(1, 2**70), result_cells(CELLS))
@example("slot", 0.4, 3, SimResult(2.5, 3.0, 0.0, -0.0, 100, 60, 50, 2**64 - 1))
@example("a,b", -0.0, True, SimResult(2.5, math.nan, math.inf, 1.0, 100, 60, 50, 0))
def test_result_emitters_equal_the_row_path(estimator, p, max_tx, result):
    row = dict(zip(RESULT_FIELDS, [estimator, p, max_tx, *estimates(result), *result[4:]]))
    args = result, estimator, p, max_tx
    assert outcome(emit_result_csv, *args) == outcome(reference_table, RESULT_FIELDS, [row], "csv")
    text = outcome(reference_table, RESULT_FIELDS, [row], "json")
    assert outcome(emit_result_json, *args) == text
    assert outcome(result_rows, *args) == (text if text.startswith("ValueError") else [row])


@st.composite
def reports(draw):
    """Reports of 0 to 4 points whose cells repeat across points, non-finite in some."""
    floats = draw(st.sampled_from([st.floats(allow_nan=False, allow_infinity=False), st.floats()]))
    shared = st.sampled_from(draw(st.lists(floats, min_size=1, max_size=3)) + [0.0, -0.0])
    results = st.sampled_from(draw(st.lists(result_cells(shared), min_size=1, max_size=2)))
    point = st.builds(ValidationPoint, shared, st.integers(1, 2**70), shared, shared, results, results,
                      st.booleans(), st.booleans())
    return ValidationReport(tuple(draw(st.lists(point, max_size=4))), draw(st.booleans()))


def report_point(result, slot_pass):
    return ValidationPoint(0.4, 3, 2.0, 3.0, result, result, slot_pass, True)


@settings(deadline=None)
@given(reports())
@example(ValidationReport((), True))
@example(ValidationReport((report_point(SimResult(2.0, 3.0, 0.1, -0.0, 100, 60, 50, 5), True),), True))
@example(ValidationReport(tuple(report_point(SimResult(2.0, 3.0, 0.1, 0.1, 100, 60, 50, seed), seed % 2 == 0)
                                for seed in range(5)), False))
# In row order: the first point's slot_stderr_energy is reported, not the second's slot_energy.
@example(ValidationReport((report_point(SimResult(2.0, 3.0, 0.1, math.inf, 100, 60, 50, 5), True),
                           report_point(SimResult(2.0, math.nan, 0.1, 0.1, 100, 60, 50, 5), True)), True))
def test_report_emitters_equal_the_row_path(report):
    rows = [
        dict(zip(REPORT_FIELDS, [pt.p, pt.max_tx, pt.exact_aoi, pt.exact_energy, *estimates(pt.slot), pt.slot_pass,
                                 *estimates(pt.cycle), pt.cycle_pass]))
        for pt in report.points
    ]
    verdict = {"num_points": len(rows), "num_passed": sum(bool(row["slot_pass"] and row["cycle_pass"]) for row in rows),
               "passed": report.passed}
    text = outcome(reference_table, REPORT_FIELDS, rows, "csv")
    assert outcome(emit_report_csv, report) == text
    assert outcome(emit_report_json, report) == outcome(reference_table, REPORT_FIELDS, rows, "json", verdict)
    assert outcome(report_rows, report) == (text if text.startswith("ValueError") else rows)


# ---------------------------------------------------------------------------
# Output digests of the benchmark's three sweep calls, as emitted by the
# all-pairs Pareto filter and json.dumps(indent=2), and of the two curve
# shapes they leave out (an unnormalized and a normalized JSON curve with
# pt_dbm null), as emitted through row dicts (rows_to_json over curve_rows)
# ---------------------------------------------------------------------------

POWER_GRID = ["--dbm-min", "2", "--dbm-max", "20", "--dbm-step", "0.05", "--M", "1..8", *POWER_LINK]
P_GRID = ",".join(f"{(j + 0.5) / 101:.6f}" for j in range(100))


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        (["sweep", "power", "--pareto", "--format", "json", "--es", "4.02308", *POWER_GRID],
         119117, "854967e85372f43cbc846bb7c166211f19f2326fa8a5fbce8b1fcd1dccc8d128"),
        (["sweep", "es", "--base", "power", "--format", "json",
          "--es-list", "0,2.01154,4.02308,8.04616", *POWER_GRID],
         2625212, "90151a6e70cb7eb23e01ce80f10756481fdd2500c6a2ce33fca19abec29b3db4"),
        (["sweep", "m", "--p", P_GRID, "--M", "1..100", *REF],
         463289, "05cd31342d55401e85b1d71b88e70f97d1772284b0a5c87256f49e69e97e7a39"),
        (["sweep", "m", "--format", "json", "--p", P_GRID, "--M", "1..100", *REF],
         1918718, "8da7ed4991ff296027d5f01c03bf1a27a1443d1bc7614d35c3557b39caf7cd04"),
        (["sweep", "es", "--base", "m", "--format", "json", "--es-list", "0,2.01154,4.02308,8.04616",
          "--p", P_GRID, "--M", "1..25", "--et", "4.02308"],
         2160446, "088873650fe3eacae4da3918b35bdd29f0b16f2042ee96926bac2bed581c764c"),
        # p 0 and -0 print apart, as do their curves' labels.
        (["sweep", "m", "--p", "0,-0.0,0.25", "--M", "1,2", "--es", "1", "--et", "1"],
         186, "47308cbded9535aa98c0824ba24a748ba5a417c3e30be45240275ae26313eea6"),
        (["sweep", "m", "--format", "json", "--p", "0,-0.0,0.25", "--M", "1,2", "--es", "1", "--et", "1"],
         956, "58948f2398393972d246667c1a23d7be36369def7604b319f98d29c1affe02ac"),
    ],
    ids=["power-pareto-json", "es-power-json", "m-csv", "m-json", "es-m-json", "m-zero-csv", "m-zero-json"],
)
def test_sweep_output_digest(capsys, argv, size, digest):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# Recorded from the slot estimator that summed its kernel's per-slot outputs,
# before it reduced per run of outcomes; 1e6 slots and cycles at each point.
@pytest.mark.parametrize(
    "fmt, size, digest",
    [
        ("csv", 1314, "766b939a21dc8e92fc263eca4f7e71acb114b58c670100af9f5316dc76bd892f"),
        ("json", 4688, "02d0438b833ae1b4fcb04475b04b43d089183915ec14fa3581c62587ccf2ed6b"),
    ],
)
def test_validate_output_digest(capsys, fmt, size, digest):
    code, out, _ = run_cli(capsys, ["validate", "--grid", "default", "--seed", "7", "--format", fmt])
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
