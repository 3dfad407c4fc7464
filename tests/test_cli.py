import csv
import errno
import io
import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gravqm import __version__, cli
from oracles import SPEED_OF_LIGHT, run_fresh
from oracles import run_cli as run

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli_output.schema.json").read_text()
)


@pytest.fixture
def nothing_computes(monkeypatch):
    """Fail any test in which a command reaches its computation."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("computation ran before the usage check")

    computations = ("airy_values", "ai_negative_zero", "propagate_linear_potential",
                    "frame_equivalence")
    for name in computations:
        monkeypatch.setattr(f"gravqm.cli.{name}", must_not_run)


def parse_csv(text: str) -> dict[str, list[float]]:
    reader = csv.DictReader(io.StringIO(text))
    columns: dict[str, list[float]] = {name: [] for name in reader.fieldnames}
    for row in reader:
        for name, value in row.items():
            columns[name].append(float(value))
    return columns


# -------------------------------------------------------------------- airy


def test_airy_zeros_table():
    result = run("airy", "--zeros", "6")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 7  # header + 6 rows
    assert "2.33810741" in lines[1]
    assert "9.02265085" in lines[6]


def test_airy_eval_origin():
    result = run("airy", "--eval", "0")
    assert result.exit_code == 0
    assert "0.35502805" in result.output
    assert "-0.25881940" in result.output


def test_airy_zero_count_usage_error():
    assert run("airy", "--zeros", "0").exit_code == 2
    assert run("airy", "--zeros", "60").exit_code == 2
    assert run("airy").exit_code == 2
    assert run("airy", "--eval", "1", "--zeros", "3").exit_code == 2


def test_airy_unknown_flag_rejected():
    assert run("airy", "--zeros", "3", "--bogus").exit_code == 2


def test_missing_subcommand_is_usage_error():
    assert run().exit_code == 2


def test_help_and_version_exit_zero():
    assert run("--help").exit_code == 0
    assert run("airy", "--help").exit_code == 0
    result = run("--version")
    assert (result.exit_code, result.stdout) == (0, "gravqm, version 0.1.0\n")


def test_abbreviated_options_are_rejected():
    assert run("bouncer", "--lev", "3").exit_code == 2
    assert run("redshift", "--z", "1", "--om", "2").exit_code == 2


@pytest.mark.parametrize(
    "args, code",
    [
        (["redshift", "--z", "-1e-3"], 0),
        (["airy", "--eval", "-2.5e1"], 0),
        (["cow", "--lambda", "1", "--height", "1", "--length", "1", "--a", "-1e-05"], 0),
        (["airy", "--eval", "-inf"], 2),
    ],
    ids=["redshift", "airy", "cow", "airy-minus-inf"],
)
def test_negative_numbers_in_every_notation_are_option_values(args, code):
    # "-1e-3" or "-inf" after an option is its value, never an unknown option
    result = run(*args)
    assert result.exit_code == code
    if code == 2:
        assert "argument must be finite, got -inf" in result.stderr


def test_numeric_failure_exits_one():
    # Bi overflows past x ~ 104; the CLI maps NumericError to exit code 1
    result = run("airy", "--eval", "120")
    assert result.exit_code == 1


def test_airy_csv_round_trip():
    result = run("airy", "--zeros", "4", "--format", "csv")
    assert result.exit_code == 0
    columns = parse_csv(result.output)
    assert columns["n"] == [1.0, 2.0, 3.0, 4.0]
    assert columns["magnitude"][0] == pytest.approx(2.33810741045977, abs=1e-10)


# ----------------------------------------------------------------- bouncer


def test_bouncer_levels_table():
    result = run("bouncer", "--levels", "10")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 11
    # tabulated tail probabilities, percent; printed at 2 decimals
    expected = [13.62, 10.39, 8.95, 8.07, 7.46, 7.01, 6.64, 6.34, 6.09, 5.88]
    for line, value in zip(lines[1:], expected):
        shown = float(line.split()[-1])
        assert shown == pytest.approx(value, abs=0.05)


def test_bouncer_e_tilde_column():
    result = run("bouncer", "--levels", "3")
    lines = result.output.strip().splitlines()
    e_tilde = [float(line.split()[1]) for line in lines[1:]]
    assert e_tilde == pytest.approx([2.3381, 4.0879, 5.5206], abs=1e-4)


def test_bouncer_si_neutron_ground_state():
    result = run("bouncer", "--levels", "1", "--si-neutron")
    assert result.exit_code == 0
    row = result.output.strip().splitlines()[1].split()
    assert float(row[3]) == pytest.approx(1.41, abs=0.005)  # peV


def test_bouncer_stores_fractions_not_percent():
    result = run("bouncer", "--levels", "2", "--format", "csv")
    columns = parse_csv(result.output)
    assert columns["p_outside"][0] == pytest.approx(0.13623743, abs=5e-6)


def test_bouncer_level_count_validated():
    assert run("bouncer", "--levels", "0").exit_code == 2
    assert run("bouncer", "--levels", "51").exit_code == 2


# --------------------------------------------------------------------- cow


def test_cow_unit_cancellation():
    result = run("cow", "--lambda", str(2.0 * math.pi), "--height", "1", "--length", "1")
    assert result.exit_code == 0
    assert "phase shift : 1 rad" in result.output


def test_cow_time_route_agreement(tmp_path):
    out = tmp_path / "cow.csv"
    for accel in ("2.1", "-2.1"):  # the routes agree in sign as well
        result = run(
            "cow", "--lambda", "0.7", "--height", "1.3", "--length", "0.9",
            "--a", accel, "--via-time-route", "--format", "csv", "--out", str(out),
        )
        assert result.exit_code == 0
        columns = parse_csv(out.read_text())
        assert columns["route_rel_difference"][0] <= 1e-12


def test_cow_neutron_si():
    result = run(
        "cow", "--si-neutron", "--lambda", "1.419e-10",
        "--height", "0.05", "--length", "0.02", "--format", "csv",
    )
    columns = parse_csv(result.output)
    # frozen from the constant-plugging oracle with A = 1e-3 m^2
    assert columns["phase_rad"][0] == pytest.approx(55.867971938, rel=1e-9)


def test_cow_rejects_bad_geometry():
    assert run("cow", "--lambda", "-1", "--height", "1", "--length", "1").exit_code == 2


# ---------------------------------------------------------------- redshift


def test_redshift_zero_separation():
    result = run("redshift", "--z", "0")
    assert result.exit_code == 0
    assert "delta_omega : 0" in result.output


def test_redshift_natural_spot_value():
    result = run("redshift", "--z", "2.0", "--mass", "1.5", "--accel", "0.5", "--format", "csv")
    columns = parse_csv(result.output)
    assert columns["delta_omega"][0] == pytest.approx(1.5 * 0.5 * 2.0, rel=1e-12)


def test_redshift_si_ratio_is_az_over_c_squared():
    result = run("redshift", "--z", "1.0", "--si", "--format", "csv")
    columns = parse_csv(result.output)
    assert columns["delta_omega"][0] == pytest.approx(1.5575447289e8, rel=1e-9)
    assert columns["ratio"][0] == pytest.approx(9.80665 / SPEED_OF_LIGHT**2, rel=1e-12)


@pytest.mark.parametrize(
    "options, named",
    [
        (["--mass", "2"], "--mass"),
        (["--accel", "1"], "--accel"),  # an explicit default is still refused
        (["--hbar", "5", "--omega-prime", "7"], "--hbar, --omega-prime"),
        (["--mass", "2", "--accel", "3", "--hbar", "5", "--omega-prime", "7"],
         "--mass, --accel, --hbar, --omega-prime"),
    ],
    ids=["mass", "explicit-default", "hbar-omega-prime", "all-four"],
)
def test_redshift_si_refuses_natural_mode_options(options, named):
    # --si fixes the neutron constants, so a natural-mode option given with it
    # would be dropped without a word
    result = run("redshift", "--z", "1", "--si", *options)
    assert result.exit_code == 2
    assert f"{named} cannot be combined with --si" in result.output
    assert "delta_omega" not in result.output


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_redshift_natural_ratio_to_omega_prime(fmt):
    # delta_omega = m*a*z/hbar = 2 against omega' = 4
    result = run("redshift", "--z", "2", "--omega-prime", "4", "--format", fmt)
    assert result.exit_code == 0
    if fmt == "table":
        assert "delta_omega/omega' : 0.5" in result.output
    else:
        assert parse_csv(result.output)["ratio"] == [0.5]


# ------------------------------------------------------------------ evolve

FAST_EVOLVE = ["--n-points", "1024", "--dt", "2e-3", "--t-final", "0.2"]


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--demo", "free-dispersion", "--dt", "0"],
        ["evolve", "--demo", "free-dispersion", "--dt", "nan"],
        ["evolve", "--demo", "free-dispersion", "--t-final", "-1"],
        ["redshift", "--z", "1", "--omega-prime", "0"],
    ],
)
def test_non_positive_step_time_and_frequency_are_usage_errors(args):
    result = run(*args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "finite positive number" in result.output


def test_evolve_requires_out_for_json(nothing_computes):
    for demo in ("free-dispersion", "frame-equivalence"):
        result = run("evolve", "--demo", demo, "--format", "json", *FAST_EVOLVE)
        assert result.exit_code == 2
        assert "usage: gravqm evolve" in result.output
        assert "--out is required" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["airy", "--zeros", "3", "--format", "json"],
        ["airy", "--eval", "0"],
        ["evolve", "--demo", "free-dispersion", *FAST_EVOLVE],
        ["evolve", "--demo", "frame-equivalence", "--format", "json", *FAST_EVOLVE],
    ],
    ids=["airy-json", "airy-table", "free-dispersion", "frame-equivalence"],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory", "under-a-file"])
def test_unwritable_out_is_refused_before_computing(tmp_path, nothing_computes, args, target):
    (tmp_path / "file").write_text("")
    out = {
        "missing-directory": tmp_path / "missing" / "out.json",
        "directory": tmp_path,
        "under-a-file": tmp_path / "file" / "out.json",
    }[target]
    result = run(*args, "--out", str(out))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"cannot write {str(out)!r}" in result.stderr
    assert result.stdout == ""


def test_failed_write_is_a_usage_error(tmp_path, monkeypatch):
    # a write can still fail after the check, say on a full disk
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("gravqm.cli.open", full_disk, raising=False)
    out = tmp_path / "zeros.json"
    result = run("airy", "--zeros", "3", "--format", "json", "--out", str(out))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"cannot write {str(out)!r}: No space left on device" in result.stderr


def test_evolve_step_count_is_bounded():
    # 8.7e299 steps would never return; the count is refused before any grid is built
    result = run("evolve", "--demo", "free-dispersion", "--dt", "1e-300")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "8.66e+299 steps" in result.output


def test_evolve_step_count_rounding_to_zero_is_refused(nothing_computes):
    # t_final/dt = 8.7e-301: the run would end at t = dt = 1e300, not at t_final
    result = run("evolve", "--demo", "free-dispersion", "--n-points", "256", "--dt", "1e300")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "8.66e-301 steps" in result.output


@pytest.mark.parametrize("count", ["1048577", "20000000000", "9223372036854775808"])
def test_evolve_point_count_is_bounded(nothing_computes, count):
    result = run("evolve", "--demo", "free-dispersion", "--n-points", count)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"n_points must be at most 1048576, got {count}" in result.output


def test_evolve_bouncer_moments_single_step(tmp_path):
    out = tmp_path / "moments.csv"
    result = run(
        "evolve", "--demo", "bouncer-moments", "--out", str(out),
        "--n-points", "1024", "--dt", "1e-2", "--t-final", "0.01",
    )
    assert result.exit_code == 0
    assert len(parse_csv(out.read_text())["t"]) == 2
    checks = [line for line in result.stdout.splitlines() if "residual=" in line]
    assert [line.split(":")[0] for line in checks] == [
        "mean_momentum", "mean_position", "momentum_spread", "position_spread"
    ]
    assert all(line.endswith(" pass") for line in checks)


def test_evolve_free_dispersion_csv_round_trip(tmp_path):
    out = tmp_path / "series.csv"
    result = run("evolve", "--demo", "free-dispersion", "--out", str(out), *FAST_EVOLVE)
    assert result.exit_code == 0
    summary = dict(
        line.split("=", 1) for line in result.output.strip().splitlines() if "=" in line
    )
    columns = parse_csv(out.read_text())
    width = np.array(columns["width"])
    analytic = np.array(columns["width_analytic"])
    recomputed = float(np.max(np.abs(width[1:] - analytic[1:]) / analytic[1:]))
    # 17-significant-digit serialization makes the recomputation exact
    assert recomputed == float(summary["max_rel_width_deviation"])


def test_evolve_without_out_keeps_stdout_to_csv_rows():
    result = run("evolve", "--demo", "free-dispersion", *FAST_EVOLVE)
    assert result.exit_code == 0
    columns = parse_csv(result.stdout)
    assert list(columns) == ["t", "width", "width_analytic"]
    assert len(columns["t"]) == 101
    assert result.stderr.startswith("max_rel_width_deviation=")
    assert "max_rel_width_deviation" not in result.stdout


def test_evolve_json_schema_and_precision(tmp_path):
    out = tmp_path / "series.json"
    result = run(
        "evolve", "--demo", "bouncer-moments", "--format", "json", "--out", str(out),
        "--n-points", "2048", "--dt", "2e-3", "--t-final", "0.2",
    )
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["meta"]["command"] == "evolve"
    assert payload["meta"]["parameters"]["demo"] == "bouncer-moments"
    # round-trip at full precision: dump/parse must reproduce the floats
    for name, values in payload["data"].items():
        for v in values:
            assert float(repr(v)) == v


def test_evolve_frame_equivalence_small(tmp_path):
    out = tmp_path / "fe.csv"
    result = run(
        "evolve", "--demo", "frame-equivalence", "--out", str(out),
        "--n-points", "2048", "--dt", "1e-3", "--t-final", "0.3",
    )
    assert result.exit_code == 0
    summary = dict(
        line.split("=", 1) for line in result.output.strip().splitlines() if "=" in line
    )
    columns = parse_csv(out.read_text())
    assert float(summary["max_mismatch"]) == max(columns["abs_difference"])
    assert float(summary["max_mismatch"]) < 1e-3
    # the Richardson estimate of the 300-step runs' time error
    assert 0.0 < float(summary["time_correction"]) < 1e-3


def test_airy_json_output_validates(tmp_path):
    out = tmp_path / "airy.json"
    result = run("airy", "--zeros", "3", "--format", "json", "--out", str(out))
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["data"]["magnitude"][0] == pytest.approx(2.33810741045977, abs=1e-10)


def test_bouncer_json_requires_out():
    assert run("bouncer", "--levels", "2", "--format", "json").exit_code == 2


def test_table_writes_to_out_when_given(tmp_path):
    out = tmp_path / "zeros.txt"
    result = run("airy", "--zeros", "2", "--out", str(out))
    assert result.exit_code == 0
    assert result.output == ""
    assert "2.33810741" in out.read_text()


# ------------------------------------------------------------ output contract

# The exact text of the human-readable output: headers, widths, alignment and
# the summary lines, which table format prints after the table on stdout.
GOLDEN_TABLES = {
    "airy --eval 0": (
        "           x               Ai         Ai_prime               Bi         Bi_prime\n"
        "    0.000000       0.35502805      -0.25881940       0.61492663       0.44828836\n"
    ),
    "airy --zeros 3": (
        "   n             zero        magnitude\n"
        "   1      -2.33810741       2.33810741\n"
        "   2      -4.08794944       4.08794944\n"
        "   3      -5.52055983       5.52055983\n"
    ),
    "bouncer --levels 2": (
        "   n    E_tilde  E [natural]  P_outside [%]\n"
        "   1     2.3381       2.3381          13.62\n"
        "   2     4.0879       4.0879          10.39\n"
    ),
    "bouncer --levels 1 --si-neutron": (
        "   n    E_tilde          E [J]    E [peV]  P_outside [%]\n"
        "   1     2.3381   2.253812e-31       1.41          13.62\n"
    ),
    "cow --lambda 6.2831853 --height 1 --length 1 --via-time-route": (
        "phase shift : 0.9999999989 rad\n"
        "fringes     : 0.1591549429\n"
        "area        : 1\n"
        "time-route phase : 0.9999999989 rad (rel diff 1.110e-16)\n"
    ),
    "redshift --z 1 --si": (
        "delta_omega : 155754472.9 rad/s\n"
        "delta_omega/omega' = a*z/c^2 : 1.091136967e-16\n"
    ),
    "redshift --z 1 --omega-prime 2": (
        "delta_omega : 1\n"
        "delta_omega/omega' : 0.5\n"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN_TABLES))
def test_table_output_is_exact(command):
    result = run(*command.split())
    assert result.exit_code == 0
    assert result.stdout == GOLDEN_TABLES[command]
    assert result.stderr == ""


def _expected_meta(command, units, **parameters):
    return {"command": command, "version": __version__, "units": units,
            "parameters": parameters}


JSON_META = {
    "airy --eval 0": _expected_meta("airy", "dimensionless", eval=0.0),
    "airy --zeros 3": _expected_meta("airy", "dimensionless", zeros=3),
    "bouncer --levels 2": _expected_meta("bouncer", "natural", levels=2, si_neutron=False),
    "bouncer --levels 1 --si-neutron": _expected_meta("bouncer", "si", levels=1, si_neutron=True),
    "cow --lambda 6.2831853 --height 1 --length 1 --via-time-route": _expected_meta(
        "cow", "natural", wavelength=6.2831853, height=1.0, length=1.0, a=1.0, si_neutron=False,
    ),
    "cow --lambda 1.419e-10 --height 0.05 --length 0.02 --si-neutron": _expected_meta(
        "cow", "si", wavelength=1.419e-10, height=0.05, length=0.02, a=9.80665, si_neutron=True,
    ),
    "redshift --z 1 --si": _expected_meta("redshift", "si", z=1.0, si=True),
    "redshift --z 1 --omega-prime 2": _expected_meta("redshift", "natural", z=1.0, si=False),
    "evolve --demo free-dispersion --n-points 256 --dt 1e-2 --t-final 0.05": _expected_meta(
        "evolve", "natural", demo="free-dispersion", z_min=-12.0, z_max=12.0, n_points=256,
        dt=0.01, t_final=0.05, sigma0=0.5, center=0.0, n_steps=5, t_end=0.05,
    ),
}


@pytest.mark.parametrize("command", list(JSON_META))
def test_json_meta_is_exact(tmp_path, command):
    out = tmp_path / "result.json"
    result = run(*command.split(), "--format", "json", "--out", str(out))
    assert result.exit_code == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta == JSON_META[command]
    # the order of the parameters is part of the written file
    assert list(meta["parameters"]) == list(JSON_META[command]["parameters"])


@pytest.mark.parametrize(
    "command",
    [
        "airy --eval 0",
        "airy --zeros 3",
        "bouncer --levels 2",
        "cow --lambda 1 --height 1 --length 1 --via-time-route",
        "redshift --z 1 --si",
        "evolve --demo free-dispersion --n-points 128 --dt 1e-2 --t-final 0.05",
    ],
)
def test_commands_return_their_result_and_write_nothing(capsys, command):
    # each subcommand maps its own options to (columns, units, parameters,
    # table, summary); only main formats and writes that result
    options = vars(cli._parser().parse_args(command.split()))
    command_function = options.pop("run")
    for name in ("usage", "command", "fmt", "out"):
        del options[name]
    result = command_function(**options)
    assert isinstance(result, tuple) and len(result) == 5
    columns = result[0]
    assert len({len(values) for values in columns.values()}) == 1
    assert capsys.readouterr() == ("", "")


# The exit-code contract of whole commands, one row per command line (FILE
# stands for a file in the test's tmp_path): the exit code, text that stderr
# must contain (None: stderr stays empty), and a stdout line that must (True)
# or must not (False) be printed.
CONSOLE_CONTRACT = {
    # both ends of the Airy cell tables
    "airy --eval -20": (0, None, None),
    "airy --eval 11.9": (0, None, None),
    "evolve --demo free-dispersion --n-points 256 --dt 1e-2 --t-final 0.05 --out FILE": (
        0, None, None,
    ),
    # 1/0.6 rounds to 2 steps: the run ends at t = 1.2, and says so
    "evolve --demo free-dispersion --n-points 512 --dt 0.6 --t-final 1 --out FILE": (
        0, None, ("t_end=1.2", True),
    ),
    # one step leaves nothing to extrapolate in time, three steps do
    "evolve --demo frame-equivalence --n-points 2048 --dt 1e-2 --t-final 0.01 --out FILE": (
        0, None, ("time_correction=0", True),
    ),
    "evolve --demo frame-equivalence --n-points 2048 --dt 1e-2 --t-final 0.03 --out FILE": (
        0, None, ("time_correction=0", False),
    ),
    # the free packet reaches the walls long before t = 20, on even and odd grids
    "evolve --demo frame-equivalence --n-points 512 --dt 4e-3 --t-final 20 --out FILE": (
        1, "touched the grid boundary at t=2.98", None,
    ),
    "evolve --demo frame-equivalence --n-points 511 --dt 4e-3 --t-final 20 --out FILE": (
        1, "touched the grid boundary at t=2.98", None,
    ),
    # time steps whose arithmetic leaves double range fail before any step runs
    "evolve --demo free-dispersion --n-points 256 --dt 1e308 --t-final 1e308 --out FILE": (
        1, "time step dt=1e+308", None,
    ),
    "evolve --demo bouncer-moments --n-points 256 --dt 1e300 --t-final 1e300 --out FILE": (
        1, "the closed form at t=1e+300", None,
    ),
    "evolve --demo frame-equivalence --n-points 256 --dt 1e200 --t-final 4e200 --out FILE": (
        1, "frame shift v*t + a*t^2/2 = inf", None,
    ),
    # three steps: the coarse pass of the extrapolation names its own dt
    "evolve --demo frame-equivalence --n-points 256 --dt 1e306 --t-final 3e306 --out FILE": (
        1, "time step dt=1.5e+306", None,
    ),
    # frames.frequency_shift refuses a Delta_omega out of double range
    "redshift --z 1e308 --mass 1e10 --format json --out FILE": (
        1, "Delta_omega = inf is out of double range", None,
    ),
    "redshift --z 1e308 --mass 1e308 --format table": (
        1, "Delta_omega = inf is out of double range", None,
    ),
    "redshift --z 1e308 --mass 1e308 --format table --out FILE": (
        1, "Delta_omega = inf is out of double range", None,
    ),
    "redshift --z 1e308 --mass 1e308 --format csv": (
        1, "Delta_omega = inf is out of double range", None,
    ),
    "redshift --z 1e308 --mass 1e308 --format csv --out FILE": (
        1, "Delta_omega = inf is out of double range", None,
    ),
    # delta_omega/omega' = 1/5e-324 overflows in the command itself
    "redshift --z 1 --omega-prime 5e-324": (1, "result is not finite (inf)", None),
    "redshift --z 1 --omega-prime 5e-324 --format csv": (
        1, "result is not finite (inf)", None,
    ),
    "redshift --z 1 --omega-prime 5e-324 --format json --out FILE": (
        1, "result is not finite (inf)", None,
    ),
}


@pytest.mark.parametrize("command", list(CONSOLE_CONTRACT))
def test_console_contract(tmp_path, command):
    code, error, line = CONSOLE_CONTRACT[command]
    out = tmp_path / "out"
    args = [str(out) if arg == "FILE" else arg for arg in command.split()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*args)
    assert result.exit_code == code
    assert "Traceback" not in result.output
    assert [str(w.message) for w in caught] == []
    if error is None:
        assert result.stderr == ""
    else:
        assert error in result.stderr
    if line is not None:
        text, printed = line
        assert (text in result.stdout.splitlines()) == printed
    if code != 0:
        assert result.stdout == ""
        assert not out.exists()
    if code == 1:
        assert result.stderr.startswith("numeric failure: ")


def test_cli_import_does_not_load_scipy_linalg():
    # only evolve propagates; the other commands must not pay for scipy.linalg
    code = "import sys, gravqm.cli; print('scipy.linalg' in sys.modules)"
    assert run_fresh(code).strip() == "False"


# Runs each command line (argv[1] holds them as JSON) in one process, then
# prints, as its last line, the gravqm submodules that import gravqm alone
# loaded, the exit codes, the numpy submodules and scipy modules loaded, the
# top-level modules loaded from outside the standard library, and whether
# each Airy cell table is built.
LOADED_MODULES = """
import json, sys
import gravqm
package = sorted(m for m in sys.modules if m.startswith("gravqm."))
from gravqm.cli import main
codes = []
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
numpy = sorted(m for m in sys.modules if m.startswith("numpy."))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
top = sorted({m.split(".")[0] for m in sys.modules} - set(sys.stdlib_module_names))
tables = [isinstance(t, tuple) for t in (gravqm.airy._AI_CELLS, gravqm.airy._BI_CELLS)]
print(json.dumps({"package": package, "codes": codes, "numpy": numpy, "scipy": scipy,
                  "top": top, "tables": tables}))
"""


def loaded_after(runs):
    return json.loads(run_fresh(LOADED_MODULES, json.dumps(runs)).splitlines()[-1])


def test_scalar_commands_never_run_numpy(tmp_path):
    # numpy is bound lazily: airy, bouncer, cow and redshift must not run its
    # import in any format; numpy itself is in sys.modules (lazy), so look for
    # its submodules, which its import always loads
    commands = [
        ["airy", "--eval", "0"],
        ["airy", "--zeros", "3"],
        ["bouncer", "--levels", "3"],
        ["cow", "--lambda", "6.2831853", "--height", "1", "--length", "1", "--via-time-route"],
        ["redshift", "--z", "1", "--si"],
    ]
    runs = [
        [*args, "--format", fmt, "--out", str(tmp_path / f"{i}.{fmt}")]
        for i, args in enumerate(commands)
        for fmt in ("table", "csv", "json")
    ]
    report = loaded_after(runs)
    # the benchmark's tracer finds every submodule in sys.modules after import gravqm
    assert report["package"] == [
        f"gravqm.{name}" for name in ("airy", "bouncer", "core", "dynamics", "errors", "frames")
    ]
    assert report["codes"] == [0] * len(runs)
    assert report["numpy"] == []
    assert report["scipy"] == []
    # nothing beyond what a bare interpreter loads (its site may import extras),
    # the standard library and gravqm; numpy is there only as the lazy module
    # of gravqm.core, whose import never ran (no numpy submodule above)
    bare = set(run_fresh("import sys; print(*{m.split('.')[0] for m in sys.modules})").split())
    assert set(report["top"]) - bare <= {"gravqm", "numpy"}

    evolve = ["evolve", "--demo", "free-dispersion", "--n-points", "128", "--dt", "1e-2",
              "--t-final", "0.05", "--out", str(tmp_path / "width.csv")]
    report = loaded_after([evolve])
    assert report["codes"] == [0]
    assert report["numpy"]
    # the propagator loads LAPACK's extension module alone: the scipy.linalg
    # package, and with it scipy's array-API layer, is never imported
    assert "scipy.linalg._flapack" in report["scipy"]
    assert "scipy.linalg" not in report["scipy"]
    assert "scipy._lib._array_api" not in report["scipy"]


def test_airy_tables_are_built_at_the_first_evaluation():
    # cow, redshift and usage errors evaluate no Airy function, so they never
    # pay for building the cell tables
    idle = [
        ["cow", "--lambda", "6.2831853", "--height", "1", "--length", "1", "--via-time-route"],
        ["redshift", "--z", "1", "--si"],
        ["airy", "--zeros", "0"],
    ]
    report = loaded_after(idle)
    assert report["codes"] == [0, 0, 2]
    assert report["tables"] == [False, False]
    # zeros and levels read Ai alone, so only its table is marched; Bi's waits
    # for the first evaluation of Bi
    report = loaded_after([["airy", "--zeros", "3"], ["bouncer", "--levels", "30"]])
    assert report["codes"] == [0, 0]
    assert report["tables"] == [True, False]
    report = loaded_after([["airy", "--eval", "0"]])
    assert report["codes"] == [0]
    assert report["tables"] == [True, True]
