"""Command-line surface: tables and CSV/JSON series for every computation.

Subcommands: ``airy``, ``bouncer``, ``cow``, ``redshift``, ``evolve``, parsed
by the standard library's argparse; :func:`main` is the one entry point.
Exit codes are a stable contract for scripting: 0 success, 1 numeric
failure (``numeric failure: ...`` on stderr), 2 usage error (the usage line
and the message on stderr).  ``--format json`` without ``--out``, and an
``--out`` that cannot be written (its directory missing, say), are usage
errors found before any computation.  All stored values are plain numbers
(fractions, radians, SI or natural units); percentages and unit suffixes are
formatting only.  Nothing is random, so every invocation is reproducible.

Each subcommand is a ``cmd_*`` function from its own options to one result,
``(columns, units, parameters, table, summary)``, and prints nothing: only
:func:`_emit`, called once by :func:`main`, checks that result, formats it,
builds the JSON ``meta`` from it and writes it.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import re
import sys
from typing import NoReturn

from . import __version__
from .airy import MAX_ZERO_INDEX, ai_negative_zero, airy_values
from .bouncer import level as bouncer_level
from .core import MAX_STEPS, Grid, PhysicalSystem, np, require_positive
from .dynamics import (
    REFERENCE_FRAME_RUN,
    CheckOutcome,
    frame_equivalence,
    free_dispersion_width,
    gaussian_packet,
    heisenberg_checks,
    propagate_linear_potential,
)
from .errors import NumericError, ParameterError
from .frames import InterferometerGeometry, cow_phase_shift, cow_phase_shift_time_route, frequency_shift

# CODATA values used by the --si-neutron convenience modes.  The library
# itself hard-codes no constants; these belong to the CLI caller.
NEUTRON_MASS_KG = 1.67492749804e-27
STANDARD_GRAVITY = 9.80665
HBAR_SI = 1.054571817e-34
SPEED_OF_LIGHT = 299792458.0
EV_IN_JOULE = 1.602176634e-19


def _fmt(value) -> str:
    # numpy registers its integer types as numbers.Integral
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format(float(value), ".17g")


def _emit(command: str, fmt: str, out: str | None, result: tuple) -> None:
    """Check, format and write the result of one ``cmd_*`` function."""
    columns, units, parameters, table, summary = result
    # one exit code per result, whatever the format: a non-finite number
    # fails before anything is printed or written
    numbers = [v for values in columns.values() for v in values]
    numbers += parameters.values()
    bad = [v for v in numbers if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise NumericError(f"result is not finite ({bad[0]})")
    if fmt == "table":
        text, summary = "\n".join(table + summary) + "\n", []
    elif fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in zip(*columns.values())]
        text = "\n".join(lines) + "\n"
    else:  # json; main has already required --out
        meta = {
            "command": command,
            "version": __version__,
            "units": units,
            "parameters": parameters,
        }
        text = json.dumps({"meta": meta, "data": columns}, indent=2, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
        # keep the data stream clean for piping
        for line in summary:
            print(line, file=sys.stderr)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {out!r}: {exc.strerror}") from None
    for line in summary:
        print(line)


def _table(*columns: tuple[str, int, str, list]) -> list[str]:
    """Right-aligned text table, one ``(header, width, format, values)`` per column."""
    lines = [" ".join(format(header, f">{width}") for header, width, _, _ in columns)]
    specs = [f">{width}{spec}" for _, width, spec, _ in columns]
    for row in zip(*(values for _, _, _, values in columns)):
        lines.append(" ".join(format(value, spec) for value, spec in zip(row, specs)))
    return lines


def _positive(text: str) -> float:
    """A finite number greater than zero; NaN, infinities and zero are usage errors."""
    try:
        return require_positive("value", float(text))
    except ValueError:  # ParameterError included
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number") from None


def _zero_count(text: str) -> int:
    """A whole number from 1 to MAX_ZERO_INDEX, the range of ``--zeros`` and ``--levels``."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if not 1 <= count <= MAX_ZERO_INDEX:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a whole number from 1 to {MAX_ZERO_INDEX}"
        )
    return count


def _out_path(text: str) -> str:
    """A file path that can be written, checked before any computation starts."""
    folder = os.path.dirname(text) or "."
    if os.path.isdir(text) or not os.path.basename(text):
        reason = "not a file name"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder!r}"
    elif not os.access(text if os.path.exists(text) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return text
    raise argparse.ArgumentTypeError(f"cannot write {text!r}: {reason}")


def _neutron_system(a: float = 0.0) -> PhysicalSystem:
    """CODATA neutron in standard gravity, seen from a frame accelerating at a."""
    return PhysicalSystem(
        m_i=NEUTRON_MASS_KG, m_g=NEUTRON_MASS_KG, g=STANDARD_GRAVITY, a=a, hbar=HBAR_SI
    )


def cmd_airy(eval_x, n_zeros):
    """Airy function values or negative zeros of Ai."""
    if eval_x is not None:
        value = airy_values(eval_x)
        columns = {
            "x": [value.x],
            "ai": [value.ai],
            "ai_prime": [value.ai_prime],
            "bi": [value.bi],
            "bi_prime": [value.bi_prime],
        }
        table = _table(
            ("x", 12, ".6f", columns["x"]),
            ("Ai", 16, ".8f", columns["ai"]),
            ("Ai_prime", 16, ".8f", columns["ai_prime"]),
            ("Bi", 16, ".8f", columns["bi"]),
            ("Bi_prime", 16, ".8f", columns["bi_prime"]),
        )
        return columns, "dimensionless", {"eval": eval_x}, table, []
    zeros = [ai_negative_zero(i) for i in range(1, n_zeros + 1)]
    columns = {
        "n": list(range(1, n_zeros + 1)),
        "zero": zeros,
        "magnitude": [-z for z in zeros],
    }
    table = _table(
        ("n", 4, "", columns["n"]),
        ("zero", 16, ".8f", columns["zero"]),
        ("magnitude", 16, ".8f", columns["magnitude"]),
    )
    return columns, "dimensionless", {"zeros": n_zeros}, table, []


def cmd_bouncer(n_levels, si_neutron):
    """Quantized levels above an infinite floor in a linear potential.

    Natural mode uses a system with unit energy scale, so the printed
    energies equal the dimensionless ones.
    """
    if si_neutron:
        system = _neutron_system()
        units = "si"
    else:
        system = PhysicalSystem(m_i=0.5, m_g=0.5, g=2.0)
        units = "natural"
    levels = [bouncer_level(system, n) for n in range(1, n_levels + 1)]

    columns = {
        "n": [lv.n for lv in levels],
        "e_tilde": [lv.e_tilde for lv in levels],
        "energy": [lv.energy for lv in levels],
        "p_outside": [lv.p_outside for lv in levels],
    }
    energies = [("E [natural]", 12, ".4f", columns["energy"])]
    if si_neutron:
        columns["energy_peV"] = [lv.energy / EV_IN_JOULE * 1e12 for lv in levels]
        energies = [
            ("E [J]", 14, ".6e", columns["energy"]),
            ("E [peV]", 10, ".2f", columns["energy_peV"]),
        ]
    table = _table(
        ("n", 4, "", columns["n"]),
        ("E_tilde", 10, ".4f", columns["e_tilde"]),
        *energies,
        ("P_outside [%]", 14, ".2f", [100.0 * p for p in columns["p_outside"]]),
    )
    return columns, units, {"levels": n_levels, "si_neutron": si_neutron}, table, []


def cmd_cow(wavelength, height, length, accel, si_neutron, via_time_route):
    """Interferometric phase shift proportional to the enclosed beam area."""
    if si_neutron:
        a = STANDARD_GRAVITY if accel is None else accel
        system = _neutron_system(a)
        units = "si"
    else:
        a = 1.0 if accel is None else accel
        system = PhysicalSystem(m_i=1.0, m_g=1.0, g=a, a=a)
        units = "natural"
    geom = InterferometerGeometry(
        wavelength=wavelength, height=height, horizontal_length=length
    )
    phase = cow_phase_shift(geom, system)

    columns = {
        "phase_rad": [phase],
        "fringes": [phase / (2.0 * math.pi)],
        "area": [geom.area],
    }
    table = [
        f"phase shift : {phase:.10g} rad",
        f"fringes     : {phase / (2.0 * math.pi):.10g}",
        f"area        : {geom.area:.10g}",
    ]
    summary: list[str] = []
    if via_time_route:
        phase_t = cow_phase_shift_time_route(geom, system)
        agreement = abs(phase - phase_t) / max(abs(phase), 1e-300)
        columns["phase_rad_time_route"] = [phase_t]
        columns["route_rel_difference"] = [agreement]
        summary.append(f"time-route phase : {phase_t:.10g} rad (rel diff {agreement:.3e})")
    parameters = dict(
        wavelength=wavelength, height=height, length=length, a=a, si_neutron=si_neutron
    )
    return columns, units, parameters, table, summary


def cmd_redshift(z_sep, si, mass, accel, hbar_value, omega_prime):
    """Frequency shift between detectors at different heights."""
    if si:
        # the natural-mode options default to None, so an option given at its
        # default value is refused too
        natural = {
            "--mass": mass, "--accel": accel, "--hbar": hbar_value, "--omega-prime": omega_prime,
        }
        given = [name for name, value in natural.items() if value is not None]
        if given:
            raise ParameterError(
                f"{', '.join(given)} cannot be combined with --si (natural mode only)"
            )
        system = _neutron_system(STANDARD_GRAVITY)
        units = "si"
    else:
        m = 1.0 if mass is None else mass
        system = PhysicalSystem(
            m_i=m, m_g=m, a=1.0 if accel is None else accel,
            hbar=1.0 if hbar_value is None else hbar_value,
        )
        units = "natural"
    delta_omega = frequency_shift(system, z_sep)

    columns = {"z": [z_sep], "delta_omega": [delta_omega]}
    table = [f"delta_omega : {delta_omega:.10g} rad/s" if si else f"delta_omega : {delta_omega:.10g}"]
    if si:
        ratio = system.a * z_sep / SPEED_OF_LIGHT**2
        columns["ratio"] = [ratio]
        table.append(f"delta_omega/omega' = a*z/c^2 : {ratio:.10g}")
    elif omega_prime is not None:
        ratio = delta_omega / omega_prime
        columns["ratio"] = [ratio]
        table.append(f"delta_omega/omega' : {ratio:.10g}")
    return columns, units, {"z": z_sep, "si": si}, table, []


def _frame_equivalence_demo(psi0, system, cfg):
    result = frame_equivalence(psi0, system)
    columns = {
        "z": list(psi0.grid.z),
        "abs_transformed": list(np.abs(result.transformed.values)),
        "abs_direct": list(np.abs(result.direct.values)),
        "abs_difference": list(np.abs(result.transformed.values - result.direct.values)),
    }
    return columns, {"max_mismatch": result.max_mismatch, "time_correction": result.time_correction}


def _bouncer_moments_demo(psi0, system, cfg):
    report = propagate_linear_potential(psi0, system, system.weight)
    t, mz, mp_, sz, sp_ = report.moment_series.T
    columns = {
        "t": list(t), "mean_z": list(mz), "mean_p": list(mp_),
        "sigma_z": list(sz), "sigma_p": list(sp_),
    }
    return columns, {"norm_drift": report.norm_drift, **heisenberg_checks(report, system)}


def _free_dispersion_demo(psi0, system, cfg):
    report = propagate_linear_potential(psi0, system, 0.0)
    t, _, _, sz, _ = report.moment_series.T
    analytic = free_dispersion_width(cfg["sigma0"], t, system)
    columns = {"t": list(t), "width": list(sz), "width_analytic": list(analytic)}
    rel = np.max(np.abs(sz[1:] - analytic[1:]) / analytic[1:]) if t.size > 1 else 0.0
    return columns, {"max_rel_width_deviation": rel}


# Each evolve demo in natural units: grid and packet defaults, system, and a
# run (psi0, system, cfg) returning the series columns and the results by
# name, each a number or a CheckOutcome.
_FALLING = PhysicalSystem(m_i=1.0, m_g=1.0, g=1.0, a=1.0)
_DEMOS = {
    "frame-equivalence": (REFERENCE_FRAME_RUN, _FALLING, _frame_equivalence_demo),
    "bouncer-moments": (
        dict(z_min=-14.0, z_max=13.0, n_points=12288, dt=2.5e-4, t_final=1.0, sigma0=0.5, center=0.0),
        _FALLING, _bouncer_moments_demo,
    ),
    "free-dispersion": (
        dict(z_min=-12.0, z_max=12.0, n_points=4096, dt=5e-4, t_final=0.8660254037844386,
             sigma0=0.5, center=0.0),
        PhysicalSystem(m_i=1.0, m_g=1.0), _free_dispersion_demo,
    ),
}


def _run_demo(name, n_points=None, dt=None, t_final=None):
    """Run one entry of ``_DEMOS``: (columns, results, parameters with n_steps)."""
    defaults, system, run = _DEMOS[name]
    overrides = {"n_points": n_points, "dt": dt, "t_final": t_final}
    cfg = {**defaults, **{key: value for key, value in overrides.items() if value is not None}}
    steps = cfg["t_final"] / cfg["dt"]
    # checked before round(), which raises on inf and rounds 0.5 down to 0
    if not 0.5 < steps <= MAX_STEPS:
        raise ParameterError(
            f"t_final/dt asks for {steps:.3g} steps; evolve takes 1 to {MAX_STEPS}"
        )
    n_steps = round(steps)
    grid = Grid(cfg["z_min"], cfg["z_max"], cfg["n_points"], dt=cfg["dt"], n_steps=n_steps)
    psi0 = gaussian_packet(grid, center=cfg["center"], sigma=cfg["sigma0"])
    columns, results = run(psi0, system, cfg)
    return columns, results, {**cfg, "n_steps": n_steps}


def cmd_evolve(demo, n_points, dt, t_final):
    """Time-dependent demos in natural units (m = g = hbar = 1).

    Emits a data series plus a summary line; the summary statistics are
    recomputable from the emitted series.
    """
    columns, results, parameters = _run_demo(demo, n_points, dt, t_final)
    summary = [
        f"{name}: residual={_fmt(r.residual)} tol={_fmt(r.tolerance)} {'pass' if r.passed else 'FAIL'}"
        if isinstance(r, CheckOutcome) else f"{name}={_fmt(r)}"
        for name, r in results.items()
    ]
    return columns, "natural", {"demo": demo, **parameters}, [], summary


# argparse's own pattern reads only integers and decimals such as -2.5 as
# negative numbers, so --z -1e-3 or --eval -inf would read the value as an
# unknown option.  Every token starting like a number is a value here.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argparse parser that accepts no abbreviated option (``--lev`` for
    ``--levels``) and reads a token that starts like a number as a value."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gravqm",
        description="Quantum mechanics in a uniform gravitational field, from the terminal.",
    )
    parser.add_argument("--version", action="version", version=f"gravqm, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__.splitlines()[0], description=run.__doc__)
        sub.set_defaults(run=run, usage=sub, command=name)
        return sub

    def output_options(sub, formats=("table", "csv", "json"), what="Output format"):
        sub.add_argument("--format", dest="fmt", choices=formats, default=formats[0],
                         help=f"{what} (default: %(default)s).")
        sub.add_argument("--out", metavar="FILE", type=_out_path,
                         help="Write csv/json output to this file (required for json).")

    airy = command("airy", cmd_airy)
    which = airy.add_mutually_exclusive_group(required=True)
    which.add_argument("--eval", dest="eval_x", metavar="X", type=float,
                       help="Evaluate Ai, Ai', Bi, Bi' at x.")
    which.add_argument("--zeros", dest="n_zeros", metavar="N", type=_zero_count,
                       help=f"Print the first N negative zeros of Ai (1..{MAX_ZERO_INDEX}).")
    output_options(airy)

    bouncer = command("bouncer", cmd_bouncer)
    bouncer.add_argument("--levels", dest="n_levels", metavar="N", type=_zero_count,
                         required=True, help=f"Number of levels to print (1..{MAX_ZERO_INDEX}).")
    bouncer.add_argument("--si-neutron", action="store_true",
                         help="Use CODATA neutron constants and print energies in peV.")
    output_options(bouncer)

    cow = command("cow", cmd_cow)
    cow.add_argument("--lambda", "--wavelength", dest="wavelength", type=float, required=True,
                     help="Beam wavelength.")
    cow.add_argument("--height", type=float, required=True,
                     help="Vertical separation z of the beams.")
    cow.add_argument("--length", type=float, required=True,
                     help="Horizontal length d of the loop.")
    cow.add_argument("--a", dest="accel", type=float,
                     help="Frame/field acceleration "
                          "(defaults: 1 natural, standard gravity with --si-neutron).")
    cow.add_argument("--si-neutron", action="store_true", help="Use CODATA neutron constants.")
    cow.add_argument("--via-time-route", action="store_true",
                     help="Also compute the shift as m a t z / hbar with t = d/v "
                          "and check agreement.")
    output_options(cow)

    redshift = command("redshift", cmd_redshift)
    redshift.add_argument("--z", dest="z_sep", metavar="Z", type=float, required=True,
                          help="Vertical detector separation.")
    redshift.add_argument("--si", action="store_true",
                          help="Neutron SI constants; also prints a*z/c^2.")
    redshift.add_argument("--mass", type=float, help="Mass (natural mode; default: 1).")
    redshift.add_argument("--accel", type=float, help="Acceleration (natural mode; default: 1).")
    redshift.add_argument("--hbar", dest="hbar_value", metavar="HBAR", type=float,
                          help="hbar (natural mode; default: 1).")
    redshift.add_argument("--omega-prime", type=_positive,
                          help="Reference angular frequency for the ratio in natural mode.")
    output_options(redshift)

    evolve = command("evolve", cmd_evolve)
    evolve.add_argument("--demo", choices=sorted(_DEMOS), required=True,
                        help="Which propagation demo to run.")
    output_options(evolve, ("csv", "json"), "Series output format")
    evolve.add_argument("--n-points", type=int, help="Override the grid size.")
    evolve.add_argument("--dt", type=_positive, help="Override the time step.")
    evolve.add_argument("--t-final", type=_positive, help="Override the total time.")
    return parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Run ``gravqm`` on argv (default: the command line) and exit with its code.

    A ParameterError is a usage error (exit 2); a NumericError exits 1 with
    ``numeric failure: ...`` on stderr.
    """
    options = vars(_parser().parse_args(argv))
    run, usage, command = options.pop("run"), options.pop("usage"), options.pop("command")
    fmt, out = options.pop("fmt"), options.pop("out")
    if fmt == "json" and out is None:
        usage.error("--out is required with --format json")
    try:
        _emit(command, fmt, out, run(**options))
    except ParameterError as exc:
        usage.error(str(exc))
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    raise SystemExit(0)


if __name__ == "__main__":
    main()
