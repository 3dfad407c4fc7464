"""The four workloads: inputs built at set-up, then a list of gated operations.

Each workload function takes the seed, the checkout root and a scratch
directory inside the checkout, builds every input, and returns the
operations of one pass.
An operation returns ``(values, failures)``: ``values`` are bound margins and
counts for the traced report, ``failures`` the messages of the gates it
failed (empty when it passed).

Every gravqm function is looked up on its module at call time
(``gq.moments``, not a name imported once), so the tracer's wrappers see the
calls the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from collections.abc import Callable
from pathlib import Path

import numpy as np

import gravqm as gq


@dataclasses.dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], tuple[dict, list[str]]]  # () -> (values, failed gate messages)


def _gates(values: dict, *gates: tuple[bool, str]) -> tuple[dict, list[str]]:
    return values, [message for ok, message in gates if not ok]


def _natural(v: float = 0.0, a: float = 0.0, g: float | None = None) -> gq.PhysicalSystem:
    """m = g = hbar = 1 system with frame velocity v and acceleration a."""
    g = a if g is None else g
    return dataclasses.replace(gq.make_natural_system(1.0), v=v, a=a, g=g)


def _reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))


def frame_reference(seed: int, root: Path, workdir: Path) -> list[Op]:
    """Acceptance criterion 3: dual-path verdict plus the off-condition control.

    The physics is fixed here; only the discretization comes from the
    program, so a scheme that meets the bound on a coarser grid shows as a
    gain.  The seed is unused: the inputs are deterministic.
    """
    cfg = gq.REFERENCE_FRAME_RUN
    dt = cfg["dt"]
    grid = gq.Grid(-20.0, 30.0, cfg["n_points"], dt=dt, n_steps=round(1.0 / dt))
    system = _natural(a=1.0)
    psi0 = gq.gaussian_packet(grid, 8.0, 0.5)
    coarse = gq.Grid(-20.0, 30.0, 4096, dt=1e-3, n_steps=1000)
    off_system = dataclasses.replace(system, a=1.5)
    off_psi0 = gq.gaussian_packet(coarse, 8.0, 0.5)

    def verdict():
        mismatch = gq.frame_equivalence_test(psi0, system)
        off = gq.frame_equivalence_test(off_psi0, off_system)
        return _gates(
            {"dynamics.frame_mismatch": mismatch, "dynamics.off_mismatch": off},
            (mismatch <= 1e-6, f"dual-path mismatch {mismatch:.3e} > 1e-6"),
            (off > 1e-2, f"off-condition mismatch {off:.3e} <= 1e-2"),
        )

    return [Op("frame-verdict", verdict)]


def fixed_grid_series(seed: int, root: Path, workdir: Path) -> list[Op]:
    """Three propagations at pinned discretizations (seed unused)."""
    bouncer_grid = gq.Grid(-14.0, 13.0, 12288, dt=2.5e-4, n_steps=4000)
    bouncer_system = _natural(a=1.0)
    bouncer_psi0 = gq.gaussian_packet(bouncer_grid, 0.0, 0.5)

    free_grid = gq.Grid(-12.0, 12.0, 4096, dt=5e-4, n_steps=1732)
    free_system = _natural()
    free_psi0 = gq.gaussian_packet(free_grid, 0.0, 0.5)

    drift_grid = gq.Grid(-12.0, 12.0, 2048, dt=1e-4, n_steps=10_000)
    drift_system = _natural(a=1.0)
    drift_psi0 = gq.gaussian_packet(drift_grid, 0.0, 0.5)

    def bouncer_moments():
        report = gq.propagate_linear_potential(
            bouncer_psi0, bouncer_system, bouncer_system.weight, momentum_method="spectral"
        )
        checks = gq.heisenberg_checks(report, bouncer_system)
        return _gates(
            {},
            *((oc.passed, f"{name} residual {oc.residual:.3e} (tol {oc.tolerance:.1e})")
              for name, oc in checks.items()),
        )

    def free_dispersion():
        report = gq.propagate_linear_potential(free_psi0, free_system, 0.0)
        t, _, _, width, _ = report.moment_series.T
        analytic = gq.free_dispersion_width(0.5, t, free_system)
        deviation = float(np.max(np.abs(width[1:] - analytic[1:]) / analytic[1:]))
        return _gates(
            {"dynamics.width_dev_max": deviation},
            (deviation <= 1e-4, f"width deviation {deviation:.3e} > 1e-4"),
        )

    def norm_drift():
        drift = gq.propagate_linear_potential(
            drift_psi0, drift_system, drift_system.weight, sample_every=10_000
        ).norm_drift
        return _gates(
            {"dynamics.norm_drift_max": drift},
            (drift <= 1e-9, f"norm drift {drift:.3e} > 1e-9"),
        )

    return [
        Op("bouncer-moments", bouncer_moments),
        Op("free-dispersion", free_dispersion),
        Op("norm-drift", norm_drift),
    ]


def spectrum(seed: int, root: Path, workdir: Path) -> list[Op]:
    """Airy zeros, bouncer levels and eigenfunctions, Wronskian, frame identities."""
    ref = _reference()
    ref_zeros = ref["ai_zeros"]
    ref_p = ref["p_outside"]
    rng = np.random.default_rng(seed)
    wronskian_points = [float(x) for x in rng.uniform(-10.0, 5.0, 200)]
    cow_cases = []
    for _ in range(100):
        geom = gq.InterferometerGeometry(
            wavelength=float(rng.uniform(0.05, 5.0)),
            height=float(rng.uniform(0.05, 4.0)),
            horizontal_length=float(rng.uniform(0.05, 4.0)),
        )
        system = dataclasses.replace(
            gq.make_natural_system(float(rng.uniform(0.3, 3.0))),
            a=float(rng.uniform(0.1, 5.0)),
            hbar=float(rng.uniform(0.5, 2.0)),
        )
        cow_cases.append((geom, system))
    # unit energy scale, so energies equal the dimensionless E_tilde
    unit_system = dataclasses.replace(gq.make_natural_system(0.5), g=2.0)
    chi_grids = {n: np.linspace(0.0, -ref_zeros[n - 1] + 12.0, 4001) for n in range(1, 21)}
    box_configs = [(1, 2.0, 0.0, 0.0), (2, 3.0, 0.4, 1.0), (3, 4.0, -0.2, 0.7)]

    def zeros():
        worst = max(abs(gq.ai_negative_zero(n) - ref_zeros[n - 1]) for n in range(1, 51))
        return _gates({}, (worst <= 1e-4, f"Ai zero error {worst:.3e} > 1e-4"))

    def levels():
        lvls = [gq.level(unit_system, n) for n in range(1, 51)]
        e_err = max(abs(lv.e_tilde + ref_zeros[lv.n - 1]) for lv in lvls)
        p_err = max(100.0 * abs(lv.p_outside - ref_p[lv.n - 1]) for lv in lvls)
        return _gates(
            {},
            (e_err <= 1e-4, f"level energy error {e_err:.3e} > 1e-4"),
            (p_err <= 0.05, f"P_outside error {p_err:.3f} pp > 0.05 pp"),
        )

    def wronskian():
        worst = max(abs(gq.airy_values(x).wronskian() - 1.0 / math.pi) for x in wronskian_points)
        return _gates(
            {"airy.wronskian_worst": worst},
            (worst <= 1e-10, f"Wronskian error {worst:.3e} > 1e-10"),
        )

    def normalization(n: int):
        def run():
            lvl = gq.level(unit_system, n)
            z = chi_grids[n]
            chi = np.array([gq.eigenfunction(lvl, float(zv)) for zv in z])
            deviation = abs(float(np.trapezoid(chi * chi, z)) - 1.0)
            return _gates(
                {"bouncer.norm_worst": deviation},
                (deviation <= 1e-6, f"chi_{n} normalization error {deviation:.3e} > 1e-6"),
            )

        return run

    def falling_box():
        h = 2e-4
        worst = 0.0
        for n, box, v, a in box_configs:
            system = _natural(v=v, a=a)
            ft = gq.FrameTransform.from_system(system)
            lo, hi = gq.falling_box_window(n, box, ft, 0.0)
            z = lo + 0.37 * (hi - lo) + np.arange(5) * h
            t = np.arange(5) * h
            values = gq.sample_stencil(
                lambda zz, tt: gq.falling_box_state(n, box, ft, system, zz, tt), z, t
            )
            worst = max(worst, gq.pde_residual(values, z, t, system, system.m_i * a))
        return _gates({}, (worst <= 1e-6, f"falling-box residual {worst:.3e} > 1e-6"))

    def cow_routes():
        worst = max(
            abs(gq.cow_phase_shift(geom, system) - gq.cow_phase_shift_time_route(geom, system))
            / abs(gq.cow_phase_shift(geom, system))
            for geom, system in cow_cases
        )
        return _gates({}, (worst <= 1e-12, f"COW route difference {worst:.3e} > 1e-12"))

    return [
        Op("ai-zeros", zeros),
        Op("bouncer-levels", levels),
        Op("wronskian-sweep", wronskian),
        *(Op(f"chi-{n}-normalization", normalization(n)) for n in range(1, 21)),
        Op("falling-box-residuals", falling_box),
        Op("cow-route-identity", cow_routes),
    ]


def cli(seed: int, root: Path, workdir: Path) -> list[Op]:
    """The README command list, one fresh ``python -m gravqm.cli`` per call.

    Evolve demos are scaled down with the documented --n-points/--dt/--t-final
    options; every subcommand kind also writes JSON, validated against the
    schema the repository ships.  The seed is unused: the mix is fixed.
    """
    import jsonschema

    schema = json.loads((root / "docs" / "cli_output.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    validator.check_schema(schema)
    ref = _reference()

    def magnitudes_match(payload):
        got = payload["data"]["magnitude"]
        worst = max(abs(m + z) for m, z in zip(got, ref["ai_zeros"]))
        return len(got) == 6 and worst <= 1e-4

    def levels_match(payload):
        got = payload["data"]["p_outside"]
        worst = max(100.0 * abs(p - q) for p, q in zip(got, ref["p_outside"]))
        return len(got) == 10 and worst <= 0.05

    def routes_agree(payload):
        return payload["data"]["route_rel_difference"][0] <= 1e-12

    def redshift_ratio(payload):
        expected = 9.80665 / 299792458.0**2
        return abs(payload["data"]["ratio"][0] - expected) <= 1e-12 * expected

    def moment_rows(payload):
        columns = payload["data"].values()
        return {len(c) for c in columns} == {201}

    def csv_rows(rows):
        return lambda path: len(path.read_text(encoding="utf-8").splitlines()) == rows

    scaled = ["--n-points", "1024", "--dt", "2e-3", "--t-final", "0.2"]
    # (arguments, expected exit code, output file, check of the output file)
    commands = [
        ("airy --zeros 6", 0, None, None),
        ("airy --eval 0", 0, None, None),
        ("bouncer --levels 10", 0, None, None),
        ("bouncer --levels 1 --si-neutron", 0, None, None),
        ("cow --lambda 1.419e-10 --height 0.05 --length 0.02 --si-neutron", 0, None, None),
        ("cow --lambda 6.2831853 --height 1 --length 1 --via-time-route", 0, None, None),
        ("redshift --z 1 --si", 0, None, None),
        ("evolve --demo frame-equivalence --out fe.csv " + " ".join(scaled), 0, "fe.csv", csv_rows(1025)),
        ("evolve --demo bouncer-moments --format json --out moments.json "
         "--n-points 2048 --dt 1e-3 --t-final 0.2", 0, "moments.json", moment_rows),
        ("evolve --demo free-dispersion --out width.csv " + " ".join(scaled), 0, "width.csv", csv_rows(102)),
        ("airy --zeros 6 --format json --out airy.json", 0, "airy.json", magnitudes_match),
        ("bouncer --levels 10 --format json --out bouncer.json", 0, "bouncer.json", levels_match),
        ("cow --lambda 6.2831853 --height 1 --length 1 --via-time-route --format json --out cow.json",
         0, "cow.json", routes_agree),
        ("redshift --z 1 --si --format json --out redshift.json", 0, "redshift.json", redshift_ratio),
        ("airy --zeros 0", 2, None, None),
    ]

    def invocation(args: str, expected: int, out: str | None, check):
        def run():
            target = workdir / out if out else None
            if target is not None and target.exists():
                target.unlink()
            with open(workdir / "stdout.txt", "w+", encoding="utf-8") as out_file, \
                    open(workdir / "stderr.txt", "w+", encoding="utf-8") as err_file:
                proc = subprocess.Popen([sys.executable, "-m", "gravqm.cli", *args.split()],
                                        cwd=workdir, stdout=out_file, stderr=err_file)
                timer = threading.Timer(150.0, proc.kill)
                timer.start()
                try:
                    # os.wait4 blocks without polling (Popen.wait with a timeout
                    # polls in steps of up to 50 ms) and gives this child's own
                    # peak memory, apart from the calibration processes
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                finally:
                    timer.cancel()
                    proc.kill()  # nothing to do once the child is reaped
                    proc.wait()
                out_file.seek(0)
                stdout = out_file.read()
                err_file.seek(0)
                stderr = err_file.read()
            failures = []
            if proc.returncode != expected:
                failures.append(f"exit {proc.returncode}, expected {expected}")
            if "Traceback" in stderr:
                failures.append("traceback on stderr")
            if expected == 0 and out is None and not stdout.strip():
                failures.append("no output")
            if target is not None and not failures:
                if out.endswith(".json"):
                    payload = json.loads(target.read_text(encoding="utf-8"))
                    failures += [f"schema: {e.message}" for e in validator.iter_errors(payload)]
                    if not failures and not check(payload):
                        failures.append("output values outside their bound")
                elif not check(target):
                    failures.append("wrong number of output rows")
            values = {"cli.calls": 1, f"cli.exit{proc.returncode}": 1,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}
            return values, [f"gravqm {args}: {f}" for f in failures]

        return run

    return [Op(f"cli {args}", invocation(args, expected, out, check))
            for args, expected, out, check in commands]


WORKLOADS = {
    "frame-reference": frame_reference,
    "fixed-grid-series": fixed_grid_series,
    "spectrum": spectrum,
    "cli": cli,
}
