"""Independent oracles shared by the test modules.

Everything here is deliberately written from first principles, separate from
the package implementation, so the tests check two independent routes to the
same numbers.  ``run_fresh`` runs the checks that need an interpreter in
which nothing has been imported yet; ``run_cli`` runs ``gravqm`` in this one.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# CODATA constants for the SI spot checks (same values the CLI documents).
NEUTRON_MASS_KG = 1.67492749804e-27
STANDARD_GRAVITY = 9.80665
HBAR_SI = 1.054571817e-34
EV_IN_JOULE = 1.602176634e-19
SPEED_OF_LIGHT = 299792458.0


def ai_series_oracle(x: float, terms: int = 30) -> float:
    """Ai(x) from the two Maclaurin auxiliary series, summed independently."""
    c1 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
    c2 = 1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
    tf, tg = 1.0, x
    f, g = tf, tg
    for k in range(1, terms):
        tf *= x**3 / ((3 * k) * (3 * k - 1))
        tg *= x**3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
    return c1 * f - c2 * g


def ai_prime_series_oracle(x: float, terms: int = 30) -> float:
    """Ai'(x) from term-by-term differentiation of the same series."""
    c1 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
    c2 = 1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
    tf, tg = 1.0, x
    fp, gp = 0.0, 1.0
    for k in range(1, terms):
        tf *= x**3 / ((3 * k) * (3 * k - 1))
        tg *= x**3 / ((3 * k + 1) * (3 * k))
        if x != 0.0:
            fp += tf * (3 * k) / x
            gp += tg * (3 * k + 1) / x
    return c1 * fp - c2 * gp


def free_gaussian_analytic(z, t, sigma0, z0=0.0, k0=0.0, m=1.0, hbar=1.0):
    """Closed-form free evolution of a normalized Gaussian packet."""
    spread = 1.0 + 1j * hbar * t / (2.0 * m * sigma0**2)
    u = np.asarray(z, dtype=float) - z0 - hbar * k0 * t / m
    return (
        (2.0 * math.pi * sigma0**2) ** -0.25
        / np.sqrt(spread)
        * np.exp(
            -(u**2) / (4.0 * sigma0**2 * spread)
            + 1j * k0 * (np.asarray(z) - z0)
            - 1j * hbar * k0**2 * t / (2.0 * m)
        )
    )


def numerov_cn_oracle(psi, z, dt, steps, hbar, m, slope):
    """``steps`` Numerov-Crank-Nicolson steps under V = slope*z, by dense solves.

    The scheme as written: M = tridiag(1, 10, 1)/12, K = T + M diag(V) with
    T = -hbar^2/(2m) times the three-point second difference (Dirichlet
    zeros outside the grid), and each step solves
    (M + r K) psi_new = (M - r K) psi with r = i dt/(2 hbar).  V is
    referenced to the packet: V = slope*(z - z_ref) with z_ref the
    trapezoid <z> of the initial samples, and the result is multiplied by
    exp(-i slope z_ref steps dt/hbar), the exact effect of the constant
    slope*z_ref that V leaves out.
    """
    n = z.size
    dz = z[1] - z[0]
    psi = np.asarray(psi, dtype=complex)
    density = np.abs(psi) ** 2
    z_ref = np.trapezoid(z * density, dx=dz) / np.trapezoid(density, dx=dz)
    ones = np.ones(n - 1)
    mass = (np.diag(np.full(n, 10.0)) + np.diag(ones, 1) + np.diag(ones, -1)) / 12.0
    second = (np.diag(np.full(n, -2.0)) + np.diag(ones, 1) + np.diag(ones, -1)) / dz**2
    k = -(hbar**2) / (2.0 * m) * second + mass @ np.diag(slope * (z - z_ref))
    r = 1j * dt / (2.0 * hbar)
    for _ in range(steps):
        psi = np.linalg.solve(mass + r * k, (mass - r * k) @ psi)
    return psi * np.exp(-1j * slope * z_ref * steps * dt / hbar)


def trapezoid_moments(psi, z, dz, hbar):
    """(<z>, <p>, dz, dp) by np.trapezoid quadrature, one fresh array per term.

    The straightforward formulas of the moment kernel: position moments by
    the trapezoid rule, momentum by -i*hbar times the sixth-order first
    difference (weights 3/4, -3/20, 1/60) with Dirichlet zeros outside the
    grid.
    """
    psi = np.asarray(psi, dtype=complex)
    rho = np.abs(psi) ** 2
    nrm = np.trapezoid(rho, dx=dz)
    mean_z = float(np.trapezoid(z * rho, dx=dz) / nrm)
    var_z = float(np.trapezoid((z - mean_z) ** 2 * rho, dx=dz) / nrm)
    padded = np.concatenate([np.zeros(3), psi, np.zeros(3)])
    n = psi.size

    def shifted(j):
        return padded[3 + j : 3 + j + n]

    dpsi = (
        0.75 * (shifted(1) - shifted(-1))
        - 0.15 * (shifted(2) - shifted(-2))
        + (shifted(3) - shifted(-3)) / 60.0
    ) / dz
    mean_p = float(np.trapezoid((np.conj(psi) * (-1j * hbar) * dpsi).real, dx=dz) / nrm)
    p_sq = float(hbar**2 * np.trapezoid(np.abs(dpsi) ** 2, dx=dz) / nrm)
    return mean_z, mean_p, math.sqrt(max(var_z, 0.0)), math.sqrt(max(p_sq - mean_p**2, 0.0))


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter with the repo's src first."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


@dataclass(frozen=True)
class CliResult:
    """Exit code and captured streams of one ``gravqm`` run."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(*args: str) -> CliResult:
    """``gravqm ARGS`` in this process.

    Only SystemExit is caught, so any other exception, the kind a user would
    see as a traceback, fails the calling test.
    """
    from gravqm.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        else:
            raise AssertionError("gravqm.cli.main returned instead of exiting")
    return CliResult(code, stdout.getvalue(), stderr.getvalue())
