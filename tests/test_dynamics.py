import ast
import collections
import dataclasses
import inspect
import json
import math
import re
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

from gravqm import (
    REFERENCE_FRAME_RUN,
    BoundaryContactError,
    ComplexField,
    Grid,
    NumericError,
    ParameterError,
    PhysicalSystem,
    align_global_phase,
    frame_equivalence,
    frame_equivalence_test,
    free_dispersion_width,
    gaussian_packet,
    heisenberg_checks,
    make_natural_system,
    max_pointwise_mismatch,
    moments,
    pde_residual,
    phase_s,
    plane_wave_stationary,
    propagate_linear_potential,
    sample_stencil,
    shift_field,
    to_stationary_frame,
)
from gravqm import dynamics
from gravqm.cli import _run_demo
from gravqm.dynamics import _lapack_tridiagonal
from oracles import free_gaussian_analytic, fsum_moments, numerov_cn_oracle, run_fresh
from oracles import trapezoid_moments


def natural(v=0.0, a=0.0, g=None):
    g = a if g is None else g
    return dataclasses.replace(make_natural_system(1.0), v=v, a=a, g=g)


WIDTH_DOUBLING_TIME = 2.0 * 0.5**2 * math.sqrt(3.0)  # sigma0 = 0.5, hbar = m = 1


# ------------------------------------------------------------- propagation


def test_free_dispersion_matches_analytic_width():
    grid = Grid(-12.0, 12.0, 4096, dt=5e-4, n_steps=round(WIDTH_DOUBLING_TIME / 5e-4))
    system = natural()
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    report = propagate_linear_potential(psi0, system, 0.0, sample_every=100)
    t, _, _, sigma_z, _ = report.moment_series.T
    expected = free_dispersion_width(0.5, t, system)
    assert sigma_z[-1] == pytest.approx(2.0 * 0.5, rel=1e-3)  # width doubled
    assert np.max(np.abs(sigma_z[1:] - expected[1:]) / expected[1:]) <= 1e-4


def _discrete_energy(values, grid, system, slope):
    # E_h = dz psi^H (M^-1 T + diag(V)) psi with V = slope*z.  M^-1 T is
    # diagonal in the sine basis, with eigenvalues
    # mu_k = 6 kin (2 - 2 cos theta_k)/(5 + cos theta_k), and the sine
    # coefficients w of psi give psi^H (M^-1 T) psi = 2/(N+1) sum mu |w|^2
    n = grid.n_points
    cos = np.cos(np.arange(1, n + 1) * (math.pi / (n + 1)))
    kin = system.hbar**2 / (2.0 * system.m_i * grid.dz**2)
    mu = 6.0 * kin * (2.0 - 2.0 * cos) / (5.0 + cos)
    kinetic = 2.0 / (n + 1) * math.fsum(mu * np.abs(dynamics._sine_transform(values)) ** 2)
    return grid.dz * (kinetic + math.fsum(slope * grid.z * np.abs(values) ** 2))


def test_step_conserves_norm_and_discrete_energy():
    # the step is (I + r H)^-1 (I - r H) with H = M^-1 T + diag(V) real and
    # symmetric, so it is unitary and conserves psi^H psi and psi^H H psi;
    # both drift by rounding alone (measured 1.7e-14 and 2.1e-14 relative),
    # far below a discretization error
    grid = Grid(-30.0, 14.0, 2048, dt=1e-3, n_steps=2000)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, -4.0, 0.5)
    report = propagate_linear_potential(psi0, system, system.weight, sample_every=2000)
    start, end = (
        _discrete_energy(values, grid, system, system.weight)
        for values in (psi0.values, report.final_field.values)
    )
    assert start == pytest.approx(0.5 - 4.0, rel=1e-6)  # hbar^2/(8 m sigma^2) + F <z>
    assert report.norm_drift <= 1e-13
    assert abs(end - start) <= 1e-13 * abs(start)


def test_cn_final_state_matches_analytic_free_gaussian():
    grid = Grid(-12.0, 12.0, 4096, dt=5e-4, n_steps=800)
    system = natural()
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    report = propagate_linear_potential(psi0, system, 0.0, sample_every=800)
    analytic = ComplexField(grid, free_gaussian_analytic(grid.z, grid.total_time, 0.5))
    assert max_pointwise_mismatch(report.final_field, analytic) <= 1e-5


def test_propagator_fourth_order_in_space():
    # dt is small enough that the time error sits below the spatial error at
    # both resolutions; halving dz must cut the error by about 2^4
    system = natural()
    errors = []
    for n_points in (256, 512):
        grid = Grid(-12.0, 12.0, n_points, dt=2e-5, n_steps=10_000)
        psi0 = gaussian_packet(grid, 0.0, 0.5)
        report = propagate_linear_potential(psi0, system, 0.0, sample_every=10_000)
        analytic = ComplexField(grid, free_gaussian_analytic(grid.z, grid.total_time, 0.5))
        errors.append(max_pointwise_mismatch(report.final_field, analytic))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def test_gravity_translates_packet_without_reshaping():
    # the linear potential rigidly translates the packet; spreading is free
    grid = Grid(-14.0, 13.0, 12288, dt=2.5e-4, n_steps=4000)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    grav = propagate_linear_potential(psi0, system, system.weight, sample_every=40)
    free = propagate_linear_potential(psi0, system, 0.0, sample_every=40)
    width_grav = grav.moment_series[:, 3]
    width_free = free.moment_series[:, 3]
    assert np.max(np.abs(width_grav - width_free) / width_free) <= 1e-6


def test_velocity_is_momentum_over_mass():
    grid = Grid(-14.0, 13.0, 8192, dt=5e-4, n_steps=2000)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    report = propagate_linear_potential(psi0, system, system.weight, sample_every=50)
    t, mean_z, mean_p = report.moment_series[:, 0], report.moment_series[:, 1], report.moment_series[:, 2]
    velocity = (mean_z[2:] - mean_z[:-2]) / (t[2:] - t[:-2])
    target = mean_p[1:-1] / system.m_i
    scale = np.max(np.abs(target))
    assert np.max(np.abs(velocity - target)) / scale <= 1e-5


@pytest.mark.parametrize("steps", [1, 20])
def test_step_matches_dense_numerov_crank_nicolson(steps):
    # the scheme solved densely with numpy, on a coarse grid with a moving
    # packet, a potential slope and hbar, m away from 1
    system = PhysicalSystem(m_i=1.3, m_g=1.3, g=0.9, hbar=0.8)
    grid = Grid(-8.0, 8.0, 96, dt=1e-2, n_steps=steps)
    psi0 = gaussian_packet(grid, -1.0, 0.5, k0=2.0)
    report = propagate_linear_potential(psi0, system, system.weight, sample_every=steps)
    expected = numerov_cn_oracle(
        psi0.values, grid.z, grid.dt, steps, system.hbar, system.m_i, system.weight
    )
    error = np.max(np.abs(report.final_field.values - expected))
    assert error <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n_points", [96, 97])
@pytest.mark.parametrize("steps", [2, 3])
def test_free_path_matches_dense_numerov_crank_nicolson(n_points, steps):
    # the free runs of the extrapolation are made in the sine eigenbasis of
    # the step, not stepped: both (n steps of dt, m = ceil(n/2) of T/m)
    # against the scheme solved densely, on an even and an odd grid
    system = PhysicalSystem(m_i=1.3, m_g=1.3, g=0.9, hbar=0.9)
    grid = Grid(-8.0, 8.0, n_points, dt=1e-2, n_steps=steps)
    psi0 = gaussian_packet(grid, -1.0, 0.5, k0=2.0)
    report, values, _ = dynamics._extrapolated_run(psi0, system, 0.0)
    m = (steps + 1) // 2
    fine, coarse = (
        numerov_cn_oracle(psi0.values, grid.z, dt, k, system.hbar, system.m_i, 0.0)
        for dt, k in ((grid.dt, steps), (grid.total_time / m, m))
    )
    scale = np.max(np.abs(fine))
    assert np.max(np.abs(report.final_field.values - fine)) <= 1e-12 * scale
    expected = fine + (fine - coarse) / ((steps / m) ** 2 - 1.0)
    assert np.max(np.abs(values - expected)) <= 1e-12 * scale


def test_boundary_contact_is_diagnosed():
    # the contact is raised at the first step whose edge samples exceed the
    # limit: one step fewer runs to the end
    system = natural()

    def run(n_steps):
        grid = Grid(-6.0, 6.0, 1024, dt=1e-3, n_steps=n_steps)
        psi0 = gaussian_packet(grid, 0.0, 0.5, k0=4.0)  # fast packet, small box
        return propagate_linear_potential(psi0, system, 0.0, sample_every=n_steps)

    with pytest.raises(BoundaryContactError) as err:
        run(3000)
    assert err.value.amplitude > BoundaryContactError.limit
    assert f"> {BoundaryContactError.limit:g});" in str(err.value)
    contact = err.value.time
    assert 0.0 < contact <= 3.0
    steps = round(contact / 1e-3)
    run(steps - 1)
    with pytest.raises(BoundaryContactError) as err:
        run(steps)
    assert err.value.time == contact


def test_free_path_diagnoses_boundary_contact_at_the_stepped_step():
    # the packet of test_boundary_contact_is_diagnosed: the free path checks
    # the edges at every step, as the stepped run (sampled before its end,
    # so stepped) does
    grid = Grid(-6.0, 6.0, 1024, dt=1e-3, n_steps=3000)
    psi0 = gaussian_packet(grid, 0.0, 0.5, k0=4.0)
    with pytest.raises(BoundaryContactError) as stepped:
        propagate_linear_potential(psi0, natural(), 0.0, sample_every=2999)
    with pytest.raises(BoundaryContactError) as free:
        dynamics._extrapolated_run(psi0, natural(), 0.0)
    assert free.value.time == stepped.value.time
    assert free.value.amplitude == pytest.approx(stepped.value.amplitude, rel=1e-6)


@pytest.mark.parametrize("n_points", [1024, 1023])
def test_both_kernels_check_the_same_edge_samples(monkeypatch, n_points):
    # the packet of test_boundary_contact_is_diagnosed, run for 300 steps,
    # short of its contact at t=0.371: the sine kernel (sampled at its ends)
    # and the stepped one must hand the edge check the same six samples, in
    # the order psi[:3], psi[-3:], at odd and even N
    grid = Grid(-6.0, 6.0, n_points, dt=1e-3, n_steps=300)
    psi0 = gaussian_packet(grid, 0.0, 0.5, k0=4.0)
    seen = {}
    for sample_every in (300, 299):
        calls = seen[sample_every] = []
        monkeypatch.setattr(
            dynamics, "_check_edges", lambda low, high, t: calls.append((t, *low, *high))
        )
        propagate_linear_potential(psi0, natural(), 0.0, sample_every=sample_every)
    free, stepped = np.array(seen[300]), np.array(seen[299])
    assert free.shape == stepped.shape == (300, 7)
    assert np.array_equal(free[:, 0], stepped[:, 0])
    peak = np.max(np.abs(psi0.values))
    assert np.max(np.abs(free[:, 1:] - stepped[:, 1:])) <= 1e-12 * peak


def test_non_finite_field_fails_at_the_step_it_appears(monkeypatch):
    # a solve that returns NaN turns the field into NaN on the first step; the
    # per-step edge check must stop the run there, not at the next moment sample
    zgttrf, zgttrs = _lapack_tridiagonal()

    def nan_solve(*args, **kwargs):
        solution, info = zgttrs(*args, **kwargs)
        solution[:] = math.nan
        return solution, info

    monkeypatch.setattr(dynamics, "_lapack_tridiagonal", lambda: (zgttrf, nan_solve))
    grid = Grid(-10.0, 10.0, 512, dt=1e-3, n_steps=50)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    # slope 1: a free run sampled at its ends alone is not stepped
    with pytest.raises(NumericError, match=r"non-finite samples at t=0\.001\b") as err:
        propagate_linear_potential(psi0, natural(), 1.0, sample_every=50)
    assert not isinstance(err.value, BoundaryContactError)


def test_phase_alignment_of_a_non_finite_field_is_a_numeric_error():
    grid = Grid(-10.0, 10.0, 128)
    good = gaussian_packet(grid, 0.0, 1.0)
    values = good.values.copy()
    values[64] = math.nan
    bad = ComplexField(grid, values)
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(NumericError, match="not finite"):
            align_global_phase(a, b)
        with pytest.raises(NumericError, match="not finite"):
            max_pointwise_mismatch(a, b)


def test_phase_alignment_of_orthogonal_fields_keeps_the_values():
    # disjoint supports: the inner product is exactly 0, and exp(i*angle(0)) = 1
    grid = Grid(-4.0, 4.0, 64)
    lower = ComplexField(grid, np.where(grid.z < 0.0, 1.0 + 0.5j, 0.0))
    upper = ComplexField(grid, np.where(grid.z > 0.0, 0.3 - 2.0j, 0.0))
    np.testing.assert_array_equal(align_global_phase(lower, upper).values, lower.values)


def test_propagate_input_validation():
    grid = Grid(-10.0, 10.0, 512, dt=1e-3, n_steps=10)
    system = natural()
    bad = ComplexField(grid, np.exp(-grid.z**2))  # not normalized
    with pytest.raises(ParameterError):
        propagate_linear_potential(bad, system, 0.0)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    with pytest.raises(ParameterError):
        propagate_linear_potential(psi0, system, 0.0, sample_every=0)
    near_edge = gaussian_packet(grid, 9.5, 0.5)
    with pytest.raises(ParameterError):
        propagate_linear_potential(near_edge, system, 0.0)
    for slope in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="slope"):
            propagate_linear_potential(psi0, system, slope)
    with pytest.raises(NumericError, match=r"slope\*\(z - z_ref\)"):  # 1e308 * 10 overflows
        propagate_linear_potential(psi0, system, 1e308)
    # zero steps take the stepping path too: no report before the range check
    still = gaussian_packet(Grid(-12.0, 12.0, 128, dt=1e-3, n_steps=0), 0.0, 0.5)
    with pytest.raises(NumericError, match=r"slope\*\(z - z_ref\)"):
        propagate_linear_potential(still, system, 1e308)


def test_last_moment_sample_is_the_final_field():
    grid = Grid(-10.0, 10.0, 512, dt=1e-3, n_steps=40)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.5, 0.5, k0=1.0)
    report = propagate_linear_potential(psi0, system, system.weight, sample_every=7)
    assert report.moment_series[:, 0].tolist() == pytest.approx(
        [0.0, 0.007, 0.014, 0.021, 0.028, 0.035, 0.04], rel=1e-12
    )
    last = (grid.total_time, *moments(report.final_field, system))
    assert tuple(report.moment_series[-1]) == last


def test_lapack_solve_writes_in_place():
    # the propagation loop solves into its right-hand side buffer and
    # subtracts the state from the solution in place
    zgttrf, zgttrs = _lapack_tridiagonal()
    rng = np.random.default_rng(5)
    n = 64
    lower, upper = (rng.random(n - 1) + 1j * rng.random(n - 1) for _ in range(2))
    diag = 4.0 + rng.random(n) + 1j * rng.random(n)
    dl, d, du, du2, ipiv, info = zgttrf(lower, diag, upper)
    assert info == 0
    rhs = rng.random(n) + 1j * rng.random(n)
    expected = np.linalg.solve(np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1), rhs)
    solution, info = zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
    assert info == 0
    assert solution is rhs
    assert np.allclose(solution, expected, rtol=1e-12, atol=0.0)


# Prints whether the propagator's LAPACK pair is scipy.linalg.lapack's, with
# the package imported before the loader (argv[1] == "package first") or after.
SHARED_LAPACK = """
import json, sys
from gravqm.dynamics import _lapack_tridiagonal
if sys.argv[1] == "package first":
    import scipy.linalg
zgttrf, zgttrs = _lapack_tridiagonal()
from scipy.linalg import lapack
print(json.dumps([zgttrf is lapack.zgttrf, zgttrs is lapack.zgttrs]))
"""


@pytest.mark.parametrize("order", ["package first", "loader first"])
def test_lapack_loader_shares_scipy_linalg_module(order):
    assert json.loads(run_fresh(SHARED_LAPACK, order).splitlines()[-1]) == [True, True]


def test_lapack_loader_names_a_missing_extension(monkeypatch, tmp_path):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    stem = str(tmp_path / "linalg" / "_flapack")
    with pytest.raises(ImportError, match=re.escape(stem)):
        _lapack_tridiagonal()
    assert "scipy.linalg._flapack" not in sys.modules


# Prints the minor page faults of two warm propagations at 12288 points with
# moments every step, of 100 and 400 steps, and whether scipy.linalg was
# loaded.  Both calls allocate the same arrays, so the difference is what
# the 300 extra steps cost.  A run's own arrays can land on fresh pages in
# one call and on reused ones in the other, by up to one 12288-point complex
# array (48 pages): over 300 steps that moves per_step by 0.16, while a
# grid-sized array mapped fresh at every step adds 24 or more.  glibc may
# serve a freed block of that size again from its heap instead, so a
# per-sample temporary need not show here; the tracemalloc test below
# counts those.
PAGE_FAULTS = """
import dataclasses, json, resource, sys
from gravqm import Grid, gaussian_packet, make_natural_system, propagate_linear_potential
system = dataclasses.replace(make_natural_system(1.0), g=1.0)
def faults(steps):
    psi0 = gaussian_packet(Grid(-30.0, 30.0, 12288, dt=1e-3, n_steps=steps), 0.0, 1.0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    propagate_linear_potential(psi0, system, system.weight)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults(100)
short, long = faults(100), faults(400)
print(json.dumps({"per_step": (long - short) / 300, "scipy.linalg": "scipy.linalg" in sys.modules}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's mmap behaviour")
def test_moment_sampling_faults_in_no_fresh_pages():
    # a step and its moment sample must fill buffers built once, not
    # scratch arrays that glibc maps fresh from the kernel on every call
    # (above its 128 KiB mmap threshold a 12288-point complex array is one
    # such block); scipy.linalg, whose import raises that threshold as a
    # side effect and so would hide such an array, must stay unloaded
    report = json.loads(run_fresh(PAGE_FAULTS).splitlines()[-1])
    assert not report["scipy.linalg"]
    assert report["per_step"] < 1.0


def test_moment_sample_allocates_no_grid_sized_array():
    # numpy reports its array buffers to tracemalloc, so a scratch array
    # per sample shows in the peak whatever glibc's mmap threshold is
    n = 12288
    grid = Grid(-30.0, 30.0, n)
    psi = gaussian_packet(grid, 0.0, 1.0).values
    sample = dynamics._Moments(grid, natural())
    sample(psi)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sample(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline < n * 16 / 8


def test_moment_kernel_calls_no_blas():
    # a BLAS product may hand a 10^4-point reduction to its threads, which
    # costs more than the product and stalls on a busy host: the kernel
    # reduces with numpy's pairwise sum alone
    tree = ast.parse(textwrap.dedent(inspect.getsource(dynamics._Moments.__call__)))
    calls, matmuls = set(), 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            matmuls += 1
    assert "sum" in calls  # the walk saw the kernel's reductions
    assert not calls & {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}
    assert matmuls == 0


# ------------------------------------------------------------- shift_field


def test_shift_field_moves_a_packet():
    grid = Grid(-10.0, 10.0, 1024)
    psi = gaussian_packet(grid, 1.0, 0.5, k0=2.0)
    shifted = shift_field(psi, 0.75)
    expected = gaussian_packet(grid, 0.25, 0.5, k0=2.0).values * np.exp(1j * 2.0 * 0.75)
    assert np.max(np.abs(shifted.values - expected)) <= 1e-12
    assert shift_field(psi, 0.0) is psi


@pytest.mark.parametrize(
    "center, offset",
    [
        (-8.5, 2.0),  # the packet leaves through z_min and would reappear at z_max
        (8.5, -2.0),  # and the other way round
        (0.0, 20.0),  # the whole domain
        (0.0, -25.0),
    ],
)
def test_shift_field_refuses_wrap_around(center, offset):
    grid = Grid(-10.0, 10.0, 1024)
    psi = gaussian_packet(grid, center, 0.5)
    with pytest.raises(NumericError, match="shift offset"):
        shift_field(psi, offset)


# ----------------------------------------------------------------- moments


def test_moments_of_resting_gaussian():
    grid = Grid(-10.0, 10.0, 10001)
    psi0 = gaussian_packet(grid, 1.5, 1.0)
    mean_z, mean_p, _, _ = moments(psi0, natural())
    assert mean_z == pytest.approx(1.5, abs=1e-10)
    assert mean_p == pytest.approx(0.0, abs=1e-10)


def test_moments_of_boosted_gaussian():
    grid = Grid(-10.0, 10.0, 10001)
    k0 = 2.0
    psi0 = gaussian_packet(grid, 0.0, 1.0, k0=k0)
    _, mean_p, _, _ = moments(psi0, natural())
    assert mean_p == pytest.approx(k0, abs=1e-8)


def test_momentum_moment_is_sixth_order():
    # the error of <p> must fall about 2^6 = 64 times per halving of dz; a
    # wrong stencil weight leaves a second-order error, a ratio of about 4
    errors = []
    for n_points in (257, 513, 1025):
        psi0 = gaussian_packet(Grid(-10.0, 10.0, n_points), 0.0, 1.0, k0=2.0)
        errors.append(abs(moments(psi0, natural())[1] - 2.0))
    assert 56.0 <= errors[0] / errors[1] <= 72.0
    assert 56.0 <= errors[1] / errors[2] <= 72.0


def test_minimum_uncertainty_product():
    grid = Grid(-10.0, 10.0, 10001)
    psi0 = gaussian_packet(grid, 0.0, 1.0)
    system = natural()
    _, _, sigma_z, sigma_p = moments(psi0, system)
    assert sigma_z * sigma_p == pytest.approx(system.hbar / 2.0, abs=1e-6)


# the two values the benchmark harness may still pass to the propagator; the
# moment is one kernel, so its t = 0 sample under either is the public moment
HARNESS_METHODS = ("central", "spectral")


def _first_sample(field, system, momentum_method):
    report = propagate_linear_potential(field, system, 0.0, momentum_method=momentum_method)
    return tuple(float(x) for x in report.moment_series[0, 1:])


@pytest.mark.parametrize("momentum_method", HARNESS_METHODS)
def test_moments_match_trapezoid_oracle(momentum_method):
    rng = np.random.default_rng(17)
    grid = Grid(-14.0, 13.0, 4097)
    system = dataclasses.replace(make_natural_system(1.0), hbar=0.7)
    for _ in range(6):
        field = gaussian_packet(
            grid,
            center=float(rng.uniform(-3.0, 3.0)),
            sigma=float(rng.uniform(0.3, 1.5)),
            k0=float(rng.uniform(-4.0, 4.0)),
        )
        expected = trapezoid_moments(field.values, grid.z, grid.dz, system.hbar)
        got = moments(field, system)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)
    # the propagator refuses a packet near the walls, so its sample is checked
    # on one clear of both
    field = gaussian_packet(grid, center=0.5, sigma=1.0, k0=2.0)
    got = _first_sample(field, system, momentum_method)
    expected = trapezoid_moments(field.values, grid.z, grid.dz, system.hbar)
    assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)
    assert got == moments(field, system)


def _edge_field(grid, k0):
    # a packet with 1e-7 in the three samples nearest each edge, under the
    # 1e-6 contact limit: there the trapezoid's half weights and the
    # stencil's Dirichlet zeros enter <p^2> at about 1e-12 relative
    values = gaussian_packet(grid, 0.5, 1.0, k0=k0).values.copy()
    edge = 1e-7 * np.exp(1j * np.array([0.3, 1.9, 2.6]))
    values[:3] = edge
    values[-3:] = -edge[::-1]
    return ComplexField(grid, values).normalized()


@pytest.mark.parametrize(
    "make_field",
    [
        lambda grid: gaussian_packet(grid, 0.5, 1.0, k0=2.0),
        lambda grid: _edge_field(grid, 0.0),
        lambda grid: _edge_field(grid, 2.0),
    ],
    ids=["boosted", "edge-at-rest", "edge-boosted"],
)
def test_moments_match_fsum_oracle(make_field):
    grid = Grid(-14.0, 13.0, 4097)
    system = dataclasses.replace(make_natural_system(1.0), hbar=0.7)
    field = make_field(grid)
    expected = fsum_moments(field.values, grid.z, grid.dz, system.hbar)
    # relative, or absolute for <p> of the packet at rest (2e-25)
    assert moments(field, system) == pytest.approx(expected, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("momentum_method", HARNESS_METHODS)
def test_moments_of_packet_wider_than_its_square_range(momentum_method):
    # sigma_z^2 = 1e398 and sigma_p^2 = 2.5e-399 leave double range, the
    # spreads do not; no RuntimeWarning (pyproject.toml turns one into an error)
    grid = Grid(-1e200, 1e200, 101)
    values = np.exp(-((grid.z / 1e199) ** 2) / 4.0)
    field = ComplexField(grid, values).normalized()
    mean_z, mean_p, sigma_z, sigma_p = moments(field, natural())
    assert sigma_z == pytest.approx(1e199, rel=1e-12)
    assert sigma_p == pytest.approx(5e-200, rel=1e-2)  # 5 points per sigma
    assert abs(mean_z) <= 1e-15 * sigma_z
    assert abs(mean_p) <= 1e-15 * sigma_p
    # the propagator takes the same sample at t = 0 and is refused only after
    # it, where dz^2 = 1.6e397 leaves double range
    with pytest.raises(NumericError, match=r"dz\^2 = inf"):
        propagate_linear_potential(field, natural(), 0.0, momentum_method=momentum_method)


def test_moments_of_non_finite_field_are_a_numeric_error():
    grid = Grid(-10.0, 10.0, 101)
    values = gaussian_packet(grid, 0.0, 1.0).values.copy()
    values[50] = math.nan
    with pytest.raises(NumericError):
        moments(ComplexField(grid, values), natural())


def test_moments_with_hbar_out_of_double_range():
    packet = gaussian_packet(Grid(-10.0, 10.0, 256), 0.0, 1.0)
    with pytest.raises(NumericError):  # hbar^2 overflows
        moments(packet, PhysicalSystem(m_i=1.0, m_g=1.0, hbar=1e200))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gaussian_packet(Grid(-10.0, 10.0, 256), 0.0, 1e200),  # sigma^2 overflows
        lambda: gaussian_packet(Grid(-10.0, 10.0, 256), 0.0, 1e-200),  # sigma^2 underflows
        lambda: free_dispersion_width(1e200, 1.0, natural()),
        lambda: free_dispersion_width(1e-200, 1.0, natural()),
    ],
    ids=["packet-wide", "packet-narrow", "width-wide", "width-narrow"],
)
def test_packet_width_out_of_double_range(call):
    with pytest.raises(NumericError):
        call()


@pytest.mark.parametrize(
    "bad",
    [dict(center=10**400), dict(center=math.inf), dict(k0=math.nan), dict(k0=math.inf),
     dict(sigma=math.nan)],
    ids=["center-int", "center-inf", "k0-nan", "k0-inf", "sigma-nan"],
)
def test_packet_rejects_non_finite_inputs(bad):
    with pytest.raises(ParameterError):
        gaussian_packet(Grid(-12.0, 12.0, 256), **{"center": 0.0, "sigma": 1.0, **bad})


@pytest.mark.parametrize("bad", [dict(center=1e308), dict(k0=1e308)], ids=["center", "k0"])
def test_packet_off_grid_is_a_numeric_error(bad):
    # no RuntimeWarning from the exponent (pyproject.toml turns one into an error)
    with pytest.raises(NumericError):
        gaussian_packet(Grid(-12.0, 12.0, 256), **{"center": 0.0, "sigma": 1.0, **bad})


def test_narrow_packet_width_stays_finite():
    # tau = hbar*t/(2*m*sigma0^2) = 5e199 squares past double range; the width
    # sigma0*tau = 5e99 does not
    assert free_dispersion_width(1e-100, 1.0, natural()) == pytest.approx(5e99, rel=1e-15)


def _spike_on_fine_grid(n_steps=0):
    # one sample of height 1/sqrt(dz): <p^2> ~ (hbar/dz)^2 = 1e342 leaves double range
    grid = Grid(0.0, 1e-170, 11, dt=1e-3, n_steps=n_steps)
    values = np.zeros(11, dtype=complex)
    values[5] = 1.0 / math.sqrt(grid.dz)
    return ComplexField(grid, values)


def test_propagation_with_spacing_out_of_double_range():
    with pytest.raises(NumericError):  # at the first moment sample, before dz^2 underflows
        propagate_linear_potential(_spike_on_fine_grid(n_steps=2), natural(), 0.0)


@pytest.mark.parametrize("momentum_method", HARNESS_METHODS)
def test_moments_with_spacing_out_of_double_range(momentum_method):
    # a NumericError with no RuntimeWarning (pyproject.toml turns one into an error)
    with pytest.raises(NumericError, match="momentum moments"):
        moments(_spike_on_fine_grid(), natural())
    with pytest.raises(NumericError, match="momentum moments"):  # the sample at t = 0
        _first_sample(_spike_on_fine_grid(), natural(), momentum_method)


@pytest.mark.parametrize(
    "error, call",
    [
        (ParameterError, lambda: Grid(-1.0, 1.0, 16, dt=1e-3, n_steps=-1)),
        (ParameterError, lambda: ComplexField(Grid(-1.0, 1.0, 16), np.zeros(15))),
        (NumericError, lambda: ComplexField(Grid(-1.0, 1.0, 16), np.zeros(16)).normalized()),
        (ParameterError, lambda: gaussian_packet(Grid(-1.0, 1.0, 16), 0.0, 0.0)),
        (ParameterError, lambda: gaussian_packet(Grid(-1.0, 1.0, 16), 0.0, -1.0)),
        (ParameterError, lambda: pde_residual(
            np.ones((5, 6), dtype=complex), np.arange(5.0), np.arange(5.0), natural(), 0.0)),
        (NumericError, lambda: pde_residual(
            np.full((5, 5), complex(math.nan)), np.arange(5.0), np.arange(5.0), natural(), 0.0)),
        (ParameterError, lambda: align_global_phase(
            gaussian_packet(Grid(-10.0, 10.0, 128), 0.0, 1.0),
            gaussian_packet(Grid(-10.0, 10.0, 129), 0.0, 1.0))),
        (ParameterError, lambda: shift_field(
            gaussian_packet(Grid(-10.0, 10.0, 1024), 0.0, 0.5), math.nan)),
    ],
    ids=["grid-negative-steps", "field-shape", "normalize-zero-field", "packet-zero-width",
         "packet-negative-width", "residual-shape", "residual-non-finite", "align-across-grids",
         "shift-nan-offset"],
)
def test_validation_raises(error, call):
    with pytest.raises(error):
        call()


def test_align_fields_of_runs_with_different_time_steps():
    # the same 512 points, T = 0.5 in steps of 1e-2 and of 2e-2: the grids
    # differ only in dt and n_steps, and the fields differ by the
    # Crank-Nicolson time error
    finals = []
    for dt, n_steps in ((1e-2, 50), (2e-2, 25)):
        grid = Grid(-12.0, 12.0, 512, dt=dt, n_steps=n_steps)
        report = propagate_linear_potential(
            gaussian_packet(grid, 0.0, 1.0), natural(), 0.0, sample_every=n_steps
        )
        finals.append(report.final_field)
    assert 0.0 < max_pointwise_mismatch(*finals) <= 1e-5


def test_moments_reject_unnormalized_field():
    grid = Grid(-10.0, 10.0, 101)
    field = ComplexField(grid, np.exp(-grid.z**2))
    with pytest.raises(ParameterError):
        moments(field, natural())


def test_propagator_ignores_the_harness_momentum_method():
    # "central" and "spectral" are accepted and change nothing; any other
    # value is refused before the run
    grid = Grid(-12.0, 12.0, 256, dt=1e-2, n_steps=3)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.0, 1.0)
    plain = propagate_linear_potential(psi0, system, system.weight)
    for method in ("central", "spectral"):
        report = propagate_linear_potential(psi0, system, system.weight, momentum_method=method)
        np.testing.assert_array_equal(report.moment_series, plain.moment_series)
        np.testing.assert_array_equal(report.final_field.values, plain.final_field.values)
    with pytest.raises(ParameterError, match="'nope'"):
        propagate_linear_potential(psi0, system, system.weight, momentum_method="nope")


# ------------------------------------------------------------ PDE residual


def test_plane_wave_residual_small_on_condition():
    system = natural(v=0.3, a=1.0)
    h = 1e-3
    z = 0.5 + np.arange(9) * h
    t = 0.2 + np.arange(9) * h
    vals = sample_stencil(lambda zz, tt: plane_wave_stationary(1.2, system, zz, tt), z, t)
    assert pde_residual(vals, z, t, system, system.m_i * system.a) <= 1e-6


def test_plane_wave_residual_detects_wrong_acceleration():
    # a*m_i != m_g*g leaves a linear-in-z source term
    system = dataclasses.replace(natural(v=0.3, a=1.5), g=1.0)
    h = 1e-3
    for z0 in (5.0, -5.0):
        z = z0 + np.arange(9) * h
        t = 0.2 + np.arange(9) * h
        vals = sample_stencil(lambda zz, tt: plane_wave_stationary(1.2, system, zz, tt), z, t)
        assert pde_residual(vals, z, t, system, system.weight) > 1e-2


def test_free_gaussian_residual():
    system = natural()
    h = 2.5e-4
    z = -0.9 + np.arange(9) * h
    t = 0.2 + np.arange(9) * h
    vals = sample_stencil(
        lambda zz, tt: complex(free_gaussian_analytic(zz, tt, 0.5, k0=0.7)), z, t
    )
    assert pde_residual(vals, z, t, system, 0.0) <= 1e-6


def test_transformed_gaussian_solves_gravitational_equation():
    # free packet mapped through the falling-frame phase obeys V = m*a*z
    system = natural(v=0.0, a=1.0)

    def mapped(zz, tt):
        zp = zz + system.shift(tt)
        psi_p = complex(free_gaussian_analytic(zp, tt, 0.7))
        return psi_p * complex(np.exp(1j * phase_s(system, zp, tt)))

    h = 2.5e-4
    z = -0.4 + np.arange(9) * h
    t = 0.4 + np.arange(9) * h
    vals = sample_stencil(mapped, z, t)
    assert pde_residual(vals, z, t, system, system.m_i * system.a) <= 1e-6


def test_galilean_boosted_gaussian_stays_free():
    system = natural(v=0.8, a=0.0)

    def boosted(zz, tt):
        zp = zz + system.v * tt
        psi_p = complex(free_gaussian_analytic(zp, tt, 0.7))
        return psi_p * complex(np.exp(1j * phase_s(system, zp, tt)))

    h = 2.5e-4
    z = -0.5 + np.arange(9) * h
    t = 0.1 + np.arange(9) * h
    vals = sample_stencil(boosted, z, t)
    assert pde_residual(vals, z, t, system, 0.0) <= 1e-6


def test_residual_stencil_validation():
    system = natural()
    z = np.linspace(0.0, 1.0, 4)
    t = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ParameterError):
        pde_residual(np.ones((9, 4), dtype=complex), z, t, system, 0.0)
    z_bad = np.array([0.0, 0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    with pytest.raises(ParameterError):
        pde_residual(np.ones((9, 9), dtype=complex), z_bad, t, system, 0.0)
    with pytest.raises(ParameterError):
        pde_residual(np.ones((3, 3), dtype=complex), z[:3], t[:3], system, 0.0)
    # steps of 1e-9 and 2e-9: uneven at any spacing, not only above 1e-8
    z_tiny = np.array([0.0, 1e-9, 3e-9, 4e-9, 6e-9, 7e-9])
    with pytest.raises(ParameterError, match="uniform"):
        pde_residual(np.ones((9, 6), dtype=complex), z_tiny, t, system, 0.0)


# ------------------------------------------------------- frame equivalence


def test_heisenberg_checks_on_free_run():
    # g = 0: the means stay put, the momentum spread is frozen and the width
    # grows as sigma_z0^2 + (sigma_p0*t/m)^2
    grid = Grid(-12.0, 12.0, 4096, dt=5e-4, n_steps=round(WIDTH_DOUBLING_TIME / 5e-4))
    system = natural()
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    report = propagate_linear_potential(psi0, system, 0.0, sample_every=10)
    checks = heisenberg_checks(report, system)
    assert checks["momentum_spread"].residual <= 1e-8
    assert checks["position_spread"].residual <= 1e-6
    assert all(oc.passed for oc in checks.values())
    widths = report.moment_series[:, 3]
    assert widths[-1] > 1.9 * widths[0]  # packet genuinely spreads


@pytest.mark.parametrize("n_steps", [0, 1, 2])
def test_heisenberg_checks_on_short_series(n_steps):
    # one, two or three samples: no fit needs a minimum length
    grid = Grid(-14.0, 13.0, 256, dt=5e-3, n_steps=n_steps)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    report = propagate_linear_potential(psi0, system, system.weight)
    assert report.moment_series.shape == (n_steps + 1, 5)
    checks = heisenberg_checks(report, system)
    assert list(checks) == ["mean_momentum", "mean_position", "momentum_spread", "position_spread"]
    assert all(oc.passed for oc in checks.values())


def test_heisenberg_residuals_at_the_ci_scale():
    # the bouncer-moments demo on 2048 points, dt 1e-3 and t 0.2; each bound is
    # about twice the residual the sixth-order moment reads (in the
    # comments), so a change that degrades the moments shows here long
    # before the 1e-6 and 1e-8 gates
    bounds = {
        "mean_momentum": 8.3e-8,  # 4.17e-8
        "mean_position": 2.8e-8,  # 1.40e-8
        "momentum_spread": 9.4e-13,  # 4.71e-13
        "position_spread": 1.3e-7,  # 6.51e-8
    }
    checks = _run_demo("bouncer-moments", n_points=2048, dt=1e-3, t_final=0.2)[1]
    residuals = {name: checks[name].residual for name in bounds}
    assert all(residuals[name] <= bound for name, bound in bounds.items()), residuals


@pytest.mark.parametrize("z0", [-4.0, -2.0, 2.0])
def test_heisenberg_checks_off_centre(z0):
    # the potential is referenced to the packet, so where V = m_g g z is zero
    # does not enter the time error: a packet at rest started off z = 0
    # passes the unchanged bounds and reads what one at z = 0 reads
    # (1.38e-7, 8.95e-8, 7.1e-12 and 2.80e-8)
    system = PhysicalSystem(m_i=1.3, m_g=0.7, g=2.0, hbar=0.9)
    grid = Grid(-14.0, 13.0, 2048, dt=1e-3, n_steps=600)
    centred, off = (
        heisenberg_checks(
            propagate_linear_potential(
                gaussian_packet(grid, center, 0.6), system, system.weight, sample_every=10
            ),
            system,
        )
        for center in (0.0, z0)
    )
    assert all(oc.passed for oc in off.values()), off
    for name in ("mean_momentum", "mean_position", "position_spread"):
        assert off[name].residual == pytest.approx(centred[name].residual, rel=0.01), name


def test_heisenberg_checks_out_of_double_range():
    # the bouncer-moments packet, one step of 1e300: F*T^2/(2 m_i) overflows,
    # a numeric failure rather than a nan residual
    grid = Grid(-14.0, 13.0, 256, dt=1e300, n_steps=1)
    system = natural(a=1.0)
    report = propagate_linear_potential(gaussian_packet(grid, 0.0, 0.5), system, system.weight)
    with pytest.raises(NumericError, match=r"mean_position: the closed form at t=1e\+300 "):
        heisenberg_checks(report, system)


def test_heisenberg_checks_keep_gravitational_and_inertial_mass_apart():
    # a moving packet with m_g != m_i follows the operator solution; the same
    # series checked against m_g = m_i misses the force in both means
    system = PhysicalSystem(m_i=1.3, m_g=0.7, g=2.0, hbar=0.9)
    grid = Grid(-12.0, 12.0, 2048, dt=1.25e-4, n_steps=2000)
    psi0 = gaussian_packet(grid, 0.0, 0.5, k0=0.5)
    report = propagate_linear_potential(psi0, system, system.weight, sample_every=10)
    checks = heisenberg_checks(report, system)
    assert all(oc.passed for oc in checks.values()), checks
    assert max(oc.residual / oc.tolerance for oc in checks.values()) <= 0.2
    equal_masses = heisenberg_checks(report, dataclasses.replace(system, m_g=system.m_i))
    assert [name for name, oc in equal_masses.items() if not oc.passed] == [
        "mean_momentum", "mean_position"
    ]
    assert equal_masses["mean_momentum"].residual > 1e-2
    assert equal_masses["mean_position"].residual > 1e-2


def test_frame_equivalence_zero_time_is_exact():
    grid = Grid(-12.0, 12.0, 1024, dt=0.0, n_steps=0)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    assert frame_equivalence_test(psi0, system) == 0.0


def test_frame_equivalence_small_run():
    grid = Grid(-15.0, 15.0, 2048, dt=1e-3, n_steps=300)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 2.0, 0.5)
    result = frame_equivalence(psi0, system)
    assert 0.0 < result.max_mismatch <= 5e-4
    assert result.free_report.norm_drift <= 1e-9
    assert result.direct_report.norm_drift <= 1e-9


def test_frame_equivalence_with_initial_frame_velocity():
    # nonzero v: the direct path starts from the boosted t = 0 field
    grid = Grid(-15.0, 15.0, 4096, dt=5e-4, n_steps=600)
    system = dataclasses.replace(natural(a=1.0), v=0.3)
    psi0 = gaussian_packet(grid, 2.0, 0.5)
    assert frame_equivalence_test(psi0, system) <= 5e-4


def test_frame_equivalence_detects_violated_condition():
    grid = Grid(-20.0, 30.0, 2048, dt=1e-3, n_steps=1000)
    system = dataclasses.replace(natural(a=1.5), g=1.0)  # a = 1.5 * m_g g / m_i
    psi0 = gaussian_packet(grid, 8.0, 0.5)
    assert frame_equivalence_test(psi0, system) > 1e-2


def test_frame_equivalence_fourth_order_in_time():
    # the reference spatial configuration at a dt pair where the time error
    # dominates the fixed spatial floor: after the Richardson step, halving
    # dt must reduce the mismatch by about 16x (15.4 measured), while the
    # correction it made (the fine runs' own second-order error) drops by
    # about 4x (4.00)
    system = natural(a=1.0)
    results = []
    for dt in (2e-2, 1e-2):
        grid = Grid(-20.0, 30.0, REFERENCE_FRAME_RUN["n_points"], dt=dt, n_steps=round(1.0 / dt))
        results.append(frame_equivalence(gaussian_packet(grid, 8.0, 0.5), system))
    coarse, fine = results
    assert 12.0 <= coarse.max_mismatch / fine.max_mismatch <= 20.0
    assert 3.5 <= coarse.time_correction / fine.time_correction <= 4.5


def test_extrapolated_run_fourth_order_against_avron_herbst():
    # one path alone, no frame map: V = F z moves a free packet along
    # z0 - F t^2/(2m) and multiplies it by exp(-i F t z/hbar) (up to a global
    # phase, which the mismatch aligns); the extrapolated error must fall
    # about 16x per halving of dt (15.6 measured, 9.9e-6 at dt 2e-2), the
    # plain one about 4x (4.00)
    system = natural(a=1.0)
    extrapolated, plain = [], []
    for dt in (2e-2, 1e-2):
        grid = Grid(-20.0, 30.0, 2048, dt=dt, n_steps=round(1.0 / dt))
        z, t = grid.z, grid.total_time
        exact = ComplexField(
            grid, free_gaussian_analytic(z + 0.5 * t**2, t, 0.5, z0=8.0) * np.exp(-1j * t * z)
        )
        report, values, _ = dynamics._extrapolated_run(gaussian_packet(grid, 8.0, 0.5), system, 1.0)
        extrapolated.append(max_pointwise_mismatch(ComplexField(grid, values), exact))
        plain.append(max_pointwise_mismatch(report.final_field, exact))
    assert extrapolated[0] <= 5e-5
    assert 12.0 <= extrapolated[0] / extrapolated[1] <= 20.0
    assert 3.5 <= plain[0] / plain[1] <= 4.5


def test_free_path_matches_the_stepped_runs():
    # the reference grid: the free path's fields and end moments agree with
    # the stepped runs (a free run sampled along the way is stepped) to
    # rounding, through _extrapolated_run and through the public end-only
    # call
    system = natural()
    grid = Grid(-20.0, 30.0, 2048, dt=2e-3, n_steps=500)
    psi0 = gaussian_packet(grid, 8.0, 0.5)
    report, values, _ = dynamics._extrapolated_run(psi0, system, 0.0)
    coarse_grid = Grid(-20.0, 30.0, 2048, dt=4e-3, n_steps=250)
    coarse = propagate_linear_potential(ComplexField(coarse_grid, psi0.values), system, 0.0)
    end_only = propagate_linear_potential(psi0, system, 0.0, sample_every=500)
    fine = propagate_linear_potential(psi0, system, 0.0, sample_every=250)
    stepped = fine.final_field.values
    scale = np.max(np.abs(stepped))
    ends = fine.moment_series[[0, -1]]
    for free in (report, end_only):
        assert np.max(np.abs(free.final_field.values - stepped)) <= 1e-12 * scale
        np.testing.assert_array_equal(free.moment_series[:, 0], ends[:, 0])
        np.testing.assert_allclose(free.moment_series, ends, rtol=0.0, atol=1e-12)
        assert free.norm_drift <= 1e-12
    expected = stepped + (stepped - coarse.final_field.values) / 3.0
    assert np.max(np.abs(values - expected)) <= 1e-12 * scale


def test_frame_equivalence_steps_only_the_direct_path(monkeypatch):
    # the free path is never stepped: a fallback to stepping would otherwise
    # show only as a slower benchmark.  Each stepped run factors 6A once; a
    # free run sampled at its ends alone factors nothing, one sampled along
    # the way is stepped.
    zgttrf, zgttrs = _lapack_tridiagonal()
    factorizations = []

    def counting_zgttrf(*args):
        factorizations.append(args)
        return zgttrf(*args)

    monkeypatch.setattr(dynamics, "_lapack_tridiagonal", lambda: (counting_zgttrf, zgttrs))
    system = natural(a=1.0)
    grid = Grid(-15.0, 15.0, 1024, dt=2e-3, n_steps=100)
    psi0 = gaussian_packet(grid, 2.0, 0.5)
    counts = []
    for run in (
        lambda: frame_equivalence(psi0, system),
        lambda: propagate_linear_potential(psi0, system, 0.0, sample_every=grid.n_steps),
        lambda: propagate_linear_potential(psi0, system, 0.0, sample_every=grid.n_steps - 1),
    ):
        factorizations.clear()
        run()
        counts.append(len(factorizations))
    assert counts == [2, 0, 1]


def test_frame_equivalence_samples_and_checks_only_the_fine_runs(monkeypatch):
    # the coarse run of each path is a bare kernel call: the two fine runs
    # alone check the initial state, sample their two ends and take a norm
    # at each end
    counts = collections.Counter()

    class CountingMoments(dynamics._Moments):
        def __init__(self, *args):
            counts["samplers"] += 1
            super().__init__(*args)

        def __call__(self, psi):
            counts["samples"] += 1
            return super().__call__(psi)

    def counting(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    system = natural(a=1.0)
    psi0 = gaussian_packet(Grid(-15.0, 15.0, 1024, dt=2e-3, n_steps=100), 2.0, 0.5)
    monkeypatch.setattr(dynamics, "_Moments", CountingMoments)
    monkeypatch.setattr(
        dynamics, "_check_initial_state", counting("initial checks", dynamics._check_initial_state)
    )
    monkeypatch.setattr(dynamics, "norm_squared", counting("norms", dynamics.norm_squared))
    frame_equivalence(psi0, system)
    assert counts == {"samplers": 2, "samples": 4, "initial checks": 2, "norms": 4}


@pytest.mark.parametrize(
    "grid, center, sigma, slope, named",
    [
        # z_ref = 6: |V| reaches 16*slope at z = -10, past double range,
        # though slope*z alone would reach only 1.5e308
        (Grid(-10.0, 10.0, 512, dt=1e-300, n_steps=2), 6.0, 0.3, 1.5e307,
         r"potential slope\*\(z - z_ref\) = inf"),
        # |V| <= 10 and the step coefficients fit, slope*z_ref*T/hbar does not
        (Grid(99990.0, 100010.0, 512, dt=1e303, n_steps=3), 1e5, 0.8, 1.0,
         r"potential phase slope\*z_ref\*T/hbar = inf"),
    ],
    ids=["potential", "phase"],
)
def test_referenced_potential_range_is_checked_before_either_kernel(
    monkeypatch, grid, center, sigma, slope, named
):
    # the range checks read the potential and the phase the stepped kernel
    # builds, so neither kernel runs and numpy warns of nothing
    def no_kernel(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(dynamics, "_lapack_tridiagonal", no_kernel)
    monkeypatch.setattr(dynamics, "_free_run", no_kernel)
    psi0 = gaussian_packet(grid, center, sigma)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match=named):
            propagate_linear_potential(psi0, natural(), slope)
    assert [str(w.message) for w in caught] == []


def test_coarse_run_checks_its_own_time_step():
    # 3 steps of dt pass the coefficient checks, the 2 coarse steps of
    # 1.5 dt do not: the coarse run must refuse its step, not end in a
    # non-finite sample
    grid = Grid(-12.0, 12.0, 256, dt=2.0668973471741636e305, n_steps=3)
    psi0 = gaussian_packet(grid, 0.0, 1.0)
    for slope in (0.0, 1.0):
        propagate_linear_potential(psi0, natural(), slope, sample_every=3)
        with pytest.raises(NumericError, match=r"time step dt=3\.10035e\+305"):
            dynamics._extrapolated_run(psi0, natural(), slope)


def _plain_mismatch(psi0, system):
    # the dual-path comparison without the extrapolation in time
    t_final = psi0.grid.total_time
    free = propagate_linear_potential(psi0, system, 0.0).final_field
    direct = propagate_linear_potential(
        to_stationary_frame(system, psi0, 0.0), system, system.weight
    ).final_field
    transformed = to_stationary_frame(system, shift_field(free, system.shift(t_final)), t_final)
    return max_pointwise_mismatch(transformed, direct)


def test_frame_equivalence_single_step_is_compared_plainly():
    # one step has no coarser run: no correction, the plain comparison
    grid = Grid(-20.0, 30.0, 2048, dt=1e-2, n_steps=1)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 8.0, 0.5)
    result = frame_equivalence(psi0, system)
    assert result.time_correction == 0.0
    assert result.max_mismatch == pytest.approx(_plain_mismatch(psi0, system), rel=1e-12)


def test_frame_equivalence_three_steps_extrapolates_with_ratio_one_and_a_half():
    # n = 3 pairs with m = 2 coarse steps, q = 1.5: a weight other than
    # 1/(q^2 - 1) would leave most of the 1.2e-6 dt^2 error in place (the
    # mismatch reads 6.8e-10 and the plain one 5.3e-7)
    grid = Grid(-20.0, 30.0, 2048, dt=7e-3, n_steps=3)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 8.0, 0.5)
    result = frame_equivalence(psi0, system)
    assert result.max_mismatch <= 1e-9
    assert result.time_correction > 1e-6
    assert _plain_mismatch(psi0, system) > 100.0 * result.max_mismatch


@pytest.mark.parametrize("sample_every", [2.5, math.nan, True])
def test_sample_every_must_be_an_integer(sample_every):
    psi0 = gaussian_packet(Grid(-12.0, 12.0, 256, dt=1e-3, n_steps=10), 0.0, 1.0)
    with pytest.raises(ParameterError, match="sample_every must be an integer"):
        propagate_linear_potential(psi0, natural(), 1.0, sample_every=sample_every)
