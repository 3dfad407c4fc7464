import dataclasses
import math

import numpy as np
import pytest

from gravqm import (
    REFERENCE_FRAME_RUN,
    BoundaryContactError,
    ComplexField,
    FrameTransform,
    Grid,
    NumericError,
    ParameterError,
    PhysicalSystem,
    PlaneWaveState,
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
)
from oracles import free_gaussian_analytic, trapezoid_moments


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


def test_norm_drift_is_tiny():
    grid = Grid(-12.0, 12.0, 2048, dt=1e-4, n_steps=10_000)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    report = propagate_linear_potential(psi0, system, system.weight, sample_every=10_000)
    assert report.norm_drift <= 1e-9


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
    report = propagate_linear_potential(
        psi0, system, system.weight, sample_every=50, momentum_method="spectral"
    )
    t, mean_z, mean_p = report.moment_series[:, 0], report.moment_series[:, 1], report.moment_series[:, 2]
    velocity = (mean_z[2:] - mean_z[:-2]) / (t[2:] - t[:-2])
    target = mean_p[1:-1] / system.m_i
    scale = np.max(np.abs(target))
    assert np.max(np.abs(velocity - target)) / scale <= 1e-5


def test_boundary_contact_is_diagnosed():
    grid = Grid(-6.0, 6.0, 1024, dt=1e-3, n_steps=3000)
    system = natural()
    psi0 = gaussian_packet(grid, 0.0, 0.5, k0=4.0)  # fast packet, small box
    with pytest.raises(BoundaryContactError) as err:
        propagate_linear_potential(psi0, system, 0.0, sample_every=3000)
    assert 0.0 < err.value.time <= 3.0


def test_non_finite_field_fails_at_the_step_it_appears():
    # a NaN slope turns the field into NaN on the first step; the per-step
    # edge check must stop the run there, not at the next moment sample
    grid = Grid(-10.0, 10.0, 512, dt=1e-3, n_steps=50)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    with pytest.raises(NumericError, match=r"non-finite samples at t=0\.001\b") as err:
        propagate_linear_potential(psi0, natural(), math.nan, sample_every=50)
    assert not isinstance(err.value, BoundaryContactError)


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


def test_last_moment_sample_is_the_final_field():
    grid = Grid(-10.0, 10.0, 512, dt=1e-3, n_steps=40)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.5, 0.5, k0=1.0)
    for method in ("central", "spectral"):
        report = propagate_linear_potential(
            psi0, system, system.weight, sample_every=7, momentum_method=method
        )
        assert report.moment_series[:, 0].tolist() == pytest.approx(
            [0.0, 0.007, 0.014, 0.021, 0.028, 0.035, 0.04], rel=1e-12
        )
        last = (grid.total_time, *moments(report.final_field, system, method=method))
        assert tuple(report.moment_series[-1]) == last


def test_lapack_solve_writes_in_place():
    # the propagation loop swaps two state buffers around this solve
    from scipy.linalg.lapack import zgttrf, zgttrs

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
        (0.0, math.nan),
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
    # central differences carry an O(dz^2) phase-gradient bias; the spectral
    # route is exact for a packet this smooth
    _, mean_p, _, _ = moments(psi0, natural(), method="central")
    assert mean_p == pytest.approx(k0, abs=1e-5)
    _, mean_p, _, _ = moments(psi0, natural(), method="spectral")
    assert mean_p == pytest.approx(k0, abs=1e-8)


def test_minimum_uncertainty_product():
    grid = Grid(-10.0, 10.0, 10001)
    psi0 = gaussian_packet(grid, 0.0, 1.0)
    system = natural()
    for method in ("central", "spectral"):
        _, _, sigma_z, sigma_p = moments(psi0, system, method=method)
        assert sigma_z * sigma_p == pytest.approx(system.hbar / 2.0, abs=1e-6)


@pytest.mark.parametrize("method", ["central", "spectral"])
def test_moments_match_trapezoid_oracle(method):
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
        expected = trapezoid_moments(field.values, grid.z, grid.dz, system.hbar, method)
        got = moments(field, system, method=method)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_moments_of_non_finite_field_are_a_numeric_error():
    grid = Grid(-10.0, 10.0, 101)
    values = gaussian_packet(grid, 0.0, 1.0).values.copy()
    values[50] = math.nan
    for method in ("central", "spectral"):
        with pytest.raises(NumericError):
            moments(ComplexField(grid, values), natural(), method=method)


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


def test_narrow_packet_width_stays_finite():
    # tau = hbar*t/(2*m*sigma0^2) = 5e199 squares past double range; the width
    # sigma0*tau = 5e99 does not
    assert free_dispersion_width(1e-100, 1.0, natural()) == pytest.approx(5e99, rel=1e-15)


def test_propagation_with_spacing_out_of_double_range():
    grid = Grid(0.0, 1e-170, 11, dt=1e-3, n_steps=2)
    values = np.zeros(11, dtype=complex)
    values[5] = 1.0 / math.sqrt(grid.dz)
    with np.errstate(over="ignore"), pytest.raises(NumericError):  # dz^2 underflows
        propagate_linear_potential(ComplexField(grid, values), natural(), 0.0)


def test_moments_reject_unnormalized_field():
    grid = Grid(-10.0, 10.0, 101)
    field = ComplexField(grid, np.exp(-grid.z**2))
    with pytest.raises(ParameterError):
        moments(field, natural())
    with pytest.raises(ParameterError):
        moments(gaussian_packet(grid, 0.0, 1.0), natural(), method="nope")


# ------------------------------------------------------------ PDE residual


def test_plane_wave_residual_small_on_condition():
    system = natural(v=0.3, a=1.0)
    ft = FrameTransform.from_system(system)
    pw = PlaneWaveState.from_momentum(1.2, system)
    h = 1e-3
    z = 0.5 + np.arange(9) * h
    t = 0.2 + np.arange(9) * h
    vals = sample_stencil(lambda zz, tt: plane_wave_stationary(pw, ft, zz, tt), z, t)
    assert pde_residual(vals, z, t, system, system.m_i * system.a) <= 1e-6


def test_plane_wave_residual_detects_wrong_acceleration():
    # a*m_i != m_g*g leaves a linear-in-z source term
    system = dataclasses.replace(natural(v=0.3, a=1.5), g=1.0)
    ft = FrameTransform.from_system(system)
    pw = PlaneWaveState.from_momentum(1.2, system)
    h = 1e-3
    for z0 in (5.0, -5.0):
        z = z0 + np.arange(9) * h
        t = 0.2 + np.arange(9) * h
        vals = sample_stencil(lambda zz, tt: plane_wave_stationary(pw, ft, zz, tt), z, t)
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
    ft = FrameTransform.from_system(system)

    def mapped(zz, tt):
        zp = zz + ft.shift(tt)
        psi_p = complex(free_gaussian_analytic(zp, tt, 0.7))
        return psi_p * complex(np.exp(1j * phase_s(ft, zp, tt)))

    h = 2.5e-4
    z = -0.4 + np.arange(9) * h
    t = 0.4 + np.arange(9) * h
    vals = sample_stencil(mapped, z, t)
    assert pde_residual(vals, z, t, system, system.m_i * system.a) <= 1e-6


def test_galilean_boosted_gaussian_stays_free():
    system = natural(v=0.8, a=0.0)
    ft = FrameTransform.from_system(system)

    def boosted(zz, tt):
        zp = zz + system.v * tt
        psi_p = complex(free_gaussian_analytic(zp, tt, 0.7))
        return psi_p * complex(np.exp(1j * phase_s(ft, zp, tt)))

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


# ------------------------------------------------------- frame equivalence


def test_heisenberg_checks_on_free_run():
    # g = 0: momentum spread frozen, width grows, product stays above hbar/2
    grid = Grid(-12.0, 12.0, 4096, dt=5e-4, n_steps=round(WIDTH_DOUBLING_TIME / 5e-4))
    system = natural()
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    report = propagate_linear_potential(
        psi0, system, 0.0, sample_every=10, momentum_method="spectral"
    )
    checks = heisenberg_checks(report, system)
    assert checks["momentum_spread_constant"].residual <= 1e-8
    assert checks["uncertainty_product"].residual >= -1e-9
    assert all(oc.passed for oc in checks.values())
    widths = report.moment_series[:, 3]
    assert widths[-1] > 1.9 * widths[0]  # packet genuinely spreads


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


def test_frame_equivalence_second_order_in_time():
    # run the reference spatial configuration at a dt pair where the time
    # error dominates the fixed spatial floor; halving dt must reduce the
    # mismatch by about 4x
    system = natural(a=1.0)
    mismatches = []
    for dt in (2e-3, 1e-3):
        grid = Grid(-20.0, 30.0, REFERENCE_FRAME_RUN["n_points"], dt=dt, n_steps=round(1.0 / dt))
        psi0 = gaussian_packet(grid, 8.0, 0.5)
        mismatches.append(frame_equivalence_test(psi0, system))
    ratio = mismatches[0] / mismatches[1]
    assert 3.0 <= ratio <= 5.0
