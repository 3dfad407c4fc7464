import cmath
import dataclasses
import math

import numpy as np
import pytest

from gravqm import (
    ComplexField,
    FrameTransform,
    Grid,
    InterferometerGeometry,
    NumericError,
    ParameterError,
    PhysicalSystem,
    PlaneWaveState,
    box_eigenvalues,
    cow_phase_shift,
    cow_phase_shift_time_route,
    energy_eigenvalue,
    falling_box_state,
    falling_box_window,
    frequency_shift,
    make_natural_system,
    momentum_eigenvalue,
    phase_s,
    plane_wave_stationary,
    to_stationary_frame,
)
from oracles import HBAR_SI, NEUTRON_MASS_KG, SPEED_OF_LIGHT, STANDARD_GRAVITY


def natural(v=0.0, a=0.0, g=None):
    g = a if g is None else g
    return dataclasses.replace(make_natural_system(1.0), v=v, a=a, g=g)


# ---------------------------------------------------------------- phase map


def test_phase_vanishes_without_motion():
    ft = FrameTransform(v=0.0, a=0.0, m_i=1.0, hbar=1.0)
    for z, t in [(0.0, 0.0), (3.0, 0.5), (-7.0, 2.0)]:
        assert phase_s(ft, z, t) == 0.0


def test_phase_reduces_to_boost_without_acceleration():
    ft = FrameTransform(v=0.7, a=0.0, m_i=1.3, hbar=0.9)
    for z, t in [(1.0, 0.2), (-2.0, 1.5)]:
        boost = -(ft.m_i * ft.v / ft.hbar) * (z - 0.5 * ft.v * t)
        assert phase_s(ft, z, t) == pytest.approx(boost, rel=1e-14)


def test_phase_generic_monomial_expansion():
    # independent term-by-term evaluation of the closed form
    m, hbar, v, a = 1.0, 1.0, 1.0, 2.0
    z, t = 3.0, 0.5
    ft = FrameTransform(v=v, a=a, m_i=m, hbar=hbar)
    expected = (
        -(m * v / hbar) * z
        + (m * v * v / (2.0 * hbar)) * t
        - (m * a / hbar) * t * z
        + (m * a * v / hbar) * t * t
        + (m * a * a / (3.0 * hbar)) * t**3
    )
    assert phase_s(ft, z, t) == pytest.approx(expected, rel=1e-14)


def test_map_is_identity_at_rest_and_t_zero():
    grid = Grid(-5.0, 5.0, 256)
    rng = np.random.default_rng(3)
    field = ComplexField(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
    ft = FrameTransform(v=0.0, a=1.0, m_i=1.0, hbar=1.0)
    out = to_stationary_frame(ft, field, 0.0)
    np.testing.assert_array_equal(out.values, field.values)
    ft2 = FrameTransform(v=0.0, a=0.0, m_i=1.0, hbar=1.0)
    out2 = to_stationary_frame(ft2, field, 0.7)
    np.testing.assert_array_equal(out2.values, field.values)


def test_map_preserves_modulus_to_rounding():
    grid = Grid(-8.0, 8.0, 512)
    rng = np.random.default_rng(5)
    field = ComplexField(grid, rng.normal(size=512) + 1j * rng.normal(size=512))
    ft = FrameTransform(v=0.4, a=1.7, m_i=2.0, hbar=0.5)
    out = to_stationary_frame(ft, field, 1.3)
    # unit-modulus factor: agreement limited only by complex multiply rounding
    assert float(np.max(np.abs(np.abs(out.values) - np.abs(field.values)))) <= 1e-14


def test_map_composition_up_to_constant_phase():
    # boost-only then acceleration-only equals the combined map up to a
    # z-independent phase (the arbitrary constant of the generating function)
    grid = Grid(-6.0, 6.0, 400)
    rng = np.random.default_rng(8)
    field = ComplexField(grid, rng.normal(size=400) + 1j * rng.normal(size=400))
    v, a, t = 0.6, 1.1, 0.9
    boost_only = FrameTransform(v=v, a=0.0, m_i=1.0, hbar=1.0)
    accel_only = FrameTransform(v=0.0, a=a, m_i=1.0, hbar=1.0)
    combined = FrameTransform(v=v, a=a, m_i=1.0, hbar=1.0)
    two_step = to_stationary_frame(accel_only, to_stationary_frame(boost_only, field, t), t)
    one_step = to_stationary_frame(combined, field, t)
    ratio = one_step.values / two_step.values
    angles = np.angle(ratio)
    # phase difference must be flat across the grid
    assert float(np.max(np.abs(angles - angles[0]))) <= 1e-9


def test_galilean_boost_contract():
    # the a = 0 map is the Galilean boost phase -(m_i*v/hbar)*(z + v*t/2)
    grid = Grid(-5.0, 5.0, 128)
    rng = np.random.default_rng(13)
    field = ComplexField(grid, rng.normal(size=128) + 1j * rng.normal(size=128))
    ft = FrameTransform(v=0.9, a=0.0, m_i=1.0, hbar=1.0)
    boosted = to_stationary_frame(ft, field, 0.4)
    explicit = field.values * np.exp(-1j * (ft.m_i * ft.v / ft.hbar) * (grid.z + 0.5 * ft.v * 0.4))
    np.testing.assert_allclose(boosted.values, explicit, rtol=0.0, atol=1e-12)
    ft0 = FrameTransform(v=0.0, a=0.0, m_i=1.0, hbar=1.0)
    np.testing.assert_array_equal(to_stationary_frame(ft0, field, 2.0).values, field.values)


# ------------------------------------------------------------- plane waves


def test_plane_wave_dispersion_invariant():
    s = natural()
    pw = PlaneWaveState.from_momentum(1.7, s)
    assert s.hbar * pw.omega_prime == pytest.approx(pw.p_prime**2 / (2.0 * s.m_i), rel=1e-12)


def test_plane_wave_at_rest():
    s = natural()
    pw = PlaneWaveState.from_momentum(0.0, s)
    assert pw.omega_prime == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda s: PlaneWaveState.from_momentum(1e200, s),  # p'^2 overflows
        # 2*m_i*hbar underflows to 0, and omega' = 1/(2*m_i*hbar) overflows
        lambda s: PlaneWaveState.from_momentum(
            1.0, dataclasses.replace(s, m_i=1e-200, hbar=1e-200)
        ),
    ],
    ids=["from-momentum", "from-momentum-frequency"],
)
def test_plane_wave_momentum_out_of_double_range(call):
    with pytest.raises(NumericError):
        call(natural())


def test_plane_wave_on_arrays_matches_scalar_calls():
    s = natural(v=0.3, a=1.0)
    ft = FrameTransform.from_system(s)
    pw = PlaneWaveState.from_momentum(1.2, s)
    rng = np.random.default_rng(23)
    z = rng.uniform(-3.0, 3.0, 16)
    t = rng.uniform(0.0, 2.0, 16)
    on_arrays = plane_wave_stationary(pw, ft, z, t)
    assert on_arrays.shape == (16,)
    scalar = [plane_wave_stationary(pw, ft, float(zz), float(tt)) for zz, tt in zip(z, t)]
    assert all(isinstance(value, complex) for value in scalar)
    np.testing.assert_allclose(on_arrays, scalar, rtol=0.0, atol=1e-15)


def test_momentum_eigenvalue_examples():
    s = natural(v=0.0, a=1.0)
    ft = FrameTransform.from_system(s)
    pw = PlaneWaveState.from_momentum(1.0, s)
    assert momentum_eigenvalue(pw, ft, 0.0) == pytest.approx(1.0)
    s2 = natural(v=0.2, a=1.0)
    ft2 = FrameTransform.from_system(s2)
    assert momentum_eigenvalue(pw, ft2, 0.3) == pytest.approx(0.5, rel=1e-14)


def test_momentum_eigenvalue_matches_log_derivative():
    s = natural(v=0.3, a=1.0)
    ft = FrameTransform.from_system(s)
    pw = PlaneWaveState.from_momentum(1.2, s)
    h = 1e-6
    rng = np.random.default_rng(17)
    for _ in range(5):
        z = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, 1.0))
        up = plane_wave_stationary(pw, ft, z + h, t)
        dn = plane_wave_stationary(pw, ft, z - h, t)
        mid = plane_wave_stationary(pw, ft, z, t)
        numeric = (-1j * ft.hbar * (up - dn) / (2.0 * h) / mid).real
        assert numeric == pytest.approx(momentum_eigenvalue(pw, ft, t), abs=1e-6)


def test_energy_eigenvalue_examples():
    s = natural(v=0.0, a=1.0)
    ft = FrameTransform.from_system(s)
    pw = PlaneWaveState.from_momentum(1.4, s)
    assert energy_eigenvalue(pw, ft, s, 0.0, 0.0) == pytest.approx(
        s.hbar * pw.omega_prime, rel=1e-14
    )
    # potential difference is exactly linear in separation
    for z in (0.5, 2.0, -3.0):
        diff = energy_eigenvalue(pw, ft, s, z, 0.7) - energy_eigenvalue(pw, ft, s, 0.0, 0.7)
        assert diff == pytest.approx(s.m_i * s.a * z, rel=1e-14)


def test_energy_eigenvalue_matches_time_derivative():
    s = natural(v=0.25, a=0.8)
    ft = FrameTransform.from_system(s)
    pw = PlaneWaveState.from_momentum(0.9, s)
    h = 1e-6
    z, t = 0.6, 0.4
    up = plane_wave_stationary(pw, ft, z, t + h)
    dn = plane_wave_stationary(pw, ft, z, t - h)
    mid = plane_wave_stationary(pw, ft, z, t)
    numeric = (1j * ft.hbar * (up - dn) / (2.0 * h) / mid).real
    assert numeric == pytest.approx(energy_eigenvalue(pw, ft, s, z, t), abs=1e-6)


# ----------------------------------------------------- frequency / redshift


def test_frequency_shift_examples():
    s = natural(a=1.0)
    assert frequency_shift(s, 0.0) == 0.0
    assert frequency_shift(s, 2.5) == pytest.approx(2.5, rel=1e-14)
    neutron = dataclasses.replace(
        make_natural_system(1.0),
        m_i=NEUTRON_MASS_KG, m_g=NEUTRON_MASS_KG, a=STANDARD_GRAVITY,
        g=STANDARD_GRAVITY, hbar=HBAR_SI,
    )
    # frozen from the constant-plugging oracle: m*g*z/hbar at z = 1 m
    assert frequency_shift(neutron, 1.0) == pytest.approx(1.5575447289e8, rel=1e-9)


def test_frequency_shift_time_independent_via_energy_difference():
    # the detector-frequency difference extracted from the energy eigenvalue
    # is the same at any time
    s = natural(v=0.2, a=1.3)
    ft = FrameTransform.from_system(s)
    pw = PlaneWaveState.from_momentum(0.8, s)
    z = 2.0
    extracted = []
    for t in (0.0, 1.7):
        diff = energy_eigenvalue(pw, ft, s, z, t) - energy_eigenvalue(pw, ft, s, 0.0, t)
        extracted.append(diff / s.hbar)
    assert extracted[0] == pytest.approx(extracted[1], rel=1e-12)
    assert extracted[0] == pytest.approx(frequency_shift(s, z), rel=1e-12)


def test_frequency_shift_effective_mass_gives_doppler_form():
    # substituting m -> hbar*omega'/c^2 turns the shift into omega'*a*z/c^2
    c = SPEED_OF_LIGHT
    omega_prime = 5.0e15
    a, z = STANDARD_GRAVITY, 10.0
    s = dataclasses.replace(
        make_natural_system(1.0),
        m_i=HBAR_SI * omega_prime / c**2,
        m_g=HBAR_SI * omega_prime / c**2,
        a=a, g=a, hbar=HBAR_SI,
    )
    assert frequency_shift(s, z) / omega_prime == pytest.approx(a * z / c**2, rel=1e-12)


# ---------------------------------------------------------------- phase shift


def test_cow_unit_cancellation():
    geom = InterferometerGeometry(wavelength=2.0 * math.pi, height=1.0, horizontal_length=1.0)
    s = natural(a=1.0)
    assert cow_phase_shift(geom, s) == pytest.approx(1.0, rel=1e-14)


def test_cow_routes_agree_on_random_geometries():
    rng = np.random.default_rng(42)
    for _ in range(10):
        geom = InterferometerGeometry(
            wavelength=float(rng.uniform(0.1, 5.0)),
            height=float(rng.uniform(0.1, 3.0)),
            horizontal_length=float(rng.uniform(0.1, 3.0)),
        )
        # both signs of a: the two routes must agree in sign as well
        s = dataclasses.replace(
            make_natural_system(float(rng.uniform(0.5, 2.0))),
            a=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)),
        )
        direct = cow_phase_shift(geom, s)
        via_time = cow_phase_shift_time_route(geom, s)
        assert via_time == pytest.approx(direct, rel=1e-12)


def test_cow_time_route_out_of_double_range():
    natural = make_natural_system(1.0)
    neutron = dataclasses.replace(natural, m_i=NEUTRON_MASS_KG, m_g=NEUTRON_MASS_KG, hbar=HBAR_SI)
    for system, wavelength in (
        (neutron, 5e-324),  # m_i*lambda underflows to 0
        (natural, 1e-320),  # v_h overflows
        (dataclasses.replace(natural, hbar=1e-300), 1e100),  # v_h underflows
    ):
        geom = InterferometerGeometry(wavelength=wavelength, height=1.0, horizontal_length=1.0)
        with pytest.raises(NumericError):
            cow_phase_shift_time_route(geom, system)


def test_cow_phase_out_of_double_range():
    geom = InterferometerGeometry(wavelength=1.0, height=1.0, horizontal_length=1.0)
    natural = dataclasses.replace(make_natural_system(1.0), g=1.0, a=1.0)
    for hbar in (1e-200, 1e200):  # 2*pi*hbar^2 under- and overflows
        with pytest.raises(NumericError):
            cow_phase_shift(geom, dataclasses.replace(natural, hbar=hbar))


def test_cow_phase_with_mass_out_of_double_range():
    geom = InterferometerGeometry(wavelength=1.0, height=1.0, horizontal_length=1.0)
    with pytest.raises(NumericError):  # m_i^2 overflows
        cow_phase_shift(geom, PhysicalSystem(m_i=1e200, m_g=1.0, g=1.0, a=1.0))


def test_cow_neutron_si():
    geom = InterferometerGeometry(wavelength=1.419e-10, height=1.0e-3 / 2.0e-2, horizontal_length=2.0e-2)
    s = dataclasses.replace(
        make_natural_system(1.0),
        m_i=NEUTRON_MASS_KG, m_g=NEUTRON_MASS_KG, a=STANDARD_GRAVITY,
        g=STANDARD_GRAVITY, hbar=HBAR_SI,
    )
    assert geom.area == pytest.approx(1.0e-3, rel=1e-12)
    # frozen from the constant-plugging oracle: m^2 g lambda A/(2 pi hbar^2)
    assert cow_phase_shift(geom, s) == pytest.approx(55.867971938, rel=1e-9)


def test_geometry_validation():
    with pytest.raises(ParameterError):
        InterferometerGeometry(wavelength=0.0, height=1.0, horizontal_length=1.0)
    geom = InterferometerGeometry(wavelength=1.0, height=2.0, horizontal_length=3.0)
    assert geom.area == pytest.approx(6.0, rel=1e-12)


# ---------------------------------------------------------------- falling box


def test_falling_box_reduces_to_static_box():
    s = natural()
    ft = FrameTransform.from_system(s)
    n, box = 2, 1.5
    e_free = (n * math.pi * s.hbar / box) ** 2 / (2.0 * s.m_i)
    for z, t in [(0.3, 0.0), (0.7, 0.8), (1.1, 2.0)]:
        expected = (
            math.sqrt(2.0 / box)
            * math.sin(n * math.pi * z / box)
            * cmath.exp(-1j * e_free * t / s.hbar)
        )
        assert falling_box_state(n, box, ft, s, z, t) == pytest.approx(expected, rel=1e-12)


def test_falling_box_density_translates():
    s = natural(v=0.4, a=1.0)
    ft = FrameTransform.from_system(s)
    n, box, t = 3, 2.0, 0.6
    shift = s.v * t + 0.5 * s.a * t * t
    lo, hi = falling_box_window(n, box, ft, t)
    assert lo == pytest.approx(-shift)
    assert hi == pytest.approx(box - shift)
    # nodes sit at k*L/n - shift
    for k in range(n + 1):
        node = k * box / n - shift
        assert abs(falling_box_state(n, box, ft, s, node, t)) <= 1e-12
    # sin^2 profile translated by the shift
    for z in np.linspace(lo + 0.05, hi - 0.05, 7):
        density = abs(falling_box_state(n, box, ft, s, float(z), t)) ** 2
        expected = (2.0 / box) * math.sin(n * math.pi * (z + shift) / box) ** 2
        assert density == pytest.approx(expected, rel=1e-12, abs=1e-13)
    # outside the window the state vanishes identically
    assert falling_box_state(n, box, ft, s, lo - 0.01, t) == 0.0
    assert falling_box_state(n, box, ft, s, hi + 0.01, t) == 0.0


def _box_call(box_length, hbar):
    s = dataclasses.replace(natural(), hbar=hbar)
    ft = FrameTransform.from_system(s)
    return lambda: falling_box_state(1, box_length, ft, s, 0.5 * box_length, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        _box_call(1.0, 1e200),  # (n*pi*hbar/L)^2 overflows
        _box_call(1e-200, 1.0),
        lambda: phase_s(FrameTransform(v=0.0, a=1.0, m_i=1.0, hbar=1.0), 0.0, 1e200),  # t'^2
        lambda: phase_s(
            FrameTransform(v=0.0, a=1.0, m_i=1.0, hbar=1.0), np.zeros(3), np.array([0.0, 1e200, 1.0])
        ),
    ],
    ids=["box-hbar", "box-length", "phase-time", "phase-time-array"],
)
def test_frame_squares_out_of_double_range(call):
    with pytest.raises(NumericError):
        call()


def _plane_wave_call(z, t):
    s = natural(v=0.3, a=1.0)
    pw = PlaneWaveState.from_momentum(1.2, s)
    return lambda: plane_wave_stationary(pw, FrameTransform.from_system(s), z, t)


@pytest.mark.parametrize(
    "call",
    [
        _plane_wave_call(0.0, 1e110),  # a*t^3 leaves double range
        _plane_wave_call(np.zeros(3), np.array([0.0, 1e110, 1.0])),
        _plane_wave_call(1e300, 1e10),  # a*t*z'
        # v = a = 0, so S = 0: the free phase E_box*t/hbar = 5e200 * 1e108 overflows
        lambda: falling_box_state(1, 1e-100, FrameTransform.from_system(natural()), natural(),
                                  0.5e-100, 1e108),
        # n*pi*hbar/L overflows, and so does its square
        lambda: box_eigenvalues(1, 1e-320, FrameTransform.from_system(natural()), natural(),
                                0.0, 0.0),
        # p(t) = p' - m_i*v = -1e200 squares past double range
        lambda: box_eigenvalues(1, 1.0, FrameTransform.from_system(natural(v=1e200)),
                                natural(v=1e200), 0.0, 0.0),
    ],
    ids=["plane-wave-time", "plane-wave-time-array", "plane-wave-height", "box-free-phase",
         "box-eigenvalues-length", "box-energy-drift"],
)
def test_stationary_states_out_of_double_range(call):
    with pytest.raises(NumericError):
        call()



def _free_frame():
    s = natural(v=0.3, a=1.0)
    return s, FrameTransform.from_system(s), PlaneWaveState.from_momentum(1.2, s)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PlaneWaveState(10**400, 0.0),
        lambda: PlaneWaveState(math.nan, 0.0),
        lambda: PlaneWaveState(1.0, math.inf),
        lambda: momentum_eigenvalue(PlaneWaveState(10**400, 0.0), _free_frame()[1], 0.0),
        lambda: plane_wave_stationary(_free_frame()[2], _free_frame()[1], 10**400, 0.0),
        lambda: plane_wave_stationary(_free_frame()[2], _free_frame()[1], 0.0, math.nan),
        lambda: phase_s(_free_frame()[1], math.nan, 0.0),
        lambda: phase_s(_free_frame()[1], 0.0, -(10**400)),
        lambda: to_stationary_frame(
            _free_frame()[1], ComplexField(Grid(-1.0, 1.0, 5), np.ones(5)), 10**400
        ),
        lambda: falling_box_state(1, 1.0, _free_frame()[1], _free_frame()[0], math.nan, 0.0),
        lambda: falling_box_state(1, 1.0, _free_frame()[1], _free_frame()[0], 0.5, 10**400),
    ],
    ids=["wave-huge-int", "wave-nan", "wave-omega-inf", "momentum-huge-int", "plane-wave-z",
         "plane-wave-t-nan", "phase-z-nan", "phase-t-huge-int", "to-stationary-t", "box-z-nan",
         "box-t-huge-int"],
)
def test_non_finite_scalars_are_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def test_plane_wave_state_stores_floats():
    # an int p' squares as a float, whose overflow is a NumericError, not as
    # an exact int whose quotient by 2*m_i raises OverflowError
    _, ft, _ = _free_frame()
    pw = PlaneWaveState(10**300, 0)
    assert type(pw.p_prime) is float and type(pw.omega_prime) is float
    with pytest.raises(NumericError, match="p_prime"):
        plane_wave_stationary(pw, ft, 1.0, 1.0)

def test_box_eigenvalue_examples():
    s = natural()
    ft = FrameTransform.from_system(s)
    n, box = 2, 1.0
    p, e = box_eigenvalues(n, box, ft, s, 0.0, 0.0)
    assert p == pytest.approx(n * math.pi * s.hbar / box, rel=1e-14)
    assert e == pytest.approx(p * p / (2.0 * s.m_i), rel=1e-14)


def test_box_energy_linear_in_height():
    s = natural(v=0.2, a=0.9)
    ft = FrameTransform.from_system(s)
    for z in (0.4, 1.7):
        _, e_z = box_eigenvalues(2, 1.2, ft, s, z, 0.5)
        _, e_0 = box_eigenvalues(2, 1.2, ft, s, 0.0, 0.5)
        assert e_z - e_0 == pytest.approx(s.m_i * s.a * z, rel=1e-13)


def test_box_momentum_pieces_from_finite_differences():
    # p_n(t) = n*pi*hbar/L - m*(v + a*t) decomposes into the standing-wave
    # wavenumber and the frame drift.  The drift is the phase gradient at an
    # antinode (where the amplitude gradient vanishes); the wavenumber is
    # fixed by the node spacing L/n checked in the density test above.
    s = natural(v=0.3, a=0.8)
    ft = FrameTransform.from_system(s)
    n, box, t = 2, 2.0, 0.4
    lo, _ = falling_box_window(n, box, ft, t)
    z0 = lo + box / (2.0 * n)  # first antinode of the translated sine
    h = 1e-6
    up = falling_box_state(n, box, ft, s, z0 + h, t)
    dn = falling_box_state(n, box, ft, s, z0 - h, t)
    mid = falling_box_state(n, box, ft, s, z0, t)
    numeric_drift = (-1j * s.hbar * (up - dn) / (2.0 * h) / mid).real
    p, _ = box_eigenvalues(n, box, ft, s, z0, t)
    standing = n * math.pi * s.hbar / box
    assert numeric_drift == pytest.approx(p - standing, abs=1e-6)
    assert p == pytest.approx(standing - s.m_i * (s.v + s.a * t), rel=1e-13)


def test_box_validation():
    s = natural()
    ft = FrameTransform.from_system(s)
    with pytest.raises(ParameterError):
        falling_box_state(0, 1.0, ft, s, 0.5, 0.0)
    with pytest.raises(ParameterError):
        falling_box_state(1, -1.0, ft, s, 0.5, 0.0)
    with pytest.raises(ParameterError):
        box_eigenvalues(1, 0.0, ft, s, 0.5, 0.0)


# ------------------------------------------------------------- error contract

_REST = FrameTransform(v=0.0, a=0.0, m_i=1.0, hbar=1.0)
_FALLING = FrameTransform(v=0.0, a=1.0, m_i=1.0, hbar=1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: FrameTransform(v=10**400, a=0.0, m_i=1.0, hbar=1.0),
        lambda: InterferometerGeometry(10**400, 1.0, 1.0),
        lambda: frequency_shift(natural(a=1.0), 10**400),
        lambda: falling_box_window(1, 10**400, _REST, 0.0),
        lambda: falling_box_window(1, 1.0, _REST, 10**400),
        lambda: momentum_eigenvalue(PlaneWaveState.from_momentum(1.0, natural()), _REST, 10**400),
        lambda: PlaneWaveState.from_momentum(10**400, natural()),
    ],
    ids=["transform", "geometry", "frequency-shift", "box-length", "window-time",
         "momentum-time", "plane-wave-momentum"],
)
def test_int_beyond_double_range_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="beyond double range"):
        call()


def test_window_rejects_non_finite_time():
    for t in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="t must be finite"):
            falling_box_window(1, 1.0, _REST, t)


def test_numpy_integer_box_level_is_accepted():
    assert falling_box_window(np.int64(1), 1.0, _FALLING, 0.5) == falling_box_window(
        1, 1.0, _FALLING, 0.5
    )
    with pytest.raises(ParameterError):
        falling_box_window(True, 1.0, _REST, 0.0)


def _tiny_hbar_box():
    s = dataclasses.replace(natural(), hbar=1e-30)
    # p' = pi*hbar/L = 3e-330 underflows to 0
    return box_eigenvalues(1, 1e300, FrameTransform.from_system(s), s, 0.0, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: frequency_shift(PhysicalSystem(m_i=1e300, m_g=1.0, a=1e300), 1.0),
        lambda: cow_phase_shift(InterferometerGeometry(1e300, 1e300, 1.0), natural(a=1.0)),
        lambda: cow_phase_shift_time_route(
            InterferometerGeometry(1e300, 1e300, 1.0), natural(a=1.0)
        ),
        lambda: momentum_eigenvalue(
            PlaneWaveState.from_momentum(1.0, natural()), FrameTransform(1e300, 1e300, 1e10, 1.0),
            1.0,
        ),
        lambda: falling_box_window(1, 1.0, _FALLING, 1e200),
        lambda: falling_box_state(1, 1.0, _FALLING, natural(), 0.0, 1e200),
        _tiny_hbar_box,
    ],
    ids=["frequency-shift", "cow-phase", "cow-time-route", "momentum", "window", "box-state",
         "box-momentum-underflow"],
)
def test_results_out_of_double_range_raise(call):
    with pytest.raises(NumericError):
        call()
