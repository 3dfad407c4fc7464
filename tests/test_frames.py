import cmath
import dataclasses
import hashlib
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
    s = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=0.0, hbar=1.0)
    for z, t in [(0.0, 0.0), (3.0, 0.5), (-7.0, 2.0)]:
        assert phase_s(s, z, t) == 0.0


def test_phase_reduces_to_boost_without_acceleration():
    s = PhysicalSystem(m_i=1.3, m_g=1.3, v=0.7, a=0.0, hbar=0.9)
    for z, t in [(1.0, 0.2), (-2.0, 1.5)]:
        boost = -(s.m_i * s.v / s.hbar) * (z - 0.5 * s.v * t)
        assert phase_s(s, z, t) == pytest.approx(boost, rel=1e-14)


def test_phase_generic_monomial_expansion():
    # independent term-by-term evaluation of the closed form
    m, hbar, v, a = 1.0, 1.0, 1.0, 2.0
    z, t = 3.0, 0.5
    s = PhysicalSystem(m_i=m, m_g=m, v=v, a=a, hbar=hbar)
    expected = (
        -(m * v / hbar) * z
        + (m * v * v / (2.0 * hbar)) * t
        - (m * a / hbar) * t * z
        + (m * a * v / hbar) * t * t
        + (m * a * a / (3.0 * hbar)) * t**3
    )
    assert phase_s(s, z, t) == pytest.approx(expected, rel=1e-14)


def test_map_is_identity_at_rest_and_t_zero():
    grid = Grid(-5.0, 5.0, 256)
    rng = np.random.default_rng(3)
    field = ComplexField(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
    s = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=1.0, hbar=1.0)
    out = to_stationary_frame(s, field, 0.0)
    np.testing.assert_array_equal(out.values, field.values)
    s2 = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=0.0, hbar=1.0)
    out2 = to_stationary_frame(s2, field, 0.7)
    np.testing.assert_array_equal(out2.values, field.values)


def test_map_preserves_modulus_to_rounding():
    grid = Grid(-8.0, 8.0, 512)
    rng = np.random.default_rng(5)
    field = ComplexField(grid, rng.normal(size=512) + 1j * rng.normal(size=512))
    s = PhysicalSystem(m_i=2.0, m_g=2.0, v=0.4, a=1.7, hbar=0.5)
    out = to_stationary_frame(s, field, 1.3)
    # unit-modulus factor: agreement limited only by complex multiply rounding
    assert float(np.max(np.abs(np.abs(out.values) - np.abs(field.values)))) <= 1e-14


def test_map_composition_up_to_constant_phase():
    # boost-only then acceleration-only equals the combined map up to a
    # z-independent phase (the arbitrary constant of the generating function)
    grid = Grid(-6.0, 6.0, 400)
    rng = np.random.default_rng(8)
    field = ComplexField(grid, rng.normal(size=400) + 1j * rng.normal(size=400))
    v, a, t = 0.6, 1.1, 0.9
    boost_only = PhysicalSystem(m_i=1.0, m_g=1.0, v=v, a=0.0, hbar=1.0)
    accel_only = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=a, hbar=1.0)
    combined = PhysicalSystem(m_i=1.0, m_g=1.0, v=v, a=a, hbar=1.0)
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
    s = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.9, a=0.0, hbar=1.0)
    boosted = to_stationary_frame(s, field, 0.4)
    explicit = field.values * np.exp(-1j * (s.m_i * s.v / s.hbar) * (grid.z + 0.5 * s.v * 0.4))
    np.testing.assert_allclose(boosted.values, explicit, rtol=0.0, atol=1e-12)
    s0 = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=0.0, hbar=1.0)
    np.testing.assert_array_equal(to_stationary_frame(s0, field, 2.0).values, field.values)


# ------------------------------------------------------------- plane waves


@pytest.mark.parametrize(
    "call",
    [
        lambda s: energy_eigenvalue(1e200, s, 0.0, 0.0),  # p'^2
        # the free phase p'^2*t/(2*m_i*hbar) = 5e399 at t = 1 overflows
        lambda s: plane_wave_stationary(
            1.0, dataclasses.replace(s, m_i=1e-200, hbar=1e-200),
            0.0, 1.0,
        ),
    ],
    ids=["from-momentum", "from-momentum-frequency"],
)
def test_plane_wave_momentum_out_of_double_range(call):
    with pytest.raises(NumericError):
        call(natural())


def test_plane_wave_on_arrays_matches_scalar_calls():
    s = natural(v=0.3, a=1.0)
    rng = np.random.default_rng(23)
    z = rng.uniform(-3.0, 3.0, 16)
    t = rng.uniform(0.0, 2.0, 16)
    on_arrays = plane_wave_stationary(1.2, s, z, t)
    assert on_arrays.shape == (16,)
    scalar = [plane_wave_stationary(1.2, s, float(zz), float(tt)) for zz, tt in zip(z, t)]
    assert all(isinstance(value, complex) for value in scalar)
    np.testing.assert_allclose(on_arrays, scalar, rtol=0.0, atol=1e-15)


def test_momentum_eigenvalue_examples():
    s = natural(v=0.0, a=1.0)
    assert momentum_eigenvalue(1.0, s, 0.0) == pytest.approx(1.0)
    s2 = natural(v=0.2, a=1.0)
    assert momentum_eigenvalue(1.0, s2, 0.3) == pytest.approx(0.5, rel=1e-14)


def test_momentum_eigenvalue_matches_log_derivative():
    s = natural(v=0.3, a=1.0)
    h = 1e-6
    rng = np.random.default_rng(17)
    for _ in range(5):
        z = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, 1.0))
        up = plane_wave_stationary(1.2, s, z + h, t)
        dn = plane_wave_stationary(1.2, s, z - h, t)
        mid = plane_wave_stationary(1.2, s, z, t)
        numeric = (-1j * s.hbar * (up - dn) / (2.0 * h) / mid).real
        assert numeric == pytest.approx(momentum_eigenvalue(1.2, s, t), abs=1e-6)


def test_energy_eigenvalue_examples():
    s = natural(v=0.0, a=1.0)
    assert energy_eigenvalue(1.4, s, 0.0, 0.0) == pytest.approx(1.4**2 / (2.0 * s.m_i), rel=1e-14)
    # potential difference is exactly linear in separation
    for z in (0.5, 2.0, -3.0):
        diff = energy_eigenvalue(1.4, s, z, 0.7) - energy_eigenvalue(1.4, s, 0.0, 0.7)
        assert diff == pytest.approx(s.m_i * s.a * z, rel=1e-14)


def test_energy_eigenvalue_matches_time_derivative():
    s = natural(v=0.25, a=0.8)
    h = 1e-6
    z, t = 0.6, 0.4
    up = plane_wave_stationary(0.9, s, z, t + h)
    dn = plane_wave_stationary(0.9, s, z, t - h)
    mid = plane_wave_stationary(0.9, s, z, t)
    numeric = (1j * s.hbar * (up - dn) / (2.0 * h) / mid).real
    assert numeric == pytest.approx(energy_eigenvalue(0.9, s, z, t), abs=1e-6)


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
    z = 2.0
    extracted = []
    for t in (0.0, 1.7):
        diff = energy_eigenvalue(0.8, s, z, t) - energy_eigenvalue(0.8, s, 0.0, t)
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
    n, box = 2, 1.5
    e_free = (n * math.pi * s.hbar / box) ** 2 / (2.0 * s.m_i)
    for z, t in [(0.3, 0.0), (0.7, 0.8), (1.1, 2.0)]:
        expected = (
            math.sqrt(2.0 / box)
            * math.sin(n * math.pi * z / box)
            * cmath.exp(-1j * e_free * t / s.hbar)
        )
        assert falling_box_state(n, box, s, s, z, t) == pytest.approx(expected, rel=1e-12)


def test_falling_box_density_translates():
    s = natural(v=0.4, a=1.0)
    n, box, t = 3, 2.0, 0.6
    shift = s.v * t + 0.5 * s.a * t * t
    lo, hi = falling_box_window(n, box, s, t)
    assert lo == pytest.approx(-shift)
    assert hi == pytest.approx(box - shift)
    # nodes sit at k*L/n - shift
    for k in range(n + 1):
        node = k * box / n - shift
        assert abs(falling_box_state(n, box, s, s, node, t)) <= 1e-12
    # sin^2 profile translated by the shift
    for z in np.linspace(lo + 0.05, hi - 0.05, 7):
        density = abs(falling_box_state(n, box, s, s, float(z), t)) ** 2
        expected = (2.0 / box) * math.sin(n * math.pi * (z + shift) / box) ** 2
        assert density == pytest.approx(expected, rel=1e-12, abs=1e-13)
    # outside the window the state vanishes identically
    assert falling_box_state(n, box, s, s, lo - 0.01, t) == 0.0
    assert falling_box_state(n, box, s, s, hi + 0.01, t) == 0.0


def _box_call(box_length, hbar):
    s = dataclasses.replace(natural(), hbar=hbar)
    return lambda: falling_box_state(1, box_length, s, s, 0.5 * box_length, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        _box_call(1.0, 1e200),  # (n*pi*hbar/L)^2 overflows
        _box_call(1e-200, 1.0),
        lambda: phase_s(
            PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=1.0, hbar=1.0), 0.0, 1e200
        ),  # t'^2
        lambda: phase_s(
            PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=1.0, hbar=1.0),
            np.zeros(3), np.array([0.0, 1e200, 1.0]),
        ),
    ],
    ids=["box-hbar", "box-length", "phase-time", "phase-time-array"],
)
def test_frame_squares_out_of_double_range(call):
    with pytest.raises(NumericError):
        call()


def _plane_wave_call(z, t):
    return lambda: plane_wave_stationary(1.2, _free_system(), z, t)


@pytest.mark.parametrize(
    "call",
    [
        _plane_wave_call(0.0, 1e110),  # a*t^3 leaves double range
        _plane_wave_call(np.zeros(3), np.array([0.0, 1e110, 1.0])),
        _plane_wave_call(1e300, 1e10),  # a*t*z'
        # v = a = 0, so S = 0: the free phase E_box*t/hbar = 5e200 * 1e108 overflows
        lambda: falling_box_state(1, 1e-100, natural(), natural(), 0.5e-100, 1e108),
        # n*pi*hbar/L overflows, and so does its square
        lambda: box_eigenvalues(1, 1e-320, natural(), 0.0, 0.0),
        # p(t) = p' - m_i*v = -1e200 squares past double range
        lambda: box_eigenvalues(1, 1.0, natural(v=1e200), 0.0, 0.0),
    ],
    ids=["plane-wave-time", "plane-wave-time-array", "plane-wave-height", "box-free-phase",
         "box-eigenvalues-length", "box-energy-drift"],
)
def test_stationary_states_out_of_double_range(call):
    with pytest.raises(NumericError):
        call()



def _free_system():
    return natural(v=0.3, a=1.0)


def _wave_calls(p_prime):
    """Both plane-wave entry points with this p': each must raise ParameterError."""
    def call():
        s = _free_system()
        with pytest.raises(ParameterError, match="p_prime"):
            momentum_eigenvalue(p_prime, s, 0.0)
        plane_wave_stationary(p_prime, s, 0.0, 0.0)
    return call


@pytest.mark.parametrize(
    "call",
    [
        _wave_calls(10**400),
        _wave_calls(math.nan),
        lambda: momentum_eigenvalue(10**400, _free_system(), 0.0),
        lambda: plane_wave_stationary(1.2, _free_system(), 10**400, 0.0),
        lambda: plane_wave_stationary(1.2, _free_system(), 0.0, math.nan),
        lambda: phase_s(_free_system(), math.nan, 0.0),
        lambda: phase_s(_free_system(), 0.0, -(10**400)),
        lambda: to_stationary_frame(
            _free_system(), ComplexField(Grid(-1.0, 1.0, 5), np.ones(5)), 10**400
        ),
        lambda: falling_box_state(1, 1.0, _free_system(), _free_system(), math.nan, 0.0),
        lambda: falling_box_state(1, 1.0, _free_system(), _free_system(), 0.5, 10**400),
    ],
    ids=["wave-huge-int", "wave-nan", "momentum-huge-int", "plane-wave-z",
         "plane-wave-t-nan", "phase-z-nan", "phase-t-huge-int", "to-stationary-t", "box-z-nan",
         "box-t-huge-int"],
)
def test_non_finite_scalars_are_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def test_plane_wave_state_stores_floats():
    # an int p' squares as a float, whose overflow is a NumericError, not as
    # an exact int whose quotient by 2*m_i raises OverflowError
    with pytest.raises(NumericError, match="p_prime"):
        plane_wave_stationary(10**300, _free_system(), 1.0, 1.0)

def test_box_eigenvalue_examples():
    s = natural()
    n, box = 2, 1.0
    p, e = box_eigenvalues(n, box, s, 0.0, 0.0)
    assert p == pytest.approx(n * math.pi * s.hbar / box, rel=1e-14)
    assert e == pytest.approx(p * p / (2.0 * s.m_i), rel=1e-14)


def test_box_energy_linear_in_height():
    s = natural(v=0.2, a=0.9)
    for z in (0.4, 1.7):
        _, e_z = box_eigenvalues(2, 1.2, s, z, 0.5)
        _, e_0 = box_eigenvalues(2, 1.2, s, 0.0, 0.5)
        assert e_z - e_0 == pytest.approx(s.m_i * s.a * z, rel=1e-13)


def test_box_momentum_pieces_from_finite_differences():
    # p_n(t) = n*pi*hbar/L - m*(v + a*t) decomposes into the standing-wave
    # wavenumber and the frame drift.  The drift is the phase gradient at an
    # antinode (where the amplitude gradient vanishes); the wavenumber is
    # fixed by the node spacing L/n checked in the density test above.
    s = natural(v=0.3, a=0.8)
    n, box, t = 2, 2.0, 0.4
    lo, _ = falling_box_window(n, box, s, t)
    z0 = lo + box / (2.0 * n)  # first antinode of the translated sine
    h = 1e-6
    up = falling_box_state(n, box, s, s, z0 + h, t)
    dn = falling_box_state(n, box, s, s, z0 - h, t)
    mid = falling_box_state(n, box, s, s, z0, t)
    numeric_drift = (-1j * s.hbar * (up - dn) / (2.0 * h) / mid).real
    p, _ = box_eigenvalues(n, box, s, z0, t)
    standing = n * math.pi * s.hbar / box
    assert numeric_drift == pytest.approx(p - standing, abs=1e-6)
    assert p == pytest.approx(standing - s.m_i * (s.v + s.a * t), rel=1e-13)


def test_box_validation():
    s = natural()
    with pytest.raises(ParameterError):
        falling_box_state(0, 1.0, s, s, 0.5, 0.0)
    with pytest.raises(ParameterError):
        falling_box_state(1, -1.0, s, s, 0.5, 0.0)
    with pytest.raises(ParameterError):
        box_eigenvalues(1, 0.0, s, 0.5, 0.0)


@pytest.mark.parametrize("field", ["m_i", "hbar"])
def test_falling_box_state_refuses_a_system_unlike_its_transform(field):
    s = natural(v=0.3, a=0.8)
    with pytest.raises(ParameterError, match="disagree"):
        falling_box_state(1, 1.0, s, dataclasses.replace(s, **{field: 2.0}), 0.5, 0.0)


# ------------------------------------------------------------- error contract

_REST = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=0.0, hbar=1.0)
_FALLING = PhysicalSystem(m_i=1.0, m_g=1.0, v=0.0, a=1.0, hbar=1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PhysicalSystem(m_i=1.0, m_g=1.0, v=10**400, a=0.0, hbar=1.0),
        lambda: InterferometerGeometry(10**400, 1.0, 1.0),
        lambda: frequency_shift(natural(a=1.0), 10**400),
        lambda: falling_box_window(1, 10**400, _REST, 0.0),
        lambda: falling_box_window(1, 1.0, _REST, 10**400),
        lambda: momentum_eigenvalue(1.0, _REST, 10**400),
        lambda: energy_eigenvalue(10**400, _REST, 0.0, 0.0),
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
    return box_eigenvalues(1, 1e300, s, 0.0, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: frequency_shift(PhysicalSystem(m_i=1e300, m_g=1.0, a=1e300), 1.0),
        lambda: cow_phase_shift(InterferometerGeometry(1e300, 1e300, 1.0), natural(a=1.0)),
        lambda: cow_phase_shift_time_route(
            InterferometerGeometry(1e300, 1e300, 1.0), natural(a=1.0)
        ),
        lambda: momentum_eigenvalue(
            1.0, PhysicalSystem(m_i=1e10, m_g=1e10, v=1e300, a=1e300, hbar=1.0), 1.0
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


# ------------------------------------------------------------- golden values

# m_g*g = 1.4 differs from m_i*a = 2.21: the map never reads the field
_GOLDEN_SYSTEM = PhysicalSystem(m_i=1.3, m_g=0.7, g=2.0, v=0.4, a=1.7, hbar=0.9)


def _frame_values(frame, system):
    """Every frame function at fixed arguments, each result as a numpy array.

    n = 2, L = 1.5 and t = 0.6 put the box window at [-0.546, 0.954]: z = 0.3
    lies inside it and z = 1.2 outside.
    """
    grid = Grid(-4.0, 4.0, 64)
    field = ComplexField(grid, (1.0 + 0.5j * grid.z) / (1.0 + grid.z * grid.z))
    n, box, t = 2, 1.5, 0.6
    values = {
        "phase_s": phase_s(frame, 0.3, t),
        "phase_s-array": phase_s(frame, np.array([-1.0, 0.0, 2.5]), np.array([0.0, 0.6, 1.1])),
        "to_stationary_frame": to_stationary_frame(frame, field, t).values,
        "plane_wave_stationary": plane_wave_stationary(1.2, frame, 0.3, t),
        "momentum_eigenvalue": momentum_eigenvalue(1.2, frame, t),
        "energy_eigenvalue": energy_eigenvalue(1.2, frame, 0.3, t),
        "falling_box_window": falling_box_window(n, box, frame, t),
        "falling_box_state-inside": falling_box_state(n, box, frame, system, 0.3, t),
        "falling_box_state-outside": falling_box_state(n, box, frame, system, 1.2, t),
        "box_eigenvalues": box_eigenvalues(n, box, frame, 0.3, t),
    }
    return {name: np.asarray(value) for name, value in values.items()}


def _golden_form(value):
    """A result as Python numbers, or the sha256 of its bytes past 4 entries."""
    return hashlib.sha256(value.tobytes()).hexdigest() if value.size > 4 else value.tolist()


_GOLDEN = {
    "phase_s": 0.10815999999999995,
    "phase_s-array": [0.5777777777777778, 0.7234933333333332, -5.02956037037037],
    "to_stationary_frame": "37064836d1b8fe245077df7483a4a90499e41a721949e174cb004a1778bd1c96",
    "plane_wave_stationary": 0.9681714986081148 - 0.2502877329852925j,
    "momentum_eigenvalue": -0.6459999999999999,
    "energy_eigenvalue": 0.8235061538461537,
    "falling_box_window": [-0.546, 0.954],
    "falling_box_state-inside": 0.025511149266914744 - 0.4511987485811672j,
    "falling_box_state-outside": 0j,
    "box_eigenvalues": [1.9239111843077519, 2.086628555809406],
}


@pytest.mark.parametrize(
    "frame_of", [FrameTransform.from_system, lambda s: s], ids=["from-system", "system"]
)
def test_frame_functions_golden_values(frame_of):
    # exact to the bit: which object carries v, a, m_i and hbar must not touch the arithmetic
    values = _frame_values(frame_of(_GOLDEN_SYSTEM), _GOLDEN_SYSTEM)
    assert {name: _golden_form(value) for name, value in values.items()} == _GOLDEN


def test_frame_map_reads_only_v_a_m_i_and_hbar():
    def bits(system):
        return {name: value.tobytes() for name, value in _frame_values(system, system).items()}

    assert bits(dataclasses.replace(_GOLDEN_SYSTEM, m_g=2.9, g=-0.3)) == bits(_GOLDEN_SYSTEM)


def test_from_system_returns_the_system():
    assert FrameTransform.from_system(_GOLDEN_SYSTEM) is _GOLDEN_SYSTEM

