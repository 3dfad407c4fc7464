import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from gravqm import (
    NumericError,
    ParameterError,
    PhysicalSystem,
    airy_ai,
    airy_ai_prime,
    alpha,
    eigenfunction,
    energy_scale,
    level,
    make_natural_system,
    probability_outside,
    stationary_state,
)
from oracles import EV_IN_JOULE, HBAR_SI, NEUTRON_MASS_KG, STANDARD_GRAVITY

# Dimensionless levels and tail probabilities (percent) as tabulated.
TABLE_E_TILDE = [2.3381, 4.0879, 5.5206, 6.7867, 7.9441, 9.0227]
TABLE_PERCENT = [13.62, 10.39, 8.95, 8.07, 7.46, 7.01, 6.64, 6.34, 6.09, 5.88]


def unit_scale_system() -> PhysicalSystem:
    # m = 0.5, g = 2 gives F = 1 and unit energy scale (hbar^2 F^2/2m)^(1/3) = 1
    return dataclasses.replace(make_natural_system(0.5), g=2.0)


def neutron_system() -> PhysicalSystem:
    return PhysicalSystem(
        m_i=NEUTRON_MASS_KG, m_g=NEUTRON_MASS_KG, g=STANDARD_GRAVITY, hbar=HBAR_SI
    )


def test_alpha_unit_cancellation():
    assert alpha(unit_scale_system()) == pytest.approx(1.0, rel=1e-14)


def test_alpha_direct_arithmetic():
    s = dataclasses.replace(make_natural_system(1.0), g=1.0)
    assert alpha(s) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)


def test_alpha_neutron_si():
    # frozen from the independent constant-plugging oracle script
    assert alpha(neutron_system()) == pytest.approx(1.7039759401e5, rel=1e-9)


def test_alpha_rejects_zero_field():
    with pytest.raises(ParameterError):
        alpha(make_natural_system(1.0))


def test_levels_match_table():
    s = unit_scale_system()
    for n, expected in enumerate(TABLE_E_TILDE, start=1):
        lv = level(s, n)
        assert lv.e_tilde == pytest.approx(expected, abs=1e-4)
        # unit energy scale: physical energy equals the dimensionless one
        assert lv.energy == pytest.approx(lv.e_tilde, rel=1e-12)


def test_level_energy_scaling():
    s = dataclasses.replace(make_natural_system(1.0), g=1.0)
    scale = (1.0 / 2.0) ** (1.0 / 3.0)
    lv = level(s, 4)
    assert lv.energy == pytest.approx(6.7867 * scale, abs=1e-4 * scale)


def test_probabilities_match_table():
    for n, expected_percent in enumerate(TABLE_PERCENT, start=1):
        assert 100.0 * probability_outside(n) == pytest.approx(
            expected_percent, abs=0.05
        )


def test_probabilities_decrease():
    values = [probability_outside(n) for n in range(1, 12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < p < 1.0 for p in values)


def test_level_fields_consistent():
    # one quotient of the two tails on both routes, so they agree bit for bit
    s = unit_scale_system()
    for n in range(1, 51):
        lv = level(s, n)
        assert lv.p_outside == probability_outside(n)
        assert lv.norm_const > 0.0


def test_eigenfunction_boundary_and_wall():
    lv = level(unit_scale_system(), 2)
    assert eigenfunction(lv, 0.0) == pytest.approx(0.0, abs=1e-7)
    assert eigenfunction(lv, -0.5) == 0.0


def test_eigenfunction_normalization_by_quadrature():
    s = unit_scale_system()
    for n in (1, 3, 6):
        lv = level(s, n)
        total, _ = quad(
            lambda u: eigenfunction(lv, u) ** 2, 0.0, lv.e_tilde + 12.0,
            epsabs=1e-10, limit=300,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_norm_const_matches_simpson():
    # closed-form tail identity vs composite-Simpson quadrature of Ai^2
    s = unit_scale_system()
    for n in range(1, 11):
        lv = level(s, n)
        xs = np.linspace(-lv.e_tilde, 12.0, 20001)
        integrand = np.array([airy_ai(float(x)) ** 2 for x in xs])
        norm_sq_quad = 1.0 / simpson(integrand, x=xs)
        assert lv.norm_const**2 == pytest.approx(norm_sq_quad, rel=1e-6)


# m_i != m_g and hbar != 1, so a lost factor of alpha or of a mass shows
ASYMMETRIC = PhysicalSystem(m_i=1.3, m_g=0.7, g=2.0, hbar=0.9)


def test_floor_force_equals_weight():
    # the floor's force hbar^2 |chi_n'(0)|^2 / (2 m_i) on level n is m_g g; chi_n
    # is normalised in z, chi_n(z) = sqrt(alpha) A_n Ai(alpha z - E_n), so the
    # slope at the floor carries alpha^(3/2)
    s = ASYMMETRIC
    a = alpha(s)
    for n in range(1, 11):
        lv = level(s, n)
        slope = a**1.5 * lv.norm_const * airy_ai_prime(-lv.e_tilde)
        force = s.hbar**2 * slope**2 / (2.0 * s.m_i)
        assert force == pytest.approx(s.m_g * s.g, rel=1e-13)


def test_virial_theorem_mean_height():
    # <z_tilde>_n = 2 E_tilde_n / 3, i.e. <z>_n = 2 E_n / (3 F); not divided by
    # the quadrature's norm, so the normalisation A_n is on the tested path
    s = ASYMMETRIC
    for n in range(1, 11):
        lv = level(s, n)
        zs = np.linspace(0.0, lv.e_tilde + 14.0, 4001)
        density = np.array([eigenfunction(lv, float(u)) ** 2 for u in zs])
        mean = np.trapezoid(zs * density, zs)
        assert mean == pytest.approx(2.0 * lv.e_tilde / 3.0, rel=1e-10)


def test_ground_state_has_single_maximum():
    lv = level(unit_scale_system(), 1)
    zs = np.linspace(1e-3, lv.e_tilde, 400)
    vals = np.array([eigenfunction(lv, float(u)) for u in zs])
    assert np.all(vals > 0.0)  # no interior zero crossing below the turning point


def test_node_counting():
    s = unit_scale_system()
    for n in (1, 2, 3, 5, 8):
        lv = level(s, n)
        zs = np.linspace(1e-4, lv.e_tilde + 5.0, 4000)
        vals = np.array([eigenfunction(lv, float(u)) for u in zs])
        crossings = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert crossings == n - 1


def test_units_invariance_of_dimensionless_quantities():
    nat = level(unit_scale_system(), 5)
    si = level(neutron_system(), 5)
    assert nat.e_tilde == si.e_tilde  # identical code path, bit-for-bit
    assert nat.p_outside == si.p_outside
    assert abs(nat.e_tilde - si.e_tilde) <= 1e-12


def test_neutron_ground_state_energy():
    lv = level(neutron_system(), 1)
    # frozen from the constant-plugging oracle script (peV)
    assert lv.energy / EV_IN_JOULE * 1e12 == pytest.approx(1.4067188, rel=1e-6)


def test_stationary_state_examples():
    s = unit_scale_system()
    lv = level(s, 2)
    z_t = 1.3
    assert stationary_state(lv, z_t, 0.0, s) == pytest.approx(eigenfunction(lv, z_t))
    for t in (0.3, 1.7, 4.0):
        assert abs(stationary_state(lv, z_t, t, s)) == pytest.approx(
            abs(eigenfunction(lv, z_t)), rel=1e-12
        )
    period = 2.0 * math.pi * s.hbar / lv.energy
    assert stationary_state(lv, z_t, period, s) == pytest.approx(
        stationary_state(lv, z_t, 0.0, s), rel=1e-9
    )


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 10**400])
def test_stationary_state_rejects_non_finite_time(t):
    s = unit_scale_system()
    with pytest.raises(ParameterError, match="t "):
        stationary_state(level(s, 1), 1.0, t, s)


def test_stationary_state_phase_overflow_raises():
    s = unit_scale_system()
    lv = level(s, 1)
    # E_1*t/hbar overflows; t itself is finite
    with pytest.raises(NumericError, match="phase"):
        stationary_state(lv, 1.0, 1e308, dataclasses.replace(s, hbar=1e-10))
    # a huge but finite phase still gives a unit-modulus factor
    assert abs(stationary_state(lv, 1.0, 1e300, s)) == pytest.approx(eigenfunction(lv, 1.0))


def test_eigenfunction_rejects_int_beyond_double_range():
    lv = level(unit_scale_system(), 1)
    with pytest.raises(ParameterError, match="beyond double range"):
        eigenfunction(lv, 10**400)
    # behind the wall the value is an exact 0 whatever the magnitude
    assert eigenfunction(lv, -(10**400)) == 0.0


@pytest.mark.parametrize("z_tilde", [-math.inf, math.nan, math.inf])
def test_eigenfunction_rejects_non_finite_position(z_tilde):
    # refused before the wall check, so -inf is no 0 and the error names
    # z_tilde, not the argument of airy_ai
    s = unit_scale_system()
    lv = level(s, 1)
    with pytest.raises(ParameterError, match="z_tilde must be finite"):
        eigenfunction(lv, z_tilde)
    with pytest.raises(ParameterError, match="z_tilde must be finite"):
        stationary_state(lv, z_tilde, 0.5, s)


def test_level_index_validation():
    s = unit_scale_system()
    for bad in (0, 51, -2):
        with pytest.raises(ParameterError):
            level(s, bad)


def test_level_accepts_numpy_integer_index():
    s = unit_scale_system()
    assert level(s, np.int64(3)) == level(s, 3)


@pytest.mark.parametrize(
    "scale, system",
    [
        (alpha, PhysicalSystem(m_i=1.0, m_g=1.0, g=1.0, hbar=1e-200)),  # hbar^2 underflows
        (alpha, PhysicalSystem(m_i=1e300, m_g=1e300, g=1e300)),  # 2*m_i*F/hbar^2 overflows
        (alpha, PhysicalSystem(m_i=1e-300, m_g=1e-300, g=1.0)),  # ... and underflows
        (lambda s: level(s, 1), PhysicalSystem(m_i=1.0, m_g=1.0, g=1.0, hbar=1e200)),
        (energy_scale, PhysicalSystem(m_i=1.0, m_g=1e200, g=1.0)),  # F^2 overflows
        (alpha, PhysicalSystem(m_i=1.0, m_g=1e-200, g=1e-200)),  # F = m_g*g underflows
        (energy_scale, PhysicalSystem(m_i=1.0, m_g=1e-200, g=1e-200)),
        (alpha, PhysicalSystem(m_i=1.0, m_g=1e200, g=1e200)),  # ... and overflows
        (energy_scale, PhysicalSystem(m_i=1.0, m_g=1e200, g=1e200)),
        (energy_scale, PhysicalSystem(m_i=1.0, m_g=1e150, g=1.0, hbar=1e150)),  # hbar^2 F^2
        (energy_scale, PhysicalSystem(m_i=1e30, m_g=1.0, g=1.0, hbar=1e-150)),  # ... / (2 m_i)
    ],
    ids=[
        "alpha-small-hbar",
        "alpha-overflow",
        "alpha-underflow",
        "level-large-hbar",
        "energy-scale-large-force",
        "alpha-force-underflow",
        "energy-scale-force-underflow",
        "alpha-force-overflow",
        "energy-scale-force-overflow",
        "energy-scale-overflow",
        "energy-scale-underflow",
    ],
)
def test_scales_out_of_double_range(scale, system):
    with pytest.raises(NumericError):
        scale(system)
