import math

import numpy as np
import pytest

from gravqm import (
    ComplexField,
    Grid,
    NumericError,
    ParameterError,
    PhysicalSystem,
    make_natural_system,
    norm_squared,
)


def test_make_natural_system_defaults():
    s = make_natural_system(1.0)
    assert (s.hbar, s.m_i, s.m_g, s.g, s.v, s.a) == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def test_make_natural_system_mass_passthrough():
    s = make_natural_system(0.5)
    assert s.m_i == 0.5 and s.m_g == 0.5


def test_make_natural_system_rejects_nonpositive_mass():
    with pytest.raises(ParameterError):
        make_natural_system(-1.0)
    with pytest.raises(ParameterError):
        make_natural_system(0.0)


def test_system_validation():
    with pytest.raises(ParameterError):
        PhysicalSystem(m_i=1.0, m_g=1.0, hbar=0.0)
    with pytest.raises(ParameterError):
        PhysicalSystem(m_i=1.0, m_g=-1.0)
    with pytest.raises(ParameterError):
        PhysicalSystem(m_i=1.0, m_g=1.0, g=math.inf)


def test_grid_validation_and_spacing():
    g = Grid(-1.0, 1.0, 101)
    assert g.dz == pytest.approx(0.02)
    assert g.z[0] == -1.0 and g.z[-1] == 1.0
    with pytest.raises(ParameterError):
        Grid(0.0, 0.0, 11)
    with pytest.raises(ParameterError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ParameterError):
        Grid(0.0, 1.0, 11, dt=0.0, n_steps=5)


def test_grid_bounds_the_step_count():
    assert Grid(0.0, 1.0, 11, dt=1e-3, n_steps=10**7).n_steps == 10**7
    for n_steps in (10**7 + 1, 10**300):
        with pytest.raises(ParameterError, match="n_steps must be at most"):
            Grid(0.0, 1.0, 11, dt=1e-300, n_steps=n_steps)


def test_int_beyond_double_range_is_a_parameter_error():
    with pytest.raises(ParameterError, match="m_i is beyond double range"):
        PhysicalSystem(m_i=10**400, m_g=1.0)
    with pytest.raises(ParameterError, match="dt is beyond double range"):
        Grid(0.0, 1.0, 11, dt=10**400, n_steps=5)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_dt(dt):
    with pytest.raises(ParameterError, match="dt must be finite"):
        Grid(0.0, 1.0, 11, dt=dt, n_steps=5)


def test_norm_squared_flat_field():
    grid = Grid(0.0, 1.0, 101)
    f = ComplexField(grid, np.ones(101))
    assert norm_squared(f) == pytest.approx(1.0, abs=1e-12)


def test_norm_squared_zero_field():
    grid = Grid(0.0, 1.0, 101)
    assert norm_squared(ComplexField(grid, np.zeros(101))) == 0.0


def test_norm_squared_gaussian():
    # normalized Gaussian, sigma = 1: exact integral is 1 up to e^-50 tails
    grid = Grid(-10.0, 10.0, 2001)
    z = grid.z
    psi = (2.0 * math.pi) ** -0.25 * np.exp(-(z**2) / 4.0)
    assert norm_squared(ComplexField(grid, psi)) == pytest.approx(1.0, abs=1e-8)


def test_norm_invariant_under_global_phase():
    rng = np.random.default_rng(7)
    grid = Grid(-5.0, 5.0, 257)
    values = rng.normal(size=257) + 1j * rng.normal(size=257)
    base = norm_squared(ComplexField(grid, values))
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=8):
        rotated = norm_squared(ComplexField(grid, values * np.exp(1j * theta)))
        assert rotated == pytest.approx(base, rel=1e-14)


def test_norm_scales_quadratically():
    rng = np.random.default_rng(11)
    grid = Grid(-3.0, 4.0, 129)
    values = rng.normal(size=129) + 1j * rng.normal(size=129)
    base = norm_squared(ComplexField(grid, values))
    for c in [0.5, 2.0, 1.0 + 2.0j, -3.0j]:
        scaled = norm_squared(ComplexField(grid, c * values))
        assert scaled == pytest.approx(abs(c) ** 2 * base, rel=1e-12)


def test_field_is_immutable():
    grid = Grid(0.0, 1.0, 11)
    f = ComplexField(grid, np.ones(11))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_field_refuses_non_finite_samples():
    # so no norm_squared, normalized() or moments() call sees such a sample
    grid = Grid(0.0, 1.0, 11)
    for bad in (math.nan, math.inf, -math.inf, complex(1.0, math.nan)):
        for at in (0, 3, 5, 10):
            values = np.ones(11, dtype=complex)
            values[at] = bad
            with pytest.raises(NumericError, match="field contains NaN or infinite samples"):
                ComplexField(grid, values)
    packet = Grid(-10.0, 10.0, 101)
    values = np.exp(-(packet.z**2) / 4.0 + 0.5j * packet.z)
    values[50] = math.nan
    with pytest.raises(NumericError, match="field contains NaN or infinite samples"):
        ComplexField(packet, values)
    # the shape is checked first
    with pytest.raises(ParameterError, match="values must have shape"):
        ComplexField(grid, np.full(10, math.nan))


def test_normalized_flag_contract():
    grid = Grid(-8.0, 8.0, 801)
    z = grid.z
    psi = np.exp(-(z**2))
    field = ComplexField(grid, psi).normalized()
    assert abs(norm_squared(field) - 1.0) <= 1e-10


def test_normalized_beyond_double_range_matches_unit_field():
    # |psi|^2 over- or underflows (1e400, 1e-400), yet the field normalizes
    # exactly as the same field at 1.0 does
    grid = Grid(-1.0, 1.0, 11)
    unit = ComplexField(grid, np.ones(11)).normalized()
    for peak in (1e200, 1e-200):
        field = ComplexField(grid, np.full(11, peak)).normalized()
        np.testing.assert_array_equal(field.values, unit.values)
    # |psi| itself overflows here; the scale is the largest real or imaginary part
    field = ComplexField(grid, np.full(11, 1.5e308 + 1.5e308j)).normalized()
    assert abs(norm_squared(field) - 1.0) <= 1e-14
    np.testing.assert_allclose(field.values, unit.values * (1.0 + 1.0j) / math.sqrt(2.0), rtol=1e-15)


def test_norm_squared_beyond_double_range_is_numeric_error():
    with pytest.raises(NumericError, match="norm"):
        norm_squared(ComplexField(Grid(-1.0, 1.0, 11), np.full(11, 1e200)))


def test_derived_scalars_beyond_double_range_are_numeric_errors():
    # every field is finite, but dt*n_steps and m_g*g are not
    with pytest.raises(NumericError, match="total time"):
        Grid(0.0, 1.0, 11, dt=1e308, n_steps=10).total_time
    with pytest.raises(NumericError, match="weight"):
        PhysicalSystem(1.0, 1e200, g=1e200).weight


@pytest.mark.parametrize(
    "counts",
    [
        dict(n_points=10.5),
        dict(n_points=True),
        dict(n_points="11"),
        dict(n_points=11, n_steps=2.5),
        dict(n_points=11, n_steps=np.float64(3.0)),
    ],
    ids=["points-float", "points-bool", "points-str", "steps-float", "steps-numpy-float"],
)
def test_grid_counts_must_be_integers(counts):
    with pytest.raises(ParameterError, match="must be an integer"):
        Grid(-1.0, 1.0, dt=1e-3, **counts)


@pytest.mark.parametrize(
    "n_points", [2**20 + 1, 2**40, 2**63, 10**400], ids=["bound+1", "2^40", "2^63", "10^400"]
)
def test_grid_point_count_is_bounded(n_points):
    # refused before np.linspace, which would raise MemoryError, IndexError or OverflowError
    with pytest.raises(ParameterError, match="n_points must be at most 1048576"):
        Grid(-1.0, 1.0, n_points)


def test_grid_accepts_the_point_bound():
    assert Grid(-1.0, 1.0, 2**20).z.size == 2**20


def test_grid_accepts_numpy_integer_counts():
    grid = Grid(0.0, 1.0, np.int64(11), dt=0.1, n_steps=np.int32(3))
    assert grid.dz == pytest.approx(0.1) and grid.total_time == pytest.approx(0.3)


@pytest.mark.parametrize("z_min, z_max", [(-1e308, 1e308), (0.0, 5e-324)], ids=["wide", "narrow"])
def test_grid_spacing_out_of_double_range(z_min, z_max):
    # no RuntimeWarning from linspace (pyproject.toml turns one into an error)
    with pytest.raises(NumericError, match="grid spacing"):
        Grid(z_min, z_max, 11)
