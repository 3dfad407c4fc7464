"""Property test of the library's error contract.

The fields of ``Grid``, ``PhysicalSystem`` (which also carries the frame
map's v, a, m_i and hbar) and ``InterferometerGeometry``, the scalar
arguments of the entry points (a plane wave's momentum p' and a shift offset
among them) and the derived scalars ``Grid.total_time`` and
``PhysicalSystem.weight`` are drawn from or built on values at and beyond
the edges of double range: nan, infinities, +-1e308, subnormals, an int
beyond double range, numpy integers, bools and floats passed as counts.  An
initial state, and a field given to the frame map's steps, is a unit packet
times any finite number.
Every call must return finite numbers or raise ParameterError or
NumericError.  Any other exception fails the test, and so does a
RuntimeWarning, which pyproject.toml turns into an error.  Grids have at
most 4096 points, or the 2**20 points of the bound itself (8 MiB of
coordinates), and each propagation takes two steps on 128 points, so no
example allocates a large array.
"""

import cmath
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravqm import (
    ComplexField,
    Grid,
    InterferometerGeometry,
    NumericError,
    ParameterError,
    PhysicalSystem,
    ai_negative_zero,
    align_global_phase,
    box_eigenvalues,
    cow_phase_shift,
    cow_phase_shift_time_route,
    energy_eigenvalue,
    falling_box_state,
    falling_box_window,
    frame_equivalence,
    free_dispersion_width,
    frequency_shift,
    gaussian_packet,
    level,
    moments,
    momentum_eigenvalue,
    pde_residual,
    phase_s,
    plane_wave_stationary,
    propagate_linear_potential,
    shift_field,
    to_stationary_frame,
)

_EDGES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, -1e200, 1e150, 1e-150, 1e-200,
    1e-310, 5e-324, -5e-324, 10**400, -(10**400), 0.0, -0.0, True, False,
]
_REAL = st.one_of(st.sampled_from(_EDGES), st.floats())
_COUNT = st.one_of(
    st.integers(-3, 60),
    st.sampled_from(
        [True, False, 2.5, 3.0, 10.5, math.nan, np.int64(3), np.int32(1), np.uint8(50),
         np.int64(51), np.int64(-1), np.True_, np.float64(3.0)]
    ),
)
_FINITE = st.one_of(
    st.sampled_from([x for x in _EDGES if isinstance(x, float) and math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def _or(value, values=_REAL):
    # the ordinary value half of the time, so that a call with several
    # arguments often gets past the checks of all but one
    return st.one_of(st.just(value), values)


def _outcome(call):
    """call()'s result, or None where it raises one of the two documented errors."""
    try:
        return call()
    except (ParameterError, NumericError):
        return None


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


@_SETTINGS
@given(
    _or(-1.0), _or(1.0),
    _or(11, st.one_of(_COUNT, st.integers(3, 4096), st.sampled_from([2**20, 2**20 + 1, 10**400]))),
    _or(1e-3),
    _or(10, st.one_of(_COUNT, st.sampled_from([10**7, 10**7 + 1, 10**400]))),
)
@example(0.0, 1.0, 11, 1e308, 10)  # dt*n_steps overflows
def test_grid_fields(z_min, z_max, n_points, dt, n_steps):
    grid = _outcome(lambda: Grid(z_min, z_max, n_points, dt=dt, n_steps=n_steps))
    if grid is not None:
        assert _finite(grid.dz) and grid.dz > 0.0
        assert np.isfinite(grid.z).all()
        total_time = _outcome(lambda: grid.total_time)
        assert total_time is None or _finite(total_time)


_PACKET_GRID = Grid(-12.0, 12.0, 256)


@_SETTINGS
@given(_or(0.0), _or(1.0), _or(0.0))
def test_gaussian_packet(center, sigma, k0):
    packet = _outcome(lambda: gaussian_packet(_PACKET_GRID, center, sigma, k0))
    if packet is not None:
        assert np.isfinite(packet.values).all()


@_SETTINGS
@given(_or(1.0), _or(1.0), _or(1.0), _or(0.5), _or(1.0), _or(1.0), _or(1.0), _or(1, _COUNT))
def test_system_frequency_shift_and_level(m_i, m_g, g, v, a, hbar, z, n):
    system = _outcome(lambda: PhysicalSystem(m_i=m_i, m_g=m_g, g=g, v=v, a=a, hbar=hbar))
    if system is None:
        return
    weight = _outcome(lambda: system.weight)
    assert weight is None or _finite(weight)
    shift = _outcome(lambda: frequency_shift(system, z))
    assert shift is None or _finite(shift)
    lvl = _outcome(lambda: level(system, n))
    if lvl is not None:
        assert _finite(lvl.e_tilde, lvl.energy, lvl.norm_const, lvl.p_outside)


@_SETTINGS
@given(
    _or(0.5), _or(1.0), _or(1.0), _or(1.0), _or(1, _COUNT), _or(1.0), _or(0.5), _or(1.0), _or(0.3)
)
@example(10**400, 0.0, 1.0, 1.0, 1, 1.0, 0.0, 1.0, 0.3)
def test_frame_window_and_momentum(v, a, m_i, hbar, n, box_length, t, p_prime, z):
    system = _outcome(lambda: PhysicalSystem(m_i=m_i, m_g=m_i, v=v, a=a, hbar=hbar))
    if system is None:
        return
    window = _outcome(lambda: falling_box_window(n, box_length, system, t))
    assert window is None or _finite(*window)
    momentum = _outcome(lambda: momentum_eigenvalue(p_prime, system, t))
    assert momentum is None or _finite(momentum)
    energy = _outcome(lambda: energy_eigenvalue(p_prime, system, z, t))
    assert energy is None or _finite(energy)
    box = _outcome(lambda: box_eigenvalues(n, box_length, system, z, t))
    assert box is None or _finite(*box)


_FALLING = PhysicalSystem(m_i=1.0, m_g=1.0, g=1.0, v=0.3, a=1.0)


@_SETTINGS
@given(_or(1.2), _or(0.4), _or(0.5), _or(1, _COUNT), _or(1.0))
@example(10**400, 0.4, 0.5, 1, 1.0)
@example(1.2, math.nan, 0.5, 1, 1.0)
@example(1.2, 0.4, -(10**400), 1, 1.0)
def test_plane_wave_phase_and_box_state(p_prime, z, t, n, box_length):
    phase = _outcome(lambda: phase_s(_FALLING, z, t))
    assert phase is None or _finite(phase)
    box = _outcome(lambda: falling_box_state(n, box_length, _FALLING, _FALLING, z, t))
    assert box is None or cmath.isfinite(box)
    plane = _outcome(lambda: plane_wave_stationary(p_prime, _FALLING, z, t))
    assert plane is None or cmath.isfinite(plane)
    momentum = _outcome(lambda: momentum_eigenvalue(p_prime, _FALLING, t))
    assert momentum is None or _finite(momentum)


@_SETTINGS
@given(_or(1.0), _or(1.0), _or(1.0), _or(1.0), _or(1.0), _or(1.0))
def test_geometry_and_cow_routes(wavelength, height, length, m_i, a, hbar):
    geom = _outcome(lambda: InterferometerGeometry(wavelength, height, length))
    system = _outcome(lambda: PhysicalSystem(m_i=m_i, m_g=m_i, g=a, a=a, hbar=hbar))
    if geom is None or system is None:
        return
    for route in (cow_phase_shift, cow_phase_shift_time_route):
        phase = _outcome(lambda: route(geom, system))
        assert phase is None or _finite(phase)


_UNIT = PhysicalSystem(m_i=1.0, m_g=1.0, g=1.0)
# a free plane wave exp(i(z - t/2)) on a 5x5 stencil, where 1e308*z overflows,
# and a packet for two steps
_STENCIL_Z = 2.0 + 1e-2 * np.arange(5)
_STENCIL_T = 1e-2 * np.arange(5)
_STENCIL = np.exp(1j * (_STENCIL_Z[None, :] - 0.5 * _STENCIL_T[:, None]))
_SHORT_RUN = gaussian_packet(Grid(-12.0, 12.0, 128, dt=1e-2, n_steps=2), 0.0, 1.0)


@_SETTINGS
@given(_or(0.5), _or(1.0))
@example(-0.5, 1.0)  # a negative width
@example(0.0, 1.0)
@example(0.5, math.nan)
def test_free_dispersion_width(sigma0, t):
    width = _outcome(lambda: free_dispersion_width(sigma0, t, _UNIT))
    assert width is None or (np.isfinite(width) and width > 0.0)


@_SETTINGS
@given(_or(1.0))
@example(math.nan)
@example(-math.inf)
@example(1e308)  # slope * z overflows
def test_pde_residual_slope(slope):
    residual = _outcome(lambda: pde_residual(_STENCIL, _STENCIL_Z, _STENCIL_T, _UNIT, slope))
    assert residual is None or _finite(residual)


@_SETTINGS
@given(_REAL)
@example(10**400)  # float() overflows
def test_shift_offset(offset):
    shifted = _outcome(lambda: shift_field(_SHORT_RUN, offset))
    assert shifted is None or np.isfinite(shifted.values).all()


@_SETTINGS
@given(_or(1.0), _or(1, _COUNT))
@example(math.nan, 1)
@example(1e308, 1)  # slope * z overflows
def test_propagation_slope(slope, sample_every):
    report = _outcome(
        lambda: propagate_linear_potential(_SHORT_RUN, _UNIT, slope, sample_every=sample_every)
    )
    if report is not None:
        assert _finite(report.norm_drift) and np.isfinite(report.moment_series).all()
        assert np.isfinite(report.final_field.values).all()


@_SETTINGS
@given(_FINITE)
@example(1e200)  # |psi|^2 overflows
@example(1.0 + 1e-7)  # normalized to 1e-6, not to 1e-8
def test_scaled_initial_state(scale):
    # the moment kernel alone reads |psi|^2 of an initial state, scaled here
    # by any finite number
    psi0 = ComplexField(_SHORT_RUN.grid, scale * _SHORT_RUN.values)
    values = _outcome(lambda: moments(psi0, _UNIT))
    assert values is None or _finite(*values)
    for slope in (0.0, 1.0):
        report = _outcome(lambda: propagate_linear_potential(psi0, _UNIT, slope))
        if report is not None:
            assert _finite(report.norm_drift) and np.isfinite(report.moment_series).all()


_WIDE_PACKET = gaussian_packet(Grid(-40.0, 40.0, 4096), 0.0, 0.5)
_BOOSTED = PhysicalSystem(m_i=1.0, m_g=1.0, v=1.0)


@_SETTINGS
@given(_FINITE)
@example(1e200)  # the inner product's |psi|^2 overflows
@example(1e307)  # the shift's FFT overflows
@example(1.5e308)  # |psi| overflows, so the frame map's rotation does
def test_scaled_field_through_the_frame_map(scale):
    # the steps of the dual-path comparison on any finite field; equal real
    # and imaginary parts let a rotation take one past double range
    field = ComplexField(_WIDE_PACKET.grid, scale * (1.0 + 1.0j) * _WIDE_PACKET.values)
    for result in (
        _outcome(lambda: align_global_phase(field, field)),
        _outcome(lambda: shift_field(field, 0.5)),
        _outcome(lambda: to_stationary_frame(_BOOSTED, field, 1.0)),
    ):
        assert result is None or np.isfinite(result.values).all()


@_SETTINGS
@given(_or(1e-2))
@example(1e308)  # 3*dt overflows
def test_propagation_time_step(dt):
    # both kernels (a free run sampled at its ends, a stepped run in the
    # field) and the dual-path comparison, which makes both kinds of run
    grid = _outcome(lambda: Grid(-12.0, 12.0, 128, dt=dt, n_steps=2))
    if grid is None:
        return
    psi0 = ComplexField(grid, _SHORT_RUN.values)
    for slope, sample_every in ((0.0, 2), (1.0, 1)):
        report = _outcome(
            lambda: propagate_linear_potential(psi0, _UNIT, slope, sample_every=sample_every)
        )
        if report is not None:
            assert _finite(report.norm_drift) and np.isfinite(report.moment_series).all()
            assert np.isfinite(report.final_field.values).all()
    result = _outcome(lambda: frame_equivalence(psi0, _FALLING))
    if result is not None:
        assert _finite(result.max_mismatch, result.time_correction)
        assert np.isfinite(result.transformed.values).all()


@_SETTINGS
@given(_COUNT)
def test_zero_index(n):
    zero = _outcome(lambda: ai_negative_zero(n))
    assert zero is None or (_finite(zero) and zero < 0.0)
