"""Analytic map between a freely falling frame and a stationary one.

A solution Psi' of the free Schrodinger equation in the accelerated
coordinate z' = z + v*t + a*t^2/2 yields a solution in the stationary frame
with linear potential V = m_i*a*z through a pure phase:

    Psi(z, t) = Psi'(z + v*t + a*t^2/2, t) * exp(i*S)

with the real phase (written in stationary coordinates)

    S = -(m_i/hbar) * [ v*(z + v*t/2) + a*t*(z + v*t/2 + a*t^2/6) ].

The cancellation of all potential terms requires a = m_g*g/m_i, the same
free-fall condition as in classical mechanics; running the map with the
condition violated leaves a residual source term (m_i*a - m_g*g)*z, which the
PDE oracle in :mod:`gravqm.dynamics` detects.  Because the map is a unit
modulus multiplication, |Psi|^2 = |Psi'|^2 pointwise, and any two fields that
differ by the arbitrary constant in S are compared modulo one global phase.

Sign convention (shared with :mod:`gravqm.core`): z increases upward, the
field acts along -z, and a > 0 means the primed frame accelerates downward.

The stationary-frame states (plane wave, falling box) are the map applied to
free states, so its algebra lives only in :meth:`FrameTransform.shift` and
:func:`phase_s`.  Also here: the stationary observer's momentum and energy
eigenvalues, the COW phase shift proportional to the enclosed beam area and the
frequency shift between detectors at different heights (the redshift once an
effective mass hbar*omega'/c^2 is inserted).  The a = 0 case of
:func:`to_stationary_frame` is the Galilean boost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ComplexField, PhysicalSystem, checked_square, finite_result, np, positive_result
from .core import require_count, require_finite, require_positive
from .errors import NumericError, ParameterError


@dataclass(frozen=True)
class FrameTransform:
    """Parameters of the falling-frame map: v, a, inertial mass, hbar."""

    v: float
    a: float
    m_i: float
    hbar: float

    def __post_init__(self):
        for name in ("v", "a"):
            require_finite(name, getattr(self, name))
        for name in ("m_i", "hbar"):
            require_positive(name, getattr(self, name))

    @classmethod
    def from_system(cls, system: PhysicalSystem) -> "FrameTransform":
        return cls(v=system.v, a=system.a, m_i=system.m_i, hbar=system.hbar)

    def shift(self, t: float) -> float:
        """Coordinate offset v*t + a*t^2/2 between the two frames."""
        return self.v * t + 0.5 * self.a * t * t


@dataclass(frozen=True)
class InterferometerGeometry:
    """Neutron interferometer loop: wavelength, height, horizontal length."""

    wavelength: float
    height: float
    horizontal_length: float

    def __post_init__(self):
        for name in ("wavelength", "height", "horizontal_length"):
            require_positive(name, getattr(self, name))

    @property
    def area(self) -> float:
        """Enclosed beam area, height times horizontal length."""
        return self.height * self.horizontal_length


@dataclass(frozen=True)
class PlaneWaveState:
    """Free plane wave in the falling frame: momentum p' and frequency omega'."""

    p_prime: float
    omega_prime: float

    def __post_init__(self):
        # stored as floats: the square of an int p' is an exact int, and past
        # double range its quotient by 2*m_i raises OverflowError
        for name in ("p_prime", "omega_prime"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))

    @classmethod
    def from_momentum(cls, p_prime: float, system: PhysicalSystem) -> "PlaneWaveState":
        """hbar*omega' = p'^2/(2 m_i); ParameterError for a non-finite p', NumericError past range."""
        square = checked_square("p_prime", require_finite("p_prime", p_prime))
        omega = finite_result("omega'", square / (2.0 * system.m_i) / system.hbar)
        return cls(p_prime=p_prime, omega_prime=omega)


def _coordinate(name: str, value):
    """A numpy array as it is (its caller checks the result), else :func:`require_finite`."""
    return value if isinstance(value, np.ndarray) else require_finite(name, value)


def phase_s(ft: FrameTransform, z_prime, t_prime):
    """Phase S(z', t') of the map, in falling-frame coordinates.

    S = -(m_i*v/hbar)*(z' - v*t'/2) - (m_i*a*t'/hbar)*(z' - v*t' - a*t'^2/3).
    Accepts scalars or numpy arrays; a scalar must be finite (ParameterError).
    Raises NumericError where the phase is not finite.
    """
    z_prime = _coordinate("z'", z_prime)
    t_prime = _coordinate("t'", t_prime)
    m_over_h = ft.m_i / ft.hbar
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        term_v = -m_over_h * ft.v * (z_prime - 0.5 * ft.v * t_prime)
        term_a = -m_over_h * ft.a * t_prime * (
            z_prime - ft.v * t_prime - ft.a * (t_prime * t_prime) / 3.0
        )
        phase = term_v + term_a
    if not np.isfinite(phase).all():  # .all() also serves a scalar, at half the cost
        raise NumericError("phase S of the frame map is out of double range")
    return phase


def to_stationary_frame(ft: FrameTransform, psi_free: ComplexField, t: float) -> ComplexField:
    """Phase-multiply a free-frame field into the stationary frame at time t.

    ``psi_free`` must already be sampled at the shifted coordinate
    z + v*t + a*t^2/2 on the stationary grid (the caller performs the shift;
    see :func:`gravqm.dynamics.shift_field`).  The factor has unit modulus,
    so |Psi|^2 is preserved sample by sample.
    """
    t = require_finite("t", t)
    phase = phase_s(ft, psi_free.grid.z + ft.shift(t), t)
    return ComplexField(psi_free.grid, psi_free.values * np.exp(1j * phase))


def _stationary_image(free_phase, ft: FrameTransform, z_prime, t):
    """exp(i*(free_phase + S(z', t))), or NumericError where that phase is not finite."""
    phase = free_phase + phase_s(ft, z_prime, t)
    if not np.isfinite(phase).all():
        raise NumericError("phase of the stationary-frame state is out of double range")
    return np.exp(1j * phase)


def plane_wave_stationary(pw: PlaneWaveState, ft: FrameTransform, z, t):
    """The map applied to the free plane wave exp(i(p'z' - p'^2 t/(2 m_i))/hbar).

    The wave is evaluated at z' = z + v*t + a*t^2/2 and multiplied by
    exp(i*S(z', t)); its frequency is p'^2/(2 m_i hbar), not ``pw.omega_prime``.
    Scalars or numpy arrays; not normalizable.  ParameterError for a scalar
    that is not finite, NumericError where the phase is out of double range.
    """
    z = _coordinate("z", z)
    t = _coordinate("t", t)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        z_prime = z + ft.shift(t)
        p = pw.p_prime
        free = (p * z_prime - checked_square("p_prime", p) * t / (2.0 * ft.m_i)) / ft.hbar
        return _stationary_image(free, ft, z_prime, t)


def momentum_eigenvalue(pw: PlaneWaveState, ft: FrameTransform, t: float) -> float:
    """Momentum seen by the stationary observer: p(t) = p' - m_i*(v + a*t), or NumericError."""
    return finite_result("p(t)", pw.p_prime - ft.m_i * (ft.v + ft.a * require_finite("t", t)))


def energy_eigenvalue(
    pw: PlaneWaveState, ft: FrameTransform, system: PhysicalSystem, z: float, t: float
) -> float:
    """Energy seen by the stationary observer, E = p(t)^2/(2 m_i) + m_i*a*z, or NumericError."""
    if system.m_i != ft.m_i or system.hbar != ft.hbar:
        raise ParameterError("transform and system disagree on m_i or hbar")
    p = momentum_eigenvalue(pw, ft, t)
    return finite_result("energy", p * p / (2.0 * ft.m_i) + ft.m_i * ft.a * require_finite("z", z))


def frequency_shift(system: PhysicalSystem, z: float) -> float:
    """Angular frequency difference between detectors separated by height z.

    Delta_omega = m_i*a*z/hbar, independent of time.  Substituting the
    effective mass hbar*omega'/c^2 of a quantum of energy hbar*omega' turns
    the ratio Delta_omega/omega' into a*z/c^2, the redshift formula; that
    substitution imports a relativistic relation and is left to the caller.
    """
    return finite_result("Delta_omega", system.m_i * system.a * require_finite("z", z) / system.hbar)


def cow_phase_shift(geom: InterferometerGeometry, system: PhysicalSystem) -> float:
    """Interferometric phase shift m_i^2 * a * lambda * A / (2*pi*hbar^2).

    A is the enclosed beam area; set a = g for equal masses.  Radians.
    Raises NumericError where 2*pi*hbar^2 or m_i^2 under- or overflows.
    """
    denominator = positive_result("2*pi*hbar^2", 2.0 * math.pi * system.hbar * system.hbar)
    m_sq = checked_square("m_i", system.m_i)
    return finite_result("COW phase", m_sq * system.a * geom.wavelength * geom.area / denominator)


def cow_phase_shift_time_route(geom: InterferometerGeometry, system: PhysicalSystem) -> float:
    """Same phase shift computed as m_i*a*t*z/hbar with t = d/v_h.

    The traversal time uses the horizontal velocity v_h = 2*pi*hbar/(m_i*lambda).
    Signed like :func:`cow_phase_shift`: t and z are positive, so the phase
    takes the sign of a.
    Kept as a separate route so the algebraic identity with
    :func:`cow_phase_shift` can be checked rather than assumed.  Raises
    NumericError where m_i*lambda under- or overflows, so that v_h has no
    finite nonzero value and the route none either.
    """
    m_lambda = positive_result("m_i*lambda", system.m_i * geom.wavelength)
    v_h = positive_result("horizontal velocity v_h", 2.0 * math.pi * system.hbar / m_lambda)
    t = geom.horizontal_length / v_h
    return finite_result("COW phase", system.m_i * system.a * t * geom.height / system.hbar)


def falling_box_window(n: int, box_length: float, ft: FrameTransform, t: float) -> tuple[float, float]:
    """Support [-v*t - a*t^2/2, L - v*t - a*t^2/2] of the box at t, or NumericError."""
    require_count("box quantum number", n, 1)
    require_positive("box length", box_length)
    lo = finite_result("window start", -ft.shift(require_finite("t", t)))
    return lo, finite_result("window end", box_length + lo)


def falling_box_state(
    n: int, box_length: float, ft: FrameTransform, system: PhysicalSystem, z: float, t: float
) -> complex:
    """Stationary-frame eigenstate of a rigid box in free fall.

    The map applied to the free box state: inside the falling window
    z' = z + v*t + a*t^2/2 runs over [0, L] and the state is
    sqrt(2/L)*sin(n*pi*z'/L)*exp(i*(S(z', t) - E_box*t/hbar)), with
    E_box = (n*pi*hbar/L)^2/(2 m_i); outside it the state is exactly 0.
    """
    if system.m_i != ft.m_i or system.hbar != ft.hbar:
        raise ParameterError("transform and system disagree on m_i or hbar")
    z = require_finite("z", z)
    t = require_finite("t", t)
    lo, hi = falling_box_window(n, box_length, ft, t)
    if z < lo or z > hi:
        return 0.0 + 0.0j
    z_prime = z - lo
    p_box = positive_result("box momentum n*pi*hbar/L", n * math.pi * ft.hbar / box_length)
    wave = PlaneWaveState.from_momentum(p_box, system)
    amplitude = math.sqrt(2.0 / box_length) * math.sin(n * math.pi * z_prime / box_length)
    return amplitude * _stationary_image(-wave.omega_prime * t, ft, z_prime, t)


def box_eigenvalues(
    n: int, box_length: float, ft: FrameTransform, system: PhysicalSystem, z: float, t: float
) -> tuple[float, float]:
    """(p_n(t), E_n(z, t)) of the falling-box state for the stationary observer.

    The plane-wave eigenvalues of the box's free momentum p' = n*pi*hbar/L:
    p_n(t) = p' - m_i*(v + a*t) and E_n = p_n^2/(2 m_i) + m_i*a*z.
    """
    require_count("box quantum number", n, 1)
    require_positive("box length", box_length)
    p_box = positive_result("box momentum n*pi*hbar/L", n * math.pi * ft.hbar / box_length)
    wave = PlaneWaveState.from_momentum(p_box, system)
    return momentum_eigenvalue(wave, ft, t), energy_eigenvalue(wave, ft, system, z, t)
