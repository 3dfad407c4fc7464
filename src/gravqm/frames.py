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
free states, so its algebra lives only in :meth:`PhysicalSystem.shift` and
:func:`phase_s`, which read the system's v, a, m_i and hbar, never m_g or g.
Also here: the stationary observer's momentum and energy eigenvalues, the COW
phase shift proportional to the enclosed beam area and the frequency shift
between detectors at different heights (the redshift once an effective mass
hbar*omega'/c^2 is inserted).  The a = 0 case of :func:`to_stationary_frame` is
the Galilean boost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ComplexField, PhysicalSystem, checked_square, finite_result, np, positive_result
from .core import require_count, require_finite, require_positive
from .errors import NumericError, ParameterError

__all__ = [
    "FrameTransform",
    "InterferometerGeometry",
    "box_eigenvalues",
    "cow_phase_shift",
    "cow_phase_shift_time_route",
    "energy_eigenvalue",
    "falling_box_state",
    "falling_box_window",
    "frequency_shift",
    "momentum_eigenvalue",
    "phase_s",
    "plane_wave_stationary",
    "to_stationary_frame",
]


class FrameTransform:
    """Kept for the benchmark harness in ``perfbench/``: every frame function takes the
    :class:`PhysicalSystem` itself, so ``from_system`` returns its argument unchanged."""

    @staticmethod
    def from_system(system: PhysicalSystem) -> PhysicalSystem:
        return system


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


def _coordinate(name: str, value):
    """A numpy array as it is (its caller checks the result), else :func:`require_finite`."""
    return value if isinstance(value, np.ndarray) else require_finite(name, value)


def phase_s(system: PhysicalSystem, z_prime, t_prime):
    """Phase S(z', t') of the map, in falling-frame coordinates.

    S = -(m_i*v/hbar)*(z' - v*t'/2) - (m_i*a*t'/hbar)*(z' - v*t' - a*t'^2/3).
    Accepts scalars or numpy arrays; a scalar must be finite (ParameterError).
    Raises NumericError where the phase is not finite.
    """
    z_prime = _coordinate("z'", z_prime)
    t_prime = _coordinate("t'", t_prime)
    m_over_h = system.m_i / system.hbar
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        term_v = -m_over_h * system.v * (z_prime - 0.5 * system.v * t_prime)
        term_a = -m_over_h * system.a * t_prime * (
            z_prime - system.v * t_prime - system.a * (t_prime * t_prime) / 3.0
        )
        phase = term_v + term_a
    if not np.isfinite(phase).all():  # .all() also serves a scalar, at half the cost
        raise NumericError("phase S of the frame map is out of double range")
    return phase


def to_stationary_frame(system: PhysicalSystem, psi_free: ComplexField, t: float) -> ComplexField:
    """Phase-multiply a free-frame field into the stationary frame at time t.

    ``psi_free`` must already be sampled at the shifted coordinate
    z + v*t + a*t^2/2 on the stationary grid (the caller performs the shift;
    see :func:`gravqm.dynamics.shift_field`).  The factor has unit modulus,
    so |Psi|^2 is preserved sample by sample.
    """
    t = require_finite("t", t)
    phase = phase_s(system, psi_free.grid.z + system.shift(t), t)
    return ComplexField(psi_free.grid, psi_free.values * np.exp(1j * phase))


def _stationary_image(free_phase, system: PhysicalSystem, z_prime, t):
    """exp(i*(free_phase + S(z', t))), or NumericError where that phase is not finite."""
    phase = free_phase + phase_s(system, z_prime, t)
    if not np.isfinite(phase).all():
        raise NumericError("phase of the stationary-frame state is out of double range")
    return np.exp(1j * phase)


def plane_wave_stationary(p_prime: float, system: PhysicalSystem, z, t):
    """The map applied to the free plane wave exp(i(p'z' - p'^2 t/(2 m_i))/hbar).

    p' is the falling-frame momentum.  The wave is evaluated at z' = z + v*t + a*t^2/2
    and multiplied by exp(i*S(z', t)).  z and t are scalars or numpy arrays; not
    normalizable.  ParameterError for a scalar (p' included) that is not finite,
    NumericError where the phase is out of double range.
    """
    p = require_finite("p_prime", p_prime)  # a float: an int p'^2 would not overflow
    z = _coordinate("z", z)
    t = _coordinate("t", t)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        z_prime = z + system.shift(t)
        free = (p * z_prime - checked_square("p_prime", p) * t / (2.0 * system.m_i)) / system.hbar
        return _stationary_image(free, system, z_prime, t)


def momentum_eigenvalue(p_prime: float, system: PhysicalSystem, t: float) -> float:
    """Momentum seen by the stationary observer: p(t) = p' - m_i*(v + a*t), or NumericError."""
    p = require_finite("p_prime", p_prime)
    return finite_result("p(t)", p - system.m_i * (system.v + system.a * require_finite("t", t)))


def energy_eigenvalue(p_prime: float, system: PhysicalSystem, z: float, t: float) -> float:
    """Energy seen by the stationary observer, E = p(t)^2/(2 m_i) + m_i*a*z, or NumericError."""
    p = momentum_eigenvalue(p_prime, system, t)
    return finite_result(
        "energy", p * p / (2.0 * system.m_i) + system.m_i * system.a * require_finite("z", z)
    )


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


def falling_box_window(
    n: int, box_length: float, system: PhysicalSystem, t: float
) -> tuple[float, float]:
    """Support [-v*t - a*t^2/2, L - v*t - a*t^2/2] of the box at t, or NumericError."""
    require_count("box quantum number", n, 1)
    require_positive("box length", box_length)
    lo = finite_result("window start", -system.shift(require_finite("t", t)))
    return lo, finite_result("window end", box_length + lo)


def falling_box_state(
    n: int, box_length: float, frame: PhysicalSystem, system: PhysicalSystem, z: float, t: float
) -> complex:
    """Stationary-frame eigenstate of a rigid box in free fall.

    The map applied to the free box state: inside the falling window
    z' = z + v*t + a*t^2/2 runs over [0, L] and the state is
    sqrt(2/L)*sin(n*pi*z'/L)*exp(i*(S(z', t) - E_box*t/hbar)), with
    E_box = (n*pi*hbar/L)^2/(2 m_i); outside it the state is exactly 0.

    ``frame`` must agree with ``system`` on m_i and hbar (else ParameterError); both
    stay because the benchmark harness in ``perfbench/`` passes them separately.
    """
    if system.m_i != frame.m_i or system.hbar != frame.hbar:
        raise ParameterError("frame and system disagree on m_i or hbar")
    z = require_finite("z", z)
    t = require_finite("t", t)
    lo, hi = falling_box_window(n, box_length, frame, t)
    if z < lo or z > hi:
        return 0.0 + 0.0j
    z_prime = z - lo
    p_box = positive_result("box momentum n*pi*hbar/L", n * math.pi * frame.hbar / box_length)
    omega = finite_result(
        "omega'", checked_square("p_prime", p_box) / (2.0 * frame.m_i) / frame.hbar
    )
    amplitude = math.sqrt(2.0 / box_length) * math.sin(n * math.pi * z_prime / box_length)
    return amplitude * _stationary_image(-omega * t, frame, z_prime, t)


def box_eigenvalues(
    n: int, box_length: float, system: PhysicalSystem, z: float, t: float
) -> tuple[float, float]:
    """(p_n(t), E_n(z, t)) of the falling-box state for the stationary observer.

    The plane-wave eigenvalues of the box's free momentum p' = n*pi*hbar/L:
    p_n(t) = p' - m_i*(v + a*t) and E_n = p_n^2/(2 m_i) + m_i*a*z.
    """
    require_count("box quantum number", n, 1)
    require_positive("box length", box_length)
    p_box = positive_result("box momentum n*pi*hbar/L", n * math.pi * system.hbar / box_length)
    return momentum_eigenvalue(p_box, system, t), energy_eigenvalue(p_box, system, z, t)
