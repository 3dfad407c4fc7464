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

Everything downstream of the map is also here: plane-wave momentum/energy
eigenvalues for the stationary observer, the interferometric phase shift
proportional to the enclosed beam area, the frequency shift between detectors
at different heights (the redshift once an effective mass hbar*omega'/c^2 is
inserted), the Galilean limit a = 0, and the falling-box eigenstates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import ComplexField, PhysicalSystem, checked_square, np
from .errors import NumericError, ParameterError


@dataclass(frozen=True)
class FrameTransform:
    """Parameters of the falling-frame map: v, a, inertial mass, hbar."""

    v: float
    a: float
    m_i: float
    hbar: float

    def __post_init__(self):
        for name in ("v", "a", "m_i", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.m_i <= 0 or self.hbar <= 0:
            raise ParameterError("m_i and hbar must be positive")

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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be positive and finite")

    @property
    def area(self) -> float:
        """Enclosed beam area, height times horizontal length."""
        return self.height * self.horizontal_length


@dataclass(frozen=True)
class PlaneWaveState:
    """Free plane wave in the falling frame: momentum p' and frequency omega'."""

    p_prime: float
    omega_prime: float

    @classmethod
    def from_momentum(cls, p_prime: float, system: PhysicalSystem) -> "PlaneWaveState":
        """Build with the free dispersion hbar*omega' = p'^2/(2 m_i)."""
        p_sq = checked_square("p_prime", p_prime)
        return cls(p_prime=p_prime, omega_prime=p_sq / (2.0 * system.m_i * system.hbar))

    def dispersion_residual(self, system: PhysicalSystem) -> float:
        """Relative violation of hbar*omega' = p'^2/(2 m_i)."""
        kinetic = checked_square("p_prime", self.p_prime) / (2.0 * system.m_i)
        scale = max(abs(kinetic), abs(system.hbar * self.omega_prime), 1e-300)
        return abs(system.hbar * self.omega_prime - kinetic) / scale


def phase_s(ft: FrameTransform, z_prime, t_prime):
    """Phase S(z', t') of the map, in falling-frame coordinates.

    S = -(m_i*v/hbar)*(z' - v*t'/2) - (m_i*a*t'/hbar)*(z' - v*t' - a*t'^2/3).
    Accepts scalars or numpy arrays.
    """
    m_over_h = ft.m_i / ft.hbar
    term_v = -m_over_h * ft.v * (z_prime - 0.5 * ft.v * t_prime)
    term_a = -m_over_h * ft.a * t_prime * (
        z_prime - ft.v * t_prime - ft.a * t_prime**2 / 3.0
    )
    return term_v + term_a


def to_stationary_frame(ft: FrameTransform, psi_free: ComplexField, t: float) -> ComplexField:
    """Phase-multiply a free-frame field into the stationary frame at time t.

    ``psi_free`` must already be sampled at the shifted coordinate
    z + v*t + a*t^2/2 on the stationary grid (the caller performs the shift;
    see :func:`gravqm.dynamics.shift_field`).  The factor has unit modulus,
    so |Psi|^2 is preserved sample by sample.
    """
    phase = phase_s(ft, psi_free.grid.z + ft.shift(t), t)
    return ComplexField(psi_free.grid, psi_free.values * np.exp(1j * phase))


def galilean_boost(ft: FrameTransform, psi_free: ComplexField, t: float) -> ComplexField:
    """The a = 0 limit of the map: a pure Galilean boost phase.

    Provided as a named operation so the inertial-frames limit is directly
    testable; it shares the code path of :func:`to_stationary_frame`.
    """
    if ft.a != 0.0:
        raise ParameterError(f"galilean_boost requires a = 0, got a = {ft.a}")
    return to_stationary_frame(ft, psi_free, t)


def plane_wave_stationary(pw: PlaneWaveState, ft: FrameTransform, z, t):
    """Stationary-frame image of the free plane wave exp(i(k'z' - w't')).

    The full phase, with p' = hbar*k':

        (1/hbar) * [ (p' - m_i v) z - (p'^2/(2 m_i) - v (p' - m_i v/2)) t
                     - m_i a t z + (a t^2/2)(p' - m_i v - m_i a t/3) ].

    Not normalizable; evaluated pointwise only.
    """
    m, v, a, hbar = ft.m_i, ft.v, ft.a, ft.hbar
    p = pw.p_prime
    phase = (
        (p - m * v) * z
        - (p * p / (2.0 * m) - v * (p - 0.5 * m * v)) * t
        - m * a * t * z
        + 0.5 * a * t * t * (p - m * v - m * a * t / 3.0)
    ) / hbar
    if np.ndim(phase) == 0:
        return cmath.exp(1j * float(phase))
    return np.exp(1j * phase)


def momentum_eigenvalue(pw: PlaneWaveState, ft: FrameTransform, t: float) -> float:
    """Momentum seen by the stationary observer: p(t) = p' - m_i*(v + a*t)."""
    return pw.p_prime - ft.m_i * (ft.v + ft.a * t)


def energy_eigenvalue(
    pw: PlaneWaveState, ft: FrameTransform, system: PhysicalSystem, z: float, t: float
) -> float:
    """Energy seen by the stationary observer: E = p(t)^2/(2 m_i) + m_i*a*z."""
    if system.m_i != ft.m_i or system.hbar != ft.hbar:
        raise ParameterError("transform and system disagree on m_i or hbar")
    p = momentum_eigenvalue(pw, ft, t)
    return p * p / (2.0 * ft.m_i) + ft.m_i * ft.a * z


def frequency_shift(system: PhysicalSystem, z: float) -> float:
    """Angular frequency difference between detectors separated by height z.

    Delta_omega = m_i*a*z/hbar, independent of time.  Substituting the
    effective mass hbar*omega'/c^2 of a quantum of energy hbar*omega' turns
    the ratio Delta_omega/omega' into a*z/c^2, the redshift formula; that
    substitution imports a relativistic relation and is left to the caller.
    """
    if not math.isfinite(z):
        raise ParameterError(f"z must be finite, got {z}")
    return system.m_i * system.a * z / system.hbar


def cow_phase_shift(geom: InterferometerGeometry, system: PhysicalSystem) -> float:
    """Interferometric phase shift m_i^2 * a * lambda * A / (2*pi*hbar^2).

    A is the enclosed beam area; set a = g for equal masses.  Radians.
    Raises NumericError where 2*pi*hbar^2 or m_i^2 under- or overflows.
    """
    denominator = 2.0 * math.pi * system.hbar * system.hbar
    if not 0.0 < denominator < math.inf:
        raise NumericError(f"2*pi*hbar^2 = {denominator:g} is out of range")
    m_sq = checked_square("m_i", system.m_i)
    return m_sq * system.a * geom.wavelength * geom.area / denominator


def cow_phase_shift_time_route(geom: InterferometerGeometry, system: PhysicalSystem) -> float:
    """Same phase shift computed as |m_i*a*t*z/hbar| with t = d/v_h.

    The traversal time uses the horizontal velocity v_h = 2*pi*hbar/(m_i*lambda).
    Kept as a separate route so the algebraic identity with
    :func:`cow_phase_shift` can be checked rather than assumed.  Raises
    NumericError where m_i*lambda under- or overflows, so that v_h has no
    finite nonzero value and the route none either.
    """
    m_lambda = system.m_i * geom.wavelength
    v_h = 2.0 * math.pi * system.hbar / m_lambda if m_lambda > 0.0 else math.inf
    if not 0.0 < v_h < math.inf:
        raise NumericError(f"horizontal velocity 2*pi*hbar/(m_i*lambda) = {v_h:g} is out of range")
    t = geom.horizontal_length / v_h
    return abs(system.m_i * system.a * t * geom.height / system.hbar)


def _check_box(n: int, box_length: float) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ParameterError(f"box quantum number must be a positive integer, got {n!r}")
    if not (math.isfinite(box_length) and box_length > 0):
        raise ParameterError(f"box length must be positive, got {box_length}")


def falling_box_window(n: int, box_length: float, ft: FrameTransform, t: float) -> tuple[float, float]:
    """Instantaneous support [-v*t - a*t^2/2, L - v*t - a*t^2/2] of the box."""
    _check_box(n, box_length)
    lo = -ft.shift(t)
    return lo, box_length + lo


def falling_box_state(
    n: int,
    box_length: float,
    ft: FrameTransform,
    system: PhysicalSystem,
    z: float,
    t: float,
) -> complex:
    """Stationary-frame eigenstate of a rigid box in free fall.

    Inside the falling window the state is sqrt(2/L)*sin(n*pi*(z+v*t+a*t^2/2)/L)
    times a phase collecting the box kinetic term (n*pi*hbar/L)^2/(2 m_i), the
    boost energy m_i*v^2/2 and the field term m_i*a*(z + v*t/2 + a*t^2/6);
    outside the window it is exactly 0.
    """
    if system.m_i != ft.m_i or system.hbar != ft.hbar:
        raise ParameterError("transform and system disagree on m_i or hbar")
    lo, hi = falling_box_window(n, box_length, ft, t)
    if z < lo or z > hi:
        return 0.0 + 0.0j
    m, v, a, hbar = ft.m_i, ft.v, ft.a, ft.hbar
    amplitude = math.sqrt(2.0 / box_length) * math.sin(
        n * math.pi * (z - lo) / box_length
    )
    kinetic = (n * math.pi * hbar / box_length) ** 2 / (2.0 * m)
    phase = -(
        m * v * z
        + t * (kinetic + 0.5 * m * v * v + m * a * (z + 0.5 * v * t + a * t * t / 6.0))
    ) / hbar
    return amplitude * cmath.exp(1j * phase)


def box_eigenvalues(
    n: int,
    box_length: float,
    ft: FrameTransform,
    system: PhysicalSystem,
    z: float,
    t: float,
) -> tuple[float, float]:
    """(p_n(t), E_n(z, t)) of the falling-box state for the stationary observer.

    p_n(t) = n*pi*hbar/L - m_i*(v + a*t) and E_n = p_n^2/(2 m_i) + m_i*a*z.
    """
    _check_box(n, box_length)
    if system.m_i != ft.m_i or system.hbar != ft.hbar:
        raise ParameterError("transform and system disagree on m_i or hbar")
    p_n = n * math.pi * ft.hbar / box_length - ft.m_i * (ft.v + ft.a * t)
    e_n = p_n * p_n / (2.0 * ft.m_i) + ft.m_i * ft.a * z
    return p_n, e_n
