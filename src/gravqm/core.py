"""Unit conventions, parameter bundles, grids, and the complex field container.

Two unit modes are supported and nothing is hard-coded:

* natural units: ``hbar = 1`` and a caller-chosen mass scale (use
  :func:`make_natural_system`), convenient for the dimensionless tables;
* SI units: the caller supplies CODATA constants explicitly, needed for
  neutron interferometry numbers.

Sign convention used everywhere: z increases upward, the uniform field acts
along -z (potential ``V = m_g * g * z``), and a positive frame acceleration
``a`` means the primed frame accelerates downward, so its coordinate is
``z' = z + v*t + a*t**2/2``.

numpy is bound here as ``np``, a module whose import runs at its first
attribute access (:func:`lazy_module`); ``frames``, ``dynamics`` and ``cli``
take ``np`` from here.  So the scalar commands (``airy``, ``bouncer``,
``cow``, ``redshift``) and ``import gravqm`` never run numpy's import, while
the first grid, field or propagation does.

Scalars are checked here, one helper per kind of check: :func:`require_finite`,
:func:`require_positive` and :func:`require_count` raise ParameterError for a bad
input, :func:`finite_result`, :func:`positive_result` and :func:`checked_square`
NumericError for a result out of double range.  A field's samples are checked
once, as a :class:`ComplexField` is built: a NaN or infinite one is a NumericError.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
from dataclasses import dataclass, field

from .errors import NumericError, ParameterError

__all__ = [
    "ComplexField",
    "Grid",
    "PhysicalSystem",
    "make_natural_system",
    "norm_squared",
]


def lazy_module(name: str):
    """The module ``name``, imported at its first attribute access.

    A module already in ``sys.modules`` is returned as it is.  Otherwise a
    lazy module (``importlib.util.LazyLoader``) is put there: its code runs
    at the first attribute access, after which it is an ordinary module, so
    later accesses cost nothing extra.

    On Python 3.10 and 3.11 that first access is not guarded by a lock: a
    thread that touches the module while another one runs its import may
    find it half initialised.  Callers that import the module themselves
    beforehand get the real module back and are not affected.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_module("numpy")

# Longest propagation a Grid describes; the demos and the reference run take 10^4 steps.
MAX_STEPS = 10**7
# Most points a Grid describes: 85 times the largest grid in use (12288), 16 MiB
# per complex field.  Checked before any array is built, so a larger count is a
# ParameterError rather than an error from numpy's allocation or index types.
MAX_POINTS = 2**20


def require_finite(name: str, value: float) -> float:
    """``float(value)``, or ParameterError for nan, an infinity or an integer
    beyond double range (where ``float`` raises OverflowError)."""
    try:
        value = float(value)
    except OverflowError:
        raise ParameterError(f"{name} is beyond double range") from None
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")
    return value


def require_positive(name: str, value: float) -> float:
    """:func:`require_finite`, and ParameterError unless the value is above zero."""
    value = require_finite(name, value)
    if not value > 0.0:
        raise ParameterError(f"{name} must be positive, got {value}")
    return value


def require_count(name: str, value: int, low: int, high: float = math.inf) -> int:
    """``operator.index(value)`` in low..high, or ParameterError; numpy ints pass, bools do not."""
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if not low <= count <= high:
        bound = f"at least {low}" if count < low else f"at most {high}"
        raise ParameterError(f"{name} must be {bound}, got {count}")
    return count


def finite_result(what: str, value: float) -> float:
    """value, or NumericError where it is not finite."""
    if not math.isfinite(value):
        raise NumericError(f"{what} = {value:g} is out of double range")
    return value


def positive_result(what: str, value: float) -> float:
    """value, or NumericError where a positive result under- or overflows: 0 < value < inf."""
    if not 0.0 < value < math.inf:
        raise NumericError(f"{what} = {value:g} is out of double range")
    return value


def checked_square(name: str, value: float) -> float:
    """value*value, or NumericError where a nonzero value does not square to a finite
    nonzero double (``value**2`` would raise OverflowError for a large float, and a
    tiny one squares to 0, which a later division turns into ZeroDivisionError)."""
    return positive_result(f"{name}^2", value * value) if value != 0.0 else 0.0


@dataclass(frozen=True)
class PhysicalSystem:
    """Masses, field strength, frame kinematics and Planck constant.

    ``m_i`` is the inertial mass, ``m_g`` the gravitational mass, ``g`` the
    local field strength, ``v`` and ``a`` the initial velocity and constant
    acceleration of the falling (primed) frame.
    """

    m_i: float
    m_g: float
    g: float = 0.0
    v: float = 0.0
    a: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m_i", "hbar"):
            require_positive(name, getattr(self, name))
        for name in ("m_g", "g", "v", "a"):
            require_finite(name, getattr(self, name))
        if self.m_g < 0:
            raise ParameterError(f"m_g must be non-negative, got {self.m_g}")

    @property
    def weight(self) -> float:
        """Force magnitude m_g*g, the slope of the linear potential, or NumericError past range."""
        return finite_result("weight m_g*g", self.m_g * self.g)

    def shift(self, t: float) -> float:
        """Coordinate offset v*t + a*t^2/2 between the falling and the stationary frame."""
        return self.v * t + 0.5 * self.a * t * t


def make_natural_system(mass_scale: float) -> PhysicalSystem:
    """Natural-unit system: hbar = 1, m_i = m_g = mass_scale, kinematics zeroed.

    The caller sets g, v, a afterwards (``dataclasses.replace`` works).
    """
    return PhysicalSystem(m_i=mass_scale, m_g=mass_scale, g=0.0, v=0.0, a=0.0, hbar=1.0)


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D spatial grid plus time-stepping parameters."""

    z_min: float
    z_max: float
    n_points: int
    dt: float = 0.0
    n_steps: int = 0
    _z: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z_min = require_finite("z_min", self.z_min)
        z_max = require_finite("z_max", self.z_max)
        dt = require_finite("dt", self.dt)
        n_points = require_count("n_points", self.n_points, 3, MAX_POINTS)
        n_steps = require_count("n_steps", self.n_steps, 0, MAX_STEPS)
        if z_max <= z_min:
            raise ParameterError("z_max must exceed z_min")
        if n_steps > 0 and dt <= 0:
            raise ParameterError("dt must be positive when n_steps > 0")
        positive_result("grid spacing dz", (z_max - z_min) / (n_points - 1))
        z = np.linspace(self.z_min, self.z_max, self.n_points)
        z.flags.writeable = False
        object.__setattr__(self, "_z", z)

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / (self.n_points - 1)

    @property
    def z(self) -> np.ndarray:
        """Grid coordinates (read-only view)."""
        return self._z

    @property
    def total_time(self) -> float:
        """dt * n_steps, or NumericError past double range."""
        return finite_result("total time dt*n_steps", self.dt * self.n_steps)


@dataclass(frozen=True)
class ComplexField:
    """A complex wave function sampled on a uniform grid.

    Instances are immutable: the sample array is copied in and marked
    read-only, so fields can be shared freely between threads.  Samples of the
    wrong shape are a ParameterError, then a NaN or infinite one a NumericError,
    so an operation that builds a field lets its arithmetic overflow quietly.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise ParameterError(
                f"values must have shape ({self.grid.n_points},), got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise NumericError("field contains NaN or infinite samples")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def normalized(self) -> "ComplexField":
        """Rescaled copy with unit norm, or NumericError for a zero field.

        The samples, finite as every field's are, are first divided by their
        largest real or imaginary part, so a field whose norm^2 is beyond
        double range normalizes as the same field at unit peak does.
        """
        values = self.values
        peak = max(float(np.max(np.abs(values.real))), float(np.max(np.abs(values.imag))))
        if peak == 0.0:
            raise NumericError("cannot normalize a zero field")
        unit = values / peak
        n2 = positive_result("norm^2 at unit peak", _trapezoid_norm_squared(unit, self.grid.dz))
        return ComplexField(self.grid, unit / math.sqrt(n2))


def _trapezoid_norm_squared(values: np.ndarray, dz: float) -> float:
    with np.errstate(over="ignore"):  # an overflow gives inf, which the callers report
        return float(np.trapezoid(np.abs(values) ** 2, dx=dz))


def norm_squared(f: ComplexField) -> float:
    """Trapezoidal integral of |psi|^2 over the grid, or NumericError where it overflows."""
    return finite_result("norm^2", _trapezoid_norm_squared(f.values, f.grid.dz))
