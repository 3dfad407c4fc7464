"""Bound states of a particle above an infinite floor in a linear potential.

The potential is an infinite wall at z <= 0 plus V = F*z for z > 0 with
F = m_g*g.  In the dimensionless coordinate z_tilde = alpha*z, with
alpha = (2*m_i*F/hbar^2)**(1/3), the spatial equation becomes the Airy
equation and the spectrum is fixed by the negative zeros of Ai: the n-th
level has dimensionless energy E_tilde_n = -(n-th zero) and physical energy
E_n = E_tilde_n * (hbar^2 F^2 / (2 m_i))**(1/3).

Normalization constants and the probability of finding the particle beyond
its classical turning point are evaluated with the closed-form tail integral
of Ai^2 (see :func:`gravqm.airy.ai_squared_tail`); quadrature is used only as
a test oracle, so no truncation error enters the shipped numbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .airy import ai_negative_zero, ai_squared_tail, airy_ai
from .core import PhysicalSystem, checked_square, finite_result, positive_result
from .core import require_finite, require_positive
from .errors import ParameterError

__all__ = [
    "BouncerLevel",
    "alpha",
    "eigenfunction",
    "energy_scale",
    "level",
    "probability_outside",
    "stationary_state",
]


@dataclass(frozen=True)
class BouncerLevel:
    """One quantized level: index, energies, normalization, tail probability."""

    n: int
    e_tilde: float
    energy: float
    norm_const: float
    p_outside: float


def _force(system: PhysicalSystem) -> float:
    """F = m_g*g: ParameterError unless m_g, g > 0, NumericError where F under- or overflows."""
    force = require_positive("m_g", system.m_g) * require_positive("g", system.g)
    return positive_result("F = m_g*g", force)


def alpha(system: PhysicalSystem) -> float:
    """Inverse length scale (2*m_i*F/hbar^2)**(1/3) with F = m_g*g.

    Raises NumericError where F, hbar^2 or 2*m_i*F/hbar^2 under- or overflows.
    """
    force = _force(system)
    ratio = 2.0 * system.m_i * force / checked_square("hbar", system.hbar)
    return positive_result("2*m_i*F/hbar^2", ratio) ** (1.0 / 3.0)


def energy_scale(system: PhysicalSystem) -> float:
    """(hbar^2 F^2 / (2 m_i))**(1/3), the unit of the physical energies.

    Raises NumericError where F, hbar^2, F^2 or hbar^2 F^2 / (2 m_i) under- or overflows.
    """
    force = _force(system)
    cube = checked_square("hbar", system.hbar) * checked_square("m_g*g", force) / (2.0 * system.m_i)
    return positive_result("hbar^2 F^2 / (2 m_i)", cube) ** (1.0 / 3.0)


def probability_outside(n: int) -> float:
    """Probability of finding level n beyond its classical turning point.

    Ratio of tail integrals of Ai^2, from 0 and from the n-th negative zero;
    dimensionless, hence independent of the field strength.
    """
    e_tilde = -ai_negative_zero(n)
    return ai_squared_tail(0.0) / ai_squared_tail(-e_tilde)


def level(system: PhysicalSystem, n: int) -> BouncerLevel:
    """Fully populated level n of the given system."""
    e_tilde = -ai_negative_zero(n)
    tail = ai_squared_tail(-e_tilde)
    return BouncerLevel(
        n=n,
        e_tilde=e_tilde,
        energy=e_tilde * energy_scale(system),
        norm_const=math.sqrt(1.0 / tail),
        # the quotient probability_outside forms, bit for bit
        p_outside=ai_squared_tail(0.0) / tail,
    )


def eigenfunction(lvl: BouncerLevel, z_tilde: float) -> float:
    """Normalized spatial wave function A_n*Ai(z_tilde - E_tilde_n).

    Region I (z_tilde < 0) is behind the infinite wall; the value there is an
    exact 0, not a sampled one.  Raises ParameterError for a nan or infinite
    z_tilde, on either side of the wall.
    """
    if not 0.0 <= z_tilde < math.inf:
        if not -math.inf < z_tilde < 0.0:
            raise ParameterError(f"z_tilde must be finite, got {z_tilde}")
        return 0.0
    try:
        shifted = z_tilde - lvl.e_tilde
    except OverflowError:  # an int beyond double range
        raise ParameterError("z_tilde is beyond double range") from None
    return lvl.norm_const * airy_ai(shifted)


def stationary_state(
    lvl: BouncerLevel, z_tilde: float, t: float, system: PhysicalSystem
) -> complex:
    """Time-dependent stationary state chi_n(z_tilde)*exp(-i*E_n*t/hbar).

    Raises ParameterError for a non-finite t and NumericError where the phase
    E_n*t/hbar overflows.
    """
    phase = finite_result("phase E_n*t/hbar", lvl.energy * require_finite("t", t) / system.hbar)
    return eigenfunction(lvl, z_tilde) * cmath.exp(-1j * phase)
