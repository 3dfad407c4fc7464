"""Quantum mechanics in a uniform gravitational field.

Analytic falling-frame transformations of the wave function, the linear
potential ("quantum bouncer") spectrum built on from-scratch Airy functions,
interferometric phase shifts and frequency/redshift relations, and a
Crank-Nicolson propagator that cross-checks every analytic result
numerically.
"""

__version__ = "0.1.0"

from . import airy, bouncer, core, dynamics, errors, frames
from .airy import *
from .bouncer import *
from .core import *
from .dynamics import *
from .errors import *
from .frames import *

__all__ = (
    airy.__all__
    + bouncer.__all__
    + core.__all__
    + dynamics.__all__
    + errors.__all__
    + frames.__all__
)
