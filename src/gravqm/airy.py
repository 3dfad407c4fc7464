"""From-scratch Airy functions Ai, Bi, derivatives, and the negative zeros of Ai.

Everything here is double precision, built from two classical
representations of the solutions of y'' = x*y:

* large-|x| asymptotic expansions, exponential for x >> 0 and trigonometric
  for x << 0, truncated at the smallest term, with the coefficients u_k, v_k
  (DLMF 9.7.2) tabulated once at import;
* Taylor polynomials of the ODE about the centres of cells _CELL = 0.25 wide.

The Taylor band is (-26, 12), so it holds the arguments of the bouncer
eigenfunctions chi_1..chi_20 (E_20 = 25.67).  At the first evaluation on the
band, each of its 152 cells [j, j+1)*_CELL gets the Taylor coefficients of
Ai and of Bi about its centre, cut after three successive terms at the
radius _CELL/2 fall below 1e-19 of the centre's |y| + |y'|: 16 to 21
coefficients (18.4 on average for Ai, 18.7 for Bi).  Each table has one seed
and is marched cell to cell, each centre's value and slope one Horner step
of the polynomial before it, in the direction in which the wanted solution
is not recessive, so the recessive/dominant dichotomy of Ai and Bi never
amplifies errors: Ai is seeded by its asymptotic value at 12 and marched
down to -26; Bi is seeded by its exact values at 0 and marched up to 12 and
down to -26.  The whole build takes 1.2 ms (median of 12 processes, best of
15 builds each; 2-core Intel Xeon, Python 3.11), so it waits for the first
call that reads a table: importing the package, and commands that never
evaluate Ai or Bi, do not pay for it.

A call on (-26, 12) is then one table lookup and one Horner evaluation of
value and slope: Ai and Bi both read cell floor(x/_CELL) and step at most
_CELL/2 from its centre.  Calls with x >= 12 or x <= -26 sum the asymptotic
expansion.  :func:`airy_ai` runs the same Horner step on the value alone,
which never reads the slope, so on (-26, 12) it returns exactly
``airy_values(x).ai`` at about half the cost; past the band it takes the
value of the full expansion.

Against scipy.special.airy on [-30, 30], densely on the band and on both
asymptotic branches, including every cell boundary and the points 1e-9
either side of them (tests/test_airy.py), the absolute error of Ai stays
below 1.6e-14 and that of Ai' below 8e-14 (measured 7.8e-15 and 4.1e-14),
the error of Bi below 7e-14 * max(1, |value|) and that of Bi' below
1.5e-13 * max(1, |value|) (measured 3.5e-14 and 7.3e-14; Bi(12) is about
1e11, so an absolute bound on it means nothing), and the Wronskian
Ai*Bi' - Ai'*Bi within 3.2e-15 of 1/pi (measured 1.6e-15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import require_count, require_finite
from .errors import NumericError

__all__ = [
    "AiryValue",
    "ai_negative_zero",
    "ai_squared_tail",
    "airy_ai",
    "airy_ai_prime",
    "airy_bi",
    "airy_bi_prime",
    "airy_values",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)

# Exact values at the origin: Ai(0) = 3**(-2/3)/Gamma(2/3),
# Ai'(0) = -3**(-1/3)/Gamma(1/3); Bi(0), Bi'(0) follow with a sqrt(3) factor.
AI_ZERO = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
AI_PRIME_ZERO = -1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
BI_ZERO = _SQRT3 * AI_ZERO
BI_PRIME_ZERO = -_SQRT3 * AI_PRIME_ZERO

# Band edges of the evaluation scheme.
_ASYM_POS = 12.0     # exponential asymptotics trusted from here up
_ASYM_NEG = -26.0    # trigonometric asymptotics trusted from here down
_CELL = 0.25         # width of a table cell, and the step of the marches

# exp(2/3 * x**1.5) overflows past this point; only Bi is affected.
_BI_OVERFLOW_X = (709.0 * 1.5) ** (2.0 / 3.0)
# exp(-2/3 * x**1.5) is zero past this point, and so are Ai and Ai'.
_AI_UNDERFLOW_X = (746.0 * 1.5) ** (2.0 / 3.0)
# Below this point the phase 2/3 * |x|**1.5 of the oscillatory expansion
# passes 2**53, where doubles are 2 apart, so no digit of Ai or Bi is left.
_PHASE_LOSS_X = -((1.5 * 2.0**53) ** (2.0 / 3.0))

# Highest zero index ai_negative_zero takes: its Newton bracket was measured on
# 1..MAX_ZERO_INDEX, which also bounds the bouncer levels built on the zeros.
MAX_ZERO_INDEX = 50


@dataclass(frozen=True)
class AiryValue:
    """Ai, Ai', Bi, Bi' at a single real argument."""

    x: float
    ai: float
    ai_prime: float
    bi: float
    bi_prime: float

    def wronskian(self) -> float:
        """Ai*Bi' - Ai'*Bi; identically 1/pi for the exact functions."""
        return self.ai * self.bi_prime - self.ai_prime * self.bi


# Terms tabulated per expansion.  Past the band edges the cut in _asym_sums
# reads at most 19 of them (at x = 12; tests/test_airy.py replays the cut), so
# the sum always ends at a cut, never at the end of the table.
_ASYM_TERMS = 22


def _asym_terms(sign) -> tuple[tuple[bool, float, float], ...]:
    """(k odd, sign(k)*u_k, sign(k)*v_k) for k = 1.._ASYM_TERMS.

    u_k = u_{k-1} (6k-5)(6k-1)/(72k) with u_0 = 1, and v_k = -u_k (6k+1)/(6k-1).
    """
    terms = []
    u = 1.0
    for k in range(1, _ASYM_TERMS + 1):
        u *= (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        su = sign(k) * u
        terms.append((k % 2 == 1, su, -su * (6 * k + 1) / (6 * k - 1)))
    return tuple(terms)


# The three expansions differ only in the sign of term k: Ai for x >> 0
# alternates, Bi for x >> 0 does not, and the oscillatory pair for x << 0
# alternates in pairs (its even and odd terms form two series).
_AI_POS_TERMS = _asym_terms(lambda k: (-1.0) ** k)
_BI_POS_TERMS = _asym_terms(lambda k: 1.0)
_NEG_TERMS = _asym_terms(lambda k: (-1.0) ** (k // 2))


def _asym_sums(
    zinv: float, terms: tuple[tuple[bool, float, float], ...]
) -> tuple[float, float, float, float]:
    """Sums of the signed u_k*zinv^k and v_k*zinv^k, split by the parity of k.

    Returns (even u, odd u, even v, odd v); the even sums include the k = 0
    term 1.  The series is cut before its terms stop shrinking, or after a
    term below 1e-18.
    """
    eu, ou, ev, ov = 1.0, 0.0, 1.0, 0.0
    power = 1.0
    prev = math.inf
    for odd, u, v in terms:
        power *= zinv
        tu = u * power
        size = abs(tu)
        if size >= prev:
            break
        if odd:
            ou += tu
            ov += v * power
        else:
            eu += tu
            ev += v * power
        if size < 1e-18:
            break
        prev = size
    return eu, ou, ev, ov


def _asym_pos_ai(x: float) -> tuple[float, float]:
    if x > _AI_UNDERFLOW_X:
        return 0.0, -0.0
    zeta = (2.0 / 3.0) * x**1.5
    eu, ou, ev, ov = _asym_sums(1.0 / zeta, _AI_POS_TERMS)
    x4 = x**0.25
    damp = math.exp(-zeta)
    return damp * (eu + ou) / (2.0 * _SQRT_PI * x4), -x4 * damp * (ev + ov) / (2.0 * _SQRT_PI)


def _asym_pos_bi(x: float) -> tuple[float, float]:
    if x > _BI_OVERFLOW_X:
        raise NumericError(f"Bi({x:g}) overflows double precision")
    zeta = (2.0 / 3.0) * x**1.5
    eu, ou, ev, ov = _asym_sums(1.0 / zeta, _BI_POS_TERMS)
    x4 = x**0.25
    grow = math.exp(zeta)
    return grow * (eu + ou) / (_SQRT_PI * x4), x4 * grow * (ev + ov) / _SQRT_PI


def _asym_neg(x: float) -> tuple[float, float, float, float]:
    """Oscillatory expansion for x <= _ASYM_NEG, even/odd split in 1/xi."""
    if x < _PHASE_LOSS_X:
        raise NumericError(f"Airy functions at {x:g} are beyond double precision: phase lost")
    big_x = -x
    xi = (2.0 / 3.0) * big_x**1.5
    pu, qu, pv, qv = _asym_sums(1.0 / xi, _NEG_TERMS)
    c = math.cos(xi + math.pi / 4.0)
    s = math.sin(xi + math.pi / 4.0)
    x4 = big_x**0.25
    ai = (s * pu - c * qu) / (_SQRT_PI * x4)
    aip = -(c * pv + s * qv) * x4 / _SQRT_PI
    bi = (c * pu + s * qu) / (_SQRT_PI * x4)
    bip = (s * pv - c * qv) * x4 / _SQRT_PI
    return ai, aip, bi, bip


# Per term n of the Taylor recurrence: its divisor (n+2)(n+1) and the power
# (_CELL/2)**(n+2) that scales coefficient n+2 at the longest step a call takes.
_RECURRENCE = tuple(((n + 2.0) * (n + 1.0), (_CELL / 2.0) ** (n + 2)) for n in range(60))


def _taylor(x0: float, y: float, yp: float) -> tuple[float, ...]:
    """Taylor coefficients about x0, highest first, of the solution of y'' = x*y.

    (y, yp) are its value and slope at x0.  The coefficients obey
    (n+2)(n+1)*c_{n+2} = x0*c_n + c_{n-1} with c_{-1} := 0, and are cut once
    three in a row fall below 1e-19 * (|y| + |yp|) at the radius _CELL/2.  A
    single small one does not end the series: about x0 = 0 every third
    coefficient is zero.
    """
    c = [y, yp]
    cutoff = 1e-19 * (abs(y) + abs(yp) + 1e-300)
    before, current, after = 0.0, y, yp  # c_{n-1}, c_n, c_{n+1}
    small = 0
    for divisor, hn in _RECURRENCE:
        before, current, after = current, after, (x0 * current + before) / divisor
        c.append(after)
        if abs(after) * hn < cutoff:
            small += 1
            if small == 3:
                break
        else:
            small = 0
    return tuple(reversed(c))


def _horner(coeffs: tuple[float, ...], h: float) -> tuple[float, float]:
    """Value and derivative at offset h of a polynomial given highest coefficient first."""
    y = d = 0.0
    for c in coeffs:
        d = d * h + y
        y = y * h + c
    return y, d


def _march(x: float, y: float, yp: float, stop: float) -> tuple[tuple[float, ...], ...]:
    """Taylor polynomial about the centre of every cell between the edges x and stop,
    in increasing order of the cells, for the solution with value y and slope yp at x.

    The march runs from x towards stop: the first centre's value and slope
    come from a half-cell step of the polynomial about x, and each later
    centre's from a whole-cell step of the polynomial before it.
    """
    step = _CELL if stop > x else -_CELL
    poly, h = _taylor(x, y, yp), step / 2.0
    cells = []
    for _ in range(round(abs(stop - x) / _CELL)):
        x += h
        poly = _taylor(x, *_horner(poly, h))
        cells.append(poly)
        h = step
    return tuple(cells) if step > 0.0 else tuple(reversed(cells))


# The cells [j, j+1)*_CELL of the band, j from _CELL_LO up, each hold the
# Taylor polynomial of Ai and of Bi about their centre, marched as the module
# docstring describes.
_CELL_LO = round(_ASYM_NEG / _CELL)


def _build_cells() -> None:
    """Bind _AI_CELLS and _BI_CELLS to the tuples of cell polynomials."""
    global _AI_CELLS, _BI_CELLS
    _AI_CELLS = _march(_ASYM_POS, *_asym_pos_ai(_ASYM_POS), _ASYM_NEG)
    _BI_CELLS = (_march(0.0, BI_ZERO, BI_PRIME_ZERO, _ASYM_NEG)
                 + _march(0.0, BI_ZERO, BI_PRIME_ZERO, _ASYM_POS))


class _Unbuilt:
    """Stands in for a cell table until its first lookup, which builds both.

    The build rebinds the module names to the tuples, so every later lookup
    indexes a tuple: a call on the band pays nothing for the late build.
    """

    def __init__(self, name: str):
        self.name = name

    def __getitem__(self, j: int) -> tuple[float, ...]:
        _build_cells()
        return globals()[self.name][j]


_AI_CELLS = _Unbuilt("_AI_CELLS")
_BI_CELLS = _Unbuilt("_BI_CELLS")


def _eval_ai(x: float) -> tuple[float, float]:
    if x >= _ASYM_POS:
        return _asym_pos_ai(x)
    if x <= _ASYM_NEG:
        return _asym_neg(x)[:2]
    j = math.floor(x / _CELL)
    return _horner(_AI_CELLS[j - _CELL_LO], x - (j + 0.5) * _CELL)


def _eval_ai_value(x: float) -> float:
    """``_eval_ai(x)[0]``; on the table by Horner on the value alone."""
    if not _ASYM_NEG < x < _ASYM_POS:
        return _eval_ai(x)[0]
    j = math.floor(x / _CELL)
    h = x - (j + 0.5) * _CELL
    y = 0.0
    for c in _AI_CELLS[j - _CELL_LO]:
        y = y * h + c
    return y


def _eval_bi(x: float) -> tuple[float, float]:
    if x >= _ASYM_POS:
        return _asym_pos_bi(x)
    if x <= _ASYM_NEG:
        return _asym_neg(x)[2:]
    j = math.floor(x / _CELL)
    return _horner(_BI_CELLS[j - _CELL_LO], x - (j + 0.5) * _CELL)


def airy_ai(x: float) -> float:
    """Ai(x); underflows gracefully to 0 for large positive x.

    Raises NumericError below about -5.7e10, where the phase (2/3)|x|^1.5 is
    past 2**53 and no digit is left; the same holds for Ai', Bi and Bi'.
    """
    return _eval_ai_value(require_finite("argument", x))


def airy_ai_prime(x: float) -> float:
    """Ai'(x), the derivative used by Newton zero refinement and the tail identity."""
    return _eval_ai(require_finite("argument", x))[1]


def airy_bi(x: float) -> float:
    """Bi(x); raises NumericError where exp((2/3)x^1.5) overflows."""
    return _eval_bi(require_finite("argument", x))[0]


def airy_bi_prime(x: float) -> float:
    """Bi'(x); same overflow range as Bi."""
    return _eval_bi(require_finite("argument", x))[1]


def airy_values(x: float) -> AiryValue:
    """All four values at x as an :class:`AiryValue`."""
    x = require_finite("argument", x)
    ai, aip = _eval_ai(x)
    bi, bip = _eval_bi(x)
    return AiryValue(x=x, ai=ai, ai_prime=aip, bi=bi, bi_prime=bip)


def ai_negative_zero(n: int) -> float:
    """The n-th negative zero of Ai (n >= 1), accurate to better than 1e-10.

    Newton iteration from the asymptotic seed -(3*pi*(4n-1)/8)**(2/3); on
    1..MAX_ZERO_INDEX it converges in at most 3 steps without leaving the bracket
    [seed-0.5, seed+0.5].  Raises NumericError if an iterate leaves that
    bracket, if Ai' vanishes at one, or if 50 steps do not converge.
    """
    n = require_count("zero index", n, 1, MAX_ZERO_INDEX)
    seed = -((3.0 * math.pi * (4.0 * n - 1.0) / 8.0) ** (2.0 / 3.0))
    x = seed
    for _ in range(50):
        ai, aip = _eval_ai(x)
        if aip == 0.0:
            break
        step = ai / aip
        x -= step
        if not abs(x - seed) <= 0.5:
            break
        if abs(step) <= 1e-13 * (1.0 + abs(x)):
            return x
    raise NumericError(f"Newton refinement of zero index {n} failed near {x:g}")


def ai_squared_tail(x: float) -> float:
    """Closed form of the tail integral of Ai^2 from x to infinity.

    Uses the identity d/dx [Ai'(x)^2 - x*Ai(x)^2] = -Ai(x)^2 together with
    decay at +infinity, so the integral equals Ai'(x)^2 - x*Ai(x)^2.
    """
    x = require_finite("argument", x)
    ai, aip = _eval_ai(x)
    return aip * aip - x * ai * ai
