"""From-scratch Airy functions Ai, Bi, derivatives, and the negative zeros of Ai.

Everything here is double precision, built from two classical
representations of the solutions of y'' = x*y:

* large-|x| asymptotic expansions, exponential for x >> 0 and trigonometric
  for x << 0, truncated at the smallest term, with the coefficients u_k, v_k
  (DLMF 9.7.2) tabulated once at import;
* Taylor polynomials of the ODE about nodes spaced _ODE_STEP apart.

At import, every node k*_ODE_STEP on [-8, 8] gets the Taylor coefficients
of Ai and of Bi about it, cut after three successive terms at a step of
_ODE_STEP fall below 1e-19 of the node's |y| + |y'|.  Each table has one
seed and is marched one polynomial step at a time in the direction in
which the wanted solution is not recessive, so the recessive/dominant
dichotomy of Ai and Bi never amplifies errors: Ai is seeded by its
asymptotic value at 8 and marched down to -8; Bi is seeded by its exact
values at 0 and marched up to 8 and down to -8.

A call on (-8, 8) is then one table lookup and one Horner evaluation of
value and slope, a step of at most _ODE_STEP in the same stable direction:
Ai from the node above, Bi from the node below for x >= 0 and from the node
above for x < 0.  Calls with |x| >= 8 sum the asymptotic expansion.

Against scipy.special.airy on [-12, 12], including every node and the
points half a step from it (tests/test_airy.py), the absolute error of Ai
and Ai' stays below 1e-13 (measured 7.6e-15 and 1.4e-14), the error of Bi
and Bi' below 2e-13 * max(1, |value|) (measured 3.8e-14 and 7.4e-14; Bi(12)
is about 1e11, so an absolute bound on it means nothing), and the Wronskian
Ai*Bi' - Ai'*Bi within 1e-12 of 1/pi (measured 3.9e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, ParameterError

_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)

# Exact values at the origin: Ai(0) = 3**(-2/3)/Gamma(2/3),
# Ai'(0) = -3**(-1/3)/Gamma(1/3); Bi(0), Bi'(0) follow with a sqrt(3) factor.
AI_ZERO = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
AI_PRIME_ZERO = -1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
BI_ZERO = _SQRT3 * AI_ZERO
BI_PRIME_ZERO = -_SQRT3 * AI_PRIME_ZERO

# Band edges of the evaluation scheme.
_ASYM_POS = 8.0      # exponential asymptotics trusted from here up
_ASYM_NEG = -8.0     # trigonometric asymptotics trusted from here down
_ODE_STEP = 0.5

# exp(2/3 * x**1.5) overflows past this point; only Bi is affected.
_BI_OVERFLOW_X = (709.0 * 1.5) ** (2.0 / 3.0)
# exp(-2/3 * x**1.5) is zero past this point, and so are Ai and Ai'.
_AI_UNDERFLOW_X = (746.0 * 1.5) ** (2.0 / 3.0)
# Below this point the phase 2/3 * |x|**1.5 of the oscillatory expansion
# passes 2**53, where doubles are 2 apart, so no digit of Ai or Bi is left.
_PHASE_LOSS_X = -((1.5 * 2.0**53) ** (2.0 / 3.0))


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


def _check_arg(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"argument must be finite, got {x}")
    return x


# Terms tabulated per expansion.  For |x| >= 8 the cut in _asym_sums reads at
# most 40 of them (at x near 9.33; tests/test_airy.py replays the cut), so
# the sum always ends at a cut, never at the end of the table.
_ASYM_TERMS = 44


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
    """Oscillatory expansion for x <= -8, even/odd split in 1/xi."""
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
# _ODE_STEP**(n+2) that scales coefficient n+2 at the longest step.
_TAYLOR_TERMS = tuple(((n + 2.0) * (n + 1.0), _ODE_STEP ** (n + 2)) for n in range(60))


def _taylor(x0: float, y: float, yp: float) -> tuple[float, ...]:
    """Taylor coefficients about x0, highest first, of the solution of y'' = x*y.

    (y, yp) are its value and slope at x0.  The coefficients obey
    (n+2)(n+1)*c_{n+2} = x0*c_n + c_{n-1} with c_{-1} := 0, and are cut once
    three in a row fall below 1e-19 * (|y| + |yp|) at a step of _ODE_STEP.
    A single small one does not end the series: about x0 = 0 every third
    coefficient is zero.
    """
    c = [y, yp]
    cutoff = 1e-19 * (abs(y) + abs(yp) + 1e-300)
    before, current, after = 0.0, y, yp  # c_{n-1}, c_n, c_{n+1}
    small = 0
    for divisor, hn in _TAYLOR_TERMS:
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


def _node_table(
    seeds: dict[int, tuple[float, float]], marches: tuple[tuple[int, int], ...]
) -> tuple[tuple[float, ...], ...]:
    """Taylor polynomial at every node k*_ODE_STEP, k = -_NODES.._NODES.

    ``seeds`` maps k to a solution's (value, slope) at that node.  Each march
    (start, stop) fills the nodes after the seeded node ``start`` up to and
    including ``stop``, each by one step of the previous node's polynomial.
    """
    polys = {k: _taylor(k * _ODE_STEP, y, yp) for k, (y, yp) in seeds.items()}
    for start, stop in marches:
        step = 1 if stop > start else -1
        for k in range(start, stop, step):
            node = (k + step) * _ODE_STEP
            polys[k + step] = _taylor(node, *_horner(polys[k], step * _ODE_STEP))
    return tuple(polys[k] for k in range(-_NODES, _NODES + 1))


# Node k*_ODE_STEP is entry k + _NODES of each table, seeded and marched as
# the module docstring describes.
_NODES = round(_ASYM_POS / _ODE_STEP)
_AI_TABLE = _node_table({_NODES: _asym_pos_ai(_ASYM_POS)}, ((_NODES, -_NODES),))
_BI_TABLE = _node_table({0: (BI_ZERO, BI_PRIME_ZERO)}, ((0, _NODES), (0, -_NODES)))


def _eval_ai(x: float) -> tuple[float, float]:
    if x >= _ASYM_POS:
        return _asym_pos_ai(x)
    if x <= _ASYM_NEG:
        return _asym_neg(x)[:2]
    # From the node above: toward smaller x Ai grows (x > 0) or oscillates,
    # so the step runs in a stable direction.
    k = math.ceil(x / _ODE_STEP)
    return _horner(_AI_TABLE[k + _NODES], x - k * _ODE_STEP)


def _eval_bi(x: float) -> tuple[float, float]:
    if x >= _ASYM_POS:
        return _asym_pos_bi(x)
    if x <= _ASYM_NEG:
        return _asym_neg(x)[2:]
    # Bi grows with x for x > 0, so step up from the node below; below 0 it
    # oscillates, and the step runs down from the node above, as the march does.
    k = math.floor(x / _ODE_STEP) if x >= 0.0 else math.ceil(x / _ODE_STEP)
    return _horner(_BI_TABLE[k + _NODES], x - k * _ODE_STEP)


def airy_ai(x: float) -> float:
    """Ai(x); underflows gracefully to 0 for large positive x.

    Raises NumericError below about -5.7e10, where the phase (2/3)|x|^1.5 is
    past 2**53 and no digit is left; the same holds for Ai', Bi and Bi'.
    """
    return _eval_ai(_check_arg(x))[0]


def airy_ai_prime(x: float) -> float:
    """Ai'(x), the derivative used by Newton zero refinement and the tail identity."""
    return _eval_ai(_check_arg(x))[1]


def airy_bi(x: float) -> float:
    """Bi(x); raises NumericError where exp((2/3)x^1.5) overflows."""
    return _eval_bi(_check_arg(x))[0]


def airy_bi_prime(x: float) -> float:
    """Bi'(x); same overflow range as Bi."""
    return _eval_bi(_check_arg(x))[1]


def airy_values(x: float) -> AiryValue:
    """All four values at x as an :class:`AiryValue`."""
    x = _check_arg(x)
    ai, aip = _eval_ai(x)
    bi, bip = _eval_bi(x)
    return AiryValue(x=x, ai=ai, ai_prime=aip, bi=bi, bi_prime=bip)


def ai_negative_zero(n: int) -> float:
    """The n-th negative zero of Ai (n >= 1), accurate to better than 1e-10.

    Newton iteration from the asymptotic seed -(3*pi*(4n-1)/8)**(2/3); on
    1..50 it converges in at most 3 steps without leaving the bracket
    [seed-0.5, seed+0.5].  Raises NumericError if an iterate leaves that
    bracket, if Ai' vanishes at one, or if 50 steps do not converge.
    """
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise ParameterError(f"zero index must be an integer, got {n!r}")
    if n < 1 or n > 50:
        raise ParameterError(f"zero index must be in 1..50, got {n}")
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
    x = _check_arg(x)
    ai, aip = _eval_ai(x)
    return aip * aip - x * ai * ai
