"""From-scratch Airy functions Ai, Bi, derivatives, and the negative zeros of Ai.

Everything here is double precision, built from three classical
representations of the solutions of y'' = x*y:

* Maclaurin series (the two auxiliary series f, g with 3-term recurrences)
  on the central band, where they are free of harmful cancellation;
* large-|x| asymptotic expansions, exponential for x >> 0 and trigonometric
  for x << 0, truncated at the smallest term, with the coefficients u_k, v_k
  (DLMF 9.7.2) tabulated once at import;
* Taylor-step analytic continuation of the ODE between those bands, always
  run in the direction in which the wanted solution is non-recessive, so the
  recessive/dominant dichotomy of Ai and Bi never amplifies errors.

The continuation is tabulated once at import, at every node spaced _ODE_STEP
apart: Ai marched down from 8 to 3.5, Ai and Bi down from -5 to -8, Bi up
from 5 to 8.  A call in one of those bands takes a single Taylor step of at
most _ODE_STEP from the adjacent node on the side the march comes from, so it
inherits the march's stable direction.

Against scipy.special.airy on [-12, 12], including every band edge and node
(tests/test_airy.py), the absolute error of Ai and Ai' stays below 1e-13,
the error of Bi and Bi' below 2e-13 * max(1, |value|) (Bi(12) is about 1e11,
so an absolute bound on it means nothing), and the Wronskian Ai*Bi' - Ai'*Bi
within 1e-12 of 1/pi.
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
_SERIES_HI = 3.5     # Maclaurin upper edge (Ai cancellation grows beyond)
_SERIES_LO = -5.0
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


def _maclaurin(x: float) -> tuple[float, float, float, float]:
    """Power series about 0 for all four values; reliable on [-5, 3.5]."""
    if x == 0.0:
        return AI_ZERO, AI_PRIME_ZERO, BI_ZERO, BI_PRIME_ZERO
    x3 = x * x * x
    f, fp = 1.0, 0.0
    g, gp = x, 1.0
    tf, tg = 1.0, x
    for k in range(1, 300):
        # f-term ratio x^3/((3k)(3k-1)), g-term ratio x^3/((3k+1)(3k))
        tf *= x3 / ((3 * k) * (3 * k - 1))
        tg *= x3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        fp += tf * (3 * k) / x
        gp += tg * (3 * k + 1) / x
        if abs(tf) < 1e-18 * (abs(f) + 1.0) and abs(tg) < 1e-18 * (abs(g) + 1.0):
            break
    ai = AI_ZERO * f + AI_PRIME_ZERO * g
    aip = AI_ZERO * fp + AI_PRIME_ZERO * gp
    bi = _SQRT3 * (AI_ZERO * f - AI_PRIME_ZERO * g)
    bip = _SQRT3 * (AI_ZERO * fp - AI_PRIME_ZERO * gp)
    return ai, aip, bi, bip


def _asym_coefficient_table() -> tuple[tuple[int, float, float], ...]:
    """(k, u_k, v_k) for k = 1..79, from u_k = u_{k-1} (6k-5)(6k-1)/(72k)."""
    table = []
    u = 1.0
    for k in range(1, 80):
        u *= (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        table.append((k, u, -u * (6 * k + 1) / (6 * k - 1)))
    return tuple(table)


_ASYM_COEFFICIENTS = _asym_coefficient_table()


def _asym_coefficients(zinv: float):
    """Yield (k, u_k * zinv^k, v_k * zinv^k) until the terms stop shrinking."""
    prev = math.inf
    for k, u, v in _ASYM_COEFFICIENTS:
        zk = zinv**k
        tu = u * zk
        if abs(tu) >= prev:
            return
        yield k, tu, v * zk
        if abs(tu) < 1e-18:
            return
        prev = abs(tu)


def _asym_pos_ai(x: float) -> tuple[float, float]:
    if x > _AI_UNDERFLOW_X:
        return 0.0, -0.0
    zeta = (2.0 / 3.0) * x**1.5
    su, sv = 1.0, 1.0
    for k, tu, tv in _asym_coefficients(1.0 / zeta):
        sgn = -1.0 if k % 2 else 1.0
        su += sgn * tu
        sv += sgn * tv
    x4 = x**0.25
    damp = math.exp(-zeta)
    return damp * su / (2.0 * _SQRT_PI * x4), -x4 * damp * sv / (2.0 * _SQRT_PI)


def _asym_pos_bi(x: float) -> tuple[float, float]:
    if x > _BI_OVERFLOW_X:
        raise NumericError(f"Bi({x:g}) overflows double precision")
    zeta = (2.0 / 3.0) * x**1.5
    su, sv = 1.0, 1.0
    for _, tu, tv in _asym_coefficients(1.0 / zeta):
        su += tu
        sv += tv
    x4 = x**0.25
    grow = math.exp(zeta)
    return grow * su / (_SQRT_PI * x4), x4 * grow * sv / _SQRT_PI


def _asym_neg(x: float) -> tuple[float, float, float, float]:
    """Oscillatory expansion for x <= -8, even/odd split in 1/xi."""
    if x < _PHASE_LOSS_X:
        raise NumericError(f"Airy functions at {x:g} are beyond double precision: phase lost")
    big_x = -x
    xi = (2.0 / 3.0) * big_x**1.5
    pu, qu, pv, qv = 1.0, 0.0, 1.0, 0.0
    for k, tu, tv in _asym_coefficients(1.0 / xi):
        if k % 2 == 0:
            sgn = -1.0 if (k // 2) % 2 else 1.0
            pu += sgn * tu
            pv += sgn * tv
        else:
            sgn = -1.0 if ((k - 1) // 2) % 2 else 1.0
            qu += sgn * tu
            qv += sgn * tv
    c = math.cos(xi + math.pi / 4.0)
    s = math.sin(xi + math.pi / 4.0)
    x4 = big_x**0.25
    ai = (s * pu - c * qu) / (_SQRT_PI * x4)
    aip = -(c * pv + s * qv) * x4 / _SQRT_PI
    bi = (c * pu + s * qu) / (_SQRT_PI * x4)
    bip = (s * pv - c * qv) * x4 / _SQRT_PI
    return ai, aip, bi, bip


def _ode_taylor_step(x0: float, y: float, yp: float, h: float) -> tuple[float, float]:
    """Advance a solution of y'' = x*y from x0 to x0+h by its local Taylor series.

    Coefficients obey (n+2)(n+1)*c_{n+2} = x0*c_n + c_{n-1} with c_{-1} := 0.
    """
    c0, c1 = y, yp
    c = [c0, c1, x0 * c0 / 2.0]
    scale = abs(c0) + abs(c1) + 1e-300
    hn = h * h
    n = 1
    while n < 60:
        c.append((x0 * c[n] + c[n - 1]) / ((n + 2.0) * (n + 1.0)))
        hn *= h
        if abs(c[-1] * hn) < 1e-19 * scale and n > 6:
            break
        n += 1
    yv = 0.0
    yd = 0.0
    for m in range(len(c) - 1, 0, -1):
        yv = yv * h + c[m]
        yd = yd * h + m * c[m]
    yv = yv * h + c[0]
    return yv, yd


def _march(x_from: float, x_to: float, y: float, yp: float) -> dict[float, tuple[float, float]]:
    """Tabulate a solution at every node from x_from to x_to, _ODE_STEP apart.

    (y, yp) is the solution at x_from; each further node is one Taylor step
    from the previous one.  Both ends are included.
    """
    h = math.copysign(_ODE_STEP, x_to - x_from)
    x = x_from
    nodes = {x: (y, yp)}
    for _ in range(round(abs(x_to - x_from) / _ODE_STEP)):
        y, yp = _ode_taylor_step(x, y, yp, h)
        x += h
        nodes[x] = (y, yp)
    return nodes


# Node tables of the continuation, each marched in its stable direction.
# _ODE_STEP is a power of two, so the adjacent node computed below is exact.
_AI_POS_NODES = _march(_ASYM_POS, _SERIES_HI, *_asym_pos_ai(_ASYM_POS))
_AI_NEG_NODES = _march(_SERIES_LO, _ASYM_NEG, *_maclaurin(_SERIES_LO)[:2])
_BI_NEG_NODES = _march(_SERIES_LO, _ASYM_NEG, *_maclaurin(_SERIES_LO)[2:])
_BI_POS_NODES = _march(5.0, _ASYM_POS, *_maclaurin(5.0)[2:])


def _step_from(
    nodes: dict[float, tuple[float, float]], node: float, x: float
) -> tuple[float, float]:
    """One Taylor step from a tabulated node to x."""
    y, yp = nodes[node]
    return _ode_taylor_step(node, y, yp, x - node)


def _eval_ai(x: float) -> tuple[float, float]:
    if _SERIES_LO <= x <= _SERIES_HI:
        ai, aip, _, _ = _maclaurin(x)
        return ai, aip
    if x > _SERIES_HI:
        if x >= _ASYM_POS:
            return _asym_pos_ai(x)
        # Downward continuation: Ai grows toward smaller x, so it is the
        # dominant solution in this direction and the step from above is stable.
        return _step_from(_AI_POS_NODES, math.ceil(x / _ODE_STEP) * _ODE_STEP, x)
    if x <= _ASYM_NEG:
        ai, aip, _, _ = _asym_neg(x)
        return ai, aip
    return _step_from(_AI_NEG_NODES, math.ceil(x / _ODE_STEP) * _ODE_STEP, x)


def _eval_bi(x: float) -> tuple[float, float]:
    if _SERIES_LO <= x <= 5.0:
        _, _, bi, bip = _maclaurin(x)
        return bi, bip
    if x > 5.0:
        if x >= _ASYM_POS:
            return _asym_pos_bi(x)
        # Upward continuation: Bi is the growing solution, stable going up.
        return _step_from(_BI_POS_NODES, math.floor(x / _ODE_STEP) * _ODE_STEP, x)
    if x <= _ASYM_NEG:
        _, _, bi, bip = _asym_neg(x)
        return bi, bip
    return _step_from(_BI_NEG_NODES, math.ceil(x / _ODE_STEP) * _ODE_STEP, x)


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
    """The n-th negative zero of Ai (n >= 1), accurate to better than 1e-8.

    Starts from the asymptotic seed -(3*pi*(4n-1)/8)**(2/3) and refines by
    Newton iteration, falling back to bisection on [seed-0.5, seed+0.5] if an
    iterate ever leaves that bracket.
    """
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise ParameterError(f"zero index must be an integer, got {n!r}")
    if n < 1 or n > 50:
        raise ParameterError(f"zero index must be in 1..50, got {n}")
    seed = -((3.0 * math.pi * (4.0 * n - 1.0) / 8.0) ** (2.0 / 3.0))
    lo, hi = seed - 0.5, seed + 0.5
    x = seed
    for _ in range(50):
        ai, aip = _eval_ai(x)
        if aip == 0.0:
            break
        step = ai / aip
        x_new = x - step
        if not (lo <= x_new <= hi):
            break
        x = x_new
        if abs(step) <= 1e-13 * (1.0 + abs(x)):
            return x
    # Bisection fallback on the seed bracket (zeros of Ai are simple).
    f_lo = _eval_ai(lo)[0]
    f_hi = _eval_ai(hi)[0]
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise NumericError(f"no sign change around seed for zero index {n}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _eval_ai(mid)[0]
        if f_mid == 0.0 or (hi - lo) <= 1e-14 * (1.0 + abs(mid)):
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    raise NumericError(f"zero refinement failed to converge for index {n}")


def ai_squared_tail(x: float) -> float:
    """Closed form of the tail integral of Ai^2 from x to infinity.

    Uses the identity d/dx [Ai'(x)^2 - x*Ai(x)^2] = -Ai(x)^2 together with
    decay at +infinity, so the integral equals Ai'(x)^2 - x*Ai(x)^2.
    """
    x = _check_arg(x)
    ai, aip = _eval_ai(x)
    return aip * aip - x * ai * ai
