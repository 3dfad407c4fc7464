import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ai_zeros, airy

import gravqm.airy as kernel
from gravqm import (
    NumericError,
    ParameterError,
    ai_negative_zero,
    ai_squared_tail,
    airy_ai,
    airy_ai_prime,
    airy_bi,
    airy_bi_prime,
    airy_values,
)
from oracles import ai_prime_series_oracle, ai_series_oracle

# First six zero magnitudes as tabulated for the linear-potential levels.
TABLE_ZEROS = [2.3381, 4.0879, 5.5206, 6.7867, 7.9441, 9.0227]


def test_ai_at_origin_series_oracle():
    assert airy_ai(0.0) == pytest.approx(ai_series_oracle(0.0), abs=1e-14)
    assert airy_ai(0.0) == pytest.approx(0.3550280539, abs=1e-9)


def test_ai_prime_at_origin_series_oracle():
    assert airy_ai_prime(0.0) == pytest.approx(ai_prime_series_oracle(0.0), abs=1e-14)
    assert airy_ai_prime(0.0) == pytest.approx(-0.2588194038, abs=1e-9)


def test_ai_against_series_oracle_on_central_band():
    for x in np.linspace(-4.0, 3.0, 29):
        assert airy_ai(float(x)) == pytest.approx(ai_series_oracle(float(x), 60), abs=1e-12)
        assert airy_ai_prime(float(x)) == pytest.approx(
            ai_prime_series_oracle(float(x), 60), abs=1e-12
        )


def test_ai_near_first_zero():
    assert abs(airy_ai(-2.3381)) < 1e-4
    # the zero is simple: the derivative stays well away from 0 there
    assert abs(airy_ai_prime(-2.3381)) > 0.5


def test_ai_decays_at_ten():
    value = airy_ai(10.0)
    assert value < 1e-9
    zeta = 2.0 / 3.0 * 10.0**1.5
    leading = math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * 10.0**0.25)
    assert value == pytest.approx(leading, rel=5e-3)


def test_ai_rejects_non_finite():
    with pytest.raises(ParameterError):
        airy_ai(math.nan)
    with pytest.raises(ParameterError):
        airy_ai_prime(math.inf)


@pytest.mark.parametrize(
    "evaluate", [airy_ai, airy_ai_prime, airy_bi, airy_bi_prime, airy_values, ai_squared_tail]
)
def test_int_beyond_double_range_is_a_parameter_error(evaluate):
    # float() of such an int raises OverflowError; the argument check turns it
    # into the documented ParameterError
    for x in (10**400, -(10**400)):
        with pytest.raises(ParameterError, match="beyond double range"):
            evaluate(x)


def test_bi_overflow_raises():
    for x in (120.0, 1e308):
        with pytest.raises(NumericError):
            airy_bi(x)
        # Ai underflows gracefully instead
        assert airy_ai(x) == 0.0
        assert airy_ai_prime(x) == 0.0


def test_phase_loss_raises():
    # past x ~ -5.7e10 the phase 2/3 |x|^1.5 is beyond 2**53: no digit is left
    for x in (-1e11, -1e20, -1e308):
        with pytest.raises(NumericError):
            airy_ai(x)
        with pytest.raises(NumericError):
            airy_values(x)
    assert airy_ai(-1e5) == pytest.approx(airy(-1e5)[0], abs=1e-9)


def test_wronskian_at_one():
    assert airy_values(1.0).wronskian() == pytest.approx(1.0 / math.pi, abs=1e-10)


def test_wronskian_sweep():
    worst = max(
        abs(airy_values(float(x)).wronskian() - 1.0 / math.pi)
        for x in np.linspace(-10.0, 5.0, 200)
    )
    assert worst <= 1e-10


# Every boundary of the evaluator's Taylor cells (_CELL apart) on the band
# [_ASYM_NEG, _ASYM_POS], both edges included.
TABLE_NODES = np.arange(kernel._ASYM_NEG, kernel._ASYM_POS + kernel._CELL / 2, kernel._CELL)


def test_accuracy_against_scipy():
    # a grid 1e-3 apart over the table band, a dense grid over both asymptotic
    # branches out to |x| = 30, a few fixed points (the band edges are where
    # the asymptotics take over), and every cell boundary from both sides.
    # Ai and Bi step from the centre of their cell, at most 0.125 either way;
    # a point boundary +- 1e-9 is the farthest such a step goes.
    low, high = kernel._ASYM_NEG, kernel._ASYM_POS
    fixed = [low, -12.0, -8.0, -5.0, 2.5, 3.5, 5.0, 8.0, high]
    outer = np.linspace(-30.0, 30.0, 12001)
    outer = outer[(outer <= low) | (outer >= high)]
    band = np.linspace(low, high, round((high - low) * 1000) + 1)
    xs = np.r_[band, outer, fixed, TABLE_NODES - 1e-9, TABLE_NODES + 1e-9]
    ref_ai, ref_aip, ref_bi, ref_bip = airy(xs)
    values = [airy_values(float(x)) for x in xs]
    ai = np.array([v.ai for v in values])
    aip = np.array([v.ai_prime for v in values])
    bi = np.array([v.bi for v in values])
    bip = np.array([v.bi_prime for v in values])
    wronskian = np.array([v.wronskian() for v in values])
    # airy_ai is locked to airy_values(x).ai bit for bit by the test below;
    # check it here too, so its own path cannot drift from scipy unseen
    assert np.array_equal([airy_ai(float(x)) for x in xs], ai)
    # each bound is about twice the error measured with scipy 1.17: Ai 7.8e-15,
    # Ai' 4.1e-14, Bi 3.5e-14 and Bi' 7.3e-14 (relative above 1), Wronskian 1.6e-15
    assert np.max(np.abs(ai - ref_ai)) <= 1.6e-14
    assert np.max(np.abs(aip - ref_aip)) <= 8e-14
    assert np.max(np.abs(bi - ref_bi) / np.maximum(1.0, np.abs(ref_bi))) <= 7e-14
    assert np.max(np.abs(bip - ref_bip) / np.maximum(1.0, np.abs(ref_bip))) <= 1.5e-13
    assert np.max(np.abs(wronskian - 1.0 / math.pi)) <= 3.2e-15


@pytest.mark.parametrize("table", ["_AI_CELLS", "_BI_CELLS"], ids=["ai", "bi"])
def test_cells_solve_the_airy_equation_on_their_cell(table):
    # each cell polynomial is the Taylor expansion about its cell's centre,
    # from which the evaluator steps: over the cell its defect p'' - x*p
    # stays at rounding level (measured 2.9e-15 for Ai, 3.2e-15 for Bi).
    # Ai polynomials about a point 0.125 or 0.375 above the centre, cut at
    # radius 0.25, still meet the accuracy bounds above; read as expansions
    # about the centre their defect is 0.37, so only this test pins the centre.
    kernel.airy_ai(0.0)  # the first evaluation builds both tables
    half = kernel._CELL / 2
    h = np.linspace(-half, half, 17)
    worst = 0.0
    cells = range(kernel._CELL_LO, round(kernel._ASYM_POS / kernel._CELL))
    for j, coeffs in zip(cells, getattr(kernel, table), strict=True):
        p = np.poly1d(coeffs)
        defect = p.deriv(2)(h) - ((j + 0.5) * kernel._CELL + h) * p(h)
        worst = max(worst, np.max(np.abs(defect)) / (abs(coeffs[-1]) + abs(coeffs[-2])))
    assert worst <= 1e-13


def test_asymptotic_sums_end_at_their_cut():
    # replay _asym_sums' stopping rule for each table on |x| from its
    # expansion's own band edge up to 200: every sum must stop at the
    # smallest-term or 1e-18 cut, before the table ends (larger |x| shrinks
    # every term, so the cut only comes sooner)
    for terms, edge in (
        (kernel._AI_POS_TERMS, kernel._ASYM_POS),
        (kernel._BI_POS_TERMS, kernel._ASYM_POS),
        (kernel._NEG_TERMS, -kernel._ASYM_NEG),
    ):
        xs = np.linspace(edge, 200.0, 200001)
        zinv = np.array([1.0 / ((2.0 / 3.0) * float(x) ** 1.5) for x in xs])
        power = np.ones_like(zinv)
        prev = np.full_like(zinv, np.inf)
        running = np.ones(zinv.shape, dtype=bool)
        for _, u, _ in terms:
            power *= zinv
            size = np.abs(u * power)
            running &= (size < prev) & (size >= 1e-18)
            prev = size
        assert not running.any()


def test_zeros_match_table():
    for n, magnitude in enumerate(TABLE_ZEROS, start=1):
        assert ai_negative_zero(n) == pytest.approx(-magnitude, abs=1e-4)


def test_zeros_are_roots_and_ordered():
    previous = 0.0
    reference = ai_zeros(50)[0]
    for n in range(1, 51):
        zero = ai_negative_zero(n)
        assert zero < previous
        assert abs(airy_ai(zero)) <= 1e-8
        assert zero == pytest.approx(reference[n - 1], abs=1e-10)
        previous = zero


@pytest.mark.parametrize(
    "fake",
    [
        lambda ai, aip: (2.0 + ai, aip),  # no root near any seed: Newton leaves the bracket
        lambda ai, aip: (ai, 0.0),  # Ai' vanishes at the seed
    ],
    ids=["no-root", "flat"],
)
def test_zero_refinement_failure_raises(monkeypatch, fake):
    eval_ai = kernel._eval_ai
    monkeypatch.setattr(kernel, "_eval_ai", lambda x: fake(*eval_ai(x)))
    with pytest.raises(NumericError, match="zero index 3"):
        ai_negative_zero(3)


def test_zero_index_validation():
    for bad in (0, -1, 51, 2.0, True):
        with pytest.raises(ParameterError):
            ai_negative_zero(bad)


def test_zero_index_accepts_numpy_integers():
    for n in (np.int64(1), np.int32(50), np.uint8(7)):
        assert ai_negative_zero(n) == ai_negative_zero(int(n))
    with pytest.raises(ParameterError):
        ai_negative_zero(np.int64(51))


def test_tail_decays():
    assert 0.0 <= ai_squared_tail(12.0) < 1e-15


def test_tail_at_origin():
    # integral of Ai^2 over [0, inf) equals Ai'(0)^2
    assert ai_squared_tail(0.0) == pytest.approx(ai_prime_series_oracle(0.0) ** 2, abs=1e-8)
    quad_value, _ = quad(lambda t: airy_ai(t) ** 2, 0.0, 12.0, epsabs=1e-12, limit=200)
    assert ai_squared_tail(0.0) == pytest.approx(quad_value, abs=1e-8)


def test_tail_matches_quadrature_from_first_zero():
    x0 = -2.3381
    quad_value, _ = quad(lambda t: airy_ai(t) ** 2, x0, 12.0, epsabs=1e-12, limit=300)
    assert ai_squared_tail(x0) == pytest.approx(quad_value, abs=1e-7)


def test_tail_derivative_is_minus_ai_squared():
    rng = np.random.default_rng(2024)
    h = 1e-4
    for x in rng.uniform(-5.0, 3.0, size=20):
        fd = (ai_squared_tail(x + h) - ai_squared_tail(x - h)) / (2.0 * h)
        exact = -airy_ai(float(x)) ** 2
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-12)


def test_band_seams_are_smooth():
    # the evaluator switches polynomial at every cell boundary and
    # representation at both band edges; across each seam the finite
    # change must match the derivative, with no representation jump
    h = 1e-6
    for seam in TABLE_NODES:
        below = airy_values(seam - h)
        above = airy_values(seam + h)
        mid = airy_values(seam)
        assert above.ai - below.ai == pytest.approx(2.0 * h * mid.ai_prime, rel=1e-4, abs=1e-12)
        assert above.bi - below.bi == pytest.approx(2.0 * h * mid.bi_prime, rel=1e-4, abs=1e-12)


def test_single_functions_match_airy_values_bit_for_bit():
    # one evaluation path: each function returns exactly its field of
    # airy_values; [-30, 30] reaches well into both asymptotic branches, and
    # the cell boundaries are where airy_ai runs its own value-only Horner
    # step
    xs = np.r_[np.linspace(-30.0, 30.0, 12001), TABLE_NODES - 1e-9, TABLE_NODES + 1e-9, -1e5]
    for x in map(float, xs):
        values = airy_values(x)
        assert airy_ai(x) == values.ai
        assert airy_ai_prime(x) == values.ai_prime
        assert airy_bi(x) == values.bi
        assert airy_bi_prime(x) == values.bi_prime
    # past the overflow of Bi, airy_values raises; Ai still matches the
    # value-and-slope path up to and beyond its underflow to 0
    for x in map(float, np.r_[np.linspace(100.0, 110.0, 1001), 1e308]):
        assert airy_ai(x) == kernel._eval_ai(x)[0]
    assert airy_ai(110.0) == 0.0
    # and both paths lose the phase at the same point
    loss = kernel._PHASE_LOSS_X
    assert airy_ai(loss) == kernel._eval_ai(loss)[0]
    beyond = math.nextafter(loss, -math.inf)
    for evaluate in (airy_ai, kernel._eval_ai):
        with pytest.raises(NumericError, match="phase lost"):
            evaluate(beyond)
