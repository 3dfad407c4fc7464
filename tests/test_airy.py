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


# Every node of the evaluator's Taylor tables, 0.5 apart on [-8, 8].
TABLE_NODES = np.arange(-8.0, 8.25, 0.5)


def test_accuracy_against_scipy():
    # dense grid, a few fixed points (+-8 is where the asymptotics take over),
    # and every table node from both sides.  A point node +- 1e-9 is also
    # 0.5 - 1e-9 from the neighbouring node on the other side, the farthest
    # any call steps: Ai steps down from the node above, Bi up from the node
    # below for x >= 0 and down for x < 0.
    fixed = [-8.0, -5.0, 2.5, 3.5, 5.0, 8.0]
    xs = np.r_[np.linspace(-12.0, 12.0, 24001), fixed, TABLE_NODES - 1e-9, TABLE_NODES + 1e-9]
    ref_ai, ref_aip, ref_bi, ref_bip = airy(xs)
    values = [airy_values(float(x)) for x in xs]
    ai = np.array([v.ai for v in values])
    aip = np.array([v.ai_prime for v in values])
    bi = np.array([v.bi for v in values])
    bip = np.array([v.bi_prime for v in values])
    wronskian = np.array([v.wronskian() for v in values])
    assert np.max(np.abs(ai - ref_ai)) <= 1e-13
    assert np.max(np.abs(aip - ref_aip)) <= 1e-13
    assert np.max(np.abs(bi - ref_bi) / np.maximum(1.0, np.abs(ref_bi))) <= 2e-13
    assert np.max(np.abs(bip - ref_bip) / np.maximum(1.0, np.abs(ref_bip))) <= 2e-13
    assert np.max(np.abs(wronskian - 1.0 / math.pi)) <= 1e-12


def test_asymptotic_sums_end_at_their_cut():
    # replay _asym_sums' stopping rule on |x| in [8, 200] for each table: every
    # sum must stop at the smallest-term or 1e-18 cut, before the table ends
    # (larger |x| shrinks every term, so the cut only comes sooner)
    xs = np.linspace(8.0, 200.0, 200001)
    zinv = np.array([1.0 / ((2.0 / 3.0) * float(x) ** 1.5) for x in xs])
    for terms in (kernel._AI_POS_TERMS, kernel._BI_POS_TERMS, kernel._NEG_TERMS):
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
    # the evaluator switches polynomial at every table node and representation
    # at +-8; across each seam the finite change must match the derivative,
    # with no representation jump
    h = 1e-6
    for seam in TABLE_NODES:
        below = airy_values(seam - h)
        above = airy_values(seam + h)
        mid = airy_values(seam)
        assert above.ai - below.ai == pytest.approx(2.0 * h * mid.ai_prime, rel=1e-4, abs=1e-12)
        assert above.bi - below.bi == pytest.approx(2.0 * h * mid.bi_prime, rel=1e-4, abs=1e-12)


def test_single_functions_match_airy_values_bit_for_bit():
    # one evaluation path: each function returns exactly its field of airy_values
    xs = np.r_[np.linspace(-12.0, 12.0, 4801), TABLE_NODES - 1e-9, TABLE_NODES + 1e-9]
    for x in map(float, xs):
        values = airy_values(x)
        assert airy_ai(x) == values.ai
        assert airy_ai_prime(x) == values.ai_prime
        assert airy_bi(x) == values.bi
        assert airy_bi_prime(x) == values.bi_prime
