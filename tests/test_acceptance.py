"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here, not computed; the dual-path comparison
(criterion 3) takes about 0.3 s.
"""

import dataclasses
import math
import time

import numpy as np

from gravqm import (
    REFERENCE_FRAME_RUN,
    ComplexField,
    FrameTransform,
    Grid,
    ai_negative_zero,
    airy_values,
    cow_phase_shift,
    cow_phase_shift_time_route,
    frame_equivalence_test,
    gaussian_packet,
    make_natural_system,
    pde_residual,
    phase_s,
    probability_outside,
    propagate_linear_potential,
    sample_stencil,
    to_stationary_frame,
)
from gravqm.cli import _run_demo
from gravqm.frames import InterferometerGeometry, falling_box_state, falling_box_window
from oracles import free_gaussian_analytic


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, detail


def natural(v=0.0, a=0.0, g=None):
    g = a if g is None else g
    return dataclasses.replace(make_natural_system(1.0), v=v, a=a, g=g)


def test_criterion_1_airy_zeros():
    table = [2.3381, 4.0879, 5.5206, 6.7867, 7.9441, 9.0227]
    start = time.perf_counter()
    zeros = [-ai_negative_zero(n) for n in range(1, 7)]
    elapsed = time.perf_counter() - start
    worst = max(abs(z - t) for z, t in zip(zeros, table))
    report(
        1,
        worst <= 1e-4 and elapsed < 1.0,
        f"first six Ai zero magnitudes, worst |error| = {worst:.2e} "
        f"(limit 1e-4), {elapsed:.3f} s (limit 1 s)",
    )


def test_criterion_2_tunneling_table():
    table = [13.62, 10.39, 8.95, 8.07, 7.46, 7.01, 6.64, 6.34, 6.09, 5.88]
    start = time.perf_counter()
    percents = [100.0 * probability_outside(n) for n in range(1, 11)]
    elapsed = time.perf_counter() - start
    worst = max(abs(p - t) for p, t in zip(percents, table))
    report(
        2,
        worst <= 0.05 and elapsed < 1.0,
        f"outside probabilities n=1..10, worst |error| = {worst:.3f} pp "
        f"(limit 0.05 pp), {elapsed:.3f} s (limit 1 s)",
    )


def test_criterion_3_frame_equivalence():
    cfg = REFERENCE_FRAME_RUN
    start = time.perf_counter()
    mismatch = _run_demo("frame-equivalence")[1]["max_mismatch"]

    # off-condition control: a = 1.5 * m_g g / m_i breaks the cancellation
    coarse = Grid(cfg["z_min"], cfg["z_max"], 4096, dt=1e-3, n_steps=1000)
    off_mismatch = frame_equivalence_test(
        gaussian_packet(coarse, cfg["center"], cfg["sigma0"]), natural(a=1.5, g=1.0)
    )
    elapsed = time.perf_counter() - start
    report(
        3,
        mismatch <= 1e-6 and off_mismatch > 1e-2 and elapsed < 60.0,
        f"dual-path mismatch = {mismatch:.3e} (limit 1e-6), off-condition "
        f"mismatch = {off_mismatch:.3e} (must exceed 1e-2), {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_4_cow_route_identity():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(10):
        geom = InterferometerGeometry(
            wavelength=float(rng.uniform(0.05, 5.0)),
            height=float(rng.uniform(0.05, 4.0)),
            horizontal_length=float(rng.uniform(0.05, 4.0)),
        )
        system = dataclasses.replace(
            make_natural_system(float(rng.uniform(0.3, 3.0))),
            a=float(rng.uniform(0.1, 5.0)),
            hbar=float(rng.uniform(0.5, 2.0)),
        )
        direct = cow_phase_shift(geom, system)
        timed = cow_phase_shift_time_route(geom, system)
        worst = max(worst, abs(direct - timed) / abs(direct))
    report(
        4,
        worst <= 1e-12,
        f"area route vs time route on 10 random geometries, worst relative "
        f"difference = {worst:.2e} (limit 1e-12)",
    )


def test_criterion_5_heisenberg_suite():
    checks = _run_demo("bouncer-moments")[1]
    del checks["norm_drift"]
    # pinned here, so that a bound loosened in gravqm.dynamics fails the suite
    assert {name: oc.tolerance for name, oc in checks.items()} == {
        "mean_momentum": 1e-6, "mean_position": 1e-6, "momentum_spread": 1e-8, "position_spread": 1e-6,
    }
    lines = ", ".join(
        f"{name}={oc.residual:.2e}" for name, oc in checks.items()
    )
    report(
        5,
        all(oc.passed for oc in checks.values()),
        f"<p>, <z> and dz^2 against the Heisenberg-picture solution, relative "
        f"error <= 1e-6, dp relative drift <= 1e-8: {lines}",
    )


def test_criterion_6_property_suite():
    # (a) norm drift over 1e4 steps
    grid = Grid(-12.0, 12.0, 2048, dt=1e-4, n_steps=10_000)
    system = natural(a=1.0)
    psi0 = gaussian_packet(grid, 0.0, 0.5)
    drift = propagate_linear_potential(
        psi0, system, system.weight, sample_every=10_000
    ).norm_drift

    # (b) Wronskian on a 200-point sweep of [-10, 5]
    wronskian_worst = max(
        abs(airy_values(float(x)).wronskian() - 1.0 / math.pi)
        for x in np.linspace(-10.0, 5.0, 200)
    )

    # (c) modulus preservation of the phase map, rounding only
    rng = np.random.default_rng(99)
    field = ComplexField(grid, rng.normal(size=2048) + 1j * rng.normal(size=2048))
    ft = FrameTransform(v=0.7, a=1.9, m_i=1.3, hbar=0.8)
    mapped = to_stationary_frame(ft, field, 0.83)
    modulus_dev = float(np.max(np.abs(np.abs(mapped.values) - np.abs(field.values))))

    # (d) Galilean limit: the a = 0 map is exactly the boost phase, and the
    # boosted free packet still solves the free equation
    boost_system = natural(v=0.8, a=0.0)
    bft = FrameTransform.from_system(boost_system)
    small = Grid(-10.0, 10.0, 512)
    packet = gaussian_packet(small, 0.0, 0.7)
    t_ref = 0.4
    boosted = to_stationary_frame(bft, packet, t_ref)
    explicit = packet.values * np.exp(
        -1j * (bft.m_i * bft.v / bft.hbar) * (small.z + 0.5 * bft.v * t_ref)
    )
    boost_phase_dev = float(np.max(np.abs(boosted.values - explicit)))

    def boosted_fn(zz, tt):
        zp = zz + boost_system.v * tt
        return complex(free_gaussian_analytic(zp, tt, 0.7)) * complex(
            np.exp(1j * phase_s(bft, zp, tt))
        )

    h = 2.5e-4
    z = -0.5 + np.arange(9) * h
    t = 0.1 + np.arange(9) * h
    free_residual = pde_residual(sample_stencil(boosted_fn, z, t), z, t, boost_system, 0.0)

    passed = (
        drift <= 1e-9
        and wronskian_worst <= 1e-10
        and modulus_dev <= 1e-14
        and boost_phase_dev <= 1e-12
        and free_residual <= 1e-6
    )
    report(
        6,
        passed,
        f"norm drift {drift:.2e} (<=1e-9/1e4 steps), Wronskian worst "
        f"{wronskian_worst:.2e} (<=1e-10), modulus deviation {modulus_dev:.2e} "
        f"(rounding), boost phase deviation {boost_phase_dev:.2e}, "
        f"free-equation residual {free_residual:.2e} (<=1e-6)",
    )


def test_criterion_7_falling_box_residuals():
    configs = [(1, 2.0, 0.0, 0.0), (2, 3.0, 0.4, 1.0), (3, 4.0, -0.2, 0.7)]
    h = 2e-4
    worst = 0.0
    for n, box, v, a in configs:
        system = natural(v=v, a=a)
        ft = FrameTransform.from_system(system)
        lo, hi = falling_box_window(n, box, ft, 0.0)
        z0 = lo + 0.37 * (hi - lo)
        z = z0 + np.arange(5) * h
        t = np.arange(5) * h
        vals = sample_stencil(
            lambda zz, tt: falling_box_state(n, box, ft, system, zz, tt), z, t
        )
        residual = pde_residual(vals, z, t, system, system.m_i * a)
        worst = max(worst, residual)
    report(
        7,
        worst <= 1e-6,
        f"falling-box residual on 5x5 stencils, three configurations "
        f"(incl. v = a = 0), worst = {worst:.2e} (limit 1e-6)",
    )
