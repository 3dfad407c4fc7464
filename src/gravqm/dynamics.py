"""Grid propagation of the time-dependent Schrodinger equation and oracles.

The propagator is Numerov-Crank-Nicolson with Dirichlet zero boundaries: the
compact fourth-order (Mehrstellen) stencil in space inside the Crank-Nicolson
step, the generalised scheme of van Dijk and Toyama, Phys. Rev. E 75, 036707
(2007).  With the Numerov mass matrix M = tridiag(1, 10, 1)/12 and
K = T + M diag(V), where T is the three-point kinetic matrix, one step solves
A psi_new = (M - r K) psi with A = M + r K and r = i dt/(2 hbar).  As
M - r K = 2M - A, the step is psi_new = (6A)^-1 (12 M psi) - psi (Goldberg,
Schey and Schwartz, Am. J. Phys. 35, 177 (1967)): 12 M = tridiag(1, 10, 1)
holds no V, so the potential enters only 6A, factored once since the
Hamiltonian is time independent.  LAPACK's zgttrf factors it; when it
interchanged no rows, as in every shipped run, each solve scales by the
inverse of U's diagonal and makes two unit-diagonal banded sweeps (ztbtrs),
which divide by nothing, else it is zgttrs.  The routines are loaded at the
first stepped propagation from scipy's extension module alone, without the
scipy.linalg package (whose import would cost more than a small run).  The
spatial error is fourth order and the time error second order
(:func:`frame_equivalence` extrapolates its comparison to fourth order).
The stepped run references V to the packet (see ``_evolve``), so that
error does not grow with the packet's distance from the potential's zero.
K is not Hermitian when V varies, but the step equals (I + r H)^-1 (I - r H)
with H = M^-1 T + diag(V), which is real and symmetric because M and T
commute (the sine vectors diagonalize both).  So the step is unitary and
the norm drifts by rounding alone (3.3e-13 over 10^4 steps of 1e-4 on 2048
points on [-12, 12]).  The caller sizes the domain so the packet never
reaches the edges (a contact is reported as an error naming the time).

The step loop allocates no grid-sized array: it updates one state buffer and
one right-hand side in place, and moments are sampled by one kernel
(``_Moments``, a sixth-order first difference for the momentum) whose padded
buffer and work arrays are built once per propagation.  It reads the complex
samples through their float view, reduces with numpy's pairwise sum (no
BLAS) and takes the trapezoid's two half-weight end terms off in Python
arithmetic.  The public :func:`moments` is the same kernel built for a
single call.

:func:`propagate_linear_potential` samples the moments with the run's only
reader of |psi|^2: the first sample gives the initial norm^2 check and z_ref,
the first and last the norm drift.  The run is ``_evolve``'s, which checks
the time step and picks the kernel: the stepped loop, or the sine eigenbasis
of the free step.  The extrapolation's coarse run is a bare ``_evolve`` call.

On top of the propagator sit the consistency checks used throughout the
package: a finite-difference residual of the governing equation for
analytically given fields, the dual-path comparison between free evolution
plus the falling-frame phase map and direct evolution in the linear
potential, and the position/momentum means and spreads of a moment series
compared with the exact Heisenberg-picture solution.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

from .core import ComplexField, Grid, PhysicalSystem, checked_square, finite_result, np
from .core import require_count, require_finite, require_positive
from .errors import BoundaryContactError, NumericError, ParameterError
from .frames import to_stationary_frame

__all__ = [
    "REFERENCE_FRAME_RUN",
    "CheckOutcome",
    "FrameEquivalenceResult",
    "PropagationReport",
    "align_global_phase",
    "frame_equivalence",
    "frame_equivalence_test",
    "free_dispersion_width",
    "gaussian_packet",
    "heisenberg_checks",
    "moments",
    "pde_residual",
    "propagate_linear_potential",
    "sample_stencil",
    "shift_field",
]

# Edge amplitude required of the initial state (within 5 points of each edge).
_INITIAL_EDGE_AMPLITUDE = 1e-12

# Reference configuration of the dual-path equivalence run (natural units,
# m = g = hbar = 1, packet at rest).  frame_equivalence extrapolates each
# path in time from 200 and 100 steps, so the comparison is fourth order in
# dt as well as in dz, and the direct path's potential is referenced to the
# packet (see _evolve); 2048 points and dt = 5e-3 keep the mismatch well
# below the 1e-6 budget (6.5e-8 measured, 5.5e-8 at dt = 2e-3, the
# 2048-point spatial floor).  See the dynamics tests for the measured
# convergence behaviour.
REFERENCE_FRAME_RUN = {
    "z_min": -20.0,
    "z_max": 30.0,
    "n_points": 2048,
    "dt": 5e-3,
    "t_final": 1.0,
    "sigma0": 0.5,
    "center": 8.0,
}

# Tolerances of heisenberg_checks, relative to each moment's scale.  The
# means and the position spread carry the Crank-Nicolson time error (order
# dt^2); the momentum spread of a packet near rest is kept to rounding.
_MOMENT_RTOL = 1e-6
_MOMENTUM_SPREAD_RTOL = 1e-8


@dataclass(frozen=True)
class PropagationReport:
    """Outcome of one propagation: final field, drift, sampled moments.

    ``moment_series`` has one row (t, <z>, <p>, dz, dp) per sample of the
    kernel of :func:`moments`, whose first and last norm^2 give ``norm_drift``.
    """

    final_field: ComplexField
    norm_drift: float
    moment_series: np.ndarray


@dataclass(frozen=True)
class CheckOutcome:
    """Residual of one analytic relation against its tolerance."""

    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class FrameEquivalenceResult:
    """Dual-path comparison: transformed free run vs direct potential run.

    ``transformed`` and ``direct`` are the final fields extrapolated in
    time, ``transformed`` rotated to the global phase of ``direct``;
    ``time_correction`` is max |extrapolated - fine| over both paths, the
    Richardson estimate of the fine runs' time error.  An extrapolation of two
    unitary runs is not unitary: on ``REFERENCE_FRAME_RUN`` both fields' norm^2
    is off 1 by about 3e-9, which a unitary fourth-order step would remove.
    """

    max_mismatch: float
    time_correction: float
    transformed: ComplexField
    direct: ComplexField
    free_report: PropagationReport
    direct_report: PropagationReport


def gaussian_packet(
    grid: Grid, center: float, sigma: float, k0: float = 0.0
) -> ComplexField:
    """Normalized Gaussian exp(-(z-center)^2/(4 sigma^2) + i k0 z) on the grid."""
    center, k0 = require_finite("center", center), require_finite("k0", k0)
    sigma_sq = checked_square("sigma", require_positive("sigma", sigma))
    z = grid.z
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor raises below instead
        psi = (2.0 * math.pi * sigma_sq) ** -0.25 * np.exp(
            -((z - center) ** 2) / (4.0 * sigma_sq) + 1j * k0 * z
        )
    return ComplexField(grid, psi).normalized()


def shift_field(field: ComplexField, offset: float) -> ComplexField:
    """Resample a field at z + offset by trigonometric interpolation.

    Spectrally exact for packets that vanish at the grid edges (the periodic
    extension is then smooth to machine precision); used to evaluate a free
    run at the shifted coordinate of the falling frame.  The resampling is
    periodic, so the samples within |offset| of the incoming edge reappear
    at the far side: NumericError is raised when they exceed the contact
    amplitude, or when |offset| is not smaller than the domain.  An offset
    that is not finite, or an integer beyond double range, is a
    ParameterError.
    """
    offset = require_finite("shift offset", offset)
    if offset == 0.0:
        return field
    grid = field.grid
    span = grid.z_max - grid.z_min
    if not abs(offset) < span:
        raise NumericError(
            f"shift offset {offset:g} is not smaller than the domain length {span:g}"
        )
    carried = int(abs(offset) / grid.dz) + 1
    incoming = field.values[:carried] if offset > 0.0 else field.values[-carried:]
    amplitude = float(np.max(np.abs(incoming)))
    if not amplitude <= BoundaryContactError.limit:
        raise NumericError(
            f"shift offset {offset:g} carries amplitude {amplitude:.3e} across the "
            "grid edge; enlarge the domain"
        )
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.dz)
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor raises instead
        shifted = np.fft.ifft(np.fft.fft(field.values) * np.exp(1j * k * offset))
    return ComplexField(grid, shifted)


def align_global_phase(field: ComplexField, reference: ComplexField) -> ComplexField:
    """Rotate ``field`` by the constant phase that best matches ``reference``.

    The falling-frame map fixes the wave function only up to one constant
    phase, so comparisons are made after this alignment.  The fields must
    share their sample points (z_min, z_max, n_points), else ParameterError;
    the time step and step count of their grids may differ.  NumericError
    when the fields' inner product overflows.
    """
    a, b = field.grid, reference.grid
    if (a.z_min, a.z_max, a.n_points) != (b.z_min, b.z_max, b.n_points):
        raise ParameterError("fields live on different grids")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below instead
        inner = np.sum(np.conj(field.values) * reference.values) * field.grid.dz
    if not np.isfinite(inner):
        raise NumericError(f"inner product of the fields is not finite ({inner})")
    return ComplexField(field.grid, field.values * np.exp(1j * np.angle(inner)))


def _check_initial_state(psi0: ComplexField, norm0: float) -> None:
    """Refuse a state whose norm^2 ``norm0`` is not 1 or that is not clear of both edges."""
    if not abs(norm0 - 1.0) <= 1e-8:
        raise ParameterError(
            f"initial state must be normalized (|norm^2 - 1| = {abs(norm0 - 1.0):.3e})"
        )
    edge = max(
        float(np.max(np.abs(psi0.values[:5]))),
        float(np.max(np.abs(psi0.values[-5:]))),
    )
    if edge > _INITIAL_EDGE_AMPLITUDE:
        raise ParameterError(
            f"initial state has amplitude {edge:.3e} within 5 points of a "
            "boundary; enlarge the domain"
        )


def _trapezoid(total: float, terms: np.ndarray, per_point: int = 1) -> float:
    """``total``, the plain sum of ``terms``, less half of both end points' terms.

    A point has ``per_point`` consecutive terms (2 for the float view of a
    complex array).  The arithmetic is Python's, so it raises no numpy
    warning.
    """
    return total - 0.5 * sum(terms[:per_point].tolist() + terms[-per_point:].tolist())


class _Moments:
    """Moment kernel for one (grid, system): (<z>, <p>, dz, dp, norm^2) of samples.

    Position moments use trapezoidal quadrature.  Momentum moments use the
    antisymmetric sixth-order first difference D, with weights 3/4, -3/20 and
    1/60 over dz and Dirichlet zeros past both edges (Fornberg, Math. Comp.
    51, 699 (1988)): <p> = hbar sum w Re(conj(psi) (-i D psi)) and <p^2> =
    hbar^2 sum w |D psi|^2 with trapezoid weights w.  No pass multiplies by
    w: each sum is the plain sum of its terms less half of the two end
    points' terms, taken off in Python arithmetic (``_trapezoid``), and each
    moment is a ratio of two such sums, in which dz cancels.  No pass takes
    a complex modulus, conjugate or product either: the samples are read
    through their float view (re, im, re, im, ...), so |psi|^2 adds the
    squares of a point's two parts, and with e = -i dz D psi (the stencil
    run on -i psi/60), Re(conj(psi) e) and |e|^2 are sums of products of
    float views.  A zero-padded copy of the samples and the work arrays are
    built once; a call fills them with ``out=`` ufuncs and reduces them with
    numpy's pairwise ``sum``, so sampling a propagation allocates no
    grid-sized array and starts no BLAS threads.  (A BLAS dot product from
    about 10^4 points may hand the work to its threads, which costs more
    than the product and stalls on a busy host.)  Position and momentum
    moments are both taken in units of the grid spacing (positions as
    u = (z - z_mid)/dz, D psi as dz D psi) and scaled by dz and hbar/dz in
    Python arithmetic, so any spread that is a double comes out right, and
    <p^2> out of double range raises NumericError instead of overflowing in
    numpy.  The norm^2 that every moment divides by is refused more than 1e-6
    from 1 or, under ``np.errstate(over="ignore")``, out of double range.  The
    samples are finite: a field's are, and the loop samples after ``_check_edges``.
    """

    def __init__(self, grid: Grid, system: PhysicalSystem):
        n, dz = grid.n_points, grid.dz
        self._hbar = system.hbar
        self._dz = dz
        self._z_mid = 0.5 * grid.z_min + 0.5 * grid.z_max
        self._u = np.arange(n) - (n - 1) / 2.0
        # -i psi/60 with three Dirichlet zeros on each side
        self._padded = np.zeros(n + 6, dtype=complex)
        # e = -i dz D psi
        self._difference = np.empty(n, dtype=complex)
        # 2n floats: the density and a scratch half, then the squares of e's float view
        self._work = np.empty(2 * n)

    def __call__(self, psi: np.ndarray) -> tuple[float, float, float, float, float]:
        pad, d, work = self._padded, self._difference, self._work
        n = psi.size
        rho, scratch = work[:n], work[n:]
        parts = psi.view(float)
        np.square(parts[0::2], out=rho)
        np.square(parts[1::2], out=scratch)
        rho += scratch
        # sum |psi|^2 over the trapezoid, in units of 1/dz
        total = _trapezoid(float(rho.sum()), rho)
        nrm = total * self._dz
        # written so that a NaN norm fails the check
        if not abs(nrm - 1.0) <= 1e-6:
            if not math.isfinite(nrm):  # inf, or inf - inf in the trapezoid's end terms
                raise NumericError("norm^2 = inf is out of double range")
            raise ParameterError(f"field is not normalized (|norm^2 - 1| = {abs(nrm - 1.0):.3e})")
        np.multiply(self._u, rho, out=scratch)
        mean_u = _trapezoid(float(scratch.sum()), scratch) / total
        np.subtract(self._u, mean_u, out=scratch)
        scratch *= scratch
        scratch *= rho
        var_u = _trapezoid(float(scratch.sum()), scratch) / total
        # dz D psi = (45 (psi[j+1] - psi[j-1]) - 9 (psi[j+2] - psi[j-2])
        # + (psi[j+3] - psi[j-3]))/60, nested in one buffer on -i psi/60
        np.multiply(psi, -1j / 60.0, out=pad[3:-3])
        np.subtract(pad[4:-2], pad[2:-4], out=d)
        d *= 5.0
        d -= pad[5:-1]
        d += pad[1:-5]
        d *= 9.0
        d += pad[6:]
        d -= pad[:-6]
        e = d.view(float)
        np.square(e, out=work)
        q_sq = _trapezoid(float(work.sum()), work, 2) / total
        # Re(conj(psi) e) = re(psi) re(e) + im(psi) im(e)
        e *= parts
        mean_q = _trapezoid(float(e.sum()), e, 2) / total
        scale = self._hbar / self._dz
        # Python floats: an overflow gives inf, not a numpy warning
        p_sq = scale * scale * q_sq
        if not math.isfinite(p_sq):
            raise NumericError(f"momentum moments are out of double range (<p^2> = {p_sq:g})")
        dz = self._dz
        return (
            self._z_mid + mean_u * dz,
            scale * mean_q,
            math.sqrt(max(var_u, 0.0)) * dz,
            scale * math.sqrt(max(q_sq - mean_q * mean_q, 0.0)),
            nrm,
        )


def moments(field: ComplexField, system: PhysicalSystem) -> tuple[float, float, float, float]:
    """(<z>, <p>, dz, dp) of a normalized field.

    Trapezoidal position moments and sixth-order momentum moments by the
    kernel that :func:`propagate_linear_potential` samples with, built for
    one call.  Raises ParameterError for an unnormalized field and
    NumericError for a norm^2 or momentum moments out of double range.
    """
    with np.errstate(over="ignore"):  # the kernel refuses a norm^2 out of double range
        return _Moments(field.grid, system)(field.values)[:4]


def _lapack_tridiagonal():
    """LAPACK's routines of the step, ``(zgttrf, zgttrs, ztbtrs)``.

    The complex tridiagonal factorization and solve, and the triangular
    banded solve (see :func:`_tridiagonal_solver`).  All three come from
    scipy's f2py extension module ``scipy.linalg._flapack``, loaded here on
    its own: the ``scipy.linalg`` package import would also run scipy's
    array-API layer (numpy.testing, unittest, numpy.f2py, ...), several
    times the cost of a small propagation.  The module is registered under
    its full name, so either import order shares one module and
    ``scipy.linalg.lapack.ztbtrs`` is the same object.  ``import scipy``
    loads no subpackage; on Windows it adds the directory of scipy's bundled
    OpenBLAS to the DLL search path.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        import scipy

        stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"scipy's LAPACK extension {stem}.* is missing", name=name)
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        flapack = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader)
        )
        sys.modules[name] = flapack
        loader.exec_module(flapack)
    return flapack.zgttrf, flapack.zgttrs, flapack.ztbtrs


def _tridiagonal_solver(lower: np.ndarray, diagonal: np.ndarray, upper: np.ndarray):
    """Factor a complex tridiagonal matrix A once: ``(routine, solve)``.

    ``solve(b)`` overwrites a contiguous complex128 vector b with A^-1 b and
    returns LAPACK's info; ``routine`` names the LAPACK solve it calls.  A
    is factored by zgttrf as L U with partial pivoting (NumericError when U
    is singular), and a factorization that interchanged rows is solved by
    zgttrs.

    Without an interchange (ipiv = 1..n, du2 = 0), L is unit lower
    bidiagonal and U upper bidiagonal with diagonal d and A's own
    super-diagonal, so A = D L' U' with D = diag(d), L' = D^-1 L D and
    U' = D^-1 U, both unit bidiagonal: L' has the sub-diagonal
    lower[i]/d[i+1] (L's multiplier times d[i] is A's sub-diagonal) and U'
    the super-diagonal upper[i]/d[i].  The solve is then b *= 1/d and two
    ztbtrs sweeps with a unit diagonal, which divide by nothing, while the
    back substitution of zgttrs divides by d[i] at every point, most of its
    time.  One Fortran-ordered (2, n) band serves both sweeps: row 1 holds
    L''s sub-diagonal and row 0 U''s super-diagonal, and a sweep with a unit
    diagonal never reads its own diagonal row, which is the other's.  1/d
    and the band are all that is kept, 3n values against 4n and the pivots
    for zgttrs.  ztbtrs runs BLAS ztbsv, which OpenBLAS does not thread, so
    the sweeps run on one thread whatever the BLAS thread count.
    """
    # Loaded here, not at import, so that importing gravqm and every CLI
    # command other than evolve load no scipy.
    zgttrf, zgttrs, ztbtrs = _lapack_tridiagonal()
    dl, d, du, du2, ipiv, info = zgttrf(lower, diagonal, upper)
    if info != 0:
        raise NumericError(f"Crank-Nicolson matrix factorization failed (zgttrf info={info})")
    if du2.any() or not np.array_equal(ipiv, np.arange(1, d.size + 1)):
        return "zgttrs", lambda b: zgttrs(dl, d, du, du2, ipiv, b, overwrite_b=True)[1]
    band = np.zeros((2, d.size), dtype=complex, order="F")
    np.divide(upper, d[:-1], out=band[0, 1:])
    np.divide(lower, d[1:], out=band[1, :-1])
    inverse = np.divide(1.0, d, out=d)

    def solve(b: np.ndarray) -> int:
        b *= inverse
        # (lower | upper, not transposed, unit diagonal, in place): f2py
        # parses these positionally faster than as keywords
        info = ztbtrs(band, b, "L", "N", "U", 1)[1]
        return info or ztbtrs(band, b, "U", "N", "U", 1)[1]

    return "ztbtrs", solve


def _check_edges(low: np.ndarray, high: np.ndarray, time: float) -> None:
    """Refuse a step whose three samples nearest either edge are not all small.

    NumericError when a sample is not finite, else BoundaryContactError at
    ``time`` when one exceeds the contact limit.
    """
    limit = BoundaryContactError.limit
    # Python scalars, compared so that a NaN sample fails the check
    a, b, c = low.tolist()
    x, y, z = high.tolist()
    if not (
        abs(a) <= limit and abs(b) <= limit and abs(c) <= limit
        and abs(x) <= limit and abs(y) <= limit and abs(z) <= limit
    ):
        edge = float(np.max(np.abs(np.r_[low, high])))
        if not math.isfinite(edge):
            raise NumericError(f"propagation produced non-finite samples at t={time:.6g}")
        raise BoundaryContactError(time=time, amplitude=edge)


def propagate_linear_potential(
    psi0: ComplexField,
    system: PhysicalSystem,
    slope: float,
    *,
    sample_every: int = 1,
    momentum_method: str | None = None,
) -> PropagationReport:
    """Numerov-Crank-Nicolson evolution under V = slope * z with Dirichlet walls.

    ``slope`` is the potential slope F (m_g*g for the field, 0 for free).
    The grid, with its time step and step count, is the grid of ``psi0``.
    Moments and norm^2 are sampled at t = 0, every ``sample_every`` steps
    and at the last step.  A slope that is not finite, or an initial state
    that is not normalized (by its first sample) or not clear of both edges,
    is a ParameterError.  The run is ``_evolve``'s, which picks the kernel
    and raises NumericError before either kernel runs when the potential it
    builds, its phase or a step coefficient on the grid leaves double range.

    ``momentum_method`` is accepted for the benchmark harness alone, which
    still passes ``"spectral"``; there is one moment kernel, so None,
    ``"central"`` and ``"spectral"`` are all ignored, and any other value is
    a ParameterError.  The next revision of the benchmark deletes it.
    """
    grid = psi0.grid
    if momentum_method not in (None, "central", "spectral"):
        raise ParameterError(f"unknown momentum method {momentum_method!r}")
    require_count("sample_every", sample_every, 1)
    slope = require_finite("slope", slope)
    sample = _Moments(grid, system)
    rows = []  # (t, <z>, <p>, dz, dp, norm^2) per sample

    def record(time: float, values: np.ndarray) -> None:
        rows.append((time, *sample(values)))

    with np.errstate(over="ignore"):  # outside input; a unitary run keeps |psi_j|^2 <= 2/dz
        record(0.0, psi0.values)
    _check_initial_state(psi0, rows[0][5])
    psi = _evolve(psi0.values, grid, system, slope, rows[0][1], sample_every, record)
    if grid.n_steps:
        record(grid.n_steps * grid.dt, psi)
    series = np.array(rows)
    return PropagationReport(
        final_field=ComplexField(grid, psi),
        norm_drift=abs(float(series[-1, 5] - series[0, 5])),
        moment_series=series[:, :5],
    )


def _evolve(
    values: np.ndarray, grid: Grid, system: PhysicalSystem, slope: float, z_ref: float,
    sample_every: int, record,
) -> np.ndarray:
    """Final samples of a run from ``values`` in V = slope * z: the one kernel entry.

    The stepped kernel builds V = slope * (z - z_ref), zero at the packet's
    mean z_ref (given by the caller) rather than at z = 0.  The two differ by
    the constant slope * z_ref, whose exact effect is the global phase
    exp(-i slope z_ref T/hbar) (Avron and Herbst, Commun. Math. Phys. 52,
    239 (1977)); the final samples are multiplied by it, so the run is
    returned in the V = slope * z gauge.  The scheme's error grows with the
    packet's energy, so the referenced run drops the part of its time error
    that the offset slope * z_ref would carry.  The samples passed to
    ``record`` lack the phase, which no moment depends on.

    First the checks that depend on the grid's time step: a potential
    slope * (z - z_ref) or a phase slope * z_ref * T/hbar that leaves double
    range is a NumericError naming it, and a step coefficient 3*dt*kin/hbar
    or 3*dt*(V + kin)/hbar that does is one naming dt.  Then the kernel is
    chosen, here alone.  A free run (slope 0) with steps and
    ``sample_every >= n_steps`` samples only its two ends, so it is made in
    the sine eigenbasis of the step (:func:`_free_run`), which gives the
    same fields to rounding.  Every other run is stepped: 6A is factored
    once (:func:`_tridiagonal_solver`) and each step
    psi = (6A)^-1 (12 M psi) - psi is one solve, with V in 6A alone.  The
    solve is 1/d and two unit-diagonal ztbtrs sweeps, which run on one
    thread whatever the BLAS thread count, unless zgttrf interchanged rows
    (from 3*dt*|V|/hbar of about 12 to 20 at the grid's edge on the grids
    measured, far past every shipped time step), when it is zgttrs.  Both
    kernels check the samples nearest each edge at every step.  The stepped
    loop calls ``record(t, psi)`` every ``sample_every`` steps before the
    last, so a run with ``sample_every >= n_steps`` may pass None.
    """
    dt = grid.dt
    kin = checked_square("hbar", system.hbar) / (2.0 * system.m_i * checked_square("dz", grid.dz))
    phase = 0.0
    # the largest |V| on the grid, so that slope * (z - z_ref) below cannot overflow
    v_max = finite_result(
        "potential slope*(z - z_ref)", abs(slope) * max(grid.z_max - z_ref, z_ref - grid.z_min)
    )
    # the largest step coefficients, in the order each kernel forms them
    finite_result(f"time step dt={dt:g}: 3*dt*kin/hbar", 3.0 * dt * kin * 4.0 / system.hbar)
    finite_result(
        f"time step dt={dt:g}: 3*dt*(V + kin)/hbar", 3.0 * dt / system.hbar * (v_max + 4.0 * kin)
    )
    if slope:
        phase = finite_result(
            "potential phase slope*z_ref*T/hbar", slope * z_ref * grid.total_time / system.hbar
        )
    if slope == 0.0 and 0 < grid.n_steps <= sample_every:
        return _free_run(values, grid, kin, system.hbar)
    potential = grid.z - z_ref
    potential *= slope
    # 6A = 6M + 6r K with r = i dt/(2 hbar): the diagonals below, on and
    # above, from K[j+1, j], K[j, j] and K[j, j+1] of K = T + M diag(V)
    r6 = 3j * dt / system.hbar
    routine, solve = _tridiagonal_solver(
        0.5 + r6 * (potential[:-1] / 12.0 - kin),
        5.0 + r6 * (potential * (10.0 / 12.0) + 2.0 * kin),
        0.5 + r6 * (potential[1:] / 12.0 - kin),
    )

    psi = values.copy()
    rhs = np.empty_like(psi)
    rhs_head, rhs_tail, psi_head, psi_tail = rhs[:-1], rhs[1:], psi[:-1], psi[1:]
    low, high = psi[:3], psi[-3:]
    for step in range(1, grid.n_steps + 1):
        # 12 M psi with the Dirichlet zeros: tridiag(1, 10, 1) psi
        np.multiply(psi, 10.0, out=rhs)
        rhs_head += psi_tail
        rhs_tail += psi_head
        info = solve(rhs)
        if info != 0:
            raise NumericError(
                f"tridiagonal solve failed at t={step * dt:.6g} ({routine} info={info})"
            )
        np.subtract(rhs, psi, out=psi)
        _check_edges(low, high, step * dt)
        if step % sample_every == 0 and step < grid.n_steps:
            record(step * dt, psi)
    if phase:
        psi *= cmath.exp(-1j * phase)
    return psi


def sample_stencil(fn, z_values: np.ndarray, t_values: np.ndarray) -> np.ndarray:
    """Evaluate a callable psi(z, t) on a (t, z) stencil as a 2-D array."""
    return np.array(
        [[complex(fn(float(zv), float(tv))) for zv in z_values] for tv in t_values]
    )


def pde_residual(
    values: np.ndarray,
    z_values: np.ndarray,
    t_values: np.ndarray,
    system: PhysicalSystem,
    slope: float,
) -> float:
    """Normalized residual of i*hbar*psi_t + hbar^2/(2m)*psi_zz - F*z*psi.

    ``values[i, j]`` samples psi(z_j, t_i) on uniform stencils.  Derivatives
    are second-order central differences on interior points; the maximum
    residual is divided by the magnitude of the largest single term so the
    result measures relative cancellation.  A stencil whose steps differ
    from its first by more than numpy's default relative tolerance (1e-5),
    at any spacing, is a ParameterError.  A slope that is not finite is a
    ParameterError, and one whose F*z leaves double range a NumericError.
    """
    slope = require_finite("slope", slope)
    values = np.asarray(values, dtype=complex)
    z_values = np.asarray(z_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    if values.ndim != 2 or values.shape != (t_values.size, z_values.size):
        raise ParameterError("values must have shape (len(t_values), len(z_values))")
    if z_values.size < 5 or t_values.size < 5:
        raise ParameterError("stencil needs at least 5 points per axis")
    dz = z_values[1] - z_values[0]
    dt = t_values[1] - t_values[0]
    if not (
        np.allclose(np.diff(z_values), dz, atol=0.0) and np.allclose(np.diff(t_values), dt, atol=0.0)
    ):
        raise ParameterError("stencil must be uniform in z and t")
    if not np.all(np.isfinite(values)):
        raise NumericError("stencil contains non-finite samples")
    finite_result("potential slope*z", slope * float(np.max(np.abs(z_values))))

    hbar, m = system.hbar, system.m_i
    inner = values[1:-1, 1:-1]
    psi_t = (values[2:, 1:-1] - values[:-2, 1:-1]) / (2.0 * dt)
    psi_zz = (values[1:-1, 2:] - 2.0 * inner + values[1:-1, :-2]) / dz**2
    term_t = 1j * hbar * psi_t
    term_zz = checked_square("hbar", hbar) / (2.0 * m) * psi_zz
    term_v = slope * z_values[None, 1:-1] * inner
    residual = np.max(np.abs(term_t + term_zz - term_v))
    scale = max(
        np.max(np.abs(term_t)), np.max(np.abs(term_zz)), np.max(np.abs(term_v)), 1e-300
    )
    return float(residual / scale)


def _sine_transform(values: np.ndarray) -> np.ndarray:
    """DST-I of complex samples: sum_j values[j] sin(pi (j+1)(k+1)/(N+1)) for each k.

    The transform is its own inverse up to a factor 2/(N+1).  The real and
    imaginary parts go through one real FFT as two rows of their odd
    extensions (0, x, 0, -reversed x), of length 2N + 2, whose imaginary
    part is -2 times the transform.  A complex FFT of that length would
    take twice the scratch, and when 2N + 2 has a large prime factor
    (8194 = 2 x 17 x 241) most of it is the work space of Bluestein's
    algorithm.
    """
    n = values.size
    extension = np.zeros((2, 2 * n + 2))
    extension[0, 1 : n + 1] = values.real
    extension[1, 1 : n + 1] = values.imag
    extension[:, n + 2 :] = -extension[:, n:0:-1]
    spectrum = np.fft.rfft(extension)[:, 1 : n + 1].imag
    return -0.5 * (spectrum[0] + 1j * spectrum[1])


def _free_run(values: np.ndarray, grid: Grid, kin: float, hbar: float) -> np.ndarray:
    """Final samples of a free run from ``values``, in the sine eigenbasis of the step.

    With V = 0 and Dirichlet walls, 12 M = tridiag(1, 10, 1) and 6A are
    symmetric Toeplitz tridiagonal, so the sine vectors sin(j theta_k),
    theta_k = pi k/(N+1), diagonalize the Numerov-Crank-Nicolson step
    psi <- (6A)^-1 (12 M psi) - psi exactly, with eigenvalues
    lambda_k = (5 + cos theta_k - i kappa_k)/(5 + cos theta_k + i kappa_k),
    kappa_k = 3 dt kin (2 - 2 cos theta_k)/hbar, kin = hbar^2/(2 m_i dz^2),
    and |lambda_k| = 1.  One transform of ``values`` gives its coefficients,
    each of the grid's steps multiplies them by lambda, and one inverse
    transform gives the final samples: a step costs an elementwise product,
    not a tridiagonal solve.

    Every step is checked as the stepped kernel checks it, with the same
    errors at the same step: the six samples nearest the edges are one
    product of a real 6 x N table with the coefficients.  Its rows 1-3 are
    sin(j theta_k) 2/(N+1), j = 1, 2, 3, for psi[:3]; rows 4-6 are the same
    rows reversed and signed, as sin((N+1-j) theta_k) = (-1)^(k+1) sin(j theta_k),
    for psi[N-3], psi[N-2], psi[N-1], the order of ``psi[-3:]``.
    """
    n = grid.n_points
    theta = np.arange(1, n + 1) * (math.pi / (n + 1))
    near = np.sin(np.outer([1.0, 2.0, 3.0], theta)) * (2.0 / (n + 1))
    table = np.vstack([near, near[::-1] * (-1.0) ** np.arange(n)])
    cos = np.cos(theta)
    kappa = 3.0 * grid.dt * kin * (2.0 - 2.0 * cos) / hbar
    lam = (5.0 + cos - 1j * kappa) / (5.0 + cos + 1j * kappa)
    w = _sine_transform(values)
    # (real, imaginary) columns, so the sums are a real matrix product
    parts = w.view(float).reshape(n, 2)
    edges = np.empty((6, 2))
    low, high = edges.view(complex)[:, 0].reshape(2, 3)
    for step in range(1, grid.n_steps + 1):
        w *= lam
        np.matmul(table, parts, out=edges)
        _check_edges(low, high, step * grid.dt)
    return _sine_transform(w) * (2.0 / (n + 1))


def _extrapolated_run(
    psi0: ComplexField, system: PhysicalSystem, slope: float
) -> tuple[PropagationReport, np.ndarray, float]:
    """One run in V = slope*z, extrapolated in time: (report, values, change).

    The run is made on the grid of ``psi0`` (n steps of dt), sampled at its
    two ends, and once more on the same spatial grid with m = ceil(n/2)
    steps of T/m.  The Crank-Nicolson error of a time-independent
    Hamiltonian is even in dt, so the final field is extrapolated to
    psi_f + (psi_f - psi_c)/(q^2 - 1) with q = n/m (Richardson), which
    cancels the dt^2 term and leaves the field fourth order in time.
    ``report`` is the run on the given grid and ``change`` the largest
    change the extrapolation made; fewer than two steps are returned plainly,
    with a change of 0.  The coarse run is a bare :func:`_evolve` call: it
    checks its own time step, samples no moments and takes the fine run's z_ref.
    """
    grid = psi0.grid
    n = grid.n_steps
    report = propagate_linear_potential(psi0, system, slope, sample_every=max(1, n))
    fine = report.final_field.values
    if n < 2:
        return report, fine, 0.0
    m = (n + 1) // 2
    coarse_grid = Grid(grid.z_min, grid.z_max, grid.n_points, dt=grid.total_time / m, n_steps=m)
    z_ref = float(report.moment_series[0, 1])
    coarse = _evolve(psi0.values, coarse_grid, system, slope, z_ref, m, None)
    # times the reciprocal: dividing by q^2 - 1 can round the last bit differently
    correction = (fine - coarse) * (1.0 / ((n / m) ** 2 - 1.0))
    return report, fine + correction, float(np.max(np.abs(correction)))


def frame_equivalence(psi0_free: ComplexField, system: PhysicalSystem) -> FrameEquivalenceResult:
    """Run the dual-path comparison behind the equivalence claim.

    Path one evolves the initial state freely in the falling frame and
    applies the shift and phase map at the final time; path two applies the
    map at t = 0 (a pure boost phase when the frame has initial velocity)
    and evolves the result directly in the potential V = m_g*g*z.  When
    a = m_g*g/m_i the two paths agree up to one global phase and
    discretization error; otherwise the mismatch grows with the violation.

    Each path is a :func:`_extrapolated_run` on the grid of ``psi0_free``,
    so the comparison is fourth order in time; its runs sample only their
    ends, so the free path's are not stepped.  The mismatch and the
    global-phase alignment are taken on the extrapolated fields;
    ``free_report`` and ``direct_report`` are the runs on the given grid,
    and ``time_correction`` is the largest change the extrapolation made to
    either path (0 for fewer than two steps, which are compared plainly).
    """
    grid = psi0_free.grid
    t_final = grid.total_time
    free_report, free, free_change = _extrapolated_run(psi0_free, system, 0.0)
    direct_report, direct, direct_change = _extrapolated_run(
        to_stationary_frame(system, psi0_free, 0.0), system, system.weight
    )
    offset = finite_result("frame shift v*t + a*t^2/2", system.shift(t_final))
    shifted = shift_field(ComplexField(grid, free), offset)
    direct_field = ComplexField(grid, direct)
    transformed = align_global_phase(to_stationary_frame(system, shifted, t_final), direct_field)
    return FrameEquivalenceResult(
        max_mismatch=float(np.max(np.abs(transformed.values - direct))),
        time_correction=max(free_change, direct_change),
        transformed=transformed,
        direct=direct_field,
        free_report=free_report,
        direct_report=direct_report,
    )


def frame_equivalence_test(psi0_free: ComplexField, system: PhysicalSystem) -> float:
    """Maximum pointwise mismatch of the dual-path comparison."""
    return frame_equivalence(psi0_free, system).max_mismatch


def free_dispersion_width(sigma0: float, t, system: PhysicalSystem):
    """Analytic free-packet width sigma0*sqrt(1 + (hbar t/(2 m sigma0^2))^2).

    ``t`` is a time or an array of times.  ParameterError for a sigma0 that
    is not positive or a time that is not finite, NumericError for a width
    out of double range.
    """
    sigma0_sq = checked_square("sigma0", require_positive("sigma0", sigma0))
    t = np.vectorize(lambda value: require_finite("t", value), otypes=[float])(t)
    with np.errstate(over="ignore"):  # checked below instead
        width = sigma0 * np.hypot(1.0, system.hbar * t / (2.0 * system.m_i * sigma0_sq))
    if not np.isfinite(width).all():
        raise NumericError("free-packet width is out of double range")
    return width


def heisenberg_checks(
    report: PropagationReport,
    system: PhysicalSystem,
) -> dict[str, CheckOutcome]:
    """A sampled moment series against the exact Heisenberg-picture solution.

    In V = F*z with F = m_g*g the Heisenberg equations close:
    z_H(t) = z + p*t/m_i - F*t^2/(2*m_i) and p_H(t) = p - F*t.  So each
    moment is a polynomial in t, and each check compares it point by point:

    * ``mean_momentum``: <p> - (p0 - F*t);
    * ``mean_position``: <z> - (z0 + p0*t/m_i - F*t^2/(2*m_i));
    * ``momentum_spread``: dp - dp0;
    * ``position_spread``: dz^2 - (dz0^2 + 2*C*t/m_i + dp0^2*t^2/m_i^2).

    z0, p0, dz0 and dp0 are the first sample.  C, the covariance
    <{z - <z>, p - <p>}>/2 at t = 0, is fixed by the last sample, which is
    exact because the covariance grows as C + dp^2*t/m_i; so a residual of
    dz^2 exactly linear in t is absorbed into C.  A residual is the largest
    difference over a scale, with T the last sample time: dp0 + |F|*T,
    dz0 + (|p0| + dp0)*T/m_i + |F|*T^2/(2*m_i), dp0 and dz(T)^2.  Series of
    any length are checked, but a single sample matches by construction, and
    a two-sample series (one step, or a run sampled at its ends) checks the
    means and dp but not dz^2: C is fixed by the last sample, so the dz^2
    residual of two samples is zero.

    The bounds (1e-6 relative for the means and dz^2, 1e-8 for dp) are set
    for packets started near rest, as in criterion 5 and the bouncer-moments
    demo, whose sixth-order momentum moments (:func:`moments`) keep dp
    below 1e-13 at the demo's 12288 points and to 4.7e-13 at 2048.  The
    Crank-Nicolson time error grows with the packet's kinetic energy, so a
    moving packet can fail on working code; where the potential is zero does
    not enter it, since the propagator references V to the packet.  With
    m_i 1.3, m_g 0.7, g 2, hbar 0.9, sigma 0.6, 2048 points on [-14, 13]
    and 600 steps of 1e-3, a packet at rest reads ``mean_momentum`` 1.38e-7
    and ``position_spread`` 2.80e-8 at z0 = -4, -2, 0 and 2 alike, but one
    started at z0 = -2 with k0 = 1.5 reads ``momentum_spread`` 7.3e-7.

    A difference or a scale out of double range (a run so long that the
    closed form overflows) is a NumericError.
    """
    t, mean_z, mean_p, sigma_z, sigma_p = report.moment_series.T
    z0, p0, dz0, dp0 = (float(column[0]) for column in (mean_z, mean_p, sigma_z, sigma_p))
    m, force, end = system.m_i, system.weight, float(t[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below instead
        # dz^2 less its C-free part is 2*C*t/m_i, and 2*C*T/m_i is its last value
        excess = sigma_z**2 - dz0**2 - (dp0 * t / m) ** 2
        checks = {
            "mean_momentum": (mean_p - (p0 - force * t), dp0 + abs(force) * end, _MOMENT_RTOL),
            "mean_position": (
                mean_z - (z0 + (p0 - 0.5 * force * t) * t / m),
                dz0 + ((abs(p0) + dp0) * end + 0.5 * abs(force) * end * end) / m,
                _MOMENT_RTOL,
            ),
            "momentum_spread": (sigma_p - dp0, dp0, _MOMENTUM_SPREAD_RTOL),
            # with one sample, t = 0 and so excess = 0
            "position_spread": (
                excess - excess[-1] * (t / end if end else t), float(sigma_z[-1]) ** 2, _MOMENT_RTOL
            ),
        }
    outcomes = {}
    for name, (difference, scale, tolerance) in checks.items():
        largest = float(np.max(np.abs(difference)))
        if not (math.isfinite(largest) and math.isfinite(scale)):
            raise NumericError(
                f"heisenberg_checks {name}: the closed form at t={end:g} is out of double range"
            )
        residual = largest / scale
        outcomes[name] = CheckOutcome(residual, tolerance, residual <= tolerance)
    return outcomes
