"""Grid propagation of the time-dependent Schrodinger equation and oracles.

The propagator is Numerov-Crank-Nicolson with Dirichlet zero boundaries: the
compact fourth-order (Mehrstellen) stencil in space inside the Crank-Nicolson
step, the generalised scheme of van Dijk and Toyama, Phys. Rev. E 75, 036707
(2007).  With the Numerov mass matrix M = tridiag(1, 10, 1)/12 and
K = T + M diag(V), where T is the three-point kinetic matrix, one step solves
(M + i dt K/(2 hbar)) psi_new = (M - i dt K/(2 hbar)) psi.  Both sides stay
tridiagonal, so each step is one complex tridiagonal solve, factored once
since the Hamiltonian is time independent.  The spatial error is fourth order
and the time error second order.  K is not Hermitian when V varies, so the
trapezoid norm is conserved up to the discretization error (drifts of at
most about 1e-12 over 1e4 steps on the test grids) rather than to rounding.
The caller sizes the domain so the packet never reaches the edges (a contact
is reported as an error naming the time).

The step loop allocates no grid-sized array: the right-hand side is built
with ``out=`` products into a preallocated buffer, the solve overwrites that
buffer in place and the two state buffers swap, and moments are sampled by
one kernel (``_Moments``) whose weights, wavenumbers and work arrays are
built once per propagation.  The public :func:`moments` is the same kernel
built for a single call.

On top of the propagator sit the consistency checks used throughout the
package: a finite-difference residual of the governing equation for
analytically given fields, the dual-path comparison between free evolution
plus the falling-frame phase map and direct evolution in the linear
potential, and moment series for position/momentum means and spreads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ComplexField, Grid, PhysicalSystem, checked_square, norm_squared, np
from .errors import BoundaryContactError, NumericError, ParameterError
from .frames import FrameTransform, to_stationary_frame

# Edge amplitude above which a propagation is aborted as boundary contact.
_CONTACT_AMPLITUDE = 1e-6
# Edge amplitude required of the initial state (within 5 points of each edge).
_INITIAL_EDGE_AMPLITUDE = 1e-12

# Reference configuration of the dual-path equivalence run (natural units,
# m = g = hbar = 1, packet at rest).  The grid is fine enough that the
# fourth-order spatial error of the two paths stays below the 1e-6 mismatch
# budget (1.4e-7 measured); see the dynamics tests for the measured
# convergence behaviour.
REFERENCE_FRAME_RUN = {
    "z_min": -20.0,
    "z_max": 30.0,
    "n_points": 2048,
    "dt": 1e-4,
    "t_final": 1.0,
    "sigma0": 0.5,
    "center": 8.0,
}

# Tolerances of heisenberg_checks: relative for the two fits, absolute for
# the spread and uncertainty relations.
_SLOPE_RTOL = 1e-6
_PARABOLA_RTOL = 1e-5
_DP_ATOL = 1e-8
_GROWTH_ATOL = 1e-9
_PRODUCT_ATOL = 1e-9


@dataclass(frozen=True)
class PropagationReport:
    """Outcome of one propagation: final field, drift, sampled moments.

    ``moment_series`` has one row (t, <z>, <p>, dz, dp) per sample.
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
    """Dual-path comparison: transformed free run vs direct potential run."""

    max_mismatch: float
    transformed: ComplexField
    direct: ComplexField
    free_report: PropagationReport
    direct_report: PropagationReport


def gaussian_packet(
    grid: Grid, center: float, sigma: float, k0: float = 0.0
) -> ComplexField:
    """Normalized Gaussian exp(-(z-center)^2/(4 sigma^2) + i k0 z) on the grid."""
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    z = grid.z
    sigma_sq = checked_square("sigma", sigma)
    psi = (2.0 * math.pi * sigma_sq) ** -0.25 * np.exp(
        -((z - center) ** 2) / (4.0 * sigma_sq) + 1j * k0 * z
    )
    field = ComplexField(grid, psi)
    return field.normalized()


def _wavenumbers(grid: Grid) -> np.ndarray:
    """Angular wavenumbers 2*pi*fftfreq of the grid, in FFT order."""
    return 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.dz)


def shift_field(field: ComplexField, offset: float) -> ComplexField:
    """Resample a field at z + offset by trigonometric interpolation.

    Spectrally exact for packets that vanish at the grid edges (the periodic
    extension is then smooth to machine precision); used to evaluate a free
    run at the shifted coordinate of the falling frame.  The resampling is
    periodic, so the samples within |offset| of the incoming edge reappear
    at the far side: NumericError is raised when they exceed the contact
    amplitude, or when |offset| is not smaller than the domain.
    """
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
    if not amplitude <= _CONTACT_AMPLITUDE:
        raise NumericError(
            f"shift offset {offset:g} carries amplitude {amplitude:.3e} across the "
            "grid edge; enlarge the domain"
        )
    k = _wavenumbers(grid)
    shifted = np.fft.ifft(np.fft.fft(field.values) * np.exp(1j * k * offset))
    return ComplexField(grid, shifted)


def align_global_phase(field: ComplexField, reference: ComplexField) -> ComplexField:
    """Rotate ``field`` by the constant phase that best matches ``reference``.

    The falling-frame map fixes the wave function only up to one constant
    phase, so comparisons are made after this alignment.
    """
    if field.grid != reference.grid:
        raise ParameterError("fields live on different grids")
    inner = np.sum(np.conj(field.values) * reference.values) * field.grid.dz
    if inner == 0:
        return field
    return ComplexField(field.grid, field.values * np.exp(1j * np.angle(inner)))


def max_pointwise_mismatch(a: ComplexField, b: ComplexField) -> float:
    """Max |a_k - b_k| after global-phase alignment of a to b."""
    aligned = align_global_phase(a, b)
    return float(np.max(np.abs(aligned.values - b.values)))


def _check_initial_state(psi0: ComplexField) -> None:
    if not psi0.is_normalized(tol=1e-8):
        raise ParameterError(
            f"initial state must be normalized (|norm^2 - 1| = "
            f"{abs(psi0.norm_squared() - 1.0):.3e})"
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


class _Moments:
    """Moment kernel for one (grid, system, method): (<z>, <p>, dz, dp) of samples.

    The trapezoid weights, the wavenumbers and three work arrays are built
    once; a call fills the work arrays with ``out=`` ufuncs and reduces them
    with numpy's pairwise ``sum``, so sampling a propagation allocates no
    grid-sized array and starts no BLAS threads.  (A BLAS dot product from
    about 10^4 points may hand the work to its threads, which costs more
    than the product and stalls on a busy host.)  Position moments use
    trapezoidal quadrature.  Momentum moments use -i*hbar times central
    differences (``method="central"``) or the Fourier representation
    (``method="spectral"``).
    """

    def __init__(self, grid: Grid, system: PhysicalSystem, method: str):
        if method not in ("central", "spectral"):
            raise ParameterError(f"unknown momentum method {method!r}")
        n, dz = grid.n_points, grid.dz
        self._method = method
        self._hbar = system.hbar
        self._hbar_sq = checked_square("hbar", system.hbar)
        self._two_dz = 2.0 * dz
        self._z = grid.z
        self._weights = np.full(n, dz)
        self._weights[[0, -1]] = dz / 2.0
        if method == "spectral":
            self._k = _wavenumbers(grid)
            self._k_sq = self._k**2
        self._density = np.empty(n)
        self._work = np.empty(n)
        self._complex_work = np.empty(n, dtype=complex)

    def __call__(self, psi: np.ndarray) -> tuple[float, float, float, float]:
        hbar, rho, work, c = self._hbar, self._density, self._work, self._complex_work
        # trapezoid-weighted density: its sum is the norm
        np.abs(psi, out=rho)
        rho *= rho
        rho *= self._weights
        nrm = float(rho.sum())
        # written so that a NaN norm fails the check
        if not abs(nrm - 1.0) <= 1e-6:
            if not np.all(np.isfinite(psi)):
                raise NumericError("field contains NaN or infinite samples")
            raise ParameterError("moments require a normalized field")
        np.multiply(self._z, rho, out=work)
        mean_z = float(work.sum()) / nrm
        np.subtract(self._z, mean_z, out=work)
        work *= work
        work *= rho
        var_z = float(work.sum()) / nrm
        if self._method == "central":
            np.subtract(psi[2:], psi[:-2], out=c[1:-1])
            # one-sided edges with the Dirichlet zero just outside the grid
            c[0] = psi[1]
            c[-1] = -psi[-2]
            c /= self._two_dz
            np.abs(c, out=work)
            work *= work
            work *= self._weights
            p_sq = self._hbar_sq * float(work.sum()) / nrm
            # Im(conj(psi) dpsi) = -Im(conj(dpsi) psi)
            np.conjugate(c, out=c)
            c *= psi
            np.multiply(self._weights, c.imag, out=work)
            mean_p = -hbar * float(work.sum()) / nrm
        else:
            np.fft.fft(psi, out=c)
            np.abs(c, out=work)
            work *= work
            total = float(work.sum())
            # the density is no longer needed: reuse it for the products
            np.multiply(self._k, work, out=rho)
            mean_p = hbar * float(rho.sum()) / total
            np.multiply(self._k_sq, work, out=rho)
            p_sq = self._hbar_sq * float(rho.sum()) / total
        sigma_p = math.sqrt(max(p_sq - mean_p**2, 0.0))
        return mean_z, mean_p, math.sqrt(max(var_z, 0.0)), sigma_p


def moments(
    field: ComplexField,
    system: PhysicalSystem,
    method: str = "central",
) -> tuple[float, float, float, float]:
    """(<z>, <p>, dz, dp) of a normalized field.

    Position moments use trapezoidal quadrature.  Momentum moments use
    -i*hbar times central differences by default; ``method="spectral"`` uses
    the Fourier representation instead (same contract, sharper for smooth
    packets away from the edges).  This is the kernel that
    :func:`propagate_linear_potential` samples with, built for one call.
    Raises ParameterError for an unnormalized field or an unknown method
    and NumericError for non-finite samples.
    """
    return _Moments(field.grid, system, method)(field.values)


def propagate_linear_potential(
    psi0: ComplexField,
    system: PhysicalSystem,
    slope: float,
    *,
    sample_every: int = 1,
    momentum_method: str = "central",
) -> PropagationReport:
    """Numerov-Crank-Nicolson evolution under V = slope * z with Dirichlet walls.

    ``slope`` is the potential slope F (m_g*g for the field, 0 for free).
    The grid, with its time step and step count, is the grid of ``psi0``.
    Moments are sampled at t = 0 and every ``sample_every`` steps.
    """
    # Imported here so that importing gravqm, and every CLI command other
    # than evolve, does not load scipy.linalg.
    from scipy.linalg.lapack import zgttrf, zgttrs

    grid = psi0.grid
    if sample_every < 1:
        raise ParameterError("sample_every must be >= 1")
    _check_initial_state(psi0)
    sample = _Moments(grid, system, momentum_method)
    rows = [(0.0, *sample(psi0.values))]
    if grid.n_steps == 0:
        # zero-step evolution: the initial state, with a single moment sample
        return PropagationReport(final_field=psi0, norm_drift=0.0, moment_series=np.array(rows))

    dt = grid.dt
    kin = checked_square("hbar", system.hbar) / (2.0 * system.m_i * checked_square("dz", grid.dz))
    potential = slope * grid.z
    r = 1j * dt / (2.0 * system.hbar)
    # K = T + M diag(V): diagonal, K[j+1, j] and K[j, j+1]
    k_diag = 2.0 * kin + potential * (10.0 / 12.0)
    k_lower = -kin + potential[:-1] / 12.0
    k_upper = -kin + potential[1:] / 12.0
    dl, d, du, du2, ipiv, info = zgttrf(
        1.0 / 12.0 + r * k_lower, 10.0 / 12.0 + r * k_diag, 1.0 / 12.0 + r * k_upper
    )
    if info != 0:
        raise NumericError(f"Crank-Nicolson matrix factorization failed (zgttrf info={info})")
    b_diag = 10.0 / 12.0 - r * k_diag
    b_lower = 1.0 / 12.0 - r * k_lower
    b_upper = 1.0 / 12.0 - r * k_upper

    # Two state buffers swapped around the in-place solve, and one product
    # buffer for the off-diagonals: the loop allocates no grid-sized array.
    psi = psi0.values.copy()
    rhs = np.empty_like(psi)
    product = np.empty(grid.n_points - 1, dtype=complex)
    edge_amplitudes = np.empty(6)
    norm0 = norm_squared(psi0)
    for step in range(1, grid.n_steps + 1):
        np.multiply(b_diag, psi, out=rhs)
        np.multiply(b_upper, psi[1:], out=product)
        rhs[:-1] += product
        np.multiply(b_lower, psi[:-1], out=product)
        rhs[1:] += product
        # zgttrs solves in place for a contiguous complex128 right-hand side
        solution, info = zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
        if info != 0:
            raise NumericError(
                f"tridiagonal solve failed at t={step * dt:.6g} (zgttrs info={info})"
            )
        psi, rhs = solution, psi
        np.abs(psi[:3], out=edge_amplitudes[:3])
        np.abs(psi[-3:], out=edge_amplitudes[3:])
        # a numpy reduction, so that a NaN edge fails the check
        edge = float(edge_amplitudes.max())
        if not edge <= _CONTACT_AMPLITUDE:
            if not math.isfinite(edge):
                raise NumericError(f"propagation produced non-finite samples at t={step * dt:.6g}")
            raise BoundaryContactError(time=step * dt, amplitude=edge)
        if step % sample_every == 0 or step == grid.n_steps:
            rows.append((step * dt, *sample(psi)))
    final = ComplexField(grid, psi)
    return PropagationReport(
        final_field=final,
        norm_drift=abs(norm_squared(final) - norm0),
        moment_series=np.array(rows),
    )


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
    result measures relative cancellation.
    """
    values = np.asarray(values, dtype=complex)
    z_values = np.asarray(z_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    if values.ndim != 2 or values.shape != (t_values.size, z_values.size):
        raise ParameterError("values must have shape (len(t_values), len(z_values))")
    if z_values.size < 5 or t_values.size < 5:
        raise ParameterError("stencil needs at least 5 points per axis")
    dz = z_values[1] - z_values[0]
    dt = t_values[1] - t_values[0]
    if not (np.allclose(np.diff(z_values), dz) and np.allclose(np.diff(t_values), dt)):
        raise ParameterError("stencil must be uniform in z and t")
    if not np.all(np.isfinite(values)):
        raise NumericError("stencil contains non-finite samples")

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


def frame_equivalence(psi0_free: ComplexField, system: PhysicalSystem) -> FrameEquivalenceResult:
    """Run the dual-path comparison behind the equivalence claim.

    Path one evolves the initial state freely in the falling frame and
    applies the shift and phase map at the final time; path two applies the
    map at t = 0 (a pure boost phase when the frame has initial velocity)
    and evolves the result directly in the potential V = m_g*g*z.  When
    a = m_g*g/m_i the two paths agree up to one global phase and
    discretization error; otherwise the mismatch grows with the violation.
    Both paths run on the grid of ``psi0_free``, with its time step and step
    count.
    """
    grid = psi0_free.grid
    ft = FrameTransform.from_system(system)
    t_final = grid.total_time
    stride = max(1, grid.n_steps)
    free_report = propagate_linear_potential(
        psi0_free, system, 0.0, sample_every=stride
    )
    direct_initial = to_stationary_frame(ft, psi0_free, 0.0)
    direct_report = propagate_linear_potential(
        direct_initial, system, system.weight, sample_every=stride
    )
    shifted = shift_field(free_report.final_field, ft.shift(t_final))
    transformed = to_stationary_frame(ft, shifted, t_final)
    mismatch = max_pointwise_mismatch(transformed, direct_report.final_field)
    return FrameEquivalenceResult(
        max_mismatch=mismatch,
        transformed=align_global_phase(transformed, direct_report.final_field),
        direct=direct_report.final_field,
        free_report=free_report,
        direct_report=direct_report,
    )


def frame_equivalence_test(psi0_free: ComplexField, system: PhysicalSystem) -> float:
    """Maximum pointwise mismatch of the dual-path comparison."""
    return frame_equivalence(psi0_free, system).max_mismatch


def free_dispersion_width(sigma0: float, t, system: PhysicalSystem):
    """Analytic free-packet width sigma0*sqrt(1 + (hbar t/(2 m sigma0^2))^2)."""
    sigma0_sq = checked_square("sigma0", sigma0)
    tau = system.hbar * np.asarray(t, dtype=float) / (2.0 * system.m_i * sigma0_sq)
    return sigma0 * np.hypot(1.0, tau)


def heisenberg_checks(
    report: PropagationReport,
    system: PhysicalSystem,
) -> dict[str, CheckOutcome]:
    """Operator-dynamics relations evaluated on a sampled moment series.

    Checks, with their residuals:

    * ``momentum_slope``: least-squares slope of <p>(t) against -m_g*g;
    * ``position_parabola``: quadratic coefficient of <z>(t) against
      -m_g*g/(2*m_i);
    * ``momentum_spread_constant``: max drift of dp from its initial value;
    * ``position_spread_growth``: dz_t*dz_0 >= hbar*t/(2*m_i) at every sample;
    * ``uncertainty_product``: dz_t*dp_t >= hbar/2 at every sample.
    """
    series = report.moment_series
    if series.shape[0] < 3:
        raise ParameterError("moment series too short for fits")
    t, mean_z, mean_p, sigma_z, sigma_p = series.T
    force = system.m_g * system.g

    slope = float(np.polyfit(t, mean_p, 1)[0])
    slope_res = abs(slope + force) / (abs(force) if force != 0.0 else 1.0)

    coeff = float(np.polyfit(t, mean_z, 2)[0])
    target = -force / (2.0 * system.m_i)
    parabola_res = abs(coeff - target) / (abs(target) if target != 0.0 else 1.0)

    dp_res = float(np.max(np.abs(sigma_p - sigma_p[0])))
    growth_res = float(np.min(sigma_z * sigma_z[0] - system.hbar * t / (2.0 * system.m_i)))
    product_res = float(np.min(sigma_z * sigma_p - system.hbar / 2.0))

    return {
        "momentum_slope": CheckOutcome(slope_res, _SLOPE_RTOL, slope_res <= _SLOPE_RTOL),
        "position_parabola": CheckOutcome(
            parabola_res, _PARABOLA_RTOL, parabola_res <= _PARABOLA_RTOL
        ),
        "momentum_spread_constant": CheckOutcome(dp_res, _DP_ATOL, dp_res <= _DP_ATOL),
        "position_spread_growth": CheckOutcome(
            growth_res, _GROWTH_ATOL, growth_res >= -_GROWTH_ATOL
        ),
        "uncertainty_product": CheckOutcome(
            product_res, _PRODUCT_ATOL, product_res >= -_PRODUCT_ATOL
        ),
    }
