"""Inverse problems: recover notch parameters from measured traces and
capacitor constants from resonator ensembles.

The trace pipeline follows the standard circle-fit sequence: estimate
and remove the cable delay, fit an algebraic circle to the locus, fit
the phase-vs-frequency winding for f_r and Q_l, read the coupling
quantities off the canonical-frame geometry, then refine everything in
one global complex least-squares pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .constants import FF, TWO_PI
from .errors import (DegenerateDataError, DegenerateGeometryError, DomainError,
                     ExtractionError, FitInstabilityError,
                     InsufficientDataError, NonphysicalMismatchError,
                     NonphysicalQinError, RankDeficiencyError)
from .notch import (NotchParams, Trace, _jacobian_rows, _model_terms,
                    s21_model)

__all__ = [
    "CircleFit", "PhaseFit", "EnvironmentParams", "NotchFitResult",
    "AreaFrequencyDataset", "AreaFitResult", "CapAreaFitResult",
    "estimate_delay", "fit_circle", "fit_phase", "extract_qfactors",
    "fit_notch", "fit_frequency_vs_area", "fit_capacitance_vs_area",
]

MIN_TRACE_POINTS = 8
# Grid points of the delay search over +-2/span. 31 points, 0.13/span
# apart, still find the basin of the circle residual: on 100 noisy
# resonance-free traces the delay misses 1 % once, as with 81 points
# (21 points miss 3 times, 11 fail outright).
DELAY_GRID_POINTS = 31
# The circle residual of a large circle at low noise can dip between
# grid points, and a delay seed 0.01/span off can break the circle and
# phase fits before the refinement. A second grid therefore spans the
# best point's bracket in steps of 1/DELAY_ZOOM of the first: over 300
# wide-range traces (Q_in 1e2-3e6, |Q_e| 3e2-3e5, 8-3000 points, noise
# 1e-5-0.5) the first grid's parabola alone seeds 20 fewer good fits
# than a Brent search to 1e-4/span did, the zoom 6 more than Brent.
DELAY_ZOOM = 4


@dataclass(frozen=True)
class CircleFit:
    """Algebraic circle through a complex point set."""

    center: complex
    radius: float
    rms: float


@dataclass(frozen=True)
class PhaseFit:
    """Phase-winding fit theta(f) = theta0 + 2 arctan(2 Q_l (1 - f/f_r))."""

    f_r: float
    q_loaded: float
    theta0: float
    residual_norm: float


@dataclass(frozen=True)
class EnvironmentParams:
    """Instrument environment stripped before the canonical frame."""

    gain: float
    phase: float
    delay: float


@dataclass
class NotchFitResult:
    """Refined resonance parameters with their uncertainties.

    q_internal always satisfies 1/q_internal = 1/q_loaded -
    cos(phi)/q_ext_mag exactly for the reported parameter values.
    """

    params: NotchParams
    q_internal: float
    uncertainties: dict[str, float]
    residual_rms: float
    converged: bool


def _unwrap_from_mid(theta: np.ndarray) -> np.ndarray:
    """Unwrap phase outward from the trace midpoint.

    Resonance-centered traces keep the winding unambiguous this way
    even when the ends sit near the branch cut. The steps are walked
    outward, forward above the midpoint and backward below it, and each
    step of pi or more is corrected as np.unwrap corrects it.
    """
    mid = theta.size // 2
    step = np.diff(theta)
    step[:mid] *= -1.0
    jump = np.abs(step) >= math.pi
    out = theta.copy()
    if not jump.any():
        return out
    big = step[jump]
    wrapped = np.mod(big + math.pi, TWO_PI) - math.pi
    wrapped[(wrapped == -math.pi) & (big > 0)] = math.pi
    fix = np.zeros_like(step)
    fix[jump] = wrapped - big
    out[mid + 1:] += np.cumsum(fix[mid:])
    out[:mid] += np.cumsum(fix[:mid][::-1])[::-1]
    return out


def fit_circle(points) -> CircleFit:
    """Moment-based algebraic circle fit (Taubin).

    Exact on noiseless circle data; raises DegenerateGeometryError for
    fewer than three points or a collinear/coincident set.
    """
    z = np.asarray(points, dtype=complex).ravel()
    if z.size < 3:
        raise DegenerateGeometryError("circle fit needs at least 3 points")
    x0, y0 = z.real.mean(), z.imag.mean()
    x = z.real - x0
    y = z.imag - y0
    sq = x * x + y * y
    sq_mean = sq.mean()
    spread = math.sqrt(sq_mean) if sq_mean > 0 else 0.0
    if spread <= 1e-14 * max(1.0, abs(x0), abs(y0)):
        raise DegenerateGeometryError("points are coincident")
    zn = (sq - sq_mean) / (2.0 * spread)
    # The smallest eigenvector of the 3x3 moment matrix M^T M, with M the
    # columns (zn, x, y), is the smallest right singular vector of M.
    zz, zx, zy = zn @ zn, zn @ x, zn @ y
    xx, xy, yy = x @ x, x @ y, y @ y
    moments = np.array([[zz, zx, zy], [zx, xx, xy], [zy, xy, yy]])
    a = np.linalg.eigh(moments)[1][:, 0]
    if abs(a[0]) < 1e-14:
        raise DegenerateGeometryError("points are collinear")
    a0 = a[0] / (2.0 * spread)
    a3 = -sq_mean * a0
    xc = -a[1] / (2.0 * a0) + x0
    yc = -a[2] / (2.0 * a0) + y0
    radius = math.sqrt(a[1] ** 2 + a[2] ** 2 - 4.0 * a0 * a3) / (2.0 * abs(a0))
    if not (math.isfinite(radius) and math.isfinite(xc) and math.isfinite(yc)):
        raise DegenerateGeometryError("circle fit did not produce a finite circle")
    center = complex(xc, yc)
    rms = float(np.sqrt(np.mean((np.abs(z - center) - radius) ** 2)))
    return CircleFit(center=center, radius=radius, rms=rms)


def _circle_rms(zc) -> float:
    try:
        return fit_circle(zc).rms
    except DegenerateGeometryError:
        # A coincident blob is maximally circular for delay purposes.
        return 0.0


def _phase_slope_delay(freqs, z) -> float:
    theta = _unwrap_from_mid(np.angle(z))
    df = freqs - freqs.mean()
    slope = (df @ theta) / (df @ df)
    return -slope / TWO_PI


def _taubin_criterion(n, p2, p4, s1, s2, s3) -> np.ndarray:
    """Taubin circle criterion of rotated loci w = z e^(i phi(f)) from
    their moment sums: s1 = sum w, s2 = sum w^2, s3 = sum |z|^2 w, with
    p2 = sum |z|^2 and p4 = sum |z|^4 shared (|w| = |z|).

    The moments of fit_circle's centred columns (zn, x, y) are closed
    forms in these sums, and the smallest eigenvalue of their 3x3 matrix
    over n is mean((|w - c|^2 - r^2)^2) / (4 r^2) for the Taubin circle
    (c, r): the squared rms of the circle fit for thin noise. Entries
    that are not finite (a coincident locus) come back as inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = s1 / n
        c = (m * m.conj()).real
        sq_mean = p2 / n - c
        # Centred sums of u = w - m: sum u^2, sum |u|^2 u, sum |u|^4.
        uu = s2 - n * m * m
        u3 = s3 - 2.0 * m * p2 - m.conj() * s2 + 2.0 * n * m * c
        u4 = p4 + 4.0 * c * p2 + 2.0 * (m.conj() ** 2 * s2).real \
            - 4.0 * (m.conj() * s3).real - 3.0 * n * c * c
        spread = np.sqrt(sq_mean)
        moments = np.empty((s1.size, 3, 3))
        moments[:, 0, 0] = (u4 - n * sq_mean * sq_mean) / (4.0 * sq_mean)
        moments[:, 0, 1] = moments[:, 1, 0] = u3.real / (2.0 * spread)
        moments[:, 0, 2] = moments[:, 2, 0] = u3.imag / (2.0 * spread)
        moments[:, 1, 1] = 0.5 * (n * sq_mean + uu.real)
        moments[:, 2, 2] = 0.5 * (n * sq_mean - uu.real)
        moments[:, 1, 2] = moments[:, 2, 1] = 0.5 * uu.imag
    finite = np.isfinite(moments).all(axis=(1, 2))
    out = np.full(s1.size, np.inf)
    if finite.any():
        out[finite] = np.linalg.eigvalsh(moments[finite])[:, 0] / n
    return out


def estimate_delay(trace: Trace) -> float:
    """Cable delay that makes the delay-corrected locus most circular.

    Grid search of DELAY_GRID_POINTS points over +-2/span around the
    unwrapped-phase-slope estimate, ranked by the Taubin criterion from
    three moment sums per point; a finer grid of 2 DELAY_ZOOM + 1 points
    across the best point's bracket; then the vertex of the parabola
    through the finer grid's best point and its two neighbours. That is
    one circle fit per trace, for the resonance-free check, and one
    complex exp per grid pair, of the finer grid's step. The global
    refinement in fit_notch fits the delay itself, so this only has to
    land in its basin. When the circle residual carries no delay
    information (resonance-free or already-corrected data) the
    phase-slope estimate is returned directly.
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"delay estimation needs at least {MIN_TRACE_POINTS} points")
    freqs, z = trace.freqs_hz, trace.s21
    tau0 = _phase_slope_delay(freqs, z)
    phasor = np.exp(1j * TWO_PI * freqs * tau0)

    # Already-circular data (resonance-free, or delay fully absorbed by
    # the phase slope): the residual carries no delay information and
    # the grid search would wander, so trust the slope estimate.
    base = _circle_rms(z * phasor)
    scale = float(np.mean(np.abs(z)))
    if base <= 1e-9 * scale:
        return tau0

    _, (taus, crit) = _delay_grids(freqs, z, tau0, phasor)
    best = int(np.argmin(crit))
    if 0 < best < taus.size - 1:
        # Python floats: an inf neighbour (a coincident locus) gives a
        # non-finite curvature without a numpy warning. The best point
        # is the lowest of the three, so the vertex of a positive
        # curvature lies within half a step of it.
        left, mid, right = (float(c) for c in crit[best - 1:best + 2])
        curvature = left - 2.0 * mid + right
        if math.isfinite(curvature) and curvature > 0.0:
            return float(taus[best] + 0.5 * (taus[1] - taus[0])
                         * (left - right) / curvature)
    return float(taus[best])


def _delay_grids(freqs, z, tau0, phasor):
    """(taus, criterion) of the DELAY_GRID_POINTS grid over +-2/span
    around tau0, then of the 2 DELAY_ZOOM + 1 grid across the first
    grid's best point's bracket; phasor is e^(2 pi i f tau0).

    Every grid phasor comes from phasor and one exp, the rotation by
    the zoom step: its DELAY_ZOOM-th power steps the first grid, which
    starts DELAY_GRID_POINTS // 2 steps below tau0, and the zoom grid
    starts one step below the first grid's best point.
    """
    span = freqs[-1] - freqs[0]
    window = 2.0 / span
    taus = np.linspace(tau0 - window, tau0 + window, DELAY_GRID_POINTS)
    step = taus[1] - taus[0]
    zoom_rotate = np.exp(1j * TWO_PI * freqs * (step / DELAY_ZOOM))
    rotate = _rotated(zoom_rotate, zoom_rotate, DELAY_ZOOM - 1)
    start = _rotated(phasor, rotate, -(DELAY_GRID_POINTS // 2))
    abs2 = (z * z.conj()).real
    sums = (np.stack([z, abs2 * z]), abs2.sum(), abs2 @ abs2)
    crit = _grid_criterion(z, start.copy(), rotate, taus.size, *sums)
    best = int(np.argmin(crit))
    zoom_taus = np.linspace(taus[best] - step, taus[best] + step,
                            2 * DELAY_ZOOM + 1)
    zoom_crit = _grid_criterion(z, _rotated(start, rotate, best - 1),
                                zoom_rotate, zoom_taus.size, *sums)
    return (taus, crit), (zoom_taus, zoom_crit)


def _rotated(phasor, rotate, power):
    """phasor * rotate**power for unit phasors, by repeated squaring; a
    negative power rotates by the conjugate."""
    out = phasor.copy()
    if power < 0:
        rotate, power = rotate.conj(), -power
    while power:
        if power & 1:
            out *= rotate
        power >>= 1
        if power:
            rotate = rotate * rotate
    return out


def _grid_criterion(z, phasor, rotate, points, stacked, p2, p4) -> np.ndarray:
    """_taubin_criterion of z * phasor * rotate**k for k < points, with
    stacked = [z, |z|^2 z], p2 = sum |z|^2 and p4 = sum |z|^4; phasor is
    rotated in place."""
    # Each grid point's phasor is the previous one rotated by one grid
    # step, so a point costs one complex multiply instead of an exp, one
    # product with the stacked rows for s1 and s3, and s2.
    w = np.empty_like(z)
    s13 = np.empty((points, 2), dtype=complex)
    s2 = np.empty(points, dtype=complex)
    for k in range(points):
        if k:
            phasor *= rotate
        s13[k] = stacked @ phasor
        np.multiply(z, phasor, out=w)
        s2[k] = w @ w
    return _taubin_criterion(z.size, p2, p4, s13[:, 0], s2, s13[:, 1])


def fit_phase(trace: Trace, center: complex) -> PhaseFit:
    """Fit the phase winding of a delay-corrected trace about a circle
    center: theta(f) = theta0 + 2 arctan(2 Q_l (1 - f/f_r)).

    The slope at resonance is -4 Q_l / f_r. Raises FitInstabilityError
    when the unwrapped phase does not wind through the resonance.
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"phase fit needs at least {MIN_TRACE_POINTS} points")
    freqs = trace.freqs_hz
    w = trace.s21 - center
    theta = _unwrap_from_mid(np.angle(w))
    net = theta[0] - theta[-1]
    if not net > 0.5:
        raise FitInstabilityError(
            "unwrapped phase does not wind monotonically through a resonance")

    mid_level = 0.5 * (theta[0] + theta[-1])
    i_mid = int(np.argmin(np.abs(theta - mid_level)))
    f_r0 = freqs[i_mid]
    quarter = math.tan(min(net / 8.0, math.pi / 2 * 0.99))
    i_hi = int(np.argmin(np.abs(theta - (mid_level + net / 4.0))))
    i_lo = int(np.argmin(np.abs(theta - (mid_level - net / 4.0))))
    df = abs(freqs[i_lo] - freqs[i_hi])
    q_l0 = f_r0 * quarter / df if df > 0 else 10.0 * f_r0 / (freqs[-1] - freqs[0])
    q_l0 = min(max(q_l0, 1.0), 1e9)

    span = freqs[-1] - freqs[0]

    def resid(p):
        f_r, q_l, theta0 = p
        return theta - (theta0 + 2.0 * np.arctan(2.0 * q_l * (1.0 - freqs / f_r)))

    # With u = 2 Q_l (1 - f/f_r), d resid / du = -2 / (1 + u^2).
    def jac(p):
        f_r, q_l, _ = p
        detune = 1.0 - freqs / f_r
        u = 2.0 * q_l * detune
        g = -2.0 / (1.0 + u * u)
        out = np.empty((freqs.size, 3))
        out[:, 0] = g * (2.0 * q_l / (f_r * f_r)) * freqs
        out[:, 1] = g * 2.0 * detune
        out[:, 2] = -1.0
        return out

    problem = fitting.FitProblem(
        residual=resid,
        initial_params=np.array([f_r0, q_l0, mid_level]),
        bounds=[(max(freqs[0] - span, 1.0), freqs[-1] + span),
                (1e-3, 1e12), (mid_level - 10.0, mid_level + 10.0)],
        jacobian=jac,
    )
    res = fitting.nonlinear_ls(problem)
    if not res.converged:
        raise FitInstabilityError("phase fit did not converge")
    return PhaseFit(f_r=float(res.params[0]), q_loaded=float(res.params[1]),
                    theta0=float(res.params[2]),
                    residual_norm=res.residual_norm)


def extract_qfactors(circle: CircleFit, phase: PhaseFit,
                     env: EnvironmentParams) -> NotchParams:
    """Seed parameters for the global refinement from canonical-frame
    circle geometry.

    |Q_e| = Q_l / (2 r) with r the normalized circle radius, phi from
    the center position relative to the off-resonant point, and
    1/Q_in = 1/Q_l - cos(phi)/|Q_e| (diameter corrected). Raises
    NonphysicalMismatchError when the center lies past the off-resonant
    point (|phi| >= pi/2) and NonphysicalQinError when the coupling loss
    exceeds the loaded loss: fit failures, not input errors.
    """
    amp = env.gain * np.exp(1j * env.phase)
    center_n = complex(circle.center / amp)
    radius_n = circle.radius / env.gain
    phi = math.atan2(-center_n.imag, 1.0 - center_n.real)
    if abs(phi) >= math.pi / 2:
        raise NonphysicalMismatchError(
            "fitted circle center lies past the off-resonant point: "
            f"mismatch angle {phi:.4g} rad is outside |phi| < pi/2")
    q_l = phase.q_loaded
    q_e = q_l / (2.0 * radius_n)
    if 1.0 / q_l - math.cos(phi) / q_e <= 0:
        raise NonphysicalQinError(
            "coupling loss cos(phi)/|Q_e| is not below the loaded loss 1/Q_l")
    return NotchParams(f_r=phase.f_r, q_loaded=q_l, q_ext_mag=q_e,
                       mismatch_phi=phi, env_gain=env.gain,
                       env_phase=env.phase, cable_delay=env.delay)


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _refine_notch(trace: Trace, p0: NotchParams) -> NotchFitResult:
    freqs, z = trace.freqs_hz, trace.s21
    span = freqs[-1] - freqs[0]
    f_mid = float(freqs[freqs.size // 2])

    # The environment phase is referenced to the band center inside the
    # fit: alpha_c = alpha - 2 pi f_mid tau. Otherwise alpha and tau are
    # nearly degenerate and a small delay-seed error puts the optimum
    # many radians of alpha away. The solver differentiates the point
    # whose residual it evaluated last, so one cached entry lets the
    # residual and the Jacobian share that point's model terms and its
    # unit-gain model rotor (1 - dip).
    cached = [None, None]

    def terms(p):
        key = p.tobytes()
        if key != cached[0]:
            rotor, detune, dip = _model_terms(
                freqs, p[0], p[1], p[2], p[3], p[5] + TWO_PI * f_mid * p[6],
                p[6])
            shape = np.subtract(1.0, dip)
            shape *= rotor
            cached[:] = key, ((rotor, detune, dip), shape)
        return cached[1]

    # Residual and Jacobian rows interleave the real and imaginary parts
    # (views of the complex arrays, no copies).
    def resid(p):
        _, shape = terms(p)
        out = shape * p[4]
        out -= z
        return out.view(float)

    # Chain rule through env_phase = alpha_c + 2 pi f_mid tau: the tau
    # row's lever arm is 2 pi (f_mid - f) instead of -2 pi f.
    delay_lever = TWO_PI * (f_mid - freqs)

    def jac(p):
        rows = _jacobian_rows(freqs, p[0], p[1], p[2], p[4], *terms(p),
                              delay_lever)
        return rows.view(float).T

    alpha_c = _wrap_angle(p0.env_phase - TWO_PI * f_mid * p0.cable_delay)
    problem = fitting.FitProblem(
        residual=resid,
        initial_params=np.array([p0.f_r, p0.q_loaded, p0.q_ext_mag,
                                 p0.mismatch_phi, p0.env_gain, alpha_c,
                                 p0.cable_delay]),
        bounds=[(max(freqs[0] - span, 1.0), freqs[-1] + span),
                (1.0, 1e12), (1.0, 1e15),
                (-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9),
                (1e-12, math.inf), (-2.0 * math.pi, 2.0 * math.pi),
                (-1e-4, 1e-4)],
        step_scale=np.array([2e-2, 1.0, 1.0, 1.0, 1.0, 1.0, 2e-8]),
        jacobian=jac,
    )
    res = fitting.nonlinear_ls(problem)
    f_r, q_l, q_e, phi, gain, alpha_c_fit, tau = res.params
    phase_env = _wrap_angle(alpha_c_fit + TWO_PI * f_mid * tau)
    inv_qin = 1.0 / q_l - math.cos(phi) / q_e
    if inv_qin <= 0:
        if inv_qin < -1e-12 / q_l:
            raise NonphysicalQinError(
                "refined coupling loss exceeds the loaded loss: bad fit")
        q_in = math.inf
    else:
        q_in = 1.0 / inv_qin
    params = NotchParams(f_r=f_r, q_loaded=q_l, q_ext_mag=q_e,
                         mismatch_phi=phi, env_gain=gain,
                         env_phase=phase_env, cable_delay=tau)

    cov = res.covariance
    grad = np.zeros(7)
    if math.isfinite(q_in):
        grad[1] = q_in ** 2 / q_l ** 2
        grad[2] = -q_in ** 2 * math.cos(phi) / q_e ** 2
        grad[3] = -q_in ** 2 * math.sin(phi) / q_e
    var_qin = float(grad @ cov @ grad)
    err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    uncertainties = {
        "f_r": float(err[0]),
        "q_loaded": float(err[1]),
        "q_ext_mag": float(err[2]),
        "mismatch_phi": float(err[3]),
        "q_internal": math.sqrt(max(var_qin, 0.0)),
    }
    rms = res.residual_norm / math.sqrt(len(trace)) / gain
    return NotchFitResult(params=params, q_internal=q_in,
                          uncertainties=uncertainties, residual_rms=float(rms),
                          converged=res.converged)


def fit_notch(trace: Trace, mc_draws: int = 0,
              mc_seed: int = 0) -> NotchFitResult:
    """Full notch extraction pipeline on a raw trace.

    Delay estimation, environment normalization, circle fit, phase fit
    and Q-factor extraction give a seed; one global nonlinear refinement
    of all seven model parameters against the complex data gives the
    result. Non-convergence is reported, never silent: degenerate inputs
    raise and the converged flag reflects the final optimizer state.

    Uncertainties are first-order from the refinement covariance by
    default; mc_draws > 0 switches to a parametric bootstrap (refit of
    mc_draws noise-resampled traces) at proportional runtime cost.
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"notch fit needs at least {MIN_TRACE_POINTS} points")
    tau = estimate_delay(trace)
    z1 = trace.s21 * np.exp(1j * TWO_PI * trace.freqs_hz * tau)
    circle = fit_circle(z1)
    phase = fit_phase(Trace(freqs_hz=trace.freqs_hz, s21=z1), circle.center)
    beta = phase.theta0 + math.pi
    offres = circle.center + circle.radius * np.exp(1j * beta)
    env = EnvironmentParams(gain=float(np.abs(offres)),
                            phase=float(np.angle(offres)), delay=tau)
    result = _refine_notch(trace, extract_qfactors(circle, phase, env))
    if mc_draws > 0:
        _bootstrap_uncertainties(trace, result, mc_draws, mc_seed)
    return result


def _bootstrap_uncertainties(trace: Trace, result: NotchFitResult,
                             draws: int, seed: int) -> None:
    sigma = result.residual_rms * result.params.env_gain / math.sqrt(2.0)
    model = s21_model(trace.freqs_hz, result.params.f_r,
                      result.params.q_loaded, result.params.q_ext_mag,
                      result.params.mismatch_phi, result.params.env_gain,
                      result.params.env_phase, result.params.cable_delay)
    rng = np.random.default_rng(seed)
    samples: dict[str, list[float]] = {k: [] for k in (
        "f_r", "q_loaded", "q_ext_mag", "mismatch_phi", "q_internal")}
    for _ in range(draws):
        quad = rng.standard_normal((len(trace), 2))
        resampled = Trace(freqs_hz=trace.freqs_hz,
                          s21=model + sigma * (quad[:, 0] + 1j * quad[:, 1]))
        try:
            draw = fit_notch(resampled)
        except ExtractionError:
            continue
        samples["f_r"].append(draw.params.f_r)
        samples["q_loaded"].append(draw.params.q_loaded)
        samples["q_ext_mag"].append(draw.params.q_ext_mag)
        samples["mismatch_phi"].append(draw.params.mismatch_phi)
        samples["q_internal"].append(draw.q_internal)
    if len(samples["f_r"]) >= max(2, draws // 2):
        result.uncertainties = {key: float(np.std(vals, ddof=1))
                                for key, vals in samples.items()}


@dataclass(frozen=True)
class AreaFrequencyDataset:
    """Capacitor areas (um^2) with measured resonance frequencies (Hz)
    for one chip, sharing a known inductance (H)."""

    rows: tuple[tuple[float, float], ...]
    inductance: float
    kinetic_fraction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple((float(s), float(f))
                                               for s, f in self.rows))
        if len(self.rows) < 2:
            raise DomainError("need at least 2 rows for a 2-parameter fit")
        areas = [s for s, _ in self.rows]
        if len(set(areas)) != len(areas):
            raise DomainError("areas must be distinct")
        if any(s <= 0 or f <= 0 for s, f in self.rows):
            raise DomainError("areas and frequencies must be positive")
        if self.inductance <= 0:
            raise DomainError("inductance must be positive")


@dataclass(frozen=True)
class AreaFitResult:
    """Shared capacitance constants fitted from an area-frequency set."""

    cap_per_area: float       # F/um^2
    cap_to_ground: float      # F
    covariance: np.ndarray    # 2x2 in (F/um^2, F) units
    cap_per_area_err: float
    cap_to_ground_err: float
    converged: bool
    residual_norm: float      # Hz


def fit_frequency_vs_area(ds: AreaFrequencyDataset) -> AreaFitResult:
    """Least-squares fit of f = 1/(2 pi sqrt(L (C_g + c S))).

    Linearized in 1/f^2 for the starting point, then refined on the
    frequency residuals. Standard errors come from the refinement
    covariance.
    """
    areas = np.array([s for s, _ in ds.rows])
    freqs = np.array([f for _, f in ds.rows])
    l_eff = ds.inductance * (1.0 + ds.kinetic_fraction)

    # 1/f^2 = 4 pi^2 L (C_g + c S) is linear in S: exact on clean data.
    y = 1.0 / freqs ** 2 / (TWO_PI ** 2 * l_eff)
    design = np.column_stack([areas, np.ones_like(areas)])
    try:
        init = fitting.linear_wls(design, y)
    except RankDeficiencyError as exc:
        raise DegenerateDataError("area-frequency system is singular") from exc
    c0_ff = max(init.params[0], 1e-6 * FF) / FF
    cg0_ff = max(init.params[1], 1e-6 * FF) / FF

    def resid(p):
        c_total = (p[1] + p[0] * areas) * FF
        return 1.0 / (TWO_PI * np.sqrt(l_eff * c_total)) - freqs

    problem = fitting.FitProblem(
        residual=resid,
        initial_params=np.array([c0_ff, cg0_ff]),
        bounds=[(1e-9, math.inf), (1e-9, math.inf)],
    )
    res = fitting.nonlinear_ls(problem)
    cov = res.covariance * FF ** 2
    err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return AreaFitResult(cap_per_area=float(res.params[0] * FF),
                         cap_to_ground=float(res.params[1] * FF),
                         covariance=cov,
                         cap_per_area_err=float(err[0]),
                         cap_to_ground_err=float(err[1]),
                         converged=res.converged,
                         residual_norm=res.residual_norm)


@dataclass(frozen=True)
class CapAreaFitResult:
    """Shared slope with one stray-capacitance intercept per pad group."""

    cap_per_area: float            # F/um^2
    offsets: dict[str, float]      # F, keyed by pad group
    covariance: np.ndarray         # (1 + n_groups) square, F units
    cap_per_area_err: float
    offset_errs: dict[str, float]


def fit_capacitance_vs_area(rows, sigma=None) -> CapAreaFitResult:
    """Weighted linear fit of C = c S + C_offset(group).

    rows are (area_um2, capacitance_f, group) triples; every group needs
    at least two distinct areas so its intercept separates from the
    shared slope.
    """
    rows = list(rows)
    if not rows:
        raise DomainError("no rows to fit")
    areas = np.array([float(r[0]) for r in rows])
    caps = np.array([float(r[1]) for r in rows])
    groups = [str(r[2]) for r in rows]
    labels = sorted(set(groups))
    for lab in labels:
        in_group = {a for a, g in zip(areas, groups) if g == lab}
        if len(in_group) < 2:
            raise RankDeficiencyError(
                f"pad group {lab!r} needs at least 2 distinct areas")

    design = np.zeros((len(rows), 1 + len(labels)))
    design[:, 0] = areas
    for j, lab in enumerate(labels):
        design[:, 1 + j] = [1.0 if g == lab else 0.0 for g in groups]

    sig_ff = None if sigma is None else np.asarray(sigma, dtype=float) / FF
    res = fitting.linear_wls(design, caps / FF, sigma=sig_ff)
    if sigma is None:
        dof = len(rows) - (1 + len(labels))
        scale = (res.residual_norm ** 2 / dof) if dof > 0 else 0.0
        cov = res.covariance * scale * FF ** 2
    else:
        cov = res.covariance * FF ** 2
    err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    offsets = {lab: float(res.params[1 + j] * FF) for j, lab in enumerate(labels)}
    offset_errs = {lab: float(err[1 + j]) for j, lab in enumerate(labels)}
    return CapAreaFitResult(cap_per_area=float(res.params[0] * FF),
                            offsets=offsets, covariance=cov,
                            cap_per_area_err=float(err[0]),
                            offset_errs=offset_errs)
