"""Inverse problems: recover notch parameters from measured traces and
capacitor constants from resonator ensembles.

The trace pipeline follows the standard circle-fit sequence: estimate
and remove the cable delay, fit an algebraic circle to the locus, fit
the phase-vs-frequency winding for f_r and Q_l, read the coupling
quantities off the canonical-frame geometry, then refine everything in
one global complex least-squares pass.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .constants import FF, TWO_PI
from .errors import (DegenerateDataError, DegenerateGeometryError, DomainError,
                     ExtractionError, FitInstabilityError,
                     InsufficientDataError, NonphysicalQinError,
                     RankDeficiencyError)
from .notch import NotchParams, Trace, s21_jacobian, s21_model

__all__ = [
    "CircleFit", "PhaseFit", "EnvironmentParams", "NotchFitResult",
    "AreaFrequencyDataset", "AreaFitResult", "CapAreaFitResult",
    "estimate_delay", "fit_circle", "fit_phase", "extract_qfactors",
    "fit_notch", "fit_frequency_vs_area", "fit_capacitance_vs_area",
]

MIN_TRACE_POINTS = 8
# Stop of the delay search's Brent refinement, in units of 1/span: a
# delay error of DELAY_XTOL / span leaves 2 pi DELAY_XTOL rad of phase
# tilt across the band, far inside the refinement's basin.
DELAY_XTOL = 1e-4
# Grid points of the delay search over +-2/span. 31 points leave the
# line search a bracket of 0.27/span and still find the basin of the
# circle residual: on 100 noisy resonance-free traces the delay misses
# 1 % once, as with 81 points (21 points miss 3 times, 11 fail outright).
DELAY_GRID_POINTS = 31


@dataclass(frozen=True)
class CircleFit:
    """Algebraic circle through a complex point set."""

    center: complex
    radius: float
    rms: float
    n_points: int


@dataclass(frozen=True)
class PhaseFit:
    """Phase-winding fit theta(f) = theta0 + 2 arctan(2 Q_l (1 - f/f_r))."""

    f_r: float
    q_loaded: float
    theta0: float
    f_r_err: float
    q_loaded_err: float
    theta0_err: float
    converged: bool
    residual_norm: float


@dataclass(frozen=True)
class EnvironmentParams:
    """Instrument environment stripped before the canonical frame."""

    gain: float
    phase: float
    delay: float


@dataclass
class NotchFitResult:
    """Extracted resonance parameters with first-order uncertainties.

    q_internal always satisfies 1/q_internal = 1/q_loaded -
    cos(phi)/q_ext_mag exactly for the reported parameter values.
    """

    params: NotchParams
    q_internal: float
    uncertainties: dict[str, float] = field(default_factory=dict)
    residual_rms: float = 0.0
    converged: bool = True


def _unwrap_from_mid(theta: np.ndarray) -> np.ndarray:
    """Unwrap phase outward from the trace midpoint.

    Resonance-centered traces keep the winding unambiguous this way
    even when the ends sit near the branch cut.
    """
    mid = theta.size // 2
    out = np.empty_like(theta)
    out[mid:] = np.unwrap(theta[mid:])
    out[:mid + 1] = np.unwrap(theta[:mid + 1][::-1])[::-1]
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
    return CircleFit(center=center, radius=radius, rms=rms, n_points=z.size)


def _circle_rms(zc) -> float:
    try:
        return fit_circle(zc).rms
    except DegenerateGeometryError:
        # A coincident blob is maximally circular for delay purposes.
        return 0.0


def _circle_rms_after_delay(freqs, z, tau) -> float:
    return _circle_rms(z * np.exp(1j * TWO_PI * freqs * tau))


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


def _brent_minimize(fun, lo, hi, xtol) -> float:
    """Minimum of fun on [lo, hi] by Brent's method: parabolic steps
    through the three best points so far, golden-section steps where the
    parabola is not trusted. Stops once the returned point is within
    xtol / 2 of both bracket ends, as a golden section stopping at a
    bracket of xtol would."""
    cgold = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    x = w = v = a + cgold * (b - a)
    fx = fw = fv = fun(x)
    d = e = 0.0
    while True:
        # The ulp term keeps every step above the spacing of floats at x.
        tol = 0.25 * xtol + 2.0 * math.ulp(x)
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # Accept the parabola's vertex only inside the bracket and
            # for a step below half the one before last.
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                u = x + d
                if u - a < 2.0 * tol or b - u < 2.0 * tol:
                    d = tol if mid >= x else -tol
                parabolic = True
        if not parabolic:
            e = (b - x) if x < mid else (a - x)
            d = cgold * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = fun(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def estimate_delay(trace: Trace) -> float:
    """Cable delay that makes the delay-corrected locus most circular.

    Coarse grid search of DELAY_GRID_POINTS points over +-2/span around
    the unwrapped-phase-slope estimate, refined by Brent's method down
    to DELAY_XTOL / span seconds. The grid ranks the points by the
    Taubin criterion from three moment sums per point; the refinement
    runs on the geometric circle rms: about 11 circle fits per trace.
    The global refinement in fit_notch fits the delay itself, so this
    only has to land in its basin. When the circle residual carries no
    delay information (resonance-free or already-corrected data) the
    phase-slope estimate is returned directly.
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"delay estimation needs at least {MIN_TRACE_POINTS} points")
    freqs, z = trace.freqs_hz, trace.s21
    span = freqs[-1] - freqs[0]
    tau0 = _phase_slope_delay(freqs, z)

    # Already-circular data (resonance-free, or delay fully absorbed by
    # the phase slope): the residual carries no delay information and
    # the grid search would wander, so trust the slope estimate.
    base = _circle_rms_after_delay(freqs, z, tau0)
    scale = float(np.mean(np.abs(z)))
    if base <= 1e-9 * scale:
        return tau0

    window = 2.0 / span
    taus = np.linspace(tau0 - window, tau0 + window, DELAY_GRID_POINTS)
    step = taus[1] - taus[0]
    # Each grid point's phasor is the previous one rotated by one grid
    # step, so the grid costs one complex multiply per point instead of
    # an exp, plus the three moment sums.
    rotate = np.exp(1j * TWO_PI * freqs * step)
    phasor = np.exp(1j * TWO_PI * freqs * taus[0])
    abs2 = (z * z.conj()).real
    z3 = abs2 * z
    w = np.empty_like(z)
    s1 = np.empty(taus.size, dtype=complex)
    s2 = np.empty_like(s1)
    s3 = np.empty_like(s1)
    for k in range(taus.size):
        np.multiply(z, phasor, out=w)
        s1[k] = w.sum()
        s2[k] = w @ w
        s3[k] = z3 @ phasor
        phasor *= rotate
    crit = _taubin_criterion(z.size, abs2.sum(), abs2 @ abs2, s1, s2, s3)
    best = int(np.argmin(crit))
    # The line search runs on the geometric rms: near a noiseless optimum
    # the moment sums cancel to rounding noise and could not rank points.
    return _brent_minimize(lambda t: _circle_rms_after_delay(freqs, z, t),
                           taus[best] - step, taus[best] + step,
                           xtol=DELAY_XTOL / span)


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
    err = res.stderr
    return PhaseFit(f_r=float(res.params[0]), q_loaded=float(res.params[1]),
                    theta0=float(res.params[2]), f_r_err=float(err[0]),
                    q_loaded_err=float(err[1]), theta0_err=float(err[2]),
                    converged=res.converged, residual_norm=res.residual_norm)


def extract_qfactors(circle: CircleFit, phase: PhaseFit,
                     env: EnvironmentParams) -> NotchFitResult:
    """Coupling quantities from canonical-frame circle geometry.

    |Q_e| = Q_l / (2 r) with r the normalized circle radius, phi from
    the center position relative to the off-resonant point, and
    1/Q_in = 1/Q_l - cos(phi)/|Q_e| (diameter corrected). Raises
    NonphysicalQinError when the coupling loss exceeds the loaded loss.
    """
    amp = env.gain * np.exp(1j * env.phase)
    center_n = complex(circle.center / amp)
    radius_n = circle.radius / env.gain
    phi = math.atan2(-center_n.imag, 1.0 - center_n.real)
    q_l = phase.q_loaded
    q_e = q_l / (2.0 * radius_n)
    inv_qin = 1.0 / q_l - math.cos(phi) / q_e
    if inv_qin <= 0:
        raise NonphysicalQinError(
            "coupling loss cos(phi)/|Q_e| is not below the loaded loss 1/Q_l")
    q_in = 1.0 / inv_qin

    params = NotchParams(f_r=phase.f_r, q_loaded=q_l, q_ext_mag=q_e,
                         mismatch_phi=phi, env_gain=env.gain,
                         env_phase=env.phase, cable_delay=env.delay)

    # First-order seeds; a global refinement replaces these with
    # covariance-propagated values.
    sigma_r = circle.rms / math.sqrt(circle.n_points)
    sigma_qe = q_e * math.hypot(phase.q_loaded_err / q_l, sigma_r / radius_n)
    sigma_phi = sigma_r / radius_n
    grad = np.array([q_in ** 2 / q_l ** 2,
                     -q_in ** 2 * math.cos(phi) / q_e ** 2,
                     -q_in ** 2 * math.sin(phi) / q_e])
    var = (grad[0] * phase.q_loaded_err) ** 2 + (grad[1] * sigma_qe) ** 2 \
        + (grad[2] * sigma_phi) ** 2
    uncertainties = {
        "f_r": phase.f_r_err,
        "q_loaded": phase.q_loaded_err,
        "q_ext_mag": sigma_qe,
        "mismatch_phi": sigma_phi,
        "q_internal": math.sqrt(var),
    }
    return NotchFitResult(params=params, q_internal=q_in,
                          uncertainties=uncertainties,
                          residual_rms=circle.rms / env.gain,
                          converged=phase.converged)


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _refine_notch(trace: Trace, seed: NotchFitResult) -> NotchFitResult:
    freqs, z = trace.freqs_hz, trace.s21
    span = freqs[-1] - freqs[0]
    f_mid = float(freqs[freqs.size // 2])
    p0 = seed.params

    # The environment phase is referenced to the band center inside the
    # fit: alpha_c = alpha - 2 pi f_mid tau. Otherwise alpha and tau are
    # nearly degenerate and a small delay-seed error puts the optimum
    # many radians of alpha away.
    def model_args(p):
        return (freqs, p[0], p[1], p[2], p[3], p[4],
                p[5] + TWO_PI * f_mid * p[6], p[6])

    def resid(p):
        diff = s21_model(*model_args(p)) - z
        return np.concatenate([diff.real, diff.imag])

    # Chain rule through env_phase = alpha_c + 2 pi f_mid tau: the tau
    # column picks up 2 pi f_mid times the phase column.
    def jac(p):
        j = s21_jacobian(*model_args(p))
        j[:, 6] += TWO_PI * f_mid * j[:, 5]
        return np.concatenate([j.real, j.imag])

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


def fit_notch(trace: Trace, refine: bool = True,
              mc_draws: int = 0, mc_seed: int = 0) -> NotchFitResult:
    """Full notch extraction pipeline on a raw trace.

    Composes delay estimation, environment normalization, circle fit,
    phase fit and Q-factor extraction, then one global nonlinear
    refinement of all seven model parameters against the complex data.
    Non-convergence is reported, never silent: degenerate inputs raise
    and the converged flag reflects the final optimizer state.

    Uncertainties are first-order from the refinement covariance by
    default; mc_draws > 0 switches to a parametric bootstrap (refit of
    mc_draws noise-resampled traces) at proportional runtime cost.
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"notch fit needs at least {MIN_TRACE_POINTS} points")
    tau = estimate_delay(trace)
    z1 = trace.s21 * np.exp(1j * TWO_PI * trace.freqs_hz * tau)
    corrected = Trace(freqs_hz=trace.freqs_hz, s21=z1,
                      applied_power_w=trace.applied_power_w,
                      metadata=dict(trace.metadata))
    circle = fit_circle(z1)
    phase = fit_phase(corrected, circle.center)
    beta = phase.theta0 + math.pi
    offres = circle.center + circle.radius * np.exp(1j * beta)
    env = EnvironmentParams(gain=float(np.abs(offres)),
                            phase=float(np.angle(offres)), delay=tau)
    seed = extract_qfactors(circle, phase, env)
    if not refine:
        return seed
    result = _refine_notch(trace, seed)
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
            draw = fit_notch(resampled, refine=True)
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
        init = fitting.linear_wls(areas, y, design=design)
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
    res = fitting.linear_wls(areas, caps / FF, sigma=sig_ff, design=design)
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
