"""Inverse problems: recover notch parameters from measured traces and
capacitor constants from resonator ensembles.

The trace pipeline follows the circle-fit sequence: estimate the cable
delay that makes the corrected locus most circular, seed f_r, Q_l and
the leftover delay in closed form from that locus as a
linear-fractional image of frequency, then refine f_r, Q_l and the
delay in one complex least-squares pass by variable projection: the
model is linear in the off-resonant point and the resonant amplitude,
which give the gain, environment phase, |Q_e| and phi. A refined fit
whose Q_l or |Q_e| has a relative standard error over
MAX_RELATIVE_ERROR raises UnresolvedResonanceError: the fit's own error
bars are the one test of whether the trace resolves a resonance. Each
stage reads the samples scaled by a power of two to [1/2, 1), so 2^k
times a trace fits to the same bits, with the gain scaled by 2^k. All
functions are thread-safe: the notch fit keeps its work arrays between
fits in a workspace of each thread (_Workspace).
"""

import cmath
import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from . import fitting
from .circuit import effective_inductance, lc_capacitance, lc_frequency
from .constants import FF, TWO_PI
from .errors import (DegenerateDataError, DegenerateGeometryError, DomainError,
                     FitInstabilityError,
                     InsufficientDataError, NonphysicalMismatchError,
                     NonphysicalQinError, RankDeficiencyError,
                     UnresolvedResonanceError)
from .notch import NotchParams, Trace, internal_loss

__all__ = [
    "CircleFit", "PhaseFit", "NotchFitResult",
    "AreaFrequencyDataset", "AreaFitResult",
    "estimate_delay", "fit_circle", "fit_phase", "extract_qfactors",
    "fit_notch", "frequency_area_jacobian", "fit_frequency_vs_area",
]

MIN_TRACE_POINTS = 8
# The delay search reads at most DELAY_POINTS samples, evenly spread
# with both ends kept, so the span and the +-2/span window keep their
# meaning; the phase seed and refine read every sample. The refine fits
# the delay itself, so the search only has to land in its basin. Over
# the 800-draw wide-range census (tests/census.py), read as converged /
# well-posed converged / converged with |pull| > 10, full traces give
# 591/128/0, 2,000 samples 593/128/0, 1,000 give 596/128/0, 700 give
# 598/128/0 and 500 give 597/127/0: the counts move by a few draws
# either way, so the time decides. On the 4,001-point acceptance-05
# traces the search takes 0.4 ms where it takes 0.8 ms in full (median
# over 50 traces of the best of five, 2-core Xeon, one BLAS thread).
DELAY_POINTS = 1000
# Grid points of the delay search over +-2/span: 31 points, 0.13/span
# apart, find the basin of fit_phase's residual, and the best point's
# own leftover delay places the seed between them. On the census above,
# 11 points give 595/128/0, 21 and 31 give 596/128/0 and 81 give
# 595/128/0.
DELAY_GRID_POINTS = 31
# A refined fit whose Q_l or |Q_e| has a standard error over this
# fraction of itself raises UnresolvedResonanceError: each Q must lie at
# least three of its own errors from zero. Past that the first-order
# covariance does not hold over one error bar (Bates & Watts, J. R.
# Stat. Soc. B 42, 1, 1980), so the trace does not resolve what the fit
# reports.
MAX_RELATIVE_ERROR = 1.0 / 3.0
# The entries of a row of _phase_system's sums that form its normal
# matrix, its right-hand side and the normal matrix's diagonal.
_NORMAL_ENTRIES = np.array([[2, 1, 9, 11], [1, 0, 8, 10], [9, 8, 3, 5],
                            [11, 10, 5, 7]])
_RHS_ENTRIES = np.array([10, 9, 4, 6])
_DIAGONAL_ENTRIES = np.array([2, 0, 3, 7])
# The refine's covariance: the pairs (j, k), j <= k, of its five basis
# vectors whose inner products it takes, and the index into those
# products followed by their conjugates of each entry of the 7x7 normal
# matrix, whose parameters read vectors 0, 1, 2, 2, 3, 3 and 4. Entry
# (j, k) is the product for j < k and the conjugate for k <= j: the
# diagonal takes the conjugate, and its imaginary part is the rounding
# of the product's.
_GRAM_PAIRS = [(j, k) for j in range(5) for k in range(j, 5)]
_GRAM_ENTRIES = np.array(
    [[_GRAM_PAIRS.index((j, k)) if j < k
      else len(_GRAM_PAIRS) + _GRAM_PAIRS.index((k, j))
      for k in (0, 1, 2, 2, 3, 3, 4)] for j in (0, 1, 2, 2, 3, 3, 4)])
# The NotchParams fields of the covariance's first four parameters.
_FITTED = tuple(f.name for f in fields(NotchParams)[:4])


class _Workspace:
    """The work arrays of one trace length, kept by one thread between
    fits.

    A 4,001-point fit works through about 0.8 MB of temporaries. Freed at
    the end of each fit, they go back to the kernel, and the next fit
    faults them in again: about 150 minor page faults a fit. Kept here,
    they cost nothing after the first fit. An array holds whatever its
    last user wrote, so each user writes it whole before reading it, and
    no result is a view of one. owner names the call whose values the
    arrays hold, for a caller that reads them back in a later call.
    """

    def __init__(self, size):
        self.size = size
        self.owner = None
        self._arrays = {}
        self._thinned = None

    def thinned(self) -> np.ndarray:
        """The indices of DELAY_POINTS samples of size, evenly spread with
        both ends kept: what the delay search reads. Read only."""
        if self._thinned is None:
            keep = np.round(np.linspace(0, self.size - 1, DELAY_POINTS))
            self._thinned = keep.astype(np.intp)
            self._thinned.flags.writeable = False
        return self._thinned

    def array(self, name, dtype=float, rows=None) -> np.ndarray:
        """The work array `name`, (size,) or (rows, size) of dtype: one
        array for each name and row count."""
        out = self._arrays.get((name, rows))
        if out is None:
            shape = (self.size,) if rows is None else (rows, self.size)
            out = self._arrays[name, rows] = np.empty(shape, dtype)
        return out


class _ThreadWorkspaces(threading.local):
    def __init__(self):
        self.by_size = {}


_WORKSPACES = _ThreadWorkspaces()


def _workspace(size) -> _Workspace:
    """This thread's workspace for `size` samples. A thread keeps two
    lengths at most: the delay search's DELAY_POINTS and the one it met
    last, about 1.9 MB at 4,001 points (the delay grid's 31 loci take
    0.5 MB of it)."""
    spaces = _WORKSPACES.by_size
    space = spaces.get(size)
    if space is None:
        for other in [k for k in spaces if k != DELAY_POINTS]:
            del spaces[other]
        space = spaces[size] = _Workspace(size)
    return space


@dataclass(frozen=True)
class CircleFit:
    """Algebraic circle through a complex point set."""

    center: complex
    radius: float
    rms: float


@dataclass(frozen=True)
class PhaseFit:
    """Resonance seed f_r, Q_l of the delay-corrected locus, and the
    delay (s) that the trace's delay correction left over."""

    f_r: float
    q_loaded: float
    residual_delay: float


@dataclass
class NotchFitResult:
    """Refined resonance parameters with their uncertainties.

    q_internal is params.q_internal, so 1/q_internal = 1/q_loaded -
    cos(phi)/q_ext_mag holds exactly for the reported parameter values.
    uncertainties holds one standard error per key: the four fitted
    NotchParams fields f_r, q_loaded, q_ext_mag and mismatch_phi, and
    q_internal.
    """

    params: NotchParams
    uncertainties: dict[str, float]
    residual_rms: float
    converged: bool

    @property
    def q_internal(self) -> float:
        return self.params.q_internal


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


def estimate_delay(trace: Trace) -> float:
    """Cable delay at which fit_phase's system fits the trace best.

    A trace of more than DELAY_POINTS samples is read at DELAY_POINTS of
    them, evenly spread with both ends kept, so the span stays that of
    the trace. The grid of DELAY_GRID_POINTS points over +-2/span is
    centred on the summed wrapped phase steps of the samples and ranked
    by the residual of fit_phase's least-squares system at each point;
    the seed is the best point plus the delay that point's system leaves
    over. The global refinement in fit_notch fits the delay itself, so
    this only has to land in its basin. When the system is singular at
    the grid's centre (resonance-free or constant data, whose corrected
    locus is a point), nothing is left to fit and the centre estimate is
    returned as it stands.
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"delay estimation needs at least {MIN_TRACE_POINTS} points")
    freqs, z = trace.freqs_hz, trace.s21
    if freqs.size > DELAY_POINTS:
        keep = _workspace(freqs.size).thinned()
        freqs, z = freqs[keep], z[keep]
    z, _ = _scaled_to_unit(z)
    tau0 = -float(np.angle(z[1:] * z[:-1].conj()).sum()) \
        / (TWO_PI * (freqs[-1] - freqs[0]))
    taus, residual, _, leftover = _delay_grid(freqs, z, tau0)
    if not residual[DELAY_GRID_POINTS // 2] < math.inf:
        return tau0
    best = int(np.argmin(residual))
    return float(taus[best] + leftover[best])


def _scaled_to_unit(z):
    """(z 2^-k, k) with the largest real or imaginary part of z 2^-k in
    [1/2, 1): an exact scaling, after which no sum of the samples that
    a fit forms under- or overflows."""
    parts = np.ascontiguousarray(z).view(float)
    k = math.frexp(max(parts.max(), -parts.min()))[1]
    return np.ldexp(parts, -k).view(complex), k


def _delay_phasor(offsets, tau, out=None) -> np.ndarray:
    """e^(2 pi i (f - f_mid) tau) from the offsets f - f_mid, f_mid the
    middle sample: the delay correction referenced to the band center,
    written into out when it is given; the tangents are taken in the
    thread's workspace. Its callers take the offsets once per trace.

    It differs from e^(2 pi i f tau) by the constant e^(2 pi i f_mid tau),
    which rotates a locus as a whole and changes no circle, criterion or
    pole fitted to it. The phase x stays within pi tau span, where the
    absolute one reaches thousands of rad. With t = tan(x/2), cos x = 2/(1
    + t^2) - 1 and sin x = 2t/(1 + t^2), finite at the poles of t. Where
    numpy vectorizes the float64 tan, one tan costs a tenth of a cos and a
    sin: 7 us against 70 us on 4,001 points (2-core Xeon).
    """
    space = _workspace(offsets.size)
    t = np.multiply(offsets, math.pi * tau, out=space.array("tan"))
    np.tan(t, out=t)
    if out is None:
        out = np.empty(offsets.size, dtype=complex)
    # 2 / (1 + t^2) on contiguous memory; only the last two passes
    # write out's strided parts.
    half = np.multiply(t, t, out=space.array("square"))
    half += 1.0
    np.divide(2.0, half, out=half)
    np.multiply(t, half, out=out.imag)
    np.subtract(half, 1.0, out=out.real)
    return out


def _delay_grid(freqs, z, tau0):
    """(taus, residual, pole, leftover) of the DELAY_GRID_POINTS grid over
    +-2/span around tau0: _phase_system at each point."""
    window = 2.0 / (freqs[-1] - freqs[0])
    taus = np.linspace(tau0 - window, tau0 + window, DELAY_GRID_POINTS)
    return (taus, *_phase_system(freqs, z, taus))


def _phase_system(freqs, z, taus):
    """fit_phase's least-squares system for z corrected by each delay in
    taus, which are evenly spaced: (residual, pole, leftover) per delay.

    With s = z e^(2 pi i (f - f_mid) tau) and x = (f - f_mid) / span,
    the columns (x, 1, s, s x^2) are fitted against s x. The residual is
    the least-squares one, |s x|^2 - rhs^H solution; the pole (Hz) and
    the leftover delay (s) are fit_phase's. The rank test and the solve
    read one matrix, the normal matrix with its diagonal scaled to 1,
    which a power of two on z leaves as it is. A system is singular when
    it is not finite (a zero column) or its smallest eigenvalue is at
    most 1e-12; then its residual is inf and its pole and leftover NaN.
    Dependent columns leave the LU a rounding-sized pivot, not a zero
    one, hence the eigenvalue: 1e-16 for a straight locus, at least
    1.5e-10 at fit_phase's delay on the census draws of seeds 5-8 and
    5.7e-4 on the acceptance-05 traces.
    """
    span = freqs[-1] - freqs[0]
    f_mid = freqs[freqs.size // 2]
    space = _workspace(freqs.size)
    offsets = np.subtract(freqs, f_mid, out=space.array("offsets"))
    powers = space.array("powers", rows=5)
    powers[0] = 1.0
    x = np.divide(offsets, span, out=powers[1])
    np.multiply(x, x, out=powers[2])
    np.multiply(powers[2], x, out=powers[3])
    np.multiply(powers[2], powers[2], out=powers[4])
    with np.errstate(all="ignore"):
        # Row j of v holds the sums of delay j's normal equations: n, sum
        # x and sum x^2, p_k = sum x^k |s|^2 for k = 0..4, the same at
        # every delay since |s| = |z|, and s_k = sum x^k s for k = 0..3.
        # They take a third of the time of lstsq on the (N, 4) design.
        v = np.empty((taus.size, 12), dtype=complex)
        weights = np.empty((z.size, 2))
        weights[:, 0] = 1.0
        weights[:, 1] = (z * z.conj()).real
        shared = powers @ weights
        v[:, :3] = shared[:3, 0]
        v[:, 3:8] = shared[:, 1]
        rows = space.array("rows", complex, rows=4)
        rows[...] = powers[:4]
        # Each delay's locus is the previous one rotated by one grid
        # step, so a delay costs one product with the rotation; then one
        # call takes every locus's matrix-vector product with x^0..x^3.
        # Complex rows make it a matrix-vector one, faster than real rows
        # against the loci's two parts.
        loci = space.array("loci", complex, rows=taus.size)
        _delay_phasor(offsets, taus[0], out=loci[0])
        np.multiply(z, loci[0], out=loci[0])
        if taus.size > 1:
            rotate = _delay_phasor(offsets, taus[1] - taus[0],
                                   out=space.array("rotate", complex))
            for k in range(1, taus.size):
                np.multiply(loci[k - 1], rotate, out=loci[k])
        np.matmul(rows, loci[..., None], out=v[:, 8:, None])
        # Entry (i, k) of the normal matrix sums conj(column i) column k.
        normal = v[:, _NORMAL_ENTRIES]
        np.conjugate(normal[:, 2:, :2], out=normal[:, 2:, :2])
        rhs = v[:, _RHS_ENTRIES]
        unit = 1.0 / np.sqrt(v[0, _DIAGONAL_ENTRIES].real)
        scaled = normal * (unit[:, None] * unit)
    solved = np.isfinite(scaled).all(axis=(1, 2))
    if solved.all():
        solved = np.linalg.eigvalsh(scaled)[:, 0] > 1e-12
    else:
        solved[solved] = np.linalg.eigvalsh(scaled[solved])[:, 0] > 1e-12
    every = solved.all()
    if not every:
        scaled, rhs = scaled[solved], rhs[solved]
    sol = unit * np.linalg.solve(scaled, (unit * rhs)[..., None])[..., 0]
    c1, b1 = sol[:, 2], sol[:, 3]
    # The root of b' c' gamma^2 - gamma + 1 near 1, without the
    # cancellation of the textbook form.
    gamma = 2.0 / (1.0 + np.sqrt(1.0 - 4.0 * b1 * c1))
    residual = shared[2, 1] - (rhs.conj() * sol).sum(axis=1).real
    pole = f_mid + span * c1 * gamma
    leftover = (1j * b1 * gamma).real / (TWO_PI * span)
    if every:
        return residual, pole, leftover
    return (_unsolved_as(solved, residual, math.inf),
            _unsolved_as(solved, pole, complex(math.nan)),
            _unsolved_as(solved, leftover, math.nan))


def _unsolved_as(solved, values, fill):
    """values at the solved delays, fill at the others."""
    out = np.full(solved.size, fill, dtype=values.dtype)
    out[solved] = values
    return out


def fit_phase(trace: Trace, delay: float) -> PhaseFit:
    """Resonance f_r and Q_l of a trace corrected by a delay (s), and
    the delay the correction left over, in closed form: the
    refinement's seed.

    The correction is the band-centred _delay_phasor. The notch locus
    is a linear-fractional image of the reduced frequency x = (f -
    f_mid) / span, f_mid the middle sample, so L (x - c) = a x + d for
    complex a, d and c (Kajfez, IEEE Trans. MTT 42, 1149, 1994). The
    trace s carries it with a leftover delay beta, L = s e^(i beta x),
    taken to first order as s (1 + i beta x): then s x gamma = a' x +
    d' + c' s + b' s x^2 with gamma = 1 - i beta c, c = c' gamma and
    i beta = -b' gamma. One 4x4 least-squares solve (_phase_system)
    gives a', d', c' and b'; gamma is the root of b' c' gamma^2 - gamma
    + 1 = 0 near 1. The pole f_mid + span c has f_r as its real part and
    f_r / (2 Q_l) as the magnitude of its imaginary part, and
    residual_delay is beta / (2 pi span), all read from the samples
    scaled by a power of two to [1/2, 1). Raises FitInstabilityError
    when the system is singular (a straight locus, a point, or zero
    samples) or when the solve finds no resonance; whether the trace
    resolves a resonance at all is the refinement's question (fit_notch).
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"phase fit needs at least {MIN_TRACE_POINTS} points")
    residual, pole, leftover = _phase_system(
        trace.freqs_hz, _scaled_to_unit(trace.s21)[0],
        np.array([delay], dtype=float))
    if not residual[0] < math.inf:
        raise FitInstabilityError("phase seed system is singular")
    pole, leftover = complex(pole[0]), float(leftover[0])
    if not (cmath.isfinite(pole) and pole.real > 0
            and math.isfinite(leftover)):
        raise FitInstabilityError("phase seed found no resonance")
    f_r = pole.real
    q_l = f_r / (2.0 * abs(pole.imag)) if pole.imag else math.inf
    return PhaseFit(f_r=f_r, q_loaded=q_l, residual_delay=leftover)


def extract_qfactors(f_r: float, q_loaded: float, delay: float, a: complex,
                     b: complex, f_mid: float) -> NotchParams:
    """NotchParams of the refined notch model

        S21(f) = e^(-2 pi i (f - f_mid) delay) [a - b / detune(f)],
        detune(f) = 1 + 2 i Q_l (f/f_r - 1),

    with a = g e^(i alpha_c) the off-resonant point and b = a (Q_l/|Q_e|)
    e^(i phi): env_gain |a|, env_phase arg(a) + 2 pi f_mid delay,
    |Q_e| = Q_l |a| / |b| and phi = arg(b / a), and 1/Q_in = 1/Q_l -
    cos(phi)/|Q_e| (diameter corrected). Raises NonphysicalMismatchError
    when the circle center lies past the off-resonant point (|phi| >=
    pi/2), UnresolvedResonanceError when |Q_e| is not finite and
    NonphysicalQinError when the coupling loss is not below the loaded
    loss: fit failures, not input errors.
    """
    ratio = b / a
    phi = math.atan2(ratio.imag, ratio.real)
    if abs(phi) >= math.pi / 2:
        raise NonphysicalMismatchError(
            "fitted circle center lies past the off-resonant point: "
            f"mismatch angle {phi:.4g} rad is outside |phi| < pi/2")
    q_e = q_loaded / abs(ratio) if ratio else math.inf
    if not q_e < math.inf:
        raise UnresolvedResonanceError("unresolved resonance: no finite |Q_e|")
    if internal_loss(q_loaded, q_e, phi) <= 0:
        raise NonphysicalQinError(
            "coupling loss cos(phi)/|Q_e| is not below the loaded loss 1/Q_l")
    alpha = math.atan2(a.imag, a.real) + TWO_PI * f_mid * delay
    return NotchParams(f_r=f_r, q_loaded=q_loaded, q_ext_mag=q_e,
                       mismatch_phi=phi, env_gain=abs(a),
                       env_phase=_wrap_angle(alpha), cable_delay=delay)


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _times_power_of_two(x: complex, k: int) -> complex:
    """x * 2^k in two factors, each a normal float for any exponent k of
    a float: exact wherever the result is a normal float, and infinite,
    with no exception or warning, where it overflows."""
    return x * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)


def _refine_notch(trace: Trace, seed: PhaseFit,
                  delay: float) -> NotchFitResult:
    freqs = trace.freqs_hz
    z, exponent = _scaled_to_unit(trace.s21)
    span = freqs[-1] - freqs[0]
    f_mid = float(freqs[freqs.size // 2])
    n = float(freqs.size)
    # The offsets f - f_mid and the lever are fresh arrays: a captured
    # problem reads them after another fit has overwritten the workspace.
    offsets = freqs - f_mid
    # d rot / d tau = lever rot.
    lever = (-1j * TWO_PI) * offsets

    # Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    # 1973): the model rot (a + c v), with rot = e^(-2 pi i (f - f_mid)
    # tau) and v = 1 / (1 + 2 i Q_l (f/f_r - 1)), is linear in a and
    # c = -b, so at each (f_r, Q_l, tau) they are the least-squares
    # solution and the solver runs on those three alone. |rot| = 1, so
    # the residual and Jacobian are written divided by rot: the norms and
    # inner products the solver reads stay the same. There the columns
    # are 1 and v, and the 2x2 Gram solve is elimination against 1 and
    # vc = v - mean(v). The solver takes the normal equations at the
    # point whose residual it evaluated last, so one cached entry lets
    # the residual and the normal equations share that point's solve. v,
    # vc and the model live in the thread's workspace, which a later fit
    # of the same length overwrites, so the entry holds only while this
    # call owns it; the residual is a fresh array, since the solver holds
    # two at once.
    space = _workspace(freqs.size)
    v, w, vc, model, u, g, along = (
        space.array(name, complex)
        for name in ("v", "w", "vc", "model", "u", "g", "along"))
    cached = [None, None]

    def projection(p):
        key = p.tobytes()
        if key != cached[0] or space.owner is not cached:
            # v = (1 - i x) / (1 + x^2), x = 2 Q_l (f/f_r - 1), in real
            # arithmetic: t = -x, Re v = 1 / (1 + t^2) and Im v = t Re v,
            # formed on contiguous memory and then written into v's parts.
            t = np.divide(freqs, p[0], out=space.array("t"))
            t -= 1.0
            t *= -2.0 * p[1]
            v_re = np.multiply(t, t, out=space.array("square"))
            v_re += 1.0
            np.divide(1.0, v_re, out=v_re)
            np.multiply(t, v_re, out=v.imag)
            v.real = v_re
            _delay_phasor(offsets, p[2], out=w)
            np.multiply(z, w, out=w)
            v_mean = v.sum() / n
            np.subtract(v, v_mean, out=vc)
            vc_norm2 = np.vdot(vc, vc).real
            c = np.vdot(vc, w) / vc_norm2
            a = w.sum() / n - c * v_mean
            np.multiply(v, c, out=model)
            np.add(model, a, out=model)
            # Model minus data; rows interleave the real and imaginary
            # parts (a view of the complex array, no copy).
            out = model - w
            space.owner = cached
            cached[:] = key, (vc_norm2, a, c, out.view(float))
        return cached[1]

    # Kaufman's Jacobian (BIT 15, 49, 1975): the model's partials at
    # fixed a and c, each projected off span{1, v} like the residual.
    # With v^2 d = v, d v / d Q_l = (v^2 - v) / Q_l and d v / d f_r =
    # (v + (2 i Q_l - 1) v^2) / f_r; v projects to 0, so the f_r and Q_l
    # columns are k0 u and k1 u, u the projected v^2, k0 = c (2 i Q_l -
    # 1) / f_r and k1 = c / Q_l, and the tau column is g, the projected
    # model * lever. On interleaved real rows the inner product of two
    # columns is the real part of their complex one, so the 3x3 normal
    # matrix and the gradient come from |u|^2, <u, g>, |g|^2, <u, r> and
    # <g, r>, and no (N, 3) Jacobian is formed. The columns are
    # projected explicitly: moments of the unprojected v^2 cancel where
    # v^2 is nearly in span{1, v}.
    def normal_equations(p, r):
        vc_norm2, _, c, _ = projection(p)
        np.multiply(v, v, out=u)
        np.multiply(model, lever, out=g)
        for col in (u, g):
            col -= col.sum() / n
            col -= np.multiply(np.vdot(vc, col) / vc_norm2, vc, out=along)
        r = r.view(complex)
        # Python scalars: numpy's cost more than their arithmetic here.
        uu, gg = float(np.vdot(u, u).real), float(np.vdot(g, g).real)
        gr = float(np.vdot(g, r).real)
        ug, ur = complex(np.vdot(u, g)), complex(np.vdot(u, r))
        k0 = complex(c) * (2j * p[1] - 1.0) / p[0]
        k1 = complex(c) / p[1]
        k01 = (k0.conjugate() * k1).real * uu
        k0g = (k0.conjugate() * ug).real
        k1g = (k1.conjugate() * ug).real
        normal = np.array([[abs(k0) ** 2 * uu, k01, k0g],
                           [k01, abs(k1) ** 2 * uu, k1g],
                           [k0g, k1g, gg]])
        gradient = np.array([(k0.conjugate() * ur).real,
                             (k1.conjugate() * ur).real, gr])
        return normal, gradient

    problem = fitting.FitProblem(
        residual=lambda p: projection(p)[3],
        initial_params=np.array([seed.f_r, seed.q_loaded, delay]),
        bounds=[(max(freqs[0] - span, 1.0), freqs[-1] + span),
                (1.0, 1e12), (-1e-4, 1e-4)],
        normal_equations=normal_equations,
    )
    res = fitting.nonlinear_ls(problem)
    f_r, q_l, tau = res.params
    _, a, c, _ = projection(res.params)
    gain = abs(complex(a))
    rms = res.residual_norm / math.sqrt(len(trace)) / gain
    # |Q_e| as extract_qfactors computes it, bit for bit.
    q_e = q_l / abs(complex(-c) / complex(a))

    # The covariance of all seven parameters from the full model's
    # Jacobian at the optimum, with the environment phase referenced to
    # the band center (alpha_c = alpha - 2 pi f_mid tau): the tau
    # column's lever arm is 2 pi (f_mid - f) instead of -2 pi f, and the
    # gain's is that of ln g, so every column carries the trace's unit.
    # Taken divided by rot, like the refinement's (J^T J is unchanged),
    # each column is a complex multiple m_j of one of five vectors: f v^2
    # for f_r, v^2 for Q_l, v for |Q_e| and phi, 1 - kappa v for ln g and
    # alpha_c, and (1 - kappa v) 2 pi (f_mid - f) for tau, with kappa =
    # -c/a the unit-gain dip per v. Entry (j, k) of the normal matrix is
    # then Re(conj(m_j) m_k G), G the vectors' complex inner product: its
    # 15 distinct entries as vdots take half the time of a matmul against
    # a conjugated copy of the basis, and one gather places them.
    basis = space.array("basis", complex, rows=4)
    np.multiply(v, v, out=basis[1])
    np.multiply(basis[1], freqs, out=basis[0])
    np.multiply(v, c / a, out=basis[2])
    basis[2] += 1.0
    arm = np.subtract(f_mid, freqs, out=space.array("t"))
    arm *= TWO_PI
    np.multiply(basis[2], arm, out=basis[3])
    vectors = (basis[0], basis[1], v, basis[2], basis[3])
    dots = np.array([np.vdot(vectors[j], vectors[k]) for j, k in _GRAM_PAIRS])
    gram = np.concatenate((dots, dots.conj()))[_GRAM_ENTRIES]
    mult = np.array([2j * q_l * c / f_r ** 2, c / q_l, -c / q_e, 1j * c,
                     a, 1j * a, 1j * a])
    normal = (mult.conj()[:, None] * gram * mult).real
    cov = fitting.covariance(normal, 2 * freqs.size, res.residual_norm)
    stderr = np.sqrt(cov.diagonal())
    # Read before extract_qfactors, so that noise alone reads as
    # unresolved, not as nonphysical; an infinite error is refused.
    rel_q_l, rel_q_e = stderr[1] / q_l, stderr[2] / q_e
    if not (rel_q_l <= MAX_RELATIVE_ERROR and rel_q_e <= MAX_RELATIVE_ERROR):
        raise UnresolvedResonanceError(
            f"unresolved resonance: relative error {rel_q_l:.3g} on Q_l and "
            f"{rel_q_e:.3g} on |Q_e|; the bound is {MAX_RELATIVE_ERROR:.3g}")
    # a and b back in the units of the trace.
    params = extract_qfactors(
        f_r, q_l, tau, _times_power_of_two(complex(a), exponent),
        _times_power_of_two(complex(-c), exponent), f_mid)
    q_in, phi = params.q_internal, params.mismatch_phi
    grad = np.array([0.0, q_in ** 2 / q_l ** 2,
                     -q_in ** 2 * math.cos(phi) / q_e ** 2,
                     -q_in ** 2 * math.sin(phi) / q_e, 0.0, 0.0, 0.0])
    # A parameter Q_in does not depend on adds 0, not 0 * inf.
    var_qin = float(grad @ np.where(grad == 0.0, 0.0, cov) @ grad)
    uncertainties = {name: float(e) for name, e in zip(_FITTED, stderr)}
    uncertainties["q_internal"] = math.sqrt(max(var_qin, 0.0))
    return NotchFitResult(params=params, uncertainties=uncertainties,
                          residual_rms=float(rms), converged=res.converged)


def fit_notch(trace: Trace) -> NotchFitResult:
    """Full notch extraction pipeline on a raw trace.

    Delay estimation and the closed-form phase seed give f_r, Q_l and
    the delay, the seed's leftover delay added to the search's; one
    variable-projection refinement of those three against the complex
    data, with the gain, environment phase, |Q_e| and phi solved
    linearly at each step, gives the result. It is the pipeline's only
    solver run. Non-convergence is reported, never silent: degenerate
    inputs raise and the converged flag reflects the final optimizer
    state. Uncertainties are first-order, from the covariance of all
    seven model parameters at the optimum. A refined fit whose Q_l or
    |Q_e| has a standard error over MAX_RELATIVE_ERROR of itself raises
    UnresolvedResonanceError, converged or not, and before
    extract_qfactors maps the linear amplitudes to NotchParams, so a
    trace of noise alone reads as unresolved, not as nonphysical. The
    trace's amplitude does not matter: 2^k times a trace fits to the
    same bits, with the gain scaled by 2^k, and c e^(i a) times a trace
    to the same f_r and Q's, with the gain scaled by |c| and the
    environment phase moved by a.
    """
    if len(trace) < MIN_TRACE_POINTS:
        raise InsufficientDataError(
            f"notch fit needs at least {MIN_TRACE_POINTS} points")
    tau = estimate_delay(trace)
    phase = fit_phase(trace, tau)
    return _refine_notch(trace, phase, tau + phase.residual_delay)


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
        # Written so that NaN fails each check.
        if not all(0 < s < math.inf and 0 < f < math.inf
                   for s, f in self.rows):
            raise DomainError("areas and frequencies must be positive and "
                              "finite")
        if not 0 < self.inductance < math.inf:
            raise DomainError("inductance must be positive and finite")
        if not 0.0 <= self.kinetic_fraction < 1.0:
            raise DomainError("kinetic fraction must lie in [0, 1)")


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


def frequency_area_jacobian(areas, inductance: float, cap_per_area: float,
                            cap_to_ground: float) -> np.ndarray:
    """(len(areas), 2) partial of f = 1/(2 pi sqrt(L C)), C = C_g + c S,
    with respect to (c, C_g): -f S / (2 C) and -f / (2 C).

    SI units: areas in um^2, c in F/um^2, C_g in F.
    """
    c_total = cap_to_ground + cap_per_area * areas
    out = np.empty((c_total.size, 2))
    out[:, 1] = -0.5 / (TWO_PI * np.sqrt(inductance * c_total) * c_total)
    out[:, 0] = out[:, 1] * areas
    return out


def fit_frequency_vs_area(ds: AreaFrequencyDataset) -> AreaFitResult:
    """Least-squares fit of circuit.lc_frequency to the dataset's rows.

    Linearized by circuit.lc_capacitance for the starting point, then
    refined on the frequency residuals. Standard errors come from
    fitting.covariance of frequency_area_jacobian at the fitted
    constants, scaled by the reduced chi-square.
    """
    areas = np.array([s for s, _ in ds.rows])
    freqs = np.array([f for _, f in ds.rows])
    l_eff = effective_inductance(ds.inductance, ds.kinetic_fraction)

    # The LC law solved for C_g + c S is linear in S: exact on clean data.
    y = lc_capacitance(freqs, ds.inductance, ds.kinetic_fraction)
    design = np.ones((areas.size, 2))
    design[:, 0] = areas
    try:
        init = fitting.linear_wls(design, y)
    except RankDeficiencyError as exc:
        raise DegenerateDataError("area-frequency system is singular") from exc

    def resid(p):
        return lc_frequency(areas, ds.inductance, p[0], p[1],
                            ds.kinetic_fraction) - freqs

    problem = fitting.FitProblem(
        residual=resid,
        initial_params=np.maximum(init.params, 1e-6 * FF),
        bounds=[(1e-9 * FF, math.inf), (1e-9 * FF, math.inf)],
        scale=FF,
        normal_equations=fitting.from_jacobian(
            lambda p: frequency_area_jacobian(areas, l_eff, *p)),
    )
    res = fitting.nonlinear_ls(problem)
    jac = frequency_area_jacobian(areas, l_eff, *res.params)
    cov = fitting.covariance(jac.T @ jac, areas.size, res.residual_norm)
    err = np.sqrt(cov.diagonal())
    return AreaFitResult(cap_per_area=float(res.params[0]),
                         cap_to_ground=float(res.params[1]),
                         covariance=cov,
                         cap_per_area_err=float(err[0]),
                         cap_to_ground_err=float(err[1]),
                         converged=res.converged,
                         residual_norm=res.residual_norm)
