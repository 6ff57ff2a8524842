"""Two-level-system loss: tan-delta bookkeeping, thermal saturation and
power-sweep fitting.

Internal loss is modeled as a saturable TLS channel on top of a
power-independent remainder:

    tan d(n) = tan_d_tls0 * tanh(h f / 2 k_B T) / (1 + n/n_c)^beta
               + tan_d_other

Loss channels add in tan delta, so fits run on 1/Q_in rather than Q_in.
A deliberate limitation: the model cannot produce a tan-delta rise at
high power; sweeps showing one (other loss mechanisms taking over) are
flagged through elevated tail residuals instead.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import fitting
from .constants import H_PLANCK, K_B
from .errors import DomainError, InsufficientDataError

__all__ = ["TlsFitParams", "PowerSweep", "PowerSweepFit",
           "thermal_factor", "tan_delta_model",
           "tls_tan_delta", "tan_delta_jacobian", "fit_power_sweep",
           "solve_endpoint_params"]

DEFAULT_BETA = 0.5


@dataclass(frozen=True)
class TlsFitParams:
    """Saturable-loss parameters.

    tan_delta_tls0: unsaturated TLS loss tangent; n_critical: photon
    number where saturation sets in; beta: saturation exponent in
    (0, 1], 0.5 is the standard weak-field value; tan_delta_other:
    power-independent residual loss.
    """

    tan_delta_tls0: float
    n_critical: float
    beta: float = DEFAULT_BETA
    tan_delta_other: float = 0.0

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not (self.tan_delta_tls0 >= 0 and self.tan_delta_other >= 0):
            raise DomainError("loss tangents must be non-negative")
        if not 0.0 < self.beta <= 1.0:
            raise DomainError("beta must lie in (0, 1]")
        if not self.n_critical > 0:
            raise DomainError("critical photon number must be positive")


@dataclass(frozen=True)
class PowerSweep:
    """Internal quality factor versus photon number for one resonator."""

    points: tuple[tuple[float, float, float], ...]  # (n, q_in, sigma_q)
    resonator_freq: float
    temperature: float

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple((float(n), float(q), float(s))
                                 for n, q, s in self.points))
        object.__setattr__(self, "resonator_freq", float(self.resonator_freq))
        object.__setattr__(self, "temperature", float(self.temperature))
        ns = [n for n, _, _ in self.points]
        # Each check is written so that NaN fails it.
        if not all(0 < n < math.inf for n in ns):
            raise DomainError("photon numbers must be positive and finite")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainError("photon numbers must be strictly increasing")
        if not all(0 < q < math.inf and 0 < s < math.inf
                   for _, q, s in self.points):
            raise DomainError(
                "quality factors and sigmas must be positive and finite")
        if not (0 < self.resonator_freq < math.inf
                and 0 < self.temperature < math.inf):
            raise DomainError(
                "frequency and temperature must be positive and finite")


@dataclass
class PowerSweepFit:
    """Result of a power-sweep fit, with warnings for ill-conditioned
    or model-violating data carried rather than raised."""

    params: TlsFitParams
    covariance: np.ndarray      # order: tls0, n_c, beta, other
    stderr: dict[str, float]
    converged: bool
    residual_norm: float
    warnings: list[str] = field(default_factory=list)


def thermal_factor(f: float, temperature: float) -> float:
    """TLS thermal-population factor tanh(h f / 2 k_B T), in (0, 1).

    Close to 1 for GHz frequencies at tens of millikelvin, which is why
    resonators across a 7-13 GHz chip show no frequency trend in loss.
    """
    if not 0 < temperature < math.inf:
        raise DomainError("temperature must be positive and finite")
    if not f >= 0:
        raise DomainError("frequency must be non-negative")
    return math.tanh(H_PLANCK * f / (2.0 * K_B * temperature))


def tan_delta_model(n, thermal, tls0, n_critical, beta, other):
    """The loss law tls0 thermal / (1 + n/n_c)^beta + other on unchecked
    inputs, n a scalar or an array; tls_tan_delta is its checked form."""
    return tls0 * thermal / (1.0 + n / n_critical) ** beta + other


def tls_tan_delta(n, p: TlsFitParams, f: float, temperature: float):
    """Loss tangent at mean photon number n (scalar or array).

    Monotone non-increasing in n; tends to tan_delta_tls0 * thermal +
    other at n -> 0 and to tan_delta_other at full saturation.
    """
    n = np.asarray(n, dtype=float)
    if (n < 0).any():
        raise DomainError("photon number must be non-negative")
    out = tan_delta_model(n, thermal_factor(f, temperature), p.tan_delta_tls0,
                          p.n_critical, p.beta, p.tan_delta_other)
    return out if out.ndim else float(out)


def tan_delta_jacobian(n, thermal: float, tls0: float, n_critical: float,
                       beta: float) -> np.ndarray:
    """(len(n), 4) partial of the loss tangent with respect to
    (tan_delta_tls0, n_critical, beta, tan_delta_other).

    With x = n/n_c and s = (1 + x)^-beta: th s, tls0 th beta s x /
    ((1 + x) n_c), -tls0 th s log1p(x) and 1.
    """
    x = n / n_critical
    out = np.empty((x.size, 4))
    out[:, 0] = thermal * (1.0 + x) ** -beta
    weighted = tls0 * out[:, 0]
    out[:, 1] = weighted * beta * x / ((1.0 + x) * n_critical)
    out[:, 2] = -weighted * np.log1p(x)
    out[:, 3] = 1.0
    return out


def solve_endpoint_params(q_low: float, n_low: float, q_high: float,
                          n_high: float, n_critical: float,
                          beta: float, f: float,
                          temperature: float) -> TlsFitParams:
    """TlsFitParams that hit two (n, Q_in) anchor points exactly.

    For chosen n_critical and beta the two loss tangents are linear in
    (tan_delta_tls0, tan_delta_other), so the anchors determine them.
    """
    th = thermal_factor(f, temperature)
    g_low = tan_delta_model(n_low, th, 1.0, n_critical, beta, 0.0)
    g_high = tan_delta_model(n_high, th, 1.0, n_critical, beta, 0.0)
    t_low = 1.0 / q_low
    t_high = 1.0 / q_high
    tls0 = (t_low - t_high) / (g_low - g_high)
    other = t_low - tls0 * g_low
    return TlsFitParams(tan_delta_tls0=tls0, n_critical=n_critical,
                        beta=beta, tan_delta_other=other)


def fit_power_sweep(sweep: PowerSweep, fit_beta: bool = True,
                    n_max: float | None = None) -> PowerSweepFit:
    """Weighted nonlinear fit of tan d(n) = 1/Q_in(n) over a sweep.

    Points above n_max (when given) are masked before fitting, for
    sweeps whose high-power tail is taken over by non-TLS mechanisms.
    With fit_beta False the exponent stays pinned at its starting value.
    """
    if n_max is not None and not n_max > 0:
        raise DomainError("n_max must be a positive photon number")
    pts = [(n, q, s) for n, q, s in sweep.points
           if n_max is None or n <= n_max]
    if len(pts) < 4:
        raise InsufficientDataError("power-sweep fit needs at least 4 points")
    ns = np.array([p[0] for p in pts])
    tan_d = np.array([1.0 / p[1] for p in pts])
    # A sigma far from its Q can over- or underflow the weight. The
    # numpy scalar power overflows to inf here, where a float's raises.
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        sigma_tan = np.array([s / np.float64(q) ** 2 for _, q, s in pts])
        weights = 1.0 / sigma_tan ** 2
    usable = np.isfinite(weights) & (weights > 0.0)
    if not usable.all():
        n, q, s = pts[int(np.argmin(usable))]
        raise DomainError(
            f"power-sweep point at photon number {n:g} (q_internal {q:g}, "
            f"sigma {s:g}) has no positive finite fit weight")
    th = thermal_factor(sweep.resonator_freq, sweep.temperature)

    warnings: list[str] = []
    if math.log10(ns[-1] / ns[0]) < 3.0:
        warnings.append("ill-conditioned fit: photon numbers span fewer "
                        "than 3 decades")

    other0 = float(tan_d.min())
    tls00 = max(float(tan_d[0] / th - other0), 0.1 * other0 + 1e-12)
    mid = 0.5 * (tan_d[0] + tan_d[-1])
    n_c0 = float(ns[np.abs(tan_d - mid).argmin()])
    n_c0 = min(max(n_c0, ns[0]), ns[-1])

    # Each row is divided by its sigma: the residual and its Jacobian are
    # weighted here, and the covariance below is absolute.
    sw = np.sqrt(weights)
    sw_rows = sw[:, None]

    def resid(p):
        return (tan_delta_model(ns, th, *p) - tan_d) * sw

    def jac(p):
        return tan_delta_jacobian(ns, th, *p[:3]) * sw_rows

    lo_beta, hi_beta = (1e-2, 1.0) if fit_beta else (DEFAULT_BETA, DEFAULT_BETA)
    # The solver works on loss tangents in units of the mean measured one.
    unit = tan_d.mean()
    problem = fitting.FitProblem(
        residual=resid,
        initial_params=np.array([tls00, n_c0, DEFAULT_BETA, other0]),
        # A positive n_c floor keeps the saturation term finite at the
        # bound; a different floor would move the fits that reach it.
        bounds=[(0.0, math.inf), (max(1e-3, 1e-6 * ns[0]), 1e6 * ns[-1]),
                (lo_beta, hi_beta), (0.0, math.inf)],
        scale=np.array([unit, 1.0, 1.0, unit]),
        normal_equations=fitting.from_jacobian(jac),
    )
    res = fitting.nonlinear_ls(problem)
    params = TlsFitParams(*map(float, res.params))
    # A pinned beta was never fitted: no degree of freedom, and a zero
    # row and column.
    rows = jac(res.params)
    cov = fitting.covariance(rows.T @ rows, ns.size,
                             free=np.array([True, True, fit_beta, True]))

    # Rising high-power tail cannot be produced by this model; flag it
    # when the top decade sits systematically above the fit.
    model = tls_tan_delta(ns, params, sweep.resonator_freq, sweep.temperature)
    tail = ns >= ns[-1] / 10.0
    excess = (tan_d[tail] - model[tail]) / sigma_tan[tail]
    if float(excess.mean()) > 2.0:
        warnings.append("high-power tail rises above the saturable "
                        "model: non-TLS loss suspected")

    stderr = {f.name: float(e) for f, e in zip(
        fields(TlsFitParams), np.sqrt(cov.diagonal()))}
    return PowerSweepFit(params=params, covariance=cov,
                         stderr=stderr, converged=res.converged,
                         residual_norm=res.residual_norm, warnings=warnings)
