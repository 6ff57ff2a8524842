"""Forward model of a notch-coupled resonator's complex transmission.

Model convention:

    S21(f) = a e^(i alpha) e^(-2 pi i f tau)
             * [1 - (Q_l/|Q_e|) e^(i phi) / (1 + 2 i Q_l (f/f_r - 1))]

In the de-embedded frame the resonance traces a circle of diameter
Q_l/|Q_e|; phi tilts the circle for impedance-mismatched feedlines.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR, TWO_PI
from .errors import DomainError

__all__ = ["NotchParams", "Trace", "s21_at", "s21_model", "synthesize_trace",
           "linewidth_grid", "photons_from_power", "internal_loss",
           "q_internal_of", "q_loaded_of"]


@dataclass(frozen=True)
class NotchParams:
    """Resonance plus measurement-environment parameters.

    f_r in Hz, quality factors dimensionless, mismatch_phi in rad
    (|phi| < pi/2), env_gain dimensionless, env_phase in rad,
    cable_delay in s.
    """

    f_r: float
    q_loaded: float
    q_ext_mag: float
    mismatch_phi: float = 0.0
    env_gain: float = 1.0
    env_phase: float = 0.0
    cable_delay: float = 0.0

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not 0 < self.f_r < math.inf:
            raise DomainError("resonance frequency must be positive and finite")
        if not all(0 < q < math.inf for q in (self.q_loaded, self.q_ext_mag)):
            raise DomainError(
                "quality factors must be positive and finite")
        if not abs(self.mismatch_phi) < math.pi / 2:
            raise DomainError("mismatch angle must satisfy |phi| < pi/2")
        if not 0 < self.env_gain < math.inf:
            raise DomainError("environment gain must be positive and finite")
        if not (math.isfinite(self.env_phase)
                and math.isfinite(self.cable_delay)):
            raise DomainError("environment phase and cable delay must be "
                              "finite")
        # Loaded loss must include the coupling loss: derived Q_in > 0
        # (equality, a lossless resonator, is allowed).
        if (internal_loss(self.q_loaded, self.q_ext_mag, self.mismatch_phi)
                < -1e-12 / self.q_loaded):
            raise DomainError("q_loaded exceeds q_ext_mag/cos(phi): "
                              "internal loss would be negative")

    @property
    def q_internal(self) -> float:
        """Internal quality factor from 1/Q_in = 1/Q_l - cos(phi)/|Q_e|."""
        return q_internal_of(self.q_loaded, self.q_ext_mag, self.mismatch_phi)


@dataclass
class Trace:
    """An ordered frequency sweep of complex transmission samples.

    Construction checks the data: equal-length 1-D arrays, at least one
    point, finite values, strictly increasing frequencies and an applied
    power that is None or positive and finite. Each check raises
    DomainError; the finite and ordering checks name the first bad
    point. The file readers rely on these checks and repeat none.
    """

    freqs_hz: np.ndarray
    s21: np.ndarray
    applied_power_w: float | None = None
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.freqs_hz = np.asarray(self.freqs_hz, dtype=float)
        self.s21 = np.asarray(self.s21, dtype=complex)
        if self.freqs_hz.ndim != 1 or self.freqs_hz.shape != self.s21.shape:
            raise DomainError("frequencies and samples must be 1-D and equal length")
        if self.freqs_hz.size == 0:
            raise DomainError("trace must contain at least one point")
        bad = ~(np.isfinite(self.freqs_hz) & np.isfinite(self.s21))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"trace point {i} is not finite: frequency "
                f"{float(self.freqs_hz[i])!r} Hz, sample {complex(self.s21[i])!r}")
        bad = self.freqs_hz[1:] <= self.freqs_hz[:-1]
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise DomainError(
                "trace frequencies must be strictly increasing: point "
                f"{i} at {float(self.freqs_hz[i])!r} Hz follows point "
                f"{i - 1} at {float(self.freqs_hz[i - 1])!r} Hz")
        # Written so that NaN fails it.
        if self.applied_power_w is not None and \
                not 0 < self.applied_power_w < math.inf:
            raise DomainError("applied power must be positive and finite")

    def __len__(self) -> int:
        return self.freqs_hz.size


def s21_model(f, f_r, q_loaded, q_ext_mag, mismatch_phi=0.0, env_gain=1.0,
              env_phase=0.0, cable_delay=0.0):
    """Raw model evaluation on unvalidated parameters.

    s21_at, and so synthesize_trace, calls this on checked NotchParams.
    No fitter calls it: the notch refinement evaluates its own
    variable-projection model. Use s21_at for checked inputs.
    """
    f = np.asarray(f, dtype=float)
    rotor = np.exp(1j * (env_phase - TWO_PI * f * cable_delay))
    detune = 1.0 + 2j * q_loaded * (f / f_r - 1.0)
    dip = (q_loaded / q_ext_mag) * np.exp(1j * mismatch_phi) / detune
    out = env_gain * rotor * (1.0 - dip)
    return out if out.ndim else complex(out)


def s21_at(params: NotchParams, f):
    """Complex model transmission at frequency f (scalar or array), Hz."""
    return s21_model(f, params.f_r, params.q_loaded, params.q_ext_mag,
                     params.mismatch_phi, params.env_gain, params.env_phase,
                     params.cable_delay)


def linewidth_grid(params: NotchParams, span_linewidths: float = 10.0,
                   points: int = 1001) -> np.ndarray:
    """Frequency grid centered on f_r spanning +- span_linewidths
    loaded linewidths."""
    half = span_linewidths * params.f_r / params.q_loaded
    if points < 1 or not 0 < half < math.inf:
        raise DomainError("frequency grid needs at least one point and a "
                          "positive finite span")
    return np.linspace(params.f_r - half, params.f_r + half, points)


def synthesize_trace(params: NotchParams, grid, noise_sigma: float = 0.0,
                     seed: int = 0, applied_power_w: float | None = None,
                     metadata: dict[str, str] | None = None) -> Trace:
    """Model trace on a grid with i.i.d. complex Gaussian noise.

    noise_sigma is the standard deviation per quadrature. Deterministic
    for a fixed seed; no global random state is touched.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("frequency grid must not be empty")
    if not noise_sigma >= 0:
        raise DomainError("noise sigma must be non-negative")
    z = np.asarray(s21_at(params, grid), dtype=complex)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        quad = rng.standard_normal((grid.size, 2))
        z = z + noise_sigma * (quad[:, 0] + 1j * quad[:, 1])
    return Trace(freqs_hz=grid, s21=z, applied_power_w=applied_power_w,
                 metadata=dict(metadata or {}))


def photons_from_power(params: NotchParams, power_on_chip: float) -> float:
    """Steady-state mean photon number for a given on-chip drive power.

    Uses <n> = 2 Q_l^2 P / (|Q_e| hbar omega_r^2); linear in P. Absolute
    calibration depends on the attenuation bookkeeping upstream, so
    ordering and linearity are the reliable content.
    """
    if not power_on_chip >= 0:
        raise DomainError("power must be non-negative")
    omega = TWO_PI * params.f_r
    return 2.0 * params.q_loaded ** 2 * power_on_chip \
        / (params.q_ext_mag * HBAR * omega ** 2)


def internal_loss(q_loaded, q_ext_mag, mismatch_phi=0.0) -> float:
    """Internal loss 1/Q_in = 1/Q_l - cos(phi)/|Q_e| (diameter corrected)
    on unchecked scalars; negative when coupling exceeds loaded loss."""
    return 1.0 / q_loaded - math.cos(mismatch_phi) / q_ext_mag


def q_internal_of(q_loaded: float, q_ext_mag: float,
                  mismatch_phi: float = 0.0) -> float:
    """Internal Q from loaded and coupling quantities by internal_loss;
    inf for a lossless resonator."""
    inv = internal_loss(q_loaded, q_ext_mag, mismatch_phi)
    return math.inf if inv <= 0 else 1.0 / inv


def q_loaded_of(q_internal, q_ext_mag, mismatch_phi=0.0) -> float:
    """Loaded Q whose internal_loss is 1/q_internal: 1/Q_l = 1/Q_in +
    cos(phi)/|Q_e|, on unchecked scalars."""
    return 1.0 / (1.0 / q_internal + math.cos(mismatch_phi) / q_ext_mag)
