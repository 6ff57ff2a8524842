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

__all__ = ["NotchParams", "Trace", "s21_at", "s21_model", "s21_jacobian",
           "synthesize_trace", "linewidth_grid", "photons_from_power",
           "q_internal_of"]


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
        if self.f_r <= 0:
            raise DomainError("resonance frequency must be positive")
        if self.q_loaded <= 0 or self.q_ext_mag <= 0:
            raise DomainError("quality factors must be positive")
        if abs(self.mismatch_phi) >= math.pi / 2:
            raise DomainError("mismatch angle must satisfy |phi| < pi/2")
        if self.env_gain <= 0:
            raise DomainError("environment gain must be positive")
        # Loaded loss must include the coupling loss: derived Q_in > 0
        # (equality, a lossless resonator, is allowed).
        inv_qin = 1.0 / self.q_loaded - math.cos(self.mismatch_phi) / self.q_ext_mag
        if inv_qin < -1e-12 / self.q_loaded:
            raise DomainError("q_loaded exceeds q_ext_mag/cos(phi): "
                              "internal loss would be negative")

    @property
    def q_internal(self) -> float:
        """Internal quality factor from 1/Q_in = 1/Q_l - cos(phi)/|Q_e|."""
        return q_internal_of(self.q_loaded, self.q_ext_mag, self.mismatch_phi)


@dataclass
class Trace:
    """An ordered frequency sweep of complex transmission samples."""

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
        diffs = np.diff(self.freqs_hz)
        if diffs.size and not np.all(diffs > 0):
            raise DomainError("trace frequencies must be strictly increasing")

    def __len__(self) -> int:
        return self.freqs_hz.size


def s21_model(f, f_r, q_loaded, q_ext_mag, mismatch_phi=0.0, env_gain=1.0,
              env_phase=0.0, cable_delay=0.0):
    """Raw model evaluation on unvalidated parameters.

    Fitters call this directly so they can explore transiently
    nonphysical parameter combinations; use s21_at for checked inputs.
    """
    rotor, _, dip = _model_terms(np.asarray(f, dtype=float), f_r, q_loaded,
                                 q_ext_mag, mismatch_phi, env_phase,
                                 cable_delay)
    out = env_gain * rotor * (1.0 - dip)
    return out if out.ndim else complex(out)


def _model_terms(f, f_r, q_loaded, q_ext_mag, mismatch_phi, env_phase,
                 cable_delay):
    """Unit-gain environment factor, detuning and resonant dip."""
    rotor = np.exp(1j * (env_phase - TWO_PI * f * cable_delay))
    detune = 1.0 + 2j * q_loaded * (f / f_r - 1.0)
    dip = (q_loaded / q_ext_mag) * np.exp(1j * mismatch_phi) / detune
    return rotor, detune, dip


def s21_jacobian(f, f_r, q_loaded, q_ext_mag, mismatch_phi=0.0, env_gain=1.0,
                 env_phase=0.0, cable_delay=0.0) -> np.ndarray:
    """Exact partials of s21_model, complex with shape (N, 7).

    Columns follow the argument order (f_r, q_loaded, q_ext_mag,
    mismatch_phi, env_gain, env_phase, cable_delay). With S = env (1 -
    dip) and dip = (Q_l/|Q_e|) e^(i phi) / detune, every column is a
    multiple of env * dip or of S.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    terms = _model_terms(f, f_r, q_loaded, q_ext_mag, mismatch_phi,
                         env_phase, cable_delay)
    rotor, _, dip = terms
    return _jacobian_rows(f, f_r, q_loaded, q_ext_mag, env_gain, terms,
                          rotor * (1.0 - dip), (-TWO_PI) * f).T


def _jacobian_rows(f, f_r, q_loaded, q_ext_mag, env_gain, terms, shape,
                   delay_lever) -> np.ndarray:
    """s21_jacobian's columns as the rows of a contiguous (7, N) array,
    from the _model_terms of the same point and its unit-gain model
    shape = rotor (1 - dip).

    The delay row is i S delay_lever: delay_lever = -2 pi f for the
    model's own delay, or a shifted lever when the caller references
    the environment phase to another frequency. Every row is filled in
    place; rows 1 and 3 hold env * dip / detune and env * dip until
    their own turn.
    """
    rotor, detune, dip = terms
    rows = np.empty((7, f.size), dtype=complex)
    env_dip = np.multiply(rotor, dip, out=rows[3])
    env_dip *= env_gain
    dip_rate = np.divide(env_dip, detune, out=rows[1])
    np.multiply(dip_rate, f, out=rows[0])
    rows[0] *= -2j * q_loaded / f_r ** 2
    dip_rate *= -1.0 / q_loaded
    np.multiply(env_dip, 1.0 / q_ext_mag, out=rows[2])
    env_dip *= -1j
    rows[4] = shape
    np.multiply(shape, 1j * env_gain, out=rows[5])
    np.multiply(rows[5], delay_lever, out=rows[6])
    return rows


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
    if noise_sigma < 0:
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
    if power_on_chip < 0:
        raise DomainError("power must be non-negative")
    omega = TWO_PI * params.f_r
    return 2.0 * params.q_loaded ** 2 * power_on_chip \
        / (params.q_ext_mag * HBAR * omega ** 2)


def q_internal_of(q_loaded: float, q_ext_mag: float,
                  mismatch_phi: float = 0.0) -> float:
    """Internal Q from loaded and coupling quantities (diameter
    corrected): 1/Q_in = 1/Q_l - cos(phi)/|Q_e|."""
    inv = 1.0 / q_loaded - math.cos(mismatch_phi) / q_ext_mag
    return math.inf if inv <= 0 else 1.0 / inv
