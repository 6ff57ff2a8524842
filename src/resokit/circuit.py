"""Closed-form physics of lumped LC resonators and their parallel-plate
capacitors.

Conventions: SI units throughout, except capacitor areas which are in
um^2 and capacitance per area in F/um^2 (the natural fabrication units;
their product is plain farads). All functions are pure and thread-safe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, EPS_0, K_B, PHI_0, TWO_PI, UM2_PER_M2
from .errors import DomainError, UnreachableFrequencyError

__all__ = [
    "ResonatorDesign",
    "DielectricSpec",
    "JunctionLeakageSpec",
    "DispersiveBudget",
    "DispersiveReport",
    "effective_inductance",
    "lc_frequency",
    "lc_capacitance",
    "resonance_frequency",
    "area_for_frequency",
    "ceiling_frequency",
    "dielectric_constant",
    "debye_permittivity",
    "junction_shunt_inductance",
    "critical_current",
    "dispersive_min_q",
]


@dataclass(frozen=True)
class ResonatorDesign:
    """A lumped-element resonator: wire inductor plus plate capacitor.

    Parameters
    ----------
    inductance_geometric : float
        Wire inductance from field simulation, H.
    cap_area : float
        Plate overlap area, um^2.
    cap_per_area : float
        Capacitance per unit plate area, F/um^2.
    cap_to_ground : float
        Parasitic capacitance offset to ground, F.
    kinetic_fraction : float
        Kinetic inductance as a fraction of the geometric value. Zero by
        default so that predicted frequencies match fit constants that
        were extracted with the bare inductance; a typical thin-wire
        estimate is 0.06.
    """

    inductance_geometric: float
    cap_area: float
    cap_per_area: float
    cap_to_ground: float
    kinetic_fraction: float = 0.0

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not 0 < self.inductance_geometric < math.inf:
            raise DomainError("inductance must be positive and finite")
        if not 0 <= self.cap_area < math.inf:
            raise DomainError("capacitor area must be non-negative and finite")
        if not 0 < self.cap_per_area < math.inf:
            raise DomainError(
                "capacitance per area must be positive and finite")
        if not 0 < self.cap_to_ground < math.inf:
            raise DomainError("ground capacitance must be positive and finite")
        if not 0.0 <= self.kinetic_fraction < 1.0:
            raise DomainError("kinetic fraction must lie in [0, 1)")


@dataclass(frozen=True)
class DielectricSpec:
    """Debye-relaxation description of a capacitor dielectric."""

    thickness: float        # m
    eps_static: float
    eps_inf: float
    relax_time: float       # s

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not self.thickness > 0:
            raise DomainError("thickness must be positive")
        if not self.eps_static >= self.eps_inf >= 1.0:
            raise DomainError("require eps_static >= eps_inf >= 1")
        if not self.relax_time >= 0:
            raise DomainError("relaxation time must be non-negative")


@dataclass(frozen=True)
class JunctionLeakageSpec:
    """Tunnel-leakage check inputs for a plate capacitor.

    specific_resistance is the room-temperature resistance-area product
    in ohm um^2; gap_energy is the superconducting gap in eV (aluminum
    default 180 ueV).
    """

    specific_resistance: float
    area: float
    gap_energy: float = 180e-6
    temperature: float = 0.01

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not (0 < self.specific_resistance < math.inf
                and 0 < self.area < math.inf):
            raise DomainError("resistance-area product and area must be "
                              "positive and finite")
        if not 0.0 < self.gap_energy < 1e-2:
            raise DomainError("gap energy outside (0, 1e-2) eV sanity window")
        if not 0 < self.temperature < math.inf:
            raise DomainError("temperature must be positive and finite")


@dataclass(frozen=True)
class DispersiveBudget:
    """Scalar budget for dispersive readout: resonator frequency,
    qubit-resonator detuning and coupling, all in Hz."""

    resonator_freq: float
    detuning: float
    coupling: float

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not (self.resonator_freq > 0 and self.detuning > 0
                and self.coupling > 0):
            raise DomainError("all budget frequencies must be positive")
        if not self.coupling < self.detuning:
            raise DomainError("dispersive regime requires coupling < detuning")


@dataclass(frozen=True)
class DispersiveReport:
    """Minimum total Q for resolvable readout, with the shift and
    linewidth at that operating point (chi equals kappa there)."""

    min_q_total: float
    dispersive_shift: float   # Hz
    linewidth_at_min_q: float  # Hz


def effective_inductance(inductance_geometric, kinetic_fraction):
    """Geometric plus kinetic inductance L (1 + k), H, unchecked."""
    return inductance_geometric * (1.0 + kinetic_fraction)


def lc_frequency(area, inductance_geometric, cap_per_area, cap_to_ground,
                 kinetic_fraction=0.0):
    """The LC law 1/(2 pi sqrt(L (1 + k) (C_g + c S))), Hz, on unchecked
    inputs, the area S a scalar or an array; resonance_frequency is its
    checked form."""
    c_total = cap_to_ground + cap_per_area * area
    l_eff = effective_inductance(inductance_geometric, kinetic_fraction)
    return 1.0 / (TWO_PI * np.sqrt(l_eff * c_total))


def lc_capacitance(freq, inductance_geometric, kinetic_fraction=0.0):
    """The LC law solved for the total capacitance C_g + c S, F:
    1/(L (1 + k) (2 pi f)^2) on unchecked inputs, the frequency a scalar
    or an array."""
    l_eff = effective_inductance(inductance_geometric, kinetic_fraction)
    return 1.0 / (l_eff * (TWO_PI * freq) ** 2)


def resonance_frequency(design: ResonatorDesign) -> float:
    """Resonance frequency of a design by lc_frequency, Hz; strictly
    decreasing in area, inductance and ground capacitance."""
    return float(lc_frequency(design.cap_area, design.inductance_geometric,
                              design.cap_per_area, design.cap_to_ground,
                              design.kinetic_fraction))


def ceiling_frequency(inductance_geometric: float, cap_to_ground: float,
                      kinetic_fraction: float = 0.0) -> float:
    """Zero-area frequency ceiling of a design family, Hz. The inputs are
    checked as ResonatorDesign checks them; at zero area the plate's
    capacitance per area drops out."""
    return resonance_frequency(ResonatorDesign(
        inductance_geometric, 0.0, 1.0, cap_to_ground, kinetic_fraction))


def area_for_frequency(target: float, inductance_geometric: float,
                       cap_per_area: float, cap_to_ground: float,
                       kinetic_fraction: float = 0.0) -> float:
    """Plate area (um^2) that tunes a design to the target frequency.

    Exact inverse of resonance_frequency; raises
    UnreachableFrequencyError for targets at or above the zero-area
    ceiling.
    """
    if not target > 0:
        raise DomainError("target frequency must be positive")
    if not 0 < cap_per_area < math.inf:
        raise DomainError("capacitance per area must be positive and finite")
    ceiling = ceiling_frequency(inductance_geometric, cap_to_ground,
                                kinetic_fraction)
    if target >= ceiling:
        raise UnreachableFrequencyError(
            f"target {target:.6g} Hz is at or above the zero-area ceiling "
            f"{ceiling:.6g} Hz")
    try:
        c_total = lc_capacitance(target, inductance_geometric, kinetic_fraction)
    except ZeroDivisionError:  # L (2 pi f)^2 underflowed to 0
        c_total = math.inf
    area = (c_total - cap_to_ground) / cap_per_area
    if not math.isfinite(area):
        raise DomainError(f"target {target:.6g} Hz needs a plate area "
                          "beyond float range")
    return area


def dielectric_constant(cap_per_area: float, thickness: float) -> float:
    """Relative permittivity d*c/eps0 of a plate dielectric.

    cap_per_area in F/um^2, thickness in m.
    """
    if not (cap_per_area > 0 and thickness > 0):
        raise DomainError("capacitance per area and thickness must be positive")
    return thickness * cap_per_area * UM2_PER_M2 / EPS_0


def debye_permittivity(spec: DielectricSpec, angular_freq: float) -> float:
    """Debye dispersion eps_inf + (eps_s - eps_inf)/(1 + w^2 tau^2).

    Non-increasing in angular frequency, bounded by
    [eps_inf, eps_static].
    """
    if not angular_freq >= 0:
        raise DomainError("angular frequency must be non-negative")
    wt = angular_freq * spec.relax_time
    return spec.eps_inf + (spec.eps_static - spec.eps_inf) / (1.0 + wt * wt)


def critical_current(spec: JunctionLeakageSpec) -> float:
    """Tunnel critical current from the normal-state resistance, A.

    I_c = (pi Delta / 2 e R) tanh(Delta / 2 k_B T) with R the
    room-temperature resistance of the plate stack.
    """
    resistance = spec.specific_resistance / spec.area
    gap_j = spec.gap_energy * E_CHARGE
    thermal = math.tanh(gap_j / (2.0 * K_B * spec.temperature))
    return math.pi * gap_j / (2.0 * E_CHARGE * resistance) * thermal


def junction_shunt_inductance(spec: JunctionLeakageSpec) -> float:
    """Parasitic Josephson inductance Phi0/(2 pi I_c) of a leaky
    capacitor, H.

    Returns inf when the critical current underflows to zero (fully
    suppressed tunneling): the shunt is negligible, not an error.
    """
    i_c = critical_current(spec)
    if i_c == 0.0:
        return math.inf
    return PHI_0 / (TWO_PI * i_c)


def dispersive_min_q(budget: DispersiveBudget) -> DispersiveReport:
    """Minimum total quality factor for dispersive readout.

    Requires the state-dependent shift chi = g^2/Delta to exceed the
    linewidth kappa = omega/Q_total, giving Q_total >= omega Delta/g^2
    (the 2 pi factors cancel when everything is in Hz).
    """
    min_q = budget.resonator_freq * budget.detuning / budget.coupling ** 2
    chi = budget.coupling ** 2 / budget.detuning
    return DispersiveReport(min_q_total=min_q, dispersive_shift=chi,
                            linewidth_at_min_q=budget.resonator_freq / min_q)
