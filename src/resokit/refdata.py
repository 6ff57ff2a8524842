"""Bundled reference measurement set.

Ten compact parallel-plate-capacitor resonators on one chip: measured
resonance frequency, fabricated capacitance, capacitor area, coupling Q,
and internal Q at high power (~1e5 photons) and near the single-photon
level. Used as ground truth by the regression and acceptance suites and
as the default dataset for the area-fit workflow.
"""

from dataclasses import dataclass

from .constants import FF, NH, NM

__all__ = [
    "ResonatorRecord",
    "REFERENCE_RESONATORS",
    "CRYO_CAP_PER_AREA",
    "CRYO_CAP_TO_GROUND",
    "INDUCTANCE_GEOMETRIC",
    "ROOM_T_CAP_PER_AREA",
    "DIELECTRIC_THICKNESS",
    "shared_cap_per_area",
]


@dataclass(frozen=True)
class ResonatorRecord:
    """One row of the reference chip: geometry plus measured figures."""

    label: str
    freq_hz: float
    capacitance_f: float
    sqrt_area_um: float
    q_ext: float
    q_in_high_power: float
    q_in_single_photon: float
    tan_delta: float

    @property
    def area_um2(self) -> float:
        return self.sqrt_area_um ** 2


REFERENCE_RESONATORS: tuple[ResonatorRecord, ...] = (
    ResonatorRecord("r01", 7.30e9, 1.56e-12, 10.64, 9e3, 45.5e3, 4.5e3, 2.22e-4),
    ResonatorRecord("r02", 8.91e9, 1.02e-12, 8.6, 8e3, 35.5e3, 2.8e3, 3.57e-4),
    ResonatorRecord("r03", 9.00e9, 0.99e-12, 8.5, 6e3, 33.6e3, 1.6e3, 6.25e-4),
    ResonatorRecord("r04", 10.61e9, 0.70e-12, 7.16, 6e3, 43.9e3, 3.4e3, 2.94e-4),
    ResonatorRecord("r05", 10.76e9, 0.69e-12, 7.09, 6e3, 31.3e3, 0.6e3, 16.6e-4),
    ResonatorRecord("r06", 10.85e9, 0.68e-12, 7.04, 6e3, 35.9e3, 2.5e3, 4.00e-4),
    ResonatorRecord("r07", 12.50e9, 0.50e-12, 6.04, 6e3, 34.5e3, 3.0e3, 3.33e-4),
    ResonatorRecord("r08", 12.62e9, 0.48e-12, 5.94, 7e3, 40.0e3, 8.3e3, 1.20e-4),
    ResonatorRecord("r09", 12.92e9, 0.47e-12, 5.84, 7e3, 21.3e3, 0.1e3, 100e-4),
    ResonatorRecord("r10", 13.06e9, 0.46e-12, 5.8, 9e3, 18.9e3, 2.8e3, 3.57e-4),
)

# Fit constants of the reference chip at cryogenic temperature (GHz range).
CRYO_CAP_PER_AREA = 13.86 * FF      # F/um^2
CRYO_CAP_TO_GROUND = 33.65 * FF     # F
INDUCTANCE_GEOMETRIC = 0.3 * NH     # H, from finite-element simulation

# Room-temperature bridge measurement (1 kHz) and layer thickness.
ROOM_T_CAP_PER_AREA = 22.0 * FF     # F/um^2
DIELECTRIC_THICKNESS = 12.0 * NM    # m


def shared_cap_per_area(records=REFERENCE_RESONATORS) -> float:
    """Single capacitance-per-area implied by a record set, F/um^2.

    Mean of the per-resonator C/S ratios; the reference rows agree with
    this shared value to better than 1 percent.
    """
    ratios = [r.capacitance_f / r.area_um2 for r in records]
    return sum(ratios) / len(ratios)
