"""Physical constants and unit factors, pinned for reproducible outputs.

Values are frozen here rather than imported from a dependency so that
golden files, report hashes and regression tests never drift with a
library upgrade.
"""

import math

from .errors import DomainError

HBAR = 1.0546e-34        # reduced Planck constant, J s
H_PLANCK = 2.0 * math.pi * HBAR  # Planck constant, J s (derived from HBAR)
K_B = 1.381e-23          # Boltzmann constant, J/K
E_CHARGE = 1.602e-19     # elementary charge, C
PHI_0 = 2.068e-15        # magnetic flux quantum, Wb
EPS_0 = 8.85e-12         # vacuum permittivity, F/m

TWO_PI = 2.0 * math.pi

# unit factors
GHZ = 1e9                # Hz per GHz
NH = 1e-9                # H per nH
FF = 1e-15               # F per fF
NS = 1e-9                # s per ns
NM = 1e-9                # m per nm
UM2_PER_M2 = 1e12        # um^2 per m^2
M2_PER_UM2 = 1e-12       # m^2 per um^2


def dbm_to_watt(p_dbm: float) -> float:
    """Convert power in dBm to watt; DomainError unless that is finite."""
    try:
        watt = 1e-3 * 10.0 ** (p_dbm / 10.0)
    except OverflowError:
        watt = math.inf
    if not math.isfinite(watt):
        raise DomainError(f"power of {p_dbm:g} dBm is out of range")
    return watt

