"""Design and trace-analysis toolkit for compact lumped-element
superconducting microwave resonators.

Forward physics (LC design, plate-capacitor constants, notch S21
model), synthetic trace generation, circle-fit parameter extraction,
TLS power-sweep fitting, and a CLI binding the workflows together.
"""

__version__ = "0.1.0"

from .circuit import (DielectricSpec, DispersiveBudget, DispersiveReport,
                      JunctionLeakageSpec, ResonatorDesign, area_for_frequency,
                      ceiling_frequency, critical_current, debye_permittivity,
                      dielectric_constant, dispersive_min_q,
                      junction_shunt_inductance, resonance_frequency)
from .extraction import (AreaFrequencyDataset, AreaFitResult, CircleFit,
                         NotchFitResult, PhaseFit, estimate_delay,
                         extract_qfactors, fit_circle, fit_frequency_vs_area,
                         fit_notch, fit_phase)
from .fitting import (FitProblem, FitResult, linear_wls, nonlinear_ls,
                      numeric_jacobian)
from .notch import (NotchParams, Trace, linewidth_grid, photons_from_power,
                    q_internal_of, s21_at, s21_model, synthesize_trace)
from .tls import (PowerSweep, PowerSweepFit, TlsFitParams, fit_power_sweep,
                  solve_endpoint_params, thermal_factor, tls_tan_delta)
