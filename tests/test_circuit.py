import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resokit import circuit, refdata
from resokit.circuit import (DielectricSpec, DispersiveBudget,
                             JunctionLeakageSpec, ResonatorDesign)
from resokit.constants import EPS_0, FF, GHZ, M2_PER_UM2, NH
from resokit.errors import DomainError, UnreachableFrequencyError
from resokit.tls import TlsFitParams

ROW1 = dict(inductance_geometric=0.3 * NH, cap_area=10.64 ** 2,
            cap_per_area=13.86 * FF, cap_to_ground=33.65 * FF)

positive = st.floats(min_value=1e-2, max_value=1e2)


class TestResonanceFrequency:
    def test_row1(self):
        f = circuit.resonance_frequency(ResonatorDesign(**ROW1))
        assert abs(f / GHZ - 7.26) < 0.005
        assert abs(f - 7.30 * GHZ) / (7.30 * GHZ) < 0.01

    def test_row10(self):
        design = ResonatorDesign(**{**ROW1, "cap_area": 5.8 ** 2})
        f = circuit.resonance_frequency(design)
        assert abs(f / GHZ - 13.0) < 0.01
        assert abs(f - 13.06 * GHZ) / (13.06 * GHZ) < 0.01

    def test_zero_area_ceiling(self):
        # Hand evaluation of 1/(2 pi sqrt(0.3 nH * 33.65 fF)) = 50.1 GHz.
        f = circuit.ceiling_frequency(0.3 * NH, 33.65 * FF)
        assert abs(f / GHZ - 50.1) < 0.05

    def test_kinetic_fraction_lowers_frequency(self):
        bare = circuit.resonance_frequency(ResonatorDesign(**ROW1))
        loaded = circuit.resonance_frequency(
            ResonatorDesign(**ROW1, kinetic_fraction=0.06))
        assert abs(loaded / bare - 1.0 / math.sqrt(1.06)) < 1e-12

    @given(s1=positive, s2=positive, ind=positive, cg=positive, c=positive)
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_area_l_cg(self, s1, s2, ind, cg, c):
        lo, hi = sorted((s1, s2))
        if hi - lo < 1e-9 * hi:
            return
        base = dict(inductance_geometric=ind * NH, cap_per_area=c * FF,
                    cap_to_ground=cg * FF)
        f_lo = circuit.resonance_frequency(ResonatorDesign(cap_area=lo, **base))
        f_hi = circuit.resonance_frequency(ResonatorDesign(cap_area=hi, **base))
        assert f_lo > f_hi
        f_l2 = circuit.resonance_frequency(ResonatorDesign(
            cap_area=lo, **{**base, "inductance_geometric": 2 * ind * NH}))
        assert f_l2 < f_lo
        f_cg2 = circuit.resonance_frequency(ResonatorDesign(
            cap_area=lo, **{**base, "cap_to_ground": 2 * cg * FF}))
        assert f_cg2 < f_lo

    def test_invalid_design_rejected(self):
        with pytest.raises(DomainError):
            ResonatorDesign(**{**ROW1, "inductance_geometric": 0.0})
        with pytest.raises(DomainError):
            ResonatorDesign(**ROW1, kinetic_fraction=1.0)

    @pytest.mark.parametrize("field, message", [
        ("inductance_geometric", "inductance must be positive and finite"),
        ("cap_area", "capacitor area must be non-negative and finite"),
        ("cap_per_area", "capacitance per area must be positive and finite"),
        ("cap_to_ground", "ground capacitance must be positive and finite"),
    ], ids=["inductance", "cap_area", "cap_per_area", "cap_to_ground"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_design_rejected(self, field, message, value):
        with pytest.raises(DomainError) as raised:
            ResonatorDesign(**{**ROW1, field: value})
        assert str(raised.value) == message


class TestAreaForFrequency:
    def test_row1_area(self):
        area = circuit.area_for_frequency(7.26 * GHZ, 0.3 * NH, 13.86 * FF,
                                          33.65 * FF)
        assert abs(area - 113.2) < 0.8

    def test_row10_area(self):
        area = circuit.area_for_frequency(13.0 * GHZ, 0.3 * NH, 13.86 * FF,
                                          33.65 * FF)
        assert abs(area - 33.6) < 0.3

    def test_ceiling_unreachable(self):
        ceiling = circuit.ceiling_frequency(0.3 * NH, 33.65 * FF)
        with pytest.raises(UnreachableFrequencyError):
            circuit.area_for_frequency(ceiling, 0.3 * NH, 13.86 * FF,
                                       33.65 * FF)

    @pytest.mark.parametrize("ind, kin, message", [
        (-0.3 * NH, -2.0, "inductance must be positive and finite"),
        (0.3 * NH, -0.5, "kinetic fraction must lie in [0, 1)"),
        (0.3 * NH, 1.0, "kinetic fraction must lie in [0, 1)"),
    ])
    def test_inductance_checked_as_design(self, ind, kin, message):
        # L and k are checked one by one, as ResonatorDesign checks them:
        # a positive product L (1 + k) does not let either through.
        with pytest.raises(DomainError) as raised:
            ResonatorDesign(**{**ROW1, "inductance_geometric": ind},
                            kinetic_fraction=kin)
        assert str(raised.value) == message
        with pytest.raises(DomainError) as raised:
            circuit.ceiling_frequency(ind, 33 * FF, kin)
        assert str(raised.value) == message
        with pytest.raises(DomainError) as raised:
            circuit.area_for_frequency(5 * GHZ, ind, 13.86 * FF, 33 * FF, kin)
        assert str(raised.value) == message

    @pytest.mark.parametrize("args, message", [
        ((0.3 * NH, math.inf, 33.65 * FF),
         "capacitance per area must be positive and finite"),
        ((math.inf, 13.86 * FF, 33.65 * FF),
         "inductance must be positive and finite"),
        ((0.3 * NH, 13.86 * FF, math.inf),
         "ground capacitance must be positive and finite"),
    ], ids=["cap_per_area", "inductance", "cap_to_ground"])
    def test_non_finite_input_rejected(self, args, message):
        # An infinite c used to give a NaN capacitance and frequency, an
        # infinite L or C_g an UnreachableFrequencyError at a 0 Hz ceiling.
        with pytest.raises(DomainError) as raised:
            circuit.area_for_frequency(7.3 * GHZ, *args)
        assert type(raised.value) is DomainError
        assert str(raised.value) == message

    @given(target=st.floats(min_value=0.5, max_value=45.0), ind=positive,
           cg=positive, c=positive, kin=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_identity(self, target, ind, cg, c, kin):
        ceiling = circuit.ceiling_frequency(ind * NH, cg * FF, kin)
        f_target = min(target * GHZ, 0.999 * ceiling)
        area = circuit.area_for_frequency(f_target, ind * NH, c * FF,
                                          cg * FF, kin)
        back = circuit.resonance_frequency(ResonatorDesign(
            inductance_geometric=ind * NH, cap_area=area, cap_per_area=c * FF,
            cap_to_ground=cg * FF, kinetic_fraction=kin))
        assert abs(back / f_target - 1.0) < 1e-12


class TestCapacitance:
    def test_table_self_consistency(self):
        # Every reference row matches the single table-implied slope
        # within 1 percent.
        shared = refdata.shared_cap_per_area()
        for row in refdata.REFERENCE_RESONATORS:
            predicted = shared * row.area_um2
            assert abs(predicted / row.capacitance_f - 1.0) < 0.01


class TestDielectricConstant:
    def test_room_temperature_value(self):
        eps = circuit.dielectric_constant(22 * FF, 12e-9)
        assert abs(eps - 29.8) < 0.1
        assert abs(eps - 30.0) < 5.0

    def test_cryogenic_value(self):
        eps = circuit.dielectric_constant(13.86 * FF, 12e-9)
        assert abs(eps - 18.8) < 0.1
        assert abs(eps - 19.0) < 3.0

    def test_vacuum_identity(self):
        # c = eps0/d expressed per um^2 gives exactly 1.
        d = 10e-9
        cap_per_area = EPS_0 / d * M2_PER_UM2
        assert circuit.dielectric_constant(cap_per_area, d) == pytest.approx(
            1.0, abs=1e-12)


class TestDebye:
    SPEC = DielectricSpec(thickness=12e-9, eps_static=30.0, eps_inf=19.0,
                          relax_time=1e-7)

    def test_static_limit(self):
        assert circuit.debye_permittivity(self.SPEC, 0.0) == 30.0

    def test_high_frequency_limit(self):
        w = 1e9 / self.SPEC.relax_time
        assert abs(circuit.debye_permittivity(self.SPEC, w) - 19.0) < 1e-15

    def test_half_relaxation_midpoint(self):
        w = 1.0 / self.SPEC.relax_time
        assert circuit.debye_permittivity(self.SPEC, w) == pytest.approx(
            24.5, abs=1e-12)

    @given(w1=st.floats(min_value=0.0, max_value=1e12),
           w2=st.floats(min_value=0.0, max_value=1e12))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, w1, w2):
        lo, hi = sorted((w1, w2))
        e_lo = circuit.debye_permittivity(self.SPEC, lo)
        e_hi = circuit.debye_permittivity(self.SPEC, hi)
        assert e_lo >= e_hi - 1e-12
        assert 19.0 <= e_hi <= 30.0 and 19.0 <= e_lo <= 30.0

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            DielectricSpec(thickness=12e-9, eps_static=10.0, eps_inf=19.0,
                           relax_time=1e-7)


class TestJunctionLeakage:
    SPEC = JunctionLeakageSpec(specific_resistance=3e6, area=113.2,
                               gap_energy=180e-6, temperature=1e-4)

    def test_critical_current_near_zero_t(self):
        # Hand value: pi * (180 ueV) / (2 e R) with R = 3e6/113.2 ohm
        # gives 10.67 nA; tanh factor is 1 at 0.1 mK.
        i_c = circuit.critical_current(self.SPEC)
        assert abs(i_c / 10.67e-9 - 1.0) < 1e-3

    def test_shunt_inductance(self):
        ind = circuit.junction_shunt_inductance(self.SPEC)
        assert abs(ind / 30.85e-9 - 1.0) < 1e-3

    def test_suppressed_tunneling_signals_infinity(self):
        # Finite inputs whose critical current underflows to zero.
        spec = JunctionLeakageSpec(specific_resistance=1e300, area=1.0,
                                   gap_energy=180e-6, temperature=1e300)
        assert circuit.critical_current(spec) == 0.0
        assert circuit.junction_shunt_inductance(spec) == math.inf

    @pytest.mark.parametrize("field, message", [
        ("specific_resistance",
         "resistance-area product and area must be positive and finite"),
        ("area",
         "resistance-area product and area must be positive and finite"),
        ("temperature", "temperature must be positive and finite"),
    ], ids=["specific_resistance", "area", "temperature"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_non_finite_spec_rejected(self, field, message, value):
        fields = dict(specific_resistance=3e6, area=113.2,
                      gap_energy=180e-6, temperature=0.01)
        with pytest.raises(DomainError) as raised:
            JunctionLeakageSpec(**{**fields, field: value})
        assert str(raised.value) == message

    @given(factor=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_resistance(self, factor):
        base = circuit.junction_shunt_inductance(self.SPEC)
        scaled = circuit.junction_shunt_inductance(JunctionLeakageSpec(
            specific_resistance=3e6 * factor, area=113.2,
            gap_energy=180e-6, temperature=1e-4))
        assert abs(scaled / base - factor) < 1e-9 * factor + 1e-12

    @given(factor=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_inverse_in_area(self, factor):
        base = circuit.junction_shunt_inductance(self.SPEC)
        scaled = circuit.junction_shunt_inductance(JunctionLeakageSpec(
            specific_resistance=3e6, area=113.2 * factor,
            gap_energy=180e-6, temperature=1e-4))
        assert abs(scaled * factor / base - 1.0) < 1e-9

    def test_gap_sanity_window(self):
        with pytest.raises(DomainError):
            JunctionLeakageSpec(specific_resistance=3e6, area=113.2,
                                gap_energy=0.5, temperature=0.01)


class TestDispersiveBudget:
    def test_typical_numbers(self):
        report = circuit.dispersive_min_q(DispersiveBudget(
            resonator_freq=7e9, detuning=1e9, coupling=50e6))
        assert report.min_q_total == pytest.approx(2800.0, rel=1e-12)
        assert report.min_q_total > 1000.0
        # At the minimum Q the shift equals the linewidth.
        assert report.dispersive_shift == pytest.approx(
            report.linewidth_at_min_q, rel=1e-12)

    def test_forced_cancellation(self):
        # g^2 = omega * detuning makes the bound exactly 1 (omega below
        # the detuning keeps the budget in the dispersive regime).
        g = math.sqrt(0.5e9 * 1e9)
        report = circuit.dispersive_min_q(DispersiveBudget(
            resonator_freq=0.5e9, detuning=1e9, coupling=g))
        assert report.min_q_total == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_coupling_scaling(self):
        base = circuit.dispersive_min_q(DispersiveBudget(7e9, 1e9, 50e6))
        doubled = circuit.dispersive_min_q(DispersiveBudget(7e9, 1e9, 100e6))
        assert doubled.min_q_total == base.min_q_total / 4.0

    def test_dispersive_regime_required(self):
        with pytest.raises(DomainError):
            DispersiveBudget(resonator_freq=7e9, detuning=1e9, coupling=2e9)


NAN = math.nan
SPEC = DielectricSpec(12e-9, 10.0, 9.0, 1e-9)


@pytest.mark.parametrize("build, args", [
    (TlsFitParams, (NAN, 10.0)),
    (TlsFitParams, (1e-4, NAN)),
    (TlsFitParams, (1e-4, 10.0, 0.5, NAN)),
    (DielectricSpec, (NAN, 10.0, 9.0, 1e-9)),
    (DielectricSpec, (12e-9, 10.0, 9.0, NAN)),
    (DispersiveBudget, (NAN, 1e9, 50e6)),
    (DispersiveBudget, (7e9, NAN, 50e6)),
    (DispersiveBudget, (7e9, 1e9, NAN)),
    (circuit.dielectric_constant, (NAN, 12e-9)),
    (circuit.dielectric_constant, (14e-15, NAN)),
    (circuit.debye_permittivity, (SPEC, NAN)),
], ids=["tls0", "n_critical", "other", "thickness", "relax_time",
        "resonator_freq", "detuning", "coupling", "cap_per_area",
        "eps_thickness", "angular_freq"])
def test_nan_fails_domain_check(build, args):
    with pytest.raises(DomainError):
        build(*args)
