import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resokit as rk
from resokit.constants import HBAR, TWO_PI
from resokit.errors import DomainError
from resokit.extraction import fit_circle

IDEAL = dict(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)


class TestModel:
    def test_on_resonance_ideal(self):
        p = rk.NotchParams(**IDEAL)
        assert rk.s21_at(p, p.f_r) == pytest.approx(1.0 - 3000.0 / 9000.0,
                                                    abs=1e-15)

    def test_off_resonance_baseline(self):
        p = rk.NotchParams(**IDEAL, env_gain=0.85)
        far = p.f_r * 1.5
        assert abs(rk.s21_at(p, far)) == pytest.approx(0.85, rel=1e-4)

    def test_table_row1_dip_depth(self):
        # Q_in = 4.5e3 with |Q_e| = 9e3 gives Q_l = 3e3 and an
        # on-resonance magnitude of 2/3.
        q_in, q_e = 4.5e3, 9e3
        q_l = 1.0 / (1.0 / q_in + 1.0 / q_e)
        assert q_l == pytest.approx(3e3, rel=1e-12)
        p = rk.NotchParams(f_r=7.3e9, q_loaded=q_l, q_ext_mag=q_e)
        assert abs(rk.s21_at(p, p.f_r)) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_locus_is_circle_after_deembedding(self):
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0,
                           mismatch_phi=0.25, env_gain=1.3, env_phase=0.7,
                           cable_delay=35e-9)
        grid = rk.linewidth_grid(p, 10.0, 401)
        z = rk.s21_at(p, grid)
        z_canon = z * np.exp(1j * (TWO_PI * grid * p.cable_delay
                                   - p.env_phase)) / p.env_gain
        circle = fit_circle(z_canon)
        assert circle.rms < 1e-12
        assert circle.radius == pytest.approx(3000.0 / (2 * 9000.0), rel=1e-9)

    @given(q_in=st.floats(min_value=1e3, max_value=1e5),
           q_e=st.floats(min_value=6e3, max_value=9e3),
           phi=st.floats(min_value=-0.3, max_value=0.3),
           gain=st.floats(min_value=0.5, max_value=2.0),
           alpha=st.floats(min_value=-3.0, max_value=3.0),
           tau=st.floats(min_value=0.0, max_value=60e-9),
           span=st.floats(min_value=2.0, max_value=20.0),
           points=st.integers(min_value=16, max_value=600))
    @settings(max_examples=40, deadline=None)
    def test_locus_property_any_grid(self, q_in, q_e, phi, gain, alpha, tau,
                                     span, points):
        import math
        q_l = 1.0 / (1.0 / q_in + math.cos(phi) / q_e)
        p = rk.NotchParams(f_r=7.3e9, q_loaded=q_l, q_ext_mag=q_e,
                           mismatch_phi=phi, env_gain=gain, env_phase=alpha,
                           cable_delay=tau)
        grid = rk.linewidth_grid(p, span, points)
        z = rk.s21_at(p, grid) * np.exp(
            1j * (TWO_PI * grid * tau - alpha)) / gain
        circle = fit_circle(z)
        assert circle.rms < 1e-12
        assert circle.radius == pytest.approx(q_l / (2 * q_e), rel=1e-6)

    @given(q_l=st.floats(min_value=500, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_dip_deepens_with_q_loaded(self, q_l):
        q_e = 9e3
        if q_l >= q_e:
            return
        shallow = rk.NotchParams(f_r=7.3e9, q_loaded=q_l * 0.5, q_ext_mag=q_e)
        deep = rk.NotchParams(f_r=7.3e9, q_loaded=q_l, q_ext_mag=q_e)
        assert abs(rk.s21_at(deep, 7.3e9)) < abs(rk.s21_at(shallow, 7.3e9))

    def test_invariant_rejects_negative_internal_loss(self):
        with pytest.raises(DomainError):
            rk.NotchParams(f_r=7.3e9, q_loaded=9500.0, q_ext_mag=9000.0)

    def test_q_internal_property(self):
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
        assert p.q_internal == pytest.approx(4500.0, rel=1e-12)


class TestSynthesize:
    def test_zero_noise_is_exact_model(self):
        p = rk.NotchParams(**IDEAL)
        grid = rk.linewidth_grid(p, 10.0, 101)
        trace = rk.synthesize_trace(p, grid)
        assert np.array_equal(trace.s21, rk.s21_at(p, grid))

    def test_seed_determinism(self):
        p = rk.NotchParams(**IDEAL)
        grid = rk.linewidth_grid(p, 10.0, 101)
        a = rk.synthesize_trace(p, grid, noise_sigma=0.01, seed=123)
        b = rk.synthesize_trace(p, grid, noise_sigma=0.01, seed=123)
        assert np.array_equal(a.s21, b.s21)
        c = rk.synthesize_trace(p, grid, noise_sigma=0.01, seed=124)
        assert not np.array_equal(a.s21, c.s21)

    def test_empty_grid_rejected(self):
        p = rk.NotchParams(**IDEAL)
        with pytest.raises(DomainError):
            rk.synthesize_trace(p, np.array([]))

    def test_trace_ordering_enforced(self):
        with pytest.raises(DomainError):
            rk.Trace(freqs_hz=np.array([1e9, 1e9 + 1, 1e9]),
                     s21=np.ones(3, dtype=complex))

    @pytest.mark.parametrize("column, value", [("s21", np.nan),
                                               ("s21", complex(0, np.inf)),
                                               ("freqs_hz", np.nan),
                                               ("freqs_hz", np.inf)])
    def test_non_finite_point_rejected(self, column, value):
        data = {"freqs_hz": np.array([1e9, 2e9, 3e9, 4e9]),
                "s21": np.ones(4, dtype=complex)}
        data[column][2] = value
        with pytest.raises(DomainError, match="trace point 2 "):
            rk.Trace(**data)


class TestPhotonNumber:
    def test_reference_point(self):
        # Hand evaluation: 2 * 3000^2 * 1e-17
        #   / (9000 * hbar * (2 pi 7.3e9)^2) = 0.0901.
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
        n = rk.photons_from_power(p, 1e-17)
        hand = 2.0 * 3000.0 ** 2 * 1e-17 / (9000.0 * HBAR
                                            * (TWO_PI * 7.3e9) ** 2)
        assert n == pytest.approx(hand, rel=1e-12)
        assert n == pytest.approx(0.090, abs=5e-4)

    def test_zero_power(self):
        p = rk.NotchParams(**IDEAL)
        assert rk.photons_from_power(p, 0.0) == 0.0

    @given(power=st.floats(min_value=1e-20, max_value=1e-10))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_power(self, power):
        p = rk.NotchParams(**IDEAL)
        assert rk.photons_from_power(p, 2 * power) == pytest.approx(
            2 * rk.photons_from_power(p, power), rel=1e-12)

    def test_quadratic_in_q_loaded(self):
        base = rk.NotchParams(f_r=7.3e9, q_loaded=2000.0, q_ext_mag=1e8)
        doubled = rk.NotchParams(f_r=7.3e9, q_loaded=4000.0, q_ext_mag=1e8)
        ratio = rk.photons_from_power(doubled, 1e-15) \
            / rk.photons_from_power(base, 1e-15)
        assert ratio == pytest.approx(4.0, rel=1e-12)
