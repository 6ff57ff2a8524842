import cmath
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import resokit as rk
from census import census, fingerprint, fit_or_error, wide_range_probe
from conftest import draw_notch_params, drop_exact_jacobians
from resokit import circuit
from resokit import extraction as ex
from resokit.constants import FF, NH, TWO_PI
from resokit.errors import (DegenerateGeometryError, DomainError,
                            FitInstabilityError, InsufficientDataError,
                            NonphysicalMismatchError, NonphysicalQinError,
                            RankDeficiencyError, ResokitError,
                            UnresolvedResonanceError)
from resokit.notch import s21_model
from resokit.refdata import INDUCTANCE_GEOMETRIC, REFERENCE_RESONATORS


def acceptance_stream():
    """The 200 traces of acceptance test 05, in order."""
    rng = np.random.default_rng(12345)
    for seed in range(200):
        p, _ = draw_notch_params(rng)
        yield rk.synthesize_trace(p, rk.linewidth_grid(p, 5.0, 4001),
                                  noise_sigma=0.003, seed=seed)


def notch_trace(noise=0.0, seed=0, span=10.0, points=1001, **overrides):
    base = dict(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
    base.update(overrides)
    p = rk.NotchParams(**base)
    return p, rk.synthesize_trace(p, rk.linewidth_grid(p, span, points),
                                  noise_sigma=noise, seed=seed)


@st.composite
def wide_range_traces(draw):
    """Notch traces over the wide-range probe's span: Q_in 1e2-3e6,
    |Q_e| 3e2-3e5, |phi| < 1.4, 8-3000 points over 0.1-100 linewidths
    with the window off centre by up to half its width, and noise from
    1e-5 to 0.5 of the gain."""
    def log_uniform(lo, hi):
        return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))

    q_in, q_e = log_uniform(1e2, 3e6), log_uniform(3e2, 3e5)
    phi = draw(st.floats(-1.4, 1.4))
    gain = draw(st.floats(0.5, 2.0))
    p = rk.NotchParams(f_r=draw(st.floats(5e9, 8e9)), q_ext_mag=q_e,
                       q_loaded=1.0 / (1.0 / q_in + math.cos(phi) / q_e),
                       mismatch_phi=phi, env_gain=gain,
                       env_phase=draw(st.floats(-math.pi, math.pi)),
                       cable_delay=draw(st.floats(0.0, 60e-9)))
    half = log_uniform(0.1, 100.0) * p.f_r / p.q_loaded / 2.0
    grid = np.linspace(p.f_r - half, p.f_r + half, draw(st.integers(8, 3000)))
    grid += 2.0 * draw(st.floats(-0.5, 0.5)) * half
    assume(grid[0] > 0.0)
    noise = gain * log_uniform(1e-5, 0.5)
    return rk.synthesize_trace(p, grid, noise_sigma=noise,
                               seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestFitCircle:
    def test_exact_circle(self):
        theta = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
        z = 0.5 + 0.25 * np.exp(1j * theta)
        fit = ex.fit_circle(z)
        assert abs(fit.center - 0.5) < 1e-12
        assert abs(fit.radius - 0.25) < 1e-12
        assert fit.rms < 1e-12

    def test_three_points_determined(self):
        center, radius = 1.0 - 2.0j, 3.0
        z = center + radius * np.exp(1j * np.array([0.1, 2.0, 4.0]))
        fit = ex.fit_circle(z)
        assert abs(fit.center - center) < 1e-10
        assert abs(fit.radius - radius) < 1e-10

    def test_radial_noise_monte_carlo(self):
        # 200 points, radial sigma 0.01: estimator stays within 5e-3 of
        # the generating circle for every seed.
        theta = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            radii = 0.25 + 0.01 * rng.standard_normal(200)
            z = 0.5 + radii * np.exp(1j * theta)
            fit = ex.fit_circle(z)
            assert abs(fit.center - 0.5) < 5e-3
            assert abs(fit.radius - 0.25) < 5e-3

    @pytest.mark.parametrize("arc", [2 * np.pi, 1.0, 0.2])
    def test_matches_svd_reference(self, arc):
        # The 3x3 moment-matrix eigenvector squares the conditioning of
        # the N x 3 SVD; on noisy arcs down to 0.2 rad both still agree
        # to near rounding.
        rng = np.random.default_rng(23)
        theta = np.linspace(0.0, arc, 4001)
        radii = 0.25 + 0.003 * rng.standard_normal(theta.size)
        z = 0.5 - 0.1j + radii * np.exp(1j * theta)
        fit = ex.fit_circle(z)
        center, radius = oracles.taubin_circle_svd(z)
        assert abs(fit.center - center) < 1e-12 * radius
        assert fit.radius == pytest.approx(radius, rel=1e-12)

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            ex.fit_circle(np.array([0 + 0j, 1 + 1j, 2 + 2j]))

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            ex.fit_circle(np.full(5, 0.3 + 0.4j))

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometryError):
            ex.fit_circle(np.array([0 + 0j, 1 + 0j]))

    @given(rot=st.floats(min_value=-np.pi, max_value=np.pi),
           dx=st.floats(min_value=-5, max_value=5),
           dy=st.floats(min_value=-5, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_rms_invariant_under_rotation_translation(self, rot, dx, dy):
        rng = np.random.default_rng(17)
        theta = np.linspace(0.0, 2 * np.pi, 120, endpoint=False)
        z = 0.4 + (0.3 + 0.005 * rng.standard_normal(120)) * np.exp(1j * theta)
        base = ex.fit_circle(z)
        moved = ex.fit_circle(z * np.exp(1j * rot) + complex(dx, dy))
        assert moved.rms == pytest.approx(base.rms, rel=1e-6, abs=1e-12)
        assert moved.radius == pytest.approx(base.radius, rel=1e-9)


class TestEstimateDelay:
    def test_resonance_free_50ns(self):
        f = np.linspace(7.0e9, 7.1e9, 1001)
        z = 0.9 * np.exp(1j * (0.3 - TWO_PI * f * 50e-9))
        tau = ex.estimate_delay(rk.Trace(f, z))
        assert abs(tau / 50e-9 - 1.0) < 0.01

    @pytest.mark.parametrize("gain, phase, delay, points", [
        (0.9, 0.3, 50e-9, 1001), (3e3, 0.7, 100e-9, 50),
        (3e3, -2.9, 100e-9, 1001), (1.0, 0.7, 1e-6, 1001),
        (1e-9, 0.0, 1e-6, 333), (3e3, 0.7, 1e-6, 4001),
        (1.0, 0.0, 0.0, 8), (0.9, 0.0, 0.0, 1001), (0.5, 0.9, 0.0, 1001)])
    def test_resonance_free_returns_slope_estimate(self, gain, phase, delay,
                                                   points):
        # Noiseless resonance-free traces and constant ones (delay 0):
        # the locus corrected by the summed wrapped phase steps is a
        # point, so fit_phase's system is singular at the grid's centre
        # and the search returns that estimate as it stands.
        f = np.linspace(7.0e9, 7.1e9, points)
        z = gain * np.exp(1j * (phase - TWO_PI * f * delay))
        keep = np.round(np.linspace(0, points - 1, min(points, 1000)))
        keep = keep.astype(np.intp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = ex.estimate_delay(rk.Trace(f, z))
        steps = np.angle(z[keep][1:] * z[keep][:-1].conj())
        assert tau == -steps.sum() / (TWO_PI * (f[-1] - f[0]))
        assert abs(tau - delay) * (f[-1] - f[0]) < 1e-9

    def test_resonance_free_noisy(self):
        rng = np.random.default_rng(3)
        f = np.linspace(7.0e9, 7.1e9, 1001)
        z = 0.9 * np.exp(1j * (0.3 - TWO_PI * f * 50e-9)) \
            + 0.003 * (rng.standard_normal(1001)
                       + 1j * rng.standard_normal(1001))
        tau = ex.estimate_delay(rk.Trace(f, z))
        assert abs(tau / 50e-9 - 1.0) < 0.01

    def test_resonance_free_noisy_over_seeds(self):
        # Statistical guard on the coarse grid: the trace above, over 100
        # noise seeds. The census, not this bound, tells grid sizes
        # apart.
        f = np.linspace(7.0e9, 7.1e9, 1001)
        clean = 0.9 * np.exp(1j * (0.3 - TWO_PI * f * 50e-9))
        misses = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            z = clean + 0.003 * (rng.standard_normal(1001)
                                 + 1j * rng.standard_normal(1001))
            tau = ex.estimate_delay(rk.Trace(f, z))
            misses += not abs(tau / 50e-9 - 1.0) < 0.01
        assert misses <= 2

    def test_notch_30ns_under_noise(self):
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9)
        tau = ex.estimate_delay(trace)
        assert abs(tau / 30e-9 - 1.0) < 0.02

    def test_notch_30ns_under_noise_thinned(self):
        # The same trace at 4,001 points: the search reads 1,000 of them.
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9,
                               points=4001)
        tau = ex.estimate_delay(trace)
        assert abs(tau / 30e-9 - 1.0) < 0.02

    @pytest.mark.parametrize("points", [4001, 10000, 1000])
    def test_search_reads_at_most_delay_points(self, monkeypatch, points):
        # Longer traces are thinned to DELAY_POINTS evenly spread samples
        # with both ends kept, so the span and the grid window stay put;
        # shorter ones are read whole. The search reads them scaled by a
        # power of two, exactly.
        seen = []
        real = ex._delay_grid

        def spy(freqs, z, *args):
            seen.append((freqs.copy(), z.copy()))
            return real(freqs, z, *args)

        monkeypatch.setattr(ex, "_delay_grid", spy)
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9,
                               points=points)
        ex.estimate_delay(trace)
        ((freqs, z),) = seen
        f = trace.freqs_hz
        assert freqs.size == min(points, ex.DELAY_POINTS)
        assert freqs[0] == f[0] and freqs[-1] == f[-1]
        kept = np.searchsorted(f, freqs)
        assert np.array_equal(f[kept], freqs)
        _, exponent = math.frexp(np.abs(z.view(float)).max()
                                 / np.abs(trace.s21[kept].view(float)).max())
        assert np.array_equal(
            np.ldexp(trace.s21[kept].view(float), exponent - 1), z.view(float))
        stride = (points - 1) / (freqs.size - 1)
        assert set(np.diff(kept)) <= {math.floor(stride), math.ceil(stride)}

    def test_correction_leaves_small_residual(self):
        p, trace = notch_trace(cable_delay=42e-9)
        tau = ex.estimate_delay(trace)
        assert abs(tau - 42e-9) < 0.01 * 42e-9

    def test_too_few_points(self):
        f = np.linspace(7.0e9, 7.1e9, 5)
        with pytest.raises(InsufficientDataError):
            ex.estimate_delay(rk.Trace(f, np.ones(5, dtype=complex)))

    @pytest.mark.parametrize("noise", [0.0, 0.003])
    def test_moment_criterion_matches_explicit_fit(self, noise):
        # The system's normal equations from moment sums against lstsq on
        # the rotated arrays, at five delays around the true one: the
        # residual that ranks the grid and the leftover delay. The pole
        # is held only near the true delay: 0.9/span off, noiseless,
        # 1 - 4 b' c' lies on the branch cut of the square root, where
        # the rounding of its imaginary part picks the root.
        _, trace = notch_trace(noise=noise, seed=5, cable_delay=30e-9)
        f, z = trace.freqs_hz, trace.s21
        span = f[-1] - f[0]
        for offset in (-1.5, -0.7, 0.2, 0.9, 1.8):
            tau = 30e-9 + offset / span
            residual, pole, leftover = ex._phase_system(f, z, np.array([tau]))
            expected = oracles.phase_system_fit(
                f, z * np.exp(1j * TWO_PI * f * tau))
            assert residual[0] == pytest.approx(expected[0], rel=1e-9)
            assert leftover[0] * span == pytest.approx(expected[2] * span,
                                                       rel=1e-9, abs=1e-12)
            if offset == 0.2:
                assert abs(pole[0] - expected[1]) < 1e-12 * abs(expected[1])

    def test_moment_criterion_non_finite_is_inf(self):
        # A locus collapsed onto the origin leaves a zero diagonal, an
        # infinite one sums that are not finite: no seed at any delay,
        # and no numpy warning.
        f = np.linspace(7.0e9, 7.1e9, 50)
        taus = np.array([0.0, 1e-9])
        for value in (0.0, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                residual, pole, leftover = ex._phase_system(
                    f, np.full(50, value, dtype=complex), taus)
            assert np.all(residual == np.inf)
            assert np.all(np.isnan(pole)) and np.all(np.isnan(leftover))

    def test_mixed_grid_refuses_only_the_straight_delay(self):
        # The locus alpha + beta x, delayed by tau_1, is straight at the
        # grid's first delay and curved at the 30 others: only row 0 is
        # singular, and the solved rows go back to their own places.
        f = np.linspace(7.0e9, 7.1e9, 201)
        offsets = f - f[f.size // 2]
        span = f[-1] - f[0]
        tau_1 = 30e-9
        z = (0.8 - 0.3j + (0.2 + 0.5j) * offsets / span) \
            * np.exp(-1j * TWO_PI * offsets * tau_1)
        taus = tau_1 + np.arange(ex.DELAY_GRID_POINTS) * (4.0 / 30.0) / span
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual, pole, leftover = ex._phase_system(f, z, taus)
        assert residual[0] == math.inf
        assert cmath.isnan(pole[0]) and math.isnan(leftover[0])
        assert np.all(np.isfinite(residual[1:]))
        assert np.all(np.isfinite(pole[1:]))
        assert np.all(np.isfinite(leftover[1:]))
        # Each solved row is the one-delay system at that row's locus.
        rotate = ex._delay_phasor(offsets, taus[1] - taus[0])
        for k in (1, 17, 30):
            one = ex._phase_system(
                f, z * rotate ** k, np.array([taus[0]]))
            assert residual[k] == pytest.approx(one[0][0], rel=1e-9)
            assert pole[k] == pytest.approx(one[1][0], rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_grid_row_matches_one_delay_call(self, seed):
        # Row 0 of a 31-delay call is the system a one-delay call at the
        # same delay solves: the batched rank test, solve and tail must
        # read each delay's own matrix. (Equal to the bit on an AVX-512
        # Xeon; the tolerance leaves room for SIMD tails elsewhere.)
        _, trace = notch_trace(noise=0.003, seed=seed, cable_delay=30e-9)
        f, z = trace.freqs_hz, trace.s21
        tau0 = 30e-9 + 0.4 / (f[-1] - f[0])
        taus, residual, pole, leftover = ex._delay_grid(f, z, tau0)
        one = ex._phase_system(f, z, taus[:1])
        for grid, single in zip((residual, pole, leftover), one):
            assert abs(grid[0] - single[0]) <= 1e-13 * abs(single[0])

    def test_noisy_notch_needs_few_circle_fits(self, monkeypatch):
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9)
        real = ex.fit_circle
        calls = []

        def counting(points):
            calls.append(1)
            return real(points)

        monkeypatch.setattr(ex, "fit_circle", counting)
        tau = ex.estimate_delay(trace)
        assert abs(tau / 30e-9 - 1.0) < 0.02
        # The resonance-free check reads the grid's centre point: the
        # search fits no circle.
        assert calls == []

    @pytest.mark.parametrize("noise,seed", [(0.0, 0), (0.003, 3), (0.3, 8)])
    @pytest.mark.parametrize("points", [1001, 1000])
    def test_unwrap_matches_np_unwrap(self, monkeypatch, noise, seed, points):
        # The grid is centred on the summed wrapped phase steps: the phase
        # change from end to end that np.unwrap gives, over -2 pi span.
        # The raw phase winds with the delay and through the resonance;
        # heavy noise adds random jumps.
        centres = []
        real = ex._delay_grid
        monkeypatch.setattr(ex, "_delay_grid", lambda f, z, tau0: (
            centres.append(tau0) or real(f, z, tau0)))
        _, trace = notch_trace(noise=noise, seed=seed, span=40.0,
                               points=points, cable_delay=60e-9)
        f, z = trace.freqs_hz, trace.s21
        ex.estimate_delay(trace)
        theta = np.unwrap(np.angle(z))
        expected = -(theta[-1] - theta[0]) / (TWO_PI * (f[-1] - f[0]))
        assert centres == [pytest.approx(expected, rel=1e-12)]

    @pytest.mark.parametrize("noise", [0.003, 0.03])
    @pytest.mark.parametrize("shift", [0.0, 2.05])
    def test_grid_phasors_match_explicit_exp(self, noise, shift):
        # The grid rotates two phasors into every point's; the residual
        # at all 31 points against lstsq on loci rotated by one exp each.
        # Centred 2.05/span above the true delay, the best point is the
        # grid's lower edge. The tolerance is relative to the grid's
        # largest value: near the minimum at low noise the residual
        # cancels.
        _, trace = notch_trace(noise=noise, seed=5, cable_delay=30e-9)
        f, z = trace.freqs_hz, trace.s21
        tau0 = 30e-9 + shift / (f[-1] - f[0])
        taus, residual, _, _ = ex._delay_grid(f, z, tau0)
        assert taus.size == ex.DELAY_GRID_POINTS
        assert np.argmin(residual) == (0 if shift else 15)
        expected = np.array([
            oracles.phase_system_fit(f, z * np.exp(1j * TWO_PI * f * tau))[0]
            for tau in taus])
        np.testing.assert_allclose(residual, expected, rtol=0.0,
                                   atol=1e-10 * expected.max())

    def test_seed_adds_the_best_points_leftover(self, monkeypatch):
        # The seed is the best grid point plus the delay its system leaves
        # over: here 1.4e-5/span off the true delay, where the best point
        # is 5.5e-3/span off and the points lie 0.13/span apart.
        seen = []
        real = ex._delay_grid
        monkeypatch.setattr(ex, "_delay_grid", lambda *args: (
            seen.append(real(*args)) or seen[-1]))
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9)
        tau = ex.estimate_delay(trace)
        ((taus, residual, _, leftover),) = seen
        best = np.argmin(residual)
        assert tau == taus[best] + leftover[best]
        assert abs(tau - 30e-9) < 0.01 * abs(taus[best] - 30e-9)


class TestDelayPhasor:
    @pytest.mark.parametrize("tau", [0.0, 1e-12, 3.7e-11, 1e-9, 2.9e-8,
                                     6e-8, 4.4e-7, 1e-6])
    def test_matches_cos_sin_of_same_phase(self, tau):
        # Up to pi tau span = 9.4e3 rad at the far end of the band.
        f = np.linspace(5e9, 8e9, 4001)
        offsets = f - f[f.size // 2]
        x = offsets * (TWO_PI * tau)
        phasor = ex._delay_phasor(offsets, tau)
        assert np.abs(phasor - (np.cos(x) + 1j * np.sin(x))).max() < 1e-15
        if tau == 0.0:
            assert np.all(phasor == 1.0)

    def test_finite_where_half_angle_meets_pole(self):
        # (f - f_mid) pi tau within an ulp of +-pi/2 and of +-3 pi/2,
        # where tan(x/2) reaches about 1e16.
        f = np.array([4e9, 5e9, 6e9, 7e9, 8e9])
        nearest = 0.0
        for target in (0.5e-9, 1.5e-9):
            tau = target
            for _ in range(4):
                tau = np.nextafter(tau, 0.0)
            for _ in range(8):
                half = (f - f[2]) * (math.pi * tau)
                nearest = max(nearest, np.abs(np.tan(half)).max())
                x = 2.0 * half
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    phasor = ex._delay_phasor(f - f[2], tau)
                assert np.all(np.isfinite(phasor))
                assert np.abs(phasor - (np.cos(x) + 1j * np.sin(x))).max() \
                    < 1e-15
                tau = np.nextafter(tau, 1.0)
        assert nearest > 1e15


class TestFitPhase:
    def phase_trace(self, f_r=7.3e9, q_l=3000.0, theta0=0.2, noise=0.0,
                    seed=0, points=1001):
        f = np.linspace(f_r * (1 - 10 / q_l), f_r * (1 + 10 / q_l), points)
        theta = theta0 + 2.0 * np.arctan(2.0 * q_l * (1.0 - f / f_r))
        if noise:
            rng = np.random.default_rng(seed)
            theta = theta + noise * rng.standard_normal(points)
        return rk.Trace(f, np.exp(1j * theta))

    def test_noiseless_exact(self):
        trace = self.phase_trace()
        fit = ex.fit_phase(trace, 0.0)
        assert abs(fit.f_r / 7.3e9 - 1.0) < 1e-9
        assert abs(fit.q_loaded / 3000.0 - 1.0) < 1e-9

    def test_slope_at_resonance(self):
        fit = ex.fit_phase(self.phase_trace(), 0.0)
        df = 1.0
        model = lambda f: 2 * math.atan(2 * fit.q_loaded * (1 - f / fit.f_r))
        slope = (model(fit.f_r + df) - model(fit.f_r - df)) / (2 * df)
        assert slope == pytest.approx(-4 * fit.q_loaded / fit.f_r, rel=1e-6)

    def test_noisy_recovery(self):
        for seed in range(5):
            trace = self.phase_trace(noise=0.02, seed=seed)
            fit = ex.fit_phase(trace, 0.0)
            assert abs(fit.f_r / 7.3e9 - 1.0) < 1e-6
            assert abs(fit.q_loaded / 3000.0 - 1.0) < 0.05

    @staticmethod
    def notch_locus(leftover=0.0):
        """A delay-corrected notch locus through a gain of 0.8 and a phase
        of 1.1 rad with phi = 0.3, left with a delay of leftover / span;
        its parameters and trace."""
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0,
                           mismatch_phi=0.3, env_gain=0.8, env_phase=1.1)
        f = rk.linewidth_grid(p, 10.0, 1001)
        x = (f - f[f.size // 2]) / (f[-1] - f[0])
        s = rk.s21_at(p, f) * np.exp(-1j * TWO_PI * leftover * x)
        return p, rk.Trace(f, s)

    def test_notch_locus_exact(self):
        # Without a leftover delay the closed-form seed is exact.
        p, trace = self.notch_locus()
        fit = ex.fit_phase(trace, 0.0)
        assert abs(fit.f_r / p.f_r - 1.0) < 1e-9
        assert abs(fit.q_loaded / p.q_loaded - 1.0) < 1e-9
        span = trace.freqs_hz[-1] - trace.freqs_hz[0]
        assert abs(fit.residual_delay) * span < 1e-12

    def test_applies_the_delay_it_is_given(self):
        # The locus above behind 30 ns of cable: fit_phase removes the
        # delay with the band-centred phasor, which leaves a constant
        # phase, so the seed is exact again and nothing is left over.
        p, trace = self.notch_locus()
        f = trace.freqs_hz
        delayed = rk.Trace(f, trace.s21 * np.exp(-1j * TWO_PI * f * 30e-9))
        fit = ex.fit_phase(delayed, 30e-9)
        assert abs(fit.f_r / p.f_r - 1.0) < 1e-9
        assert abs(fit.q_loaded / p.q_loaded - 1.0) < 1e-9
        assert abs(fit.residual_delay) * (f[-1] - f[0]) < 1e-9

    @pytest.mark.parametrize("leftover", [0.02, -0.02])
    def test_leftover_delay_recovered(self, leftover):
        # The locus above with a leftover delay of 0.02/span: the seed's
        # first-order delay column recovers it within 1 % (0.3 %), and
        # f_r and Q_l within 1.2e-6 and 2.2 %, where the pole of the
        # solve without that column, (x, 1, s) against s x, puts them
        # 6.7e-5 and 56-245 % off.
        p, trace = self.notch_locus(leftover)
        fit = ex.fit_phase(trace, 0.0)
        f = trace.freqs_hz
        span = f[-1] - f[0]
        assert fit.residual_delay * span == pytest.approx(leftover, rel=0.01)
        x = (f - f[f.size // 2]) / span
        s = trace.s21
        c = np.linalg.lstsq(np.column_stack([x, np.ones_like(x), s]), s * x,
                            rcond=None)[0][2]
        pole = f[f.size // 2] + span * c
        old_f_r, old_q_l = pole.real, pole.real / (2.0 * abs(pole.imag))
        assert abs(fit.f_r - p.f_r) < 0.05 * abs(old_f_r - p.f_r)
        assert abs(fit.q_loaded - p.q_loaded) \
            < 0.05 * abs(old_q_l - p.q_loaded)

    def test_no_solver_call(self, monkeypatch):
        calls = []
        real = ex.fitting.nonlinear_ls

        def spy(problem):
            calls.append(problem)
            return real(problem)

        monkeypatch.setattr(ex.fitting, "nonlinear_ls", spy)
        ex.fit_phase(self.phase_trace(noise=0.02, points=100), 0.0)
        assert calls == []

    def test_straight_locus_rejected(self):
        # A straight locus is no resonance: its columns (x, 1, s) are
        # dependent and the seed system singular.
        f = np.linspace(7.0e9, 7.1e9, 201)
        x = (f - f[100]) / (f[-1] - f[0])
        with pytest.raises(FitInstabilityError, match="singular"):
            ex.fit_phase(rk.Trace(f, x + 0.01j), 0.0)


class TestExtractQFactors:
    F_MID, DELAY = 7.3e9, 30e-9

    def canonical(self, q_l=3000.0, q_e=9000.0, phi=0.0, amp=1.0):
        """Arguments for the refined model rot [a - b / detune] whose
        off-resonant point a is amp e^(-2 pi i f_mid delay), so that the
        environment phase is arg(amp), and b = a (Q_l/|Q_e|) e^(i phi)."""
        a = amp * np.exp(-1j * TWO_PI * self.F_MID * self.DELAY)
        b = a * (q_l / q_e) * np.exp(1j * phi)
        return 7.3e9, q_l, self.DELAY, complex(a), complex(b), self.F_MID

    def test_table_row1_qin(self):
        params = ex.extract_qfactors(*self.canonical())
        assert params.q_internal == pytest.approx(4500.0, rel=1e-12)
        assert params.q_ext_mag == pytest.approx(9000.0, rel=1e-12)

    def test_decoupled_limit(self):
        params = ex.extract_qfactors(*self.canonical(q_e=9e8))
        assert params.q_internal == pytest.approx(3000.0, rel=1e-4)

    def test_mismatch_angle_recovered(self):
        params = ex.extract_qfactors(*self.canonical(phi=0.27))
        assert params.mismatch_phi == pytest.approx(0.27, abs=1e-12)

    def test_environment_frame_recovered(self):
        # The canonical frame seen through a gain of 0.8 and a phase of
        # 1.1 rad: the off-resonant point a gives the environment, and
        # b / a the coupling.
        params = ex.extract_qfactors(
            *self.canonical(phi=0.27, amp=0.8 * np.exp(1.1j)))
        assert params.env_gain == pytest.approx(0.8, rel=1e-12)
        assert params.env_phase == pytest.approx(1.1, abs=1e-9)
        assert params.mismatch_phi == pytest.approx(0.27, abs=1e-12)
        assert params.q_ext_mag == pytest.approx(9000.0, rel=1e-12)
        assert params.cable_delay == self.DELAY

    def test_mapping_reproduces_refined_model(self):
        f_r, q_l, delay, a, b, f_mid = self.canonical(
            q_e=4000.0, phi=-0.4, amp=1.3 * np.exp(-2.0j))
        params = ex.extract_qfactors(f_r, q_l, delay, a, b, f_mid)
        f = np.linspace(7.29e9, 7.31e9, 201)
        refined = np.exp(-1j * TWO_PI * (f - f_mid) * delay) \
            * (a - b / (1.0 + 2j * q_l * (f / f_r - 1.0)))
        assert np.abs(rk.s21_at(params, f) - refined).max() < 1e-9

    def test_nonphysical_flagged(self):
        with pytest.raises(NonphysicalQinError):
            ex.extract_qfactors(*self.canonical(q_l=3000.0, q_e=2000.0))

    @pytest.mark.parametrize("b", [0j, 1e-320 + 0j])
    def test_infinite_coupling_q_is_fit_failure(self, b):
        # A dip |b/a| of zero, or one that makes Q_l / |b/a| overflow,
        # leaves |Q_e| infinite: a failed fit, never a NotchParams that
        # refuses it as an input error.
        f_r, q_l, delay, a, _, f_mid = self.canonical()
        with pytest.raises(UnresolvedResonanceError,
                           match="^unresolved resonance: no finite"):
            ex.extract_qfactors(f_r, q_l, delay, a, b, f_mid)

    def test_center_past_offresonant_point_is_fit_failure(self):
        # b / a = -1/3 puts the circle center at 7/6 of the off-resonant
        # point, beyond it, so phi = pi: a failed fit, not an input error.
        with pytest.raises(NonphysicalMismatchError):
            ex.extract_qfactors(*self.canonical(phi=math.pi))


class TestFitNotch:
    def test_each_stage_is_called_once_through_its_module(self, monkeypatch):
        # The benchmark's tracer times fit_notch's stages by replacing
        # these module attributes. A fit that inlined a stage, or called
        # it past its module, would leave that stage's span empty.
        stages = ((ex, "estimate_delay"), (ex, "fit_phase"),
                  (ex, "_refine_notch"), (ex, "extract_qfactors"),
                  (ex.fitting, "nonlinear_ls"))
        calls = dict.fromkeys((name for _, name in stages), 0)
        for module, name in stages:
            def counting(*args, _real=getattr(module, name), _name=name,
                         **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9)
        assert ex.fit_notch(trace).converged
        assert calls == dict.fromkeys(calls, 1)

    def test_noiseless_fixed_point(self):
        p, trace = notch_trace(mismatch_phi=0.2, env_gain=0.8,
                               env_phase=1.1, cable_delay=40e-9)
        res = rk.fit_notch(trace)
        assert res.converged
        assert abs(res.params.f_r / p.f_r - 1.0) < 1e-9
        assert abs(res.params.q_loaded / p.q_loaded - 1.0) < 1e-9
        assert abs(res.params.q_ext_mag / p.q_ext_mag - 1.0) < 1e-9
        assert abs(res.q_internal / p.q_internal - 1.0) < 1e-9

    def test_roundtrip_under_noise(self, rng):
        hits = 0
        for seed in range(40):
            p, q_in = draw_notch_params(rng)
            trace = rk.synthesize_trace(p, rk.linewidth_grid(p, 5.0, 2001),
                                        noise_sigma=0.003, seed=seed)
            res = rk.fit_notch(trace)
            ok = (abs(res.params.f_r / p.f_r - 1.0) < 1e-6
                  and abs(res.q_internal / q_in - 1.0) < 0.05
                  and abs(res.params.q_loaded / p.q_loaded - 1.0) < 0.05
                  and abs(res.params.q_ext_mag / p.q_ext_mag - 1.0) < 0.05)
            hits += ok
        # Subsample of the full 200-seed acceptance gate; small-N
        # fluctuation gets one extra miss of slack.
        assert hits >= 36

    def test_consistency_identity_exact(self, rng):
        # 1/Q_in = 1/Q_l - cos(phi)/|Q_e| holds to machine precision
        # among the reported values, by construction.
        for seed in range(10):
            p, _ = draw_notch_params(rng)
            trace = rk.synthesize_trace(p, rk.linewidth_grid(p, 6.0, 801),
                                        noise_sigma=0.002, seed=seed)
            res = rk.fit_notch(trace)
            lhs = 1.0 / res.q_internal
            rhs = 1.0 / res.params.q_loaded \
                - math.cos(res.params.mismatch_phi) / res.params.q_ext_mag
            assert lhs == pytest.approx(rhs, rel=1e-14)

    @staticmethod
    def refine_problem(monkeypatch, trace):
        """The FitProblem that fit_notch hands the solver for trace."""
        problems = []
        real = ex.fitting.nonlinear_ls

        def spy(problem):
            problems.append(problem)
            return real(problem)

        monkeypatch.setattr(ex.fitting, "nonlinear_ls", spy)
        ex.fit_notch(trace)
        (problem,) = problems
        return problem

    def test_refine_solves_three_parameters(self, monkeypatch):
        # The solver runs on (f_r, Q_l, tau), seeded by the phase fit and
        # the delay search; the coupling quantities are mapped only after
        # it returns, so nothing seeds |Q_e|, phi, the gain or the phase.
        events = []
        real_map = ex.extract_qfactors

        def mapping(*args):
            events.append("map")
            return real_map(*args)

        monkeypatch.setattr(ex, "extract_qfactors", mapping)
        _, trace = notch_trace(noise=0.003, seed=4, cable_delay=30e-9,
                               mismatch_phi=0.2, env_gain=0.8, env_phase=1.0)
        problem = self.refine_problem(monkeypatch, trace)
        events.insert(0, "solve")
        tau = ex.estimate_delay(trace)
        seed = ex.fit_phase(trace, tau)
        assert problem.initial_params.tolist() == [
            seed.f_r, seed.q_loaded, tau + seed.residual_delay]
        assert len(problem.bounds) == 3
        assert events == ["solve", "map"]

    def test_refine_normal_equations_match_numeric_jacobian(
            self, monkeypatch):
        # The refine hands the solver J^T J and J^T r of Kaufman's
        # Jacobian, formed without J. Kaufman's Jacobian drops a term
        # that vanishes against the projected residual: at the seed J^T r
        # is still the exact gradient of |r|^2 / 2, and at a noiseless
        # optimum, where r = 0, J^T J is that of the residual's
        # derivative (at the seed it is 8e-5 off). The gradient agrees to
        # 4e-9 relative and the normal matrix to 3e-9 of its
        # Cauchy-Schwarz bound sqrt(N_jj N_kk).
        steps = [1e-2, 1.0, 1e-8]
        p, noisy = notch_trace(noise=0.003, seed=4, cable_delay=30e-9,
                               mismatch_phi=0.2, env_gain=0.8, env_phase=1.0)
        problem = self.refine_problem(monkeypatch, noisy)
        x = problem.initial_params
        numeric = rk.numeric_jacobian(problem.residual, x, steps)
        r = problem.residual(x).copy()
        _, gradient = problem.normal_equations(x, r)
        expected = numeric.T @ r
        assert np.all(np.abs(gradient - expected) <= 1e-7 * np.abs(expected))

        _, clean = notch_trace(cable_delay=30e-9, mismatch_phi=0.2,
                               env_gain=0.8, env_phase=1.0)
        problem = self.refine_problem(monkeypatch, clean)
        x = np.array([p.f_r, p.q_loaded, p.cable_delay])
        r = problem.residual(x).copy()
        assert np.abs(r).max() < 1e-12
        normal, _ = problem.normal_equations(x, r)
        numeric = rk.numeric_jacobian(problem.residual, x, steps)
        expected = numeric.T @ numeric
        bound = np.sqrt(np.outer(expected.diagonal(), expected.diagonal()))
        assert np.all(np.abs(normal - expected) <= 1e-7 * bound)

    def test_uncertainties_match_full_jacobian(self):
        # The reported errors are the first-order errors of the seven
        # parameter model at the optimum, here from the oracle gradient,
        # whose environment phase is not referenced to the band center.
        _, trace = notch_trace(noise=0.003, seed=4, cable_delay=30e-9,
                               mismatch_phi=0.2, env_gain=0.8, env_phase=1.0)
        res = rk.fit_notch(trace)
        fit = res.params
        rows = oracles.notch_s21_gradient(trace.freqs_hz,
                                          dataclasses.astuple(fit))
        norm = res.residual_rms * fit.env_gain * math.sqrt(len(trace))
        cov = ex.fitting.covariance(rows.T @ rows, rows.shape[0], norm)
        for k, name in enumerate(("f_r", "q_loaded", "q_ext_mag",
                                  "mismatch_phi")):
            assert res.uncertainties[name] == pytest.approx(
                math.sqrt(cov[k, k]), rel=1e-6)

    def test_refine_normal_matrix_matches_band_centred_columns(
            self, monkeypatch):
        # The refine forms the covariance's 7x7 normal matrix from the
        # Gram of the five vectors its columns share; here against the
        # product of the seven columns themselves, with the environment
        # phase referenced to the middle sample as in the refine. Entries
        # that vanish by symmetry (the gain against the phase, |Q_e|
        # against phi) are rounding on both sides, so each entry is held
        # to its Cauchy-Schwarz bound sqrt(N_jj N_kk). The refine reads
        # the samples scaled by 2^-k to [1/2, 1), and its gain column is
        # the one of ln g: the oracle's columns are scaled to match.
        normals = []
        real = ex.fitting.covariance

        def spy(normal, *args, **kwargs):
            normals.append(normal.copy())
            return real(normal, *args, **kwargs)

        monkeypatch.setattr(ex.fitting, "covariance", spy)
        _, trace, res = self.acceptance_fit(0)
        (normal,) = [m for m in normals if m.shape == (7, 7)]
        f, fit = trace.freqs_hz, res.params
        jac = oracles.notch_s21_gradient_band_centred(
            f, dataclasses.astuple(fit), f[f.size // 2])
        jac[:, 4] *= fit.env_gain
        _, exponent = math.frexp(np.abs(trace.s21.view(float)).max())
        jac = np.ldexp(jac, -exponent)
        expected = jac.T @ jac
        bound = np.sqrt(np.outer(expected.diagonal(), expected.diagonal()))
        assert np.all(np.abs(normal - expected) <= 1e-9 * bound)

    @pytest.mark.parametrize("theta", [1.3, -2.7])
    def test_phase_rotation_invariance(self, theta):
        # A constant phase factor on the data rotates every locus the fit
        # builds as a whole, which the band-centred delay phasors rely
        # on: the delay, the fitted resonance and their errors stay put,
        # and only the environment phase moves, by theta.
        _, trace, res = self.acceptance_fit(0)
        turned = rk.Trace(trace.freqs_hz, trace.s21 * np.exp(1j * theta))
        span = trace.freqs_hz[-1] - trace.freqs_hz[0]
        assert abs(ex.estimate_delay(turned)
                   - ex.estimate_delay(trace)) * span < 1e-9
        out = rk.fit_notch(turned)
        for name in ("f_r", "q_loaded", "q_ext_mag", "mismatch_phi"):
            assert getattr(out.params, name) == pytest.approx(
                getattr(res.params, name), rel=1e-9)
            assert out.uncertainties[name] == pytest.approx(
                res.uncertainties[name], rel=1e-9)
        shift = out.params.env_phase - res.params.env_phase - theta
        assert abs(math.remainder(shift, TWO_PI)) < 1e-9

    def test_zero_delay_noiseless(self):
        # The refinement owns the delay: the grid seed is off by about
        # 8e-14 s here, the refined delay by about 7e-26 s.
        _, trace = notch_trace()
        assert abs(rk.fit_notch(trace).params.cable_delay) < 1e-12

    @staticmethod
    def acceptance_fit(seed):
        """Trace `seed` of the acceptance-05 stream, its truth and fit,
        checked against the acceptance-05 tolerance."""
        rng = np.random.default_rng(12345)
        for _ in range(seed + 1):
            p, q_in = draw_notch_params(rng)
        trace = rk.synthesize_trace(p, rk.linewidth_grid(p, 5.0, 4001),
                                    noise_sigma=0.003, seed=seed)
        res = rk.fit_notch(trace)
        assert res.converged
        assert abs(res.params.f_r / p.f_r - 1.0) < 1e-6
        assert abs(res.q_internal / q_in - 1.0) < 0.05
        assert abs(res.params.q_loaded / p.q_loaded - 1.0) < 0.05
        assert abs(res.params.q_ext_mag / p.q_ext_mag - 1.0) < 0.05
        return p, trace, res

    @pytest.mark.parametrize("seed", [2, 46, 177])
    def test_acceptance_stream_stall_seeds_converge(self, seed):
        # Traces of the acceptance-05 stream whose phase fit (seed 2) or
        # refinement (46, 177) used to crawl to the iteration cap at the
        # right answer with inflated damping.
        self.acceptance_fit(seed)

    def test_acceptance_trace_26_refines_delay(self):
        # The circle rms of this trace has two noise-level minima
        # 0.004/span apart, and the delay seed lands about 8.3e-5/span
        # off the true delay. The refinement brings it within 1e-4/span
        # (6.4e-6/span).
        p, trace, res = self.acceptance_fit(26)
        span = trace.freqs_hz[-1] - trace.freqs_hz[0]
        assert abs(res.params.cable_delay - p.cable_delay) * span < 1e-4

    # Low-noise traces with large circles from a wide-range probe: their
    # circle residual dips between the delay grid's points. A delay seed
    # from the grid alone broke the circle or phase fit while fit_phase
    # checked the winding; they now converge from the grid's best point
    # plus its leftover delay.
    # (Q_in, |Q_e|, phi, f_r, gain, phase, delay, points, linewidths,
    # window offset in spans, noise, seed)
    @pytest.mark.parametrize("case", [
        (2.32e6, 2.831e4, -0.661, 6.8196e9, 1.146, -1.907, 9.17e-9,
         1158, 1.95, -0.061, 5.46e-4, 124),
        (1.506e5, 508.7, -1.003, 5.1305e9, 1.435, 2.621, 32.37e-9,
         317, 3.81, 0.308, 7.57e-5, 162),
        (3.631e4, 1.697e5, -1.1825, 6.9347e9, 1.186, -0.186, 2.30e-9,
         1837, 1.454, -0.214, 1.68e-3, 211),
        (8.49e4, 741.2, 0.0482, 6.1967e9, 1.951, -0.529, 33.07e-9,
         1179, 3.37, -0.484, 1.84e-4, 255),
    ], ids=lambda case: f"seed{case[-1]}")
    def test_residual_dip_between_delay_grid_points(self, case):
        q_in, q_e, phi, f_r, gain, phase, tau, n, lw, off, noise, seed = case
        q_l = 1.0 / (1.0 / q_in + math.cos(phi) / q_e)
        p = rk.NotchParams(f_r=f_r, q_loaded=q_l, q_ext_mag=q_e,
                           mismatch_phi=phi, env_gain=gain, env_phase=phase,
                           cable_delay=tau)
        half = lw * f_r / q_l / 2.0
        grid = np.linspace(f_r - half, f_r + half, n) + 2.0 * off * half
        res = rk.fit_notch(rk.synthesize_trace(p, grid, noise_sigma=noise,
                                               seed=seed))
        assert res.converged
        assert abs(res.params.f_r / f_r - 1.0) < 1e-6
        assert abs(res.q_internal / q_in - 1.0) < 0.05
        assert abs(res.params.q_loaded / q_l - 1.0) < 0.05
        assert abs(res.params.q_ext_mag / q_e - 1.0) < 0.05

    def test_wide_range_census(self):
        # The outcome of every class on the probe's first 200 traces, and
        # the pulls (fit - truth) / reported sigma. The counts pin what
        # fit_notch does today; a change that moves one must say which
        # way and why.
        # Moved by one no-resonance rule, the resolution tests on the
        # refined fit before the nonphysical checks, with no winding
        # check and no zoom grid (before: 121 converged, 45
        # FitInstabilityError, 18 UnresolvedResonanceError, 7
        # NonphysicalQinError, 9 NonphysicalMismatchError): 5, 8, 26, 51,
        # 83, 101, 105, 107, 124, 125, 155, 172, 184, 190, 192, 196
        # FitInstabilityError and 141 UnresolvedResonanceError ->
        # converged; 2, 15, 21, 27, 28, 39, 42, 44, 50, 57, 65, 67, 75,
        # 81, 85, 91, 98, 99, 108, 109, 121, 123, 138, 178, 182, 186, 199
        # FitInstabilityError, 55, 63, 148 NonphysicalQinError and 73,
        # 142, 146, 157, 198 NonphysicalMismatchError ->
        # UnresolvedResonanceError; 133 FitInstabilityError, 90
        # NonphysicalMismatchError and 56 converged ->
        # NonphysicalQinError; 40 FitInstabilityError ->
        # NonphysicalMismatchError.
        # Moved by one resolution rule, a relative error of at most 1/3
        # on Q_l and |Q_e|, in place of the grid-step, span and
        # circle-diameter tests (before: 137 converged, 52
        # UnresolvedResonanceError, 7 NonphysicalQinError, 4
        # NonphysicalMismatchError): 16, 21, 30, 39, 42, 44, 45, 57, 67,
        # 71, 72, 76, 97, 112, 138, 140, 152, 163, 178, 182
        # UnresolvedResonanceError -> converged; 26, 82, 132, 141, 155,
        # 158, 164, 172, 177, 193 converged, 40, 159, 170, 173
        # NonphysicalMismatchError and 86 NonphysicalQinError ->
        # UnresolvedResonanceError; 2, 55, 63 UnresolvedResonanceError ->
        # NonphysicalQinError. Every fit that converges under both rules
        # is bit-identical.
        # Moved by the delay search that ranks its grid by fit_phase's own
        # system and adds the best point's leftover delay, in place of
        # the Taubin criterion and the parabola vertex (before: 147
        # converged, 44 UnresolvedResonanceError, 9 NonphysicalQinError):
        # 2, 90, 92 NonphysicalQinError -> UnresolvedResonanceError; 55,
        # 56 NonphysicalQinError -> converged; 107, 190 converged ->
        # UnresolvedResonanceError. None of the seven is well-posed. The
        # fits that converge under both searches move by at most 4.4e-9
        # relative in f_r, 7.9e-6 in Q_l and |Q_e| and 3.4e-4 in Q_in.
        result = census(200)
        assert result.counts() == {"converged": 147,
                                   "UnresolvedResonanceError": 49,
                                   "NonphysicalQinError": 4}
        assert result.counts(well_posed_only=True) == {"converged": 27}
        # f_r, Q_l, |Q_e| and Q_in on the well-posed fits: calibrated.
        std = np.std(result.well_posed_pulls(), axis=0, ddof=1)
        assert np.all((std > 0.8) & (std < 1.2))
        assert std == pytest.approx([1.006, 1.120, 1.184, 0.956], abs=1e-3)
        # No converged fit has |pull| > 10 in f_r, Q_l, |Q_e| or 1/Q_in:
        # draws 47 and 157, which such a pull marked before any
        # resolution test, stay UnresolvedResonanceError.
        assert result.large_pulls() == []

    @staticmethod
    def probe_draw(index, seed=5):
        """Draw `index` of the wide-range probe, fitted: whether it is
        well-posed, the result, and its f_r, Q_l, |Q_e| and Q_in pulls
        (fit - truth) / reported sigma."""
        p, q_in, trace, well_posed = next(itertools.islice(
            wide_range_probe(index + 1, seed), index, None))
        res = rk.fit_notch(trace)
        err, fit = res.uncertainties, res.params
        pulls = [(fit.f_r - p.f_r) / err["f_r"],
                 (fit.q_loaded - p.q_loaded) / err["q_loaded"],
                 (fit.q_ext_mag - p.q_ext_mag) / err["q_ext_mag"],
                 (res.q_internal - q_in) / err["q_internal"]]
        return well_posed, res, pulls

    def test_wide_range_draw_278_converges(self):
        # A well-posed, strongly overcoupled probe trace (2,006 points
        # over 22 linewidths, Q_in/|Q_e| near 800, phi = -1.2) whose
        # seven-parameter refine, seeded from the circle geometry, ended
        # in NonphysicalQinError. The three-parameter refine needs no
        # |Q_e| or phi seed and converges near the truth.
        well_posed, res, pulls = self.probe_draw(278)
        assert well_posed
        assert res.converged
        assert np.all(np.abs(pulls) < 3.0)

    def test_wide_range_draw_83_converges(self):
        # Heavy noise (0.7 of the gain) on 2,764 points over 22
        # linewidths: the phase about the circle centre wanders by tens of
        # rad between the ends, and a winding check on the two end samples
        # refused the trace with FitInstabilityError. Without it the fit
        # converges near the truth.
        _, res, pulls = self.probe_draw(83)
        assert res.converged
        assert np.all(np.abs(pulls) < 5.0)

    @pytest.mark.parametrize("index", [14, 134, 732])
    def test_wide_range_seed6_draw_resolved_or_refused(self, index):
        # Seed-6 draws that converged with |Q_e| pulls of -141, -30 and
        # -132 under the grid-step, span and circle-diameter tests: their
        # Q_l or |Q_e| carries a relative error of 0.9 to 6, so the fit
        # does not resolve what it reports.
        try:
            _, _, pulls = self.probe_draw(index, seed=6)
        except UnresolvedResonanceError:
            return
        assert np.all(np.abs(pulls) < 10.0)

    @pytest.mark.parametrize("points", [500, 700, 1000, 2000])
    def test_wide_range_draw_203_refused_at_any_delay_sampling(
            self, monkeypatch, points):
        # 2,244 points over a quarter of a linewidth (Q_l 190): with the
        # delay search on 500, 700 or 2,000 samples the refine converged
        # to Q_l = 2,755 +- 1,261, and on 1,000 the fit was refused. The
        # relative error on Q_l reads 0.46 or more on all four.
        monkeypatch.setattr(ex, "DELAY_POINTS", points)
        with pytest.raises(UnresolvedResonanceError,
                           match="^unresolved resonance: relative error "):
            self.probe_draw(203)

    @pytest.mark.parametrize("index, grid_points",
                             [(75, 31), (85, 31), (524, 21), (669, 21)])
    def test_wide_range_singular_covariance_refused(self, monkeypatch, index,
                                                    grid_points):
        # The refine ends where the normal matrix is singular to rounding
        # and the inversion leaves the Q_l and |Q_e| variances negative.
        # fitting.covariance reads them as undetermined, infinite.
        # Clipped to zero they would read as exact fits: draw 75 would
        # end unconverged with Q_l and |Q_e| errors of 0, and draw 85,
        # and with a 21-point delay grid draws 524 and 669, would end as
        # NonphysicalQinError.
        monkeypatch.setattr(ex, "DELAY_GRID_POINTS", grid_points)
        with pytest.raises(UnresolvedResonanceError,
                           match="relative error inf on Q_l"):
            self.probe_draw(index)

    def test_singular_to_rounding_variances_read_infinite(self, monkeypatch):
        # Draw 75's seven-parameter normal matrix is singular to
        # rounding: its inverse has negative Q_l and |Q_e| variances.
        # fitting.covariance reads them, as it reads a zero Jacobian
        # column, as undetermined: infinite, with the rest of their rows
        # and columns zero. No variance comes out negative or NaN.
        calls = []
        covariance = ex.fitting.covariance
        monkeypatch.setattr(
            ex.fitting, "covariance",
            lambda *args: calls.append(args) or covariance(*args))
        with pytest.raises(UnresolvedResonanceError):
            self.probe_draw(75)
        (normal, *rest), = calls
        assert (np.linalg.inv(normal).diagonal()[1:3] < 0.0).all()
        cov = covariance(normal, *rest)
        assert (cov.diagonal() >= 0.0).all()
        assert (cov.diagonal()[1:3] == math.inf).all()
        off = ~np.eye(7, dtype=bool)
        assert (cov[1:3][off[1:3]] == 0.0).all()
        assert (cov[:, 1:3][off[:, 1:3]] == 0.0).all()

    @given(trace=wide_range_traces())
    @settings(max_examples=40, deadline=None)
    def test_wide_range_raises_only_resokit_errors(self, trace):
        # A fit ends in a result or a ResokitError: never a foreign
        # exception, and never a RuntimeWarning (raised here as an error).
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rk.fit_notch(trace)
            except ResokitError:
                pass

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e150, 1e200, 1e300])
    def test_extreme_scales_raise_only_resokit_errors(self, scale):
        # Unscaled, the sums of fit_phase's system would under- or
        # overflow on these traces. The delay search, the phase seed and
        # the fit each end in a result or a ResokitError.
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9)
        scaled = rk.Trace(trace.freqs_hz, scale * trace.s21)
        for fit in (ex.estimate_delay, lambda t: ex.fit_phase(t, 30e-9),
                    rk.fit_notch):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    fit(scaled)
                except ResokitError:
                    pass

    @given(octaves=st.floats(-996.0, 996.0),
           angle=st.floats(-math.pi, math.pi))
    @example(octaves=-996.0, angle=-math.pi)
    @example(octaves=996.0, angle=2.0)
    @example(octaves=-900.0, angle=0.0)
    @settings(max_examples=30, deadline=None)
    def test_fit_is_free_of_the_trace_amplitude(self, octaves, angle):
        # The model is linear in the complex gain: c e^(i a) times a
        # trace fits to the same f_r, Q's, errors and delay for any |c|
        # from 2^-996 to 2^996 (1e+-300), with the gain scaled by |c|,
        # the environment phase moved by a, and no warning. A real power
        # of two scales every sample exactly, and the fit is the same
        # bit for bit.
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9,
                               mismatch_phi=0.2, env_phase=1.0)
        factor = 2.0 ** octaves * cmath.exp(1j * angle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = rk.fit_notch(trace)
            out = rk.fit_notch(rk.Trace(trace.freqs_hz, factor * trace.s21))
        if octaves.is_integer() and angle == 0.0:
            gain = math.ldexp(base.params.env_gain, int(octaves))
            assert out.params == dataclasses.replace(base.params,
                                                     env_gain=gain)
            assert out.uncertainties == base.uncertainties
            assert out.residual_rms == base.residual_rms
        assert out.converged == base.converged
        for name in ("f_r", "q_loaded", "q_ext_mag", "mismatch_phi"):
            assert getattr(out.params, name) == pytest.approx(
                getattr(base.params, name), rel=1e-9)
        for name, error in base.uncertainties.items():
            assert out.uncertainties[name] == pytest.approx(error, rel=1e-9)
        assert out.q_internal == pytest.approx(base.q_internal, rel=1e-9)
        assert out.params.env_gain == pytest.approx(
            2.0 ** octaves * base.params.env_gain, rel=1e-9)
        shift = out.params.env_phase - base.params.env_phase - angle
        assert abs(math.remainder(shift, TWO_PI)) < 1e-9
        assert out.params.cable_delay == pytest.approx(
            base.params.cable_delay, rel=1e-9)

    @pytest.mark.parametrize("stream", ["wide-range", "acceptance-05"])
    def test_power_of_two_scaling_is_exact(self, stream):
        # 2^-600 times a trace fits to the same bits, with the gain
        # scaled by 2^-600, or ends in the same error: over the first
        # 200 wide-range draws of seed 5, or the 200 acceptance-05
        # traces.
        if stream == "wide-range":
            traces = (trace for _, _, trace, _ in wide_range_probe(200))
        else:
            traces = acceptance_stream()
        for trace in traces:
            small = rk.Trace(trace.freqs_hz, 2.0 ** -600 * trace.s21)
            try:
                base = rk.fit_notch(trace)
            except ResokitError as exc:
                with pytest.raises(type(exc)) as raised:
                    rk.fit_notch(small)
                assert type(raised.value) is type(exc)
                assert str(raised.value) == str(exc)
                continue
            out = rk.fit_notch(small)
            gain = math.ldexp(base.params.env_gain, -600)
            assert out.params == dataclasses.replace(base.params,
                                                     env_gain=gain)
            assert out.uncertainties == base.uncertainties
            assert out.residual_rms == base.residual_rms
            assert out.converged == base.converged

    @pytest.mark.parametrize("factor", [2.0 ** 700, 2.0 ** -700,
                                        1e200, 1e-200],
                             ids=["2^700", "2^-700", "1e200", "1e-200"])
    def test_seed_stages_are_free_of_the_trace_amplitude(self, factor):
        # The delay search and the phase seed read the samples scaled by
        # a power of two to [1/2, 1), so neither sums that under- or
        # overflow nor warns: on a power-of-two multiple of a trace they
        # give the same bits, on any other multiple the same values to
        # rounding.
        _, trace = notch_trace(noise=0.003, seed=7, cable_delay=30e-9)
        scaled = rk.Trace(trace.freqs_hz, factor * trace.s21)
        span = trace.freqs_hz[-1] - trace.freqs_hz[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau, out_tau = ex.estimate_delay(trace), ex.estimate_delay(scaled)
            seed, out = ex.fit_phase(trace, tau), ex.fit_phase(scaled, tau)
        if math.frexp(factor)[0] == 0.5:
            assert out_tau == tau
            assert out == seed
            return
        assert out_tau == pytest.approx(tau, rel=1e-12)
        assert out.f_r == pytest.approx(seed.f_r, rel=1e-12)
        assert out.q_loaded == pytest.approx(seed.q_loaded, rel=1e-12)
        assert out.residual_delay * span == pytest.approx(
            seed.residual_delay * span, abs=1e-12)

    def test_coarse_quiet_grid_fits(self):
        # 11 points over 10 linewidths, one grid step per linewidth, at
        # noise 1e-4: the trace resolves the fit, whose Q's carry a
        # relative error of 5e-4 and land within it.
        p, trace = notch_trace(noise=1e-4, span=5.0, points=11)
        res = rk.fit_notch(trace)
        assert res.converged
        err = res.uncertainties
        for key in ("q_loaded", "q_ext_mag"):
            fitted = getattr(res.params, key)
            assert err[key] < 1e-3 * fitted
            assert abs(fitted - getattr(p, key)) < 3.0 * err[key]

    def test_narrow_window_resolved_only_when_quiet(self):
        # A window of 0.16 linewidths: noiseless, the fit is exact; at
        # noise 0.003 the relative error on |Q_e| reads 1.0, and the fit
        # is refused.
        p, trace = notch_trace(span=0.08, points=501)
        res = rk.fit_notch(trace)
        assert res.converged
        assert res.params.f_r == pytest.approx(p.f_r, rel=1e-12)
        assert res.params.q_loaded == pytest.approx(p.q_loaded, rel=1e-9)
        assert res.params.q_ext_mag == pytest.approx(p.q_ext_mag, rel=1e-9)
        _, trace = notch_trace(noise=0.003, span=0.08, points=501)
        with pytest.raises(UnresolvedResonanceError,
                           match="^unresolved resonance: relative error "):
            rk.fit_notch(trace)

    def test_circle_under_noise_unresolved(self):
        # A circle of diameter 3e-3 under noise of 0.01 of the gain, 201
        # points over 20 linewidths: the relative error on Q_l reads 0.75.
        _, trace = notch_trace(noise=0.01, points=201, q_ext_mag=1e6)
        with pytest.raises(UnresolvedResonanceError,
                           match=r"^unresolved resonance: relative error "
                                 r"0\.7\d* on Q_l and "):
            rk.fit_notch(trace)

    def test_pure_baseline_rejected(self):
        rng = np.random.default_rng(8)
        f = np.linspace(7.0e9, 7.1e9, 500)
        z = 0.9 + 0.005 * (rng.standard_normal(500)
                           + 1j * rng.standard_normal(500))
        with pytest.raises(UnresolvedResonanceError,
                           match="^unresolved resonance: "):
            rk.fit_notch(rk.Trace(f, z))

    def test_noise_only_locus_unresolved(self):
        # Noise about a point: the phase seed fits a pole to the noise,
        # and the refined fit's Q's carry relative errors the trace does
        # not resolve, which are read before the nonphysical checks.
        rng = np.random.default_rng(1)
        f = np.linspace(7.0e9, 7.1e9, 200)
        z = 1.0 + 0.01 * (rng.standard_normal(200)
                          + 1j * rng.standard_normal(200))
        with pytest.raises(UnresolvedResonanceError,
                           match="^unresolved resonance: "):
            rk.fit_notch(rk.Trace(f, z))

    def test_too_few_points(self):
        f = np.linspace(7.0e9, 7.1e9, 6)
        with pytest.raises(InsufficientDataError):
            rk.fit_notch(rk.Trace(f, np.ones(6, dtype=complex)))

    def test_uncertainties_cover_truth(self, rng):
        p, q_in = draw_notch_params(rng)
        trace = rk.synthesize_trace(p, rk.linewidth_grid(p, 5.0, 2001),
                                    noise_sigma=0.003, seed=99)
        res = rk.fit_notch(trace)
        err = res.uncertainties
        assert abs(res.params.f_r - p.f_r) < 5 * err["f_r"] + 1e-3
        assert abs(res.q_internal - q_in) < 5 * err["q_internal"] + 1e-6


class TestWorkspace:
    """The notch fit keeps its work arrays per thread between fits."""

    def test_steady_state_fits_fault_in_no_pages(self):
        # Temporaries allocated and freed in every fit go back to the
        # kernel at its end, and the next fit faults them in again: about
        # 150 minor faults a 4,001-point fit. Kept between fits, they
        # fault in only once. Counted in a fresh interpreter that makes
        # the first acceptance-05 trace itself: in a process that has
        # freed a large buffer, such as a file read or an earlier test's
        # array, glibc trims its heap less and the faults do not show.
        pytest.importorskip("resource")
        p, _ = draw_notch_params(np.random.default_rng(12345))
        fields = {k: float(v) for k, v in dataclasses.asdict(p).items()}
        code = (
            "import resource\n"
            "import resokit as rk\n"
            f"p = rk.NotchParams(**{fields!r})\n"
            "trace = rk.synthesize_trace(p, rk.linewidth_grid(p, 5.0, 4001),\n"
            "                            noise_sigma=0.003, seed=0)\n"
            "for _ in range(2):\n"
            "    rk.fit_notch(trace)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    rk.fit_notch(trace)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - before)\n")
        src = os.path.dirname(os.path.dirname(rk.__file__))
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        assert int(proc.stdout) < 20

    def test_fits_of_other_lengths_and_threads_move_no_bit(self):
        # Each length has its own arrays, and a thread keeps the delay
        # search's length and the last one it fitted.
        long = next(acceptance_stream())
        _, short = notch_trace(noise=0.003, seed=4, cable_delay=30e-9)
        first = fingerprint(fit_or_error(long))
        fit_or_error(short)
        assert fingerprint(fit_or_error(long)) == first
        assert set(ex._WORKSPACES.by_size) == {ex.DELAY_POINTS, len(long)}
        fresh = []
        thread = threading.Thread(
            target=lambda: fresh.append(fingerprint(fit_or_error(long))))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert fresh == [first]

    def test_concurrent_threads_fit_as_one(self):
        # Two threads fit 20 acceptance-05 traces each, at once; numpy
        # releases the interpreter lock in its loops, and a short switch
        # interval interleaves the rest.
        traces = list(itertools.islice(acceptance_stream(), 40))
        expected = [fingerprint(fit_or_error(t)) for t in traces]
        results = [None, None]

        def fit_half(k):
            results[k] = [fingerprint(fit_or_error(t))
                          for t in traces[20 * k:20 * (k + 1)]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fit_half, args=(k,))
                       for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] + results[1] == expected

    def test_captured_problem_survives_another_fit(self, monkeypatch):
        # The refine's residual and normal equations read the workspace
        # only while their own fit was the last to write it: after a fit
        # of the same length, a captured problem recomputes its point.
        _, trace = notch_trace(noise=0.003, seed=4, cable_delay=30e-9,
                               mismatch_phi=0.2, env_gain=0.8, env_phase=1.0)
        _, other = notch_trace(noise=0.01, seed=9, cable_delay=20e-9,
                               mismatch_phi=-0.3, q_loaded=2000.0)
        problem = TestFitNotch.refine_problem(monkeypatch, trace)
        x = problem.initial_params
        r = problem.residual(x).copy()
        normal, gradient = problem.normal_equations(x, r)
        ex.fit_notch(other)
        assert np.array_equal(problem.residual(x), r)
        again = problem.normal_equations(x, r)
        assert np.array_equal(again[0], normal)
        assert np.array_equal(again[1], gradient)


class TestFrequencyVsArea:
    def reference_dataset(self):
        rows = tuple((r.area_um2, r.freq_hz) for r in REFERENCE_RESONATORS)
        return ex.AreaFrequencyDataset(rows=rows,
                                       inductance=INDUCTANCE_GEOMETRIC)

    def test_reference_chip_constants(self):
        fit = ex.fit_frequency_vs_area(self.reference_dataset())
        assert 13.5 * FF < fit.cap_per_area < 14.2 * FF
        assert 25 * FF < fit.cap_to_ground < 42 * FF
        assert fit.converged

    def test_reference_chip_uncertainties(self):
        fit = ex.fit_frequency_vs_area(self.reference_dataset())
        assert 0.05 * FF < fit.cap_per_area_err < 0.5 * FF
        assert 2 * FF < fit.cap_to_ground_err < 12 * FF

    def test_covariance_from_jacobian_at_fit(self):
        # The errors are fitting.covariance's: the inverse normal matrix
        # of the frequency-area gradient at the fitted constants, scaled
        # by the reduced chi-square.
        ds = self.reference_dataset()
        fit = ex.fit_frequency_vs_area(ds)
        areas = np.array([s for s, _ in ds.rows])
        jac = oracles.freq_vs_area_gradient(areas, ds.inductance,
                                            fit.cap_per_area, fit.cap_to_ground)
        expected = np.linalg.inv(jac.T @ jac) \
            * fit.residual_norm ** 2 / (areas.size - 2)
        assert np.allclose(fit.covariance, expected, rtol=1e-9, atol=0.0)
        assert fit.cap_per_area_err == math.sqrt(fit.covariance[0, 0])
        assert fit.cap_to_ground_err == math.sqrt(fit.covariance[1, 1])

    def test_exact_recovery(self):
        c_t, cg_t, ind = 15 * FF, 40 * FF, 0.3 * NH
        rows = tuple(
            (s, 1.0 / (TWO_PI * math.sqrt(ind * (cg_t + c_t * s))))
            for s in (30.0, 60.0, 90.0, 120.0))
        fit = ex.fit_frequency_vs_area(
            ex.AreaFrequencyDataset(rows=rows, inductance=ind))
        assert abs(fit.cap_per_area / c_t - 1.0) < 1e-10
        assert abs(fit.cap_to_ground / cg_t - 1.0) < 1e-10

    def test_two_rows_match_closed_form(self):
        # Hand elimination: y_i = 1/(4 pi^2 f_i^2 L) = C_g + c S_i,
        # c = (y1 - y2)/(S1 - S2), C_g = y1 - c S1.
        ind = 0.3 * NH
        rows = ((40.0, 9.1e9), (110.0, 7.2e9))
        fit = ex.fit_frequency_vs_area(
            ex.AreaFrequencyDataset(rows=rows, inductance=ind))
        y = [1.0 / ((TWO_PI * f) ** 2 * ind) for _, f in rows]
        c_hand = (y[0] - y[1]) / (rows[0][0] - rows[1][0])
        cg_hand = y[0] - c_hand * rows[0][0]
        assert abs(fit.cap_per_area / c_hand - 1.0) < 1e-9
        assert abs(fit.cap_to_ground / cg_hand - 1.0) < 1e-9

    def test_row_order_invariance(self):
        fit_a = ex.fit_frequency_vs_area(self.reference_dataset())
        rows = tuple((r.area_um2, r.freq_hz)
                     for r in reversed(REFERENCE_RESONATORS))
        fit_b = ex.fit_frequency_vs_area(
            ex.AreaFrequencyDataset(rows=rows, inductance=INDUCTANCE_GEOMETRIC))
        assert fit_a.cap_per_area == pytest.approx(fit_b.cap_per_area,
                                                   rel=1e-10)
        assert fit_a.cap_to_ground == pytest.approx(fit_b.cap_to_ground,
                                                    rel=1e-10)

    def test_matches_numeric_derivative_solve(self, monkeypatch):
        exact = ex.fit_frequency_vs_area(self.reference_dataset())
        drop_exact_jacobians(monkeypatch)
        numeric = ex.fit_frequency_vs_area(self.reference_dataset())
        for name in ("cap_per_area", "cap_to_ground", "cap_per_area_err",
                     "cap_to_ground_err"):
            assert getattr(exact, name) == pytest.approx(
                getattr(numeric, name), rel=1e-7)

    def test_start_point_moves_no_fit(self, monkeypatch):
        # The linearised start is circuit.lc_capacitance, the inverse that
        # area_for_frequency uses. The textbook 1/(4 pi^2 L_eff f^2), in
        # another operand order, differs from it in the last bits; the
        # fits from the two starts agree within the solver's step
        # tolerance.
        rng = np.random.default_rng(1)
        sets = [ex.AreaFrequencyDataset(
            rows=tuple((r.area_um2,
                        r.freq_hz * (1.0 + 1e-3 * rng.standard_normal()))
                       for r in REFERENCE_RESONATORS),
            inductance=INDUCTANCE_GEOMETRIC, kinetic_fraction=k)
            for k in (0.0, 0.2) for _ in range(20)]
        fits = [ex.fit_frequency_vs_area(ds) for ds in sets]

        def textbook(freq, inductance, kinetic_fraction):
            l_eff = circuit.effective_inductance(inductance, kinetic_fraction)
            return 1.0 / freq ** 2 / (TWO_PI ** 2 * l_eff)

        monkeypatch.setattr(ex, "lc_capacitance", textbook)
        for ds, fit in zip(sets, fits):
            textbook = ex.fit_frequency_vs_area(ds)
            for name in ("cap_per_area", "cap_to_ground", "cap_per_area_err",
                         "cap_to_ground_err"):
                assert getattr(fit, name) == pytest.approx(
                    getattr(textbook, name), rel=ex.fitting.STEP_RTOL)

    def test_two_rows_have_infinite_errors(self):
        # Two rows fix both constants exactly: no degree of freedom is
        # left to scale the errors by, so both read inf, not 0.
        ds = ex.AreaFrequencyDataset(rows=((100.0, 7.3e9), (50.0, 9.1e9)),
                                     inductance=INDUCTANCE_GEOMETRIC)
        fit = ex.fit_frequency_vs_area(ds)
        assert fit.converged
        assert fit.cap_per_area_err == math.inf
        assert fit.cap_to_ground_err == math.inf
        assert np.array_equal(fit.covariance, np.diag([math.inf, math.inf]))

    def test_duplicate_areas_rejected(self):
        with pytest.raises(DomainError):
            ex.AreaFrequencyDataset(rows=((30.0, 9e9), (30.0, 8e9)),
                                    inductance=0.3 * NH)

    @pytest.mark.parametrize("rows, inductance, message", [
        (((100.0, 7.3e9), (120.0, math.inf)), 0.3 * NH,
         "areas and frequencies must be positive and finite"),
        (((100.0, 7.3e9), (math.inf, 7.1e9)), 0.3 * NH,
         "areas and frequencies must be positive and finite"),
        (((100.0, 7.3e9), (120.0, 7.1e9)), math.inf,
         "inductance must be positive and finite"),
    ], ids=["inf_frequency", "inf_area", "inf_inductance"])
    def test_non_finite_values_rejected(self, rows, inductance, message):
        # An inf frequency used to end in a fit failure, an inf
        # inductance in a converged fit with infinite errors.
        with pytest.raises(DomainError) as err:
            ex.AreaFrequencyDataset(rows=rows, inductance=inductance)
        assert str(err.value) == message

    @pytest.mark.parametrize("k", [-2.0, -1e-9, 1.0, 5.0])
    def test_kinetic_fraction_outside_unit_interval_rejected(self, k):
        # As ResonatorDesign: k = -2 used to end in a numpy warning and a
        # ModelEvaluationError, k = 5 in a fit.
        with pytest.raises(DomainError, match=r"kinetic fraction must lie "
                                              r"in \[0, 1\)"):
            dataclasses.replace(self.reference_dataset(), kinetic_fraction=k)

    def test_design_agrees_with_fit_model(self):
        # A design built from the fit's constants predicts, bit for bit,
        # the frequency the fit's residual compares with the data.
        ds = dataclasses.replace(self.reference_dataset(),
                                 kinetic_fraction=0.06)
        fit = ex.fit_frequency_vs_area(ds)
        areas = np.array([s for s, _ in ds.rows])
        freqs = np.array([f for _, f in ds.rows])
        model = circuit.lc_frequency(areas, ds.inductance, fit.cap_per_area,
                                     fit.cap_to_ground, ds.kinetic_fraction)
        resid = model - freqs
        assert math.sqrt(resid @ resid) == fit.residual_norm
        for area, f in zip(areas, model):
            design = rk.ResonatorDesign(
                inductance_geometric=ds.inductance, cap_area=float(area),
                cap_per_area=fit.cap_per_area,
                cap_to_ground=fit.cap_to_ground, kinetic_fraction=0.06)
            assert circuit.resonance_frequency(design) == f
