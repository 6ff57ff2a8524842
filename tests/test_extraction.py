import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import resokit as rk
from conftest import draw_notch_params
from resokit import extraction as ex
from resokit.constants import FF, NH, TWO_PI
from resokit.errors import (DegenerateGeometryError, DomainError,
                            FitInstabilityError, InsufficientDataError,
                            NonphysicalMismatchError, NonphysicalQinError,
                            RankDeficiencyError, ResokitError)
from resokit.notch import s21_jacobian, s21_model
from resokit.refdata import INDUCTANCE_GEOMETRIC, REFERENCE_RESONATORS


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
        # noise seeds. The 81-point and 31-point grids miss the 1 %
        # tolerance once; a 21-point grid misses three times.
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
        # The grid's closed form against the rotated arrays and the
        # fit_circle circle, at five delays around the true one.
        _, trace = notch_trace(noise=noise, seed=5, cable_delay=30e-9)
        f, z = trace.freqs_hz, trace.s21
        span = f[-1] - f[0]
        abs2 = np.abs(z) ** 2
        for offset in (-1.5, -0.7, 0.2, 0.9, 1.8):
            w = z * np.exp(1j * TWO_PI * f * (30e-9 + offset / span))
            crit = ex._taubin_criterion(
                z.size, abs2.sum(), (abs2 ** 2).sum(), np.array([w.sum()]),
                np.array([(w * w).sum()]), np.array([(abs2 * w).sum()]))[0]
            circle = ex.fit_circle(w)
            expected = np.mean((np.abs(w - circle.center) ** 2
                                - circle.radius ** 2) ** 2) \
                / (4.0 * circle.radius ** 2)
            assert crit == pytest.approx(expected, rel=1e-9)

    def test_moment_criterion_non_finite_is_inf(self):
        # A locus collapsed onto the origin has no centred spread.
        crit = ex._taubin_criterion(4, 0.0, 0.0, np.zeros(2, complex),
                                    np.zeros(2, complex), np.zeros(2, complex))
        assert np.all(crit == np.inf)

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
        # The resonance-free check is the only circle fit.
        assert len(calls) == 1

    @pytest.mark.parametrize("noise,seed", [(0.0, 0), (0.003, 3), (0.3, 8)])
    @pytest.mark.parametrize("points", [1001, 1000])
    def test_unwrap_matches_np_unwrap(self, noise, seed, points):
        # The raw phase winds with the delay, the phase about the circle
        # centre through the resonance; heavy noise adds random jumps.
        _, trace = notch_trace(noise=noise, seed=seed, span=40.0,
                               points=points, cable_delay=60e-9)
        f, z = trace.freqs_hz, trace.s21
        z1 = z * np.exp(1j * TWO_PI * f * 60e-9)
        center = ex.fit_circle(z1).center
        for theta in (np.angle(z), np.angle(z1 - center)):
            assert np.array_equal(ex._unwrap_from_mid(theta),
                                  oracles.unwrap_from_mid(theta))

    def test_unwrap_ties_match_np_unwrap(self):
        # Steps of exactly +-pi on both sides of the midpoint.
        theta = np.array([0.0, np.pi, 0.0, -np.pi, 0.0, 0.5, np.pi + 0.5,
                          0.5, -np.pi + 0.5, 3.0])
        assert np.array_equal(ex._unwrap_from_mid(theta),
                              oracles.unwrap_from_mid(theta))

    @pytest.mark.parametrize("noise", [0.003, 0.03])
    @pytest.mark.parametrize("shift", [0.0, 2.05])
    def test_grid_phasors_match_explicit_exp(self, noise, shift):
        # The grids rotate two exps into every phasor; the criterion at
        # all 31 + 9 points against phasors from one exp each. Centred
        # 2.05/span above the true delay, the first grid's best point is
        # its lower edge, so the zoom grid starts below the first grid.
        # The tolerance is relative to each grid's largest value: near
        # the minimum at low noise the criterion cancels, and there even
        # the explicit exps differ from long-double phasors by 7e-10
        # relative.
        _, trace = notch_trace(noise=noise, seed=5, cable_delay=30e-9)
        f, z = trace.freqs_hz, trace.s21
        tau0 = 30e-9 + shift / (f[-1] - f[0])
        grids = ex._delay_grids(f, z, tau0, np.exp(1j * TWO_PI * f * tau0))
        assert [taus.size for taus, _ in grids] == \
            [ex.DELAY_GRID_POINTS, 2 * ex.DELAY_ZOOM + 1]
        assert np.argmin(grids[0][1]) == (0 if shift else 15)
        abs2 = np.abs(z) ** 2
        for taus, crit in grids:
            w = z * np.exp(1j * TWO_PI * f * taus[:, None])
            expected = ex._taubin_criterion(
                z.size, abs2.sum(), (abs2 ** 2).sum(), w.sum(axis=1),
                (w * w).sum(axis=1), (abs2 * w).sum(axis=1))
            np.testing.assert_allclose(crit, expected, rtol=0.0,
                                       atol=1e-10 * expected.max())

    def test_phase_slope_matches_polyfit(self):
        _, trace = notch_trace(noise=0.003, seed=2, cable_delay=30e-9)
        f, z = trace.freqs_hz, trace.s21
        theta = ex._unwrap_from_mid(np.angle(z))
        expected = -np.polyfit(f, theta, 1)[0] / TWO_PI
        assert ex._phase_slope_delay(f, z) == pytest.approx(expected,
                                                            rel=1e-12)


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
        fit = ex.fit_phase(trace, 0j)
        assert abs(fit.f_r / 7.3e9 - 1.0) < 1e-9
        assert abs(fit.q_loaded / 3000.0 - 1.0) < 1e-9
        assert abs(fit.theta0 - 0.2) < 1e-9

    def test_on_resonance_value_is_theta0(self):
        fit = ex.fit_phase(self.phase_trace(), 0j)
        model_at_fr = fit.theta0 + 2 * math.atan(2 * fit.q_loaded
                                                 * (1 - fit.f_r / fit.f_r))
        assert model_at_fr == fit.theta0

    def test_slope_at_resonance(self):
        fit = ex.fit_phase(self.phase_trace(), 0j)
        df = 1.0
        model = lambda f: fit.theta0 + 2 * math.atan(
            2 * fit.q_loaded * (1 - f / fit.f_r))
        slope = (model(fit.f_r + df) - model(fit.f_r - df)) / (2 * df)
        assert slope == pytest.approx(-4 * fit.q_loaded / fit.f_r, rel=1e-6)

    def test_noisy_recovery(self):
        for seed in range(5):
            trace = self.phase_trace(noise=0.02, seed=seed)
            fit = ex.fit_phase(trace, 0j)
            assert abs(fit.f_r / 7.3e9 - 1.0) < 1e-6
            assert abs(fit.q_loaded / 3000.0 - 1.0) < 0.05

    def test_exact_jacobian_matches_numeric(self, monkeypatch):
        # The Jacobian fit_phase hands the solver, at 100 points and off
        # the optimum, against central differences with a f_r step well
        # below a linewidth.
        problems = []
        real = ex.fitting.nonlinear_ls

        def spy(problem, *args, **kwargs):
            problems.append(problem)
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(ex.fitting, "nonlinear_ls", spy)
        fit = ex.fit_phase(self.phase_trace(noise=0.02, points=100), 0j)
        problem = problems[0]
        p = np.array([fit.f_r * (1 + 2e-5), fit.q_loaded * 1.2,
                      fit.theta0 - 0.1])
        exact = problem.jacobian(p)
        numeric = ex.fitting.numeric_jacobian(problem.residual, p,
                                              scale=np.array([2e-2, 1, 1]))
        assert exact.shape == (100, 3)
        scale = np.max(np.abs(exact), axis=0)
        assert np.max(np.abs(numeric - exact) / scale) < 1e-5

    def test_windingless_data_rejected(self):
        rng = np.random.default_rng(1)
        f = np.linspace(7.0e9, 7.1e9, 200)
        z = 1.0 + 0.01 * (rng.standard_normal(200)
                          + 1j * rng.standard_normal(200))
        with pytest.raises(FitInstabilityError):
            ex.fit_phase(rk.Trace(f, z), complex(np.mean(z)))


class TestExtractQFactors:
    def canonical(self, q_l=3000.0, q_e=9000.0, phi=0.0):
        radius = q_l / (2 * q_e)
        center = 1.0 - radius * np.exp(1j * phi)
        circle = ex.CircleFit(center=center, radius=radius, rms=0.0)
        phase = ex.PhaseFit(f_r=7.3e9, q_loaded=q_l, theta0=phi + math.pi,
                            residual_norm=0.0)
        env = ex.EnvironmentParams(gain=1.0, phase=0.0, delay=0.0)
        return circle, phase, env

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

    def test_nonphysical_flagged(self):
        circle, phase, env = self.canonical(q_l=3000.0, q_e=2000.0)
        with pytest.raises(NonphysicalQinError):
            ex.extract_qfactors(circle, phase, env)

    def test_center_past_offresonant_point_is_fit_failure(self):
        # A normalised center beyond the off-resonant point 1 puts phi
        # outside (-pi/2, pi/2): a failed fit, not an input error.
        _, phase, env = self.canonical()
        circle = ex.CircleFit(center=1.2 + 0.1j, radius=0.5, rms=0.0)
        with pytest.raises(NonphysicalMismatchError):
            ex.extract_qfactors(circle, phase, env)


class TestFitNotch:
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

    def test_refine_rows_match_s21_jacobian(self, monkeypatch):
        # The refinement's residual and Jacobian, built from its cached
        # model terms and shape, against s21_model and a fresh
        # s21_jacobian with the chain rule through the band-centre phase
        # alpha_c = alpha - 2 pi f_mid tau, off the optimum.
        problems = []
        real = ex.fitting.nonlinear_ls

        def spy(problem, *args, **kwargs):
            problems.append(problem)
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(ex.fitting, "nonlinear_ls", spy)
        _, trace = notch_trace(noise=0.003, seed=4, cable_delay=30e-9,
                               mismatch_phi=0.2, env_gain=0.8, env_phase=1.0)
        ex.fit_notch(trace)
        problem = problems[-1]
        f, z = trace.freqs_hz, trace.s21
        f_mid = f[f.size // 2]

        def interleaved(c):
            out = np.empty((2 * c.shape[0],) + c.shape[1:])
            out[0::2], out[1::2] = c.real, c.imag
            return out

        for k in (1, 2):
            p = problem.initial_params * (1.0 + 1e-6 * k * np.arange(1, 8))
            args = (f, *p[:5], p[5] + TWO_PI * f_mid * p[6], p[6])
            j = s21_jacobian(*args)
            j[:, 6] += TWO_PI * f_mid * j[:, 5]
            # The solver differentiates where it last took the residual,
            # which fills the cache; the second point skips that.
            if k == 1:
                assert np.allclose(problem.residual(p),
                                   interleaved(s21_model(*args) - z),
                                   rtol=0.0, atol=1e-14)
            rows = problem.jacobian(p)
            scale = np.max(np.abs(rows), axis=0)
            assert np.max(np.abs(rows - interleaved(j)) / scale) < 1e-13

    def test_zero_delay_noiseless(self):
        # The refinement owns the delay: the grid seed is off by about
        # 3e-11 s here, the refined delay by about 5e-26 s.
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
        # 0.004/span apart, and the grid seed lands about 2.5e-4/span
        # off the true delay. The refinement brings it within 1e-4/span
        # (6.4e-6/span).
        p, trace, res = self.acceptance_fit(26)
        span = trace.freqs_hz[-1] - trace.freqs_hz[0]
        assert abs(res.params.cable_delay - p.cable_delay) * span < 1e-4

    # Low-noise traces with large circles from a wide-range probe: their
    # circle residual dips between the delay grid's points, and a delay
    # seed from the first grid alone breaks the circle or phase fit.
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

    def test_pure_baseline_rejected(self):
        rng = np.random.default_rng(8)
        f = np.linspace(7.0e9, 7.1e9, 500)
        z = 0.9 + 0.005 * (rng.standard_normal(500)
                           + 1j * rng.standard_normal(500))
        with pytest.raises(FitInstabilityError):
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

    def test_bootstrap_uncertainties_match_first_order(self):
        p, trace = notch_trace(noise=0.004, seed=21, points=601, span=6.0)
        first_order = rk.fit_notch(trace)
        bootstrap = rk.fit_notch(trace, mc_draws=12, mc_seed=7)
        # Same point estimate, resampled error bars of the same scale.
        assert bootstrap.params.f_r == first_order.params.f_r
        ratio = bootstrap.uncertainties["q_internal"] \
            / first_order.uncertainties["q_internal"]
        assert 0.3 < ratio < 3.0


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

    def test_duplicate_areas_rejected(self):
        with pytest.raises(DomainError):
            ex.AreaFrequencyDataset(rows=((30.0, 9e9), (30.0, 8e9)),
                                    inductance=0.3 * NH)


class TestCapacitanceVsArea:
    def synthetic_rows(self, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        slope = 22 * FF
        offsets = {"a": 50 * FF, "b": 80 * FF, "c": 120 * FF}
        rows = []
        for group, offset in offsets.items():
            for area in (100.0, 400.0, 900.0, 1600.0, 2500.0):
                cap = slope * area + offset
                if noise:
                    cap *= 1.0 + noise * rng.standard_normal()
                rows.append((area, cap, group))
        return rows, slope, offsets

    def test_noisy_shared_slope(self):
        # 1 percent multiplicative noise on picofarad-scale readings
        # swamps the femtofarad offsets; only the shared slope carries a
        # tight contract here.
        rows, slope, offsets = self.synthetic_rows(noise=0.01, seed=4)
        fit = ex.fit_capacitance_vs_area(rows)
        assert abs(fit.cap_per_area - slope) < 0.5 * FF
        for group in offsets:
            assert abs(fit.offsets[group]) < 1e-12

    def test_noiseless_exact(self):
        rows, slope, offsets = self.synthetic_rows()
        fit = ex.fit_capacitance_vs_area(rows)
        assert abs(fit.cap_per_area / slope - 1.0) < 1e-12
        for group, offset in offsets.items():
            assert abs(fit.offsets[group] / offset - 1.0) < 1e-10

    def test_zero_area_rows_pin_offsets(self):
        rows = [(0.0, 50 * FF, "a"), (100.0, 2250 * FF, "a"),
                (0.0, 80 * FF, "b"), (200.0, 4480 * FF, "b")]
        fit = ex.fit_capacitance_vs_area(rows)
        assert fit.offsets["a"] == pytest.approx(50 * FF, rel=1e-10)
        assert fit.offsets["b"] == pytest.approx(80 * FF, rel=1e-10)

    def test_constant_area_group_rejected(self):
        rows = [(100.0, 2.2e-12, "a"), (100.0, 2.3e-12, "a"),
                (50.0, 1.2e-12, "b"), (150.0, 3.4e-12, "b")]
        with pytest.raises(RankDeficiencyError):
            ex.fit_capacitance_vs_area(rows)
