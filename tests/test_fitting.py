import math

import numpy as np
import pytest

import oracles
from resokit import fitting, notch
from resokit.circuit import ResonatorDesign, resonance_frequency
from resokit.constants import TWO_PI
from resokit.errors import ModelEvaluationError, RankDeficiencyError


def line(x):
    """Design matrix of an intercept and a slope."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([np.ones_like(x), x])


class TestLinearWls:
    def test_exact_line(self):
        x = np.arange(10.0)
        res = fitting.linear_wls(line(x), 2.0 * x + 1.0)
        assert abs(res.params[1] - 2.0) < 1e-12
        assert abs(res.params[0] - 1.0) < 1e-12
        assert res.converged

    def test_two_points_suffice(self):
        res = fitting.linear_wls(line([0.0, 1.0]), [1.0, 3.0])
        assert np.allclose(res.params, [1.0, 2.0], atol=1e-12)

    def test_stderr_matches_monte_carlo(self):
        # With sigma given, cov = (X^T W X)^-1: the reported standard
        # error must match the scatter of repeated fits and scale as
        # sigma/sqrt(N).
        rng = np.random.default_rng(11)
        sigma, n = 0.1, 50
        x = np.linspace(0.0, 1.0, n)
        slopes = []
        for _ in range(500):
            y = 2.0 * x + 1.0 + sigma * rng.standard_normal(n)
            res = fitting.linear_wls(line(x), y, sigma=np.full(n, sigma))
            slopes.append(res.params[1])
        reported = res.stderr[1]
        empirical = np.std(slopes)
        assert abs(empirical / reported - 1.0) < 0.1

    def test_stderr_scales_inverse_sqrt_n(self):
        sigma = 0.2
        errs = []
        for n in (50, 200):
            x = np.linspace(0.0, 1.0, n)
            res = fitting.linear_wls(line(x), 2.0 * x,
                                     sigma=np.full(n, sigma))
            errs.append(res.stderr[1])
        assert abs(errs[0] / errs[1] - 2.0) < 0.2

    def test_duplicate_x_rank_deficient(self):
        x = np.full(6, 3.0)
        with pytest.raises(RankDeficiencyError):
            fitting.linear_wls(line(x), 2.0 * x)

    def test_fewer_points_than_params(self):
        with pytest.raises(RankDeficiencyError):
            fitting.linear_wls(line([1.0]), [2.0])


class TestNonlinearLs:
    def test_linear_problem_matches_wls(self):
        x = np.arange(10.0)
        y = 2.0 * x + 1.0
        wls = fitting.linear_wls(line(x), y)

        problem = fitting.FitProblem(
            residual=lambda p: (p[0] + p[1] * x) - y,
            initial_params=np.array([0.0, 0.0]))
        res = fitting.nonlinear_ls(problem)
        assert res.converged
        assert np.allclose(res.params, wls.params, rtol=1e-9, atol=1e-9)
        # Exactly solvable: the answer is reached within the first two
        # accepted steps, the rest is termination detection.
        assert res.residual_trace[2] < 1e-5 * res.residual_trace[0]
        assert res.iterations <= 6

    def test_exponential_decay_recovery(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 2.0, 200)
        y = 3.0 * np.exp(-x / 0.7) * (1.0 + 0.01 * rng.standard_normal(200))
        problem = fitting.FitProblem(
            residual=lambda p: p[0] * np.exp(-x / p[1]) - y,
            initial_params=np.array([1.0, 1.0]),
            bounds=[(1e-6, math.inf), (1e-6, math.inf)])
        res = fitting.nonlinear_ls(problem)
        assert res.converged
        assert abs(res.params[0] / 3.0 - 1.0) < 0.03
        assert abs(res.params[1] / 0.7 - 1.0) < 0.03

    def test_plateau_zero_gradient_is_stationary(self):
        problem = fitting.FitProblem(
            residual=lambda p: np.array([1.0, -1.0, 2.0]),
            initial_params=np.array([0.5, 0.5]))
        res = fitting.nonlinear_ls(problem)
        assert res.converged
        assert res.status == "stationary_point"
        assert res.iterations == 0

    def test_non_finite_residual_raises(self):
        problem = fitting.FitProblem(
            residual=lambda p: np.array([np.nan]),
            initial_params=np.array([1.0]))
        with pytest.raises(ModelEvaluationError):
            fitting.nonlinear_ls(problem)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(9)
        x = np.linspace(0.0, 2.0, 50)
        y = 3.0 * np.exp(-x / 0.7) + 0.01 * rng.standard_normal(50)
        problem = fitting.FitProblem(
            residual=lambda p: p[0] * np.exp(-x / p[1]) - y,
            initial_params=np.array([0.1, 5.0]))
        res = fitting.nonlinear_ls(problem,
                                   fitting.Tolerances(max_iterations=1))
        assert not res.converged
        assert res.status == "max_iterations"

    def test_no_progress_stops_at_any_damping(self):
        # A residual known only to single precision: at the minimum the
        # numeric Jacobian is rounding noise, so Gauss-Newton steps are
        # rejected, damping inflates, and the accepted steps no longer
        # lower the residual. STALL_STEPS of them end the run.
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 2.0, 200)
        y = 3.0 * np.exp(-x / 0.7) + 0.05 * rng.standard_normal(200)

        def resid(p):
            r = p[0] * np.exp(-x / p[1]) - y
            return r.astype(np.float32).astype(float)

        problem = fitting.FitProblem(
            residual=resid, initial_params=np.array([1.0, 1.0]),
            bounds=[(1e-6, math.inf), (1e-6, math.inf)])
        res = fitting.nonlinear_ls(problem)
        assert res.converged
        assert res.status == "converged"
        assert res.iterations < fitting.MAX_ITERATIONS // 4
        last = np.array(res.residual_trace[-fitting.STALL_STEPS - 1:])
        rel = -np.diff(last) / last[:-1]
        assert np.all(rel < fitting.RESIDUAL_RTOL)
        exact = fitting.nonlinear_ls(fitting.FitProblem(
            residual=lambda p: p[0] * np.exp(-x / p[1]) - y,
            initial_params=np.array([1.0, 1.0]),
            bounds=[(1e-6, math.inf), (1e-6, math.inf)]))
        assert np.allclose(res.params, exact.params, rtol=1e-4)

    def test_floor_steps_stop_at_any_damping(self):
        # A noiseless notch in the centred-phase parameterization of the
        # notch refinement, started 1e-7 off its truth. With the exact
        # Jacobian the residual reaches rounding level and the accepted
        # steps then move the parameters by 1e-16 to 1e-15 relative
        # without lowering the residual reliably. Without the STEP_FLOOR
        # stop this runs to the iteration cap.
        f_r, q_l, q_e = 11136669882.811073, 7066.722922099782, 7955.603681079918
        phi, gain = 0.2792789654359264, 1.9239993388359142
        phase, tau = 1.9610903114344334, 4.048007909601815e-08
        freqs = np.linspace(f_r * (1 - 5 / q_l), f_r * (1 + 5 / q_l), 1001)
        f_mid = freqs[500]
        z = notch.s21_model(freqs, f_r, q_l, q_e, phi, gain, phase, tau)

        def args(p):
            return (freqs, *p[:5], p[5] + TWO_PI * f_mid * p[6], p[6])

        def resid(p):
            d = notch.s21_model(*args(p)) - z
            return np.concatenate([d.real, d.imag])

        visited = []

        def jac(p):
            visited.append(p.copy())
            j = notch.s21_jacobian(*args(p))
            j[:, 6] += TWO_PI * f_mid * j[:, 5]
            return np.concatenate([j.real, j.imag])

        truth = np.array([f_r, q_l, q_e, phi, gain,
                          phase - TWO_PI * f_mid * tau, tau])
        start = truth * (1.0 + 1e-7 * np.random.default_rng(34).standard_normal(7))
        scale = np.array([2e-2, 1.0, 1.0, 1.0, 1.0, 1.0, 2e-8])
        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=resid, initial_params=start, step_scale=scale,
            jacobian=jac))
        assert res.converged
        assert res.status == "converged"
        assert res.iterations < fitting.MAX_ITERATIONS // 4
        assert np.allclose(res.params, truth, rtol=1e-9, atol=0.0)
        # The Jacobian is taken at every accepted point, the last one
        # included (for the covariance).
        points = np.array(visited)
        assert len(points) == res.iterations + 1
        last = points[-fitting.STALL_STEPS - 1:]
        ref = np.maximum(np.maximum(np.abs(last[1:]), np.abs(last[:-1])), scale)
        assert np.all(np.abs(np.diff(last, axis=0)) / ref <= fitting.STEP_FLOOR)

    def test_exact_jacobian_weighted_covariance(self):
        # The exact Jacobian is scaled by sqrt(weights) like the residual:
        # the covariance matches the numeric-Jacobian path.
        rng = np.random.default_rng(13)
        x = np.linspace(0.0, 2.0, 60)
        sigma = 0.01 * (1.0 + x)
        y = 3.0 * np.exp(-x / 0.7) + sigma * rng.standard_normal(60)

        def jac(p):
            e = np.exp(-x / p[1])
            return np.column_stack([e, p[0] * x / p[1] ** 2 * e])

        def fit(jacobian):
            return fitting.nonlinear_ls(fitting.FitProblem(
                residual=lambda p: p[0] * np.exp(-x / p[1]) - y,
                initial_params=np.array([1.0, 1.0]),
                bounds=[(1e-6, math.inf), (1e-6, math.inf)],
                weights=1.0 / sigma ** 2, jacobian=jacobian))

        numeric, exact = fit(None), fit(jac)
        assert numeric.converged and exact.converged
        assert np.allclose(exact.params, numeric.params, rtol=1e-8, atol=0.0)
        assert np.allclose(exact.covariance, numeric.covariance,
                           rtol=1e-6, atol=0.0)

    def test_optimum_stop_reuses_last_jacobian(self):
        # The run ends at a point it has already differentiated (no step
        # accepted in the last iteration), so the covariance reuses that
        # Jacobian: one call per iteration plus one at the start.
        rng = np.random.default_rng(13)
        x = np.linspace(0.0, 2.0, 60)
        y = 3.0 * np.exp(-x / 0.7) + 0.01 * rng.standard_normal(60)
        visited = []

        def jac(p):
            visited.append(p.copy())
            e = np.exp(-x / p[1])
            return np.column_stack([e, p[0] * x / p[1] ** 2 * e])

        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=lambda p: p[0] * np.exp(-x / p[1]) - y,
            initial_params=np.array([1.0, 1.0]), jacobian=jac))
        assert res.converged
        assert len(visited) == res.iterations + 1
        assert np.array_equal(visited[-1], res.params)
        J = jac(res.params)
        dof = x.size - 2
        expected = np.linalg.inv(J.T @ J) * (res.residual_norm ** 2 / dof)
        assert np.array_equal(res.covariance, expected)

    def test_non_finite_jacobian_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            problem = fitting.FitProblem(
                residual=lambda p: p - 1.0, initial_params=np.array([3.0]),
                jacobian=lambda p, bad=bad: np.array([[bad]]))
            with pytest.raises(ModelEvaluationError):
                fitting.nonlinear_ls(problem)

    def test_non_finite_trial_residual_is_rejected(self):
        # sqrt(p) - 2 is NaN for p < 0, where the undamped Gauss-Newton
        # steps from p = 30 land. Those trials are rejected and damped
        # until one lands inside; the run still ends at p = 4.
        outside = []

        def resid(p):
            if p[0] < 0.0:
                outside.append(p[0])
                return np.array([np.nan])
            return np.sqrt(p) - 2.0

        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=resid, initial_params=np.array([30.0]),
            jacobian=lambda p: np.array([[0.5 / np.sqrt(p[0])]])))
        assert len(outside) >= 1
        assert res.converged
        assert res.params[0] == pytest.approx(4.0, rel=1e-10)
        assert all(math.isfinite(n) for n in res.residual_trace)
        assert np.all(np.diff(res.residual_trace) <= 0.0)

    def test_residual_trace_monotone(self):
        rng = np.random.default_rng(6)
        x = np.linspace(0.0, 2.0, 100)
        y = 3.0 * np.exp(-x / 0.7) + 0.02 * rng.standard_normal(100)
        problem = fitting.FitProblem(
            residual=lambda p: p[0] * np.exp(-x / p[1]) - y,
            initial_params=np.array([1.0, 2.0]),
            bounds=[(1e-6, math.inf), (1e-6, math.inf)])
        res = fitting.nonlinear_ls(problem)
        trace = np.array(res.residual_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_reparameterization_invariance(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 2.0, 150)
        y = 3.0 * np.exp(-x / 0.7) + 0.01 * rng.standard_normal(150)

        def fit(scale):
            problem = fitting.FitProblem(
                residual=lambda p: p[0] * np.exp(-x * scale / p[1]) - y,
                initial_params=np.array([1.0, scale]),
                bounds=[(1e-9, math.inf), (1e-9, math.inf)])
            res = fitting.nonlinear_ls(problem)
            return res.params[0], res.params[1] / scale

    # Scaling one parameter by 1000 must converge to the scaled solution.
        a1, b1 = fit(1.0)
        a2, b2 = fit(1000.0)
        assert abs(a1 / a2 - 1.0) < 1e-6
        assert abs(b1 / b2 - 1.0) < 1e-6

    def test_weighted_covariance_absolute(self):
        # With weights = 1/sigma^2 the covariance must not be rescaled
        # by the reduced chi-square.
        x = np.linspace(0.0, 1.0, 40)
        rng = np.random.default_rng(13)
        y = 2.0 * x + 0.05 * rng.standard_normal(40)
        problem = fitting.FitProblem(
            residual=lambda p: p[0] * x - y,
            initial_params=np.array([1.0]),
            weights=np.full(40, 1.0 / 0.05 ** 2))
        res = fitting.nonlinear_ls(problem)
        expected = 0.05 / math.sqrt(float(np.sum(x * x)))
        assert abs(res.stderr[0] / expected - 1.0) < 1e-3


class TestNumericJacobian:
    def test_square_at_three(self):
        jac = fitting.numeric_jacobian(lambda p: np.array([p[0] ** 2]),
                                       np.array([3.0]))
        assert abs(jac[0, 0] / 6.0 - 1.0) < 1e-6

    def test_linear_model_constant_jacobian(self):
        x = np.linspace(0.0, 1.0, 20)

        def model(p):
            return p[0] + p[1] * x

        j1 = fitting.numeric_jacobian(model, np.array([0.0, 0.0]))
        j2 = fitting.numeric_jacobian(model, np.array([5.0, -7.0]))
        assert np.allclose(j1, j2, atol=1e-9)

    def test_resonance_frequency_area_derivative(self):
        # Reference chip, first resonator, with its fit constants;
        # analytic df/dS = -f c / (2 (C_g + c S)).
        ind, c, cg, area = 0.3e-9, 13.86e-15, 33.65e-15, 10.64 ** 2

        def model(p):
            return np.array([resonance_frequency(ResonatorDesign(
                inductance_geometric=ind, cap_area=p[0], cap_per_area=c,
                cap_to_ground=cg))])

        numeric = fitting.numeric_jacobian(model, np.array([area]))[0, 0]
        analytic = oracles.freq_vs_area_darea(area, ind, c, cg)
        assert abs(numeric / analytic - 1.0) < 1e-6

    def test_vector_step_scale(self):
        # Parameter living at 1e-9 scale needs a per-parameter step
        # factor; with it the derivative resolves cleanly.
        def model(p):
            return np.array([p[0], 1e-9 * math.sin(p[1] / 1e-9)])

        jac = fitting.numeric_jacobian(model, np.array([1.0, 0.5e-9]),
                                       scale=np.array([1.0, 1e-9]))
        assert abs(jac[1, 1] - math.cos(0.5)) < 1e-4

    def test_non_finite_model_raises(self):
        with pytest.raises(ModelEvaluationError):
            fitting.numeric_jacobian(
                lambda p: np.array([math.inf]), np.array([1.0]))
