import math

import numpy as np
import pytest

import oracles
from conftest import central_differences
from resokit import fitting, notch
from resokit.circuit import ResonatorDesign, resonance_frequency
from resokit.constants import TWO_PI
from resokit.errors import (DomainError, ModelEvaluationError,
                            RankDeficiencyError)


UNBOUNDED = (-math.inf, math.inf)


def line(x):
    """Design matrix of an intercept and a slope."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([np.ones_like(x), x])


def decay(x, y):
    """Residual and exact Jacobian of p[0] exp(-x / p[1]) against y."""
    def resid(p):
        return p[0] * np.exp(-x / p[1]) - y

    def jac(p):
        e = np.exp(-x / p[1])
        return np.column_stack([e, p[0] * x / p[1] ** 2 * e])

    return resid, jac


class TestLinearWls:
    def test_exact_line(self):
        x = np.arange(10.0)
        res = fitting.linear_wls(line(x), 2.0 * x + 1.0)
        assert abs(res.params[1] - 2.0) < 1e-12
        assert abs(res.params[0] - 1.0) < 1e-12
        assert res.converged

    def test_two_points_suffice(self):
        # Two points fix a line exactly; TestCovariance holds their
        # variances to inf.
        res = fitting.linear_wls(line([0.0, 1.0]), [1.0, 3.0])
        assert np.allclose(res.params, [1.0, 2.0], atol=1e-12)
        assert res.residual_norm == 0.0

    def test_duplicate_x_rank_deficient(self):
        x = np.full(6, 3.0)
        with pytest.raises(RankDeficiencyError):
            fitting.linear_wls(line(x), 2.0 * x)

    def test_fewer_points_than_params(self):
        with pytest.raises(RankDeficiencyError):
            fitting.linear_wls(line([1.0]), [2.0])

    def test_normal_matrix_singular_to_rounding(self):
        # Three x 1.2e-6 apart near 912: with its columns scaled to unit
        # norm, the design's smallest singular value is 5.6e-10 of the
        # largest, under RANK_RTOL, so the rank rule refuses it. (Its
        # square, 3e-19, is lost in X^T X, which no solve here forms.)
        x = np.array([912.4295161119187, 912.4295173529637,
                      912.4295185940086])
        with pytest.raises(RankDeficiencyError):
            fitting.linear_wls(line(x), 2.0 * x)


class TestNonlinearLs:
    def test_linear_problem_matches_wls(self):
        x = np.arange(10.0)
        y = 2.0 * x + 1.0
        wls = fitting.linear_wls(line(x), y)

        problem = fitting.FitProblem(
            residual=lambda p: (p[0] + p[1] * x) - y,
            initial_params=np.array([0.0, 0.0]), bounds=[UNBOUNDED] * 2,
            normal_equations=fitting.from_jacobian(lambda p: line(x)))
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
        resid, jac = decay(x, y)
        problem = fitting.FitProblem(
            residual=resid, initial_params=np.array([1.0, 1.0]),
            bounds=[(1e-6, math.inf), (1e-6, math.inf)],
            normal_equations=fitting.from_jacobian(jac))
        res = fitting.nonlinear_ls(problem)
        assert res.converged
        assert abs(res.params[0] / 3.0 - 1.0) < 0.03
        assert abs(res.params[1] / 0.7 - 1.0) < 0.03

    def test_scale_is_the_parameter_unit(self):
        # The decay amplitude stated in units of 2**-50, with that unit
        # as its scale, is the unit-1 run: a power of two rescales
        # without rounding, so params, iterations and status agree bit
        # for bit, with the exact and the numeric Jacobian. The
        # amplitude's bounds clip the start point, so they must be
        # rescaled too.
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 2.0, 200)
        y = 3.0 * np.exp(-x / 0.7) * (1.0 + 0.01 * rng.standard_normal(200))

        def fit(unit, exact):
            def resid(p):
                return p[0] / unit[0] * np.exp(-x / p[1]) - y

            def jac(p):
                e = np.exp(-x / p[1])
                return np.column_stack([e / unit[0],
                                        p[0] / unit[0] * x / p[1] ** 2 * e])

            return fitting.nonlinear_ls(fitting.FitProblem(
                residual=resid, initial_params=np.array([1.0, 1.0]) * unit,
                bounds=[(1.5 * unit[0], 10.0 * unit[0]), (1e-6, math.inf)],
                scale=unit,
                normal_equations=fitting.from_jacobian(
                    jac if exact else central_differences(resid, unit))))

        unit = np.array([2.0 ** -50, 1.0])
        for exact in (False, True):
            base, scaled = fit(np.ones(2), exact), fit(unit, exact)
            assert base.converged
            assert np.array_equal(scaled.params, base.params * unit)
            assert scaled.iterations == base.iterations
            assert scaled.status == base.status
            assert scaled.residual_trace == base.residual_trace

    def test_scale_must_be_positive(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                fitting.nonlinear_ls(fitting.FitProblem(
                    residual=lambda p: p - 1.0,
                    initial_params=np.array([3.0]), bounds=[UNBOUNDED],
                    normal_equations=fitting.from_jacobian(
                        lambda p: np.ones((1, 1))), scale=bad))

    def test_plateau_zero_gradient_is_stationary(self):
        problem = fitting.FitProblem(
            residual=lambda p: np.array([1.0, -1.0, 2.0]),
            initial_params=np.array([0.5, 0.5]), bounds=[UNBOUNDED] * 2,
            normal_equations=fitting.from_jacobian(lambda p: np.zeros((3, 2))))
        res = fitting.nonlinear_ls(problem)
        assert res.converged
        assert res.status == "stationary_point"
        assert res.iterations == 0

    def test_non_finite_residual_raises(self):
        problem = fitting.FitProblem(
            residual=lambda p: np.array([np.nan]),
            initial_params=np.array([1.0]), bounds=[UNBOUNDED],
            normal_equations=fitting.from_jacobian(lambda p: np.ones((1, 1))))
        with pytest.raises(ModelEvaluationError):
            fitting.nonlinear_ls(problem)

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng(9)
        x = np.linspace(0.0, 2.0, 50)
        y = 3.0 * np.exp(-x / 0.7) + 0.01 * rng.standard_normal(50)
        resid, jac = decay(x, y)
        problem = fitting.FitProblem(
            residual=resid, initial_params=np.array([0.1, 5.0]),
            bounds=[UNBOUNDED] * 2,
            normal_equations=fitting.from_jacobian(jac))
        res = fitting.nonlinear_ls(problem)
        assert not res.converged
        assert res.status == "max_iterations"

    def test_small_relaxed_step_stops(self):
        # A steep residual started 1e-11 from its minimum: the first step
        # lowers the residual norm by about 5e-5 relative but moves p by
        # less than STEP_RTOL, which ends a run at relaxed damping.
        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=lambda p: np.array([1e6 * (p[0] - 1.0), 1e-3]),
            initial_params=np.array([1.0 + 1e-11]), bounds=[UNBOUNDED],
            normal_equations=fitting.from_jacobian(
                lambda p: np.array([[1e6], [0.0]]))))
        assert res.status == "converged"
        assert res.iterations == 1
        assert res.residual_trace[1] < res.residual_trace[0] * (1 - 1e-5)

    def test_damping_overflow_reported(self):
        # The residual is finite only at its start point, so every trial
        # step is rejected and the damping grows past DAMPING_MAX.
        start = np.array([2.0, -1.0])

        def resid(p):
            if not np.array_equal(p, start):
                return np.full(2, np.nan)
            return p - np.array([5.0, 3.0])

        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=resid, initial_params=start, bounds=[UNBOUNDED] * 2,
            normal_equations=fitting.from_jacobian(lambda p: np.eye(2))))
        assert res.status == "damping_overflow"
        assert not res.converged
        assert res.iterations == 0
        assert np.array_equal(res.params, start)

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
            bounds=[(1e-6, math.inf), (1e-6, math.inf)],
            normal_equations=fitting.from_jacobian(central_differences(resid)))
        res = fitting.nonlinear_ls(problem)
        assert res.converged
        assert res.status == "converged"
        assert res.iterations < fitting.MAX_ITERATIONS // 4
        last = np.array(res.residual_trace[-fitting.STALL_STEPS - 1:])
        rel = -np.diff(last) / last[:-1]
        assert np.all(rel < fitting.RESIDUAL_RTOL)
        resid, jac = decay(x, y)
        exact = fitting.nonlinear_ls(fitting.FitProblem(
            residual=resid, initial_params=np.array([1.0, 1.0]),
            bounds=[(1e-6, math.inf), (1e-6, math.inf)],
            normal_equations=fitting.from_jacobian(jac)))
        assert np.allclose(res.params, exact.params, rtol=1e-4)

    def test_floor_steps_stop_at_any_damping(self):
        # A noiseless notch with the environment phase referenced to the
        # band centre, started 1e-7 off its truth. With the exact
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
            return oracles.notch_s21_gradient_band_centred(
                freqs, args(p)[1:], f_mid)

        truth = np.array([f_r, q_l, q_e, phi, gain,
                          phase - TWO_PI * f_mid * tau, tau])
        start = truth * (1.0 + 1e-7 * np.random.default_rng(34).standard_normal(7))
        scale = np.array([2e-2, 1.0, 1.0, 1.0, 1.0, 1.0, 2e-8])
        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=resid, initial_params=start, bounds=[UNBOUNDED] * 7,
            normal_equations=fitting.from_jacobian(jac)))
        assert res.converged
        assert res.status == "converged"
        assert res.iterations < fitting.MAX_ITERATIONS // 4
        assert np.allclose(res.params, truth, rtol=1e-9, atol=0.0)
        # The Jacobian is taken at every accepted point but the last,
        # where a negligible step ended the run.
        assert len(visited) == res.iterations
        points = np.array(visited + [res.params])
        last = points[-fitting.STALL_STEPS - 1:]
        ref = np.maximum(np.maximum(np.abs(last[1:]), np.abs(last[:-1])), scale)
        assert np.all(np.abs(np.diff(last, axis=0)) / ref <= fitting.STEP_FLOOR)

    def test_optimum_stop_reuses_last_jacobian(self):
        # One Jacobian per iteration and none after the loop. This run
        # ends at a point it has already differentiated (no step accepted
        # in the last iteration); test_floor_steps_stop_at_any_damping
        # ends on an accepted step, whose point is never differentiated.
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
            initial_params=np.array([1.0, 1.0]), bounds=[UNBOUNDED] * 2,
            normal_equations=fitting.from_jacobian(jac)))
        assert res.converged and res.residual_trace[-1] == res.residual_norm
        assert len(visited) == res.iterations + 1
        assert np.array_equal(visited[-1], res.params)

    def test_non_finite_jacobian_raises(self):
        # A non-finite entry in the normal matrix or in the gradient ends
        # the run before any step is taken.
        for bad in (np.nan, np.inf, -np.inf):
            for normal, gradient in ((np.array([[bad]]), np.zeros(1)),
                                     (np.eye(1), np.array([bad]))):
                problem = fitting.FitProblem(
                    residual=lambda p: p - 1.0,
                    initial_params=np.array([3.0]), bounds=[UNBOUNDED],
                    normal_equations=lambda p, r, n=normal, g=gradient:
                        (n, g))
                with pytest.raises(ModelEvaluationError,
                                   match="normal equations"):
                    fitting.nonlinear_ls(problem)

    def test_from_jacobian_is_the_dense_product(self):
        # The adapter hands the solver J^T J and J^T r of the dense
        # Jacobian, bit for bit, at the params and residual it is given.
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 2.0, 15)
        resid, jac = decay(x, 3.0 * np.exp(-x / 0.7)
                           + 0.01 * rng.standard_normal(15))
        normal_equations = fitting.from_jacobian(jac)
        for p in (np.array([1.0, 1.0]), np.array([2.9, 0.71])):
            J, r = jac(p), resid(p)
            normal, gradient = normal_equations(p, r)
            assert np.array_equal(normal, J.T @ J)
            assert np.array_equal(gradient, J.T @ r)

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
            bounds=[UNBOUNDED],
            normal_equations=fitting.from_jacobian(
                lambda p: np.array([[0.5 / np.sqrt(p[0])]]))))
        assert len(outside) >= 1
        assert res.converged
        assert res.params[0] == pytest.approx(4.0, rel=1e-10)
        assert all(math.isfinite(n) for n in res.residual_trace)
        assert np.all(np.diff(res.residual_trace) <= 0.0)

    def test_residual_trace_monotone(self):
        rng = np.random.default_rng(6)
        x = np.linspace(0.0, 2.0, 100)
        y = 3.0 * np.exp(-x / 0.7) + 0.02 * rng.standard_normal(100)
        resid, jac = decay(x, y)
        problem = fitting.FitProblem(
            residual=resid, initial_params=np.array([1.0, 2.0]),
            bounds=[(1e-6, math.inf), (1e-6, math.inf)],
            normal_equations=fitting.from_jacobian(jac))
        res = fitting.nonlinear_ls(problem)
        trace = np.array(res.residual_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_reparameterization_invariance(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 2.0, 150)
        y = 3.0 * np.exp(-x / 0.7) + 0.01 * rng.standard_normal(150)

        def fit(scale):
            resid, jac = decay(x * scale, y)
            problem = fitting.FitProblem(
                residual=resid, initial_params=np.array([1.0, scale]),
                bounds=[(1e-9, math.inf), (1e-9, math.inf)],
                normal_equations=fitting.from_jacobian(jac))
            res = fitting.nonlinear_ls(problem)
            return res.params[0], res.params[1] / scale

    # Scaling one parameter by 1000 must converge to the scaled solution.
        a1, b1 = fit(1.0)
        a2, b2 = fit(1000.0)
        assert abs(a1 / a2 - 1.0) < 1e-6
        assert abs(b1 / b2 - 1.0) < 1e-6

class TestCovariance:
    """fitting.covariance, the rule each fitter applies to its own
    Jacobian at its fitted params."""

    def test_reduced_chi_square_matches_monte_carlo(self):
        # With the residual norm the covariance is scaled by the reduced
        # chi-square, so the standard error matches the scatter of
        # repeated fits.
        rng = np.random.default_rng(11)
        sigma, n = 0.1, 50
        x = np.linspace(0.0, 1.0, n)
        design = line(x)
        slopes, reported = [], []
        for _ in range(500):
            y = 2.0 * x + 1.0 + sigma * rng.standard_normal(n)
            res = fitting.linear_wls(design, y)
            cov = fitting.covariance(design, n, res.residual_norm)
            slopes.append(res.params[1])
            reported.append(math.sqrt(cov[1, 1]))
        assert abs(np.std(slopes) / np.median(reported) - 1.0) < 0.1

    def test_two_points_have_infinite_variance(self):
        # Two points fix a line exactly and leave no residual to read a
        # noise scale from: both parameters get an infinite variance,
        # not 0, with zeros off the diagonal and no NaN.
        design = line([0.0, 1.0])
        res = fitting.linear_wls(design, [1.0, 3.0])
        cov = fitting.covariance(design, 2, res.residual_norm)
        assert np.array_equal(cov, np.diag([math.inf, math.inf]))

    def test_weighted_covariance_absolute(self):
        # Rows divided by sigma and no residual norm: the covariance is
        # (J^T W J)^-1, not rescaled by the reduced chi-square.
        x = np.linspace(0.0, 1.0, 40)
        rng = np.random.default_rng(13)
        y = 2.0 * x + 0.05 * rng.standard_normal(40)
        rows = x[:, None] / 0.05
        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=lambda p: (p[0] * x - y) / 0.05,
            initial_params=np.array([1.0]), bounds=[UNBOUNDED],
            normal_equations=fitting.from_jacobian(lambda p: rows)))
        cov = fitting.covariance(rows, x.size)
        expected = 0.05 / math.sqrt(float(np.sum(x * x)))
        assert res.converged
        assert math.sqrt(cov[0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_exact_jacobian_weighted_covariance(self):
        # A weighted fit scales its residual and its exact Jacobian by
        # 1/sigma alike: the covariance from that Jacobian at its fit
        # matches the one from the numeric Jacobian of the weighted
        # residual at the numeric-Jacobian fit.
        rng = np.random.default_rng(13)
        x = np.linspace(0.0, 2.0, 60)
        sigma = 0.01 * (1.0 + x)
        y = 3.0 * np.exp(-x / 0.7) + sigma * rng.standard_normal(60)

        def resid(p):
            return (p[0] * np.exp(-x / p[1]) - y) / sigma

        def jac(p):
            e = np.exp(-x / p[1])
            return np.column_stack([e, p[0] * x / p[1] ** 2 * e]) \
                / sigma[:, None]

        def fit(jacobian):
            return fitting.nonlinear_ls(fitting.FitProblem(
                residual=resid, initial_params=np.array([1.0, 1.0]),
                bounds=[(1e-6, math.inf), (1e-6, math.inf)],
                normal_equations=fitting.from_jacobian(jacobian)))

        numeric, exact = fit(central_differences(resid)), fit(jac)
        assert numeric.converged and exact.converged
        assert np.allclose(exact.params, numeric.params, rtol=1e-8, atol=0.0)
        rows = jac(exact.params)
        numeric_rows = fitting.numeric_jacobian(resid, numeric.params)
        assert np.allclose(fitting.covariance(rows, x.size),
                           fitting.covariance(numeric_rows, x.size),
                           rtol=1e-6, atol=0.0)

    def test_pinned_parameter_has_zero_covariance(self):
        # y = a + b x with b pinned by its bounds: b is not free, so it
        # has a zero row and column, and a the variance of a fit of a
        # alone, 1 / sum(w) weighted and chi^2 / (n - 1) / n unweighted
        # (b is no degree of freedom).
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 1.0, 20)
        sigma = np.full(20, 0.05)
        y = 1.0 + 2.0 * x + sigma * rng.standard_normal(20)
        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=lambda p: p[0] + p[1] * x - y,
            initial_params=np.array([0.0, 2.0]),
            bounds=[(-math.inf, math.inf), (2.0, 2.0)],
            normal_equations=fitting.from_jacobian(lambda p: line(x))))
        assert res.params[1] == 2.0
        free = np.array([True, False])

        rows = line(x) / sigma[:, None]
        weighted = fitting.covariance(rows, x.size, free=free)
        assert weighted[0, 0] == pytest.approx(
            1.0 / np.sum(1.0 / sigma ** 2), rel=1e-12)
        assert np.all(weighted[1, :] == 0.0)
        assert np.all(weighted[:, 1] == 0.0)

        plain = fitting.covariance(line(x), x.size, res.residual_norm,
                                   free=free)
        assert plain[0, 0] == pytest.approx(
            res.residual_norm ** 2 / (x.size - 1) / x.size, rel=1e-12)
        assert np.all(plain[1, :] == 0.0)

    def test_no_degrees_of_freedom_pinned_stays_zero(self):
        # Two points, a and b free, c pinned: no degree of freedom is
        # left, so a and b get an infinite variance and zeros elsewhere
        # in their rows, and c keeps its zero row and column.
        x = np.array([0.0, 1.0])
        y = np.array([1.0, 3.0])
        design = np.column_stack([np.ones_like(x), x, x * x])
        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=lambda p: design @ p - y,
            initial_params=np.array([0.0, 0.0, 0.5]),
            bounds=[(-math.inf, math.inf)] * 2 + [(0.5, 0.5)],
            normal_equations=fitting.from_jacobian(lambda p: design)))
        assert res.converged
        cov = fitting.covariance(design, x.size, res.residual_norm,
                                 free=np.array([True, True, False]))
        assert np.array_equal(cov, np.diag([math.inf, math.inf, 0.0]))

    def test_columns_equal_to_rounding_read_infinite(self):
        # Two unit columns that differ by one ulp in one entry: their
        # column-scaled singular values are 1.4 and 7.9e-17, so the
        # direction that tells them apart is undetermined. Both parameters
        # move along it: infinite, with zeros elsewhere in their rows and
        # columns. The third keeps its variance 1/4, scaled by the reduced
        # chi-square 3^2 / (10 - 3). (Inverting F^T F instead gave both
        # variances of -4.5e15.)
        factor = np.zeros((10, 3))
        factor[:2, 0] = 0.6, 0.8
        factor[:2, 1] = 0.6, np.nextafter(0.8, 1.0)
        factor[2, 2] = 2.0
        sv = np.linalg.svd(factor[:, :2], compute_uv=False)
        assert sv[1] <= fitting.RANK_RTOL * sv[0]
        cov = fitting.covariance(factor, 10, 3.0)
        assert np.array_equal(cov, np.diag([math.inf, math.inf, 0.25 * 9 / 7]))

    def test_unseen_parameter_has_infinite_variance(self):
        # y = a + b x, and a third parameter the residual ignores: the
        # solver leaves it where it started, and its zero Jacobian
        # column gives it an infinite variance and zeros elsewhere, and
        # (a, b) the inverse of their own block.
        x = np.linspace(0.0, 1.0, 20)
        sigma = np.full(20, 0.05)
        y = 1.0 + 2.0 * x + sigma * np.random.default_rng(4).standard_normal(20)
        rows = np.column_stack([np.ones_like(x), x, np.zeros_like(x)]) \
            / sigma[:, None]
        res = fitting.nonlinear_ls(fitting.FitProblem(
            residual=lambda p: rows @ p - y / sigma,
            initial_params=np.array([0.0, 0.0, 0.3]), bounds=[UNBOUNDED] * 3,
            normal_equations=fitting.from_jacobian(lambda p: rows)))
        assert res.converged and res.params[2] == 0.3
        cov = fitting.covariance(rows, x.size)
        assert cov[2, 2] == math.inf
        assert np.all(cov[2, :2] == 0.0)
        assert np.all(cov[:2, 2] == 0.0)
        seen = rows[:, :2]
        assert np.allclose(cov[:2, :2], np.linalg.inv(seen.T @ seen),
                           rtol=1e-12, atol=0.0)


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
