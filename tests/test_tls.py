import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import drop_exact_jacobians
from resokit import tls
from resokit.errors import DomainError, InsufficientDataError
from resokit.tls import PowerSweep, TlsFitParams

F_R, TEMP = 7.3e9, 0.01


def reference_generator():
    """Parameters hitting the reference chip's resonator-1 endpoints:
    Q_in = 4.5e3 near one photon, 4.55e4 near 1e5 photons."""
    return tls.solve_endpoint_params(q_low=4.5e3, n_low=1.0, q_high=45.5e3,
                                     n_high=1e5, n_critical=10.0, beta=0.5,
                                     f=F_R, temperature=TEMP)


def synth_sweep(params, n_points=15, noise=0.0, seed=0,
                n_lo=0.1, n_hi=1e6):
    ns = np.geomspace(n_lo, n_hi, n_points)
    q = 1.0 / tls.tls_tan_delta(ns, params, F_R, TEMP)
    if noise:
        rng = np.random.default_rng(seed)
        q = q * (1.0 + noise * rng.standard_normal(n_points))
    sigma = np.maximum(noise, 1e-6) * q
    return PowerSweep(points=tuple(zip(ns, q, sigma)),
                      resonator_freq=F_R, temperature=TEMP)


class TestThermalFactor:
    def test_ghz_at_10mk_is_saturated(self):
        assert abs(tls.thermal_factor(7e9, 0.01) - 1.0) < 1e-10

    def test_zero_frequency(self):
        assert tls.thermal_factor(0.0, 0.01) == 0.0

    def test_band_insensitivity(self):
        # 7 and 13 GHz at 10 mK differ by far less than 1e-12: no
        # frequency trend in loss across the chip.
        diff = tls.thermal_factor(13e9, 0.01) - tls.thermal_factor(7e9, 0.01)
        assert abs(diff) < 1e-12

    @given(f1=st.floats(min_value=1e6, max_value=5e10),
           f2=st.floats(min_value=1e6, max_value=5e10),
           t1=st.floats(min_value=1e-3, max_value=10.0),
           t2=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_bounded(self, f1, f2, t1, t2):
        eps = 1e-14
        f_lo, f_hi = sorted((f1, f2))
        t_lo, t_hi = sorted((t1, t2))
        assert tls.thermal_factor(f_lo, t_lo) \
            >= tls.thermal_factor(f_lo, t_hi) - eps
        assert tls.thermal_factor(f_hi, t_lo) \
            >= tls.thermal_factor(f_lo, t_lo) - eps
        # Open interval mathematically; float tanh may saturate to 1.0.
        assert 0.0 < tls.thermal_factor(f_hi, t_hi) <= 1.0


class TestSaturationModel:
    PARAMS = TlsFitParams(tan_delta_tls0=2e-4, n_critical=10.0, beta=0.5,
                          tan_delta_other=2e-5)

    def test_zero_photon_floor(self):
        expected = 2e-4 * tls.thermal_factor(F_R, TEMP) + 2e-5
        assert tls.tls_tan_delta(0.0, self.PARAMS, F_R, TEMP) == expected

    def test_full_saturation(self):
        # At beta = 1 the TLS term is suppressed by 1e12 at n = 1e12 n_c,
        # pinning the value to the residual loss within 1e-6 relative.
        params = TlsFitParams(2e-4, 10.0, 1.0, 2e-5)
        val = tls.tls_tan_delta(1e12 * 10.0, params, F_R, TEMP)
        assert abs(val / 2e-5 - 1.0) < 1e-6
        # The canonical beta = 0.5 bath saturates as 1/sqrt(n).
        val_half = tls.tls_tan_delta(1e12 * 10.0, self.PARAMS, F_R, TEMP)
        assert abs(val_half / 2e-5 - 1.0) < 2e-5

    def test_endpoint_solver_hits_anchors(self):
        gen = reference_generator()
        assert 1.0 / tls.tls_tan_delta(1.0, gen, F_R, TEMP) \
            == pytest.approx(4.5e3, rel=1e-9)
        assert 1.0 / tls.tls_tan_delta(1e5, gen, F_R, TEMP) \
            == pytest.approx(45.5e3, rel=1e-9)
        assert gen.tan_delta_other > 0.0

    @given(n1=st.floats(min_value=0.0, max_value=1e9),
           n2=st.floats(min_value=0.0, max_value=1e9),
           tls0=st.floats(min_value=1e-6, max_value=1e-3),
           n_c=st.floats(min_value=0.1, max_value=1e4),
           beta=st.floats(min_value=0.05, max_value=1.0),
           other=st.floats(min_value=0.0, max_value=1e-4))
    @settings(max_examples=60, deadline=None)
    def test_q_monotone_in_photons(self, n1, n2, tls0, n_c, beta, other):
        params = TlsFitParams(tls0, n_c, beta, other)
        lo, hi = sorted((n1, n2))
        d_lo = tls.tls_tan_delta(lo, params, F_R, TEMP)
        d_hi = tls.tls_tan_delta(hi, params, F_R, TEMP)
        assert d_lo >= d_hi - 1e-15 * d_hi

    def test_beta_window_enforced(self):
        with pytest.raises(DomainError):
            TlsFitParams(2e-4, 10.0, 1.5, 2e-5)


class TestFitPowerSweep:
    def test_reference_endpoints_recovered(self):
        gen = reference_generator()
        fit = tls.fit_power_sweep(synth_sweep(gen, noise=0.03, seed=24))
        assert fit.converged
        assert abs(fit.params.tan_delta_tls0 / gen.tan_delta_tls0 - 1.0) < 0.1
        assert abs(fit.params.n_critical / gen.n_critical - 1.0) < 0.1
        assert abs(fit.params.beta - gen.beta) < 0.1
        single = tls.tls_tan_delta(1.0, fit.params, F_R, TEMP)
        assert 2.0e-4 < single < 2.5e-4

    def test_noiseless_exact(self):
        gen = reference_generator()
        fit = tls.fit_power_sweep(synth_sweep(gen))
        assert abs(fit.params.tan_delta_tls0 / gen.tan_delta_tls0 - 1.0) < 1e-8
        assert abs(fit.params.n_critical / gen.n_critical - 1.0) < 1e-7
        assert abs(fit.params.beta - 0.5) < 1e-8

    def test_flat_sweep_consistent_with_zero(self):
        rng = np.random.default_rng(31)
        ns = np.geomspace(1.0, 1e5, 12)
        q = 3e4 * (1.0 + 0.01 * rng.standard_normal(12))
        sweep = PowerSweep(points=tuple((n, v, 0.01 * v)
                                        for n, v in zip(ns, q)),
                           resonator_freq=F_R, temperature=TEMP)
        fit = tls.fit_power_sweep(sweep)
        assert abs(fit.params.tan_delta_tls0) \
            <= 3.0 * fit.stderr["tan_delta_tls0"] + 1e-12

    def test_exactly_flat_sweep_leaves_saturation_undetermined(self):
        # Q_in = 5e3 at every acceptance-06 photon number: tls0 fits to 0,
        # so the model does not depend on n_c or beta and neither gets a
        # finite uncertainty.
        ns = np.geomspace(0.1, 1e6, 15)
        sweep = PowerSweep(points=tuple((n, 5e3, 0.03 * 5e3) for n in ns),
                           resonator_freq=F_R, temperature=TEMP)
        fit = tls.fit_power_sweep(sweep)
        assert fit.params.tan_delta_tls0 == 0.0
        assert fit.stderr["n_critical"] == math.inf
        assert fit.stderr["beta"] == math.inf
        assert fit.params.tan_delta_other == pytest.approx(2e-4, rel=1e-12)
        assert math.isfinite(fit.stderr["tan_delta_tls0"])
        assert math.isfinite(fit.stderr["tan_delta_other"])

    def test_narrow_range_warns(self):
        gen = reference_generator()
        fit = tls.fit_power_sweep(synth_sweep(gen, n_lo=10.0, n_hi=1e3,
                                              noise=0.01, seed=3))
        assert any("3 decades" in w for w in fit.warnings)

    def test_rising_tail_flagged(self):
        gen = reference_generator()
        ns = np.geomspace(0.1, 1e6, 15)
        q = 1.0 / tls.tls_tan_delta(ns, gen, F_R, TEMP)
        q[-3:] *= (0.65, 0.45, 0.3)  # high-power droop in Q
        sweep = PowerSweep(points=tuple((n, v, 0.01 * v)
                                        for n, v in zip(ns, q)),
                           resonator_freq=F_R, temperature=TEMP)
        fit = tls.fit_power_sweep(sweep)
        assert any("non-TLS" in w for w in fit.warnings)

    def test_mask_above_n_max(self):
        gen = reference_generator()
        ns = np.geomspace(0.1, 1e6, 15)
        q = 1.0 / tls.tls_tan_delta(ns, gen, F_R, TEMP)
        q[-3:] *= (0.65, 0.45, 0.3)
        sweep = PowerSweep(points=tuple((n, v, 0.01 * v)
                                        for n, v in zip(ns, q)),
                           resonator_freq=F_R, temperature=TEMP)
        fit = tls.fit_power_sweep(sweep, n_max=1e4)
        assert abs(fit.params.tan_delta_tls0 / gen.tan_delta_tls0 - 1.0) < 1e-6
        assert not any("non-TLS" in w for w in fit.warnings)

    def test_too_few_points(self):
        gen = reference_generator()
        sweep = synth_sweep(gen, n_points=5)
        short = PowerSweep(points=sweep.points[:3], resonator_freq=F_R,
                           temperature=TEMP)
        with pytest.raises(InsufficientDataError):
            tls.fit_power_sweep(short)

    def test_sweep_validation(self):
        with pytest.raises(DomainError):
            PowerSweep(points=((1.0, 1e4, 10.0), (0.5, 2e4, 10.0)),
                       resonator_freq=F_R, temperature=TEMP)


def acceptance_06_sweep():
    return synth_sweep(reference_generator(), noise=0.03, seed=24)


class TestExactJacobian:
    def test_matches_numeric_derivative_solve(self, monkeypatch):
        exact = tls.fit_power_sweep(acceptance_06_sweep())
        drop_exact_jacobians(monkeypatch)
        numeric = tls.fit_power_sweep(acceptance_06_sweep())
        assert exact.converged and numeric.converged
        for name, value in dataclasses.asdict(numeric.params).items():
            assert getattr(exact.params, name) == pytest.approx(value, rel=1e-7)
            assert exact.stderr[name] == pytest.approx(numeric.stderr[name],
                                                       rel=1e-7)

    def test_free_beta_covariance_is_absolute(self):
        # The sweep's sigmas are absolute: the covariance is the inverse
        # of the weighted normal matrix at the fitted point, with no
        # reduced chi-square scaling.
        sweep = acceptance_06_sweep()
        fit = tls.fit_power_sweep(sweep)
        p = fit.params
        ns = np.array([n for n, _, _ in sweep.points])
        sigma_tan = np.array([s / q ** 2 for _, q, s in sweep.points])
        jac = oracles.tls_gradient(ns, tls.thermal_factor(F_R, TEMP),
                                   *dataclasses.astuple(p)) / sigma_tan[:, None]
        expected = np.linalg.inv(jac.T @ jac)
        assert np.allclose(fit.covariance, expected, rtol=1e-8, atol=0.0)

    def test_pinned_beta_covariance_is_conditional(self):
        # beta has no uncertainty, and the other three get the inverse of
        # their own weighted normal block at the fitted point.
        sweep = acceptance_06_sweep()
        fit = tls.fit_power_sweep(sweep, fit_beta=False)
        p = fit.params
        assert p.beta == tls.DEFAULT_BETA and fit.stderr["beta"] == 0.0
        ns = np.array([n for n, _, _ in sweep.points])
        sigma_tan = np.array([s / q ** 2 for _, q, s in sweep.points])
        jac = tls.tan_delta_jacobian(ns, tls.thermal_factor(F_R, TEMP),
                                     p.tan_delta_tls0, p.n_critical, p.beta)
        free = jac[:, [0, 1, 3]] / sigma_tan[:, None]
        expected = np.sqrt(np.diag(np.linalg.inv(free.T @ free)))
        got = [fit.stderr[k] for k in ("tan_delta_tls0", "n_critical",
                                       "tan_delta_other")]
        assert np.allclose(got, expected, rtol=1e-6, atol=0.0)
