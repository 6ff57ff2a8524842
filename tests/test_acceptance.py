"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (visible with pytest -s or -rA).

Tolerances are frozen here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

import oracles
import resokit as rk
from conftest import draw_notch_params
from resokit import circuit, extraction, fitting, tls
from resokit.circuit import DispersiveBudget, ResonatorDesign
from resokit.constants import FF, GHZ, NH, TWO_PI
from resokit.notch import s21_jacobian, s21_model
from resokit.refdata import (CRYO_CAP_PER_AREA, CRYO_CAP_TO_GROUND,
                             DIELECTRIC_THICKNESS, INDUCTANCE_GEOMETRIC,
                             REFERENCE_RESONATORS, ROOM_T_CAP_PER_AREA,
                             shared_cap_per_area)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_01_reference_frequency_reproduction():
    """Reference fit constants reproduce all ten measured frequencies
    within 2 percent, in under a millisecond."""
    start = time.perf_counter()
    worst = 0.0
    for row in REFERENCE_RESONATORS:
        design = ResonatorDesign(
            inductance_geometric=INDUCTANCE_GEOMETRIC,
            cap_area=row.area_um2, cap_per_area=CRYO_CAP_PER_AREA,
            cap_to_ground=CRYO_CAP_TO_GROUND, kinetic_fraction=0.0)
        predicted = circuit.resonance_frequency(design)
        rel = abs(predicted - row.freq_hz) / row.freq_hz
        worst = max(worst, rel)
        assert rel < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    row1 = circuit.resonance_frequency(ResonatorDesign(
        inductance_geometric=INDUCTANCE_GEOMETRIC, cap_area=10.64 ** 2,
        cap_per_area=CRYO_CAP_PER_AREA, cap_to_ground=CRYO_CAP_TO_GROUND))
    assert abs(row1 / GHZ - 7.26) < 0.005
    report(1, f"10 frequencies within 2% (worst {worst:.3%}), "
              f"{elapsed * 1e6:.0f} us")


def test_02_inverse_fit_recovery():
    """Fitting the ten (area, frequency) pairs recovers the reference
    capacitance constants inside their uncertainty windows, in under 1 s."""
    start = time.perf_counter()
    ds = extraction.AreaFrequencyDataset(
        rows=tuple((r.area_um2, r.freq_hz) for r in REFERENCE_RESONATORS),
        inductance=INDUCTANCE_GEOMETRIC)
    fit = extraction.fit_frequency_vs_area(ds)
    elapsed = time.perf_counter() - start
    assert 13.5 * FF < fit.cap_per_area < 14.2 * FF
    assert 25 * FF < fit.cap_to_ground < 42 * FF
    assert fit.converged
    assert elapsed < 1.0
    report(2, f"c = {fit.cap_per_area / FF:.2f} fF/um2, "
              f"C_g = {fit.cap_to_ground / FF:.1f} fF, {elapsed * 1e3:.0f} ms")


def test_03_permittivity():
    """Plate permittivity from capacitance per area and thickness
    reproduces the hand values 29.8 (room T) and 18.8 (cryogenic)."""
    eps_rt = circuit.dielectric_constant(ROOM_T_CAP_PER_AREA,
                                         DIELECTRIC_THICKNESS)
    eps_lt = circuit.dielectric_constant(CRYO_CAP_PER_AREA,
                                         DIELECTRIC_THICKNESS)
    assert abs(eps_rt - 29.8) < 0.1
    assert abs(eps_lt - 18.8) < 0.1
    report(3, f"eps(22 fF/um2, 12 nm) = {eps_rt:.2f}, "
              f"eps(13.86 fF/um2, 12 nm) = {eps_lt:.2f}")


def test_04_table_self_consistency():
    """A single implied slope c reproduces the capacitance column within
    1 percent on every row."""
    shared = shared_cap_per_area()
    worst = 0.0
    for row in REFERENCE_RESONATORS:
        rel = abs(shared * row.area_um2 / row.capacitance_f - 1.0)
        worst = max(worst, rel)
        assert rel < 0.01
    report(4, f"shared c = {shared / FF:.2f} fF/um2, worst row {worst:.3%}")


def test_05_circle_fit_round_trip():
    """200 seeded synthetic traces across the reference-chip Q ranges at
    0.3 percent noise: f_r within 1e-6 relative and all Q quantities
    within 5 percent for at least 95 percent of seeds, under 1 s per
    trace."""
    rng = np.random.default_rng(12345)
    misses = []
    slowest = 0.0
    for seed in range(200):
        params, q_in = draw_notch_params(rng)
        trace = rk.synthesize_trace(params, rk.linewidth_grid(params, 5.0, 4001),
                                    noise_sigma=0.003, seed=seed)
        start = time.perf_counter()
        try:
            res = rk.fit_notch(trace)
        except Exception:
            misses.append(seed)
            continue
        slowest = max(slowest, time.perf_counter() - start)
        ok = (abs(res.params.f_r / params.f_r - 1.0) < 1e-6
              and abs(res.q_internal / q_in - 1.0) < 0.05
              and abs(res.params.q_loaded / params.q_loaded - 1.0) < 0.05
              and abs(res.params.q_ext_mag / params.q_ext_mag - 1.0) < 0.05
              and res.converged)
        if not ok:
            misses.append(seed)
    passes = 200 - len(misses)
    assert passes >= 190
    # A kernel change must not trade one of these misses for another.
    assert set(misses) <= {12, 54, 147, 180, 193}
    assert slowest < 1.0
    report(5, f"{passes}/200 seeds within tolerance, slowest trace "
              f"{slowest * 1e3:.0f} ms")


def test_06_tls_sweep_recovery():
    """Synthetic power sweep anchored to the reference chip's first
    resonator (Q_in 4.5e3 near one photon, 4.55e4 near 1e5) with
    3 percent noise: saturation parameters back within 10 percent and
    the single-photon loss tangent inside [2.0, 2.5]e-4."""
    f_r, temp = 7.3e9, 0.01
    gen = tls.solve_endpoint_params(q_low=4.5e3, n_low=1.0, q_high=45.5e3,
                                    n_high=1e5, n_critical=10.0, beta=0.5,
                                    f=f_r, temperature=temp)
    ns = np.geomspace(0.1, 1e6, 15)
    rng = np.random.default_rng(24)
    q = 1.0 / tls.tls_tan_delta(ns, gen, f_r, temp)
    q = q * (1.0 + 0.03 * rng.standard_normal(15))
    sweep = tls.PowerSweep(points=tuple((n, v, 0.03 * v)
                                        for n, v in zip(ns, q)),
                           resonator_freq=f_r, temperature=temp)
    fit = tls.fit_power_sweep(sweep)
    assert fit.converged
    assert abs(fit.params.tan_delta_tls0 / gen.tan_delta_tls0 - 1.0) < 0.1
    assert abs(fit.params.n_critical / gen.n_critical - 1.0) < 0.1
    single = tls.tls_tan_delta(1.0, fit.params, f_r, temp)
    assert 2.0e-4 < single < 2.5e-4
    report(6, f"tls0 err {fit.params.tan_delta_tls0 / gen.tan_delta_tls0 - 1:+.2%}, "
              f"n_c err {fit.params.n_critical / gen.n_critical - 1:+.2%}, "
              f"tan d(1) = {single:.3e}")


def test_07_thermal_factor():
    """tanh(h f / 2 k_B T) at 7 GHz and 10 mK is 1 within 1e-10."""
    value = tls.thermal_factor(7e9, 0.01)
    assert abs(value - 1.0) < 1e-10
    report(7, f"1 - tanh = {1.0 - value:.2e}")


def test_08_dispersive_budget():
    """(7 GHz, 1 GHz, 50 MHz) gives a minimum total Q of 2800, with
    exact inverse-quadratic coupling scaling."""
    base = circuit.dispersive_min_q(DispersiveBudget(7e9, 1e9, 50e6))
    assert base.min_q_total == pytest.approx(2800.0, rel=1e-12)
    assert base.min_q_total > 1000.0
    doubled = circuit.dispersive_min_q(DispersiveBudget(7e9, 1e9, 100e6))
    assert doubled.min_q_total == base.min_q_total / 4.0
    report(8, f"min Q_total = {base.min_q_total:.0f}, g -> 2g scaling exact")


def jacobian_agreement(numeric, analytic):
    """Worst per-column relative deviation.

    Each parameter's gradient is compared against its own magnitude;
    entrywise ratios at zero crossings would measure only differencing
    roundoff.
    """
    col_scale = np.max(np.abs(analytic), axis=0)
    col_scale = np.maximum(col_scale, 1e-300)
    return float(np.max(np.abs(numeric - analytic) / col_scale))


def test_09_numerics_hygiene():
    """Numeric Jacobians match hand-derived analytic gradients within
    1e-5 relative at 100 random points for every bundled model, and so
    does the library's exact notch Jacobian."""
    rng = np.random.default_rng(777)
    worst = {"notch": 0.0, "notch_exact": 0.0, "freq_vs_area": 0.0,
             "tls": 0.0, "debye": 0.0}

    for _ in range(100):
        # notch transmission model, stacked real residuals
        q_e = rng.uniform(6e3, 9e3)
        q_l = rng.uniform(8e2, 0.9 * q_e)
        p = np.array([rng.uniform(6e9, 14e9), q_l, q_e,
                      rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0),
                      rng.uniform(-3.0, 3.0), rng.uniform(0.0, 60e-9)])
        freqs = np.linspace(p[0] * (1 - 5 / q_l), p[0] * (1 + 5 / q_l), 25)

        def notch_resid(q):
            z = s21_model(freqs, q[0], q[1], q[2], q[3], q[4], q[5], q[6])
            return np.concatenate([z.real, z.imag])

        numeric = fitting.numeric_jacobian(
            notch_resid, p, scale=np.array([2e-2, 1, 1, 1, 1, 1, 2e-8]))
        analytic = oracles.notch_s21_gradient(freqs, p)
        worst["notch"] = max(worst["notch"], jacobian_agreement(numeric, analytic))
        exact = s21_jacobian(freqs, *p)
        worst["notch_exact"] = max(worst["notch_exact"], jacobian_agreement(
            np.vstack([exact.real, exact.imag]), analytic))

        # resonance frequency versus area (fit parameterization, fF units)
        c_ff = rng.uniform(5.0, 30.0)
        cg_ff = rng.uniform(10.0, 80.0)
        ind = rng.uniform(0.1, 1.0) * NH
        areas = rng.uniform(20.0, 150.0, size=8)

        def area_resid(q):
            c_tot = (q[1] + q[0] * areas) * FF
            return 1.0 / (TWO_PI * np.sqrt(ind * c_tot))

        numeric = fitting.numeric_jacobian(area_resid,
                                           np.array([c_ff, cg_ff]))
        analytic = oracles.freq_vs_area_gradient(areas, ind, c_ff * FF,
                                                 cg_ff * FF) * FF
        worst["freq_vs_area"] = max(worst["freq_vs_area"],
                                    jacobian_agreement(numeric, analytic))

        # TLS saturation model
        tp = np.array([rng.uniform(1e-5, 1e-3), rng.uniform(0.5, 1e3),
                       rng.uniform(0.1, 1.0), rng.uniform(1e-6, 1e-4)])
        ns = np.geomspace(0.1, 1e6, 12)
        th = tls.thermal_factor(7.3e9, 0.01)

        def tls_resid(q):
            return q[0] * th / (1.0 + ns / q[1]) ** q[2] + q[3]

        numeric = fitting.numeric_jacobian(
            tls_resid, tp, scale=np.array([1e-2, 1.0, 1.0, 1e-2]))
        analytic = oracles.tls_gradient(ns, th, *tp)
        worst["tls"] = max(worst["tls"], jacobian_agreement(numeric, analytic))

        # Debye dispersion
        dp = np.array([rng.uniform(20.0, 40.0), rng.uniform(5.0, 19.0),
                       rng.uniform(0.1, 10.0)])
        omegas = np.geomspace(1e-3, 1e2, 12) / dp[2]

        def debye_resid(q):
            return q[1] + (q[0] - q[1]) / (1.0 + omegas ** 2 * q[2] ** 2)

        numeric = fitting.numeric_jacobian(debye_resid, dp)
        analytic = oracles.debye_gradient(omegas, *dp)
        worst["debye"] = max(worst["debye"], jacobian_agreement(numeric, analytic))

    for name, value in worst.items():
        assert value < 1e-5, f"{name} jacobian mismatch {value:.2e}"
    report(9, "worst relative mismatch: " + ", ".join(
        f"{k} {v:.1e}" for k, v in worst.items()))
