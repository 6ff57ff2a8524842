import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import resokit as rk
from resokit import cli, traceio
from resokit.report import RESONATOR_COLUMNS, ReportRow, write_report_rows


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesign:
    def test_reference_design_point(self, capsys):
        code, out, err = run(capsys, "design", "--target-ghz", "7.30",
                             "--l-nh", "0.3", "--c-ff-um2", "13.86",
                             "--cg-ff", "33.65")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["area_um2"]) - 113.0) < 2.0
        assert abs(float(values["predicted_freq_ghz"]) - 7.30) < 1e-6

    def test_unreachable_target_is_input_error(self, capsys):
        code, out, err = run(capsys, "design", "--target-ghz", "99.0",
                             "--l-nh", "0.3", "--c-ff-um2", "13.86",
                             "--cg-ff", "33.65")
        assert code == 1
        assert "error" in err.lower()

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l-nh = 0.3\nc-ff-um2 = 13.86\ncg-ff = 33.65\n")
        code, out, _ = run(capsys, "design", "--config", str(cfg),
                           "--target-ghz", "7.30")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["area_um2"]) - 113.0) < 2.0

    def test_leakage_check_and_design_file(self, capsys, tmp_path):
        from resokit import traceio
        code, out, _ = run(capsys, "design", "--target-ghz", "7.30",
                           "--r-ohm-um2", "3e6", "--out", str(tmp_path))
        assert code == 0
        values = {}
        for line in out.strip().splitlines():
            if " = " in line:
                key, _, val = line.partition(" = ")
                values[key] = val
        # Shunt inductance around 31 nH, two orders above the 0.3 nH
        # series inductor: negligible leakage.
        assert abs(float(values["shunt_inductance_nh"]) / 31.0 - 1.0) < 0.05
        assert float(values["shunt_to_series_ratio"]) > 50.0
        design = traceio.read_design(str(tmp_path / "design.cfg"))
        assert abs(design.cap_area - 113.0) < 2.0

    @pytest.mark.parametrize("flag", [("--gap-ev", "2e-4"),
                                      ("--temperature-k", "0.02")],
                             ids=lambda flag: flag[0])
    def test_leakage_flag_needs_r_ohm_um2(self, capsys, tmp_path, flag):
        # The gap and the temperature feed only the leakage check, so
        # either one without --r-ohm-um2 changes nothing: an input error.
        code, out, err = run(capsys, "design", "--target-ghz", "7.3", *flag,
                             "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: --gap-ev and --temperature-k set only the leakage check, "
            "which needs --r-ohm-um2"]
        assert not (tmp_path / "o").exists()

    def test_bad_leakage_input_prints_nothing(self, capsys):
        # The leakage spec is checked before the first result line.
        code, out, err = run(capsys, "design", "--target-ghz", "7.3",
                             "--r-ohm-um2", "3e6", "--temperature-k", "nan")
        assert code == 1
        assert out == ""
        assert err == "error: temperature must be positive and finite\n"


class TestSimulateFit:
    def test_roundtrip(self, capsys, tmp_path):
        out_dir = str(tmp_path / "run")
        code, out, _ = run(capsys, "simulate", "--out", out_dir,
                           "--fr-ghz", "7.3", "--q-in", "4500",
                           "--q-ext", "9000", "--delay-ns", "30",
                           "--noise", "0.003", "--points", "2001",
                           "--span-linewidths", "5", "--seed", "11",
                           "--label", "r01")
        assert code == 0
        trace_path = out.strip()
        assert os.path.exists(trace_path)

        code, out, err = run(capsys, "fit", trace_path, "--out", out_dir)
        assert code == 0
        values = {}
        for line in out.splitlines():
            if " = " in line:
                key, _, val = line.partition(" = ")
                values[key] = val.split(" +- ")[0]
        assert abs(float(values["q_internal"]) / 4500.0 - 1.0) < 0.05
        assert abs(float(values["f_r_hz"]) / 7.3e9 - 1.0) < 1e-6
        assert abs(float(values["cable_delay_s"]) / 30e-9 - 1.0) < 0.02
        assert os.path.exists(os.path.join(out_dir, "fits.csv"))

    def test_seed_determinism(self, capsys, tmp_path):
        args = ["simulate", "--fr-ghz", "7.3", "--q-in", "4500",
                "--q-ext", "9000", "--noise", "0.003", "--seed", "42",
                "--points", "301"]
        code_a, out_a, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
        code_b, out_b, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
        assert code_a == code_b == 0
        assert Path(out_a.strip()).read_bytes() == \
            Path(out_b.strip()).read_bytes()

    def test_photon_number_emitted_with_power(self, capsys, tmp_path):
        out_dir = str(tmp_path / "run")
        code, out, _ = run(capsys, "simulate", "--out", out_dir,
                           "--power-dbm", "-140", "--noise", "0.002",
                           "--seed", "3", "--label", "pwr")
        trace_path = out.strip()
        code, out, _ = run(capsys, "fit", trace_path)
        assert code == 0
        assert "photon_number" in out

    def test_touchstone_input(self, capsys, tmp_path):
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
        grid = rk.linewidth_grid(p, 8.0, 801)
        z = rk.s21_at(p, grid)
        lines = ["! synthetic notch", "# HZ S RI R 50"]
        for f, v in zip(grid, z):
            lines.append(f"{float(f)!r} 0.9 0.0 {float(v.real)!r} "
                         f"{float(v.imag)!r} {float(v.real)!r} "
                         f"{float(v.imag)!r} 0.9 0.0")
        path = tmp_path / "notch.s2p"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "fit", str(path), "--format", "s2p")
        assert code == 0
        values = {}
        for line in out.splitlines():
            if " = " in line:
                key, _, val = line.partition(" = ")
                values[key] = val.split(" +- ")[0]
        assert abs(float(values["q_internal"]) / 4500.0 - 1.0) < 1e-3

    def test_power_batch_emits_sweep_file(self, capsys, tmp_path):
        out_dir = str(tmp_path / "run")
        paths = []
        for i, dbm in enumerate((-145.0, -130.0, -115.0, -100.0)):
            sub = str(tmp_path / f"p{i}")
            code, out, _ = run(capsys, "simulate", "--out", sub,
                               "--power-dbm", str(dbm), "--noise", "0.002",
                               "--seed", str(i), "--label", "r01")
            assert code == 0
            paths.append(out.strip())
        code, out, _ = run(capsys, "fit", *paths, "--out", out_dir)
        assert code == 0
        assert "q_ext_mag_mean[r01]" in out
        sweep_path = os.path.join(out_dir, "sweep_r01.csv")
        assert os.path.exists(sweep_path)
        sweep = traceio.read_power_sweep(sweep_path)
        assert len(sweep.points) == 4
        ns = [pt[0] for pt in sweep.points]
        assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_undetermined_q_internal_error_left_out_of_sweep(self, tmp_path):
        # A power step whose Q_in error is zero or infinite cannot weight
        # a sweep point, and PowerSweep refuses it: the sweep file leaves
        # such steps out.
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
        rows = [("r", rk.NotchFitResult(params=p,
                                        uncertainties={"q_internal": sigma},
                                        residual_rms=0.0, converged=True), n)
                for n, sigma in ((1.0, 10.0), (2.0, math.inf), (3.0, 0.0),
                                 (4.0, 20.0))]
        cli._write_sweeps(argparse.Namespace(out=str(tmp_path),
                                             temperature_k=0.01), rows)
        sweep = traceio.read_power_sweep(str(tmp_path / "sweep_r.csv"))
        assert [n for n, _, _ in sweep.points] == [1.0, 4.0]

    def test_baseline_trace_is_nonconvergence(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        f = np.linspace(7.0e9, 7.1e9, 300)
        z = 0.9 + 0.004 * (rng.standard_normal(300)
                           + 1j * rng.standard_normal(300))
        path = tmp_path / "flat.csv"
        traceio.write_trace_csv(rk.Trace(f, z), str(path))
        code, out, err = run(capsys, "fit", str(path))
        assert code == 2
        assert "fit failed" in err


    def test_mismatch_failure_keeps_batch(self, capsys, tmp_path):
        # 146 points over 52 linewidths of a circle 0.0044 across under
        # 0.0019 noise: the fitted circle center landed past the
        # off-resonant point, and the fit's relative error of 17.5 on
        # |Q_e| now refuses it first (NonphysicalMismatchError has its
        # own library test). That file fails as a fit; the good files
        # around it are fitted and written.
        q_in, q_e, phi = 134.9, 30710.0, 0.988
        p = rk.NotchParams(f_r=5.5488e9, q_ext_mag=q_e, mismatch_phi=phi,
                           q_loaded=1.0 / (1.0 / q_in + np.cos(phi) / q_e),
                           env_gain=1.020, env_phase=-0.910,
                           cable_delay=40.78e-9)
        half = 51.69 * p.f_r / p.q_loaded / 2.0
        grid = np.linspace(p.f_r - 1.057 * half, p.f_r + 0.943 * half, 146)
        hard = tmp_path / "hard.csv"
        traceio.write_trace_csv(rk.synthesize_trace(
            p, grid, noise_sigma=1.874e-3, seed=1316644457), str(hard))
        good = write_inputs(tmp_path)["trace"]
        out_dir = tmp_path / "fit"
        code, out, err = run(capsys, "fit", good, str(hard), good,
                             "--out", str(out_dir))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{hard}: fit failed: unresolved "
                                   "resonance: relative error ")
        assert float(re.search(r" and (\S+) on \|Q_e\|", lines[0])[1]) > 10
        rows = (out_dir / "fits.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["sim", "sim"]


    def test_label_with_comma_refused_in_fits_table(self, capsys, tmp_path):
        # Directive values may hold commas, fits.csv cells may not.
        code, out, _ = run(capsys, "simulate", "--label", "a,b",
                           "--out", str(tmp_path))
        assert code == 0
        out_dir = tmp_path / "fit"
        code, out, err = run(capsys, "fit", out.strip(), "--out", str(out_dir))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "'a,b'" in lines[0]
        assert not (out_dir / "fits.csv").exists()

    def test_label_not_utf8_refused(self, tmp_path):
        # A command-line byte that is not UTF-8 arrives as a lone
        # surrogate, which the trace writer cannot encode. Run as a real
        # process: its stderr escapes the surrogate, capsys would not.
        src = os.path.dirname(os.path.dirname(rk.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "resokit.cli", "simulate", "--label",
             b"\xff", "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            timeout=60)
        assert proc.returncode == 1
        lines = proc.stderr.decode().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def write_sweep(self, tmp_path):
        """The acceptance-06 sweep as a sweep file."""
        from resokit.tls import PowerSweep, solve_endpoint_params, tls_tan_delta
        gen = solve_endpoint_params(4.5e3, 1.0, 45.5e3, 1e5, 10.0, 0.5,
                                    7.3e9, 0.01)
        ns = np.geomspace(0.1, 1e6, 15)
        rng = np.random.default_rng(24)
        q = 1.0 / tls_tan_delta(ns, gen, 7.3e9, 0.01)
        q = q * (1.0 + 0.03 * rng.standard_normal(15))
        sweep = PowerSweep(points=tuple((n, v, 0.03 * v)
                                        for n, v in zip(ns, q)),
                           resonator_freq=7.3e9, temperature=0.01)
        path = tmp_path / "sweep.csv"
        traceio.write_power_sweep(sweep, str(path))
        return gen, path

    def test_fit_from_file(self, capsys, tmp_path):
        gen, path = self.write_sweep(tmp_path)
        code, out, err = run(capsys, "sweep", "--input", str(path),
                             "--out", str(tmp_path / "rep"))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        tls0 = float(values["tan_delta_tls0"].split(" +- ")[0])
        assert abs(tls0 / gen.tan_delta_tls0 - 1.0) < 0.1
        assert os.path.exists(tmp_path / "rep" / "qin_vs_photons_sweep.svg")

    def test_fixed_beta_has_no_uncertainty(self, capsys, tmp_path):
        _, path = self.write_sweep(tmp_path)
        code, out, err = run(capsys, "sweep", "--input", str(path),
                             "--fix-beta")
        # A pinned sweep can still end at the iteration cap: exit 2.
        assert code in (0, 2)
        assert "beta = 0.5 +- 0\n" in out

    def test_undetermined_error_never_prints_zero(self, capsys, tmp_path):
        # Q flat to 1e-9 under sigmas of 1e-4: no TLS signal, and the
        # weighted normal matrix at the fit is singular to rounding. Its
        # inverse has negative tls0 and other variances, which read as
        # undetermined, `+- inf`, not as the `+- 0` of an exact fit.
        from resokit.tls import PowerSweep
        ns = np.geomspace(0.1, 1e6, 8)
        q = 1e4 * (1.0 + 1e-9 * np.random.default_rng(6).standard_normal(8))
        path = tmp_path / "flat.csv"
        traceio.write_power_sweep(PowerSweep(
            points=tuple((n, v, 1e-4 * v) for n, v in zip(ns, q)),
            resonator_freq=7.3e9, temperature=0.01), str(path))
        code, out, err = run(capsys, "sweep", "--input", str(path))
        errors = [line.split(" +- ")[1] for line in out.splitlines()
                  if " +- " in line]
        assert len(errors) == 4 and "0" not in errors
        assert errors.count("inf") >= 2

    @pytest.mark.parametrize("sigma", [1e300, 1e-200])
    def test_extreme_sigma_is_input_error(self, capsys, tmp_path, sigma):
        # sigma / q^2 squared overflows (1e300) or underflows to zero
        # (1e-200): no usable fit weight, so the point is bad input.
        ns = np.geomspace(0.1, 1e6, 8).tolist()
        qs = np.geomspace(4e3, 4e4, 8).tolist()
        rows = [f"{n!r},{q!r},{0.03 * q!r}" for n, q in zip(ns, qs)]
        rows[3] = f"{ns[3]!r},{qs[3]!r},{sigma!r}"
        path = tmp_path / "sweep.csv"
        path.write_text("# resonator_freq_hz = 7.3e9\n# temperature_k = 0.01\n"
                        "photon_number,q_internal,sigma\n"
                        + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "sweep", "--input", str(path))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"error: power-sweep point at photon number {ns[3]:g} ")
        assert f"sigma {sigma:g}" in lines[0]


class TestHostileTraceFiles:
    """`resokit fit` on small hostile trace files: every run exits 0, 1
    or 2 without a traceback, an input error is one `error:` line, and a
    fit failure is one `fit failed` line that does not stop the batch."""

    CASES = ("eight_points", "narrow_span", "band_edge", "high_q",
             "heavy_noise")

    @staticmethod
    def write(tmp_path, case, seed=0) -> str:
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0,
                           mismatch_phi=0.2, env_gain=0.8, env_phase=0.4,
                           cable_delay=40e-9)
        noise = 0.003
        if case == "high_q":
            p = dataclasses.replace(p, q_loaded=2e5, q_ext_mag=4e5)
        if case == "eight_points":
            grid = rk.linewidth_grid(p, 5.0, 8)
        elif case == "narrow_span":
            grid = rk.linewidth_grid(p, 0.05, 401)
        elif case == "band_edge":
            grid = np.linspace(p.f_r, p.f_r + 10.0 * p.f_r / p.q_loaded, 401)
        else:
            grid = rk.linewidth_grid(p, 5.0, 401)
        if case == "heavy_noise":
            noise = 0.5 * p.env_gain
        path = str(tmp_path / f"{case}_{seed}.csv")
        traceio.write_trace_csv(rk.synthesize_trace(
            p, grid, noise_sigma=noise, seed=seed,
            metadata={"label": case}), path)
        return path

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", CASES)
    def test_one_file(self, capsys, tmp_path, case, seed):
        path = self.write(tmp_path, case, seed)
        code, out, err = run(capsys, "fit", path)
        lines = err.strip().splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        elif code == 2 and lines:
            assert len(lines) == 1
            assert lines[0].startswith(f"{path}: fit failed: ")
        elif code == 2:
            assert "converged = False" in out
        else:
            assert code == 0 and not lines
            assert "converged = True" in out

    def test_fit_failures_keep_batch(self, tmp_path):
        # A real process, so a traceback or a warning would show on its
        # stderr. The window of 0.1 linewidths fails as a fit in every
        # run; the eight-point trace fits.
        good = write_inputs(tmp_path)["trace"]
        hostile = [self.write(tmp_path, case) for case in self.CASES]
        src = os.path.dirname(os.path.dirname(rk.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "resokit.cli", "fit", good, *hostile,
             good, "--out", str(tmp_path / "fit")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        failed = proc.stderr.strip().splitlines()
        assert all(": fit failed: " in line for line in failed)
        assert any(line.startswith(f"{hostile[1]}: ") for line in failed)
        rows = (tmp_path / "fit" / "fits.csv").read_text().splitlines()[1:]
        labels = [row.split(",")[0] for row in rows]
        assert len(labels) + len(failed) == len(hostile) + 2
        assert labels[0] == labels[-1] == "sim"


class TestAreaFitCommand:
    def test_bundled_reference(self, capsys, tmp_path):
        code, out, _ = run(capsys, "area-fit", "--out", str(tmp_path / "rep"))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        c = float(values["cap_per_area_ff_um2"].split(" +- ")[0])
        cg = float(values["cap_to_ground_ff"].split(" +- ")[0])
        assert 13.5 < c < 14.2
        assert 25.0 < cg < 42.0
        eps = float(values["dielectric_constant_12nm"])
        assert abs(eps - 18.8) < 0.3
        assert os.path.exists(tmp_path / "rep" / "freq_vs_area.svg")

    @pytest.mark.parametrize("flags, digest", [
        ((), "8ed41852f8cffd27684906474134d5f6"
             "9672783af5b2c388ce6b073dcc0c0795"),
        (("--kinetic-fraction", "0.06"), "71e50710073d2ee5199786082c335dc2"
                                         "cbbcdcdd7f0cf40bcbf4f765745bccc0"),
    ], ids=["default", "kinetic_0.06"])
    def test_manifest_hash_pinned(self, capsys, tmp_path, flags, digest):
        # The manifest hashes the fitted dataset's kinetic fraction and
        # the solver's constants; these digests must not move.
        code, _, _ = run(capsys, "area-fit", *flags, "--out", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "report.json").read_text())
        assert manifest["config_hash"] == digest

    def test_undetermined_error_never_prints_zero(self, capsys, tmp_path):
        # Five areas within 1.2e-10 of each other: the normal matrix at
        # the fit is singular to rounding, and its inverse has negative
        # variances. Both constants read as undetermined, `+- inf`, not
        # as the `+- 0` of an exact fit.
        rows = [(1.458458566595887, 7299999952.700358),
                (1.458458566770888, 7303486409.151894),
                (1.4584585669458892, 7299771852.895368),
                (1.4584585671208905, 7297845411.626762),
                (1.4584585672958916, 7299999824.836318)]
        path = tmp_path / "areas.csv"
        path.write_text("area_um2,freq_hz\n" + "".join(
            f"{s!r},{f!r}\n" for s, f in rows))
        code, out, _ = run(capsys, "area-fit", "--input", str(path))
        assert code == 0
        assert re.search(r"^cap_per_area_ff_um2 = .* \+- inf$", out, re.M)
        assert re.search(r"^cap_to_ground_ff = .* \+- inf$", out, re.M)

    def test_near_equal_areas_are_singular(self, capsys, tmp_path):
        # Three areas 1.2e-6 um^2 apart: the design matrix passes the
        # singular-value check, but its normal matrix is singular to
        # rounding. The run ends as DegenerateDataError, exit 2 with one
        # `error:` line, not a numpy traceback.
        path = tmp_path / "areas.csv"
        path.write_text("area_um2,freq_hz\n912.4295161119187,7.3e9\n"
                        "912.4295173529637,7.2999e9\n"
                        "912.4295185940086,7.2998e9\n")
        code, out, err = run(capsys, "area-fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: area-frequency system is singular\n"

    def test_csv_input(self, capsys, tmp_path):
        from resokit.refdata import REFERENCE_RESONATORS
        lines = ["area_um2,freq_hz"]
        for r in REFERENCE_RESONATORS:
            lines.append(f"{r.area_um2!r},{r.freq_hz!r}")
        path = tmp_path / "areas.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "area-fit", "--input", str(path),
                           "--l-nh", "0.3")
        assert code == 0

    def test_plot_follows_fit_with_kinetic_fraction(self, capsys, tmp_path):
        # The fit curve of freq_vs_area.svg, read back through the tick
        # labels, passes through the fitted model at the data areas.
        from resokit import svgplot
        from resokit.refdata import INDUCTANCE_GEOMETRIC, REFERENCE_RESONATORS
        code, _, _ = run(capsys, "area-fit", "--kinetic-fraction", "0.06",
                         "--out", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "freq_vs_area.svg").read_text()

        def axis(pattern, offset=0.0):
            # The linear map through the first and last tick label; a
            # label sits `offset` px from its tick.
            ticks = [(float(p) - offset, float(v))
                     for p, v in re.findall(pattern, svg)]
            (p0, v0), (p1, v1) = ticks[0], ticks[-1]
            return lambda p: v0 + (np.asarray(p) - p0) * (v1 - v0) / (p1 - p0)

        x_tick_y = svgplot.HEIGHT - svgplot.MARGIN_B + 20
        to_area = axis(rf'<text x="([\d.]+)" y="{x_tick_y}" '
                       r'text-anchor="middle"[^>]*>([^<]+)</text>')
        to_ghz = axis(rf'<text x="{svgplot.MARGIN_L - 8}" y="([\d.]+)" '
                      r'text-anchor="end"[^>]*>([^<]+)</text>', offset=4.0)
        points = re.search(r'<polyline points="([^"]+)"', svg).group(1)
        px, py = np.array([p.split(",") for p in points.split()],
                          dtype=float).T
        curve_area, curve_ghz = to_area(px), to_ghz(py)

        rows = tuple((r.area_um2, r.freq_hz) for r in REFERENCE_RESONATORS)
        fit = rk.fit_frequency_vs_area(rk.AreaFrequencyDataset(
            rows=rows, inductance=INDUCTANCE_GEOMETRIC, kinetic_fraction=0.06))
        for area, _ in rows:
            expected = rk.resonance_frequency(rk.ResonatorDesign(
                INDUCTANCE_GEOMETRIC, area, fit.cap_per_area,
                fit.cap_to_ground, 0.06)) / 1e9
            drawn = np.interp(area, curve_area, curve_ghz)
            assert drawn == pytest.approx(expected, rel=1e-3)


class TestReportCommand:
    def test_compare_sessions(self, capsys, tmp_path):
        from resokit.report import ReportRow, write_report_rows
        rows = [ReportRow("r01", 7.30e9, 113.2, 1.56e-12, 9e3, 45.5e3,
                          4.5e3, 2.22e-4)]
        shifted = [ReportRow("r01", 7.30e9 + 70e6, 113.2, 1.56e-12, 9e3,
                             45.5e3, 4.5e3, 2.22e-4)]
        write_report_rows(rows, str(tmp_path / "a.csv"))
        write_report_rows(shifted, str(tmp_path / "b.csv"))
        code, out, _ = run(capsys, "report", "--input", str(tmp_path / "a.csv"),
                           "--compare", str(tmp_path / "b.csv"),
                           "--out", str(tmp_path / "rep"))
        assert code == 0
        text = (tmp_path / "rep" / "comparison.csv").read_text()
        assert "70000000.0" in text
        manifest = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert "comparison.csv" in manifest["artifacts"]


    def test_shared_label_plots_do_not_overwrite(self, capsys, tmp_path):
        # Two power steps of one resonator share the label r01: each
        # plot is named by its file stem and titled by the label.
        paths = write_inputs(tmp_path)
        trace = traceio.parse_trace_csv(paths["trace"])
        trace.metadata["label"] = "r01"
        for stem in ("r01_p0", "r01_p1"):
            traceio.write_trace_csv(trace, str(tmp_path / f"{stem}.csv"))
        code, out, _ = run(capsys, "report", "--input", paths["table"],
                           "--traces", str(tmp_path / "r01_p0.csv"),
                           str(tmp_path / "r01_p1.csv"),
                           "--out", str(tmp_path / "rep"))
        assert code == 0
        manifest = json.loads((tmp_path / "rep" / "report.json").read_text())
        plots = [a for a in manifest["artifacts"] if a.startswith("trace_")]
        assert plots == ["trace_r01_p0.svg", "trace_r01_p1.svg"]
        for name in plots:
            assert "|S21| r01" in (tmp_path / "rep" / name).read_text()

    def test_label_markup_is_escaped(self, capsys, tmp_path):
        # A label is free text: the plot titled by it must still be
        # well-formed XML.
        table = write_inputs(tmp_path)["table"]
        code, out, _ = run(capsys, "simulate", "--label", "r<1>&x",
                           "--out", str(tmp_path))
        assert code == 0
        code, _, _ = run(capsys, "report", "--input", table, "--traces",
                         out.strip(), "--out", str(tmp_path / "rep"))
        assert code == 0
        svg = (tmp_path / "rep" / "trace_trace_r<1>&x.svg").read_text()
        texts = xml.dom.minidom.parseString(svg).getElementsByTagName("text")
        assert texts[0].firstChild.data == "|S21| r<1>&x"

    @pytest.mark.parametrize("flag,kind", [("--traces", "trace"),
                                           ("--sweeps", "sweep")])
    def test_repeated_file_stems_refused(self, capsys, tmp_path, flag, kind):
        # a/x.csv and b/x.csv would both be plotted as one file name.
        paths = write_inputs(tmp_path)
        copy = tmp_path / "b" / os.path.basename(paths[kind])
        copy.parent.mkdir()
        copy.write_bytes(Path(paths[kind]).read_bytes())
        out_dir = tmp_path / "rep"
        code, out, err = run(capsys, "report", "--input", paths["table"],
                             flag, paths[kind], str(copy),
                             "--out", str(out_dir))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: repeated plot names")
        assert not out_dir.exists()


class TestErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_file_exits_1(self, capsys):
        code, out, err = run(capsys, "fit", "/nonexistent/trace.csv")
        assert code == 1

    def test_no_arguments_exits_1(self, capsys):
        code, out, err = run(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_simulate_rejects_s2p_output(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate", "--out", str(tmp_path),
                             "--format", "s2p")
        assert code == 1

    @pytest.mark.parametrize("command", [
        ("design", "--target-ghz", "7.3", "--seed", "5"),
        ("design", "--target-ghz", "7.3", "--format", "csv"),
        ("fit", "t.csv", "--seed", "1"),
        ("fit", "t.csv", "--mc-draws", "3"),
        ("simulate", "--format", "csv"),
        ("sweep", "--input", "s.csv", "--format", "csv"),
        ("area-fit", "--format", "csv"),
        ("sweep", "--input", "s.csv", "--seed", "3"),
        ("sweep", "--input", "s.csv", "--kinetic-fraction", "0.06"),
        ("sweep", "--input", "s.csv", "--gap-ev", "2e-4"),
        ("area-fit", "--seed", "3"),
        ("area-fit", "--gap-ev", "2e-4"),
        ("report", "--input", "r.csv", "--seed", "3"),
        ("report", "--input", "r.csv", "--kinetic-fraction", "0.06"),
        ("report", "--input", "r.csv", "--gap-ev", "2e-4"),
    ], ids=" ".join)
    def test_unread_flag_rejected(self, capsys, tmp_path, command):
        # --seed, --format, --kinetic-fraction and --gap-ev exist only
        # where a subcommand reads them.
        code, out, err = run(capsys, *command, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unrecognized arguments" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ("simulate", "--q-in", "0"),
        ("simulate", "--q-ext", "0"),
        ("simulate", "--q-ext", "inf"),
        ("simulate", "--points", "-3"),
        ("simulate", "--power-dbm", "1e5"),
        ("simulate", "--span-linewidths", "nan"),
        ("simulate", "--noise", "nan"),
        ("simulate", "--power-dbm=-inf"),
        ("simulate", "--gain", "inf"),
        ("simulate", "--env-phase-rad", "inf"),
        ("simulate", "--delay-ns", "nan"),
        ("simulate", "--fr-ghz", "inf"),
        ("simulate", "--noise", "inf"),
        ("design", "--target-ghz", "1e-300"),
        ("design", "--target-ghz", "nan"),
        ("design", "--target-ghz", "7.3", "--r-ohm-um2", "nan"),
        ("design", "--target-ghz", "7.3", "--c-ff-um2", "inf"),
        ("design", "--target-ghz", "7.3", "--l-nh", "inf"),
        ("design", "--target-ghz", "7.3", "--cg-ff", "inf"),
        ("design", "--target-ghz", "7.3", "--kinetic-fraction", "1"),
        ("design", "--target-ghz", "7.3", "--r-ohm-um2", "inf"),
        ("design", "--target-ghz", "7.3", "--r-ohm-um2", "3e6",
         "--temperature-k", "inf"),
        ("design", "--target-ghz", "7.3", "--r-ohm-um2", "3e6",
         "--temperature-k", "-1"),
        ("design", "--target-ghz", "7.3", "--r-ohm-um2", "3e6",
         "--gap-ev", "1"),
        ("area-fit", "--l-nh", "nan"),
        ("area-fit", "--l-nh", "inf"),
        ("area-fit", "--kinetic-fraction", "1"),
        ("fit", "{low}", "{high}", "--temperature-k", "nan"),
        ("fit", "{low}", "{high}", "--temperature-k", "inf"),
        ("sweep", "--input", "{sweep}", "--n-max", "nan"),
    ], ids=" ".join)
    def test_bad_number_is_input_error(self, capsys, tmp_path, command):
        # A number no law accepts, NaN included, ends in one `error:`
        # line and exit 1: no traceback, no warning and no output
        # directory.
        paths = write_inputs(tmp_path)
        code, out, err = run(capsys, *(arg.format(**paths) for arg in command),
                             "--out", str(tmp_path / "o"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_missing_second_input_writes_nothing(self, capsys, tmp_path):
        paths = write_inputs(tmp_path)
        out_dir = tmp_path / "fit"
        code, out, err = run(capsys, "fit", paths["trace"],
                             str(tmp_path / "missing.csv"),
                             "--out", str(out_dir))
        assert code == 1
        assert "label = sim" in out
        assert err.count("error: ") == 1 and "missing.csv" in err
        assert not out_dir.exists()


class TestNonNumericCells:
    """A cell that is not a number ends in exit 1 and one `error:` line
    that quotes the row, for every table reader."""

    def assert_input_error(self, capsys, row, *args):
        code, out, err = run(capsys, *args)
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert row in lines[0]
        return lines[0]

    # Per CSV reader: the command (with {path} and {out}), the lines
    # before the data, a good row, a row with a non-numeric cell and a
    # row with the wrong number of cells.
    CSV_READERS = {
        "trace": (("fit", "{path}"), "# meta.label = r01\nfreq_hz,re,im\n",
                  "7.29e9,0.9,0.0", "7.3e9,0.9,abc", "7.3e9,0.9"),
        "sweep": (("sweep", "--input", "{path}"),
                  "# resonator_freq_hz = 7.3e9\n# temperature_k = 0.01\n"
                  "photon_number,q_internal,sigma\n",
                  "1,2e5,3e3", "10,abc,3e3", "10,2e5,3e3,4"),
        "area": (("area-fit", "--input", "{path}"), "area_um2,freq_hz\n",
                 "100.0,7.3e9", "120.0,7.1x9", "120.0"),
        "report": (("report", "--input", "{path}", "--out", "{out}"),
                   ",".join(RESONATOR_COLUMNS) + "\n",
                   "r01,7.3e9,113.2,1.56e-12,9e3,4.55e4,4.5e3,2.2e-4",
                   "r02,7.3e9,113.2,1.56e-12,9e3,n/a,4.5e3,2.2e-4",
                   "r02,7.3e9,113.2,1.56e-12,9e3,4.55e4,4.5e3"),
    }

    @pytest.mark.parametrize("fault", ["non_numeric", "column_count"])
    @pytest.mark.parametrize("reader", sorted(CSV_READERS))
    def test_bad_row_names_file_line(self, capsys, tmp_path, reader, fault):
        command, head, good, non_numeric, miscounted = \
            self.CSV_READERS[reader]
        bad = non_numeric if fault == "non_numeric" else miscounted
        path = tmp_path / "table.csv"
        path.write_text(head + good + "\n" + bad + "\n")
        lineno = head.count("\n") + 2
        args = [a.format(path=path, out=tmp_path / "rep") for a in command]
        line = self.assert_input_error(capsys, repr(bad), *args)
        assert line.startswith(f"error: {path}:{lineno}: ")
        assert not (tmp_path / "rep").exists()

    def test_sweep_reader(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("# resonator_freq_hz = 7.3e9\n# temperature_k = 0.01\n"
                        "photon_number,q_internal,sigma\n1,abc,3\n")
        self.assert_input_error(capsys, "1,abc,3", "sweep", "--input",
                                str(path))

    def test_sweep_directive(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("# resonator_freq_hz = 7.3e9\n# temperature_k = cold\n"
                        "photon_number,q_internal,sigma\n1,2e5,3e3\n")
        self.assert_input_error(capsys, "'cold'", "sweep", "--input",
                                str(path))

    def test_touchstone_reader(self, capsys, tmp_path):
        path = tmp_path / "notch.s2p"
        path.write_text("# HZ S RI R 50\n"
                        "7.3e9 0.9 0.0 abc 0.1 0.9 0.1 0.9 0.0\n")
        self.assert_input_error(capsys, "7.3e9 0.9 0.0 abc", "fit",
                                str(path))

    def test_area_reader(self, capsys, tmp_path):
        path = tmp_path / "areas.csv"
        path.write_text("area_um2,freq_hz\n100.0,7.3e9\n120.0,7.1x9\n")
        self.assert_input_error(capsys, "120.0,7.1x9", "area-fit", "--input",
                                str(path), "--l-nh", "0.3")

    def test_report_reader(self, capsys, tmp_path):
        from resokit.report import RESONATOR_COLUMNS
        path = tmp_path / "resonators.csv"
        path.write_text(",".join(RESONATOR_COLUMNS) + "\n"
                        "r01,7.3e9,113.2,1.56e-12,9e3,n/a,4.5e3,2.2e-4\n")
        self.assert_input_error(capsys, "r01,7.3e9,113.2", "report",
                                "--input", str(path),
                                "--out", str(tmp_path / "rep"))


class TestNonFiniteSamples:
    """A trace file whose numbers parse but are not finite ends in exit 1
    and one `error:` line that names the point."""

    def assert_input_error(self, capsys, *args):
        code, out, err = run(capsys, *args)
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"error: {args[-1]}: trace point 1 is not finite")

    def test_csv_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        rows = [f"{7.29e9 + 1e6 * i!r},0.9,0.0" for i in range(12)]
        rows[1] = "7291000000.0,nan,0.1"
        path.write_text("freq_hz,re,im\n" + "\n".join(rows) + "\n")
        self.assert_input_error(capsys, "fit", str(path))

    def test_touchstone_trace(self, capsys, tmp_path):
        path = tmp_path / "notch.s2p"
        rows = [f"{7.29e9 + 1e6 * i!r} 0.9 0.0 0.9 0.1 0.9 0.1 0.9 0.0"
                for i in range(12)]
        rows[1] = "7291000000.0 0.9 0.0 0.9 inf 0.9 0.1 0.9 0.0"
        path.write_text("# HZ S RI R 50\n" + "\n".join(rows) + "\n")
        self.assert_input_error(capsys, "fit", str(path))

    def test_csv_db_infinite_magnitude(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        rows = [f"{7.29e9 + 1e6 * i!r},-1.0,0.1" for i in range(12)]
        rows[1] = "7291000000.0,inf,0.1"
        path.write_text("freq_hz,mag_db,phase_rad\n" + "\n".join(rows) + "\n")
        self.assert_input_error(capsys, "fit", str(path))

    def test_touchstone_db_overflow(self, capsys, tmp_path):
        path = tmp_path / "notch.s2p"
        rows = [f"{7.29e9 + 1e6 * i!r} 0.9 0.0 -1.0 10.0 -1.0 10.0 0.9 0.0"
                for i in range(12)]
        rows[1] = "7291000000.0 0.9 0.0 1e6 10.0 -1.0 10.0 0.9 0.0"
        path.write_text("# HZ S DB R 50\n" + "\n".join(rows) + "\n")
        self.assert_input_error(capsys, "fit", str(path))


class TestDomainErrorNamesFile:
    """A file that parses but fails a Trace or PowerSweep check ends in
    exit 1 and one `error:` line that names the file."""

    def assert_input_error(self, capsys, path, *args):
        code, out, err = run(capsys, *args)
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: ")

    def test_report_unordered_trace(self, capsys, tmp_path):
        paths = write_inputs(tmp_path)
        path = tmp_path / "order.csv"
        path.write_text("freq_hz,re,im\n1e9,1,0\n3e9,1,0\n2e9,1,0\n")
        self.assert_input_error(capsys, path, "report", "--input",
                                paths["table"], "--traces", paths["trace"],
                                str(path), "--out", str(tmp_path / "rep"))
        assert not (tmp_path / "rep").exists()

    def test_sweep_unordered_photons(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("# resonator_freq_hz = 7.3e9\n# temperature_k = 0.01\n"
                        "photon_number,q_internal,sigma\n"
                        "10,9e3,270\n1,4.5e3,135\n")
        self.assert_input_error(capsys, path, "sweep", "--input", str(path))

    @pytest.mark.parametrize("cell", ["resonator_freq_hz", "temperature_k",
                                      "photon_number", "q_internal", "sigma"])
    def test_sweep_infinite_value(self, capsys, tmp_path, cell):
        values = {"resonator_freq_hz": "7.3e9", "temperature_k": "0.01",
                  "photon_number": "10", "q_internal": "9e3", "sigma": "270"}
        values[cell] = "inf"
        path = tmp_path / "sweep.csv"
        path.write_text(
            "# resonator_freq_hz = {resonator_freq_hz}\n"
            "# temperature_k = {temperature_k}\n"
            "photon_number,q_internal,sigma\n1,4.5e3,135\n"
            "{photon_number},{q_internal},{sigma}\n".format(**values))
        self.assert_input_error(capsys, path, "sweep", "--input", str(path),
                                "--out", str(tmp_path / "sw"))
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("power", ["-1e-16", "nan", "inf", "0.0"])
    def test_fit_applied_power(self, capsys, tmp_path, power):
        # A trace's drive power is positive and finite, also in a batch
        # with another trace of its label.
        paths = write_inputs(tmp_path)
        text = Path(paths["high"]).read_text()
        assert "# power_w = 1e-16\n" in text
        path = tmp_path / "power.csv"
        path.write_text(text.replace("# power_w = 1e-16",
                                     f"# power_w = {power}"))
        self.assert_input_error(capsys, path, "fit", paths["low"], str(path),
                                "--out", str(tmp_path / "fit"))
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("row, message", [
        ("-120.0,7.1e9", "areas and frequencies must be positive and finite"),
        ("120.0,inf", "areas and frequencies must be positive and finite"),
        ("100.0,7.1e9", "areas must be distinct"),
    ], ids=["negative_area", "infinite_frequency", "repeated_area"])
    def test_area_fit_bad_rows(self, capsys, tmp_path, row, message):
        path = tmp_path / "areas.csv"
        path.write_text(f"area_um2,freq_hz\n100.0,7.3e9\n{row}\n")
        code, _, err = run(capsys, "area-fit", "--input", str(path))
        assert code == 1
        assert err.splitlines() == [f"error: {path}: {message}"]

    def test_fit_batch_stops_at_input_error(self, capsys, tmp_path):
        good = write_inputs(tmp_path)["trace"]
        path = tmp_path / "order.csv"
        path.write_text("freq_hz,re,im\n1e9,1,0\n3e9,1,0\n2e9,1,0\n")
        code, out, err = run(capsys, "fit", good, str(path), good,
                             "--out", str(tmp_path / "batch"))
        assert code == 1
        assert out.count("label = ") == 1
        assert err.strip().splitlines() == [
            f"error: {path}: trace frequencies must be strictly increasing: "
            "point 2 at 2000000000.0 Hz follows point 1 at 3000000000.0 Hz"]
        assert not (tmp_path / "batch").exists()


def write_inputs(tmp_path):
    """A notch trace, two traces of one label at two drive powers, a
    power sweep and a resonator table to run the subcommands on; returns
    their paths by kind."""
    from resokit.tls import PowerSweep, solve_endpoint_params, tls_tan_delta
    params = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
    grid = rk.linewidth_grid(params, 8.0, 401)
    trace = rk.synthesize_trace(params, grid, noise_sigma=0.003, seed=2,
                                metadata={"label": "sim"})
    gen = solve_endpoint_params(4.5e3, 1.0, 45.5e3, 1e5, 10.0, 0.5,
                                7.3e9, 0.01)
    ns = np.geomspace(0.1, 1e6, 15)
    q = 1.0 / tls_tan_delta(ns, gen, 7.3e9, 0.01)
    q = q * (1.0 + 0.03 * np.random.default_rng(24).standard_normal(15))
    sweep = PowerSweep(points=tuple((n, v, 0.03 * v) for n, v in zip(ns, q)),
                       resonator_freq=7.3e9, temperature=0.01)
    paths = {kind: str(tmp_path / name) for kind, name in (
        ("trace", "trace.csv"), ("sweep", "sweep.csv"),
        ("table", "resonators.csv"), ("low", "low.csv"),
        ("high", "high.csv"))}
    traceio.write_trace_csv(trace, paths["trace"])
    for seed, (kind, power) in enumerate((("low", 1e-17), ("high", 1e-16))):
        traceio.write_trace_csv(rk.synthesize_trace(
            params, grid, noise_sigma=0.003, seed=seed, applied_power_w=power,
            metadata={"label": "pwr"}), paths[kind])
    traceio.write_power_sweep(sweep, paths["sweep"])
    write_report_rows([ReportRow("r01", 7.3e9, 113.2, 1.56e-12, 9e3, 45.5e3,
                                 4.5e3, 2.22e-4)], paths["table"])
    return paths


def outputs(capsys, tmp_path, name, command, config=None, flags=()):
    """Exit code, stdout and the files written by one run into
    tmp_path/name, with that directory's path taken out of stdout so
    that runs compare."""
    out_dir = tmp_path / name
    args = [*command, *flags, "--out", str(out_dir)]
    if config is not None:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        args += ["--config", str(cfg)]
    code, out, _ = run(capsys, *args)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))} \
        if out_dir.exists() else {}
    return code, out.replace(str(out_dir), "OUT"), files


# Per subcommand: the command, a config file and the flags that say the
# same.
CONFIG_CASES = {
    "design": (("design", "--target-ghz", "7.3"), "l_nh = 0.35\n",
               ("--l-nh", "0.35")),
    "simulate": (("simulate", "--points", "301"), "seed = 5\nnoise = 0.01\n",
                 ("--seed", "5", "--noise", "0.01")),
    "fit": (("fit", "{low}", "{high}"), "temperature_k = 0.05\n",
            ("--temperature-k", "0.05")),
    "sweep": (("sweep", "--input", "{sweep}"), "n_max = 1e3\n",
              ("--n-max", "1e3")),
    "area-fit": (("area-fit",), "l_nh = 0.35\n", ("--l-nh", "0.35")),
    "report": (("report", "--input", "{table}"), "compare = {table}\n",
               ("--compare", "{table}")),
}


class TestConfigFile:
    """`--config` loads a key = value file into the subcommand's flag
    defaults."""

    @pytest.mark.parametrize("workflow", sorted(CONFIG_CASES))
    def test_key_changes_output(self, capsys, tmp_path, workflow):
        paths = write_inputs(tmp_path)
        command, config, flags = CONFIG_CASES[workflow]
        command = [a.format(**paths) for a in command]
        config = config.format(**paths)
        flags = [a.format(**paths) for a in flags]
        default = outputs(capsys, tmp_path, "default", command)
        configured = outputs(capsys, tmp_path, "config", command, config)
        flagged = outputs(capsys, tmp_path, "flags", command, flags=flags)
        assert configured == flagged
        assert configured != default

    @pytest.mark.parametrize("key", ["c-ff-um2", "c_ff_um2"])
    def test_dashed_and_underscored_keys(self, capsys, tmp_path, key):
        command = ("design", "--target-ghz", "7.3")
        configured = outputs(capsys, tmp_path, "config", command,
                             f"{key} = 14.2\n")
        flagged = outputs(capsys, tmp_path, "flags", command,
                          flags=("--c-ff-um2", "14.2"))
        assert configured == flagged
        assert configured != outputs(capsys, tmp_path, "default", command)

    def test_flag_wins_over_file(self, capsys, tmp_path):
        command = ("design", "--target-ghz", "7.3", "--l-nh", "0.35")
        configured = outputs(capsys, tmp_path, "config", command,
                             "l_nh = 0.5\n")
        assert configured == outputs(capsys, tmp_path, "flags", command)

    @pytest.mark.parametrize("command, config, key", [
        (("design", "--target-ghz", "7.3"), "l_nhh = 0.3", "l_nhh"),
        (("simulate",), "kinetic_fraction = 0.06", "kinetic_fraction"),
        (("sweep", "--input", "s.csv"), "fix_beta = 1", "fix_beta"),
        (("fit", "t.csv"), "config = other.cfg", "config"),
        (("fit", "t.csv"), "inputs = t.csv", "inputs"),
        (("report", "--input", "r.csv"), "traces = t.csv", "traces"),
        (("design", "--target-ghz", "7.3"), "target-ghz = 7.1", "target-ghz"),
        (("fit", "t.csv"), "format = xls", "format"),
        (("simulate",), "seed = 1.5", "seed"),
        (("design", "--target-ghz", "7.3"), "seed = 5", "seed"),
        (("simulate",), "format = csv", "format"),
        (("sweep", "--input", "s.csv"), "seed = 3", "seed"),
        (("sweep", "--input", "s.csv"), "kinetic_fraction = 0.06",
         "kinetic_fraction"),
        (("sweep", "--input", "s.csv"), "gap_ev = 2e-4", "gap_ev"),
        (("area-fit",), "seed = 3", "seed"),
        (("area-fit",), "gap-ev = 2e-4", "gap-ev"),
        (("report", "--input", "r.csv"), "seed = 3", "seed"),
        (("report", "--input", "r.csv"), "kinetic-fraction = 0.06",
         "kinetic-fraction"),
        (("report", "--input", "r.csv"), "gap_ev = 2e-4", "gap_ev"),
    ])
    def test_bad_key_or_value_exits_1(self, capsys, tmp_path, command, config,
                                      key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        code, out, err = run(capsys, *command, "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {cfg}: ")
        assert repr(key) in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workflow", ["fit", "report"])
    def test_no_leak_into_another_subcommand(self, capsys, tmp_path,
                                             workflow):
        # Flags from parent parsers are one object in every subcommand,
        # and set_defaults on one subcommand changes them. A CSV trace
        # under a Touchstone name reads only with `format = csv`.
        paths = write_inputs(tmp_path)
        trace = tmp_path / "sim.s2p"
        trace.write_bytes(Path(paths["trace"]).read_bytes())
        commands = {"fit": ("fit", str(trace)),
                    "report": ("report", "--input", paths["table"],
                               "--traces", str(trace))}
        configured = outputs(capsys, tmp_path, "config", commands[workflow],
                             "format = csv\n")
        assert configured[0] == 0
        other, = set(commands) - {workflow}
        code, out, err = run(capsys, *commands[other],
                             "--out", str(tmp_path / "plain"))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {trace}:")
        assert "two-port row" in err
        assert not (tmp_path / "plain").exists()


def test_import_loads_no_report_module():
    # fit, simulate and design write no report, so the CLI imports the
    # report module (and svgplot with it) only in the commands that do.
    src = os.path.dirname(os.path.dirname(rk.__file__))
    probe = ("import sys, resokit.cli; print(*sorted(name for name in "
             "('resokit.report', 'resokit.svgplot') if name in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
