import json
import os

import numpy as np

import resokit as rk
from resokit import cli, traceio


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
        bytes_a = open(out_a.strip(), "rb").read()
        bytes_b = open(out_b.strip(), "rb").read()
        assert bytes_a == bytes_b

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


class TestSweepCommand:
    def test_fit_from_file(self, capsys, tmp_path):
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
        code, out, err = run(capsys, "sweep", "--input", str(path),
                             "--out", str(tmp_path / "rep"))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        tls0 = float(values["tan_delta_tls0"].split(" +- ")[0])
        assert abs(tls0 / gen.tan_delta_tls0 - 1.0) < 0.1
        assert os.path.exists(tmp_path / "rep" / "qin_vs_photons_sweep.svg")


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
        assert lines[0].startswith("error: trace point 1 is not finite")

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
