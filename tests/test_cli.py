import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resokit as rk
from resokit import cli, traceio
from resokit.config import PhysicsOverrides, config_hash
from resokit.fitting import Tolerances
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
        # 169 points over 1.5 linewidths, off centre: the fitted circle
        # center lands past the off-resonant point. That file fails as a
        # fit; the good files around it are fitted and written.
        q_in, q_e, phi = 4010.0, 55960.0, 0.643
        p = rk.NotchParams(f_r=7.647e9, q_ext_mag=q_e, mismatch_phi=phi,
                           q_loaded=1.0 / (1.0 / q_in + np.cos(phi) / q_e),
                           env_gain=1.524, env_phase=0.573,
                           cable_delay=59.66e-9)
        half = 1.474 * p.f_r / p.q_loaded / 2.0
        grid = np.linspace(p.f_r - 1.39 * half, p.f_r + 0.61 * half, 169)
        hard = tmp_path / "hard.csv"
        traceio.write_trace_csv(rk.synthesize_trace(
            p, grid, noise_sigma=2.24e-5, seed=641), str(hard))
        good = write_inputs(tmp_path)["trace"]
        out_dir = tmp_path / "fit"
        code, out, err = run(capsys, "fit", good, str(hard), good,
                             "--out", str(out_dir))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{hard}: fit failed: fitted circle "
                                   "center lies past the off-resonant point")
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
        ("simulate", "--format", "csv"),
        ("sweep", "--input", "s.csv", "--format", "csv"),
        ("area-fit", "--format", "csv"),
    ], ids=" ".join)
    def test_unread_flag_rejected(self, capsys, tmp_path, command):
        # --seed and --format exist only where a subcommand reads them.
        code, out, err = run(capsys, *command, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unrecognized arguments" in err
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


def write_inputs(tmp_path):
    """A notch trace, a power sweep and a resonator table to run the
    subcommands on; returns their paths by kind."""
    from resokit.tls import PowerSweep, solve_endpoint_params, tls_tan_delta
    params = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
    trace = rk.synthesize_trace(params, rk.linewidth_grid(params, 8.0, 401),
                                noise_sigma=0.003, seed=2,
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
        ("table", "resonators.csv"))}
    traceio.write_trace_csv(trace, paths["trace"])
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
    "fit": (("fit", "{trace}"), "mc_draws = 3\n", ("--mc-draws", "3")),
    "sweep": (("sweep", "--input", "{sweep}"), "n_max = 1e3\n",
              ("--n-max", "1e3")),
    "area-fit": (("area-fit",), "l_nh = 0.35\n", ("--l-nh", "0.35")),
    "report": (("report", "--input", "{table}"), "kinetic_fraction = 0.06\n",
               ("--kinetic-fraction", "0.06")),
}


class TestConfigFile:
    """`--config` loads a key = value file into the subcommand's flag
    defaults."""

    @pytest.mark.parametrize("workflow", sorted(CONFIG_CASES))
    def test_key_changes_output(self, capsys, tmp_path, workflow):
        paths = write_inputs(tmp_path)
        command, config, flags = CONFIG_CASES[workflow]
        command = [a.format(**paths) for a in command]
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

    @pytest.mark.parametrize("workflow", ["area-fit", "sweep"])
    def test_no_leak_into_another_subcommand(self, capsys, tmp_path,
                                             workflow):
        # Flags from parent parsers are one object in every subcommand,
        # and set_defaults on one subcommand changes them.
        paths = write_inputs(tmp_path)
        command = {"area-fit": ("area-fit",),
                   "sweep": ("sweep", "--input", paths["sweep"])}[workflow]
        outputs(capsys, tmp_path, "config", command,
                "seed = 9\nkinetic_fraction = 0.06\n")
        outputs(capsys, tmp_path, "plain", ("report", "--input",
                                            paths["table"]))
        configured = json.loads((tmp_path / "config" / "report.json")
                                .read_text())
        plain = json.loads((tmp_path / "plain" / "report.json").read_text())
        default_hash = config_hash(PhysicsOverrides(), Tolerances())
        assert configured["seed"] == 9
        assert configured["config_hash"] != default_hash
        assert plain["seed"] is None
        assert plain["config_hash"] == default_hash
