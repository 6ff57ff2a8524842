import dataclasses
import json
import os
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import resokit as rk
from resokit import extraction, fitting, report, svgplot
from resokit.errors import ConfigError, SchemaError
from resokit.refdata import REFERENCE_RESONATORS, shared_cap_per_area
from resokit.report import (ReportBundle, ReportRow, compare_sessions,
                            config_hash, emit_report, read_report_rows,
                            write_report_rows)
from resokit.tls import PowerSweep, TlsFitParams


def reference_rows():
    return [ReportRow(label=r.label, freq_hz=r.freq_hz, area_um2=r.area_um2,
                      capacitance_f=r.capacitance_f, q_ext_mag=r.q_ext,
                      q_in_high_power=r.q_in_high_power,
                      q_in_single_photon=r.q_in_single_photon,
                      tan_delta=r.tan_delta)
            for r in REFERENCE_RESONATORS]


class TestResonatorTable:
    def test_reference_shape(self, tmp_path):
        emit_report(ReportBundle(rows=reference_rows()), str(tmp_path))
        lines = (tmp_path / "resonators.csv").read_text().strip().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        header, body = data[0], data[1:]
        assert header.split(",") == list(report.RESONATOR_COLUMNS)
        assert len(header.split(",")) == 8
        assert len(body) == 10

    def test_empty_bundle_is_valid(self, tmp_path):
        written = emit_report(ReportBundle(), str(tmp_path))
        table = (tmp_path / "resonators.csv").read_text()
        assert report.RESONATOR_COLUMNS[0] in table
        manifest = json.loads((tmp_path / "report.json").read_text())
        assert manifest["schema"] == "resonators-v1"
        assert all(os.path.exists(p) for p in written)

    def test_row_roundtrip(self, tmp_path):
        path = tmp_path / "resonators.csv"
        write_report_rows(reference_rows(), str(path))
        back = read_report_rows(str(path))
        assert back == reference_rows()

    @pytest.mark.parametrize("label", ["a,b", " r1"])
    def test_label_that_would_not_read_back_refused(self, tmp_path, label):
        # A comma would add a column; blanks would be stripped.
        rows = [dataclasses.replace(reference_rows()[0], label=label)]
        with pytest.raises(SchemaError):
            write_report_rows(rows, str(tmp_path / "resonators.csv"))
        assert list(tmp_path.iterdir()) == []


class TestComparison:
    def test_frequency_shift_delta(self, tmp_path):
        rows_a = reference_rows()
        rows_b = [ReportRow(label=r.label, freq_hz=r.freq_hz + 70e6,
                            area_um2=r.area_um2, capacitance_f=r.capacitance_f,
                            q_ext_mag=r.q_ext_mag,
                            q_in_high_power=r.q_in_high_power,
                            q_in_single_photon=r.q_in_single_photon,
                            tan_delta=r.tan_delta)
                  for r in rows_a]
        deltas = compare_sessions(rows_a, rows_b)
        assert len(deltas) == 10
        assert all(d.delta_freq_hz == pytest.approx(70e6) for d in deltas)
        emit_report(ReportBundle(rows=rows_a, deltas=deltas), str(tmp_path))
        text = (tmp_path / "comparison.csv").read_text()
        assert "delta_freq_hz" in text
        assert "70000000.0" in text

    def test_unmatched_labels_skipped(self):
        rows_a = reference_rows()
        deltas = compare_sessions(rows_a, rows_a[:4])
        assert [d.label for d in deltas] == [r.label for r in rows_a[:4]]


class TestManifest:
    def test_hash_tracks_physics_only(self, monkeypatch):
        base = config_hash()
        same = config_hash(0.0)
        assert base == same
        kinetic = config_hash(0.06)
        assert kinetic != base
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 77)
        tol = config_hash()
        assert tol != base

    def test_hash_covers_every_solver_constant(self, monkeypatch):
        base = config_hash()
        for module, name in [
                (fitting, "STEP_FLOOR"), (fitting, "STALL_STEPS"),
                (fitting, "DAMPING_MAX"), (fitting, "JACOBIAN_STEP_REL"),
                (fitting, "RANK_RTOL"), (extraction, "MIN_TRACE_POINTS"),
                (extraction, "DELAY_POINTS"),
                (extraction, "DELAY_GRID_POINTS"),
                (extraction, "MAX_RELATIVE_ERROR")]:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, 2 * getattr(module, name))
                assert config_hash() != base, name

    def test_default_hash_pinned(self, tmp_path):
        # The manifest hashes the kinetic fraction and the fitting and
        # extraction constants; this digest must not move.
        pinned = "55986d401141e34408de571ed97832df8da7712c843d05984e3a4dc02a19eb3d"
        assert config_hash() == pinned
        emit_report(ReportBundle(), str(tmp_path))
        manifest = json.loads((tmp_path / "report.json").read_text())
        assert manifest["config_hash"] == pinned

    def test_manifest_independent_of_inputs_list(self, tmp_path):
        a = emit_report(ReportBundle(), str(tmp_path / "a"),
                        inputs=["x.csv"])
        b = emit_report(ReportBundle(), str(tmp_path / "b"),
                        inputs=["y.csv", "z.csv"])
        ma = json.loads((tmp_path / "a" / "report.json").read_text())
        mb = json.loads((tmp_path / "b" / "report.json").read_text())
        assert ma["config_hash"] == mb["config_hash"]
        assert ma["inputs"] != mb["inputs"]


class TestPlots:
    def bundle(self):
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0)
        trace = rk.synthesize_trace(p, rk.linewidth_grid(p, 8.0, 201),
                                    noise_sigma=0.002, seed=1)
        sweep = PowerSweep(points=((1.0, 4.5e3, 135.0), (100.0, 1.2e4, 360.0),
                                   (1e4, 3.2e4, 960.0), (1e5, 4.4e4, 1320.0)),
                           resonator_freq=7.3e9, temperature=0.01)
        params = TlsFitParams(2.1e-4, 10.0, 0.5, 2e-5)
        rows = [(r.area_um2, r.freq_hz) for r in REFERENCE_RESONATORS]
        ds = rk.AreaFrequencyDataset(rows=tuple(rows),
                                     inductance=0.3e-9)
        fit = rk.fit_frequency_vs_area(ds)
        return ReportBundle(rows=reference_rows(),
                            traces=[("r01", trace)],
                            sweeps=[("r01", sweep, params)],
                            area_fit=(ds, fit))

    def test_artifacts_written(self, tmp_path):
        written = emit_report(self.bundle(), str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {"resonators.csv", "report.json", "trace_r01.svg",
                         "qin_vs_photons_r01.svg", "freq_vs_area.svg"}
        for name in names:
            if name.endswith(".svg"):
                text = (tmp_path / name).read_text()
                assert text.startswith("<?xml")
                assert "<svg" in text and "</svg>" in text

    @pytest.mark.parametrize("kind", ["traces", "sweeps"])
    def test_repeated_plot_name_refused(self, tmp_path, kind):
        bundle = self.bundle()
        plots = getattr(bundle, kind)
        plots.append(plots[0])
        with pytest.raises(ConfigError, match="repeated plot names"):
            emit_report(bundle, str(tmp_path / "rep"))
        assert not (tmp_path / "rep").exists()

    def test_text_is_xml_escaped(self):
        # A title or label may hold &, < and >: the document parses, and
        # each text reads back as given.
        svg = svgplot.line_plot_svg(
            [svgplot.Series([0.0, 1.0], [0.0, 1.0], label="a<b>&c")],
            title="|S21| r<1>&x", xlabel="f & g", ylabel="<y>")
        texts = {node.firstChild.data for node in
                 xml.dom.minidom.parseString(svg).getElementsByTagName("text")}
        assert {"|S21| r<1>&x", "f & g", "<y>", "a<b>&c"} <= texts

    @pytest.mark.parametrize("x, y", [
        ([7.3e9, 7300000000.000001], [0.5, 0.5]),
        ([0.0, 1.0], [0.1, float(np.nextafter(0.1, 1.0))]),
        ([-1e308, 1e308], [0.0, 1.0]),
    ], ids=["x_ulp", "y_ulp", "x_overflow"])
    def test_any_finite_range_plots(self, x, y):
        # A range of an ulp or so: ticks a fraction of an ulp apart
        # would never advance. Run in a child process, so that a loop
        # that does not end fails the test instead of hanging it.
        src = os.path.dirname(os.path.dirname(rk.__file__))
        code = ("import sys; from resokit import svgplot; sys.stdout.write("
                f"svgplot.line_plot_svg([svgplot.Series({x!r}, {y!r})], "
                "'t', 'x', 'y'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0 and proc.stderr == ""
        xml.dom.minidom.parseString(proc.stdout)

    def test_emission_is_deterministic(self, tmp_path):
        emit_report(self.bundle(), str(tmp_path / "one"))
        emit_report(self.bundle(), str(tmp_path / "two"))
        for name in ("resonators.csv", "report.json", "trace_r01.svg",
                     "qin_vs_photons_r01.svg", "freq_vs_area.svg"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b


class TestReferenceData:
    def test_shared_slope_consistency(self):
        shared = shared_cap_per_area()
        assert abs(shared / 13.7e-15 - 1.0) < 0.01
