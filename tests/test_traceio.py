import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resokit as rk
from resokit import traceio
from resokit.config import load_config_file
from resokit.errors import (ConfigError, SchemaError, TouchstoneFormatError,
                            TraceOrderError, UnsupportedFormatError)
from resokit.tls import PowerSweep


class TestTraceCsv:
    def test_ri_row_echo(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("freq_hz,re,im\n7.30e9,0.6667,0.0\n")
        trace = traceio.parse_trace_csv(str(path))
        assert trace.freqs_hz[0] == 7.30e9
        assert trace.s21[0] == 0.6667 + 0j

    def test_db_row_conversion(self, tmp_path):
        # 20 log10(2/3) = -3.5218 dB.
        path = tmp_path / "t.csv"
        path.write_text("freq_hz,mag_db,phase_rad\n7.30e9,-3.5218,0.0\n")
        trace = traceio.parse_trace_csv(str(path))
        assert abs(abs(trace.s21[0]) - 0.6667) < 1e-4

    def test_db_row_with_phase(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("freq_hz,mag_db,phase_rad\n1e9,0.0,1.5707963267948966\n")
        trace = traceio.parse_trace_csv(str(path))
        assert abs(trace.s21[0] - 1j) < 1e-12

    def test_roundtrip_bit_identical(self, tmp_path):
        p = rk.NotchParams(f_r=7.3e9, q_loaded=3000.0, q_ext_mag=9000.0,
                           mismatch_phi=0.17, env_gain=1.23, env_phase=-0.4,
                           cable_delay=23e-9)
        trace = rk.synthesize_trace(p, rk.linewidth_grid(p, 8.0, 257),
                                    noise_sigma=0.004, seed=5,
                                    applied_power_w=3.16e-15,
                                    metadata={"label": "r01", "note": "cooldown 3"})
        path = tmp_path / "trace.csv"
        traceio.write_trace_csv(trace, str(path))
        back = traceio.parse_trace_csv(str(path))
        assert np.array_equal(back.freqs_hz, trace.freqs_hz)
        assert np.array_equal(back.s21, trace.s21)
        assert back.applied_power_w == trace.applied_power_w
        assert back.metadata == trace.metadata

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a comment\nfreq_hz,re,im\n# another\n1e9,1.0,0.0\n"
                        "2e9,0.5,0.1\n")
        trace = traceio.parse_trace_csv(str(path))
        assert len(trace) == 2

    def test_unknown_header_lists_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency,real,imag\n1e9,1.0,0.0\n")
        with pytest.raises(SchemaError) as err:
            traceio.parse_trace_csv(str(path))
        assert "freq_hz,re,im" in str(err.value)

    def test_non_monotonic_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("freq_hz,re,im\n1e9,1,0\n3e9,1,0\n2e9,1,0\n")
        with pytest.raises(TraceOrderError) as err:
            traceio.parse_trace_csv(str(path))
        assert err.value.row_index == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# nothing\n")
        with pytest.raises(SchemaError):
            traceio.parse_trace_csv(str(path))


TABLE_HEADER = ("label", "x", "y")


class TestWriteTable:
    @given(label=st.text(), note=st.text(),
           values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_cells_read_back_or_write_refused(self, label, note, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            try:
                traceio.write_table(path, TABLE_HEADER, [(label, *values)],
                                    [("note", note)])
            except SchemaError:
                assert os.listdir(tmp) == []
                return
            _, directives, rows = traceio._read_table(path, "test",
                                                      (TABLE_HEADER,))
        assert directives == {"note": note}
        assert [cells for _, cells in rows] == [[label, *map(repr, values)]]
        assert traceio.float_row(rows[0][1], path, 0, start=1) == tuple(values)

    @pytest.mark.parametrize("label", ["a,b", " r1", "r1 ", "#r1", "r\n1",
                                       "r\r1", "r\udcff1"])
    def test_unreadable_cell_refused(self, tmp_path, label):
        path = tmp_path / "t.csv"
        with pytest.raises(SchemaError, match="cannot write cell"):
            traceio.write_table(str(path), TABLE_HEADER, [(label, 1.0, 2.0)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["a\nb", " a", "a ", "a\udcffb"])
    def test_unreadable_directive_refused(self, tmp_path, value):
        with pytest.raises(SchemaError, match="cannot write directive"):
            traceio.write_table(str(tmp_path / "t.csv"), TABLE_HEADER, [],
                                [("note", value)])

    def test_cell_formats(self, tmp_path):
        path = tmp_path / "t.csv"
        traceio.write_table(str(path), ("a", "b", "c", "d", "e"),
                            [("r1", None, True, np.float64(0.1), 3)],
                            [("label", "a,b")])
        assert path.read_text() == ("# label = a,b\na,b,c,d,e\n"
                                    "r1,,True,0.1,3.0\n")

    def test_numpy_power_reads_back(self, tmp_path):
        trace = rk.Trace(np.linspace(7e9, 7.1e9, 4), np.ones(4),
                         applied_power_w=np.float64(3e-15))
        path = str(tmp_path / "trace.csv")
        traceio.write_trace_csv(trace, path)
        assert traceio.parse_trace_csv(path).applied_power_w == 3e-15


TS_HEADER = "! test two-port file\n# HZ S RI R 50\n"


class TestTouchstone:
    def write(self, tmp_path, text):
        path = tmp_path / "t.s2p"
        path.write_text(text)
        return str(path)

    def test_ri_s21(self, tmp_path):
        path = self.write(tmp_path, TS_HEADER +
                          "7.3e9 0.9 0.0 0.6667 0.0 0.6667 0.0 0.9 0.0\n"
                          "7.4e9 0.9 0.0 0.9 0.1 0.9 0.1 0.9 0.0\n")
        trace = traceio.parse_touchstone(path)
        assert trace.freqs_hz[0] == 7.3e9
        assert trace.s21[0] == 0.6667 + 0j

    def test_formats_agree(self, tmp_path):
        value = 0.5 + 0.25j
        mag, ang = abs(value), math.degrees(np.angle(value))
        ri = self.write(tmp_path, "# HZ S RI R 50\n"
                        f"7.3e9 0 0 {value.real} {value.imag} 0 0 0 0\n")
        db_path = tmp_path / "db.s2p"
        db_path.write_text("# HZ S DB R 50\n"
                           f"7.3e9 -99 0 {20 * math.log10(mag)} {ang} -99 0 -99 0\n")
        ma_path = tmp_path / "ma.s2p"
        ma_path.write_text("# HZ S MA R 50\n"
                           f"7.3e9 0 0 {mag} {ang} 0 0 0 0\n")
        z_ri = traceio.parse_touchstone(ri).s21[0]
        z_db = traceio.parse_touchstone(str(db_path)).s21[0]
        z_ma = traceio.parse_touchstone(str(ma_path)).s21[0]
        assert abs(z_db - z_ri) < 1e-9
        assert abs(z_ma - z_ri) < 1e-9

    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    def test_samples_match_row_loop(self, tmp_path, fmt):
        # Reference: the per-row conversion. RI copies the cells, so it
        # must match exactly; MA and DB now take cos/sin and numpy's
        # array power, which may differ from the scalar path by an ulp.
        rng = np.random.default_rng(7)
        a = {"RI": rng.uniform(-1.0, 1.0, 200),
             "MA": rng.uniform(0.1, 1.5, 200),
             "DB": rng.uniform(-30.0, 3.0, 200)}[fmt]
        b = rng.uniform(-1.0, 1.0, 200) if fmt == "RI" \
            else rng.uniform(-180.0, 180.0, 200)
        rows = [f"{7.3e9 + 1e5 * i!r} 0 0 {x!r} {y!r} 0 0 0 0"
                for i, (x, y) in enumerate(zip(a.tolist(), b.tolist()))]
        path = self.write(tmp_path, f"# HZ S {fmt} R 50\n" + "\n".join(rows))
        z = traceio.parse_touchstone(path).s21
        if fmt == "RI":
            assert np.array_equal(z, [complex(x, y) for x, y in zip(a, b)])
            return
        mag = a if fmt == "MA" else np.array([10.0 ** (x / 20.0)
                                              for x in a.tolist()])
        ref = np.array([m * np.exp(1j * math.radians(y))
                        for m, y in zip(mag.tolist(), b.tolist())])
        assert np.all(np.abs(z - ref) <= 4 * np.finfo(float).eps * np.abs(ref))

    def test_ghz_units(self, tmp_path):
        path = self.write(tmp_path, "# GHZ S RI R 50\n"
                          "7.3 0 0 0.5 0 0 0 0 0\n")
        assert traceio.parse_touchstone(path).freqs_hz[0] == 7.3e9

    def test_reads_s21_column(self, tmp_path):
        # Two-port rows are f, S11, S21, S12, S22; only S21 is read.
        path = self.write(tmp_path, TS_HEADER +
                          "1e9 0.11 0 0.21 0 0.12 0 0.22 0\n")
        assert traceio.parse_touchstone(path).s21[0] == 0.21

    def test_missing_option_line(self, tmp_path):
        path = self.write(tmp_path, "7.3e9 0 0 0.5 0 0 0 0 0\n")
        with pytest.raises(TouchstoneFormatError):
            traceio.parse_touchstone(path)

    def test_unsupported_parameter_type(self, tmp_path):
        path = self.write(tmp_path, "# HZ Y RI R 50\n"
                          "7.3e9 0 0 0.5 0 0 0 0 0\n")
        with pytest.raises(UnsupportedFormatError):
            traceio.parse_touchstone(path)

    def test_one_port_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "# HZ S RI R 50\n7.3e9 0.5 0.1\n")
        with pytest.raises(SchemaError):
            traceio.parse_touchstone(path)


class TestPowerSweepIo:
    def test_roundtrip_bit_identical(self, tmp_path):
        sweep = PowerSweep(points=((0.1, 4.5e3, 135.0), (10.0, 9e3, 270.0),
                                   (1e3, 2.1e4, 630.0), (1e5, 4.4e4, 1320.0)),
                           resonator_freq=7.3e9, temperature=0.01)
        path = tmp_path / "sweep.csv"
        traceio.write_power_sweep(sweep, str(path))
        back = traceio.read_power_sweep(str(path))
        assert back == sweep

    def test_missing_directives_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("photon_number,q_internal,sigma\n1.0,4500,100\n")
        with pytest.raises(SchemaError):
            traceio.read_power_sweep(str(path))


class TestDesignFile:
    def test_roundtrip_bit_identical(self, tmp_path):
        design = rk.ResonatorDesign(
            inductance_geometric=0.3e-9, cap_area=113.2096,
            cap_per_area=13.86e-15, cap_to_ground=33.65e-15,
            kinetic_fraction=0.06)
        path = tmp_path / "design.cfg"
        traceio.write_design(design, str(path))
        assert traceio.read_design(str(path)) == design

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "design.cfg"
        path.write_text("cap-area-um2 = 113.0\n")
        with pytest.raises(SchemaError):
            traceio.read_design(str(path))


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# physics\nkinetic-fraction = 0.06\n"
                        "l-nh = 0.3  # bare inductance\n\ngap-ev = 180e-6\n")
        values = load_config_file(str(path))
        assert values == {"kinetic-fraction": "0.06", "l-nh": "0.3",
                          "gap-ev": "180e-6"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))
