"""Report assembly: the per-resonator results table, session
comparisons, the JSON manifest and SVG plot artifacts.

The resonators table schema is versioned; emitted CSV files re-ingest
bit-exactly. Session comparisons match rows by exact label, never by
frequency proximity.
"""

import hashlib
import json
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import __version__, constants, extraction, fitting
from .circuit import JunctionLeakageSpec, lc_frequency
from .errors import ConfigError
from .extraction import AreaFitResult, AreaFrequencyDataset
from .notch import Trace
from .svgplot import Series, line_plot_svg
from .tls import PowerSweep, TlsFitParams, tls_tan_delta
from .traceio import _read_table, atomic_write_text, float_row, write_table

__all__ = ["ReportRow", "SessionDelta", "ReportBundle", "compare_sessions",
           "config_hash", "emit_report", "read_report_rows",
           "write_report_rows", "RESONATOR_SCHEMA"]

RESONATOR_SCHEMA = "resonators-v1"


@dataclass(frozen=True)
class ReportRow:
    """One resonator; the fields are the results-table columns, in order."""

    label: str
    freq_hz: float
    area_um2: float
    capacitance_f: float
    q_ext_mag: float
    q_in_high_power: float
    q_in_single_photon: float
    tan_delta: float


@dataclass(frozen=True)
class SessionDelta:
    """Session differences for one label, fields in comparison.csv order."""

    label: str
    delta_freq_hz: float
    delta_q_in_high_power: float
    delta_q_in_single_photon: float
    delta_tan_delta: float


RESONATOR_COLUMNS = tuple(f.name for f in fields(ReportRow))
DELTA_COLUMNS = tuple(f.name for f in fields(SessionDelta))


@dataclass
class ReportBundle:
    """Everything emit_report turns into files.

    traces pairs each trace with a unique name, such as its input-file
    stem, that names its plot; the plot title is the trace's label
    (metadata "label", else that name). Sweep names must be unique too.
    """

    rows: list[ReportRow] = field(default_factory=list)
    deltas: list[SessionDelta] = field(default_factory=list)
    traces: list[tuple[str, Trace]] = field(default_factory=list)
    sweeps: list[tuple[str, PowerSweep, TlsFitParams | None]] = \
        field(default_factory=list)
    area_fit: tuple[AreaFrequencyDataset, AreaFitResult] | None = None


def compare_sessions(rows_a, rows_b) -> list[SessionDelta]:
    """Per-label deltas (b minus a) over exactly matched labels."""
    by_label = {row.label: row for row in rows_b}
    deltas = []
    for row in rows_a:
        other = by_label.get(row.label)
        if other is None:
            continue
        deltas.append(SessionDelta(
            label=row.label,
            delta_freq_hz=other.freq_hz - row.freq_hz,
            delta_q_in_high_power=other.q_in_high_power - row.q_in_high_power,
            delta_q_in_single_photon=(other.q_in_single_photon
                                      - row.q_in_single_photon),
            delta_tan_delta=other.tan_delta - row.tan_delta))
    return deltas


def write_report_rows(rows, path: str) -> None:
    write_table(path, RESONATOR_COLUMNS, map(astuple, rows),
                [("schema", RESONATOR_SCHEMA)])


def read_report_rows(path: str) -> list[ReportRow]:
    _, _, rows = _read_table(path, "resonator table", (RESONATOR_COLUMNS,))
    return [ReportRow(cells[0], *float_row(cells, path, lineno, start=1))
            for lineno, cells in rows]


def _trace_plot(name: str, trace: Trace) -> str:
    mag_db = 20.0 * np.log10(np.maximum(np.abs(trace.s21), 1e-300))
    return line_plot_svg(
        [Series(x=list(trace.freqs_hz / 1e9), y=list(mag_db))],
        title=f"|S21| {name}", xlabel="frequency (GHz)", ylabel="|S21| (dB)")


def _sweep_plot(name: str, sweep: PowerSweep,
                params: TlsFitParams | None) -> str:
    ns = [p[0] for p in sweep.points]
    qs = [p[1] for p in sweep.points]
    series = [Series(x=ns, y=qs, label="data", markers=True)]
    if params is not None:
        grid = np.geomspace(ns[0], ns[-1], 200)
        model_q = 1.0 / tls_tan_delta(grid, params, sweep.resonator_freq,
                                      sweep.temperature)
        series.append(Series(x=list(grid), y=list(model_q), label="fit"))
    return line_plot_svg(series, title=f"Q_in vs photons {name}",
                         xlabel="photon number", ylabel="Q_in", logx=True)


def _area_plot(ds: AreaFrequencyDataset, fit: AreaFitResult) -> str:
    areas = [s for s, _ in ds.rows]
    freqs = [f / 1e9 for _, f in ds.rows]
    grid = np.linspace(min(areas), max(areas), 200)
    model = lc_frequency(grid, ds.inductance, fit.cap_per_area,
                         fit.cap_to_ground, ds.kinetic_fraction) / 1e9
    return line_plot_svg(
        [Series(x=areas, y=freqs, label="data", markers=True),
         Series(x=list(grid), y=list(model), label="fit")],
        title="resonance frequency vs capacitor area",
        xlabel="area (um^2)", ylabel="frequency (GHz)")


def config_hash(kinetic_fraction: float = 0.0) -> str:
    """Digest of a kinetic fraction and the constants that decide how a
    fit ends.

    Every public upper-case numeric constant of resokit.fitting (the
    solver's settings and the rank rule) and of resokit.extraction
    (MIN_TRACE_POINTS, DELAY_POINTS, DELAY_GRID_POINTS and
    MAX_RELATIVE_ERROR) is read at call time and hashed as
    tolerances.<lower-case name> and extraction.<lower-case name>; the
    units they import from resokit.constants are not.
    """
    # No command that writes a report reads a gap, but the canonical
    # text has always held one: JunctionLeakageSpec's default keeps
    # every digest where it was.
    values = {"physics.gap_ev": JunctionLeakageSpec.gap_energy,
              "physics.kinetic_fraction": float(kinetic_fraction)}
    for prefix, module in (("tolerances", fitting),
                           ("extraction", extraction)):
        values.update({f"{prefix}.{name.lower()}": value
                       for name, value in vars(module).items()
                       if name.isupper() and not name.startswith("_")
                       and name not in vars(constants)
                       and isinstance(value, (int, float))})
    canonical = "\n".join(f"{k} = {values[k]!r}" for k in sorted(values))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def emit_report(bundle: ReportBundle, out_dir: str,
                inputs: list[str] | None = None) -> list[str]:
    """Write the results table, manifest and plots into out_dir.

    Returns the list of written paths. Output is deterministic for
    fixed inputs: stable ordering, no timestamps, atomic writes. The
    manifest, report.json, names the toolkit version, the table schema,
    the sorted inputs and the artifacts, and its config_hash covers the
    kinetic fraction of the area fit's dataset (0 without one) and the
    constants that decide how a fit ends. Plot names must be distinct: a
    repeated one raises ConfigError before anything is created.
    """
    plots = [(f"trace_{name}.svg", _trace_plot,
              (trace.metadata.get("label") or name, trace))
             for name, trace in bundle.traces]
    plots += [(f"qin_vs_photons_{name}.svg", _sweep_plot,
               (name, sweep, params)) for name, sweep, params in bundle.sweeps]
    if bundle.area_fit is not None:
        plots.append(("freq_vs_area.svg", _area_plot, bundle.area_fit))
    names = [name for name, _, _ in plots]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"repeated plot names: {', '.join(repeated)}; "
                          "give each trace and sweep file a distinct name")

    os.makedirs(out_dir, exist_ok=True)
    written = []

    table_path = os.path.join(out_dir, "resonators.csv")
    write_report_rows(bundle.rows, table_path)
    written.append(table_path)

    if bundle.deltas:
        delta_path = os.path.join(out_dir, "comparison.csv")
        write_table(delta_path, DELTA_COLUMNS, map(astuple, bundle.deltas))
        written.append(delta_path)

    for name, plot, args in plots:
        path = os.path.join(out_dir, name)
        atomic_write_text(path, plot(*args))
        written.append(path)

    kinetic = (bundle.area_fit[0].kinetic_fraction
               if bundle.area_fit is not None else 0.0)
    manifest = {
        "toolkit": "resokit",
        "version": __version__,
        "schema": RESONATOR_SCHEMA,
        "config_hash": config_hash(kinetic),
        "inputs": sorted(inputs or []),
        "artifacts": sorted(os.path.basename(p) for p in written),
    }
    manifest_path = os.path.join(out_dir, "report.json")
    atomic_write_text(manifest_path,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written
