"""File ingestion and emission for traces, power sweeps and datasets.

CSV is the canonical interchange format; Touchstone v1 two-port files
are read-only. Writers are atomic (write-temp-then-rename) and emit
floats through repr so that re-ingesting any artifact reproduces the
in-memory object bit-exactly.
"""

import math
import os
import tempfile

import numpy as np

from .circuit import ResonatorDesign
from .errors import (SchemaError, TouchstoneFormatError, TraceOrderError,
                     UnsupportedFormatError)
from .notch import Trace
from .tls import PowerSweep

__all__ = ["parse_trace_csv", "write_trace_csv", "parse_touchstone",
           "read_power_sweep", "write_power_sweep", "read_area_rows",
           "write_design", "read_design", "atomic_write_text"]

TRACE_COLUMNS_RI = ("freq_hz", "re", "im")
TRACE_COLUMNS_DB = ("freq_hz", "mag_db", "phase_rad")
SWEEP_COLUMNS = ("photon_number", "q_internal", "sigma")
AREA_COLUMNS = ("area_um2", "freq_hz")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _split_csv(path: str):
    """Yield (kind, payload) per line: comment directives and data rows."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                yield "comment", line[1:].strip()
            else:
                yield "row", line


def float_row(parts, what: str, row: str) -> tuple[float, ...]:
    """Floats of one data row; a cell that is not a number raises a
    SchemaError that quotes the row."""
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"non-numeric {what} row: {row!r}") from exc


def _float_directive(directives, key: str) -> float:
    try:
        return float(directives[key])
    except ValueError as exc:
        raise SchemaError(
            f"non-numeric {key} directive: {directives[key]!r}") from exc


def _parse_directives(comments):
    """Read `key = value` pairs from comment lines."""
    out = {}
    for text in comments:
        if "=" in text:
            key, _, value = text.partition("=")
            out[key.strip()] = value.strip()
    return out


def parse_trace_csv(path: str) -> Trace:
    """Read a trace from CSV.

    Header must be freq_hz,re,im or freq_hz,mag_db,phase_rad; `#` lines
    are comments and may carry power_w and meta.* directives written by
    write_trace_csv.
    """
    comments = []
    header = None
    rows = []
    for kind, payload in _split_csv(path):
        if kind == "comment":
            comments.append(payload)
            continue
        if header is None:
            header = tuple(c.strip() for c in payload.split(","))
            if header not in (TRACE_COLUMNS_RI, TRACE_COLUMNS_DB):
                raise SchemaError(
                    f"unknown trace header {header!r}; expected "
                    f"{','.join(TRACE_COLUMNS_RI)} or {','.join(TRACE_COLUMNS_DB)}")
            continue
        parts = payload.split(",")
        if len(parts) != 3:
            raise SchemaError(f"expected 3 columns, got {len(parts)}: {payload!r}")
        rows.append(float_row(parts, "trace", payload))
    if header is None or not rows:
        raise SchemaError("trace file contains no data rows")

    freqs = np.array([r[0] for r in rows])
    for i in range(1, len(freqs)):
        if freqs[i] <= freqs[i - 1]:
            raise TraceOrderError(i)
    if header == TRACE_COLUMNS_RI:
        z = np.array([complex(r[1], r[2]) for r in rows])
    else:
        mag = 10.0 ** (np.array([r[1] for r in rows]) / 20.0)
        phase = np.array([r[2] for r in rows])
        z = mag * np.cos(phase) + 1j * mag * np.sin(phase)

    directives = _parse_directives(comments)
    power = None
    if "power_w" in directives:
        power = _float_directive(directives, "power_w")
    metadata = {k[len("meta."):]: v for k, v in directives.items()
                if k.startswith("meta.")}
    return Trace(freqs_hz=freqs, s21=z, applied_power_w=power,
                 metadata=metadata)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write a trace as freq_hz,re,im CSV with metadata comments."""
    lines = []
    if trace.applied_power_w is not None:
        lines.append(f"# power_w = {trace.applied_power_w!r}")
    for key in sorted(trace.metadata):
        lines.append(f"# meta.{key} = {trace.metadata[key]}")
    lines.append(",".join(TRACE_COLUMNS_RI))
    for f, z in zip(trace.freqs_hz, trace.s21):
        lines.append(f"{float(f)!r},{float(z.real)!r},{float(z.imag)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


_TS_UNIT = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
# Touchstone v1 two-port column order.
_TS_PORT_OFFSET = {(1, 1): 1, (2, 1): 3, (1, 2): 5, (2, 2): 7}


def parse_touchstone(path: str, ports: tuple[int, int] = (2, 1)) -> Trace:
    """Read one S-parameter of a Touchstone v1 two-port file as a Trace.

    Supports the RI, MA and DB formats of the option line; only
    S-parameter files are accepted. Angles are in degrees per the
    Touchstone convention.
    """
    if ports not in _TS_PORT_OFFSET:
        raise UnsupportedFormatError(f"unsupported port pair {ports}")
    option = None
    data_rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("!"):
                continue
            if line.startswith("#"):
                if option is None:
                    option = line[1:].split()
                continue
            if option is None:
                raise TouchstoneFormatError(
                    "data encountered before the # option line")
            data_rows.append(line.split("!")[0].strip())
    if option is None:
        raise TouchstoneFormatError("missing # option line")

    tokens = [t.lower() for t in option]
    unit = next((t for t in tokens if t in _TS_UNIT), "ghz")
    fmt = next((t for t in tokens if t in ("ri", "ma", "db")), "ma")
    ptype = next((t for t in tokens if t in ("s", "y", "z", "g", "h")), "s")
    if ptype != "s":
        raise UnsupportedFormatError(
            f"parameter type {ptype.upper()!r} is not supported; only S")
    if not data_rows:
        raise SchemaError("touchstone file contains no data")

    freqs = []
    values = []
    offset = _TS_PORT_OFFSET[ports]
    for line in data_rows:
        parts = line.split()
        if len(parts) != 9:
            raise SchemaError(
                f"expected a two-port row of 9 values, got {len(parts)}")
        row = float_row(parts, "touchstone", line)
        freqs.append(row[0] * _TS_UNIT[unit])
        a, b = row[offset], row[offset + 1]
        if fmt == "ri":
            values.append(complex(a, b))
        elif fmt == "ma":
            values.append(a * np.exp(1j * math.radians(b)))
        else:
            values.append(10.0 ** (a / 20.0) * np.exp(1j * math.radians(b)))
    freqs = np.array(freqs)
    for i in range(1, len(freqs)):
        if freqs[i] <= freqs[i - 1]:
            raise TraceOrderError(i)
    return Trace(freqs_hz=freqs, s21=np.array(values))


def read_power_sweep(path: str) -> PowerSweep:
    """Read a power sweep CSV written by write_power_sweep."""
    comments = []
    header = None
    rows = []
    for kind, payload in _split_csv(path):
        if kind == "comment":
            comments.append(payload)
            continue
        if header is None:
            header = tuple(c.strip() for c in payload.split(","))
            if header != SWEEP_COLUMNS:
                raise SchemaError(
                    f"unknown sweep header {header!r}; expected "
                    f"{','.join(SWEEP_COLUMNS)}")
            continue
        parts = payload.split(",")
        if len(parts) != 3:
            raise SchemaError(f"expected 3 columns, got {len(parts)}")
        rows.append(float_row(parts, "sweep", payload))
    directives = _parse_directives(comments)
    if "resonator_freq_hz" not in directives or "temperature_k" not in directives:
        raise SchemaError("sweep file must carry resonator_freq_hz and "
                          "temperature_k directives")
    return PowerSweep(points=tuple(rows),
                      resonator_freq=_float_directive(directives,
                                                      "resonator_freq_hz"),
                      temperature=_float_directive(directives, "temperature_k"))


def write_power_sweep(sweep: PowerSweep, path: str) -> None:
    lines = [f"# resonator_freq_hz = {sweep.resonator_freq!r}",
             f"# temperature_k = {sweep.temperature!r}",
             ",".join(SWEEP_COLUMNS)]
    for n, q, s in sweep.points:
        lines.append(f"{n!r},{q!r},{s!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


_DESIGN_KEYS = ("inductance-geometric-h", "cap-area-um2", "cap-per-area-f-um2",
                "cap-to-ground-f", "kinetic-fraction")


def write_design(design: ResonatorDesign, path: str) -> None:
    """Serialize a resonator design as a key = value config file."""
    values = (design.inductance_geometric, design.cap_area,
              design.cap_per_area, design.cap_to_ground,
              design.kinetic_fraction)
    lines = [f"{key} = {float(value)!r}"
             for key, value in zip(_DESIGN_KEYS, values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_design(path: str) -> ResonatorDesign:
    """Read a resonator design written by write_design."""
    from .config import load_config_file

    values = load_config_file(path)
    missing = [key for key in _DESIGN_KEYS if key not in values]
    if missing:
        raise SchemaError(f"design file is missing keys: {', '.join(missing)}")
    return ResonatorDesign(
        inductance_geometric=float(values["inductance-geometric-h"]),
        cap_area=float(values["cap-area-um2"]),
        cap_per_area=float(values["cap-per-area-f-um2"]),
        cap_to_ground=float(values["cap-to-ground-f"]),
        kinetic_fraction=float(values["kinetic-fraction"]))


def read_area_rows(path: str):
    """Read (area_um2, freq_hz) rows plus an optional inductance_h
    directive; returns (rows, inductance_or_None)."""
    comments = []
    header = None
    rows = []
    for kind, payload in _split_csv(path):
        if kind == "comment":
            comments.append(payload)
            continue
        if header is None:
            header = tuple(c.strip() for c in payload.split(","))
            if header != AREA_COLUMNS:
                raise SchemaError(
                    f"unknown area header {header!r}; expected "
                    f"{','.join(AREA_COLUMNS)}")
            continue
        parts = payload.split(",")
        if len(parts) != 2:
            raise SchemaError(f"expected 2 columns, got {len(parts)}")
        rows.append(float_row(parts, "area", payload))
    directives = _parse_directives(comments)
    inductance = _float_directive(directives, "inductance_h") \
        if "inductance_h" in directives else None
    return rows, inductance
