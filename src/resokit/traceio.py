"""File ingestion and emission for traces, power sweeps and datasets.

CSV is the canonical interchange format, read by _read_table and written
by write_table: atomic (write-temp-then-rename), floats through repr so
that re-ingesting any artifact reproduces the in-memory object
bit-exactly, and no cell the reader could not give back. Touchstone v1
two-port files are read-only, and only their S21 column is read.
"""

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
           "write_design", "read_design", "atomic_write_text",
           "write_table"]

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


def _read_table(path: str, what: str, headers):
    """Read a CSV table: `#` comment lines, one header line, data rows.

    The header must be one of `headers`, and every row must have as many
    cells as the header. Returns (header, directives, rows): directives
    are the `key = value` pairs of the comment lines, and rows are
    (line_number, cells) pairs. Every SchemaError names the file line.
    """
    header = None
    directives = {}
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    directives[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = tuple(c.strip() for c in cells)
                if header not in headers:
                    raise SchemaError(
                        f"{path}:{lineno}: unknown {what} header {header!r}; "
                        f"expected {' or '.join(','.join(h) for h in headers)}")
            elif len(cells) != len(header):
                raise SchemaError(f"{path}:{lineno}: expected {len(header)} "
                                  f"columns, got {len(cells)}: {line!r}")
            else:
                rows.append((lineno, cells))
    if header is None:
        raise SchemaError(f"{path}: {what} file has no header")
    return header, directives, rows


def _text(path: str, value, cell: bool = True) -> str:
    """One cell, or directive value, as write_table writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if not isinstance(value, str):
        return repr(float(value))
    if (value != value.strip() or "\n" in value or "\r" in value
            or cell and ("," in value or value.startswith("#"))
            or not _encodes_utf8(value)):
        what = "cell" if cell else "directive value"
        raise SchemaError(f"{path}: cannot write {what} {value!r}: the "
                          "table reader would not read it back")
    return value


def _encodes_utf8(value: str) -> bool:
    """False for a str the UTF-8 writer cannot encode, such as one that
    holds a lone surrogate (a command-line argument that was not valid
    UTF-8)."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def write_table(path: str, header, rows, directives=()) -> None:
    """Write a CSV table that _read_table reads back cell for cell.

    directives are (key, value) pairs written as `# key = value` lines
    above the header. A str is written as is, None as an empty cell, a
    bool as True or False, anything else as the repr of its float. A str
    that would not read back raises SchemaError and nothing is written:
    a row cell that holds a comma or a line break, has blanks around it
    or starts with `#`, a directive value that holds a line break or
    has blanks around it, or any str that does not encode as UTF-8.
    Commas stay allowed in directive values.
    """
    lines = [f"# {key} = {_text(path, value, cell=False)}"
             for key, value in directives]
    lines.append(",".join(header))
    lines += [",".join(_text(path, value) for value in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def float_row(cells, path: str, lineno: int, start: int = 0,
              sep: str = ",") -> tuple[float, ...]:
    """Floats of cells[start:] of one data row; a cell that is not a
    number raises a SchemaError that names the file line and quotes the
    row."""
    try:
        return tuple(map(float, cells[start:]))
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: non-numeric row: "
                          f"{sep.join(cells)!r}") from exc


def _float_directive(path: str, directives, key: str) -> float:
    try:
        return float(directives[key])
    except ValueError as exc:
        raise SchemaError(f"{path}: non-numeric {key} directive: "
                          f"{directives[key]!r}") from exc


def _samples(fmt: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex samples from two columns: real and imaginary parts ("ri"),
    or a magnitude ("ma") or dB magnitude ("db") and a phase in radians.

    An overflowing dB value or an infinite cell gives a non-finite
    sample without a numpy warning; Trace then rejects it.
    """
    if fmt == "ri":
        z = a.astype(complex)
        z.imag = b
        return z
    with np.errstate(over="ignore", invalid="ignore"):
        mag = 10.0 ** (a / 20.0) if fmt == "db" else a
        return mag * np.cos(b) + 1j * mag * np.sin(b)


def _check_increasing(freqs: np.ndarray) -> None:
    """Raise TraceOrderError at the first frequency that does not exceed
    the one before it."""
    bad = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if bad.size:
        raise TraceOrderError(int(bad[0]) + 1)


def parse_trace_csv(path: str) -> Trace:
    """Read a trace from CSV.

    Header must be freq_hz,re,im or freq_hz,mag_db,phase_rad; `#` lines
    are comments and may carry power_w and meta.* directives written by
    write_trace_csv.
    """
    header, directives, rows = _read_table(
        path, "trace", (TRACE_COLUMNS_RI, TRACE_COLUMNS_DB))
    if not rows:
        raise SchemaError(f"{path}: trace file contains no data rows")
    freqs, a, b = map(np.array, zip(*(float_row(cells, path, lineno)
                                        for lineno, cells in rows)))
    _check_increasing(freqs)
    z = _samples("ri" if header == TRACE_COLUMNS_RI else "db", a, b)
    power = None
    if "power_w" in directives:
        power = _float_directive(path, directives, "power_w")
    metadata = {k[len("meta."):]: v for k, v in directives.items()
                if k.startswith("meta.")}
    return Trace(freqs_hz=freqs, s21=z, applied_power_w=power,
                 metadata=metadata)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write a trace as freq_hz,re,im CSV with metadata comments."""
    directives = [] if trace.applied_power_w is None \
        else [("power_w", trace.applied_power_w)]
    directives += [(f"meta.{key}", trace.metadata[key])
                   for key in sorted(trace.metadata)]
    rows = zip(trace.freqs_hz.tolist(), trace.s21.real.tolist(),
               trace.s21.imag.tolist())
    write_table(path, TRACE_COLUMNS_RI, rows, directives)


_TS_UNIT = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def parse_touchstone(path: str) -> Trace:
    """Read S21 of a Touchstone v1 two-port file as a Trace.

    Supports the RI, MA and DB formats of the option line; only
    S-parameter files are accepted. Angles are in degrees per the
    Touchstone convention.
    """
    option = None
    data_rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                if option is None:
                    option = line[1:].split()
                continue
            if option is None:
                raise TouchstoneFormatError(
                    f"{path}:{lineno}: data encountered before the # "
                    "option line")
            data_rows.append((lineno, line.split()))
    if option is None:
        raise TouchstoneFormatError(f"{path}: missing # option line")

    tokens = [t.lower() for t in option]
    unit = next((t for t in tokens if t in _TS_UNIT), "ghz")
    fmt = next((t for t in tokens if t in ("ri", "ma", "db")), "ma")
    ptype = next((t for t in tokens if t in ("s", "y", "z", "g", "h")), "s")
    if ptype != "s":
        raise UnsupportedFormatError(
            f"parameter type {ptype.upper()!r} is not supported; only S")
    if not data_rows:
        raise SchemaError(f"{path}: touchstone file contains no data")

    values = []
    for lineno, parts in data_rows:
        if len(parts) != 9:
            raise SchemaError(
                f"{path}:{lineno}: expected a two-port row of 9 values, "
                f"got {len(parts)}: {' '.join(parts)!r}")
        values.append(float_row(parts, path, lineno, sep=" "))
    data = np.array(values)
    freqs = data[:, 0] * _TS_UNIT[unit]
    _check_increasing(freqs)
    a, b = data[:, 3], data[:, 4]
    return Trace(freqs_hz=freqs,
                 s21=_samples(fmt, a, b if fmt == "ri" else np.radians(b)))


def read_power_sweep(path: str) -> PowerSweep:
    """Read a power sweep CSV written by write_power_sweep."""
    _, directives, rows = _read_table(path, "sweep", (SWEEP_COLUMNS,))
    if "resonator_freq_hz" not in directives or "temperature_k" not in directives:
        raise SchemaError(f"{path}: sweep file must carry resonator_freq_hz "
                          "and temperature_k directives")
    return PowerSweep(
        points=tuple(float_row(cells, path, lineno) for lineno, cells in rows),
        resonator_freq=_float_directive(path, directives, "resonator_freq_hz"),
        temperature=_float_directive(path, directives, "temperature_k"))


def write_power_sweep(sweep: PowerSweep, path: str) -> None:
    write_table(path, SWEEP_COLUMNS, sweep.points,
                [("resonator_freq_hz", sweep.resonator_freq),
                 ("temperature_k", sweep.temperature)])


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
    _, directives, rows = _read_table(path, "area", (AREA_COLUMNS,))
    inductance = _float_directive(path, directives, "inductance_h") \
        if "inductance_h" in directives else None
    return [float_row(cells, path, lineno) for lineno, cells in rows], \
        inductance
