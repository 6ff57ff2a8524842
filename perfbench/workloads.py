"""The benchmark's three workloads.

Each workload builds a fixed input set (one "pass"), runs it as a
closed loop from a single client, and judges every result against the
generator's truth after the timed phase. The --seed orders the ops of
a pass; the input set itself is fixed so that accuracy_rate,
pull_dev_max and the failed-op ids are exact regression guards and the
known solver stalls (acceptance-05 seeds 2, 46 and 177) are in every
run.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import resokit as rk
from resokit import extraction, notch, refdata, tls, traceio
from resokit.constants import FF
from resokit.errors import ResokitError

HERE = os.path.dirname(os.path.abspath(__file__))

# Largest |fit - truth| / reported sigma a converged fit may show before
# the benchmark calls the program's output wrong.
PULL_LIMIT = 6.0


@dataclass
class Outcome:
    """Judged result of one op."""

    key: object
    failed: bool
    accurate: bool
    fingerprint: str
    pulls: dict = field(default_factory=dict)
    error: str | None = None


def _fingerprint(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _pull_dev_max(outcomes) -> float:
    """max over parameters of |std(pull) - 1|."""
    by_param: dict[str, list[float]] = {}
    for out in outcomes:
        for key, value in out.pulls.items():
            by_param.setdefault(key, []).append(value)
    devs = [abs(float(np.std(v, ddof=1)) - 1.0)
            for v in by_param.values() if len(v) > 1]
    return max(devs) if devs else 0.0


def _pull_check(outcomes):
    worst = max((abs(v) for out in outcomes for v in out.pulls.values()),
                default=0.0)
    return ("pulls_within_limit", worst <= PULL_LIMIT,
            f"max |pull| {worst:.2f} (limit {PULL_LIMIT})")


def _foreign_errors_check(outcomes):
    foreign = sorted({out.error for out in outcomes
                      if out.error and out.error.startswith("!")})
    return ("only_resokit_errors", not foreign,
            "non-resokit exceptions: " + ", ".join(foreign) if foreign
            else "every raised exception is a ResokitError")


def _error_name(exc) -> str:
    """Exception class name, marked with ! when it is not a ResokitError."""
    name = type(exc).__name__
    return name if isinstance(exc, ResokitError) else "!" + name


class Workload:
    """Interface the harness drives.

    setup() builds the input set and warms up; ops() is one pass in
    seeded order; run(op, index, recorder) is the timed call and returns
    the raw result (exceptions are returned, not raised); judge() turns
    it into an Outcome after the timed phase; checks() gives the
    (name, ok, detail) output checks.
    """

    name = ""
    tail_percentile = 95.0
    children_rss = False

    def quality(self, outcomes):
        """(accuracy_rate, pull_dev_max) over one pass's outcomes."""
        accurate = sum(out.accurate for out in outcomes)
        return accurate / len(outcomes), _pull_dev_max(outcomes)

    def span_sets(self, recorder):
        return [recorder.spans]

    def import_times(self):
        return []


# --- notch_stream ------------------------------------------------------


def draw_notch_params(rng):
    """The acceptance-05 parameter draw (tests/conftest.py)."""
    q_in = 10 ** rng.uniform(3.0, 5.0)
    q_e = rng.uniform(6e3, 9e3)
    phi = rng.uniform(-0.3, 0.3)
    q_l = 1.0 / (1.0 / q_in + math.cos(phi) / q_e)
    return rk.NotchParams(
        f_r=rng.uniform(6e9, 14e9), q_loaded=q_l, q_ext_mag=q_e,
        mismatch_phi=phi, env_gain=rng.uniform(0.5, 2.0),
        env_phase=rng.uniform(-3.0, 3.0),
        cable_delay=rng.uniform(0.0, 60e-9)), q_in


def notch_within_tolerance(fit, truth, q_in) -> bool:
    """Acceptance-05 tolerance: f_r within 1e-6 relative, Q_in, Q_l and
    |Q_e| within 5 percent, converged."""
    return (abs(fit.params.f_r / truth.f_r - 1.0) < 1e-6
            and abs(fit.q_internal / q_in - 1.0) < 0.05
            and abs(fit.params.q_loaded / truth.q_loaded - 1.0) < 0.05
            and abs(fit.params.q_ext_mag / truth.q_ext_mag - 1.0) < 0.05
            and bool(fit.converged))


def notch_pulls(values, errors, truth, q_in) -> dict:
    """(fit - truth) / sigma for f_r, Q_l, |Q_e| and Q_in."""
    expect = {"f_r": truth.f_r, "q_loaded": truth.q_loaded,
              "q_ext_mag": truth.q_ext_mag, "q_internal": q_in}
    return {k: (values[k] - expect[k]) / errors[k]
            for k in expect if errors[k] > 0}


class NotchStream(Workload):
    """In-process fit_notch over the acceptance-05 trace stream."""

    name = "notch_stream"
    tail_percentile = 95.0

    def __init__(self, root, seed, size=200):
        self.seed = seed
        self.size = size
        self.traces = []

    def setup(self):
        rng = np.random.default_rng(12345)
        self.traces = []
        for trace_seed in range(self.size):
            params, q_in = draw_notch_params(rng)
            grid = rk.linewidth_grid(params, 5.0, 4001)
            trace = rk.synthesize_trace(params, grid, noise_sigma=0.003,
                                        seed=trace_seed)
            self.traces.append((params, q_in, trace))
        self.run(0, 0, None)

    def ops(self):
        return [int(i) for i in
                np.random.default_rng(self.seed).permutation(self.size)]

    def run(self, op, index, recorder):
        try:
            return extraction.fit_notch(self.traces[op][2])
        except Exception as exc:  # judged, never hidden: see judge()
            return exc

    def judge(self, op, index, result):
        truth, q_in, _ = self.traces[op]
        if isinstance(result, Exception):
            return Outcome(op, True, False, _error_name(result),
                           error=_error_name(result))
        p = result.params
        values = {"f_r": p.f_r, "q_loaded": p.q_loaded,
                  "q_ext_mag": p.q_ext_mag, "q_internal": result.q_internal}
        pulls = notch_pulls(values, result.uncertainties, truth, q_in) \
            if result.converged else {}
        return Outcome(op, not result.converged,
                       notch_within_tolerance(result, truth, q_in),
                       _fingerprint(p, result.q_internal,
                                    sorted(result.uncertainties.items()),
                                    result.converged),
                       pulls=pulls)

    def checks(self, outcomes):
        accurate = sum(out.accurate for out in outcomes)
        gate = 0.95 * len(outcomes)
        return [_foreign_errors_check(outcomes), _pull_check(outcomes),
                ("acceptance05_gate", accurate >= gate,
                 f"{accurate}/{len(outcomes)} within tolerance "
                 f"(gate 95%)")]


# --- small_fits --------------------------------------------------------

SWEEP_F, SWEEP_T = 7.3e9, 0.01
SWEEP_NS = np.geomspace(0.1, 1e6, 15)
AREA_REL_NOISE = 2e-3


def sweep_generator():
    """Acceptance-06 anchors: Q_in 4.5e3 near one photon, 4.55e4 near
    1e5, n_c = 10, beta = 0.5."""
    return tls.solve_endpoint_params(q_low=4.5e3, n_low=1.0, q_high=45.5e3,
                                     n_high=1e5, n_critical=10.0, beta=0.5,
                                     f=SWEEP_F, temperature=SWEEP_T)


class SmallFits(Workload):
    """In-process power-sweep and area-frequency fits on tiny residual
    vectors."""

    name = "small_fits"
    tail_percentile = 95.0

    def __init__(self, root, seed, size=70):
        self.seed = seed
        self.size = size
        self.sweeps = []
        self.areas = []

    def setup(self):
        gen = sweep_generator()
        clean_q = 1.0 / tls.tls_tan_delta(SWEEP_NS, gen, SWEEP_F, SWEEP_T)
        self.truth = gen
        self.sweeps = []
        self.areas = []
        for k in range(self.size):
            # Sweep 0 is the acceptance-06 sweep (rng 24).
            rng = np.random.default_rng(24 + k)
            q = clean_q * (1.0 + 0.03 * rng.standard_normal(SWEEP_NS.size))
            self.sweeps.append(tls.PowerSweep(
                points=tuple((n, v, 0.03 * v) for n, v in zip(SWEEP_NS, q)),
                resonator_freq=SWEEP_F, temperature=SWEEP_T))
            rng = np.random.default_rng(1000 + k)
            rows = tuple((r.area_um2,
                          r.freq_hz * (1.0 + AREA_REL_NOISE
                                       * rng.standard_normal()))
                         for r in refdata.REFERENCE_RESONATORS)
            self.areas.append(extraction.AreaFrequencyDataset(
                rows=rows, inductance=refdata.INDUCTANCE_GEOMETRIC))
        # The same three warm-up ops whatever the seed.
        for op in (("sweep_beta", 0), ("sweep_pinned", 0), ("area", 0)):
            self.run(op, 0, None)

    def ops(self):
        pass_ops = [("sweep_beta", k) for k in range(self.size)] \
            + [("sweep_pinned", k) for k in range(self.size)] \
            + [("area", k) for k in range(self.size)]
        order = np.random.default_rng(self.seed).permutation(len(pass_ops))
        return [pass_ops[i] for i in order]

    def run(self, op, index, recorder):
        kind, k = op
        try:
            if kind == "area":
                return extraction.fit_frequency_vs_area(self.areas[k])
            return tls.fit_power_sweep(self.sweeps[k],
                                       fit_beta=kind == "sweep_beta")
        except Exception as exc:  # judged, never hidden: see judge()
            return exc

    def judge(self, op, index, result):
        kind, k = op
        if isinstance(result, Exception):
            return Outcome(op, True, False, _error_name(result),
                           error=_error_name(result))
        if kind == "area":
            ok = (result.converged
                  and 13.5 * FF < result.cap_per_area < 14.2 * FF
                  and 25 * FF < result.cap_to_ground < 42 * FF)
            return Outcome(op, not result.converged, bool(ok),
                           _fingerprint(result.cap_per_area,
                                        result.cap_to_ground,
                                        result.cap_per_area_err,
                                        result.cap_to_ground_err,
                                        result.converged))
        gen, p = self.truth, result.params
        single = tls.tls_tan_delta(1.0, p, SWEEP_F, SWEEP_T)
        ok = (result.converged
              and abs(p.tan_delta_tls0 / gen.tan_delta_tls0 - 1.0) < 0.1
              and abs(p.n_critical / gen.n_critical - 1.0) < 0.1
              and 2.0e-4 < single < 2.5e-4)
        fitted = ["tan_delta_tls0", "n_critical", "tan_delta_other"]
        if kind == "sweep_beta":
            fitted.append("beta")
        pulls = {}
        if result.converged:
            pulls = {f"{kind}.{name}": (getattr(p, name) - getattr(gen, name))
                     / result.stderr[name]
                     for name in fitted if result.stderr[name] > 0}
        return Outcome(op, not result.converged, bool(ok),
                       _fingerprint(p, sorted(result.stderr.items()),
                                    result.converged, result.warnings),
                       pulls=pulls)

    def checks(self, outcomes):
        areas = [out for out in outcomes if out.key[0] == "area"]
        in_window = sum(out.accurate for out in areas)
        return [_foreign_errors_check(outcomes), _pull_check(outcomes),
                ("area_fit_window", in_window == len(areas),
                 f"{in_window}/{len(areas)} area fits inside the "
                 f"acceptance-02 window")]


# --- cli_session -------------------------------------------------------

FORMATS = ("csv_ri", "csv_db", "s2p_ri", "s2p_ma", "s2p_db")
# Labels whose traces are stepped in power, so `fit` writes a sweep file.
POWER_LABELS = {"csv_ri": "r01", "csv_db": "r02"}
CHILD_TIMEOUT_S = 60.0
# Draws an input set on which every fit converges: `resokit fit` exits 2
# on a non-converged trace, and the stalls are measured on notch_stream.
POPULATION_SEED = 2205


def _write_trace_file(path, fmt, trace):
    """Serialise a trace in one of the formats resokit reads."""
    f = trace.freqs_hz.tolist()
    z = trace.s21.tolist()
    if fmt.startswith("csv"):
        lines = []
        if trace.applied_power_w is not None:
            lines.append(f"# power_w = {trace.applied_power_w!r}")
        for key in sorted(trace.metadata):
            lines.append(f"# meta.{key} = {trace.metadata[key]}")
        if fmt == "csv_ri":
            lines.append("freq_hz,re,im")
            lines += [f"{a!r},{b.real!r},{b.imag!r}" for a, b in zip(f, z)]
        else:
            lines.append("freq_hz,mag_db,phase_rad")
            lines += [f"{a!r},{20.0 * math.log10(abs(b))!r},"
                      f"{math.atan2(b.imag, b.real)!r}" for a, b in zip(f, z)]
    else:
        kind = fmt[4:]
        lines = ["! synthetic two-port, S21 carries the resonance",
                 f"# HZ S {kind.upper()} R 50"]
        for a, b in zip(f, z):
            if kind == "ri":
                pair = (b.real, b.imag)
            else:
                mag = abs(b)
                pair = (mag if kind == "ma" else 20.0 * math.log10(mag),
                        math.degrees(math.atan2(b.imag, b.real)))
            # S11, S21, S12, S22: only S21 is read.
            lines.append(" ".join(repr(v) for v in
                                  (a, 0.0, 0.0, *pair, *pair, 0.0, 0.0)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_resonator_table(path, rows):
    lines = ["# schema = resonators-v1",
             "label,freq_hz,area_um2,capacitance_f,q_ext_mag,"
             "q_in_high_power,q_in_single_photon,tan_delta"]
    lines += [",".join([label] + [repr(float(v)) for v in values])
              for label, *values in rows]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def fit_row(label, result, photons) -> str:
    """A fits.csv row as `resokit fit` formats it: repr of every float."""
    p, err = result.params, result.uncertainties
    return ",".join([
        label, repr(float(p.f_r)), repr(float(err["f_r"])),
        repr(float(p.q_loaded)), repr(float(err["q_loaded"])),
        repr(float(p.q_ext_mag)), repr(float(err["q_ext_mag"])),
        repr(float(p.mismatch_phi)), repr(float(err["mismatch_phi"])),
        repr(float(result.q_internal)), repr(float(err["q_internal"])),
        repr(float(p.env_gain)), repr(float(p.env_phase)),
        repr(float(p.cable_delay)), repr(float(result.residual_rms)),
        "" if photons is None else repr(float(photons)),
        str(result.converged)])


def run_child(cmd, cwd, env) -> int:
    """Run a child to completion and return its exit code.

    A blocking wait: Popen.wait(timeout) polls with sleeps of up to
    50 ms, which would add that much jitter to every session. A timer
    kills a child that hangs, and the kill shows as a non-zero code.
    """
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            return proc.wait()
        finally:
            timer.cancel()


def tree_digest(path) -> str:
    """Digest of every file name and byte under path."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


class CliSession(Workload):
    """`resokit fit` then `resokit report`, each in a fresh interpreter,
    over trace files in every reader format. One op is one session."""

    name = "cli_session"
    tail_percentile = 50.0
    children_rss = True

    def __init__(self, root, seed, size=4):
        self.seed = seed
        self.per_format = size
        self.work = os.path.join(root, ".perfbench_work", self.name)
        self.inputs = os.path.join(self.work, "inputs")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.files = []
        self.child_spans = []
        self.import_s = []
        self.kept = None

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.inputs)
        self.files = []
        # Every file draws from its own stream, so a smaller set is a
        # subset of the full one.
        for f_index, fmt in enumerate(FORMATS):
            label = POWER_LABELS.get(fmt)
            base, base_q_in = draw_notch_params(
                np.random.default_rng((POPULATION_SEED, f_index)))
            for k in range(self.per_format):
                trace_seed = 100 * f_index + k
                if label is None:
                    params, q_in = draw_notch_params(np.random.default_rng(
                        (POPULATION_SEED, f_index, k)))
                    name, meta, power = f"{fmt[4:]}_{k:02d}.s2p", {}, None
                else:
                    # One resonator stepped in power; TLS saturation
                    # raises Q_in with power.
                    q_in = base_q_in * (1.0 + 0.5 * k)
                    coupling = math.cos(base.mismatch_phi) / base.q_ext_mag
                    q_l = 1.0 / (1.0 / q_in + coupling)
                    params = rk.NotchParams(
                        f_r=base.f_r, q_loaded=q_l, q_ext_mag=base.q_ext_mag,
                        mismatch_phi=base.mismatch_phi,
                        env_gain=base.env_gain, env_phase=base.env_phase,
                        cable_delay=base.cable_delay)
                    name = f"{fmt[4:]}_{label}_p{k}.csv"
                    meta, power = {"label": label}, 1e-16 * 10.0 ** k
                trace = rk.synthesize_trace(
                    params, rk.linewidth_grid(params, 5.0, 1001),
                    noise_sigma=0.003, seed=trace_seed,
                    applied_power_w=power, metadata=meta)
                _write_trace_file(os.path.join(self.inputs, name), fmt, trace)
                self.files.append((name, params, q_in))
        order = np.random.default_rng(self.seed).permutation(len(self.files))
        self.files = [self.files[i] for i in order]
        table = [(r.label, r.freq_hz, r.area_um2, r.capacitance_f, r.q_ext,
                  r.q_in_high_power, r.q_in_single_photon, r.tan_delta)
                 for r in refdata.REFERENCE_RESONATORS]
        _write_resonator_table(os.path.join(self.inputs, "resonators.csv"),
                               table)
        aging = np.random.default_rng(2204)
        aged = [(row[0], row[1] * (1.0 - 1e-4 * aging.random()), *row[2:5],
                 row[5] * (1.0 - 0.1 * aging.random()),
                 row[6] * (1.0 - 0.1 * aging.random()), row[7])
                for row in table]
        _write_resonator_table(os.path.join(self.inputs, "aged.csv"), aged)
        self.run(0, "warmup", None)
        shutil.rmtree(self._session_dir("warmup"))

    def ops(self):
        return [0]

    def _session_dir(self, index):
        return os.path.join(self.work, f"session_{index}")

    def _argv(self):
        inputs = os.path.join("..", "inputs")
        traces = [os.path.join(inputs, name) for name, _, _ in self.files]
        sweeps = [os.path.join("fit", f"sweep_{label}.csv")
                  for label in POWER_LABELS.values()]
        return [
            ["fit", *traces, "--out", "fit"],
            ["report", "--input", os.path.join(inputs, "resonators.csv"),
             "--compare", os.path.join(inputs, "aged.csv"),
             "--traces", *traces, "--sweeps", *sweeps, "--out", "report"],
        ]

    def run(self, op, index, recorder):
        """One session, in its own directory with the same relative paths,
        so every session writes the same bytes. Returns the exit codes."""
        cwd = self._session_dir(index)
        os.makedirs(cwd)
        codes = []
        for step, argv in enumerate(self._argv()):
            if recorder is None:
                cmd = [sys.executable, "-m", "resokit.cli", *argv]
            else:
                spans_path = os.path.join(cwd, f"spans_{step}.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                       spans_path, repr(time.monotonic()), *argv]
            codes.append(run_child(cmd, cwd, self.env))
            if recorder is not None and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    record = json.load(handle)
                os.unlink(spans_path)
                for span in record["spans"]:
                    span[0] = index
                self.child_spans.append(record["spans"])
                self.import_s.append(record["import_s"])
            if codes[-1] != 0:
                break
        return codes

    def judge(self, op, index, codes):
        """Digest of the session's output tree. The first session's tree
        is kept for the fits.csv checks; later ones are removed."""
        path = self._session_dir(index)
        digest = tree_digest(path)
        if self.kept is None:
            self.kept = index
        else:
            shutil.rmtree(path)
        ok = codes == [0, 0]
        return Outcome(op, not ok, ok, digest,
                       error=None if ok else f"exit codes {codes}")

    def span_sets(self, recorder):
        return self.child_spans

    def import_times(self):
        return self.import_s

    def fit_outcomes(self):
        """The kept session's fits.csv judged against the generator truth,
        one Outcome per trace."""
        path = os.path.join(self._session_dir(self.kept), "fit", "fits.csv")
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header, rows = lines[0].split(","), lines[1:]
        outcomes = []
        for (name, truth, q_in), line in zip(self.files, rows):
            rec = dict(zip(header, line.split(",")))
            values = {k: float(rec[col]) for k, col in (
                ("f_r", "f_r_hz"), ("q_loaded", "q_loaded"),
                ("q_ext_mag", "q_ext_mag"), ("q_internal", "q_internal"))}
            errors = {k: float(rec[col]) for k, col in (
                ("f_r", "f_r_err_hz"), ("q_loaded", "q_loaded_err"),
                ("q_ext_mag", "q_ext_mag_err"),
                ("q_internal", "q_internal_err"))}
            converged = rec["converged"] == "True"
            accurate = converged and (
                abs(values["f_r"] / truth.f_r - 1.0) < 1e-6
                and abs(values["q_internal"] / q_in - 1.0) < 0.05
                and abs(values["q_loaded"] / truth.q_loaded - 1.0) < 0.05
                and abs(values["q_ext_mag"] / truth.q_ext_mag - 1.0) < 0.05)
            outcomes.append(Outcome(
                name, not converged, accurate, line,
                pulls=notch_pulls(values, errors, truth, q_in)
                if converged else {}))
        return outcomes

    def quality(self, outcomes):
        """Per trace of the session's fits.csv: every session writes the
        same file, which the repeat check enforces."""
        fits = self.fit_outcomes()
        if not fits:
            return 0.0, 0.0
        return (sum(out.accurate for out in fits) / len(self.files),
                _pull_dev_max(fits))

    def reference_rows(self):
        """fits.csv rows from in-process fits of the same files."""
        rows = []
        for name, _, _ in self.files:
            path = os.path.join(self.inputs, name)
            trace = traceio.parse_touchstone(path) if name.endswith(".s2p") \
                else traceio.parse_trace_csv(path)
            label = trace.metadata.get("label") or os.path.splitext(name)[0]
            result = extraction.fit_notch(trace)
            photons = None
            if trace.applied_power_w is not None:
                photons = notch.photons_from_power(result.params,
                                                   trace.applied_power_w)
            rows.append(fit_row(label, result, photons))
        return rows

    def checks(self, outcomes):
        bad = sorted({out.error for out in outcomes if out.failed})
        fits = self.fit_outcomes()
        got = [out.fingerprint for out in fits]
        expected = self.reference_rows()
        return [
            ("exit_codes_zero", not bad,
             f"{len(outcomes)} sessions; " + ("; ".join(bad) if bad
                                              else "every child exited 0")),
            ("fits_match_in_process", got == expected,
             f"{sum(a == b for a, b in zip(got, expected))}/{len(expected)} "
             "fits.csv rows equal an in-process fit_notch"),
            _pull_check(fits),
        ]
