"""Span and count recorder for the traced benchmark run.

The recorder wraps public functions of the resokit modules by patching
module attributes at runtime, so no file under src/ changes. Every
module that holds a reference to a wrapped function (including names
imported with `from .x import y`) gets the wrapper, and uninstall puts
the original objects back.

A span is [op, parent, name, start, end, info]: parent is the index of
the enclosing span in the same recorder (-1 for a root) and info holds
counts such as solver iterations, residual evaluations, rows or bytes.
Spans stay in memory until the caller writes them out.
"""

import dataclasses
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). The span name is the layer as the
# benchmark reports it: _refine_notch is the refinement stage of
# fit_notch, and svgplot is reported with report.
TARGETS = (
    ("resokit.extraction", "fit_notch", "extraction.fit_notch"),
    ("resokit.extraction", "estimate_delay", "extraction.estimate_delay"),
    ("resokit.extraction", "fit_circle", "extraction.fit_circle"),
    ("resokit.extraction", "fit_phase", "extraction.fit_phase"),
    ("resokit.extraction", "extract_qfactors", "extraction.extract_qfactors"),
    ("resokit.extraction", "_refine_notch", "extraction.refine"),
    ("resokit.extraction", "fit_frequency_vs_area",
     "extraction.fit_frequency_vs_area"),
    ("resokit.fitting", "nonlinear_ls", "fitting.nonlinear_ls"),
    ("resokit.fitting", "numeric_jacobian", "fitting.numeric_jacobian"),
    ("resokit.fitting", "linear_wls", "fitting.linear_wls"),
    ("resokit.notch", "s21_model", "notch.s21_model"),
    ("resokit.tls", "fit_power_sweep", "tls.fit_power_sweep"),
    ("resokit.traceio", "parse_trace_csv", "traceio.parse_trace_csv"),
    ("resokit.traceio", "parse_touchstone", "traceio.parse_touchstone"),
    ("resokit.traceio", "read_power_sweep", "traceio.read_power_sweep"),
    ("resokit.traceio", "atomic_write_text", "traceio.write"),
    ("resokit.report", "emit_report", "report.emit_report"),
    ("resokit.report", "read_report_rows", "report.read_report_rows"),
    ("resokit.svgplot", "line_plot_svg", "report.line_plot_svg"),
)

SOLVER = "fitting.nonlinear_ls"
JACOBIAN = "fitting.numeric_jacobian"
READERS = ("traceio.parse_trace_csv", "traceio.parse_touchstone",
           "traceio.read_power_sweep", "report.read_report_rows")
# Layers that call the solver; solver metrics are also split by these.
CALLERS = {"extraction.fit_phase": "fit_phase",
           "extraction.refine": "refine",
           "tls.fit_power_sweep": "fit_power_sweep",
           "extraction.fit_frequency_vs_area": "fit_frequency_vs_area"}

_MARK = "__perfbench_wrapped__"


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _parsed(args, kwargs, result):
    info = _file_bytes(args, kwargs, result)
    info["rows"] = len(result)
    return info


def _written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


ANNOTATE = {
    "traceio.parse_trace_csv": _parsed,
    "traceio.parse_touchstone": _parsed,
    "traceio.read_power_sweep": _file_bytes,
    "report.read_report_rows": _file_bytes,
    "traceio.write": _written,
}


def _resokit_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "resokit" or name.startswith("resokit.")]


class Recorder:
    """In-memory spans of one process; `op` tags the spans of one op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        spans, stack = self.spans, self.stack
        sid = len(spans)
        record = [self.op, stack[-1] if stack else -1, name, 0.0, 0.0, None]
        spans.append(record)
        stack.append(sid)
        record[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            record[5] = {"error": type(exc).__name__}
            raise
        finally:
            record[4] = perf_counter()
            stack.pop()

    def _wrap(self, fn, name):
        spans = self.spans
        annotate = ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            result = self.span(name, fn, *args, **kwargs)
            if annotate is not None:
                spans[sid][5] = annotate(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _wrap_solver(self, fn):
        """Count the solver's residual evaluations, separating those made
        inside numeric_jacobian from trial steps."""
        spans, stack = self.spans, self.stack

        def wrapper(problem, *args, **kwargs):
            counts = {"nfev": 0, "jac_evals": 0}
            inner = problem.residual

            def counted(p):
                counts["nfev"] += 1
                if stack and spans[stack[-1]][2] == JACOBIAN:
                    counts["jac_evals"] += 1
                return inner(p)

            sid = len(spans)
            result = self.span(SOLVER, fn,
                               dataclasses.replace(problem, residual=counted),
                               *args, **kwargs)
            counts["iterations"] = result.iterations
            counts["status"] = result.status
            spans[sid][5] = counts
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        """Patch every resokit module attribute that holds a target."""
        for module_name, attr, name in TARGETS:
            __import__(module_name)
        modules = _resokit_modules()
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap_solver(original) if name == SOLVER \
                else self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def wrapped_attributes():
    """(module, attribute) pairs in resokit that still hold a wrapper."""
    return [(module.__name__, key) for module in _resokit_modules()
            for key, value in list(vars(module).items())
            if hasattr(value, _MARK)]


def _mean_ms(values, scale=1e3):
    return statistics.fmean(values) * scale if values else 0.0


def layer_metrics(span_sets, n_ops, n_passes, import_s=()):
    """Per-layer metrics from spans.

    span_sets holds one span list per recorder (parent indices are local
    to a list). Times per call are means; `self_ms` and `calls` are per
    op; iterations and nfev are means per solver call; counts that end in
    `_count` are per pass of the workload's input set. A layer the
    workload never calls reads 0. Returns (metrics, detail).
    """
    dur = defaultdict(list)
    self_s = defaultdict(float)
    by_caller = defaultdict(lambda: {"self_s": 0.0, "jac_self_s": 0.0,
                                     "nfev": 0, "calls": 0, "iterations": 0,
                                     "max_iter": 0})
    nfev = trials = accepted = 0
    circle_fits = 0
    rows = defaultdict(int)
    read_bytes = write_bytes = report_bytes = 0
    root_s = total_self_s = 0.0

    for spans in span_sets:
        child_s = [0.0] * len(spans)
        for op, parent, name, start, end, info in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for sid, (op, parent, name, start, end, info) in enumerate(spans):
            d = end - start
            own = d - child_s[sid]
            dur[name].append(d)
            self_s[name] += own
            total_self_s += own
            if parent < 0:
                root_s += d
            info = info or {}
            if name == "extraction.fit_circle" and parent >= 0 \
                    and spans[parent][2] == "extraction.estimate_delay":
                circle_fits += 1
            if name in READERS:
                read_bytes += info.get("bytes", 0)
                rows[name] += info.get("rows", 0)
            if name == "traceio.write":
                write_bytes += info.get("bytes", 0)
                anc = parent
                while anc >= 0 and spans[anc][2] != "report.emit_report":
                    anc = spans[anc][1]
                if anc >= 0:
                    report_bytes += info.get("bytes", 0)
            if name.startswith("fitting."):
                anc = parent
                while anc >= 0 and spans[anc][2].startswith("fitting."):
                    anc = spans[anc][1]
                caller = CALLERS.get(spans[anc][2]) if anc >= 0 else None
                slot = by_caller[caller]
                if name == JACOBIAN:
                    slot["jac_self_s"] += own
                if name == SOLVER and "nfev" in info:
                    slot["self_s"] += own
                    slot["calls"] += 1
                    slot["nfev"] += info["nfev"]
                    slot["iterations"] += info["iterations"]
                    slot["max_iter"] += info["status"] == "max_iterations"
                    nfev += info["nfev"]
                    accepted += info["iterations"]
                    trials += info["nfev"] - info["jac_evals"] - 1

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def mean(total, count):
        return total / count if count else 0.0

    def krow(name):
        return mean(sum(dur[name]) * 1e3, rows[name] / 1e3)

    fit_notch_s = sum(dur["extraction.fit_notch"])
    metrics = {
        "extraction.fit_notch.ms": _mean_ms(dur["extraction.fit_notch"]),
        "extraction.estimate_delay.ms":
            _mean_ms(dur["extraction.estimate_delay"]),
        "extraction.estimate_delay.circle_fits": mean(
            circle_fits,
            len(dur["extraction.estimate_delay"])),
        "extraction.estimate_delay.share": mean(
            sum(dur["extraction.estimate_delay"]), fit_notch_s),
        "extraction.fit_circle.us":
            _mean_ms(dur["extraction.fit_circle"], 1e6),
        "extraction.fit_phase.ms": _mean_ms(dur["extraction.fit_phase"]),
        "extraction.fit_phase.iterations": mean(
            by_caller["fit_phase"]["iterations"],
            by_caller["fit_phase"]["calls"]),
        "extraction.refine.ms": _mean_ms(dur["extraction.refine"]),
        "extraction.refine.iterations": mean(
            by_caller["refine"]["iterations"], by_caller["refine"]["calls"]),
        "extraction.refine.max_iterations_count": mean(
            by_caller["refine"]["max_iter"], n_passes),
        "fitting.nonlinear_ls.self_ms": per_op(self_s[SOLVER] * 1e3),
        "fitting.nonlinear_ls.nfev": mean(nfev, len(dur[SOLVER])),
        "fitting.nonlinear_ls.accept_ratio": mean(accepted, trials),
        "fitting.numeric_jacobian.self_ms": per_op(self_s[JACOBIAN] * 1e3),
        "fitting.numeric_jacobian.calls": per_op(len(dur[JACOBIAN])),
        "fitting.linear_wls.us": _mean_ms(dur["fitting.linear_wls"], 1e6),
        "notch.s21_model.calls": per_op(len(dur["notch.s21_model"])),
        "notch.s21_model.us": _mean_ms(dur["notch.s21_model"], 1e6),
        "tls.fit_power_sweep.ms": _mean_ms(dur["tls.fit_power_sweep"]),
        "tls.fit_power_sweep.iterations": mean(
            by_caller["fit_power_sweep"]["iterations"],
            by_caller["fit_power_sweep"]["calls"]),
        "extraction.fit_frequency_vs_area.ms":
            _mean_ms(dur["extraction.fit_frequency_vs_area"]),
        "traceio.parse_trace_csv.ms_per_krow":
            krow("traceio.parse_trace_csv"),
        "traceio.parse_touchstone.ms_per_krow":
            krow("traceio.parse_touchstone"),
        "traceio.write.ms": per_op(sum(dur["traceio.write"]) * 1e3),
        "traceio.read_bytes": per_op(read_bytes),
        "traceio.write_bytes": per_op(write_bytes),
        "report.emit_report.ms": _mean_ms(dur["report.emit_report"]),
        "report.line_plot_svg.ms": _mean_ms(dur["report.line_plot_svg"]),
        "report.write_bytes": per_op(report_bytes),
        "cli.import_ms": _mean_ms(list(import_s)),
        "cli.fit.ms": _mean_ms(dur["cli.fit"]),
        "cli.report.ms": _mean_ms(dur["cli.report"]),
    }
    for caller in CALLERS.values():
        slot = by_caller[caller]
        metrics[f"fitting.nonlinear_ls.self_ms.{caller}"] = \
            per_op(slot["self_s"] * 1e3)
        metrics[f"fitting.nonlinear_ls.nfev.{caller}"] = \
            mean(slot["nfev"], slot["calls"])
        metrics[f"fitting.numeric_jacobian.self_ms.{caller}"] = \
            per_op(slot["jac_self_s"] * 1e3)

    detail = {
        "self_ms_per_op": {name: per_op(self_s[name] * 1e3)
                           for name in sorted(self_s)},
        "calls_per_op": {name: per_op(len(dur[name])) for name in sorted(dur)},
        "root_ms_per_op": per_op(root_s * 1e3),
        "self_sum_ms_per_op": per_op(total_self_s * 1e3),
        "self_time_closure": mean(total_self_s, root_s),
    }
    return metrics, detail
