"""resokit benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload notch_stream --seed 0 \
        --seconds 30 --trace 0

Runs from the root of a resokit checkout against its src/ (no install
needed). The load is a single client in a closed loop: the next op
starts when the last one returns. --trace 0 measures the end-to-end
metrics with no tracer loaded; --trace 1 runs the same loop untraced
and then traced for the same number of passes and reports per-layer
metrics and the tracing overhead. Metric names, units and directions
come from BENCHMARK.json. The last line of stdout is the JSON result;
the exit code is 1 when an output check fails.
"""

import os
import sys

# One BLAS/OpenMP thread for this process and every child, so the numbers
# measure the program and not the thread scheduler. Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
# A fresh interpreter's import of the program, timed inside the child so
# interpreter start-up is left out.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, resokit, resokit.cli; "
                "print(time.perf_counter() - t)")
# Import time is mostly mapping and paging in files, which the CPU probe
# does not track; a bare interpreter start does, so the import is scaled
# to a host where `python -S -c pass` takes BARE_START_REFERENCE_S.
BARE_START = ("-S", "-c", "pass")
BARE_START_REFERENCE_S = 0.0125


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Put the checkout's src/ on the path and import the program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "resokit", "__init__.py")):
        raise SystemExit(f"error: no resokit sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import resokit  # noqa: F401


def child_import_s():
    """Seconds a fresh interpreter spends importing numpy and resokit,
    scaled to the reference interpreter start-up time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    starts = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *BARE_START], check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    scale = BARE_START_REFERENCE_S / statistics.median(starts)
    return float(out.stdout) * scale


def machine_info():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def make_workload(name, seed, size=None):
    import workloads
    classes = {cls.name: cls for cls in (workloads.NotchStream,
                                         workloads.SmallFits,
                                         workloads.CliSession)}
    if name not in classes:
        raise SystemExit(f"error: unknown workload {name!r}")
    cls = classes[name]
    return cls(ROOT, seed) if size is None else cls(ROOT, seed, size)


class Phase:
    """Record of one closed-loop phase: raw op latencies, the speed probe
    interleaved with them, and the latencies scaled to reference speed."""

    def __init__(self):
        self.latencies = []
        self.scaled = []
        self.results = []
        self.probe = speed.SpeedProbe()
        self.wall = 0.0
        self.passes = 0


def closed_loop(wl, ops, seconds, first_index, recorder=None, passes=None):
    """Run whole passes of ops back to back. Without a fixed pass count,
    stop at the pass boundary nearest to `seconds` (at least one pass)."""
    phase = Phase()
    probe = phase.probe
    index = first_index
    since_probe = 0.0
    start = time.perf_counter()
    probe.sample(0)
    while True:
        for op in ops:
            if recorder is not None:
                recorder.op = index
            t0 = time.perf_counter()
            raw = wl.run(op, index, recorder)
            latency = time.perf_counter() - t0
            phase.latencies.append(latency)
            phase.results.append((op, index, raw))
            index += 1
            since_probe += latency
            if since_probe >= speed.EVERY_S:
                # One probe per EVERY_S of op time, at most MAX_BURST.
                for _ in range(min(int(since_probe / speed.EVERY_S),
                                   speed.MAX_BURST)):
                    probe.sample(len(phase.latencies))
                since_probe = 0.0
        phase.passes += 1
        elapsed = time.perf_counter() - start
        if passes is not None:
            if phase.passes >= passes:
                break
        elif elapsed + 0.5 * elapsed / phase.passes > seconds:
            break
    if probe.positions[-1] < len(phase.latencies):
        probe.sample(len(phase.latencies))
    phase.wall = time.perf_counter() - start
    phase.scaled = [latency * probe.scale_at(i + 1)
                    for i, latency in enumerate(phase.latencies)]
    return phase


def tail(latencies, percentile):
    value = float(numpy.percentile(latencies, percentile))
    return value, sum(x > value for x in latencies)


def per_input(latencies, pass_len, reduce):
    """Reduce each input's latencies over the passes (a run repeats the
    same inputs in the same order). A one-op pass (cli_session) has a
    single input, so there every pass is its own sample."""
    if pass_len == 1:
        return latencies
    return [reduce(latencies[j::pass_len]) for j in range(pass_len)]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace, size=None):
    """One benchmark run; returns the result record (see main)."""
    import_program()
    wl = make_workload(workload, seed, size)
    # Set-up (imports, input generation, warm-up op) is repeated and the
    # median reported. The import is scaled by interpreter start-up speed,
    # the rest by the CPU probe taken just before it.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        probe = speed.SpeedProbe()
        for _ in range(speed.MAX_BURST):
            probe.sample(0)
        import_s = child_import_s()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append((import_s, time.perf_counter() - t0,
                            probe.scale()))
    setup_s = statistics.median(imp + rest * scale
                                for imp, rest, scale in setup_times)
    ops = wl.ops()

    untraced = closed_loop(wl, ops, seconds / 2 if trace else seconds, 0)
    phases = [untraced]
    recorder = None
    wrappers_left = []
    if trace:
        import tracer
        recorder = tracer.Recorder()
        recorder.install()
        try:
            phases.append(closed_loop(wl, ops, seconds, len(untraced.results),
                                      recorder, passes=untraced.passes))
        finally:
            recorder.uninstall()
        wrappers_left = tracer.wrapped_attributes()

    outcomes = [wl.judge(op, index, raw)
                for phase in phases for op, index, raw in phase.results]
    # attempted/failed count the input set once: every pass repeats it
    # exactly (checked below), and a faster program that fits more passes
    # into the run must not read as more failures.
    first_pass = outcomes[:len(ops)]
    attempted = len(first_pass)
    failed = [out for out in first_pass if out.failed]
    accuracy, pull_dev = wl.quality(first_pass)
    # p50 is over each input's median pass. The tail is over each input's
    # fastest pass: it ranks inputs by their own cost, so a host hiccup
    # during one op does not become the tail.
    typical = per_input(untraced.scaled, len(ops), statistics.median)
    fastest = per_input(untraced.scaled, len(ops), min)
    pct = wl.tail_percentile
    tail_s, beyond = tail(fastest, pct)

    fingerprints = {}
    for out in outcomes:
        fingerprints.setdefault(repr(out.key), set()).add(out.fingerprint)
    repeated = sum(len(v) > 1 for v in fingerprints.values())
    checks = wl.checks(outcomes) + [
        ("results_repeat_exactly", repeated == 0,
         f"{repeated} ops gave different results in different passes")]

    end_to_end = {
        "setup_s": setup_s,
        "throughput_ops_s": len(untraced.scaled) / sum(untraced.scaled),
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "accuracy_rate": accuracy,
        "pull_dev_max": pull_dev,
        "peak_rss_mb": peak_rss_mb(wl.children_rss),
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine_info(),
        "ops_per_pass": len(ops), "passes": untraced.passes,
        "timed_wall_s": untraced.wall,
        "setup_runs_s": setup_times,
        "speed_scale": untraced.probe.scale(),
        "speed_probe_ms": statistics.median(untraced.probe.times) * 1e3,
        "speed_reference_ms": speed.REFERENCE_S * 1e3,
        "raw": {
            "setup_s": statistics.median(imp + rest
                                         for imp, rest, _ in setup_times),
            "throughput_ops_s":
                len(untraced.latencies) / sum(untraced.latencies),
            "latency_p50_ms": statistics.median(per_input(
                untraced.latencies, len(ops), statistics.median)) * 1e3,
            "latency_tail_ms": tail(per_input(
                untraced.latencies, len(ops), min), pct)[0] * 1e3,
        },
        "fail_rate": len(failed) / attempted,
        "failed_ops": sorted({out.key for out in failed}),
        "failed_errors": sorted({out.error or "converged=False"
                                 for out in failed}),
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": len(fastest),
        "end_to_end": end_to_end,
        "samples": {"latency_s": untraced.latencies,
                    "probe_positions": untraced.probe.positions,
                    "probe_s": untraced.probe.times},
    }

    if trace:
        traced = phases[1]
        n_ops = len(traced.latencies)
        span_sets = wl.span_sets(recorder)
        layers, layer_detail = tracer.layer_metrics(
            span_sets, n_ops, traced.passes, wl.import_times())
        # Per-layer times are scaled to reference speed like the
        # end-to-end ones, with the traced phase's probe.
        scale = traced.probe.scale()
        time_units = {"ms", "us", "ms/op", "ms/krow"}
        for entry in load_spec()["per_layer"]:
            if entry["unit"] in time_units and entry["name"] in layers:
                layers[entry["name"]] *= scale
        traced_s, untraced_s = sum(traced.scaled), sum(untraced.scaled)
        layers["tracing.overhead_ms"] = (traced_s - untraced_s) / n_ops * 1e3
        layers["tracing.overhead_share"] = traced_s / untraced_s - 1.0
        closure = layer_detail["self_time_closure"]
        checks += [
            ("wrappers_removed", not wrappers_left,
             f"{len(wrappers_left)} resokit attributes still wrapped"),
            ("self_times_add_up", abs(closure - 1.0) < 1e-6,
             f"sum of self times / root span time = {closure!r}"),
        ]
        detail["per_layer"] = layers
        detail["layers"] = layer_detail
        detail["traced_wall_s"] = traced.wall
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{workload}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(span_sets, fh)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
        values = layers
    else:
        checks.append(("untraced_without_tracer", "tracer" not in sys.modules,
                       "no tracer module loaded in the untraced run"))
        values = end_to_end

    detail["checks"] = [{"name": n, "ok": bool(ok), "detail": d}
                        for n, ok, d in checks]
    correct = all(ok for _, ok, _ in checks)
    return {"correct": correct, "attempted": attempted,
            "failed": len(failed), "values": values, "detail": detail}


def _ids(keys):
    """Failed op ids, with runs of consecutive integers shortened."""
    groups = {}
    for key in keys:
        head, num = (key[0], key[1]) if isinstance(key, tuple) else ("", key)
        groups.setdefault(head, []).append(num)
    parts = []
    for head, nums in groups.items():
        spans, start = [], None
        for i, n in enumerate(nums):
            if start is None:
                start = n
            if i + 1 == len(nums) or nums[i + 1] != n + 1:
                spans.append(str(start) if start == n else f"{start}-{n}")
                start = None
        parts.append((f"{head} " if head else "") + ",".join(spans))
    return "; ".join(parts) or "none"


def report_lines(record, metric_specs):
    """Human-readable summary: every metric with unit and direction."""
    values, detail = record["values"], record["detail"]
    lines = [
        f"workload {detail['workload']}  seed {detail['seed']}  "
        f"trace {detail['trace']}",
        "machine  " + "  ".join(f"{k}={v}" for k, v in
                                detail["machine"].items()),
        f"inputs {record['attempted']}  failed {record['failed']}  "
        f"fail_rate {detail['fail_rate']:.6g}  "
        f"passes {detail['passes']} x {detail['ops_per_pass']} ops",
        f"failed op ids: {_ids(detail['failed_ops'])}  "
        f"errors {detail['failed_errors']}",
        f"latency tail = p{detail['latency_tail_percentile']:g} of "
        f"{detail['latency_samples']} samples, "
        f"{detail['latency_tail_samples_beyond']} beyond",
        f"speed probe {detail['speed_probe_ms']:.3f} ms against reference "
        f"{detail['speed_reference_ms']:.3f} ms: times scaled by "
        f"{detail['speed_scale']:.4f}; raw " + "  ".join(
            f"{k} {v:.6g}" for k, v in detail["raw"].items()),
    ]
    layers = detail.get("layers")
    if layers:
        own = sorted(layers["self_ms_per_op"].items(), key=lambda kv: -kv[1])
        lines.append(
            "self time, raw ms/op: " + ", ".join(
                f"{name} {ms:.4g}" for name, ms in own)
            + f"; sum {layers['self_sum_ms_per_op']:.6g} = root spans "
            f"{layers['root_ms_per_op']:.6g}")
    for entry in metric_specs:
        lines.append(f"  {entry['name']:<46} {values[entry['name']]:>14.6g} "
                     f"{entry['unit']:<9} ({entry['better']} is better)")
    for check in detail["checks"]:
        lines.append(f"check {'ok  ' if check['ok'] else 'FAIL'} "
                     f"{check['name']}: {check['detail']}")
    return lines


def result_json(record, metric_specs):
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["values"][m["name"]],
                                "unit": m["unit"]} for m in metric_specs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    record = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report_lines(record, metric_specs)))
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(
        WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record["detail"], fh, indent=1)
    print(f"detail {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result_json(record, metric_specs)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
