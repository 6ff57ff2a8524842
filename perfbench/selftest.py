"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Asserts that BENCHMARK.json is within its format limits and names the
workloads the harness runs; that every metric it names is reported with
its unit and direction; that the traced run leaves no wrapper behind;
and that the deterministic figures (accuracy, failures, pulls, solver
and call counts, bytes) repeat exactly across two runs. Exits 1 on the
first failed assertion.
"""

import re
import sys

import run as harness

TINY = {"notch_stream": 6, "small_fits": 3, "cli_session": 2}
REPEATS = 2
DETERMINISTIC = ("accuracy_rate", "pull_dev_max",
                 "extraction.estimate_delay.circle_fits",
                 "extraction.fit_phase.iterations",
                 "extraction.refine.iterations",
                 "extraction.refine.max_iterations_count",
                 "fitting.nonlinear_ls.nfev", "fitting.numeric_jacobian.calls",
                 "notch.s21_model.calls", "tls.fit_power_sweep.iterations",
                 "traceio.read_bytes", "traceio.write_bytes",
                 "report.write_bytes")
# The acceptance-05 gate (95 percent of the 200-trace set) says nothing
# about a 6-trace set; every other output check must pass at tiny size.
SIZE_DEPENDENT_CHECKS = ("acceptance05_gate",)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def fail(message):
    print(f"selftest FAIL: {message}")
    raise SystemExit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(TINY):
        fail(f"workloads {names} differ from the harness's {sorted(TINY)}")
    seen = set()
    for group, fields in (("workloads", {"name", "why"}),
                          ("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for entry in spec[group]:
            if set(entry) != fields:
                fail(f"{group} entry {entry} has keys {sorted(entry)}")
            if not NAME.match(entry["name"]) or entry["name"] in seen:
                fail(f"bad or repeated name {entry['name']!r}")
            seen.add(entry["name"])
            if "unit" in entry and not UNIT.match(entry["unit"]):
                fail(f"bad unit {entry['unit']!r}")
            if entry.get("better", "lower") not in ("lower", "higher"):
                fail(f"bad direction for {entry['name']}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                fail(f"bound of {entry['name']} outside (0, 0.25]")
            if "why" in entry and (len(entry["why"]) > 200
                                   or "\n" in entry["why"]):
                fail(f"why of {entry['name']} is not one short line")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(e["bound"] for e in spec["end_to_end"]):
        fail("setup_s must carry the largest bound")


def check_output(record, metric_specs, label):
    lines = harness.report_lines(record, metric_specs)
    result = harness.result_json(record, metric_specs)
    for entry in metric_specs:
        name = entry["name"]
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != entry["unit"] \
                or not isinstance(metric["value"], float):
            fail(f"{label}: metric {name} missing or without its unit")
        if not any(line.split()[:1] == [name]
                   and line.endswith(f"({entry['better']} is better)")
                   for line in lines):
            fail(f"{label}: metric {name} printed without its direction")
    for check in record["detail"]["checks"]:
        if not check["ok"] and check["name"] not in SIZE_DEPENDENT_CHECKS:
            fail(f"{label}: check {check['name']} failed: {check['detail']}")


def main():
    spec = harness.load_spec()
    check_spec(spec)
    # Untraced runs first: they assert that no tracer module is loaded.
    for trace in (0, 1):
        specs = spec["per_layer" if trace else "end_to_end"]
        for workload, size in TINY.items():
            label = f"{workload} trace {trace}"
            records = [harness.run(workload, seed=7, seconds=0.01,
                                   trace=trace, size=size)
                       for _ in range(REPEATS)]
            for record in records:
                check_output(record, specs, label)
            first, second = records
            for key in ("attempted", "failed"):
                if first[key] != second[key]:
                    fail(f"{label}: {key} {first[key]} != {second[key]}")
            for key in ("fail_rate", "failed_ops"):
                if first["detail"][key] != second["detail"][key]:
                    fail(f"{label}: {key} differs between runs")
            for name in DETERMINISTIC:
                if name in first["values"] \
                        and first["values"][name] != second["values"][name]:
                    fail(f"{label}: {name} {first['values'][name]!r} != "
                         f"{second['values'][name]!r}")
            if trace:
                import tracer
                if tracer.wrapped_attributes():
                    fail(f"{label}: wrappers left after the traced run")
                for module, attr, _ in tracer.TARGETS:
                    value = getattr(sys.modules[module], attr)
                    if hasattr(value, "__perfbench_wrapped__"):
                        fail(f"{label}: {module}.{attr} still wrapped")
            print(f"selftest ok  {label}: {first['attempted']} ops, "
                  f"{first['failed']} failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
