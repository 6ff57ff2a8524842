"""Command-line surface binding the workflows together.

Subcommands: design, simulate, fit, sweep, area-fit, report. Exit codes:
0 success, 1 input error, 2 fit non-convergence. Results go to stdout
and files; diagnostics go to stderr.
"""

import argparse
import dataclasses
import math
import os
import sys

from . import __version__, circuit, extraction, notch, refdata, tls
from .constants import FF, GHZ, NH, NS, dbm_to_watt
from .errors import ConfigError, DomainError, ExtractionError, SchemaError
# The commands that write a report import it, and with it svgplot,
# hashlib and json: fit, simulate and design load none of them.
from .traceio import (load_config_file, parse_touchstone, parse_trace_csv,
                      read_area_dataset, read_power_sweep, write_design,
                      write_power_sweep, write_table, write_trace_csv)

FIT_COLUMNS = ("label", "f_r_hz", "f_r_err_hz", "q_loaded", "q_loaded_err",
               "q_ext_mag", "q_ext_mag_err", "mismatch_phi_rad",
               "mismatch_phi_err_rad", "q_internal", "q_internal_err",
               "env_gain", "env_phase_rad", "cable_delay_s", "residual_rms",
               "photon_number", "converged")


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors, matching the
    CLI's input-error convention."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = _Parser(prog="resokit",
                     description="compact-resonator design and trace analysis")
    parser.add_argument("--version", action="version",
                        version=f"resokit {__version__}")
    sub = parser.add_subparsers(dest="workflow", required=True,
                                parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out", help="output directory")
    # Each flag goes only to the subcommands that read it; a parent
    # holds a flag that two subcommands read.
    formatted = _Parser(add_help=False)
    formatted.add_argument("--format", choices=("csv", "s2p"), default=None,
                           help="input trace file format")
    kinetic = _Parser(add_help=False)
    kinetic.add_argument("--kinetic-fraction", type=float, default=0.0)

    p = sub.add_parser("design", parents=[common, kinetic],
                       help="capacitor area for a target frequency")
    p.add_argument("--target-ghz", type=float, required=True)
    p.add_argument("--l-nh", type=float, default=0.3)
    p.add_argument("--c-ff-um2", type=float,
                   default=refdata.CRYO_CAP_PER_AREA / FF)
    p.add_argument("--cg-ff", type=float,
                   default=refdata.CRYO_CAP_TO_GROUND / FF)
    p.add_argument("--r-ohm-um2", type=float, default=None,
                   help="room-temperature resistance-area product for the "
                        "tunnel-leakage check")
    spec = circuit.JunctionLeakageSpec
    p.add_argument("--gap-ev", type=float, default=None,
                   help="gap energy of the leakage check, eV; default "
                        f"{spec.gap_energy:g}")
    p.add_argument("--temperature-k", type=float, default=None,
                   help="temperature of the leakage check, K; default "
                        f"{spec.temperature:g}")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", parents=[common],
                       help="emit a synthetic notch trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fr-ghz", type=float, default=7.3)
    p.add_argument("--q-in", type=float, default=4.5e3)
    p.add_argument("--q-ext", type=float, default=9e3)
    p.add_argument("--phi-rad", type=float, default=0.0)
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--env-phase-rad", type=float, default=0.0)
    p.add_argument("--delay-ns", type=float, default=0.0)
    p.add_argument("--span-linewidths", type=float, default=10.0)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--power-dbm", type=float, default=None)
    p.add_argument("--label", default="sim")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", parents=[common, formatted],
                       help="circle-fit notch traces")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--temperature-k", type=float, default=0.01)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sweep", parents=[common],
                       help="fit a TLS model to a power sweep")
    p.add_argument("--input", required=True)
    p.add_argument("--fix-beta", action="store_true",
                   help="pin the saturation exponent at 0.5")
    p.add_argument("--n-max", type=float, default=None,
                   help="mask points above this photon number")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("area-fit", parents=[common, kinetic],
                       help="fit capacitance constants to (area, frequency) rows")
    p.add_argument("--input", default=None,
                   help="CSV with area_um2,freq_hz rows; bundled reference "
                        "set when omitted")
    p.add_argument("--l-nh", type=float, default=None,
                   help="series inductance in nH; default: the file's "
                        "inductance_h directive, else the reference design's")
    p.set_defaults(func=_cmd_area_fit)

    p = sub.add_parser("report", parents=[common, formatted],
                       help="emit the results table, plots and manifest")
    p.add_argument("--input", required=True, help="resonators.csv")
    p.add_argument("--compare", default=None,
                   help="second-session resonators.csv for aging deltas")
    p.add_argument("--traces", nargs="*", default=[])
    p.add_argument("--sweeps", nargs="*", default=[])
    p.set_defaults(func=_cmd_report)
    return parser, sub.choices


def _load_trace(path: str, fmt: str | None):
    if fmt is None:
        fmt = "s2p" if path.lower().endswith((".s2p", ".snp")) else "csv"
    if fmt == "s2p":
        return parse_touchstone(path)
    return parse_trace_csv(path)


def _cmd_design(args) -> int:
    # The gap and the temperature go only into the leakage check, and
    # JunctionLeakageSpec holds their defaults.
    given = (("gap_energy", args.gap_ev), ("temperature", args.temperature_k))
    leakage = {key: value for key, value in given if value is not None}
    if leakage and args.r_ohm_um2 is None:
        raise ConfigError("--gap-ev and --temperature-k set only the "
                          "leakage check, which needs --r-ohm-um2")
    target = args.target_ghz * GHZ
    inductance = args.l_nh * NH
    cap_per_area = args.c_ff_um2 * FF
    cap_to_ground = args.cg_ff * FF
    area = circuit.area_for_frequency(target, inductance, cap_per_area,
                                      cap_to_ground, args.kinetic_fraction)
    design = circuit.ResonatorDesign(
        inductance_geometric=inductance, cap_area=area,
        cap_per_area=cap_per_area, cap_to_ground=cap_to_ground,
        kinetic_fraction=args.kinetic_fraction)
    predicted = circuit.resonance_frequency(design)
    # Every check runs before the first line is printed.
    if args.r_ohm_um2 is not None:
        leak = circuit.junction_shunt_inductance(circuit.JunctionLeakageSpec(
            specific_resistance=args.r_ohm_um2, area=area, **leakage))
    print(f"area_um2 = {area:.4f}")
    print(f"side_um = {math.sqrt(area):.4f}")
    print(f"capacitance_ff = {cap_per_area * area / FF:.4f}")
    print(f"predicted_freq_ghz = {predicted / GHZ:.6f}")
    if args.r_ohm_um2 is not None:
        print(f"shunt_inductance_nh = {leak / NH:.4g}")
        print(f"shunt_to_series_ratio = {leak / inductance:.4g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "design.cfg")
        write_design(design, path)
        print(path)
    return 0


def _cmd_simulate(args) -> int:
    if not (args.q_in > 0 and args.q_ext > 0):
        raise DomainError("quality factors must be positive")
    params = notch.NotchParams(
        f_r=args.fr_ghz * GHZ,
        q_loaded=notch.q_loaded_of(args.q_in, args.q_ext, args.phi_rad),
        q_ext_mag=args.q_ext,
        mismatch_phi=args.phi_rad, env_gain=args.gain,
        env_phase=args.env_phase_rad, cable_delay=args.delay_ns * NS)
    grid = notch.linewidth_grid(params, args.span_linewidths, args.points)
    power = dbm_to_watt(args.power_dbm) if args.power_dbm is not None else None
    trace = notch.synthesize_trace(params, grid, noise_sigma=args.noise,
                                   seed=args.seed, applied_power_w=power,
                                   metadata={"label": args.label})
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{args.label}.csv")
    write_trace_csv(trace, path)
    print(path)
    return 0


def _fit_one(path: str, fmt: str | None):
    trace = _load_trace(path, fmt)
    label = trace.metadata.get("label") or \
        os.path.splitext(os.path.basename(path))[0]
    result = extraction.fit_notch(trace)
    photons = None
    if trace.applied_power_w is not None:
        photons = notch.photons_from_power(result.params,
                                           trace.applied_power_w)
    return label, result, photons


def _cmd_fit(args) -> int:
    # The sweep files take the temperature only after every fit.
    if not 0 < args.temperature_k < math.inf:
        raise DomainError("temperature must be positive and finite")
    rows = []
    any_failed = False
    for path in args.inputs:
        try:
            label, result, photons = _fit_one(path, args.format)
        except ExtractionError as exc:
            print(f"{path}: fit failed: {exc}", file=sys.stderr)
            any_failed = True
            continue
        p = result.params
        err = result.uncertainties
        print(f"label = {label}")
        print(f"f_r_hz = {float(p.f_r)!r} +- {err['f_r']:.3g}")
        print(f"q_loaded = {p.q_loaded:.6g} +- {err['q_loaded']:.3g}")
        print(f"q_ext_mag = {p.q_ext_mag:.6g} +- {err['q_ext_mag']:.3g}")
        print(f"mismatch_phi_rad = {p.mismatch_phi:.6g} "
              f"+- {err['mismatch_phi']:.3g}")
        print(f"q_internal = {result.q_internal:.6g} "
              f"+- {err['q_internal']:.3g}")
        print(f"cable_delay_s = {p.cable_delay:.6g}")
        if photons is not None:
            print(f"photon_number = {photons:.6g}")
        print(f"converged = {result.converged}")
        print("")
        if not result.converged:
            any_failed = True
        rows.append((label, result, photons))

    # Per-label arithmetic mean of the coupling Q across a power batch,
    # alongside the per-trace values above.
    by_label: dict[str, list[float]] = {}
    for label, result, _ in rows:
        by_label.setdefault(label, []).append(result.params.q_ext_mag)
    for label, q_exts in sorted(by_label.items()):
        if len(q_exts) > 1:
            mean = sum(q_exts) / len(q_exts)
            print(f"q_ext_mag_mean[{label}] = {mean:.6g} "
                  f"over {len(q_exts)} traces")

    if args.out and rows:
        os.makedirs(args.out, exist_ok=True)
        write_table(os.path.join(args.out, "fits.csv"), FIT_COLUMNS,
                    [fit_row(*row) for row in rows])
        _write_sweeps(args, rows)
    return 2 if any_failed else 0


def fit_row(label, result, photons) -> tuple:
    """The cells of one fits.csv row, in FIT_COLUMNS order."""
    p, err = result.params, result.uncertainties
    return (label, p.f_r, err["f_r"], p.q_loaded, err["q_loaded"],
            p.q_ext_mag, err["q_ext_mag"], p.mismatch_phi,
            err["mismatch_phi"], result.q_internal, err["q_internal"],
            p.env_gain, p.env_phase, p.cable_delay, result.residual_rms,
            photons, result.converged)


def _write_sweeps(args, rows) -> None:
    by_label: dict[str, list] = {}
    for label, result, photons in rows:
        sigma = result.uncertainties["q_internal"]
        if photons is not None and 0 < sigma < math.inf:
            by_label.setdefault(label, []).append(
                (photons, result.q_internal, sigma, result.params.f_r))
    for label, pts in by_label.items():
        pts.sort()
        if len(pts) < 2 or any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            continue
        sweep = tls.PowerSweep(
            points=tuple((n, q, s) for n, q, s, _ in pts),
            resonator_freq=pts[0][3],
            temperature=args.temperature_k)
        write_power_sweep(sweep, os.path.join(args.out, f"sweep_{label}.csv"))


def _cmd_sweep(args) -> int:
    sweep = read_power_sweep(args.input)
    result = tls.fit_power_sweep(sweep, fit_beta=not args.fix_beta,
                                 n_max=args.n_max)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    p = result.params
    for name, err in result.stderr.items():
        print(f"{name} = {getattr(p, name):.6g} +- {err:.3g}")
    print(f"single_photon_tan_delta = "
          f"{tls.tls_tan_delta(1.0, p, sweep.resonator_freq, sweep.temperature):.6g}")
    print(f"converged = {result.converged}")
    if args.out:
        from .report import ReportBundle, emit_report
        os.makedirs(args.out, exist_ok=True)
        bundle = ReportBundle(sweeps=[("sweep", sweep, p)])
        emit_report(bundle, args.out, inputs=[args.input])
    return 0 if result.converged else 2


def _cmd_area_fit(args) -> int:
    if args.input:
        ds = read_area_dataset(args.input)
    else:
        ds = extraction.AreaFrequencyDataset(
            rows=tuple((r.area_um2, r.freq_hz)
                       for r in refdata.REFERENCE_RESONATORS),
            inductance=refdata.INDUCTANCE_GEOMETRIC)
    ds = dataclasses.replace(
        ds, kinetic_fraction=args.kinetic_fraction,
        inductance=ds.inductance if args.l_nh is None else args.l_nh * NH)
    fit = extraction.fit_frequency_vs_area(ds)
    print(f"cap_per_area_ff_um2 = {fit.cap_per_area / FF:.6g} "
          f"+- {fit.cap_per_area_err / FF:.3g}")
    print(f"cap_to_ground_ff = {fit.cap_to_ground / FF:.6g} "
          f"+- {fit.cap_to_ground_err / FF:.3g}")
    eps = circuit.dielectric_constant(fit.cap_per_area,
                                      refdata.DIELECTRIC_THICKNESS)
    print(f"dielectric_constant_12nm = {eps:.4g}")
    print(f"converged = {fit.converged}")
    if args.out:
        from .report import ReportBundle, emit_report
        os.makedirs(args.out, exist_ok=True)
        bundle = ReportBundle(area_fit=(ds, fit))
        emit_report(bundle, args.out,
                    inputs=[args.input] if args.input else [])
    return 0 if fit.converged else 2


def _cmd_report(args) -> int:
    from .report import (ReportBundle, compare_sessions, emit_report,
                         read_report_rows)
    if not args.out:
        raise ConfigError("report requires --out")
    rows = read_report_rows(args.input)
    deltas = []
    inputs = [args.input]
    if args.compare:
        other = read_report_rows(args.compare)
        deltas = compare_sessions(rows, other)
        inputs.append(args.compare)
    traces = []
    for path in args.traces:
        stem = os.path.splitext(os.path.basename(path))[0]
        traces.append((stem, _load_trace(path, args.format)))
        inputs.append(path)
    sweeps = []
    for path in args.sweeps:
        name = os.path.splitext(os.path.basename(path))[0]
        sweeps.append((name, read_power_sweep(path), None))
        inputs.append(path)
    bundle = ReportBundle(rows=rows, deltas=deltas, traces=traces,
                          sweeps=sweeps)
    written = emit_report(bundle, args.out, inputs=inputs)
    for path in written:
        print(path)
    return 0


def _set_config_defaults(parser: _Parser, path: str) -> None:
    """Load a config file into one subcommand's defaults.

    A key names a long flag of the subcommand that takes one value, with
    dashes or underscores; its value goes through the flag's type and
    choices. An unknown key, a key for a flag that takes no value, a
    list or a required value, and an invalid value raise ConfigError.
    """
    actions = {action.dest: action for action in parser._actions}
    defaults = {}
    for key, value in load_config_file(path).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"{path}: unknown key {key!r} for {parser.prog}")
        if (not action.option_strings or action.nargs is not None
                or action.required or action.dest == "config"):
            raise ConfigError(
                f"{path}: key {key!r} cannot be set from a config file")
        try:
            default = action.type(value) if action.type else value
        except ValueError:
            raise ConfigError(
                f"{path}: invalid value {value!r} for key {key!r}") from None
        if action.choices is not None and default not in action.choices:
            raise ConfigError(
                f"{path}: invalid value {value!r} for key {key!r}; "
                f"choose from {', '.join(action.choices)}")
        defaults[action.dest] = default
    parser.set_defaults(**defaults)


def main(argv=None) -> int:
    parser, workflows = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Flags on the command line win over the file: parse again
            # with its values as defaults.
            _set_config_defaults(workflows[args.workflow], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (SchemaError, ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExtractionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
