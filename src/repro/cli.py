"""Command-line interface: ``pulsetest <command>``.

Runs the paper's experiments from the shell and prints the same series
the figures plot.  Heavy electrical sweeps honour ``REPRO_FAST=1``.
"""

import argparse
import sys

from . import __version__
from .core.experiments import (ExperimentConfig, run_adaptive_coverage,
                               run_bridging_coverage, run_open_coverage,
                               run_path_characterization,
                               run_transfer_experiment,
                               run_waveform_experiment)
from .reporting import ascii_plot, coverage_table, format_table

#: exit codes: 0 ok, 2 argparse, 3 failed or timed-out tasks
EXIT_FAILED = 3


def _report_exit(args, report):
    """Exit code for a run with a telemetry report attached.

    Failed or timed-out tasks make the invocation exit nonzero
    (``--no-fail-on-errors`` restores the old always-zero behaviour
    for callers that only care about the printed curves).
    """
    if report is None or not getattr(args, "fail_on_errors", True):
        return 0
    summary = report.summary()
    if summary.get("failed") or summary.get("timeouts"):
        print("\n{} task(s) failed, {} timed out -> exit {}".format(
            summary.get("failed", 0), summary.get("timeouts", 0),
            EXIT_FAILED), file=sys.stderr)
        return EXIT_FAILED
    return 0


def _cmd_waveforms(args):
    experiment = run_waveform_experiment(args.kind, args.resistance,
                                         w_in=args.w_in)
    half = 0.5 * experiment.vdd
    rows = []
    for node in experiment.nodes:
        rows.append([
            node,
            experiment.excursion(experiment.fault_free, node),
            experiment.excursion(experiment.faulty, node),
        ])
    print("fault: {}".format(experiment.fault.describe()))
    print(format_table(
        ["node", "fault-free excursion (V)", "faulty excursion (V)"], rows))
    print("\npulse dampened at output: {}".format(
        experiment.dampened_at_output()))
    print("(excursions below {:.2f} V mean the pulse died)".format(half))
    return 0


def _cmd_coverage(args):
    config = ExperimentConfig.from_env()
    if args.jobs is not None:
        config.n_jobs = args.jobs
    if args.cache_dir:
        config.cache_dir = args.cache_dir
    if args.engine is not None:
        config.engine = args.engine
    if args.batch_size is not None:
        config.batch_size = args.batch_size
    if args.adaptive:
        config.adaptive = True
    if args.trace:
        config.trace = args.trace
    if (args.ci_width is not None or args.min_wave is not None
            or args.refine_r is not None):
        return _run_adaptive_coverage_cmd(args, config)
    if args.fault == "open":
        experiment = run_open_coverage(config)
    else:
        experiment = run_bridging_coverage(config)
    print("calibration: omega_in={:.0f}ps omega_th={:.0f}ps T*={:.0f}ps"
          .format(experiment.calibration.omega_in * 1e12,
                  experiment.calibration.omega_th * 1e12,
                  experiment.dftest.t_star * 1e12))
    print("\nC_pulse (proposed method)")
    print(coverage_table(experiment.pulse))
    print("\nC_del (reduced-clock DF testing)")
    print(coverage_table(experiment.delay))
    series = {}
    for label in experiment.pulse.labels():
        curve = experiment.pulse.curve(label)
        series["pulse " + label] = (curve.resistances, curve.coverage)
    for label in experiment.delay.labels():
        curve = experiment.delay.curve(label)
        series["del " + label] = (curve.resistances, curve.coverage)
    print()
    print(ascii_plot(series, x_label="R (ohm)", y_label="coverage"))
    if experiment.report is not None:
        print()
        print(experiment.report.format_report())
    return _report_exit(args, experiment.report)


def _run_adaptive_coverage_cmd(args, config):
    """The adaptive-precision branch of the ``coverage`` verb."""
    from .core.coverage import CoverageResult

    kwargs = {}
    if args.ci_width is not None:
        kwargs["ci_width"] = args.ci_width
    if args.min_wave is not None:
        kwargs["min_wave"] = args.min_wave
    if args.refine_r is not None:
        kwargs["refine_rel_tol"] = args.refine_r
    experiment = run_adaptive_coverage(config, fault=args.fault, **kwargs)
    print("calibration: omega_in={:.0f}ps omega_th={:.0f}ps T*={:.0f}ps"
          .format(experiment.calibration.omega_in * 1e12,
                  experiment.calibration.omega_th * 1e12,
                  experiment.dftest.t_star * 1e12))
    for title, sweep, curves in (
            ("C_pulse (proposed method)", experiment.pulse_sweep,
             experiment.pulse_curves),
            ("C_del (reduced-clock DF testing)", experiment.delay_sweep,
             experiment.delay_curves)):
        print("\n{} — adaptive grid, per-point n in [{}, {}]".format(
            title, min(sweep.ns), max(sweep.ns)))
        print(coverage_table(
            CoverageResult(sweep.resistances, curves, sweep.raw())))
        for target in sorted(sweep.crossings):
            crossing = sweep.crossings[target]
            print("coverage {:.0%} crossing localised to "
                  "[{:.0f}, {:.0f}] ohm (detected at {:.0f})".format(
                      target, crossing["lo"], crossing["hi"],
                      crossing["detected_at"]))
    transients = experiment.transients
    print("\ntransients: {} adaptive vs {} fixed-grid default vs {} "
          "matched-resolution grid ({:.0%} saved)".format(
              transients["adaptive"], transients["fixed_grid"],
              transients["matched_resolution"],
              experiment.reduction_vs_matched()))
    if experiment.report is not None:
        print()
        print(experiment.report.format_report())
        print("escalation waves: {}".format(experiment.report.waves))
    return _report_exit(args, experiment.report)


def _cmd_transfer(args):
    experiment = run_transfer_experiment()
    curve = experiment.nominal_curve
    rows = [(w * 1e12, o * 1e12)
            for w, o in zip(curve.w_in, curve.w_out)]
    print(format_table(["w_in (ps)", "w_out (ps)"], rows))
    print("\nregions: dampened up to {:.0f} ps, asymptotic from {:.0f} ps"
          .format(curve.dampened_limit() * 1e12,
                  (curve.region3_onset() or float("nan")) * 1e12))
    print("\nMonte Carlo scatter at candidate omega_in values:")
    rows = []
    for w in experiment.probe_widths:
        values = experiment.sample_wouts[w]
        rows.append([w * 1e12, min(values) * 1e12, max(values) * 1e12,
                     experiment.spread(w) * 1e12])
    print(format_table(
        ["w_in (ps)", "min w_out (ps)", "max w_out (ps)", "spread (ps)"],
        rows))
    return 0


def _cmd_paths(args):
    result = run_path_characterization()
    print("circuit: {}   fault net: {}".format(result.circuit_name,
                                               result.fault_net))
    rows = []
    for entry in result.entries:
        rows.append([
            entry["length"],
            entry["omega_in"] * 1e12,
            entry["omega_th"] * 1e12,
            "-" if entry["r_min"] is None else entry["r_min"],
        ])
    print(format_table(
        ["path gates", "omega_in (ps)", "omega_th (ps)", "R_min (ohm)"],
        rows))
    best = result.best()
    if best is not None:
        print("\nbest path: R_min = {:.0f} ohm at omega_in = {:.0f} ps"
              .format(best["r_min"], best["omega_in"] * 1e12))
    return 0


def _cmd_campaign(args):
    from .logic import (DefectCalibration, generate_c432_like,
                        run_campaign)
    from .montecarlo import sample_population
    from .runtime import Runtime

    runtime = Runtime.from_env(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        timeout=args.task_timeout,
        trace=args.trace,
        chaos=args.chaos)
    calibration = DefectCalibration.from_electrical(
        "external", [1e3, 4e3, 12e3, 40e3],
        dt=5e-12 if args.fast else 3e-12, runtime=runtime)
    netlist = generate_c432_like(seed=args.seed)
    samples = sample_population(args.samples, base_seed=7)
    result = run_campaign(netlist, calibration, samples=samples,
                          site_stride=args.stride,
                          site_limit=args.sites, runtime=runtime)
    summary = result.summary()
    print("circuit: {}   fault sites: {}".format(summary["circuit"],
                                                 summary["n_sites"]))
    print("statuses: {}".format(summary["statuses"]))
    print("test generation rate: {:.0%}".format(
        summary["test_generation_rate"]))
    rows = [[r, result.coverage_at(r)]
            for r in (2e3, 5e3, 10e3, 20e3, 40e3)]
    print()
    print(format_table(["R (ohm)", "site coverage"], rows))
    if summary["best_r_min"] is not None:
        print("\nbest generated test detects R >= {:.0f} ohm".format(
            summary["best_r_min"]))
    if result.report is not None:
        print()
        print(result.report.format_report())
        if args.resume and result.report.cache_hits:
            print("resumed: {} of {} sites came from the cache".format(
                result.report.cache_hits, result.report.n_tasks))
        if args.report_json:
            result.report.to_json(args.report_json)
            print("report written to {}".format(args.report_json))
    status = _report_exit(args, result.report)
    if status == 0 and getattr(args, "fail_on_errors", True):
        errors = summary["statuses"].get("error", 0)
        if errors:
            print("\n{} site(s) errored -> exit {}".format(
                errors, EXIT_FAILED), file=sys.stderr)
            status = EXIT_FAILED
    return status


def _cmd_onchip(args):
    from .faults import (BridgingFault, ExternalOpen, InternalOpen,
                         PULL_UP)
    from .testckt import build_onchip_test, run_onchip_test

    fault = None
    if args.fault == "internal_rop":
        fault = InternalOpen(2, PULL_UP, args.resistance)
    elif args.fault == "external_rop":
        fault = ExternalOpen(2, args.resistance)
    elif args.fault == "bridging":
        fault = BridgingFault(2, args.resistance)

    bench = build_onchip_test(fault=fault)
    detected, waveform = run_onchip_test(
        bench, dt=5e-12 if args.fast else 3e-12)
    flag = waveform.value_at(bench.detector.flag_node, waveform.t[-1])
    half = bench.tech.vdd_half
    print("structure: {}".format(bench))
    print("generated pulse at the path input: {:.0f} ps".format(
        waveform.widest_pulse(bench.path.input_node, half, "high")
        * 1e12))
    print("pulse at the path output: {:.0f} ps".format(
        waveform.widest_pulse(bench.path.output_node, half, "low")
        * 1e12))
    print("detector flag: {:.2f} V -> {}".format(
        flag, "FAULT DETECTED" if detected else "pass"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pulsetest",
        description=("Pulse propagation for the detection of small delay "
                     "defects (Favalli & Metra, DATE 2007) - experiment "
                     "runner"))
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("waveforms",
                       help="faulty vs fault-free waveforms (Figs. 2/3/5)")
    p.add_argument("kind",
                   choices=["internal_rop", "external_rop", "bridging"])
    p.add_argument("--resistance", type=float, default=8e3)
    p.add_argument("--w-in", type=float, default=0.40e-9)
    p.set_defaults(func=_cmd_waveforms)

    p = sub.add_parser("coverage",
                       help="C_pulse / C_del vs R (Figs. 6-9)")
    p.add_argument("fault", choices=["open", "bridging"])
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: REPRO_JOBS or 1; "
                        "0 = all CPUs)")
    p.add_argument("--cache-dir", default=None,
                   help="enable the on-disk result cache at this path")
    p.add_argument("--engine", choices=["scalar", "batched"],
                   default=None,
                   help="transient backend for the population sweeps "
                        "(default: REPRO_ENGINE or scalar)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="samples per lockstep batch (batched engine)")
    p.add_argument("--adaptive", action="store_true",
                   help="LTE-controlled adaptive time grid "
                        "(default: REPRO_ADAPTIVE or fixed-step)")
    p.add_argument("--trace", default=None,
                   help="append one JSONL event per executed task to "
                        "this file (default: REPRO_TRACE or off)")
    p.add_argument("--ci-width", type=float, default=None,
                   help="adaptive campaign: stop sampling an R point "
                        "once its Wilson CI half-width falls below this "
                        "(enables the adaptive-precision engine; "
                        "default 0.15)")
    p.add_argument("--min-wave", type=int, default=None,
                   help="adaptive campaign: samples in the first "
                        "escalation wave (doubles until the full "
                        "population; enables the adaptive engine; "
                        "default 8)")
    p.add_argument("--refine-r", type=float, default=None,
                   help="adaptive campaign: relative tolerance the "
                        "coverage-crossing bisection drives the R "
                        "bracket to (enables the adaptive engine; "
                        "default 0.1)")
    p.add_argument("--fail-on-errors", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="exit nonzero when any task failed or timed out "
                        "(default: on)")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("transfer",
                       help="w_out(w_in) transfer relation (Fig. 10)")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("paths",
                       help="per-path (omega_in, omega_th, R_min) (Fig. 11)")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("onchip",
                       help="fully structural on-chip pulse test "
                            "(generator + path + detector)")
    p.add_argument("--fault",
                   choices=["none", "internal_rop", "external_rop",
                            "bridging"], default="none")
    p.add_argument("--resistance", type=float, default=8e3)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_onchip)

    p = sub.add_parser("campaign",
                       help="full-circuit test campaign (extension)")
    p.add_argument("--seed", type=int, default=432)
    p.add_argument("--stride", type=int, default=2,
                   help="fault-site subsampling stride")
    p.add_argument("--fast", action="store_true",
                   help="coarser electrical calibration")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: REPRO_JOBS or 1; "
                        "0 = all CPUs)")
    p.add_argument("--samples", type=int, default=5,
                   help="Monte Carlo population size per site")
    p.add_argument("--sites", type=int, default=None,
                   help="limit the number of fault sites")
    p.add_argument("--cache-dir", default=".repro_cache",
                   help="result cache / checkpoint location")
    p.add_argument("--no-cache", action="store_true",
                   help="disable result caching and checkpointing")
    p.add_argument("--resume", action="store_true",
                   help="report how much of the campaign was resumed "
                        "from a previous (possibly interrupted) run")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-site wall-clock budget in seconds")
    p.add_argument("--report-json", default=None,
                   help="write the run report to this JSON file")
    p.add_argument("--trace", default=None,
                   help="append one JSONL event per executed task to "
                        "this file (default: REPRO_TRACE or off)")
    p.add_argument("--chaos", default=None,
                   help="deterministic fault-injection spec, e.g. "
                        "'kill=0.2,corrupt=0.1,seed=7' "
                        "(default: REPRO_CHAOS or off)")
    p.add_argument("--fail-on-errors", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="exit nonzero when any task failed, timed out, "
                        "or any site errored (default: on)")
    p.set_defaults(func=_cmd_campaign)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
