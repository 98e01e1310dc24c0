"""Per-figure experiment drivers.

One function per paper artifact (the DATE 2007 paper has no tables; its
evaluation is Figs. 2-11).  Each driver returns a plain result object the
benches print and assert shape properties on.  ``ExperimentConfig``
centralises population size, time step and resistance grids, with an
environment knob (``REPRO_FAST=1``) for quick runs.
"""

import os

import numpy as np

from ..cells import default_technology
from ..faults import (BridgingFault, ExternalOpen, InternalOpen, PULL_UP,
                      inject)
from ..montecarlo import NominalModel, sample_population
from ..runtime import Runtime, RunReport, check_batch_size, stable_hash
from .adaptive_coverage import (DEFAULT_CI_WIDTH, DEFAULT_MIN_WAVE,
                                DEFAULT_REFINE_REL_TOL,
                                DEFAULT_REFINE_TARGETS, adaptive_sweep)
from .calibration import calibrate_delay_test, calibrate_pulse_test
from .coverage import (delay_coverage, pulse_coverage,
                       sweep_delay_measurements, sweep_pulse_measurements)
from .pulse import build_instance, measure_output_pulse
from .transfer import characterize_transfer, default_w_in_grid
from ..spice import run_transient


class ExperimentConfig:
    """Knobs shared by the experiment drivers.

    ``n_jobs``/``cache_dir`` describe the campaign runtime: worker
    process count (1 = serial, 0 = all CPUs) and the result-cache
    location (None disables caching).  :meth:`from_env` reads them from
    ``REPRO_JOBS`` and ``REPRO_CACHE_DIR``.  ``batch_size`` is the
    number of samples one calibration or sweep task simulates: 1 (the
    default) runs the scalar Newton per sample, more run in lockstep.
    ``adaptive`` switches every transient to the LTE-controlled time
    grid (``REPRO_ADAPTIVE=1``).  ``trace`` names a JSONL file
    receiving one event per executed task (``REPRO_TRACE``; None
    disables tracing).
    The Newton solver and the adaptive step tolerance are not settings
    here: :mod:`repro.spice` fixes both.
    """

    def __init__(self, n_samples=16, dt=3e-12, seed=1, fault_stage=2,
                 rop_resistances=None, bridging_resistances=None,
                 n_paths=10, n_jobs=None, cache_dir=None,
                 batch_size=1, adaptive=False, trace=None):
        self.n_samples = int(n_samples)
        self.dt = float(dt)
        self.seed = int(seed)
        self.fault_stage = int(fault_stage)
        self.rop_resistances = (
            list(np.geomspace(500.0, 40e3, 10))
            if rop_resistances is None else list(rop_resistances))
        self.bridging_resistances = (
            list(np.geomspace(800.0, 30e3, 10))
            if bridging_resistances is None else list(bridging_resistances))
        self.n_paths = int(n_paths)
        self.n_jobs = None if n_jobs is None else int(n_jobs)
        self.cache_dir = cache_dir
        self.batch_size = check_batch_size(batch_size)
        self.adaptive = bool(adaptive)
        self.trace = None if trace is None else str(trace)

    @classmethod
    def from_env(cls, **overrides):
        """Default config, scaled down when ``REPRO_FAST`` is set.

        Runtime knobs: ``REPRO_JOBS`` sets the worker count (unset: 1 =
        serial; 0 = all CPUs), ``REPRO_CACHE_DIR`` enables the on-disk
        result cache at the given path.
        """
        if os.environ.get("REPRO_FAST"):
            overrides.setdefault("n_samples", 5)
            overrides.setdefault("dt", 4e-12)
            overrides.setdefault(
                "rop_resistances", list(np.geomspace(1e3, 40e3, 6)))
            overrides.setdefault(
                "bridging_resistances", list(np.geomspace(1e3, 30e3, 6)))
            overrides.setdefault("n_paths", 5)
        if os.environ.get("REPRO_JOBS"):
            overrides.setdefault("n_jobs", int(os.environ["REPRO_JOBS"]))
        if os.environ.get("REPRO_CACHE_DIR"):
            overrides.setdefault("cache_dir",
                                 os.environ["REPRO_CACHE_DIR"])
        if os.environ.get("REPRO_ADAPTIVE"):
            overrides.setdefault("adaptive", True)
        if os.environ.get("REPRO_TRACE"):
            overrides.setdefault("trace", os.environ["REPRO_TRACE"])
        return cls(**overrides)

    def samples(self):
        return sample_population(self.n_samples, base_seed=self.seed)

    def runtime(self):
        """The campaign runtime this config describes."""
        return Runtime.from_config(self)

    def __repr__(self):
        return ("ExperimentConfig(n={}, dt={:.0f}ps, stage={}, jobs={})"
                .format(self.n_samples, self.dt * 1e12, self.fault_stage,
                        self.n_jobs or 1))


# ----------------------------------------------------------------------
# Figures 2, 3, 5 — waveform demonstrations
# ----------------------------------------------------------------------

class WaveformExperiment:
    """Fault-free vs faulty waveforms along the path."""

    def __init__(self, fault, w_in, fault_free, faulty, nodes, vdd):
        self.fault = fault
        self.w_in = w_in
        self.fault_free = fault_free
        self.faulty = faulty
        self.nodes = nodes
        self.vdd = vdd

    def excursion(self, waveform, node):
        """Peak excursion of ``node`` from its initial value."""
        baseline = waveform[node][0]
        return waveform.peak_excursion(node, baseline)

    def dampened_at_output(self):
        """Faulty output excursion below half-swing while the fault-free
        output swings fully — the figures' visual claim."""
        out = self.nodes[-1]
        return (self.excursion(self.faulty, out) < 0.5 * self.vdd
                <= self.excursion(self.fault_free, out))


def run_waveform_experiment(fault_kind="internal_rop", resistance=8e3,
                            w_in=0.40e-9, config=None, tech=None):
    """Reproduce the waveform figures (2: internal ROP, 3: external ROP,
    5: bridging) at the given defect resistance."""
    config = ExperimentConfig.from_env() if config is None else config
    tech = default_technology() if tech is None else tech
    stage = config.fault_stage
    if fault_kind == "internal_rop":
        fault = InternalOpen(stage, PULL_UP, resistance)
    elif fault_kind == "external_rop":
        fault = ExternalOpen(stage, resistance)
    elif fault_kind == "bridging":
        fault = BridgingFault(stage, resistance)
    else:
        raise ValueError("unknown fault kind {!r}".format(fault_kind))

    base = build_instance(sample=NominalModel(), tech=tech)
    nodes = list(base.stage_nodes)

    def simulate(path):
        delay = path.set_input_pulse(w_in, kind="h")
        tstop = (delay + w_in + path.n_gates * 0.35e-9 + 1.2e-9)
        return run_transient(path.circuit, tstop, config.dt, record=None)

    wf_free = simulate(base)
    wf_faulty = simulate(inject(base, fault))
    return WaveformExperiment(fault, w_in, wf_free, wf_faulty, nodes,
                              tech.vdd)


# ----------------------------------------------------------------------
# Figures 6-9 — coverage vs resistance
# ----------------------------------------------------------------------

class CoverageExperiment:
    """Both methods' coverage curves over a resistance grid."""

    def __init__(self, resistances, pulse, delay, calibration, dftest,
                 samples, report=None):
        self.resistances = list(resistances)
        self.pulse = pulse          # CoverageResult (C_pulse)
        self.delay = delay          # CoverageResult (C_del)
        self.calibration = calibration
        self.dftest = dftest
        self.samples = list(samples)
        #: runtime :class:`~repro.runtime.RunReport` (telemetry)
        self.report = report


def _run_coverage(config, tech, fault_proto, resistances, label,
                  runtime):
    """Shared body of the Figs. 6-9 drivers: calibrate both methods on
    the fault-free population, then sweep one fault prototype."""
    samples = config.samples()
    runtime = config.runtime() if runtime is None else runtime
    report = RunReport(label)

    engine_kwargs = dict(batch_size=config.batch_size,
                         adaptive=config.adaptive)
    calibration = calibrate_pulse_test(samples, tech=tech, dt=config.dt,
                                       runtime=runtime, report=report,
                                       **engine_kwargs)
    dftest, _ = calibrate_delay_test(samples, tech=tech, dt=config.dt,
                                     runtime=runtime, report=report,
                                     **engine_kwargs)
    raw_pulse = sweep_pulse_measurements(
        samples, fault_proto, resistances, calibration.omega_in,
        tech=tech, dt=config.dt, runtime=runtime, report=report,
        **engine_kwargs)
    raw_delay = sweep_delay_measurements(
        samples, fault_proto, resistances, tech=tech, dt=config.dt,
        runtime=runtime, report=report, **engine_kwargs)
    return CoverageExperiment(
        resistances,
        pulse_coverage(raw_pulse, samples, resistances, calibration),
        delay_coverage(raw_delay, samples, resistances, dftest),
        calibration, dftest, samples, report=report)


def run_open_coverage(config=None, tech=None, runtime=None):
    """Figs. 6 & 7: external resistive open at the reference stage.

    The paper uses the external open as "the worst case for our method".
    """
    config = ExperimentConfig.from_env() if config is None else config
    return _run_coverage(
        config, tech, ExternalOpen(config.fault_stage,
                                   config.rop_resistances[0]),
        config.rop_resistances, "open-coverage", runtime)


def run_bridging_coverage(config=None, tech=None, runtime=None):
    """Figs. 8 & 9: resistive bridging at the reference stage."""
    config = ExperimentConfig.from_env() if config is None else config
    return _run_coverage(
        config, tech, BridgingFault(config.fault_stage,
                                    config.bridging_resistances[0]),
        config.bridging_resistances, "bridging-coverage", runtime)


# ----------------------------------------------------------------------
# Adaptive-precision coverage campaigns (sequential CI + refinement)
# ----------------------------------------------------------------------

class AdaptiveCoverageExperiment:
    """Both methods' adaptively-sampled coverage vs resistance.

    ``pulse_curves``/``delay_curves`` hold variable-n
    :class:`~repro.core.coverage.CoverageCurve` objects for the same
    threshold-factor settings as the fixed-grid campaign, all derived
    from the adaptive sweeps' raw measurements.  ``transients`` is the
    budget accounting: the (sample, R) transients the adaptive plan
    actually asked for vs. what the blind fixed grids would have cost.
    """

    def __init__(self, pulse_sweep, delay_sweep, pulse_curves,
                 delay_curves, calibration, dftest, samples, report,
                 transients):
        self.pulse_sweep = pulse_sweep
        self.delay_sweep = delay_sweep
        self.pulse_curves = dict(pulse_curves)
        self.delay_curves = dict(delay_curves)
        self.calibration = calibration
        self.dftest = dftest
        self.samples = list(samples)
        self.report = report
        #: ``{"adaptive": n, "fixed_grid": n, "matched_resolution": n}``
        self.transients = dict(transients)

    def minimum_detectable_r(self, method="pulse", target=1.0):
        sweep = self.pulse_sweep if method == "pulse" else self.delay_sweep
        return sweep.minimum_detectable_r(target)

    def reduction_vs_matched(self):
        """Fraction of transients saved vs. the matched-resolution
        fixed grid (the acceptance metric)."""
        matched = self.transients["matched_resolution"]
        return 1.0 - self.transients["adaptive"] / matched

    def __repr__(self):
        return ("AdaptiveCoverageExperiment({} adaptive transients vs "
                "{} matched-grid)").format(
                    self.transients["adaptive"],
                    self.transients["matched_resolution"])


def run_adaptive_coverage(config=None, tech=None, runtime=None,
                          fault="open", ci_width=DEFAULT_CI_WIDTH,
                          min_wave=DEFAULT_MIN_WAVE,
                          refine_rel_tol=DEFAULT_REFINE_REL_TOL,
                          refine_targets=DEFAULT_REFINE_TARGETS,
                          threshold_factors=(0.9, 1.0, 1.1)):
    """Adaptive-precision replacement for the Figs. 6-9 campaigns.

    Calibrates both tests exactly like :func:`run_open_coverage` /
    :func:`run_bridging_coverage`, then replaces the blind fixed-grid
    population sweeps with :func:`~repro.core.adaptive_coverage
    .adaptive_sweep`: escalating sample waves per R point (stop at
    Wilson half-width <= ``ci_width``) and geometric bisection of the
    ``refine_targets`` coverage crossings to ``refine_rel_tol``.  The
    primary (factor 1.0) decision drives the allocation; the other
    ``threshold_factors`` curves are derived from the same raw values.
    """
    config = ExperimentConfig.from_env() if config is None else config
    samples = config.samples()
    runtime = config.runtime() if runtime is None else runtime
    if fault == "open":
        grid = config.rop_resistances
        proto = ExternalOpen(config.fault_stage, grid[0])
    elif fault == "bridging":
        grid = config.bridging_resistances
        proto = BridgingFault(config.fault_stage, grid[0])
    else:
        raise ValueError("unknown fault {!r} (open or bridging)"
                         .format(fault))
    label = "adaptive-{}-coverage".format(fault)
    report = RunReport(label)

    engine_kwargs = dict(batch_size=config.batch_size,
                         adaptive=config.adaptive)
    calibration = calibrate_pulse_test(samples, tech=tech, dt=config.dt,
                                       runtime=runtime, report=report,
                                       **engine_kwargs)
    dftest, _ = calibrate_delay_test(samples, tech=tech, dt=config.dt,
                                     runtime=runtime, report=report,
                                     **engine_kwargs)

    sweep_kwargs = dict(ci_width=ci_width, min_wave=min_wave,
                        refine_targets=refine_targets,
                        refine_rel_tol=refine_rel_tol, tech=tech,
                        dt=config.dt, runtime=runtime, report=report,
                        **engine_kwargs)
    detector = calibration.detector
    pulse_sweep = adaptive_sweep(
        samples, proto, grid,
        lambda value, sample: detector.fault_detected(value),
        label=label + "-pulse", measure="pulse",
        omega_in=float(calibration.omega_in), kind="h", **sweep_kwargs)
    delay_sweep = adaptive_sweep(
        samples, proto, grid,
        lambda value, sample: dftest.detects(value, sample=sample,
                                             t_factor=1.0),
        label=label + "-delay", measure="delay", direction="rise",
        **sweep_kwargs)

    pulse_curves, delay_curves = {}, {}
    for factor in threshold_factors:
        scaled = detector.scaled(factor)
        name = "{:.1f}*w_th".format(factor)
        pulse_curves[name] = pulse_sweep.curve(
            name, lambda value, sample, d=scaled: d.fault_detected(value))
        name = "{:.1f}*T".format(factor)
        delay_curves[name] = delay_sweep.curve(
            name, lambda value, sample, f=factor: dftest.detects(
                value, sample=sample, t_factor=f))

    transients = {
        "adaptive": (pulse_sweep.total_measurements
                     + delay_sweep.total_measurements),
        "fixed_grid": (pulse_sweep.fixed_grid_measurements
                       + delay_sweep.fixed_grid_measurements),
        "matched_resolution": (
            pulse_sweep.matched_resolution_measurements(refine_rel_tol)
            + delay_sweep.matched_resolution_measurements(refine_rel_tol)),
    }
    return AdaptiveCoverageExperiment(
        pulse_sweep, delay_sweep, pulse_curves, delay_curves,
        calibration, dftest, samples, report, transients)


# ----------------------------------------------------------------------
# Figure 10 — transfer relation with parameter fluctuations
# ----------------------------------------------------------------------

class TransferExperiment:
    def __init__(self, nominal_curve, probe_widths, sample_wouts):
        self.nominal_curve = nominal_curve
        self.probe_widths = list(probe_widths)
        #: {w_in: [w_out per sample]}
        self.sample_wouts = dict(sample_wouts)

    def spread(self, w_in):
        values = self.sample_wouts[w_in]
        return max(values) - min(values)


def _transfer_scatter_task(payload):
    """Worker: one sample's w_out at every candidate probe width."""
    path = build_instance(sample=payload["sample"], tech=payload["tech"])
    row = []
    for w_in in payload["probe_widths"]:
        w_out, _ = measure_output_pulse(path, w_in, kind=payload["kind"],
                                        dt=payload["dt"])
        row.append(float(w_out))
    return row


def run_transfer_experiment(config=None, tech=None, probe_widths=None,
                            kind="h", runtime=None):
    """Fig. 10: nominal w_out(w_in) plus the MC scatter at a set of
    candidate ω_in values (paper: 0.30 ... 0.50 ns)."""
    config = ExperimentConfig.from_env() if config is None else config
    samples = config.samples()
    runtime = config.runtime() if runtime is None else runtime
    if probe_widths is None:
        probe_widths = [0.30e-9, 0.35e-9, 0.40e-9, 0.45e-9, 0.50e-9]

    def nominal_builder():
        return build_instance(sample=NominalModel(), tech=tech)

    nominal = characterize_transfer(
        nominal_builder, default_w_in_grid(tech), kind=kind, dt=config.dt)

    resolved_tech = default_technology() if tech is None else tech
    payloads = [dict(sample=sample, tech=tech,
                     probe_widths=[float(w) for w in probe_widths],
                     kind=kind, dt=config.dt)
                for sample in samples]
    keys = None
    if runtime.cache is not None:
        keys = [stable_hash("transfer-scatter", resolved_tech, sample,
                            [float(w) for w in probe_widths], kind,
                            config.dt)
                for sample in samples]
    run = runtime.run(_transfer_scatter_task, payloads, keys=keys,
                      label="transfer-scatter")
    if run.errors:
        raise run.errors[min(run.errors)]
    scatter = {w_in: [row[i] for row in run.values]
               for i, w_in in enumerate(probe_widths)}
    return TransferExperiment(nominal, probe_widths, scatter)


# ----------------------------------------------------------------------
# Figure 11 — per-path (omega_in, omega_th, R_min) on a C432-class circuit
# ----------------------------------------------------------------------

class PathCharacterization:
    def __init__(self, circuit_name, fault_net, entries, calibration,
                 refined_best=None):
        self.circuit_name = circuit_name
        self.fault_net = fault_net
        #: list of dicts: path, omega_in, omega_th, r_min, length
        self.entries = list(entries)
        self.calibration = calibration
        #: electrical refinement of the best path's omega_in (or None):
        #: dict with omega_in, w_out
        self.refined_best = refined_best

    def best(self):
        detected = [e for e in self.entries if e["r_min"] is not None]
        if not detected:
            return None
        return min(detected, key=lambda e: e["r_min"])


def run_path_characterization(config=None, tech=None, netlist=None,
                              fault_net=None, sensing_tolerance=0.1,
                              refine_best=True, runtime=None):
    """Fig. 11: characterise candidate paths through a fault site.

    Pipeline (Sec. 5): enumerate structural paths through the fault,
    sensitize each with the ATPG, derive per-path (ω_in, ω_th) from the
    logic-level pulse model under Monte Carlo timing fluctuation, then
    compute the minimal detectable resistance via the electrically
    calibrated defect model.  With ``refine_best`` the winning path's
    ω_in is finally re-derived by electrical simulation of the
    equivalent transistor-level chain (the paper ran Fig. 11
    electrically; the logic level only screens).
    """
    from ..logic import (DefectCalibration, GateTiming, generate_c432_like,
                         characterize_path_for_test,
                         minimum_detectable_resistance,
                         path_model_from_netlist, paths_through)

    config = ExperimentConfig.from_env() if config is None else config
    runtime = config.runtime() if runtime is None else runtime
    netlist = generate_c432_like() if netlist is None else netlist
    if fault_net is None:
        fault_net = _pick_fault_site(netlist)

    calibration = DefectCalibration.from_electrical(
        "external", config.rop_resistances, tech=tech, dt=config.dt,
        stage=config.fault_stage, runtime=runtime)

    samples = config.samples()
    entries = []
    paths = paths_through(netlist, fault_net,
                          max_paths=config.n_paths * 8)
    # Short paths first (the cheapest tests); keep characterising until
    # enough candidates succeeded.
    paths.sort(key=len)
    for path in paths:
        if len(entries) >= config.n_paths:
            break
        if len(path) < 3 or path[-1] not in netlist.primary_outputs:
            continue
        info = characterize_path_for_test(netlist, path)
        if info is None:
            continue
        # Monte Carlo at the logic level: the weakest instance's w_out
        # fixes omega_th (same conservative rule as the electrical flow).
        omega_in = info["omega_in"]
        wouts = []
        for sample in samples:
            timing = GateTiming(sample=sample)
            model = path_model_from_netlist(netlist, path, timing)
            wouts.append(model.transfer(omega_in))
        weakest = min(wouts)
        if weakest <= 0.0:
            continue
        omega_th = weakest / (1.0 + sensing_tolerance)
        fault_gate_index = path.index(fault_net) - 1
        if fault_gate_index < 0:
            continue  # the fault net is the path's PI: not a gate output
        r_min = minimum_detectable_resistance(
            info["model"], fault_gate_index, calibration, omega_in,
            omega_th)
        entries.append({
            "path": path,
            "length": len(path) - 1,
            "omega_in": omega_in,
            "omega_th": omega_th,
            "r_min": r_min,
        })
    result = PathCharacterization(netlist.name, fault_net, entries,
                                  calibration)
    best = result.best()
    if refine_best and best is not None:
        from .crosscheck import refine_omega_in_electrically
        omega_in, w_out, _ = refine_omega_in_electrically(
            netlist, best["path"], best["omega_in"], tech=tech,
            dt=config.dt)
        result.refined_best = {"omega_in": omega_in, "w_out": w_out}
    return result


def _pick_fault_site(netlist, min_paths=4):
    """A mid-depth net with enough structural paths through it."""
    from ..logic import paths_through

    nets = netlist.topological_nets()
    gate_nets = [n for n in nets if netlist.gate_driving(n) is not None]
    # scan outward from the middle
    order = sorted(range(len(gate_nets)),
                   key=lambda i: abs(i - len(gate_nets) // 2))
    for index in order:
        net = gate_nets[index]
        if len(paths_through(netlist, net, max_paths=min_paths)) >= min_paths:
            return net
    raise ValueError("no suitable fault site found")
