"""Workloads and measurement loops of the end-to-end benchmark.

``run.py`` starts this file once per workload in a fresh interpreter::

    python3 benchmarks/e2e/workloads.py --workload NAME --seed N \
        --seconds S --trace 0|1 --scale full|smoke --scratch DIR --out FILE

The load model is a closed loop: this one client process calls a public
campaign function, waits for it to return, and calls it again on a cold
result cache, so every iteration does the same work.  Only
``c432_campaign`` uses a worker process (a one-worker process pool: two
workers on the two-core host spread its wall time by 29 %, one worker
keeps the dispatch and IPC path without the core contention).

Untraced runs report the end-to-end metrics (median set-up time, median
campaign wall time, throughput, peak memory).  Traced runs wrap the
layer entry points (see ``spans.py``) and report the per-layer metrics.
``BENCHMARK.json`` declares the names and units of both sets.
Importing this module imports nothing from ``repro``; the workloads
import it lazily, after ``run.py`` has fixed the child's environment.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

#: measurement tolerance for raw widths/delays against the reference
WIDTH_TOL_S = 0.1e-12

#: allowed gap between summed self times and traced wall time
SELF_TIME_TOL = 0.03

ROOT_SPANS = ("setup", "iteration")


# ----------------------------------------------------------------------
# Output encoding and comparison
# ----------------------------------------------------------------------

def _num(value):
    """JSON-safe float: infinities become the strings ``"inf"``/``"-inf"``
    (NaN never appears in a correct output and stays NaN, so the check
    catches it)."""
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _value(encoded):
    return float(encoded) if isinstance(encoded, str) else encoded


def _close(got, want, tol):
    got, want = _value(got), _value(want)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= tol


def _compare_rows(errors, label, got, want, tol=WIDTH_TOL_S):
    if len(got) != len(want) or any(len(g) != len(w)
                                    for g, w in zip(got, want)):
        errors.append("{}: shape differs from the reference".format(label))
        return
    for i, (grow, wrow) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(grow, wrow)):
            if not _close(g, w, tol):
                errors.append("{}[{}][{}]: {} vs reference {}".format(
                    label, i, j, g, w))
                return


def _compare_exact(errors, label, got, want):
    if got != want:
        errors.append("{}: {} vs reference {}".format(label, got, want))


def _rel_close(got, want, rel=1e-9):
    if got is None or want is None:
        return got is want
    return abs(got - want) <= rel * abs(want)


def _finite_rows(errors, label, rows, allow_inf=False):
    for row in rows:
        for value in row:
            value = _value(value)
            if math.isnan(value) or (math.isinf(value) and not allow_inf):
                errors.append("{}: non-finite value {}".format(label, value))
                return
            if value < 0.0:
                errors.append("{}: negative value {}".format(label, value))
                return


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class IterationResult:
    """What one campaign iteration hands back to the measurement loop."""

    def __init__(self, outputs, reports, items, extras=None):
        #: JSON-safe outputs, compared across iterations and against the
        #: reference
        self.outputs = outputs
        #: the campaign's :class:`~repro.runtime.RunReport` objects
        self.reports = list(reports)
        #: work items completed (transients or fault sites)
        self.items = int(items)
        #: workload-specific per-iteration numbers for per-layer metrics
        self.extras = dict(extras or {})


class Workload:
    """Base class: one campaign, sized by ``SCALES[scale]``."""

    name = None
    base_seed = 0
    #: executor of the timed (untraced) iterations
    executor = "serial"
    #: process-pool workers when ``executor == "pool"``
    n_jobs = 1
    #: set-up repetitions per run (the median is reported)
    setup_reps = 5
    SCALES = {}

    def __init__(self, seed=0, scale="full"):
        self.seed = self.base_seed + int(seed)
        self.scale = scale
        self.params = dict(self.SCALES[scale])

    def describe(self):
        return dict(self.params, seed=self.seed)

    def setup(self):
        raise NotImplementedError

    def iterate(self, inputs, runtime):
        raise NotImplementedError

    def check(self, outputs):
        """Seed-independent output checks; returns error strings."""
        return []

    def compare(self, outputs, reference):
        """Checks against the recorded reference outputs."""
        return []


def _warm_up(dt, adaptive=False, batched=False):
    """One nominal transient, so lazy imports and first-call set-up do
    not land in the first timed iteration."""
    from repro.core.pulse import (build_instance, measure_output_pulse,
                                  measure_output_pulse_batch)
    if batched:
        paths = [build_instance(), build_instance()]
        measure_output_pulse_batch(paths, 0.43e-9, dt=dt, adaptive=adaptive)
    else:
        measure_output_pulse(build_instance(), 0.43e-9, dt=dt,
                             adaptive=adaptive)


def _coverage_outputs(experiment):
    return {
        "omega_in": experiment.calibration.omega_in,
        "omega_th": experiment.calibration.omega_th,
        "t_star": experiment.dftest.t_star,
        "pulse_hits": {label: experiment.pulse.curve(label).hits
                       for label in experiment.pulse.labels()},
        "delay_hits": {label: experiment.delay.curve(label).hits
                       for label in experiment.delay.labels()},
        "pulse_raw": [[_num(v) for v in row] for row in experiment.pulse.raw],
        "delay_raw": [[_num(v) for v in row] for row in experiment.delay.raw],
    }


class Fig6to9Fixed(Workload):
    """Figs. 6-9: open then bridging coverage on the fixed grid."""

    name = "fig6to9_fixed"
    base_seed = 1
    SCALES = {
        "full": dict(n_samples=2, r_points=3, dt=5e-12),
        "smoke": dict(n_samples=1, r_points=2, dt=1e-11),
    }

    def setup(self):
        import numpy as np
        from repro.core import ExperimentConfig
        p = self.params
        config = ExperimentConfig(
            n_samples=p["n_samples"], dt=p["dt"], seed=self.seed,
            rop_resistances=list(np.geomspace(500.0, 40e3, p["r_points"])),
            bridging_resistances=list(
                np.geomspace(800.0, 30e3, p["r_points"])))
        _warm_up(p["dt"])
        return config

    def iterate(self, config, runtime):
        from repro.core import run_bridging_coverage, run_open_coverage
        from repro.core.transfer import default_w_in_grid
        open_exp = run_open_coverage(config, runtime=runtime)
        bridging = run_bridging_coverage(config, runtime=runtime)
        s, r = self.params["n_samples"], self.params["r_points"]
        # nominal transfer curve + fault-free calibration (the bridging
        # run reads both from the cache) + pulse and delay sweeps of both
        # fault families
        transients = len(default_w_in_grid()) + 2 * s + 4 * s * r
        outputs = {"open": _coverage_outputs(open_exp),
                   "bridging": _coverage_outputs(bridging)}
        return IterationResult(outputs, [open_exp.report, bridging.report],
                               transients)

    def check(self, outputs):
        errors = []
        for family in ("open", "bridging"):
            out = outputs[family]
            for key in ("omega_in", "omega_th", "t_star"):
                if not (math.isfinite(out[key]) and out[key] > 0.0):
                    errors.append("{}.{} = {}".format(family, key, out[key]))
            _finite_rows(errors, family + ".pulse_raw", out["pulse_raw"])
            _finite_rows(errors, family + ".delay_raw", out["delay_raw"],
                         allow_inf=True)
        errors.extend(self.shape_claims(outputs))
        return errors

    def compare(self, outputs, reference):
        errors = []
        for family in ("open", "bridging"):
            got, want = outputs[family], reference[family]
            for key in ("omega_in", "omega_th", "t_star"):
                if not _close(got[key], want[key], WIDTH_TOL_S):
                    errors.append("{}.{}: {} vs reference {}".format(
                        family, key, got[key], want[key]))
            for key in ("pulse_hits", "delay_hits"):
                _compare_exact(errors, family + "." + key, got[key],
                               want[key])
            for key in ("pulse_raw", "delay_raw"):
                _compare_rows(errors, family + "." + key, got[key],
                              want[key])
        return errors

    def shape_claims(self, outputs):
        """The EXPERIMENTS.md shape claims the figure benches assert."""
        errors = []
        n = self.params["n_samples"]
        for kind in ("pulse_hits", "delay_hits"):
            for label, hits in outputs["open"][kind].items():
                # monotone opens (the figure benches' 0.3 tolerance)
                if any(b < a - 0.3 * n for a, b in zip(hits, hits[1:])):
                    errors.append("open {} {} not monotone: {}".format(
                        kind, label, hits))
        bridging = outputs["bridging"]
        delay = bridging["delay_hits"]
        # bridging C_del decays with R: the tail falls below the peak
        # (0.9*T is left out: its tighter clock may catch fault-free
        # samples at every R)
        for label in ("1.0*T", "1.1*T"):
            if delay[label][-1] >= max(delay[label]):
                errors.append("bridging C_del {} does not decay: {}"
                              .format(label, delay[label]))
        # large-R bridges escape the loosest reduced clock entirely
        if delay["1.1*T"][-1] != 0:
            errors.append("bridging C_del 1.1*T ends at {}, not 0".format(
                delay["1.1*T"][-1]))
        # a tighter clock detects at least as much at every R
        if any(t < l for t, l in zip(delay["0.9*T"], delay["1.1*T"])):
            errors.append("bridging C_del 0.9*T below 1.1*T: {} vs {}"
                          .format(delay["0.9*T"], delay["1.1*T"]))
        if (sum(bridging["pulse_hits"]["1.0*w_th"])
                < sum(bridging["delay_hits"]["1.0*T"])):
            errors.append("bridging: sum C_pulse < sum C_del")
        return errors


class McBatched(Workload):
    """One Monte Carlo pulse sweep on the lockstep batched engine."""

    name = "mc_batched"
    base_seed = 11
    SCALES = {
        "full": dict(n_samples=32, resistances=[4e3, 12e3, 30e3],
                     omega_in=430e-12, dt=5e-12, batch_size=32),
        "smoke": dict(n_samples=4, resistances=[4e3, 30e3],
                      omega_in=430e-12, dt=1e-11, batch_size=4),
    }

    def setup(self):
        from repro.montecarlo import sample_population
        samples = sample_population(self.params["n_samples"],
                                    base_seed=self.seed)
        _warm_up(self.params["dt"], batched=True)
        return samples

    def iterate(self, samples, runtime):
        from repro.core.coverage import sweep_pulse_measurements
        from repro.faults import ExternalOpen
        from repro.runtime import RunReport
        p = self.params
        report = RunReport("mc-batched")
        rows = sweep_pulse_measurements(
            samples, ExternalOpen(2, p["resistances"][0]),
            p["resistances"], p["omega_in"], dt=p["dt"], runtime=runtime,
            report=report, engine="batched", batch_size=p["batch_size"])
        outputs = {"rows": [[_num(v) for v in row] for row in rows]}
        return IterationResult(outputs, [report],
                               len(samples) * len(p["resistances"]))

    def check(self, outputs):
        errors = []
        _finite_rows(errors, "rows", outputs["rows"])
        return errors

    def compare(self, outputs, reference):
        errors = []
        _compare_rows(errors, "rows", outputs["rows"], reference["rows"])
        return errors


def _curve_points(curve):
    return [[r, h, n] for r, h, n in zip(curve.resistances, curve.hits,
                                         curve.ns)]


def _sweep_rows(sweep):
    """Raw measurements per R point, in resistance order."""
    return [[_num(v) for v in values]
            for _, values in sorted(sweep.raw().items())]


class AdaptiveOpen(Workload):
    """Adaptive-precision open-coverage campaign on the adaptive grid."""

    name = "adaptive_open"
    base_seed = 3
    SCALES = {
        "full": dict(n_samples=8, r_points=3, dt=5e-12, ci_width=0.3,
                     min_wave=2, refine_rel_tol=0.5),
        "smoke": dict(n_samples=2, r_points=2, dt=1e-11, ci_width=0.45,
                      min_wave=1, refine_rel_tol=2.0),
    }

    def setup(self):
        import numpy as np
        from repro.core import ExperimentConfig
        p = self.params
        config = ExperimentConfig(
            n_samples=p["n_samples"], dt=p["dt"], seed=self.seed,
            adaptive=True,
            rop_resistances=list(np.geomspace(500.0, 40e3, p["r_points"])))
        _warm_up(p["dt"], adaptive=True)
        return config

    def iterate(self, config, runtime):
        from repro.core import run_adaptive_coverage
        from repro.core.transfer import default_w_in_grid
        p = self.params
        result = run_adaptive_coverage(
            config, runtime=runtime, fault="open", ci_width=p["ci_width"],
            min_wave=p["min_wave"], refine_rel_tol=p["refine_rel_tol"],
            refine_targets=(1.0,))
        outputs = {
            "transients": dict(result.transients),
            "pulse_points": _curve_points(result.pulse_curves["1.0*w_th"]),
            "delay_points": _curve_points(result.delay_curves["1.0*T"]),
            "pulse_min_r": result.minimum_detectable_r("pulse"),
            "delay_min_r": result.minimum_detectable_r("delay"),
            "pulse_raw": _sweep_rows(result.pulse_sweep),
            "delay_raw": _sweep_rows(result.delay_sweep),
        }
        # adaptive sweep transients + nominal transfer curve + fault-free
        # calibration of both tests
        items = (result.transients["adaptive"] + len(default_w_in_grid())
                 + 2 * p["n_samples"])
        extras = {
            "core.adaptive.transients": result.transients["adaptive"],
            "core.adaptive.matched_transients":
                result.transients["matched_resolution"],
            "core.adaptive.waves": result.report.waves,
        }
        return IterationResult(outputs, [result.report], items, extras)

    def check(self, outputs):
        errors = []
        for key in ("pulse_points", "delay_points"):
            for r, hits, n in outputs[key]:
                if not (math.isfinite(r) and 0 <= hits <= n and n > 0):
                    errors.append("{}: bad point {}".format(key, (r, hits, n)))
        _finite_rows(errors, "pulse_raw", outputs["pulse_raw"])
        _finite_rows(errors, "delay_raw", outputs["delay_raw"],
                     allow_inf=True)
        return errors

    def compare(self, outputs, reference):
        errors = []
        _compare_exact(errors, "transients", outputs["transients"],
                       reference["transients"])
        for key in ("pulse_points", "delay_points"):
            got, want = outputs[key], reference[key]
            if (len(got) != len(want)
                    or any(g[1:] != w[1:] or not _rel_close(g[0], w[0])
                           for g, w in zip(got, want))):
                errors.append("{}: {} vs reference {}".format(key, got, want))
        for key in ("pulse_min_r", "delay_min_r"):
            if not _rel_close(outputs[key], reference[key]):
                errors.append("{}: {} vs reference {}".format(
                    key, outputs[key], reference[key]))
        for key in ("pulse_raw", "delay_raw"):
            _compare_rows(errors, key, outputs[key], reference[key])
        return errors


class C432Campaign(Workload):
    """Whole-circuit pulse-test campaign on the C432-class netlist."""

    name = "c432_campaign"
    base_seed = 7
    executor = "pool"
    setup_reps = 3
    # calibrated at 20 ps, not the 5 ps of ``campaign --fast``, so that
    # three set-ups per run fit the run-time budget (see README.md)
    SCALES = {
        "full": dict(n_samples=5, site_stride=2,
                     calibration_r=[1e3, 4e3, 12e3, 40e3], dt=2e-11),
        "smoke": dict(n_samples=2, site_stride=16,
                      calibration_r=[1e3, 40e3], dt=2e-11),
    }

    def setup(self):
        from repro.logic import (DefectCalibration, generate_c432_like,
                                 run_campaign)
        from repro.montecarlo import sample_population
        p = self.params
        netlist = generate_c432_like(seed=432)
        calibration = DefectCalibration.from_electrical(
            "external", p["calibration_r"], dt=p["dt"])
        samples = sample_population(p["n_samples"], base_seed=self.seed)
        # warm-up: one site in-process, uncached
        run_campaign(netlist, calibration, samples=samples, site_limit=1)
        return netlist, calibration, samples

    def iterate(self, inputs, runtime):
        from repro.logic import run_campaign
        netlist, calibration, samples = inputs
        result = run_campaign(netlist, calibration, samples=samples,
                              site_stride=self.params["site_stride"],
                              runtime=runtime)
        statuses = Counter(site.status for site in result.sites)
        outputs = {
            "statuses": dict(sorted(statuses.items())),
            "r_min": {site.net: site.r_min for site in result.sites},
        }
        extras = {
            "logic.sites": len(result.sites),
            "logic.paths_tried": sum(s.paths_tried for s in result.sites),
        }
        return IterationResult(outputs, [result.report], len(result.sites),
                               extras)

    def check(self, outputs):
        errors = []
        if outputs["statuses"].get("error"):
            errors.append("{} sites failed".format(
                outputs["statuses"]["error"]))
        for net, r_min in outputs["r_min"].items():
            if r_min is not None and not (math.isfinite(r_min)
                                          and r_min > 0.0):
                errors.append("site {}: r_min = {}".format(net, r_min))
        return errors

    def compare(self, outputs, reference):
        errors = []
        _compare_exact(errors, "statuses", outputs["statuses"],
                       reference["statuses"])
        want = reference["r_min"]
        if sorted(outputs["r_min"]) != sorted(want):
            errors.append("r_min: site list differs from the reference")
            return errors
        for net, r_min in outputs["r_min"].items():
            if not _rel_close(r_min, want[net], rel=1e-6):
                errors.append("site {}: r_min {} vs reference {}".format(
                    net, r_min, want[net]))
                break
        return errors


WORKLOADS = {cls.name: cls for cls in (Fig6to9Fixed, McBatched,
                                       AdaptiveOpen, C432Campaign)}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def _runtime(kind, n_jobs, cache_dir):
    from repro.runtime import (ProcessPoolExecutor, ResultCache, Runtime,
                               SerialExecutor)
    if kind == "pool":
        executor = ProcessPoolExecutor(n_jobs=n_jobs)
    else:
        executor = SerialExecutor()
    return Runtime(executor=executor, cache=ResultCache(cache_dir))


def _dir_bytes(path):
    total = 0
    for directory, _, files in os.walk(os.path.join(path, "objects")):
        total += sum(os.path.getsize(os.path.join(directory, f))
                     for f in files)
    return total


class Iteration:
    """One timed campaign call: its interval on the ``perf_counter``
    clock, the probe samples that measured the host speed meanwhile, and
    its result."""

    def __init__(self, start, end, samples, result, written):
        self.start = start
        self.end = end
        #: ``None``: the probes of this process
        self.samples = samples
        self.result = result
        #: bytes the campaign wrote to its result cache
        self.written = written

    def seconds(self, probe):
        """``(measured, nominal)`` seconds (see ``probe.py``)."""
        return probe.nominal_seconds(self.start, self.end, self.samples)


class Loop:
    """Runs iterations of one workload, each on a fresh cold cache.

    ``probe`` is the :class:`~probe.HostProbe` running in this process;
    iterations on the process pool are normalised with the probes of
    the pool's workers instead, because they do the work.
    """

    def __init__(self, workload, inputs, scratch, probe):
        from probe import WorkerProbes
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.probe = probe
        self.workers = WorkerProbes(tempfile.mkdtemp(prefix="probes-",
                                                     dir=scratch))
        self.outputs = None
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def once(self, executor, tracer=None):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        runtime = _runtime(executor, self.workload.n_jobs, cache_dir)
        gc.collect()
        if executor == "pool":
            self.workers.install()
        try:
            start = time.perf_counter()
            if tracer is None:
                result = self.workload.iterate(self.inputs, runtime)
            else:
                with tracer.span("iteration"):
                    result = self.workload.iterate(self.inputs, runtime)
            end = time.perf_counter()
        finally:
            self.workers.uninstall()
        samples = self.workers.samples() if executor == "pool" else None
        written = _dir_bytes(cache_dir)
        shutil.rmtree(cache_dir)
        self._account(result)
        return Iteration(start, end, samples, result, written)

    def _account(self, result):
        for report in result.reports:
            self.attempted += report.n_tasks
            self.failed += report.failed
        if self.outputs is None:
            self.outputs = result.outputs
            self.errors.extend(self.workload.check(result.outputs))
        elif result.outputs != self.outputs:
            self.errors.append("outputs differ between iterations")

    def repeat(self, executor, budget_s, min_iter, tracer=None):
        """Iterate at least ``min_iter`` times, then while another
        iteration of median length still fits in ``budget_s``."""
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(self.once(executor, tracer))
            median = statistics.median(run.end - run.start for run in runs)
            if (len(runs) >= min_iter and time.perf_counter() - start
                    + median > budget_s):
                return runs


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds, scratch, min_iter, probe):
    """Untraced run: the end-to-end metrics (nominal-speed seconds)."""
    intervals = []
    for _ in range(1 if workload.scale == "smoke" else workload.setup_reps):
        start = time.perf_counter()
        inputs = workload.setup()
        intervals.append((start, time.perf_counter()))
    loop = Loop(workload, inputs, scratch, probe)
    runs = loop.repeat(workload.executor, seconds, min_iter)
    # normalised last, so that short set-ups have probes on both sides
    setups = [probe.nominal_seconds(t0, t1) for t0, t1 in intervals]
    walls = [run.seconds(probe) for run in runs]
    nominal = [wall for _, wall in walls]
    measured = [wall for wall, _ in walls]
    items = sum(run.result.items for run in runs)
    metrics = {
        "setup_s": statistics.median(wall for _, wall in setups),
        "wall_s": statistics.median(nominal),
        "items_per_s": items / sum(nominal),
        "peak_rss_mb": _peak_rss_mb(),
    }
    details = {
        # the time metrics in measured instead of nominal seconds
        "measured": {
            "setup_s": statistics.median(wall for wall, _ in setups),
            "wall_s": statistics.median(measured),
            "items_per_s": items / sum(measured),
        },
        "setup_nominal_s": [wall for _, wall in setups],
        "setup_measured_s": [wall for wall, _ in setups],
        "wall_nominal_s": nominal,
        "wall_measured_s": measured,
        "probe_median_s": statistics.median(d for _, d in probe.samples),
        "items_per_iteration": runs[0].result.items,
    }
    return loop, metrics, details


def _delta(after, before):
    """``after - before`` for nested ``{group: {key: number}}`` totals."""
    return {group: {key: value - before.get(group, {}).get(key, 0)
                    for key, value in values.items()}
            for group, values in after.items()}


def _combine(setup_part, iter_part, n_iter):
    """One traced set-up plus the mean traced iteration."""
    groups = set(setup_part) | set(iter_part)
    out = {}
    for group in groups:
        a, b = setup_part.get(group, {}), iter_part.get(group, {})
        out[group] = {key: a.get(key, 0) + b.get(key, 0) / n_iter
                      for key in set(a) | set(b)}
    return out


def _stats_totals():
    from repro.runtime import root_stats
    return {"counters": dict(root_stats().counters)}


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def _speed(runs, probe):
    """Nominal over measured seconds of ``runs``: the factor that turns
    their measured times into nominal-speed seconds."""
    measured, nominal = zip(*(run.seconds(probe) for run in runs))
    return sum(nominal) / sum(measured)


def _dispatch_metrics(runs, executor_s_total, n_workers, speed):
    """``runtime.*`` dispatch metrics from untraced iterations: the
    parent-side ``map_tasks`` time against the tasks' own durations,
    in nominal seconds."""
    reports = [rep for run in runs for rep in run.result.reports]
    durations = sorted(speed * d for rep in reports for d in rep.durations)
    n = len(runs)
    executor_s = speed * executor_s_total / n
    busy_s = sum(durations) / n
    return {
        "runtime.executor_s": executor_s,
        "runtime.task_busy_s": busy_s,
        "runtime.worker_utilisation": _ratio(busy_s,
                                             executor_s * n_workers),
        "runtime.dispatch_overhead_s": executor_s - busy_s / n_workers,
        "runtime.task_p50_s": _percentile(durations, 0.5),
        "runtime.task_p90_s": _percentile(durations, 0.9),
        "runtime.retries": sum(rep.retries for rep in reports) / n,
        "runtime.pool_rebuilds": sum(rep.pool_rebuilds
                                     for rep in reports) / n,
    }, len(durations)


def profile(workload, seconds, scratch, min_iter, probe, trace_path):
    """Traced run: the per-layer metrics.

    Three phases.  (1) Untraced iterations on the workload's own
    executor, with only ``map_tasks`` wrapped, give the dispatch metrics
    (``runtime.executor_s`` ... ``runtime.pool_rebuilds``).  (2) For a
    pooled workload, untraced serial iterations give the reference time
    for the tracing overhead: worker processes' spans never reach this
    process, so the traced phase runs serially.  (3) A traced set-up
    followed by traced iterations gives everything else, reported as one
    set-up plus the mean iteration.  Layer times are rescaled to nominal
    seconds by the host speed the probes measured over the phase that
    produced them.
    """
    from spans import Tracer, self_time_balance

    loop = Loop(workload, workload.setup(), scratch, probe)
    share = seconds / 3.0

    executor_probe = Tracer(spans=["runtime.executor"])
    with executor_probe:
        runs = loop.repeat(workload.executor, share, min_iter)
    dispatch, n_durations = _dispatch_metrics(
        runs, executor_probe.incl_s.get("runtime.executor", 0.0),
        workload.n_jobs, _speed(runs, probe))

    if workload.executor != "serial":
        runs = loop.repeat("serial", share, 1)
    untraced_s = statistics.median(run.seconds(probe)[1] for run in runs)

    tracer = Tracer()
    probe.tracer = tracer
    before = dict(tracer.totals(), **_stats_totals())
    start = time.perf_counter()
    try:
        with tracer:
            with tracer.span("setup"):
                loop.inputs = workload.setup()
            after_setup = dict(tracer.totals(), **_stats_totals())
            traced = loop.repeat("serial", share, min_iter, tracer=tracer)
    finally:
        probe.tracer = None
    measured, nominal = probe.nominal_seconds(start, time.perf_counter())
    after = dict(tracer.totals(), **_stats_totals())
    tracer.write_jsonl(trace_path)

    n_iter = len(traced)
    totals = _combine(_delta(after_setup, before),
                      _delta(after, after_setup), n_iter)
    for group in ("self_s", "incl_s"):
        totals[group] = {name: value * nominal / measured
                         for name, value in totals[group].items()}
    extras = {}
    for run in traced:
        for key, value in dict(run.result.extras,
                               bytes_written=run.written).items():
            extras[key] = extras.get(key, 0) + value / n_iter
    traced_wall = (totals["incl_s"].get("setup", 0.0)
                   + totals["incl_s"].get("iteration", 0.0))
    gap, unattributed = self_time_balance(totals["self_s"], ROOT_SPANS,
                                          traced_wall)
    traced_s = statistics.median(run.seconds(probe)[1] for run in traced)
    metrics = layer_metrics(totals, extras, dispatch)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.unattributed_frac"] = unattributed / traced_wall
    details = {
        "traced_wall_s": traced_wall,
        "self_time_gap": gap,
        "self_time_shares": {name: value / traced_wall for name, value
                             in sorted(totals["self_s"].items())},
        "task_durations_n": n_durations,
        "untraced_iteration_nominal_s": untraced_s,
        "traced_iteration_nominal_s": traced_s,
        "traced_iterations": n_iter,
        "trace_file": os.path.relpath(trace_path),
    }
    if gap > SELF_TIME_TOL:
        loop.errors.append(
            "self times sum to the traced wall time only within {:.1%}"
            .format(gap))
    return loop, metrics, details


def layer_metrics(totals, extras, dispatch):
    """Per-layer metrics from traced totals (see README.md)."""
    self_s = totals["self_s"]
    incl_s = totals["incl_s"]
    calls = totals["calls"]
    counts = totals["counts"]
    c = totals["counters"]

    def own(name):
        return self_s.get(name, 0.0)

    def incl(name):
        return incl_s.get(name, 0.0)

    evaluated = counts.get("devices_evaluated", 0)
    bypassed = c.get("devices_bypassed", 0)
    iterations = c.get("newton_iterations", 0)
    accepted = c.get("adaptive_accepted", 0)
    rejected = c.get("adaptive_rejected", 0)
    factorizations = c.get("lu_factorizations", 0)
    reuses = c.get("lu_reuses", 0)
    metrics = {
        "spice.mosfet.eval_s": own("spice.mosfet.eval"),
        "spice.mosfet.devices_evaluated": evaluated,
        "spice.mna.devices_bypassed": bypassed,
        "spice.mna.bypass_ratio": _ratio(bypassed, bypassed + evaluated),
        "spice.mna.device_cache_s": own("spice.mna.device_cache"),
        "spice.mna.residual_s": own("spice.mna.residual"),
        "spice.mna.rhs_s": own("spice.mna.rhs"),
        "spice.newton.self_s": own("spice.newton"),
        "spice.newton.iterations": iterations,
        "spice.newton.iters_per_solve": _ratio(
            iterations, c.get("newton_solves", 0)),
        "spice.newton.forced_exact": c.get("bypass_forced_exact", 0),
        "spice.newton.us_per_iter": 1e6 * _ratio(incl("spice.newton"),
                                                 iterations),
        "spice.transient.self_s": own("spice.transient"),
        "spice.transient.steps": counts.get("transient_steps", 0)
        + accepted,
        "spice.lu.factor_s": own("spice.lu.factor"),
        "spice.lu.factorizations": factorizations,
        "spice.lu.solve_s": own("spice.lu.solve"),
        "spice.lu.reuse_ratio": _ratio(reuses, reuses + factorizations),
        "spice.mna.stamp_s": own("spice.mna.stamp"),
        "spice.transient.step_control_s": own(
            "spice.transient.step_control"),
        "spice.transient.rejected": rejected,
        "spice.transient.reject_ratio": _ratio(rejected,
                                               rejected + accepted),
        "spice.dcop_s": incl("spice.dcop"),
        "spice.batch.assembly_s": own("spice.batch.assembly"),
        "spice.batch.rows_per_solve": _ratio(counts.get("batch_rows", 0),
                                             counts.get("batch_solves", 0)),
        "spice.batch.compile_s": incl("spice.batch.compile"),
        "spice.newton.ladder_retries": c.get("ladder_retries", 0),
        "cells.build_s": incl("cells.build"),
        "faults.inject_s": incl("faults.inject"),
        "spice.compile_s": incl("spice.compile"),
        "spice.waveform.measure_s": incl("spice.waveform.measure"),
        "core.calibration_s": incl("core.calibration"),
        "core.sweep_s": incl("core.sweep"),
        "core.adaptive.self_s": own("core.adaptive"),
        "runtime.hash_s": incl("runtime.hash"),
        "runtime.cache.put_s": incl("runtime.cache.put"),
        "runtime.cache.puts": calls.get("runtime.cache.put", 0),
        "runtime.cache.bytes_written": extras.get("bytes_written", 0),
        "runtime.checkpoint_s": incl("runtime.checkpoint"),
        "runtime.cache.get_s": incl("runtime.cache.get"),
        "runtime.cache.gets": calls.get("runtime.cache.get", 0),
        "runtime.cache.hits": counts.get("runtime.cache.get.ok", 0),
        "logic.paths_s": incl("logic.paths"),
        "logic.atpg_s": incl("logic.atpg"),
        "logic.pulse_model_s": incl("logic.pulse_model"),
        "logic.rmin_s": own("logic.rmin"),
    }
    for name in ("core.adaptive.transients",
                 "core.adaptive.matched_transients", "core.adaptive.waves",
                 "logic.sites", "logic.paths_tried"):
        metrics[name] = extras.get(name, 0)
    metrics.update(dispatch)
    return metrics


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------

def _reference_errors(workload, outputs, reference_path):
    """Compare with the recorded reference (default seed, full scale)."""
    if workload.scale != "full" or workload.seed != workload.base_seed:
        return []
    with open(reference_path) as handle:
        reference = json.load(handle).get(workload.name)
    if reference is None:
        return ["no reference recorded for {}".format(workload.name)]
    if reference["params"] != json.loads(json.dumps(workload.describe())):
        return ["reference was recorded with other parameters: {}"
                .format(reference["params"])]
    return workload.compare(outputs, reference["outputs"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--reference",
                        help="reference outputs to compare against "
                        "(omit when recording a new reference)")
    args = parser.parse_args(argv)

    # imported up front: set-up time is the workload's preparation, not
    # the interpreter loading the package
    import repro.core  # noqa: F401
    import repro.logic  # noqa: F401

    from probe import HostProbe

    workload = WORKLOADS[args.workload](seed=args.seed, scale=args.scale)
    min_iter = 2 if args.scale == "full" else 1
    probe = HostProbe().start()
    try:
        if args.trace:
            loop, metrics, details = profile(
                workload, args.seconds, args.scratch, min_iter, probe,
                args.trace_out)
        else:
            loop, metrics, details = measure(workload, args.seconds,
                                             args.scratch, min_iter, probe)
    finally:
        probe.stop()
    errors = list(loop.errors)
    if loop.failed:
        errors.append("{} of {} campaign tasks failed".format(
            loop.failed, loop.attempted))
    if args.reference and not errors:
        errors.extend(_reference_errors(workload, loop.outputs,
                                        args.reference))
    result = {
        "workload": workload.name,
        "params": workload.describe(),
        "trace": args.trace,
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": loop.attempted if errors else loop.failed,
        "errors": errors,
        "metrics": metrics,
        "details": details,
        "outputs": loop.outputs,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
