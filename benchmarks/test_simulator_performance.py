"""Performance benchmarks of the electrical substrate itself.

These are the only benches where pytest-benchmark's statistics matter:
they track the cost of the primitive operations every experiment is
built from, so performance regressions in the MNA core show up here.

``test_perf_campaign_runtime`` and ``test_perf_adaptive_coverage`` also
record their numbers in ``BENCH_runtime.json`` at the repo root (serial
vs parallel vs batched vs adaptive samples/sec, accepted/rejected
adaptive step counts, cache-warm speedup, adaptive transient budget)
through one writer, :func:`record_bench`: each bench replaces its own sections
and appends a timestamped record to the file's ``history`` list, so the
file keeps the runtime's perf trajectory.
Knobs: ``REPRO_BENCH_SAMPLES`` (population size, default 32),
``REPRO_BENCH_JOBS`` (parallel worker count, default min(4, CPUs)),
``REPRO_BENCH_BATCH`` (lockstep batch size, default 32).
"""

import datetime
import json
import os
import time

import pytest

from repro.cells import build_path
from repro.spice import operating_point, run_transient
from repro.spice.mna import CompiledCircuit
from repro.spice.dcop import solve_dc


#: minimum total time of the warm-cache reruns in the campaign bench
WARM_LEG_S = 0.5

#: the runtime benches' report, at the repo root
BENCH_REPORT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_runtime.json")


def record_bench(bench, sections):
    """Write one bench's ``sections`` (top-level keys of
    ``BENCH_runtime.json``) into the report, in place, and append them
    with a UTC timestamp to its ``history`` list.

    The other benches' sections stay as they are.  The regression gate
    (``compare_bench.py``) walks dicts only, so it compares the latest
    values and skips the history.
    """
    try:
        with open(BENCH_REPORT) as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {}
    report.update(sections)
    stamp = datetime.datetime.now(datetime.timezone.utc)
    report.setdefault("history", []).append(dict(
        sections, bench=bench,
        recorded=stamp.isoformat(timespec="seconds")))
    with open(BENCH_REPORT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def reference_path():
    return build_path()


def test_perf_compile(benchmark, reference_path):
    """Netlist -> numeric lowering of the reference path."""
    result = benchmark(CompiledCircuit, reference_path.circuit)
    assert result.n_nodes > 5


def test_perf_dc_operating_point(benchmark, reference_path):
    """Newton DC solve of the 7-gate sensitized path."""
    compiled = CompiledCircuit(reference_path.circuit)
    x = benchmark(solve_dc, compiled)
    assert abs(x).max() <= reference_path.tech.vdd * 1.2


def test_perf_short_transient(benchmark, reference_path):
    """A 0.5 ns transient at 4 ps on the reference path (~125 steps)."""
    reference_path.set_input_pulse(0.3e-9, kind="h")

    def run():
        return run_transient(reference_path.circuit, 0.5e-9, 4e-12,
                             record=[reference_path.output_node])

    waveform = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(waveform.t) > 100


def test_perf_full_pulse_measurement(benchmark, reference_path):
    """The workhorse: one complete w_out measurement."""
    from repro.core import measure_output_pulse

    def run():
        return measure_output_pulse(reference_path, 0.42e-9, dt=4e-12)

    w_out, _ = benchmark.pedantic(run, rounds=2, iterations=1)
    assert w_out > 0.3e-9


def test_perf_logic_event_simulation(benchmark):
    """Event-driven run over the c432-class netlist."""
    from repro.logic import GateTiming, TimingSimulator, generate_c432_like

    netlist = generate_c432_like()
    sim = TimingSimulator(netlist, timing=GateTiming())
    vector = {pi: 0 for pi in netlist.primary_inputs}
    pi = netlist.primary_inputs[0]

    def run():
        return sim.run(vector, events=[(1e-9, pi, 1)], t_end=50e-9)

    trace = benchmark(run)
    assert trace.t_end == 50e-9


def test_perf_atpg_sensitization(benchmark):
    """PODEM over every candidate path of the C432 site set of the
    ``c432_campaign`` workload at the campaign's backtrack limit: the
    searches that fail (some on the limit) included, where most of the
    search time goes.  The paths and the totals of their searches come
    from the recorded reference of ``tests/logic/test_exactness.py``."""
    from repro.logic import generate_c432_like, sensitize_path
    from repro.runtime.stats import stats_scope

    reference_file = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tests", "logic",
        "podem_reference.json")
    with open(reference_file) as handle:
        reference = json.load(handle)
    netlist = generate_c432_like(seed=reference["seed"])
    paths = [record["path"] for record in reference["paths"]]
    limit = reference["max_backtracks"]

    def run():
        with stats_scope() as stats:
            for path in paths:
                try:
                    sensitize_path(netlist, path, max_backtracks=limit)
                except ValueError:
                    pass  # a side input on the path
        return stats

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    totals = reference["totals"]
    assert stats.total("atpg_sensitizations") == totals["sensitizations"]
    assert stats.total("atpg_backtracks") == totals["backtracks"]
    assert stats.total("atpg_gate_evaluations") == (
        totals["gate_evaluations"])


def test_perf_campaign_runtime(tmp_path):
    """Campaign runtime trajectory: serial vs pool vs batched vs cache.

    Runs the same ROP coverage sweep (the acceptance workload: one
    measurement row per Monte Carlo sample) several ways and records the
    numbers in ``BENCH_runtime.json``.  A parallel speedup is only
    meaningful on a multi-core runner, so on a single-CPU box the
    parallel leg is *skipped* and marked as such in the JSON rather than
    recorded as a bogus comparison.  Every fixed-grid leg runs each
    task's samples x R points as one lockstep population (one stacked
    MNA solve per Newton iteration): the ``serial`` leg (one sample per
    task) as populations of 3, the ``batched`` leg as populations of
    ``REPRO_BENCH_BATCH`` x 3.  The ``adaptive`` leg runs in the chunks
    the runtime sizes (serially one population of every sample x 3 R
    points), in which every row steps on its own time grid, so its step
    counts stay per row.  The ``cache`` leg times a warm rerun against
    the cold run that filled the cache and against a direct read of the
    objects the cold run wrote.  Knobs: ``REPRO_BENCH_SAMPLES``,
    ``REPRO_BENCH_JOBS``, ``REPRO_BENCH_BATCH``.
    """
    from repro.core.coverage import sweep_pulse_measurements
    from repro.faults import ExternalOpen
    from repro.montecarlo import sample_population
    from repro.runtime import (DEFAULT_BATCH_SIZE, ProcessPoolExecutor,
                               Runtime, SerialExecutor)

    n_samples = int(os.environ.get("REPRO_BENCH_SAMPLES", "32"))
    cpus = os.cpu_count() or 1
    n_jobs = int(os.environ.get("REPRO_BENCH_JOBS", str(min(4, cpus))))
    bench_batch = int(os.environ.get("REPRO_BENCH_BATCH",
                                     str(DEFAULT_BATCH_SIZE)))
    samples = sample_population(n_samples, base_seed=1)
    fault = ExternalOpen(2, 8e3)
    resistances = [2e3, 8e3, 32e3]
    sweep_kwargs = dict(omega_in=0.40e-9, dt=5e-12)

    def timed(runtime, batch_size=1):
        t0 = time.perf_counter()
        rows = sweep_pulse_measurements(samples, fault, resistances,
                                        runtime=runtime,
                                        batch_size=batch_size,
                                        **sweep_kwargs)
        return rows, time.perf_counter() - t0

    serial_rows, serial_s = timed(Runtime(executor=SerialExecutor()))
    batched_rows, batched_s = timed(Runtime(executor=SerialExecutor()),
                                    batch_size=bench_batch)

    # Adaptive grid: same workload on the LTE-controlled time base.
    from repro.runtime import stats_scope

    t0 = time.perf_counter()
    with stats_scope() as adaptive_stats:
        adaptive_rows = sweep_pulse_measurements(
            samples, fault, resistances,
            runtime=Runtime(executor=SerialExecutor()), adaptive=True,
            **sweep_kwargs)
    adaptive_s = time.perf_counter() - t0
    adaptive_accepted = adaptive_stats.total("adaptive_accepted")
    adaptive_rejected = adaptive_stats.total("adaptive_rejected")
    adaptive_runs = adaptive_stats.total("adaptive_runs")
    if cpus > 1:
        parallel_rows, parallel_s = timed(
            Runtime(executor=ProcessPoolExecutor(n_jobs=n_jobs)))
        assert serial_rows == parallel_rows
        parallel_report = {
            "n_jobs": n_jobs,
            "wall_time_s": parallel_s,
            "samples_per_second": n_samples / parallel_s,
            "speedup_vs_serial": serial_s / parallel_s,
        }
    else:
        # one CPU: a process pool only adds fork/IPC overhead, and the
        # "speedup" would be noise — record the skip honestly instead.
        parallel_report = {
            "skipped": True,
            "reason": "cpu_count == 1: no parallelism available",
            "n_jobs": n_jobs,
        }
    cached = Runtime(cache=str(tmp_path / "cache"))
    cold_rows, cold_s = timed(cached)
    # One warm rerun takes milliseconds, so timer noise would decide a
    # single one: repeat it for at least WARM_LEG_S and keep the mean.
    warm_total, warm_runs = 0.0, 0
    while warm_total < WARM_LEG_S:
        warm_rows, warm_once = timed(cached)
        warm_total += warm_once
        warm_runs += 1
    warm_s = warm_total / warm_runs
    # The same objects read straight from the cache, as often: the warm
    # rerun's time over this is cache-side work on both sides.
    objects = os.path.join(cached.cache.root, "objects")
    keys = [name[:-len(".json")]
            for _, _, names in os.walk(objects)
            for name in names if name.endswith(".json")]
    reads_total, read_passes = 0.0, 0
    while reads_total < WARM_LEG_S:
        t0 = time.perf_counter()
        for key in keys:
            cached.cache.get(key)
        reads_total += time.perf_counter() - t0
        read_passes += 1
    reads_s = reads_total / read_passes
    assert len(keys) == n_samples

    assert serial_rows == cold_rows == warm_rows
    # Populations of different sizes; the gate allows solver tolerance.
    worst = max(abs(a - b)
                for srow, brow in zip(serial_rows, batched_rows)
                for a, b in zip(srow, brow))
    assert worst < 1e-12, worst

    # The adaptive grid changes the time base, so rows agree only to
    # measurement tolerance (the equivalence suite pins 0.1 ps against
    # a 4x finer grid; the 5 ps bench grid itself carries more error,
    # so the gate here is looser).
    worst_adaptive = max(abs(a - b)
                         for srow, arow in zip(serial_rows, adaptive_rows)
                         for a, b in zip(srow, arow))
    assert worst_adaptive < 2e-12, worst_adaptive

    # Fixed-grid step count of the same workload, for the step budget:
    # every measurement simulates the same per-path window.
    import math as _math

    from repro.core.pulse import simulation_window

    probe = build_path()
    stim_delay = probe.set_input_pulse(sweep_kwargs["omega_in"], kind="h")
    tstop = simulation_window(probe, w_in=sweep_kwargs["omega_in"],
                              stimulus_delay=stim_delay)
    fixed_steps_per_run = _math.ceil(tstop / sweep_kwargs["dt"])
    adaptive_steps_per_run = adaptive_accepted / max(1, adaptive_runs)

    report = {
        "workload": {
            "sweep": "external open C_pulse rows",
            "n_samples": n_samples,
            "resistances": resistances,
            "dt": sweep_kwargs["dt"],
            "omega_in": sweep_kwargs["omega_in"],
        },
        "cpu_count": cpus,
        "serial": {
            "wall_time_s": serial_s,
            "samples_per_second": n_samples / serial_s,
        },
        "parallel": parallel_report,
        "batched": {
            "batch_size": bench_batch,
            "wall_time_s": batched_s,
            "samples_per_second": n_samples / batched_s,
            "speedup_vs_serial": serial_s / batched_s,
            "max_abs_row_diff_vs_serial": worst,
        },
        "adaptive": {
            "wall_time_s": adaptive_s,
            "samples_per_second": n_samples / adaptive_s,
            "speedup_vs_serial": serial_s / adaptive_s,
            "transient_runs": adaptive_runs,
            "accepted_steps": adaptive_accepted,
            "rejected_steps": adaptive_rejected,
            "accepted_steps_per_run": adaptive_steps_per_run,
            "fixed_steps_per_run": fixed_steps_per_run,
            "step_reduction_vs_fixed":
                fixed_steps_per_run / max(1.0, adaptive_steps_per_run),
            "max_abs_row_diff_vs_serial": worst_adaptive,
        },
        "cache": {
            "cold_wall_time_s": cold_s,
            "warm_wall_time_s": warm_s,
            "warm_reruns": warm_runs,
            "warm_over_cold": warm_s / cold_s,
            "objects_read": len(keys),
            "reads_wall_time_s": reads_s,
            "warm_over_reads": warm_s / reads_s,
        },
    }
    record_bench("campaign_runtime", report)
    print("\nBENCH_runtime.json: serial {:.1f}s, batched {:.1f}s "
          "(x{:.2f}), adaptive {:.1f}s (x{:.2f}, {:.0f} vs {} steps), "
          "warm cache {:.1f} ms mean of {} ({:.2%} of cold, x{:.2f} a "
          "direct read of its {} objects)".format(
              serial_s, batched_s, serial_s / batched_s,
              adaptive_s, serial_s / adaptive_s,
              adaptive_steps_per_run, fixed_steps_per_run,
              1e3 * warm_s, warm_runs, warm_s / cold_s, warm_s / reads_s,
              len(keys)))

    # The warm rerun must be dominated by cache lookups, not
    # re-simulation: well under 10% of the cold run.
    assert warm_s < 0.1 * cold_s
    # The lockstep engine must beat one-sample-at-a-time simulation.
    assert batched_s < serial_s
    # The adaptive grid must spend at most half the fixed grid's steps.
    assert adaptive_steps_per_run * 2 <= fixed_steps_per_run


def test_perf_adaptive_coverage():
    """Adaptive-precision campaign vs blind fixed grid.

    Runs the same coverage question twice — a fixed grid at full
    population, and the sequential Wilson-interval campaign with
    crossing refinement — and records the transient budget of each in
    the ``adaptive_coverage`` section of ``BENCH_runtime.json``.  The
    fair comparison is against the *matched-resolution* grid: a blind
    grid dense enough to localise the crossing as tightly as the
    refinement does.  Knob: ``REPRO_BENCH_ADAPTIVE_SAMPLES``
    (default 8).
    """
    from repro.core.adaptive_coverage import adaptive_sweep
    from repro.core.coverage import sweep_pulse_measurements
    from repro.faults import ExternalOpen
    from repro.montecarlo import sample_population
    from repro.runtime import RunReport, Runtime, SerialExecutor

    n_samples = int(os.environ.get("REPRO_BENCH_ADAPTIVE_SAMPLES", "8"))
    samples = sample_population(n_samples, base_seed=7)
    fault = ExternalOpen(2, 2e3)
    grid = [1e3 * (40.0 ** (i / 4.0)) for i in range(5)]  # 1k..40k
    rel_tol = 0.25
    path_kwargs = dict(gate_kinds=("inv",) * 3)
    measure_kwargs = dict(dt=8e-12, omega_in=0.40e-9, kind="h")

    def decide(value, sample):
        return value <= 0.0  # detected = pulse fully dampened

    t0 = time.perf_counter()
    rows = sweep_pulse_measurements(samples, fault, grid,
                                    runtime=Runtime(
                                        executor=SerialExecutor()),
                                    **measure_kwargs, **path_kwargs)
    fixed_s = time.perf_counter() - t0
    fixed_transients = len(samples) * len(grid)
    coverage = [sum(decide(row[j], s)
                    for row, s in zip(rows, samples)) / len(samples)
                for j in range(len(grid))]
    fixed_rmin = next((r for r, c in zip(grid, coverage) if c >= 1.0),
                      None)
    assert fixed_rmin is not None, coverage

    report = RunReport("bench-adaptive")
    t0 = time.perf_counter()
    result = adaptive_sweep(samples, fault, grid, decide, ci_width=0.2,
                            min_wave=2, refine_rel_tol=rel_tol,
                            runtime=Runtime(executor=SerialExecutor()),
                            report=report, path_kwargs=path_kwargs,
                            measure="pulse", **measure_kwargs)
    adaptive_s = time.perf_counter() - t0
    matched = result.matched_resolution_measurements(rel_tol)
    adaptive_rmin = result.minimum_detectable_r(1.0)
    assert adaptive_rmin is not None

    # The refined crossing must sit inside the fixed grid's crossing
    # interval (one grid step below fixed_rmin, up to fixed_rmin).
    prev = max([r for r in grid if r < fixed_rmin] or [grid[0]])
    crossing = result.crossings[1.0]
    assert prev * (1 - 1e-9) <= crossing["lo"]
    assert crossing["hi"] <= fixed_rmin * (1 + 1e-9)

    section = {
        "workload": {
            "sweep": "external open C_pulse adaptive campaign",
            "n_samples": n_samples, "resistances": grid,
            "ci_width": 0.2, "refine_rel_tol": rel_tol,
            "dt": measure_kwargs["dt"],
            "omega_in": measure_kwargs["omega_in"],
        },
        "fixed_grid": {
            "wall_time_s": fixed_s,
            "transients": fixed_transients,
            "minimum_detectable_r": fixed_rmin,
        },
        "adaptive": {
            "wall_time_s": adaptive_s,
            "transients": result.total_measurements,
            "waves": result.waves,
            "minimum_detectable_r": adaptive_rmin,
            "crossing_lo": crossing["lo"],
            "crossing_hi": crossing["hi"],
        },
        "matched_resolution_transients": matched,
        "transient_reduction_vs_fixed":
            matched / max(1, result.total_measurements),
    }
    record_bench("adaptive_coverage", {"adaptive_coverage": section})
    print("\nadaptive coverage bench: {} adaptive vs {} matched "
          "transients (x{:.2f}), r_min {:.0f} ohm in [{:.0f}, {:.0f}]"
          .format(result.total_measurements, matched,
                  matched / max(1, result.total_measurements),
                  adaptive_rmin, crossing["lo"], crossing["hi"]))

    # The campaign must beat the matched-resolution blind grid by at
    # least 30% — the acceptance gate of the adaptive engine.
    assert result.total_measurements <= 0.7 * matched
