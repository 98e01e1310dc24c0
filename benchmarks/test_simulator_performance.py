"""Performance benchmarks of the electrical substrate itself.

These are the only benches where pytest-benchmark's statistics matter:
they track the cost of the primitive operations every experiment is
built from, so performance regressions in the MNA core show up here.

``test_perf_campaign_runtime`` additionally writes ``BENCH_runtime.json``
at the repo root (serial vs parallel vs batched vs adaptive samples/sec,
accepted/rejected adaptive step counts, cache-warm speedup) so later PRs
can track the campaign runtime's perf trajectory.
Knobs: ``REPRO_BENCH_SAMPLES`` (population size, default 32),
``REPRO_BENCH_JOBS`` (parallel worker count, default min(4, CPUs)),
``REPRO_BENCH_BATCH`` (lockstep batch size, default 32).
"""

import json
import math
import os
import time

import numpy as np
import pytest

from repro.cells import build_path
from repro.spice import operating_point, run_transient
from repro.spice.mna import CompiledCircuit
from repro.spice.dcop import solve_dc


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
    """One PODEM sensitization on the c432-class netlist."""
    from repro.logic import generate_c432_like, paths_through, sensitize_path

    netlist = generate_c432_like()
    from repro.core.experiments import _pick_fault_site
    net = _pick_fault_site(netlist)
    path = paths_through(netlist, net, max_paths=4)[0]

    result = benchmark(sensitize_path, netlist, path)
    # the picked site may or may not sensitize on its first path; the
    # bench tracks cost, not outcome
    assert result is None or result.assignment is not None


def test_perf_campaign_runtime(tmp_path):
    """Campaign runtime trajectory: serial vs pool vs batched vs cache.

    Runs the same ROP coverage sweep (the acceptance workload: one
    measurement row per Monte Carlo sample) several ways and records the
    numbers in ``BENCH_runtime.json``.  A parallel speedup is only
    meaningful on a multi-core runner, so on a single-CPU box the
    parallel leg is *skipped* and marked as such in the JSON rather than
    recorded as a bogus comparison.  The ``batched`` section tracks the
    lockstep engine (one stacked MNA solve per Newton iteration across
    the whole population).  Knobs: ``REPRO_BENCH_SAMPLES``,
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
    warm_rows, warm_s = timed(cached)

    assert serial_rows == cold_rows == warm_rows
    # The engines agree to solver tolerance, not bit-exactly.
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
            "warm_over_cold": warm_s / cold_s,
        },
    }
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_runtime.json")
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print("\nBENCH_runtime.json: serial {:.1f}s, batched {:.1f}s "
          "(x{:.2f}), adaptive {:.1f}s (x{:.2f}, {:.0f} vs {} steps), "
          "warm cache {:.2f}s ({:.1%} of cold)".format(
              serial_s, batched_s, serial_s / batched_s,
              adaptive_s, serial_s / adaptive_s,
              adaptive_steps_per_run, fixed_steps_per_run,
              warm_s, warm_s / cold_s))

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
    the ``adaptive_coverage`` section of ``BENCH_runtime.json``
    (read-modify-write: the main runtime bench owns the rest of the
    file).  The fair comparison is against the *matched-resolution*
    grid: a blind grid dense enough to localise the crossing as tightly
    as the refinement does.  Knob: ``REPRO_BENCH_ADAPTIVE_SAMPLES``
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
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_runtime.json")
    try:
        with open(out) as handle:
            full = json.load(handle)
    except (OSError, ValueError):
        full = {}
    full["adaptive_coverage"] = section
    with open(out, "w") as handle:
        json.dump(full, handle, indent=2, sort_keys=True)
    print("\nadaptive coverage bench: {} adaptive vs {} matched "
          "transients (x{:.2f}), r_min {:.0f} ohm in [{:.0f}, {:.0f}]"
          .format(result.total_measurements, matched,
                  matched / max(1, result.total_measurements),
                  adaptive_rmin, crossing["lo"], crossing["hi"]))

    # The campaign must beat the matched-resolution blind grid by at
    # least 30% — the acceptance gate of the adaptive engine.
    assert result.total_measurements <= 0.7 * matched


def test_perf_solver_fast_path():
    """Factorization-reuse solver speedup on wide paths.

    Runs the same single-sample transient on chains of 7/15/31 gates
    with the ``exact`` (per-iteration LU) and ``reuse``
    (frozen-factorization + device bypass) Newton solvers and records
    the serial throughput ratio in the ``solver`` section of
    ``BENCH_runtime.json`` (read-modify-write: the main runtime bench
    owns the rest of the file).  The fast path matters most where the
    dense LU dominates, so the gate is on the widest chain.  Knob:
    ``REPRO_BENCH_SOLVER_REPEATS`` (default 3).
    """
    from repro.core.pulse import build_instance, simulation_window
    from repro.runtime import SolverStats, stats_scope
    from repro.spice import run_transient

    repeats = int(os.environ.get("REPRO_BENCH_SOLVER_REPEATS", "3"))
    w_in = 0.40e-9
    dt = 4e-12
    scenarios = {}
    worst_overall = 0.0

    for n_gates in (7, 15, 31):
        def run(solver):
            path = build_instance(gate_kinds=("inv",) * n_gates)
            delay = path.set_input_pulse(w_in, kind="h")
            tstop = simulation_window(path, w_in=w_in,
                                      stimulus_delay=delay)
            stats = SolverStats()
            best = math.inf
            wf = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                with stats_scope(stats):
                    wf = run_transient(path.circuit, tstop, dt,
                                       record=[path.output_node],
                                       solver=solver)
                best = min(best, time.perf_counter() - t0)
            return wf, best, stats.snapshot()["counters"]

        wf_exact, exact_s, _ = run("exact")
        wf_reuse, reuse_s, counters = run("reuse")

        worst = max(np.abs(wf_exact[n] - wf_reuse[n]).max()
                    for n in wf_exact.signals)
        worst_overall = max(worst_overall, worst)
        assert worst <= 1e-6, (n_gates, worst)
        assert counters["lu_reuses"] > 0
        assert counters["devices_bypassed"] > 0

        scenarios["chain_{}".format(n_gates)] = {
            "n_gates": n_gates,
            "exact_wall_time_s": exact_s,
            "reuse_wall_time_s": reuse_s,
            "speedup_vs_exact": exact_s / reuse_s,
            "runs_per_second_exact": 1.0 / exact_s,
            "runs_per_second_reuse": 1.0 / reuse_s,
            "lu_factorizations": counters["lu_factorizations"] // repeats,
            "lu_reuses": counters["lu_reuses"] // repeats,
            "devices_bypassed": counters["devices_bypassed"] // repeats,
            "max_abs_v_diff_vs_exact": worst,
        }

    section = {
        "workload": {"sweep": "single-sample pulse transient",
                     "gate_chains": [7, 15, 31], "dt": dt,
                     "omega_in": w_in, "repeats": repeats},
        "max_abs_v_diff_vs_exact": worst_overall,
    }
    section.update(scenarios)
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_runtime.json")
    try:
        with open(out) as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {}
    report["solver"] = section
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print("\nsolver bench: " + ", ".join(
        "{} gates x{:.2f}".format(s["n_gates"], s["speedup_vs_exact"])
        for s in scenarios.values()))

    # Where the dense LU dominates, reuse must win decisively; on the
    # short chain it must at least not regress (timing noise aside).
    assert scenarios["chain_31"]["speedup_vs_exact"] >= 1.5
    assert scenarios["chain_7"]["speedup_vs_exact"] >= 0.9
