"""Serial vs process-pool solver-counter parity.

The whole point of shipping stats snapshots on TaskOutcome is that a
parallel campaign reports the *same* solver effort as a serial run of
the identical work — counters recorded inside worker processes used to
die with the worker.  These tests run a real deterministic adaptive
campaign both ways and require exact equality.
"""

import pytest

from repro.runtime import ProcessPoolExecutor, Runtime, SerialExecutor

COUNTERS = ("newton_solves", "newton_iterations", "adaptive_runs",
            "adaptive_accepted", "adaptive_rejected", "ladder_retries")

RESISTANCES = (800.0, 1e3, 1.5e3, 2e3, 3e3, 5e3)


def _rc(r):
    from repro.spice import Circuit, Pulse
    circuit = Circuit("rc")
    circuit.add_vsource(
        "V1", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, width=2e-9))
    circuit.add_resistor("R1", "in", "out", r)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


def _adaptive_task(payload):
    from repro.spice import run_transient
    wf = run_transient(_rc(payload["r"]), 4e-9, 20e-12, adaptive=True)
    return float(wf["out"][-1])


def _adaptive_chunk(payloads):
    from repro.spice import run_transient_batch
    waveforms = run_transient_batch(
        [_rc(p["r"]) for p in payloads], 4e-9, 20e-12, adaptive=True)
    return [float(wf["out"][-1]) for wf in waveforms]


def _counters(report):
    return {name: getattr(report, name) for name in COUNTERS}


@pytest.fixture(scope="module")
def serial_run():
    payloads = [{"r": r} for r in RESISTANCES]
    return Runtime(executor=SerialExecutor()).run(
        _adaptive_task, payloads, label="parity")


class TestScalarParity:
    def test_serial_counters_nonzero(self, serial_run):
        report = serial_run.report
        assert report.adaptive_runs == len(RESISTANCES)
        assert report.adaptive_accepted > 0
        assert report.newton_solves > 0
        assert report.newton_iterations >= report.newton_solves

    def test_pool_matches_serial_exactly(self, serial_run):
        payloads = [{"r": r} for r in RESISTANCES]
        pool_run = Runtime(
            executor=ProcessPoolExecutor(n_jobs=2, retries=0)).run(
                _adaptive_task, payloads, label="parity")
        assert pool_run.values == pytest.approx(serial_run.values,
                                                abs=1e-9)
        assert _counters(pool_run.report) == _counters(serial_run.report)

    def test_pool_chunking_does_not_change_totals(self, serial_run):
        """Chunk size is an executor artifact; totals must not see it."""
        payloads = [{"r": r} for r in RESISTANCES]
        pool_run = Runtime(
            executor=ProcessPoolExecutor(n_jobs=2, chunk_size=1,
                                         retries=0)).run(
                _adaptive_task, payloads, label="parity")
        assert _counters(pool_run.report) == _counters(serial_run.report)

    def test_per_task_outcome_counters_sum_to_report(self):
        payloads = [{"r": r} for r in RESISTANCES]
        executor = SerialExecutor()
        outcomes = executor.map_tasks(_adaptive_task, payloads)
        assert all(o.newton_solves > 0 for o in outcomes)
        report_total = Runtime(executor=SerialExecutor()).run(
            _adaptive_task, payloads).report.newton_solves
        assert sum(o.newton_solves for o in outcomes) == report_total


class TestBatchedParity:
    def test_batched_serial_vs_pool(self):
        """The batched engine's chunk tasks carry their snapshots across
        the process boundary too."""
        payloads = [{"r": r} for r in RESISTANCES]
        serial = Runtime(executor=SerialExecutor()).run_batched(
            _adaptive_chunk, payloads, batch_size=2, label="bp")
        pool = Runtime(
            executor=ProcessPoolExecutor(n_jobs=2, retries=0)
        ).run_batched(_adaptive_chunk, payloads, batch_size=2,
                      label="bp")
        assert pool.values == pytest.approx(serial.values, abs=1e-9)
        assert _counters(serial.report)["adaptive_accepted"] > 0
        assert _counters(pool.report) == _counters(serial.report)


class TestChunkIndependence:
    """Every row runs the lockstep engine in any chunk, so how the
    runtime chunks a campaign moves none of its values, keys or
    counters.  A serial runtime runs each call as one chunk, two
    workers as two chunks (of two items and one for three samples)."""

    R = [1e3, 6e3, 40e3]

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_open_coverage_serial_vs_pool(self, adaptive):
        from repro.core import ExperimentConfig, run_open_coverage

        config = ExperimentConfig(n_samples=3, dt=1e-11,
                                  rop_resistances=self.R,
                                  adaptive=adaptive)
        serial = run_open_coverage(
            config, runtime=Runtime(executor=SerialExecutor()))
        pool = run_open_coverage(
            config, runtime=Runtime(
                executor=ProcessPoolExecutor(n_jobs=2, retries=0)))
        assert pool.pulse.raw == serial.pulse.raw
        assert pool.delay.raw == serial.delay.raw
        assert pool.calibration.omega_th == serial.calibration.omega_th
        assert pool.dftest.t_star == serial.dftest.t_star
        assert serial.report.newton_solves > 0
        assert _counters(pool.report) == _counters(serial.report)

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_one_point_rows_at_chunk_widths_one_and_three(self, tmp_path,
                                                          adaptive):
        """Calibration rows are one point each, so a chunk of width one
        is a population of one instance."""
        from repro.cells import default_technology
        from repro.core.pulse import run_measurements
        from repro.montecarlo import sample_population
        from repro.runtime import read_trace
        from repro.runtime.stats import SAMPLE_COUNTER_NAMES

        spec = dict(measure="delay", direction="rise", dt=1e-11,
                    adaptive=adaptive, tech=default_technology(),
                    path_kwargs={"gate_kinds": ("inv",) * 3}, fault=None)
        items = [{"sample": sample}
                 for sample in sample_population(3, base_seed=4)]
        runs = {}
        for width in (1, 3):
            trace = str(tmp_path / "trace{}.jsonl".format(width))
            runtime = Runtime(cache=str(tmp_path / "cache{}".format(width)),
                              trace=trace)
            values = run_measurements(spec, items, runtime=runtime,
                                      batch_size=width)
            events = sorted((e for e in read_trace(trace)
                             if e["event"] == "task"),
                            key=lambda e: e["index"])
            assert [e["chunk_size"] for e in events] == [width] * 3
            runs[width] = (values, [e["key"] for e in events],
                           [{name: e["stats"]["counters"][name]
                             for name in SAMPLE_COUNTER_NAMES}
                            for e in events])
        assert runs[1] == runs[3]
        assert all(counters["newton_solves"] > 0
                   for counters in runs[1][2])
