"""Independent measurements of one campaign phase share one lockstep
population, and every row reads as it does measured alone.

The Figs. 6-9 drivers measure the nominal transfer row with the
delay-calibration rows, then the pulse-calibration rows, then both
sweeps together; the adaptive campaign advances its pulse and delay
sweeps together, one runtime call per round of waves.  Each test here
runs a merged campaign against the separate single-measurement calls
it replaces (``calibrate_*``, ``sweep_*_measurements``,
``adaptive_sweep``) and asks for equal rows, thresholds, cache keys and
solver counters, bit for bit, and for fewer populations.
"""

import numpy as np
import pytest

from repro.core import (ExperimentConfig, calibrate_delay_test,
                        calibrate_pulse_test, run_adaptive_coverage,
                        run_bridging_coverage, run_open_coverage,
                        sweep_delay_measurements, sweep_pulse_measurements)
from repro.core.adaptive_coverage import adaptive_sweep
from repro.core.coverage import delay_decision, pulse_decision
from repro.faults import BridgingFault, ExternalOpen
from repro.runtime import RunReport, Runtime, read_trace

#: what the two ways of running a campaign must book alike
COUNTERS = ("newton_solves", "newton_iterations", "adaptive_runs",
            "adaptive_accepted", "adaptive_rejected", "ladder_retries",
            "cache_hits", "cache_misses", "completed", "waves")


class KeyRecorder(Runtime):
    """A cached runtime that records every row key it is handed."""

    def __init__(self, root):
        super().__init__(cache=str(root))
        self.keys = []

    def run_batched(self, fn, payloads, keys=None, **kwargs):
        self.keys.extend(keys)
        return super().run_batched(fn, payloads, keys=keys, **kwargs)


@pytest.fixture
def populations(monkeypatch):
    """The size of every lockstep population a measurement runs."""
    from repro.core import pulse

    real, sizes = pulse.run_transient_batch, []

    def counting(circuits, *args, **kwargs):
        sizes.append(len(circuits))
        return real(circuits, *args, **kwargs)

    monkeypatch.setattr(pulse, "run_transient_batch", counting)
    return sizes


def _counters(report):
    summary = report.summary()
    return {name: summary[name] for name in COUNTERS}


def _config(adaptive=False):
    return ExperimentConfig(
        n_samples=2, dt=1e-11, adaptive=adaptive,
        rop_resistances=list(np.geomspace(500.0, 40e3, 3)),
        bridging_resistances=list(np.geomspace(800.0, 30e3, 3)))


class TestFixedGridCampaign:
    """Open then bridging coverage on one cached runtime, as the
    ``fig6to9_fixed`` workload runs them: the bridging campaign reads
    its calibration from the cache."""

    @staticmethod
    def _separate(config, runtime):
        """Today's single-measurement calls, one campaign each."""
        samples = config.samples()
        runs = []
        for proto, grid in (
                (ExternalOpen(config.fault_stage,
                              config.rop_resistances[0]),
                 config.rop_resistances),
                (BridgingFault(config.fault_stage,
                               config.bridging_resistances[0]),
                 config.bridging_resistances)):
            report = RunReport()
            settings = dict(dt=config.dt, runtime=runtime, report=report)
            calibration = calibrate_pulse_test(samples, **settings)
            dftest, _ = calibrate_delay_test(samples, **settings)
            pulse = sweep_pulse_measurements(samples, proto, grid,
                                             calibration.omega_in,
                                             **settings)
            delay = sweep_delay_measurements(samples, proto, grid,
                                             **settings)
            runs.append((calibration, dftest, pulse, delay, report))
        return runs

    def test_merged_campaign_equals_separate_calls(self, tmp_path,
                                                   populations):
        config = _config()
        merged_runtime = KeyRecorder(tmp_path / "merged")
        merged = [run_open_coverage(config, runtime=merged_runtime),
                  run_bridging_coverage(config, runtime=merged_runtime)]
        merged_populations = list(populations)
        del populations[:]
        separate_runtime = KeyRecorder(tmp_path / "separate")
        separate = self._separate(config, separate_runtime)

        # 13 transfer widths + 2 delay rows, 2 pulse rows, then the
        # 2 x 3 pulse and 2 x 3 delay sweep instances per family
        assert merged_populations == [15, 2, 12, 12]
        assert populations == [13, 2, 2, 6, 6, 6, 6]
        assert sorted(merged_runtime.keys) == sorted(separate_runtime.keys)
        # one transfer row, 2 + 2 calibration rows, 2 rows per sweep
        assert len(set(merged_runtime.keys)) == 1 + 2 + 2 + 2 * 4
        for experiment, (calibration, dftest, pulse, delay,
                         report) in zip(merged, separate):
            assert experiment.pulse.raw == pulse
            assert experiment.delay.raw == delay
            assert experiment.calibration.omega_in == calibration.omega_in
            assert experiment.calibration.omega_th == calibration.omega_th
            assert (experiment.calibration.fault_free_wouts
                    == calibration.fault_free_wouts)
            assert list(experiment.calibration.nominal_curve.w_out) == list(
                calibration.nominal_curve.w_out)
            assert experiment.dftest.t_star == dftest.t_star
            assert _counters(experiment.report) == _counters(report)
        assert merged[0].report.newton_iterations > 0
        assert merged[1].report.cache_hits == 2 + 1 + 2


class TestAdaptiveCampaign:
    SWEEP = dict(ci_width=0.3, min_wave=1, refine_rel_tol=0.5,
                 refine_targets=(1.0,))

    def _separate(self, config, runtime):
        samples = config.samples()
        report = RunReport()
        settings = dict(dt=config.dt, runtime=runtime, report=report,
                        adaptive=True)
        calibration = calibrate_pulse_test(samples, **settings)
        dftest, _ = calibrate_delay_test(samples, **settings)
        proto = ExternalOpen(config.fault_stage, config.rop_resistances[0])
        label = "adaptive-open-coverage"
        pulse = adaptive_sweep(
            samples, proto, config.rop_resistances,
            pulse_decision(calibration.detector)[1], label=label + "-pulse",
            measure="pulse", omega_in=float(calibration.omega_in),
            kind="h", **settings, **self.SWEEP)
        delay = adaptive_sweep(
            samples, proto, config.rop_resistances,
            delay_decision(dftest)[1], label=label + "-delay",
            measure="delay", direction="rise", **settings, **self.SWEEP)
        return calibration, dftest, pulse, delay, report

    def test_merged_campaign_equals_separate_calls(self, tmp_path,
                                                   populations):
        config = _config(adaptive=True)
        merged_runtime = KeyRecorder(tmp_path / "merged")
        merged = run_adaptive_coverage(config, runtime=merged_runtime,
                                       **self.SWEEP)
        merged_populations = list(populations)
        del populations[:]
        separate_runtime = KeyRecorder(tmp_path / "separate")
        calibration, dftest, pulse, delay, report = self._separate(
            config, separate_runtime)

        assert sorted(merged_runtime.keys) == sorted(separate_runtime.keys)
        assert merged.pulse_sweep.raw() == pulse.raw()
        assert merged.delay_sweep.raw() == delay.raw()
        assert merged.pulse_sweep.crossings == pulse.crossings
        assert merged.delay_sweep.crossings == delay.crossings
        assert ([merged.pulse_sweep.waves, merged.delay_sweep.waves]
                == [pulse.waves, delay.waves])
        assert merged.calibration.omega_in == calibration.omega_in
        assert merged.calibration.omega_th == calibration.omega_th
        assert merged.dftest.t_star == dftest.t_star
        assert _counters(merged.report) == _counters(report)
        assert merged.report.adaptive_accepted > 0
        # both sweeps take a wave in at least one shared round, and the
        # calibration saves one population
        assert sum(merged_populations) == sum(populations)
        assert (len(merged_populations)
                <= len(populations) - 1 - min(pulse.waves, delay.waves))


class TestMergedCallObservability:
    """A merged call still names each row's measurement: every trace
    ``task`` event carries its group's label, and an error names the
    measurements of the rows it failed."""

    PATH = dict(gate_kinds=("inv",) * 3)

    def _groups(self):
        from repro.core.calibration import (delay_calibration_rows,
                                            nominal_transfer_row)
        from repro.montecarlo import sample_population

        settings = dict(dt=1e-11, path_kwargs=self.PATH)
        return [nominal_transfer_row([0.30e-9, 0.50e-9], **settings),
                delay_calibration_rows(sample_population(2, base_seed=3),
                                       **settings)]

    def test_trace_names_each_rows_measurement(self, tmp_path):
        from repro.core.pulse import run_measurement_groups

        path = str(tmp_path / "t.jsonl")
        runtime = Runtime(cache=str(tmp_path / "cache"), trace=path)
        (transfer,), delays = run_measurement_groups(
            self._groups(), runtime=runtime)
        assert len(transfer) == 2 and len(delays) == 2
        tasks = sorted((e for e in read_trace(path)
                        if e["event"] == "task"), key=lambda e: e["index"])
        assert [e["label"] for e in tasks] == [
            "nominal-transfer", "delay-calibration", "delay-calibration"]
        assert [e["chunk_size"] for e in tasks] == [3, 3, 3]
        assert all(e["ok"] and e["key"] for e in tasks)
        assert all(e["stats"]["counters"]["newton_solves"] > 0
                   for e in tasks)
        (report,) = [e for e in read_trace(path) if e["event"] == "report"]
        assert report["label"] == "nominal-transfer+delay-calibration"

    def test_failure_names_each_rows_measurement(self, tmp_path,
                                                 monkeypatch):
        from repro.core import pulse
        from repro.spice.errors import ConvergenceError

        def failing(*args, **kwargs):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(pulse, "run_transient_batch", failing)
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(Exception, match="no convergence") as info:
            pulse.run_measurement_groups(self._groups(),
                                         runtime=Runtime(trace=path))
        assert info.value.__notes__ == [
            "failed measurement rows: nominal-transfer x1, "
            "delay-calibration x2"]
        tasks = [e for e in read_trace(path) if e["event"] == "task"]
        assert sorted((e["label"], e["ok"], e["error"]) for e in tasks) == [
            ("delay-calibration", False, "ConvergenceError"),
            ("delay-calibration", False, "ConvergenceError"),
            ("nominal-transfer", False, "ConvergenceError")]
