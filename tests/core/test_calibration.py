"""Calibration tests (electrical, small population, coarse step)."""

import pytest

from repro.core import (calibrate_delay_test, calibrate_pulse_test,
                        measure_output_pulse, build_instance)

DT = 4e-12


@pytest.fixture(scope="module")
def pulse_cal(small_population_module, tech_module):
    return calibrate_pulse_test(small_population_module, tech=tech_module,
                                dt=DT)


@pytest.fixture(scope="module")
def small_population_module():
    from repro.montecarlo import sample_population
    return sample_population(3, base_seed=11)


@pytest.fixture(scope="module")
def tech_module():
    from repro.cells import default_technology
    return default_technology()


class TestPulseCalibration:
    def test_omega_in_in_asymptotic_region(self, pulse_cal):
        onset = pulse_cal.nominal_curve.region3_onset()
        assert pulse_cal.omega_in >= onset

    def test_no_false_positive_at_worst_case(self, pulse_cal):
        # every fault-free instance clears the 1.1x-threshold detector
        detector = pulse_cal.detector
        for w_out in pulse_cal.fault_free_wouts:
            assert detector.transition_seen(w_out, factor=1.1)

    def test_threshold_tight_against_weakest(self, pulse_cal):
        weakest = min(pulse_cal.fault_free_wouts)
        assert pulse_cal.omega_th == pytest.approx(weakest / 1.1)

    def test_forced_omega_in_respected(self, small_population_module,
                                       tech_module):
        cal = calibrate_pulse_test(small_population_module,
                                   tech=tech_module, dt=DT,
                                   omega_in=0.5e-9)
        assert cal.omega_in == 0.5e-9

    def test_attenuation_region_omega_rejected(self, small_population_module,
                                               tech_module):
        # forcing omega_in into region 1 (fully dampened) must fail the
        # yield constraint loudly
        with pytest.raises(ValueError):
            calibrate_pulse_test(small_population_module, tech=tech_module,
                                 dt=DT, omega_in=0.15e-9)


class TestNominalTransferCache:
    """The nominal curve is a runtime task keyed on its time grid: an
    adaptive calibration used to pick its omega_in* from a fixed-grid
    curve."""

    GRID = [0.30e-9, 0.50e-9]
    PATH = dict(gate_kinds=("inv",) * 3)

    def _characterize(self, runtime, report=None, **kwargs):
        from repro.core.calibration import nominal_transfer_curve

        return nominal_transfer_curve(self.GRID, "h", DT,
                                      path_kwargs=dict(self.PATH),
                                      runtime=runtime, report=report,
                                      **kwargs)

    def test_adaptive_does_not_alias_fixed_grid(self, tmp_path):
        from repro.runtime import Runtime, RunReport

        runtime = Runtime(cache=str(tmp_path / "cache"))
        report = RunReport()
        for adaptive in (False, True, False, True):
            self._characterize(runtime, report, adaptive=adaptive)
        # one executed task per grid, the repeats are cache hits
        assert (report.cache_misses, report.cache_hits) == (2, 2)

    def test_adaptive_curve_matches_direct_characterization(self):
        from repro.core import characterize_transfer
        from repro.montecarlo import NominalModel

        curve = self._characterize(None, adaptive=True)
        direct = characterize_transfer(
            build_instance(sample=NominalModel(), **self.PATH),
            self.GRID, kind="h", dt=DT, adaptive=True)
        assert list(curve.w_out) == pytest.approx(list(direct.w_out),
                                                  abs=1e-15)


class TestReportCompleteness:
    def test_report_books_every_transient(self):
        """The nominal curve used to run outside any runtime task, so
        the report missed most of a calibration's solver effort."""
        from repro.montecarlo import sample_population
        from repro.runtime import Runtime, RunReport, stats_scope

        report = RunReport()
        with stats_scope() as stats:
            calibrate_pulse_test(sample_population(2, base_seed=11),
                                 dt=1e-11, runtime=Runtime(),
                                 report=report)
        assert report.newton_solves == stats.total("newton_solves")
        assert (report.newton_iterations
                == stats.total("newton_iterations"))


class TestUnknownPathKeyword:
    """A keyword ``build_path`` does not take fails at the call, before
    any row is keyed or any task runs (it used to enter the row's key
    and fail only inside the chunk task)."""

    def test_calibration_rejects_a_removed_setting(self,
                                                   small_population_module):
        from repro.runtime import RunReport

        report = RunReport()
        with pytest.raises(TypeError, match="batch_size"):
            calibrate_pulse_test(small_population_module, dt=DT,
                                 report=report, batch_size=2)
        assert report.n_tasks == report.failed == 0

    def test_sweep_rejects_an_unknown_keyword(self, small_population_module):
        from repro.core import sweep_pulse_measurements
        from repro.faults import ExternalOpen
        from repro.runtime import RunReport

        report = RunReport()
        with pytest.raises(TypeError, match="bogus"):
            sweep_pulse_measurements(small_population_module,
                                     ExternalOpen(2, 8e3), [8e3], 0.40e-9,
                                     dt=DT, report=report,
                                     **{"bogus": 1})
        assert report.n_tasks == report.failed == 0


class TestDelayCalibration:
    def test_returns_test_and_delays(self, small_population_module,
                                     tech_module):
        test, delays = calibrate_delay_test(small_population_module,
                                            tech=tech_module, dt=DT)
        assert len(delays) == len(small_population_module)
        assert test.t_star > max(delays)

    def test_no_false_positives_by_construction(self, small_population_module,
                                                tech_module):
        test, delays = calibrate_delay_test(small_population_module,
                                            tech=tech_module, dt=DT)
        for d, s in zip(delays, small_population_module):
            assert not test.detects(d, sample=s, t_factor=0.9)


class TestLoneChunkRow:
    """A chunk of one calibration row (a one-sample call, or the one
    row a cache lost) runs the lockstep engine like any chunk, with no
    padding, so a row's value does not depend on which of its chunk
    mates missed the cache."""

    DT = 2e-11
    ADAPTIVE = False

    def test_remainder_row_runs_lockstep(self):
        from repro.montecarlo import sample_population
        from repro.runtime import RunReport

        samples = sample_population(3, base_seed=1)
        _, delays = calibrate_delay_test(samples, dt=self.DT,
                                         adaptive=self.ADAPTIVE)
        report = RunReport()
        _, alone = calibrate_delay_test([samples[2]], dt=self.DT,
                                        report=report,
                                        adaptive=self.ADAPTIVE)
        assert report.newton_solves > 0
        assert alone == [delays[2]]

    def test_lost_row_recomputes_to_the_cold_value(self, tmp_path):
        import os

        from repro.montecarlo import sample_population
        from repro.runtime import Runtime, RunReport, read_trace

        samples = sample_population(4, base_seed=1)
        trace = str(tmp_path / "trace.jsonl")
        runtime = Runtime(cache=str(tmp_path / "cache"), trace=trace)
        _, cold = calibrate_delay_test(samples, dt=self.DT,
                                       runtime=runtime,
                                       adaptive=self.ADAPTIVE)
        (key,) = [event["key"] for event in read_trace(trace)
                  if event["event"] == "task" and event["index"] == 3]
        os.remove(runtime.cache._path(key))
        report = RunReport()
        _, warm = calibrate_delay_test(samples, dt=self.DT,
                                       runtime=runtime, report=report,
                                       adaptive=self.ADAPTIVE)
        assert (report.cache_hits, report.cache_misses) == (3, 1)
        assert warm == cold


class TestLoneAdaptiveChunkRow(TestLoneChunkRow):
    """The same on the adaptive grid, where every row of a lockstep
    population steps on its own time grid."""

    ADAPTIVE = True
