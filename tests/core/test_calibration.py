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
    """`_nominal_transfer` must key its memoised curve on the time grid:
    an adaptive calibration used to pick its omega_in* from a
    fixed-grid curve."""

    GRID = [0.30e-9, 0.50e-9]
    PATH = dict(gate_kinds=("inv",) * 3)

    def _characterize(self, runtime, calls, **kwargs):
        from repro.core.calibration import _nominal_transfer
        from repro.montecarlo import NominalModel

        def builder():
            calls.append(1)
            return build_instance(sample=NominalModel(),
                                  **dict(self.PATH))

        return _nominal_transfer(builder, self.GRID, "h", DT, None, None,
                                 dict(self.PATH), runtime, **kwargs)

    def _runtime(self, tmp_path):
        from repro.runtime import Runtime

        return Runtime(cache=str(tmp_path / "cache"))

    def test_adaptive_does_not_alias_fixed_grid(self, tmp_path):
        runtime = self._runtime(tmp_path)
        calls = []
        self._characterize(runtime, calls)
        first = len(calls)
        self._characterize(runtime, calls, adaptive=True)
        assert len(calls) == 2 * first

    def test_adaptive_curve_matches_direct_characterization(self):
        from repro.core import characterize_transfer
        from repro.montecarlo import NominalModel

        curve = self._characterize(None, [], adaptive=True)
        direct = characterize_transfer(
            lambda: build_instance(sample=NominalModel(),
                                   **dict(self.PATH)),
            self.GRID, kind="h", dt=DT, adaptive=True)
        assert list(curve.w_out) == pytest.approx(list(direct.w_out),
                                                  abs=1e-15)


class TestCalibrationChunkSignature:
    """Mis-grouped fault-free lockstep chunks must fail loudly."""

    def _payload(self, **overrides):
        base = dict(sample=None, fault=None, tech=None, dt=DT,
                    adaptive=False, omega_in=0.40e-9, kind="h",
                    path_kwargs={})
        base.update(overrides)
        return base

    def test_pulse_chunk_rejects_mixed_omega_in(self):
        from repro.core.calibration import _fault_free_pulse_chunk_task

        with pytest.raises(ValueError, match="omega_in"):
            _fault_free_pulse_chunk_task(
                [self._payload(), self._payload(omega_in=0.50e-9)])

    def test_delay_chunk_rejects_mixed_dt(self):
        from repro.core.calibration import _fault_free_delay_chunk_task

        with pytest.raises(ValueError, match="dt"):
            _fault_free_delay_chunk_task(
                [self._payload(direction="rise"),
                 self._payload(direction="rise", dt=2 * DT)])


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
