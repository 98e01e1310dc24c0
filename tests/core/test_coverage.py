"""Coverage computation tests using synthetic raw measurements.

Coverage logic is pure arithmetic over raw (w_out or delay) matrices, so
these tests run without any electrical simulation.
"""

import math

import pytest

from repro.core import (CoverageCurve, PulseDetector, delay_coverage,
                        pulse_coverage)
from repro.core.calibration import PulseTestCalibration
from repro.core.coverage import (delay_is_all_finite,
                                 detected_fraction_is_monotonic)
from repro.dft import DelayFaultTest, FlipFlopTiming
from repro.montecarlo import sample_population


def make_calibration(omega_in=0.45e-9, omega_th=0.35e-9):
    return PulseTestCalibration(
        omega_in, PulseDetector(omega_th), nominal_curve=None,
        fault_free_wouts=[omega_th * 1.1] * 3, sensing_tolerance=0.1)


class TestPulseCoverage:
    def test_full_dampening_gives_full_coverage(self):
        samples = sample_population(3)
        resistances = [1e3, 2e3]
        raw = [[0.0, 0.0]] * 3
        result = pulse_coverage(raw, samples, resistances,
                                make_calibration())
        assert result.curve("1.0*w_th").coverage == [1.0, 1.0]

    def test_healthy_widths_give_zero_coverage(self):
        samples = sample_population(3)
        raw = [[0.45e-9, 0.45e-9]] * 3
        result = pulse_coverage(raw, samples, [1e3, 2e3],
                                make_calibration())
        assert result.curve("1.0*w_th").coverage == [0.0, 0.0]

    def test_threshold_factor_orders_coverage(self):
        samples = sample_population(4)
        # widths straddling the threshold band
        raw = [[0.34e-9], [0.36e-9], [0.32e-9], [0.40e-9]]
        result = pulse_coverage(raw, samples, [1e3], make_calibration())
        c_low = result.curve("0.9*w_th").coverage[0]
        c_mid = result.curve("1.0*w_th").coverage[0]
        c_high = result.curve("1.1*w_th").coverage[0]
        assert c_low <= c_mid <= c_high

    def test_labels(self):
        samples = sample_population(2)
        result = pulse_coverage([[0.0]] * 2, samples, [1e3],
                                make_calibration())
        assert result.labels() == ["0.9*w_th", "1.0*w_th", "1.1*w_th"]


class TestDelayCoverage:
    def make_test(self, t_star=1e-9):
        return DelayFaultTest(t_star, FlipFlopTiming(0.0, 0.0))

    def test_slow_paths_detected(self):
        samples = sample_population(2)
        raw = [[2e-9], [2e-9]]
        result = delay_coverage(raw, samples, [1e3], self.make_test())
        assert result.curve("1.0*T").coverage == [1.0]

    def test_fast_paths_pass(self):
        samples = sample_population(2)
        raw = [[0.5e-9], [0.5e-9]]
        result = delay_coverage(raw, samples, [1e3], self.make_test())
        assert result.curve("1.0*T").coverage == [0.0]

    def test_infinite_delay_detected_at_any_period(self):
        samples = sample_population(1)
        raw = [[math.inf]]
        result = delay_coverage(raw, samples, [1e3], self.make_test())
        assert result.curve("1.1*T").coverage == [1.0]

    def test_period_factor_orders_coverage(self):
        samples = sample_population(3)
        raw = [[0.95e-9], [1.05e-9], [1.15e-9]]
        result = delay_coverage(raw, samples, [1e3], self.make_test())
        c9 = result.curve("0.9*T").coverage[0]
        c10 = result.curve("1.0*T").coverage[0]
        c11 = result.curve("1.1*T").coverage[0]
        assert c9 >= c10 >= c11


class TestCoverageCurve:
    def test_minimum_detectable_r(self):
        curve = CoverageCurve("x", [1e3, 2e3, 4e3], [0, 2, 4], 4)
        assert curve.minimum_detectable_r() == 4e3
        assert curve.minimum_detectable_r(target=0.5) == 2e3

    def test_minimum_detectable_r_none(self):
        curve = CoverageCurve("x", [1e3], [2], 4)
        assert curve.minimum_detectable_r() is None

    def test_confidence_intervals_bracket_coverage(self):
        curve = CoverageCurve("x", [1e3, 2e3], [1, 4], 4)
        for (lo, hi), c in zip(curve.confidence_intervals(),
                               curve.coverage):
            assert lo <= c <= hi

    def test_coverage_derived_from_hits(self):
        curve = CoverageCurve("x", [1e3, 2e3], [1, 3], 4)
        assert curve.hits == [1, 3]
        assert curve.coverage == [0.25, 0.75]

    def test_confidence_intervals_use_exact_hit_counts(self):
        """The intervals must come from the stored integer counts, not
        a reconstruction from the float ratio (round(0.375*4) banker's-
        rounds to 2, silently shifting the interval)."""
        from repro.montecarlo import wilson_interval

        curve = CoverageCurve("x", [1e3], [3], 8)
        assert curve.confidence_intervals() == [wilson_interval(3, 8)]

    def test_rejects_fractional_hit_counts(self):
        """Regression: the old float-ratio constructor silently accepted
        coverage values that correspond to no integer hit count; now
        they are an error at construction time."""
        with pytest.raises(ValueError):
            CoverageCurve("x", [1e3], [1.5], 4)

    def test_rejects_out_of_range_hits(self):
        with pytest.raises(ValueError):
            CoverageCurve("x", [1e3], [5], 4)
        with pytest.raises(ValueError):
            CoverageCurve("x", [1e3], [-1], 4)

    def test_accepts_integral_floats(self):
        """Whole-number floats (e.g. from JSON round-trips) coerce."""
        curve = CoverageCurve("x", [1e3], [2.0], 4)
        assert curve.hits == [2]
        assert curve.coverage == [0.5]

    def test_monotonicity_helper(self):
        up = CoverageCurve("x", [1, 2, 3], [0, 2, 4], 4)
        down = CoverageCurve("x", [1, 2, 3], [4, 2, 0], 4)
        assert detected_fraction_is_monotonic(up)
        assert not detected_fraction_is_monotonic(down)

    def test_all_finite_helper(self):
        assert delay_is_all_finite([[1e-9, 2e-9]])
        assert not delay_is_all_finite([[1e-9, math.inf]])


class TestVariableNCoverageCurve:
    def test_per_point_populations(self):
        curve = CoverageCurve("x", [1e3, 2e3, 4e3], [2, 6, 16],
                              [8, 8, 16])
        assert curve.ns == [8, 8, 16]
        assert curve.coverage == [0.25, 0.75, 1.0]
        assert not curve.uniform
        assert curve.n_samples == 16  # compat: the largest population

    def test_uniform_int_still_uniform(self):
        curve = CoverageCurve("x", [1e3, 2e3], [1, 2], 4)
        assert curve.uniform
        assert curve.ns == [4, 4]

    def test_intervals_use_per_point_n(self):
        from repro.montecarlo import wilson_interval

        curve = CoverageCurve("x", [1e3, 2e3], [2, 2], [4, 16])
        assert curve.confidence_intervals() == [wilson_interval(2, 4),
                                                wilson_interval(2, 16)]
        hw = curve.halfwidths()
        assert hw[1] < hw[0]  # more samples, tighter interval

    def test_hits_validated_against_own_n(self):
        # 5 hits is fine for the n=8 point but not for the n=4 point
        CoverageCurve("x", [1e3, 2e3], [5, 0], [8, 4])
        with pytest.raises(ValueError):
            CoverageCurve("x", [1e3, 2e3], [0, 5], [8, 4])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CoverageCurve("x", [1e3, 2e3], [1, 1], [4])

    def test_non_positive_n_rejected(self):
        with pytest.raises(ValueError):
            CoverageCurve("x", [1e3], [0], [0])
        with pytest.raises(ValueError):
            CoverageCurve("x", [1e3], [0], [2.5])

    def test_repr_shows_range(self):
        curve = CoverageCurve("x", [1e3, 2e3], [0, 0], [4, 16])
        assert "n=4..16" in repr(curve)


class TestLegacyCallablePath:
    """Sweeps honour the ``adaptive`` setting and run the lockstep
    Newton solver, and a fault family that is not a FaultSpec prototype
    is rejected."""

    PATH = dict(gate_kinds=("inv",) * 3)

    def _sweep(self, **kwargs):
        from repro.core.coverage import sweep_pulse_measurements
        from repro.faults import ExternalOpen
        from repro.montecarlo import sample_population

        samples = sample_population(1, base_seed=3)
        return sweep_pulse_measurements(
            samples, ExternalOpen(2, 8e3), [8e3], 0.40e-9,
            dt=8e-12, **dict(self.PATH, **kwargs))

    def test_adaptive_honoured(self):
        from repro.runtime import stats_scope

        with stats_scope() as stats:
            self._sweep(adaptive=True)
        assert stats.total("adaptive_runs") > 0

    def test_lockstep_solver_runs(self):
        """A one-sample, one-point sweep row is a population of one; it
        runs the lockstep engine too."""
        from repro.runtime import stats_scope

        with stats_scope() as stats:
            self._sweep()
        assert stats.total("newton_solves") > 0

    def test_batched_engine_rejected(self):
        from repro.core.coverage import sweep_pulse_measurements
        from repro.faults import ExternalOpen
        from repro.montecarlo import sample_population

        samples = sample_population(1, base_seed=3)
        with pytest.raises(TypeError, match="FaultSpec"):
            sweep_pulse_measurements(samples, lambda r: ExternalOpen(2, r),
                                     [8e3], 0.40e-9, engine="batched",
                                     **self.PATH)

    def test_delay_path_rejects_batched_too(self):
        from repro.core.coverage import sweep_delay_measurements
        from repro.faults import ExternalOpen
        from repro.montecarlo import sample_population

        samples = sample_population(1, base_seed=3)
        with pytest.raises(TypeError, match="FaultSpec"):
            sweep_delay_measurements(samples, lambda r: ExternalOpen(2, r),
                                     [8e3], engine="batched", **self.PATH)

    def test_callable_fault_family_rejected(self):
        from repro.core.coverage import (sweep_delay_measurements,
                                         sweep_pulse_measurements)
        from repro.faults import ExternalOpen
        from repro.montecarlo import sample_population

        samples = sample_population(1, base_seed=3)
        with pytest.raises(TypeError, match="FaultSpec"):
            sweep_pulse_measurements(samples, lambda r: ExternalOpen(2, r),
                                     [8e3], 0.40e-9, **self.PATH)
        with pytest.raises(TypeError, match="FaultSpec"):
            sweep_delay_measurements(samples, lambda r: ExternalOpen(2, r),
                                     [8e3], **self.PATH)


class TestChunkSignature:
    """The chunk task's signature is ``(spec, items)``: every shared
    setting is bound once per call, so a chunk cannot mix settings;
    an item carries only its sample and its resistance or width grid."""

    def _sweep(self):
        from repro.core.coverage import build_sweep_payloads
        from repro.faults import ExternalOpen
        from repro.montecarlo import sample_population

        samples = sample_population(1, base_seed=3)
        return build_sweep_payloads(
            samples, ExternalOpen(2, 8e3), [8e3], dt=8e-12,
            measure="pulse", omega_in=0.40e-9, kind="h")

    def test_chunk_mixing_r_points_matches_per_point_chunks(self):
        """Each sample steps through its own resistance grid, so one
        chunk may span R points (the adaptive waves rely on it)."""
        from repro.core.pulse import _measure_chunk

        spec, (low,) = self._sweep()
        high = dict(low, resistances=[30e3])
        mixed = _measure_chunk(spec, [low, high])
        alone = _measure_chunk(spec, [low]) + _measure_chunk(spec, [high])
        assert mixed[0][0] != pytest.approx(mixed[1][0], abs=1e-12)
        for got, want in zip(mixed, alone):
            assert got[0] == pytest.approx(want[0], abs=1e-12)

    def test_transfer_chunk_mixing_widths_matches_per_item_chunks(self):
        """A transfer row steps its instance through its own widths, so
        one lockstep chunk may mix them."""
        from repro.core.pulse import _measure_chunk

        spec, (item,) = self._sweep()
        spec = dict(spec, fault=None)
        del spec["omega_in"]
        narrow = {"sample": item["sample"], "widths": [0.30e-9, 0.40e-9]}
        wide = dict(narrow, widths=[0.45e-9, 0.50e-9])
        mixed = _measure_chunk(spec, [narrow, wide])
        alone = _measure_chunk(spec, [narrow]) + _measure_chunk(spec, [wide])
        for got, want in zip(mixed, alone):
            assert got == pytest.approx(want, abs=0.1e-12)

    def test_unequal_grid_lengths_rejected(self):
        from repro.core.pulse import run_measurements

        spec, (item,) = self._sweep()
        with pytest.raises(ValueError, match="R points"):
            run_measurements(spec,
                             [item, dict(item, resistances=[8e3, 16e3])])

    @pytest.mark.parametrize("n_jobs, batch_size", [(1, 1), (2, None)])
    def test_mixed_grids_rejected_at_any_chunking(self, n_jobs, batch_size):
        """The check is per call: chunks of one item each, or one chunk
        per worker, would each pass a per-chunk check, so whether a
        mixed call ran would depend on the worker count."""
        from types import SimpleNamespace

        from repro.core.pulse import run_measurements
        from repro.runtime import Runtime

        spec, (item,) = self._sweep()
        runtime = Runtime(executor=SimpleNamespace(n_jobs=n_jobs))
        with pytest.raises(ValueError, match="R points"):
            run_measurements(spec,
                             [item, dict(item, resistances=[8e3, 16e3])],
                             runtime=runtime, batch_size=batch_size)

    def test_compatible_chunks_pass_the_gate(self):
        """The gate is structural: items carry nothing but their sample
        and grid, so every item of a chunk runs under the one spec the
        task is bound to."""
        spec, items = self._sweep()
        assert [set(item) for item in items] == [{"sample", "resistances"}]
        assert set(spec) == {"measure", "omega_in", "kind", "dt",
                             "adaptive", "tech", "path_kwargs", "fault"}


class TestEngineSelection:
    PATH = dict(gate_kinds=("inv",) * 3)

    def _chunk_sizes(self, trace_path, **kwargs):
        """Chunk size of every executed task of a 2-sample sweep."""
        from repro.core.coverage import sweep_pulse_measurements
        from repro.faults import ExternalOpen
        from repro.runtime import Runtime, read_trace

        path = str(trace_path)
        sweep_pulse_measurements(sample_population(2, base_seed=1),
                                 ExternalOpen(2, 8e3), [8e3], 0.40e-9,
                                 dt=8e-12, runtime=Runtime(trace=path),
                                 **dict(self.PATH, **kwargs))
        return [event["chunk_size"] for event in read_trace(path)
                if event["event"] == "task"]

    def test_batch_size_honoured_by_default_engine(self, tmp_path):
        """``batch_size`` alone used to be dropped: the default engine
        ran one sample per task whatever it said.  Without it the
        runtime sizes the chunks: a serial call is one chunk."""
        assert self._chunk_sizes(tmp_path / "b1.jsonl",
                                 batch_size=1) == [1, 1]
        assert self._chunk_sizes(tmp_path / "b2.jsonl",
                                 batch_size=2) == [2, 2]
        assert self._chunk_sizes(tmp_path / "default.jsonl") == [2, 2]

    def test_non_positive_batch_size_rejected(self):
        from repro.core.coverage import sweep_pulse_measurements
        from repro.faults import ExternalOpen

        for batch_size in (0, -3):
            with pytest.raises(ValueError, match="batch_size"):
                sweep_pulse_measurements(sample_population(2),
                                         ExternalOpen(2, 2e3), [2e3],
                                         0.4e-9, batch_size=batch_size)

    def test_scalar_engine_with_chunks_rejected(self):
        """No measurement runs the scalar engine, so ``engine="scalar"``
        is an unknown engine, with chunks of eight or any other width."""
        from repro.core.coverage import (sweep_delay_measurements,
                                         sweep_pulse_measurements)
        from repro.faults import ExternalOpen

        samples = sample_population(2)
        for batch_size in (None, 1, 8):
            with pytest.raises(ValueError, match="unknown engine"):
                sweep_pulse_measurements(samples, ExternalOpen(2, 2e3),
                                         [2e3], 0.4e-9, engine="scalar",
                                         batch_size=batch_size)
            with pytest.raises(ValueError, match="unknown engine"):
                sweep_delay_measurements(samples, ExternalOpen(2, 2e3),
                                         [2e3], engine="scalar",
                                         batch_size=batch_size)

    def test_unknown_engine_rejected(self):
        from repro.core.coverage import sweep_pulse_measurements
        from repro.faults import ExternalOpen

        samples = sample_population(2)
        with pytest.raises(ValueError):
            sweep_pulse_measurements(samples, ExternalOpen(2, 2e3),
                                     [2e3], 0.4e-9, engine="vector")

    def test_batched_sweep_matches_scalar(self):
        """The routed batched sweep reproduces the scalar rows (the
        full property suite lives in tests/spice/test_batch_engine.py;
        this pins the coverage-layer routing)."""
        from repro.core.coverage import sweep_pulse_measurements
        from repro.faults import ExternalOpen

        samples = sample_population(2, base_seed=1)
        fault = ExternalOpen(2, 8e3)
        scalar = sweep_pulse_measurements(samples, fault, [8e3],
                                          0.40e-9, dt=8e-12)
        batched = sweep_pulse_measurements(samples, fault, [8e3],
                                           0.40e-9, dt=8e-12,
                                           engine="batched",
                                           batch_size=2)
        for srow, brow in zip(scalar, batched):
            for a, b in zip(srow, brow):
                assert b == pytest.approx(a, abs=1e-9)
