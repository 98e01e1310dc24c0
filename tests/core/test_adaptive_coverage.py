"""Adaptive-precision coverage engine tests.

The allocation and refinement logic is exercised against a synthetic
measurer (deterministic detection as a function of (sample, R), zero
electrical cost); one small electrical test at the bottom pins the
real wiring through the runtime.
"""

import math

import pytest

from repro.core.adaptive_coverage import (AdaptiveSweepResult, PointState,
                                          adaptive_sweep, subsample_grid)
from repro.faults import ExternalOpen
from repro.montecarlo import wilson_halfwidth

FAULT = ExternalOpen(2, 1e3)

GRID = [500.0 * (80.0 ** (i / 9.0)) for i in range(10)]  # 500..40k


def decide(value, sample):
    return value > 0.5


class StepMeasurer:
    """Detects iff r >= per-sample threshold around ``r50``."""

    def __init__(self, r50, spread=0.3):
        self.r50 = r50
        self.spread = spread
        self.requested = 0
        self.calls = 0

    def threshold(self, index):
        frac = (index * 0.37) % 1.0  # deterministic pseudo-uniform
        return self.r50 * (1.0 + self.spread * (2.0 * frac - 1.0))

    def measure(self, requests):
        requests = list(requests)
        self.requested += len(requests)
        self.calls += 1
        return [1.0 if r >= self.threshold(i) else 0.0
                for i, r in requests]


class FallingMeasurer(StepMeasurer):
    """Coverage decays with R (the bridging C_del shape)."""

    def measure(self, requests):
        requests = list(requests)
        self.requested += len(requests)
        self.calls += 1
        return [1.0 if r <= self.threshold(i) else 0.0
                for i, r in requests]


def sweep(measurer, samples=64, **kwargs):
    kwargs.setdefault("ci_width", 0.15)
    kwargs.setdefault("min_wave", 8)
    kwargs.setdefault("refine_rel_tol", 0.1)
    return adaptive_sweep(list(range(samples)), FAULT, GRID, decide,
                          measurer=measurer, **kwargs)


class TestSubsampleGrid:
    def test_keeps_endpoints(self):
        grid = subsample_grid(GRID, 4)
        assert grid[0] == min(GRID)
        assert grid[-1] == max(GRID)
        assert len(grid) == 4

    def test_small_grid_unchanged(self):
        assert subsample_grid([1.0, 2.0], 4) == [1.0, 2.0]

    def test_deduplicates_and_sorts(self):
        assert subsample_grid([2.0, 1.0, 2.0], 5) == [1.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subsample_grid([], 4)


class TestSequentialAllocation:
    def test_easy_points_stop_early(self):
        """Far from the crossing every sample agrees: the Wilson
        interval collapses after few waves and the full population is
        never spent there."""
        m = StepMeasurer(8e3)
        result = sweep(m, samples=64)
        by_r = {p.r: p for p in result.points}
        assert by_r[min(GRID)].n < 64
        assert by_r[max(GRID)].n < 64

    def test_stopping_rule_met_at_every_grid_point(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=64)
        for p in result.points:
            if p.refined:
                continue  # refinement points may stop on exclusion
            hits = p.hits(decide, result.samples)
            assert (p.n == 64
                    or wilson_halfwidth(hits, p.n) <= 0.15)

    def test_waves_double_from_min_wave(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=64, min_wave=4)
        # every per-point n is 4 * 2^k (capped at the population)
        for p in result.points:
            n = p.n
            while n % 2 == 0 and n > 4:
                n //= 2
            assert n in (1, 2, 4) or p.n == 64

    def test_population_cap_respected(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=16)
        assert all(p.n <= 16 for p in result.points)

    def test_never_remeasures_a_sample(self):
        """Total requests equal the sum of per-point populations —
        wave escalation extends, never recomputes."""
        m = StepMeasurer(8e3)
        result = sweep(m, samples=64)
        assert m.requested == result.total_measurements

    def test_saves_vs_fixed_grid(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=64)
        assert result.total_measurements < result.fixed_grid_measurements
        matched = result.matched_resolution_measurements(0.1)
        assert result.total_measurements < 0.7 * matched


class TestRefinement:
    def test_crossing_localised_to_tolerance(self):
        m = StepMeasurer(8e3, spread=0.0)  # sharp step at exactly 8k
        result = sweep(m, samples=32, refine_rel_tol=0.05)
        crossing = result.crossings[1.0]
        assert crossing["lo"] <= 8e3 <= crossing["hi"] * 1.05
        assert crossing["hi"] / crossing["lo"] <= 1.05 + 1e-9
        assert result.minimum_detectable_r(1.0) == crossing["detected_at"]

    def test_falling_curve_bracketed(self):
        """Bridging-shaped curves (coverage decays with R) refine the
        falling crossing; the detected side is the low-R side."""
        m = FallingMeasurer(8e3, spread=0.0)
        result = sweep(m, samples=32)
        crossing = result.crossings[1.0]
        assert crossing["detected_at"] == crossing["lo"]
        assert crossing["lo"] < 8e3 * 1.2

    def test_never_crossing_target_skipped(self):
        """A target the grid never reaches yields no crossing entry
        instead of a spurious bracket."""
        m = StepMeasurer(1e9)  # nothing ever detects
        result = sweep(m, samples=16)
        assert result.crossings == {}
        assert result.minimum_detectable_r(1.0) is None

    def test_all_detected_yields_no_bracket(self):
        m = StepMeasurer(1.0)  # everything always detects
        result = sweep(m, samples=16)
        assert result.crossings == {}

    def test_geometric_bisection_midpoints(self):
        """Refinement points sit at geometric means of their bracket —
        all inside the original R range."""
        m = StepMeasurer(8e3)
        result = sweep(m, samples=32)
        for p in result.points:
            assert min(GRID) <= p.r <= max(GRID)

    def test_refined_points_recorded(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=32)
        assert any(p.refined for p in result.points)


class TestResultObject:
    def test_curves_share_raw_values(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=32)
        curve = result.curve("1.0", decide)
        assert curve.resistances == result.resistances
        assert curve.ns == result.ns
        inverted = result.curve("inv", lambda v, s: not decide(v, s))
        assert all(a + b == n for a, b, n in
                   zip(curve.hits, inverted.hits, curve.ns))

    def test_raw_population_order(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=32)
        raw = result.raw()
        for p in result.points:
            assert raw[p.r] == p.values
            # population order: sample i's value is measurer(i, r)
            for i, value in enumerate(p.values):
                assert value == m.measure([(i, p.r)])[0]

    def test_matched_resolution_accounting(self):
        m = StepMeasurer(8e3)
        result = sweep(m, samples=10)
        span = math.log(max(GRID) / min(GRID))
        expected = 10 * (1 + math.ceil(span / math.log(1.1)))
        assert result.matched_resolution_measurements(0.1) == expected

    def test_repr(self):
        assert "PointState" in repr(PointState(1e3))
        m = StepMeasurer(8e3)
        assert "AdaptiveSweepResult" in repr(sweep(m, samples=8))


class TestValidation:
    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            adaptive_sweep([], FAULT, GRID, decide,
                           measurer=StepMeasurer(8e3))

    def test_bad_ci_width_rejected(self):
        for width in (0.0, 0.5, -0.1):
            with pytest.raises(ValueError):
                sweep(StepMeasurer(8e3), ci_width=width)

    def test_bad_refine_tol_rejected(self):
        with pytest.raises(ValueError):
            sweep(StepMeasurer(8e3), refine_rel_tol=0.0)

    def test_legacy_callable_fault_rejected(self):
        """The runtime-backed measurer needs a picklable prototype."""
        with pytest.raises(TypeError, match="FaultSpec"):
            adaptive_sweep([1, 2], lambda r: ExternalOpen(2, r), GRID,
                           decide, measure="pulse", omega_in=0.4e-9,
                           kind="h")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            adaptive_sweep([1, 2], FAULT, GRID, decide,
                           engine="vector", measure="pulse",
                           omega_in=0.4e-9, kind="h")


class TestElectricalIntegration:
    """One tiny real sweep through the runtime: lockstep engine, short
    inverter chain, coarse step.  Pins payload wiring, report folding
    and cache-backed wave resume."""

    PATH = dict(gate_kinds=("inv",) * 3)

    def _run(self, runtime=None, report=None):
        from repro.montecarlo import sample_population

        samples = sample_population(3, base_seed=5)
        return adaptive_sweep(
            samples, ExternalOpen(2, 2e3), [2e3, 30e3],
            lambda v, s: v <= 0.0,  # detected = pulse fully dampened
            ci_width=0.3, min_wave=2, refine_rel_tol=0.5,
            dt=8e-12, runtime=runtime, report=report,
            path_kwargs=self.PATH, measure="pulse", omega_in=0.40e-9,
            kind="h")

    def test_real_sweep_runs_and_reports(self):
        from repro.runtime import RunReport

        report = RunReport("adaptive-test")
        result = self._run(report=report)
        assert result.total_measurements > 0
        assert report.waves == result.waves
        assert report.completed == result.total_measurements

    def test_pool_waves_match_serial_counters(self):
        """Allocation decisions depend only on measured values, so the
        same tasks run under both executors and the folded solver
        counters must be identical (stats snapshots ship across the
        process boundary)."""
        from repro.runtime import (ProcessPoolExecutor, RunReport,
                                   Runtime, SerialExecutor)

        counters = ("newton_solves", "newton_iterations",
                    "ladder_retries", "lu_factorizations", "lu_reuses")
        serial_report = RunReport("serial")
        serial = self._run(runtime=Runtime(executor=SerialExecutor()),
                           report=serial_report)
        pool_report = RunReport("pool")
        pool = self._run(
            runtime=Runtime(executor=ProcessPoolExecutor(n_jobs=2,
                                                         retries=0)),
            report=pool_report)
        assert pool.raw() == serial.raw()
        assert pool_report.waves == serial_report.waves
        for name in counters:
            assert getattr(pool_report, name) == \
                getattr(serial_report, name), name

    def test_wave_resume_from_cache(self, tmp_path):
        from repro.runtime import RunReport, Runtime

        cold_report = RunReport("cold")
        runtime = Runtime(cache=str(tmp_path / "cache"))
        cold = self._run(runtime=runtime, report=cold_report)
        assert cold_report.cache_misses == cold.total_measurements

        warm_report = RunReport("warm")
        warm = self._run(runtime=Runtime(cache=str(tmp_path / "cache")),
                         report=warm_report)
        assert warm_report.cache_misses == 0
        assert warm_report.cache_hits == warm.total_measurements
        assert warm.raw() == cold.raw()
