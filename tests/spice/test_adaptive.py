"""Adaptive (LTE-controlled) transient stepping.

The fixed-step engine is the reference: the adaptive grid must
reproduce its waveform measurements within measurement tolerance while
taking materially fewer steps.  The paper-bench equivalence class pins
the ISSUE acceptance criteria: d_p and w_out within 0.1 ps of a 4x
finer fixed grid, with >= 2x fewer accepted steps than the default
fixed grid.
"""

import math

import numpy as np
import pytest

from repro.core.pulse import (DEFAULT_DT, build_instance,
                              measure_output_pulse,
                              measure_output_pulse_batch,
                              measure_path_delay, measure_path_delay_batch,
                              simulation_window)
from repro.runtime import stats_scope
from repro.spice import (BACKWARD_EULER, Circuit, Pulse, Pwl,
                         run_transient, run_transient_batch)
from repro.spice.errors import AnalysisError
from repro.spice.sources import collect_breakpoints

W_IN = 0.40e-9


def rc_circuit(r=1e3, c=1e-12):
    circuit = Circuit("rc")
    circuit.add_vsource(
        "V1", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, width=2e-9))
    circuit.add_resistor("R1", "in", "out", r)
    circuit.add_capacitor("C1", "out", "0", c)
    return circuit


def max_deviation(reference, wf, node):
    """Max |wf - reference| at the adaptive sample times."""
    ref = np.interp(wf.t, reference.t, reference[node])
    return float(np.abs(ref - wf[node]).max())


class TestAdaptiveRc:
    def test_matches_fine_fixed_grid(self):
        fine = run_transient(rc_circuit(), 6e-9, 5e-12)
        adaptive = run_transient(rc_circuit(), 6e-9, 20e-12,
                                 adaptive=True)
        assert max_deviation(fine, adaptive, "out") < 2e-3

    def test_uses_fewer_points_than_fixed(self):
        fixed = run_transient(rc_circuit(), 6e-9, 5e-12)
        adaptive = run_transient(rc_circuit(), 6e-9, 20e-12,
                                 adaptive=True)
        assert len(adaptive.t) < len(fixed.t) / 4

    def test_grid_covers_tstop(self):
        wf = run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True)
        assert wf.t[0] == 0.0
        assert wf.t[-1] >= 6e-9 * (1 - 1e-12)

    def test_time_base_strictly_increasing(self):
        wf = run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True)
        assert np.all(np.diff(wf.t) > 0)

    def test_lands_on_stimulus_breakpoints(self):
        """Every pulse corner is an exact grid point."""
        wf = run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True)
        for corner in (1e-9, 1.1e-9, 3.1e-9, 3.2e-9):
            assert np.min(np.abs(wf.t - corner)) < 1e-18

    def test_tighter_tolerance_takes_more_steps(self):
        loose = run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True,
                              lte_tol=5e-3)
        tight = run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True,
                              lte_tol=1e-5)
        assert len(tight.t) > len(loose.t)

    def test_stats_counters_increment(self):
        with stats_scope() as stats:
            run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True)
        assert stats.total("adaptive_runs") == 1
        assert stats.total("adaptive_accepted") > 0


class TestAdaptiveArguments:
    def test_rejects_backward_euler(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-9, 1e-12, adaptive=True,
                          method=BACKWARD_EULER)

    def test_rejects_backward_euler_batch(self):
        with pytest.raises(AnalysisError):
            run_transient_batch([rc_circuit()], 1e-9, 1e-12,
                                adaptive=True, method=BACKWARD_EULER)

    def test_rejects_bad_lte_tol(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-9, 1e-12, adaptive=True,
                          lte_tol=0.0)

    def test_rejects_bad_dt_min(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-9, 1e-12, adaptive=True,
                          dt_min=-1e-15)


class TestBreakpointCollection:
    def test_pulse_corners_merged_and_sorted(self):
        stim = Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, width=2e-9)
        points = collect_breakpoints([stim, stim], 6e-9)
        assert points == sorted(points)
        assert len(points) == len(set(points))
        for corner in (1e-9, 3.2e-9):
            assert min(abs(p - corner) for p in points) < 1e-18

    def test_endpoints_excluded(self):
        stim = Pwl([(0.0, 0.0), (2e-9, 1.0), (4e-9, 0.0)])
        points = collect_breakpoints([stim], 4e-9)
        assert points == [2e-9]

    def test_corners_past_tstop_dropped(self):
        stim = Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, width=5e-9)
        points = collect_breakpoints([stim], 2e-9)
        assert all(p < 2e-9 for p in points)


class TestAdaptiveBatchEngine:
    def test_batch_matches_scalar_adaptive(self):
        """Lockstep adaptive == scalar adaptive for identical samples
        (same controller, same union grid)."""
        scalar = run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True)
        batched = run_transient_batch([rc_circuit(), rc_circuit()], 6e-9,
                                      20e-12, adaptive=True)
        for wf in batched:
            np.testing.assert_allclose(wf.t, scalar.t)
            np.testing.assert_allclose(wf["out"], scalar["out"],
                                       atol=1e-9)

    def test_batch_union_grid_covers_tstop(self):
        wfs = run_transient_batch([rc_circuit(1e3), rc_circuit(2e3)],
                                  6e-9, 20e-12, adaptive=True)
        assert wfs[0].t[-1] >= 6e-9 * (1 - 1e-12)
        np.testing.assert_allclose(wfs[0].t, wfs[1].t)


class TestPaperBenchEquivalence:
    """ISSUE acceptance: adaptive d_p / w_out within 0.1 ps of a 4x
    finer fixed grid, >= 2x fewer accepted steps than the default
    fixed grid."""

    def test_w_out_equivalence_and_step_budget(self):
        path = build_instance()
        w_fine, _ = measure_output_pulse(path, W_IN, dt=DEFAULT_DT / 4)
        with stats_scope() as stats:
            w_adaptive, _ = measure_output_pulse(path, W_IN, dt=DEFAULT_DT,
                                                 adaptive=True)
        accepted = stats.total("adaptive_accepted")
        assert abs(w_adaptive - w_fine) < 0.1e-12

        delay = path.set_input_pulse(W_IN, kind="h")
        tstop = simulation_window(path, w_in=W_IN, stimulus_delay=delay)
        fixed_steps = math.ceil(tstop / DEFAULT_DT)
        assert accepted * 2 <= fixed_steps

    def test_d_p_equivalence_and_step_budget(self):
        path = build_instance()
        d_fine, _ = measure_path_delay(path, dt=DEFAULT_DT / 4)
        with stats_scope() as stats:
            d_adaptive, _ = measure_path_delay(path, dt=DEFAULT_DT,
                                               adaptive=True)
        accepted = stats.total("adaptive_accepted")
        assert abs(d_adaptive - d_fine) < 0.1e-12

        stim_delay = path.set_input_transition("rise")
        tstop = simulation_window(path, stimulus_delay=stim_delay)
        fixed_steps = math.ceil(tstop / DEFAULT_DT)
        assert accepted * 2 <= fixed_steps

    def test_batched_measurements_match_scalar_adaptive(self):
        from repro.montecarlo import sample_population

        samples = sample_population(3, base_seed=5)
        paths = [build_instance(sample=s) for s in samples]
        w_scalar = [measure_output_pulse(p, W_IN, adaptive=True)[0]
                    for p in paths]
        w_batch, _ = measure_output_pulse_batch(paths, W_IN,
                                                adaptive=True)
        for a, b in zip(w_scalar, w_batch):
            assert b == pytest.approx(a, abs=0.2e-12)

        d_scalar = [measure_path_delay(p, adaptive=True)[0]
                    for p in paths]
        d_batch, _ = measure_path_delay_batch(paths, adaptive=True)
        for a, b in zip(d_scalar, d_batch):
            assert b == pytest.approx(a, abs=0.2e-12)
