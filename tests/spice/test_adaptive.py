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
from repro.spice import (BACKWARD_EULER, Circuit, Dc, Pulse, Pwl,
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
        """Each row of a two-row population of identical circuits equals,
        bit for bit, the circuit run alone as a population of one (every
        row steps on its own grid)."""
        alone = run_transient(rc_circuit(), 6e-9, 20e-12, adaptive=True)
        batched = run_transient_batch([rc_circuit(), rc_circuit()], 6e-9,
                                      20e-12, adaptive=True)
        for wf in batched:
            np.testing.assert_array_equal(wf.t, alone.t)
            np.testing.assert_array_equal(wf["out"], alone["out"])

    def test_batch_rows_cover_tstop(self):
        wfs = run_transient_batch([rc_circuit(1e3), rc_circuit(2e3)],
                                  6e-9, 20e-12, adaptive=True)
        for wf in wfs:
            assert wf.t[-1] >= 6e-9 * (1 - 1e-12)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_ground_only_record(self, adaptive):
        """Recording ground alone still returns each row's time base."""
        wfs = run_transient_batch([rc_circuit(1e3), rc_circuit(2e3)],
                                  6e-9, 20e-12, record=["0"],
                                  adaptive=adaptive)
        wfs.append(run_transient(rc_circuit(), 6e-9, 20e-12, record=["0"],
                                 adaptive=adaptive))
        for wf in wfs:
            assert wf.t[-1] >= 6e-9 * (1 - 1e-12)
            assert not wf["0"].any()


class TestRowGrids:
    """Every row of an adaptive lockstep population steps on its own
    time grid, so its values, time base and solver effort depend on
    nothing but the row."""

    DT = 5e-12

    @staticmethod
    def _path(sample, r):
        from repro.faults import ExternalOpen

        return build_instance(sample=sample, fault=ExternalOpen(2, r))

    @pytest.mark.parametrize("measure", ["pulse", "delay"])
    def test_row_equals_it_among_copies(self, measure):
        """Each row of a six-row population equals, bit for bit, the
        same row run as a two-row population of copies (how a chunk's
        lone row runs)."""
        from repro.montecarlo import sample_population

        def run(paths):
            if measure == "pulse":
                return measure_output_pulse_batch(paths, W_IN, dt=self.DT,
                                                  adaptive=True)
            return measure_path_delay_batch(paths, dt=self.DT,
                                            adaptive=True)

        points = [(sample, r)
                  for sample in sample_population(3, base_seed=4)
                  for r in (3e3, 20e3)]
        values, waveforms = run([self._path(*point) for point in points])
        for point, value, waveform in zip(points, values, waveforms):
            alone, copies = run([self._path(*point), self._path(*point)])
            assert alone[0] == value
            np.testing.assert_array_equal(copies[0].t, waveform.t)

    def test_batch_size_moves_no_row(self):
        """An adaptive sweep reads and books the same at any batch size:
        a population books what its rows would book alone."""
        from repro.core import sweep_pulse_measurements
        from repro.faults import ExternalOpen
        from repro.montecarlo import sample_population
        from repro.runtime import RunReport

        def sweep(batch_size):
            report = RunReport()
            rows = sweep_pulse_measurements(
                sample_population(3, base_seed=2), ExternalOpen(2, 4e3),
                [4e3, 20e3], W_IN, dt=1e-11, adaptive=True,
                batch_size=batch_size, report=report)
            return rows, [report.newton_solves, report.adaptive_runs,
                          report.adaptive_accepted, report.adaptive_rejected]

        assert sweep(3) == sweep(1)

    def test_mixed_rows_equal_rows_alone(self):
        """Rows whose stimuli differ in every way the controller has to
        handle each equal, bit for bit, the same row run alone, and the
        population books the sum of what its rows book alone: pulses
        with different delays and one periodic pulse (breakpoint lists
        of different lengths), a ``Dc`` row without breakpoints that
        finishes in few rounds, and a 1 ps edge, whose landing step is
        shorter than ``dt_min``."""
        stimuli = [
            Pulse(0.0, 1.0, delay=0.5e-9, rise=0.1e-9, width=1e-9),
            Pulse(0.0, 1.0, delay=1.7e-9, rise=0.2e-9, width=0.5e-9,
                  period=1.5e-9),
            Dc(0.7),
            Pulse(0.0, 1.0, delay=1e-9, rise=1e-12, width=1e-9)]
        counters = ("newton_solves", "newton_iterations", "adaptive_runs",
                    "adaptive_accepted", "adaptive_rejected")

        def run(rows):
            circuits = []
            for k in rows:
                circuit = Circuit("rc")
                circuit.add_vsource("V1", "in", "0", stimuli[k])
                circuit.add_resistor("R1", "in", "out", 1e3 * (1 + k))
                circuit.add_capacitor("C1", "out", "0", 1e-12)
                circuits.append(circuit)
            with stats_scope() as stats:
                waveforms = run_transient_batch(circuits, 6e-9, 20e-12,
                                                adaptive=True)
            return waveforms, [stats.total(name) for name in counters]

        population, booked = run(range(len(stimuli)))
        summed = [0] * len(counters)
        for k, waveform in enumerate(population):
            (alone,), alone_booked = run([k])
            np.testing.assert_array_equal(waveform.t, alone.t)
            for node in ("in", "out"):
                np.testing.assert_array_equal(waveform[node], alone[node])
            summed = [a + b for a, b in zip(summed, alone_booked)]
        assert booked == summed
        assert booked[3] > 0 and booked[4] > 0


class TestRowFailure:
    """A row whose Newton solve and gmin ladder both fail rejects only
    its own step; on the fixed grid the failure propagates."""

    @staticmethod
    def _fail_row_zero_once(monkeypatch, at_call):
        """Make row 0 fail the ``at_call``-th lockstep solve and every
        ladder; returns the call counters."""
        import repro.spice.transient as transient

        real_newton = transient.newton_solve_batch
        real_ladder = transient.gmin_ladder_batch
        calls = {"newton": 0, "ladder": 0}

        def newton(batch, a_base, rhs, x0, sample_idx=None, **kwargs):
            x, conv = real_newton(batch, a_base, rhs, x0, sample_idx,
                                  **kwargs)
            calls["newton"] += 1
            if calls["newton"] == at_call:
                conv[np.asarray(sample_idx) == 0] = False
            return x, conv

        def ladder(*args, **kwargs):
            calls["ladder"] += 1
            x, conv = real_ladder(*args, **kwargs)
            return x, np.zeros_like(conv)

        monkeypatch.setattr(transient, "newton_solve_batch", newton)
        monkeypatch.setattr(transient, "gmin_ladder_batch", ladder)
        return calls

    def test_failed_row_rejects_only_its_own_step(self, monkeypatch):
        circuits = [rc_circuit(1e3), rc_circuit(2e3)]
        clean = run_transient_batch(circuits, 6e-9, 20e-12, adaptive=True)
        calls = self._fail_row_zero_once(monkeypatch, at_call=20)
        failed = run_transient_batch(circuits, 6e-9, 20e-12, adaptive=True)
        assert calls["ladder"] == 1
        np.testing.assert_array_equal(failed[1].t, clean[1].t)
        np.testing.assert_array_equal(failed[1]["out"], clean[1]["out"])
        assert not np.array_equal(failed[0].t, clean[0].t)
        assert failed[0].t[-1] >= 6e-9 * (1 - 1e-12)

    def test_floor_failure_names_its_row(self, monkeypatch):
        """A row that fails every solve halves its step down to the
        ``dt_min`` floor, where the error names the row, the population
        size and the row's time."""
        import repro.spice.transient as transient
        from repro.spice.errors import ConvergenceError

        real_newton = transient.newton_solve_batch
        real_ladder = transient.gmin_ladder_batch

        def newton(batch, a_base, rhs, x0, sample_idx=None, **kwargs):
            x, conv = real_newton(batch, a_base, rhs, x0, sample_idx,
                                  **kwargs)
            conv[np.asarray(sample_idx) == 0] = False
            return x, conv

        def ladder(*args, **kwargs):
            x, conv = real_ladder(*args, **kwargs)
            return x, np.zeros_like(conv)

        monkeypatch.setattr(transient, "newton_solve_batch", newton)
        monkeypatch.setattr(transient, "gmin_ladder_batch", ladder)
        with pytest.raises(ConvergenceError,
                           match=r"row 0 of 2 at t = 1\.25e-12 s") as info:
            run_transient_batch([rc_circuit(1e3), rc_circuit(2e3)], 6e-9,
                                20e-12, adaptive=True)
        # 20 ps halved four times reaches the dt/16 floor
        assert info.value.time == 20e-12 / 16

    def test_fixed_grid_failure_propagates(self, monkeypatch):
        from repro.spice.errors import ConvergenceError

        self._fail_row_zero_once(monkeypatch, at_call=20)
        with pytest.raises(ConvergenceError):
            run_transient_batch([rc_circuit(1e3), rc_circuit(2e3)], 6e-9,
                                20e-12)


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
        """w_out and d_p of each path of a three-path population equal,
        bit for bit, the path measured alone as a population of one."""
        from repro.montecarlo import sample_population

        samples = sample_population(3, base_seed=5)
        paths = [build_instance(sample=s) for s in samples]
        w_alone = [measure_output_pulse(p, W_IN, adaptive=True)[0]
                   for p in paths]
        w_batch, _ = measure_output_pulse_batch(paths, W_IN,
                                                adaptive=True)
        assert w_batch == w_alone

        d_alone = [measure_path_delay(p, adaptive=True)[0]
                   for p in paths]
        d_batch, _ = measure_path_delay_batch(paths, adaptive=True)
        assert d_batch == d_alone
