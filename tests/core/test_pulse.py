"""Measurement-primitive tests (electrical; kept coarse and few)."""

import math

import pytest

from repro.core import (build_instance, measure_output_pulse,
                        measure_path_delay, output_pulse_polarity,
                        simulation_window)
from repro.core.pulse import measure_output_pulse_batch
from repro.faults import ExternalOpen, InternalOpen, PULL_UP
from repro.montecarlo import NominalModel, VariationModel

DT = 4e-12


class TestBuildInstance:
    def test_nominal_instance(self):
        path = build_instance()
        assert path.n_gates == 7

    def test_fault_injected(self):
        path = build_instance(fault=ExternalOpen(2, 8e3))
        assert "R_fault" in path.circuit

    def test_sample_perturbs_devices(self):
        nominal = build_instance(sample=NominalModel())
        varied = build_instance(sample=VariationModel(seed=3))
        mn_nom = nominal.circuit.element("g1.MN").params
        mn_var = varied.circuit.element("g1.MN").params
        assert mn_var.kp != pytest.approx(mn_nom.kp)

    def test_sample_is_reproducible(self):
        a = build_instance(sample=VariationModel(seed=3))
        b = build_instance(sample=VariationModel(seed=3))
        assert a.circuit.element("g4.MP").params.vt == pytest.approx(
            b.circuit.element("g4.MP").params.vt)

    def test_path_kwargs_forwarded(self):
        path = build_instance(gate_kinds=("inv", "inv", "inv"))
        assert path.n_gates == 3


class TestPolarity:
    def test_seven_inverters_h_pulse(self):
        path = build_instance()
        # input idles 0, output idles 1 -> output pulse goes low
        assert output_pulse_polarity(path, "h") == "low"

    def test_seven_inverters_l_pulse(self):
        path = build_instance()
        assert output_pulse_polarity(path, "l") == "high"

    def test_even_chain_h_pulse(self):
        path = build_instance(gate_kinds=("inv",) * 6,
                              side_fanout_stages=(2,))
        assert output_pulse_polarity(path, "h") == "high"


class TestSimulationWindow:
    def test_window_covers_all_terms(self):
        path = build_instance()
        w = simulation_window(path, w_in=0.4e-9, stimulus_delay=0.2e-9)
        assert w > 0.4e-9 + 0.2e-9 + path.n_gates * 0.3e-9


class TestMeasurements:
    def test_wide_pulse_measured(self):
        path = build_instance()
        w_out, wf = measure_output_pulse(path, 0.45e-9, dt=DT)
        assert w_out == pytest.approx(0.45e-9, rel=0.15)
        assert path.output_node in wf

    def test_narrow_pulse_dampened(self):
        path = build_instance()
        w_out, _ = measure_output_pulse(path, 0.15e-9, dt=DT)
        assert w_out == 0.0

    def test_record_all_keeps_internal_nodes(self):
        path = build_instance()
        _, wf = measure_output_pulse(path, 0.45e-9, dt=DT, record_all=True)
        assert "a3" in wf

    def test_delay_finite_and_sane(self):
        path = build_instance()
        d, _ = measure_path_delay(path, "rise", dt=DT)
        assert 0.3e-9 < d < 2.0e-9

    def test_delay_rise_fall_differ(self):
        path = build_instance()
        d_r, _ = measure_path_delay(path, "rise", dt=DT)
        d_f, _ = measure_path_delay(path, "fall", dt=DT)
        assert d_r != pytest.approx(d_f, rel=1e-3)

    def test_delay_increases_with_internal_open(self):
        healthy = build_instance()
        d0, _ = measure_path_delay(healthy, "rise", dt=DT)
        faulty = build_instance(fault=InternalOpen(2, PULL_UP, 8e3))
        d1, _ = measure_path_delay(faulty, "rise", dt=DT)
        assert d1 > d0 + 0.1e-9

    def test_delay_inf_when_output_stuck(self):
        # A gigantic internal open on both networks is approximated by a
        # pull-up open so large the rising edge never completes in window.
        faulty = build_instance(fault=InternalOpen(2, PULL_UP, 10e6))
        d, _ = measure_path_delay(faulty, "rise", dt=DT)
        assert math.isinf(d)


class TestPerPathWidths:
    def test_each_path_measured_at_its_own_width(self):
        samples = [VariationModel(seed) for seed in (1, 2, 3)]
        widths = [0.35e-9, 0.43e-9, 0.50e-9]
        w_outs, _ = measure_output_pulse_batch(
            [build_instance(sample=sample) for sample in samples], widths,
            dt=DT)
        for sample, w_in, w_out in zip(samples, widths, w_outs):
            alone, _ = measure_output_pulse(build_instance(sample=sample),
                                            w_in, dt=DT)
            assert w_out == pytest.approx(alone, abs=0.1e-12)

    def test_one_width_per_path(self):
        with pytest.raises(ValueError, match="one pulse width per path"):
            measure_output_pulse_batch([build_instance(), build_instance()],
                                       [0.40e-9], dt=DT)


class TestNewtonPolicy:
    def test_environment_cannot_select_the_solver(self, monkeypatch):
        """Only repro.spice decides the Newton policy.  A worker whose
        environment asked for the exact solver used to run it, while the
        transfer-scatter and defect-calibration cache keys, which carry
        no solver token, filed its slightly different w_out under the
        reuse rows' key.  A measurement runs the lockstep engine, one
        row on exact Newton, whatever the environment says."""
        from repro.runtime import stats_scope

        w_default, _ = measure_output_pulse(build_instance(), 0.43e-9,
                                            dt=5e-12)
        monkeypatch.setenv("REPRO_SOLVER", "reuse")
        with stats_scope() as stats:
            w_env, _ = measure_output_pulse(build_instance(), 0.43e-9,
                                            dt=5e-12)
        assert list(stats.samples) == [0]
        assert w_env == w_default


class TestPinnedMeasurements:
    """The nominal path's measurements at dt = 5 ps, pinned to 1e-15 s.

    Single-path measurements run as a lockstep population of one; how
    they are routed must not move the numbers the calibrations and
    sweeps are built from.
    """

    W_IN = 0.43e-9
    DT = 5e-12
    TOL = 1e-15

    @pytest.mark.parametrize("adaptive, expected", [
        (False, 4.3513358708702846e-10),
        (True, 4.3514708819583136e-10)])
    def test_output_pulse(self, adaptive, expected):
        w_out, _ = measure_output_pulse(build_instance(), self.W_IN,
                                        dt=self.DT, adaptive=adaptive)
        assert w_out == pytest.approx(expected, abs=self.TOL)

    @pytest.mark.parametrize("adaptive, expected", [
        (False, 7.741103632833714e-10),
        (True, 7.74170063863389e-10)])
    def test_path_delay(self, adaptive, expected):
        d, _ = measure_path_delay(build_instance(), "rise", dt=self.DT,
                                  adaptive=adaptive)
        assert d == pytest.approx(expected, abs=self.TOL)


class TestStackedChunk:
    """A chunk's samples x R points run as one lockstep population on
    either grid."""

    PATH = dict(gate_kinds=("inv",) * 3)
    R = [2e3, 8e3, 30e3]
    W_IN = 0.40e-9
    DT = 8e-12

    def _chunk(self, adaptive=False):
        from repro.core.coverage import build_sweep_payloads
        from repro.montecarlo import sample_population

        return build_sweep_payloads(
            sample_population(2, base_seed=3), ExternalOpen(2, 8e3),
            self.R, dt=self.DT, adaptive=adaptive, path_kwargs=self.PATH,
            measure="pulse", omega_in=self.W_IN, kind="h")

    def _instances(self, items):
        return [build_instance(sample=item["sample"],
                               fault=ExternalOpen(2, r), **self.PATH)
                for item in items for r in self.R]

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        """The chunk measured as one runtime task, with its trace."""
        from repro.core.pulse import run_measurements
        from repro.runtime import Runtime, read_trace

        spec, items = self._chunk()
        path = str(tmp_path_factory.mktemp("trace") / "t.jsonl")
        rows = run_measurements(spec, items, runtime=Runtime(trace=path),
                                batch_size=2, label="stacked")
        return items, rows, read_trace(path)

    def test_rows_equal_one_population(self, traced):
        items, rows, _ = traced
        w_outs, _ = measure_output_pulse_batch(self._instances(items),
                                               self.W_IN, dt=self.DT)
        assert rows == [[float(w) for w in w_outs[:3]],
                        [float(w) for w in w_outs[3:]]]

    def test_rows_match_scalar_measurements(self, traced):
        items, rows, _ = traced
        for got, path in zip([w for row in rows for w in row],
                             self._instances(items)):
            alone, _ = measure_output_pulse(path, self.W_IN, dt=self.DT)
            assert got == pytest.approx(alone, abs=1e-15)

    @pytest.mark.parametrize("adaptive, populations", [
        (False, [6]), (True, [6])])
    def test_transients_per_chunk(self, monkeypatch, adaptive,
                                  populations):
        from repro.core import pulse

        real, sizes = pulse.run_transient_batch, []

        def counting(circuits, *args, **kwargs):
            sizes.append(len(circuits))
            return real(circuits, *args, **kwargs)

        monkeypatch.setattr(pulse, "run_transient_batch", counting)
        spec, items = self._chunk(adaptive=adaptive)
        pulse._measure_chunk((spec,), [dict(item, **{pulse.MEASUREMENT: 0})
                                       for item in items])
        assert sizes == populations

    def test_item_counters_sum_to_chunk_totals(self, traced):
        """The lockstep ledger is keyed by population row; each row is
        booked to its item, so the items partition the chunk's
        effort."""
        _, _, events = traced
        tasks = [e for e in events if e["event"] == "task"]
        assert [t["chunk_size"] for t in tasks] == [2, 2]
        (totals,) = [t["chunk_stats"]["counters"] for t in tasks
                     if t["chunk_stats"] is not None]
        for name in ("newton_solves", "newton_iterations"):
            per_item = [t["stats"]["counters"][name] for t in tasks]
            assert all(count > 0 for count in per_item)
            assert sum(per_item) == totals[name]


class TestCompiledCircuitsHandedOver:
    """``_measure_rows`` compiles every row first, to group the rows by
    topology, then hands each population's circuits to its batch
    without keeping them: through the transient, only the batch's
    template stays alive (cycles aside, so the check runs with the
    cyclic collector off)."""

    def _alive_during_transients(self, monkeypatch, paths):
        import gc
        import weakref

        from repro.core import pulse
        from repro.spice import transient
        from repro.spice.mna import CompiledCircuit

        made = []

        class Tracked(CompiledCircuit):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        seen = []
        simulate = transient._simulate

        def watching(compiled, *args, **kwargs):
            seen.append([ref() is compiled.template if ref() is not None
                         else None for ref in made])
            return simulate(compiled, *args, **kwargs)

        monkeypatch.setattr(pulse, "CompiledCircuit", Tracked)
        monkeypatch.setattr(transient, "_simulate", watching)
        gc.disable()
        try:
            w_outs, _ = measure_output_pulse_batch(paths, 0.40e-9, dt=2e-11)
        finally:
            gc.enable()
        return seen, w_outs

    def test_one_population_keeps_only_its_template(self, monkeypatch):
        paths = [build_instance(sample=VariationModel(seed))
                 for seed in (1, 2, 3)]
        (alive,), w_outs = self._alive_during_transients(monkeypatch, paths)
        # the template and two dead circuits
        assert alive == [True, None, None]
        unwatched, _ = measure_output_pulse_batch(
            [build_instance(sample=VariationModel(seed))
             for seed in (1, 2, 3)], 0.40e-9, dt=2e-11)
        assert w_outs == unwatched

    def test_later_populations_wait_compiled(self, monkeypatch):
        fault = ExternalOpen(2, 8e3)
        paths = [build_instance(sample=VariationModel(1)),
                 build_instance(sample=VariationModel(1), fault=fault),
                 build_instance(sample=VariationModel(2)),
                 build_instance(sample=VariationModel(2), fault=fault)]
        seen, _ = self._alive_during_transients(monkeypatch, paths)
        # rows 0 and 2 run first, rows 1 and 3 wait; then the first
        # population is gone and rows 1 and 3 run
        assert seen == [[True, False, None, False],
                        [None, True, None, None]]
