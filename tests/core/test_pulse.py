"""Measurement-primitive tests (electrical; kept coarse and few)."""

import math

import pytest

from repro.core import (build_instance, measure_output_pulse,
                        measure_path_delay, output_pulse_polarity,
                        simulation_window)
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


class TestNewtonPolicy:
    def test_environment_cannot_select_the_solver(self, monkeypatch):
        """Only repro.spice decides the Newton policy.  A worker whose
        environment asked for the exact solver used to run it, while the
        transfer-scatter and defect-calibration cache keys, which carry
        no solver token, filed its slightly different w_out under the
        reuse rows' key."""
        from repro.runtime import stats_scope

        w_default, _ = measure_output_pulse(build_instance(), 0.43e-9,
                                            dt=5e-12)
        monkeypatch.setenv("REPRO_SOLVER", "exact")
        with stats_scope() as stats:
            w_env, _ = measure_output_pulse(build_instance(), 0.43e-9,
                                            dt=5e-12)
        assert stats.total("lu_reuses") > 0
        assert w_env == w_default
