"""Transient analysis against closed-form RC/RL-style responses."""

import numpy as np
import pytest

from repro.spice import (Circuit, MosfetParams, Pulse, Pwl, run_transient,
                         BACKWARD_EULER, TRAPEZOIDAL)
from repro.spice.errors import AnalysisError


def rc_circuit(r=1e3, c=1e-9):
    circuit = Circuit("rc")
    circuit.add_vsource(
        "V1", "in", "0", Pulse(0.0, 1.0, delay=0.0, rise=1e-12, width=1.0))
    circuit.add_resistor("R1", "in", "out", r)
    circuit.add_capacitor("C1", "out", "0", c)
    return circuit


class TestRcStep:
    def test_value_at_one_tau(self):
        wf = run_transient(rc_circuit(), 5e-6, 1e-8)
        assert wf.value_at("out", 1e-6) == pytest.approx(
            1 - np.exp(-1), abs=0.01)

    def test_value_at_three_tau(self):
        wf = run_transient(rc_circuit(), 5e-6, 1e-8)
        assert wf.value_at("out", 3e-6) == pytest.approx(
            1 - np.exp(-3), abs=0.01)

    def test_backward_euler_close_to_trap(self):
        wf_be = run_transient(rc_circuit(), 3e-6, 5e-9,
                              method=BACKWARD_EULER)
        wf_tr = run_transient(rc_circuit(), 3e-6, 5e-9,
                              method=TRAPEZOIDAL)
        assert wf_be.value_at("out", 1e-6) == pytest.approx(
            wf_tr.value_at("out", 1e-6), abs=0.01)

    def test_starts_from_dc_solution(self):
        wf = run_transient(rc_circuit(), 1e-6, 1e-8)
        assert wf["out"][0] == pytest.approx(0.0, abs=1e-6)

    def test_trapezoidal_converges_second_order(self):
        """Halving dt shrinks trapezoidal error ~4x (ramp input whose
        corners land exactly on both step grids, so only the integrator
        error remains)."""
        tau, ramp = 1e-6, 2e-7

        def exact(t):
            v_ramp_end = (ramp - tau * (1 - np.exp(-ramp / tau))) / ramp
            return 1 + (v_ramp_end - 1) * np.exp(-(t - ramp) / tau)

        errors = []
        for dt in (4e-8, 2e-8):
            c = Circuit("rc-ramp")
            c.add_vsource("V1", "in", "0", Pwl([(0, 0), (ramp, 1.0)]))
            c.add_resistor("R1", "in", "out", 1e3)
            c.add_capacitor("C1", "out", "0", 1e-9)
            wf = run_transient(c, 2e-6, dt)
            errors.append(abs(wf.value_at("out", 1.2e-6) - exact(1.2e-6)))
        if errors[1] > 1e-12:
            assert errors[0] / errors[1] > 2.5


class TestRcDischargeAndDividers:
    def test_cap_divider_ac_coupling(self):
        """Two series caps divide a fast step by the capacitance ratio."""
        c = Circuit()
        c.add_vsource("V1", "in", "0",
                      Pulse(0.0, 2.0, delay=1e-9, rise=1e-11, width=1.0))
        c.add_capacitor("C1", "in", "mid", 1e-12)
        c.add_capacitor("C2", "mid", "0", 3e-12)
        wf = run_transient(c, 4e-9, 1e-12)
        assert wf.value_at("mid", 2e-9) == pytest.approx(0.5, abs=0.05)

    def test_pwl_driven_ramp(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", Pwl([(0, 0), (1e-6, 1.0)]))
        c.add_resistor("R1", "in", "out", 1.0)  # negligible
        c.add_capacitor("C1", "out", "0", 1e-15)
        wf = run_transient(c, 1e-6, 1e-8)
        assert wf.value_at("in", 0.5e-6) == pytest.approx(0.5, abs=0.01)


class TestArguments:
    def test_rejects_bad_tstop(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), -1.0, 1e-9)

    def test_rejects_bad_dt(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-6, 0.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-6, 1e-9, method="gear2")

    def test_record_subset(self):
        wf = run_transient(rc_circuit(), 1e-7, 1e-9, record=["out"])
        assert wf.nodes() == ["out"]

    def test_rejects_wrong_x0_shape(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-7, 1e-9, x0=np.zeros(99))


class TestStepCountCoversTstop:
    """Regression: ``int(round(tstop / dt))`` clipped the grid short of
    ``tstop`` for non-commensurate ratios (tstop/dt = 100.4 rounded to
    100 steps, losing the last 4 ns of a 1.004 us window — and with it
    the tail of any output pulse)."""

    def test_scalar_grid_reaches_tstop(self):
        tstop, dt = 1.004e-6, 1e-8
        wf = run_transient(rc_circuit(), tstop, dt)
        assert wf.t[-1] >= tstop * (1 - 1e-12)

    def test_batch_grid_reaches_tstop(self):
        from repro.spice import run_transient_batch

        tstop, dt = 1.004e-6, 1e-8
        wfs = run_transient_batch([rc_circuit()], tstop, dt)
        assert wfs[0].t[-1] >= tstop * (1 - 1e-12)

    def test_commensurate_grid_unchanged(self):
        """Exact-integer ratios keep the historical grid (no extra
        step from ceiling float dust)."""
        wf = run_transient(rc_circuit(), 1e-6, 1e-8)
        assert len(wf.t) == 101
        assert wf.t[-1] == pytest.approx(1e-6, rel=1e-12)

    def test_tail_pulse_not_clipped(self):
        """A pulse ending right at tstop keeps its falling edge."""
        c = Circuit()
        c.add_vsource("V1", "in", "0",
                      Pulse(0.0, 1.0, delay=0.4e-6, rise=1e-9,
                            width=0.55e-6, fall=1e-9))
        c.add_resistor("R1", "in", "out", 1.0)
        c.add_capacitor("C1", "out", "0", 1e-15)
        wf = run_transient(c, 1.004e-6, 1e-8)
        # the grid must still see the ~0.96us falling edge region
        assert wf.value_at("in", 1.004e-6) < 1.0


class TestInverterTransient:
    @pytest.fixture()
    def inverter(self):
        c = Circuit()
        pn = MosfetParams(kp=120e-6, vt=0.5, lam=0.05, cgs=2e-15,
                          cgd=1e-15, cdb=2e-15)
        pp = MosfetParams(kp=40e-6, vt=0.55, lam=0.05, cgs=5e-15,
                          cgd=2e-15, cdb=4e-15)
        c.add_vsource("VDD", "vdd", "0", 2.5)
        c.add_vsource("VIN", "a", "0",
                      Pulse(0.0, 2.5, delay=0.2e-9, rise=5e-11,
                            width=1.2e-9, fall=5e-11))
        c.add_nmos("MN", "y", "a", "0", "0", 1e-6, 0.25e-6, pn)
        c.add_pmos("MP", "y", "a", "vdd", "vdd", 2.5e-6, 0.25e-6, pp)
        c.add_capacitor("CL", "y", "0", 20e-15)
        return c

    def test_output_inverts_input(self, inverter):
        wf = run_transient(inverter, 3e-9, 4e-12)
        assert wf.value_at("y", 0.1e-9) > 2.3   # input low -> out high
        assert wf.value_at("y", 1.0e-9) < 0.2   # input high -> out low

    def test_finite_propagation_delay(self, inverter):
        wf = run_transient(inverter, 3e-9, 4e-12)
        d = wf.propagation_delay("a", "y", 1.25, in_direction="rise",
                                 out_direction="fall")
        assert d is not None
        assert 5e-12 < d < 300e-12

    def test_output_pulse_width_tracks_input(self, inverter):
        wf = run_transient(inverter, 3e-9, 4e-12)
        w_in = wf.widest_pulse("a", 1.25, polarity="high")
        w_out = wf.widest_pulse("y", 1.25, polarity="low")
        assert w_out == pytest.approx(w_in, rel=0.15)


class TestPopulationOfOne:
    """A one-circuit population runs the scalar Newton: the scalar
    reuse counters, no lockstep per-sample rows, and exactly the
    waveform of :func:`run_transient`."""

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_matches_scalar_run(self, adaptive):
        from repro.runtime import stats_scope
        from repro.spice import run_transient_batch

        reference = run_transient(rc_circuit(), 1e-7, 1e-9,
                                  adaptive=adaptive)
        with stats_scope() as stats:
            (wf,) = run_transient_batch([rc_circuit()], 1e-7, 1e-9,
                                        adaptive=adaptive)
        assert stats.total("lu_reuses") > 0
        assert stats.samples == {}
        np.testing.assert_array_equal(wf.t, reference.t)
        assert wf.nodes() == reference.nodes()
        for node in reference.nodes():
            np.testing.assert_array_equal(wf[node], reference[node])

    def test_x0_is_one_row(self):
        from repro.spice import run_transient_batch

        reference = run_transient(rc_circuit(), 1e-7, 1e-9, x0=np.zeros(3))
        (wf,) = run_transient_batch([rc_circuit()], 1e-7, 1e-9,
                                    x0=np.zeros((1, 3)))
        np.testing.assert_array_equal(wf["out"], reference["out"])
        with pytest.raises(AnalysisError):
            run_transient_batch([rc_circuit()], 1e-7, 1e-9, x0=np.zeros(3))
