"""Solver robustness and failure-path tests."""

import numpy as np
import pytest

from repro.spice import Circuit, MosfetParams, Pulse, run_transient
from repro.spice.errors import ConvergenceError
from repro.spice.mna import (CompiledCircuit, gmin_continuation_solve,
                             newton_solve)
from repro.spice.dcop import solve_dc


class TestNewtonEdgeCases:
    def test_singular_system_raises(self):
        """Two ideal sources fighting on one node -> singular matrix."""
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_vsource("V2", "a", "0", 2.0)
        compiled = CompiledCircuit(c)
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(0.0, rhs)
        with pytest.raises((ConvergenceError, np.linalg.LinAlgError)):
            newton_solve(compiled, compiled.a_static, rhs,
                         np.zeros(compiled.n))

    def test_iteration_limit_raises(self):
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_resistor("R2", "b", "0", 1e3)
        compiled = CompiledCircuit(c)
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(0.0, rhs)
        # an absurd damping value forces tiny steps -> iteration cap
        with pytest.raises(ConvergenceError):
            newton_solve(compiled, compiled.a_static, rhs,
                         np.zeros(compiled.n) + 100.0, damping=1e-9,
                         max_iter=5)

    def test_error_carries_context(self):
        err = ConvergenceError("x", iterations=7, residual=0.5, time=1e-9)
        assert err.iterations == 7
        assert err.residual == 0.5
        assert err.time == 1e-9

    def test_failure_reports_undamped_step(self):
        """The error's residual is the true pre-damping Newton step.

        The damped value used to be reported instead, which made every
        diverging solve look like it stopped exactly at the damping
        clamp — useless for trace consumers sizing the divergence.
        """
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_resistor("R2", "b", "0", 1e3)
        compiled = CompiledCircuit(c)
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(0.0, rhs)
        with pytest.raises(ConvergenceError) as info:
            newton_solve(compiled, compiled.a_static, rhs,
                         np.zeros(compiled.n) + 100.0, damping=1e-9,
                         max_iter=5)
        # starting 100 V from the (linear) solution with a 1e-9 clamp,
        # the raw Newton step stays ~100 V — that is what must surface
        assert info.value.residual > 50.0
        assert info.value.iterations == 5

    def test_zero_iteration_budget_reports_cleanly(self):
        """max_iter=0 never enters the loop; the failure must still
        carry a well-defined residual instead of crashing."""
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "0", 1e3)
        compiled = CompiledCircuit(c)
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(0.0, rhs)
        with pytest.raises(ConvergenceError) as info:
            newton_solve(compiled, compiled.a_static, rhs,
                         np.zeros(compiled.n), max_iter=0)
        assert info.value.residual == 0.0


class TestGminStepping:
    def test_back_to_back_inverters_converge(self):
        """A bistable latch has three DC solutions; gmin-stepped Newton
        must settle on one without diverging."""
        c = Circuit()
        pn = MosfetParams(kp=120e-6, vt=0.5, lam=0.06)
        pp = MosfetParams(kp=40e-6, vt=0.55, lam=0.08)
        c.add_vsource("VDD", "vdd", "0", 2.5)
        for name, a, y in (("u1", "q", "qb"), ("u2", "qb", "q")):
            c.add_nmos(name + "n", y, a, "0", "0", 1e-6, 0.25e-6, pn)
            c.add_pmos(name + "p", y, a, "vdd", "vdd", 2.5e-6,
                       0.25e-6, pp)
        compiled = CompiledCircuit(c)
        x = solve_dc(compiled)
        assert np.all(np.isfinite(x))
        assert np.abs(x[:compiled.n_nodes]).max() <= 2.6

    def test_large_stack_converges(self):
        """A 12-high series NMOS stack stresses the continuation path."""
        c = Circuit()
        p = MosfetParams(kp=120e-6, vt=0.5, lam=0.06)
        c.add_vsource("VDD", "vdd", "0", 2.5)
        c.add_vsource("VG", "g", "0", 2.5)
        c.add_resistor("RL", "vdd", "n0", 5e3)
        for i in range(12):
            c.add_nmos("M{}".format(i), "n{}".format(i), "g",
                       "n{}".format(i + 1) if i < 11 else "0", "0",
                       1e-6, 0.25e-6, p)
        from repro.spice import operating_point
        op = operating_point(c)
        # the stack conducts (n0 pulled visibly below the rail) and the
        # node voltages decrease monotonically toward ground
        assert op["n0"] < 2.4
        chain = [op["n{}".format(i)] for i in range(12)]
        assert all(a > b for a, b in zip(chain, chain[1:]))


class TestGminContinuationRetry:
    """The transient retry ladder must survive failing rungs.

    Historically the per-step retry made exactly one heavier-gmin
    attempt, so a *second* failure aborted the whole transient.  The
    ladder now skips failed rungs and only the final target-gmin solve
    may propagate.
    """

    @staticmethod
    def _divider():
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_resistor("R2", "b", "0", 1e3)
        compiled = CompiledCircuit(c)
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(0.0, rhs)
        return compiled, rhs

    def test_ladder_skips_failing_rungs(self, monkeypatch):
        """Every rung heavier than 1e-10 fails; the ladder must still
        reach the target instead of aborting on the second failure."""
        import repro.spice.mna as mna

        real = newton_solve
        attempts = []

        def flaky(compiled, a_base, rhs_base, x0, gmin=1e-12, **kwargs):
            attempts.append(gmin)
            if gmin > 1e-10:
                raise ConvergenceError("forced rung failure")
            return real(compiled, a_base, rhs_base, x0, gmin=gmin,
                        **kwargs)

        monkeypatch.setattr(mna, "newton_solve", flaky)
        compiled, rhs = self._divider()
        x = gmin_continuation_solve(compiled, compiled.a_static, rhs,
                                    np.zeros(compiled.n))
        assert x[compiled.index_of("b")] == pytest.approx(0.5, abs=1e-6)
        # more than two rungs were attempted before one succeeded
        assert sum(1 for g in attempts if g > 1e-10) >= 2

    def test_final_rung_failure_propagates(self, monkeypatch):
        import repro.spice.mna as mna

        def hopeless(*args, **kwargs):
            raise ConvergenceError("never converges")

        monkeypatch.setattr(mna, "newton_solve", hopeless)
        compiled, rhs = self._divider()
        with pytest.raises(ConvergenceError):
            gmin_continuation_solve(compiled, compiled.a_static, rhs,
                                    np.zeros(compiled.n))

    def test_transient_survives_double_failure_at_switching_instant(
            self, monkeypatch):
        """A hard switching instant where plain Newton fails *and* the
        ladder's first rungs fail must not abort run_transient."""
        import repro.spice.batch as batch_module
        import repro.spice.transient as transient

        c = Circuit()
        pn = MosfetParams(kp=120e-6, vt=0.5, lam=0.06, cgs=2e-15)
        pp = MosfetParams(kp=40e-6, vt=0.55, lam=0.08, cgs=5e-15)
        c.add_vsource("VDD", "vdd", "0", 2.5)
        c.add_vsource("VIN", "a", "0",
                      Pulse(0, 2.5, delay=50e-12, rise=2e-12, width=1.0))
        c.add_nmos("MN", "y", "a", "0", "0", 1e-6, 0.25e-6, pn)
        c.add_pmos("MP", "y", "a", "vdd", "vdd", 2.5e-6, 0.25e-6, pp)
        c.add_capacitor("CL", "y", "0", 20e-15)

        reference = run_transient(c, 0.3e-9, 2e-12, record=["y"])

        real = batch_module.newton_solve_batch
        forced = {"direct": 0, "rungs": 0}

        def fail_mid_edge(batch, a_base, rhs_base, x0, *args, **kwargs):
            # the direct per-step solve fails once, on the first step of
            # the input edge (VIN's branch row of the rhs holds its value)
            vin = batch.n_nodes + [
                s.name for s in batch.template.vsources].index("VIN")
            x, conv = real(batch, a_base, rhs_base, x0, *args, **kwargs)
            if forced["direct"] == 0 and rhs_base[0, vin] > 0.0:
                forced["direct"] += 1
                conv[:] = False
            return x, conv

        def fail_heavy_rungs(batch, a_base, rhs_base, x0, sample_idx=None,
                             gmin=1e-12, **kwargs):
            # the retry ladder's heavy rungs fail too (the old "second
            # failure" that aborted the run)
            x, conv = real(batch, a_base, rhs_base, x0,
                           sample_idx=sample_idx, gmin=gmin, **kwargs)
            if gmin > 1e-6:
                forced["rungs"] += 1
                conv[:] = False
            return x, conv

        monkeypatch.setattr(transient, "newton_solve_batch", fail_mid_edge)
        monkeypatch.setattr(batch_module, "newton_solve_batch",
                            fail_heavy_rungs)
        wf = run_transient(c, 0.3e-9, 2e-12, record=["y"])
        assert forced["direct"] == 1
        assert forced["rungs"] >= 2
        assert np.abs(wf["y"] - reference["y"]).max() < 1e-4


class TestTransientRobustness:
    def test_fast_edge_into_stiff_load(self):
        """A 1 ps edge into a tiny RC must not blow up the integrator."""
        c = Circuit()
        c.add_vsource("V1", "in", "0",
                      Pulse(0, 2.5, delay=50e-12, rise=1e-12, width=1.0))
        c.add_resistor("R1", "in", "out", 10.0)
        c.add_capacitor("C1", "out", "0", 1e-16)
        wf = run_transient(c, 0.5e-9, 2e-12)
        assert np.all(np.isfinite(wf["out"]))
        assert wf.value_at("out", 0.4e-9) == pytest.approx(2.5, abs=0.05)

    def test_long_idle_window_stays_quiet(self):
        """No spurious drift on a quiescent CMOS stage over 20 ns."""
        c = Circuit()
        pn = MosfetParams(kp=120e-6, vt=0.5, lam=0.06, cgs=2e-15,
                          cdb=2e-15)
        pp = MosfetParams(kp=40e-6, vt=0.55, lam=0.08, cgs=5e-15,
                          cdb=4e-15)
        c.add_vsource("VDD", "vdd", "0", 2.5)
        c.add_vsource("VIN", "a", "0", 0.0)
        c.add_nmos("MN", "y", "a", "0", "0", 1e-6, 0.25e-6, pn)
        c.add_pmos("MP", "y", "a", "vdd", "vdd", 2.5e-6, 0.25e-6, pp)
        c.add_capacitor("CL", "y", "0", 20e-15)
        wf = run_transient(c, 20e-9, 20e-12, record=["y"])
        assert wf["y"].min() > 2.4
        assert wf["y"].max() < 2.6
