"""Factorization-reuse solver: equivalence, counters and fallbacks.

The scalar ``reuse`` solver must be a pure performance optimisation:
every waveform it produces has to match the ``exact``
per-iteration-refactor reference within the engine equivalence
tolerance, and when anything goes wrong (singular refactor, stalled
reuse iteration) it must fall back to the exact path rather than
degrade the result.  A lockstep population runs exact Newton only.
"""

import numpy as np
import pytest

from repro.cells import build_path
from repro.montecarlo import sample_population
from repro.core.pulse import build_instance
from repro.runtime import SolverStats, stats_scope
from repro.spice import run_transient, run_transient_batch
from repro.spice.batch import BatchCompiledCircuit
from repro.spice.errors import ConvergenceError
from repro.spice.mna import (_COMPANION_CACHE_MAX, CompiledCircuit,
                             NewtonState, newton_solve)
from repro.spice.transient import TRAPEZOIDAL

DT = 4e-12
TSTOP = 1.2e-9


def _inverter_chain(n_gates=3, w_in=0.15e-9):
    path = build_path(gate_kinds=("inv",) * n_gates)
    path.set_input_pulse(w_in)
    return path


class TestSolverArgument:
    def test_default_is_reuse(self):
        stats = SolverStats()
        with stats_scope(stats):
            run_transient(_inverter_chain().circuit, TSTOP, DT)
            run_transient_batch([_inverter_chain().circuit], TSTOP, DT)
        assert stats.snapshot()["counters"]["lu_reuses"] > 0

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            run_transient(_inverter_chain().circuit, TSTOP, DT,
                          solver="bogus")


class TestScalarEquivalence:
    def test_fixed_grid_waveform_matches_exact(self):
        path = _inverter_chain()
        exact = run_transient(path.circuit, TSTOP, DT, solver="exact")
        path2 = _inverter_chain()
        reuse = run_transient(path2.circuit, TSTOP, DT, solver="reuse")
        assert np.array_equal(exact.t, reuse.t)
        worst = max(np.abs(exact[n] - reuse[n]).max()
                    for n in exact.signals)
        assert worst <= 1e-6

    def test_adaptive_measurements_match_exact(self):
        """Adaptive grids drift at float level between solver modes, so
        the equivalence contract is on the measurements."""
        from repro.core.pulse import (DEFAULT_DT, output_pulse_polarity,
                                      simulation_window)

        def w_out(solver):
            path = _inverter_chain()
            delay = path.set_input_pulse(0.15e-9)
            tstop = simulation_window(path, w_in=0.15e-9,
                                      stimulus_delay=delay)
            wf = run_transient(path.circuit, tstop, DEFAULT_DT,
                               adaptive=True, solver=solver)
            return wf.widest_pulse(path.output_node, path.tech.vdd_half,
                                   output_pulse_polarity(path))

        assert abs(w_out("exact") - w_out("reuse")) <= 0.1e-12

    def test_counters_show_reuse_and_bypass(self):
        path = _inverter_chain()
        stats = SolverStats()
        with stats_scope(stats):
            run_transient(path.circuit, TSTOP, DT, solver="reuse")
        snap = stats.snapshot()["counters"]
        assert snap["lu_factorizations"] >= 1
        assert snap["lu_reuses"] > snap["lu_factorizations"]
        assert snap["devices_bypassed"] > 0
        assert snap["bypass_forced_exact"] > 0

    def test_exact_mode_never_touches_reuse_counters(self):
        path = _inverter_chain()
        stats = SolverStats()
        with stats_scope(stats):
            run_transient(path.circuit, TSTOP, DT, solver="exact")
        snap = stats.snapshot()["counters"]
        assert snap["lu_factorizations"] == 0
        assert snap["lu_reuses"] == 0
        assert snap["devices_bypassed"] == 0
        assert snap["bypass_forced_exact"] == 0


class TestBatchEquivalence:
    def _population(self, n=4):
        samples = sample_population(n, base_seed=7)
        paths = [build_instance(sample=s, gate_kinds=("inv",) * 3)
                 for s in samples]
        for p in paths:
            p.set_input_pulse(0.15e-9)
        return paths

    def test_batch_matches_scalar_exact(self):
        """Lockstep runs exact Newton, so it matches the scalar exact
        reference far inside the 1e-6 V engine bound."""
        paths = self._population()
        batch_wfs = run_transient_batch([p.circuit for p in paths],
                                        TSTOP, DT)
        for path, bwf in zip(self._population(), batch_wfs):
            swf = run_transient(path.circuit, TSTOP, DT, solver="exact")
            assert np.array_equal(swf.t, bwf.t)
            worst = max(np.abs(swf[n] - bwf[n]).max()
                        for n in swf.signals)
            assert worst <= 1e-9

    def test_lockstep_never_touches_reuse_counters(self):
        circuits = [p.circuit for p in self._population(2)]
        stats = SolverStats()
        with stats_scope(stats):
            run_transient_batch(circuits, TSTOP, DT)
        snap = stats.snapshot()["counters"]
        assert snap["newton_iterations"] > 0
        assert snap["lu_factorizations"] == 0
        assert snap["lu_reuses"] == 0
        assert snap["devices_bypassed"] == 0


class TestCompanionBaseCache:
    def test_identity_is_stable(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        a1 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        a2 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        assert a1 is a2

    def test_distinct_keys_distinct_matrices(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        a1 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        a2 = compiled.companion_base(TRAPEZOIDAL, 2.0)
        assert a1 is not a2
        assert not np.array_equal(a1, a2)

    def test_cached_matrix_is_read_only(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        a1 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        with pytest.raises(ValueError):
            a1[0, 0] = 123.0

    def test_lru_eviction_bounds_cache(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        first = compiled.companion_base(TRAPEZOIDAL, 1.0)
        for i in range(_COMPANION_CACHE_MAX):
            compiled.companion_base(TRAPEZOIDAL, 2.0 + i)
        assert len(compiled._companion_cache) <= _COMPANION_CACHE_MAX
        # the first entry was the oldest: it has been evicted, so a
        # fresh request rebuilds a distinct object
        assert compiled.companion_base(TRAPEZOIDAL, 1.0) is not first

    def test_batch_identity_is_stable(self):
        paths = [_inverter_chain(), _inverter_chain()]
        batch = BatchCompiledCircuit([p.circuit for p in paths])
        a1 = batch.companion_base(TRAPEZOIDAL, 1.0)
        assert batch.companion_base(TRAPEZOIDAL, 1.0) is a1


class TestFallbacks:
    def test_reuse_falls_back_on_singular_system(self):
        """Two ideal sources fighting on one node is singular for the
        reuse path too; newton_solve must still raise cleanly."""
        from repro.spice import Circuit
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_vsource("V2", "a", "0", 2.0)
        compiled = CompiledCircuit(c)
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(0.0, rhs)
        state = NewtonState()
        with pytest.raises((ConvergenceError, np.linalg.LinAlgError)):
            newton_solve(compiled, compiled.a_static, rhs,
                         np.zeros(compiled.n), state=state)
        # the state must not retain a factorization of the bad matrix
        assert state.lu is None

    def test_reuse_solves_linear_system_exactly(self):
        from repro.spice import Circuit
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_resistor("R2", "b", "0", 1e3)
        compiled = CompiledCircuit(c)
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(0.0, rhs)
        x = newton_solve(compiled, compiled.a_static, rhs,
                         np.zeros(compiled.n), state=NewtonState())
        assert x[compiled.index_of("b")] == pytest.approx(0.5, abs=1e-9)
