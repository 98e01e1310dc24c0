"""Scalar-vs-batched engine equivalence and batch-lowering contracts.

The scalar transient engine is the reference implementation; the
lockstep engine must reproduce its waveforms within 1e-6 V on real
workloads.  These tests pin that contract on the delay-line bench
(fault-free population and a fault-resistance sweep) and check the
batched measurement helpers and Newton accounting.
"""

import math

import numpy as np
import pytest

from repro.core.pulse import (build_instance, measure_output_pulse,
                              measure_output_pulse_batch,
                              measure_path_delay, measure_path_delay_batch,
                              simulation_window)
from repro.faults import ExternalOpen, inject, set_fault_resistance
from repro.montecarlo import sample_population
from repro.runtime import stats_scope
from repro.spice import (BatchCompiledCircuit, Circuit, run_transient,
                         run_transient_batch)
from repro.spice.errors import NetlistError

DT = 6e-12
W_IN = 0.40e-9


def _pulse_window(paths):
    delays = [path.set_input_pulse(W_IN, kind="h") for path in paths]
    return max(simulation_window(path, w_in=W_IN, stimulus_delay=delay)
               for path, delay in zip(paths, delays))


def _assert_waveforms_match(paths, tstop, tol=1e-6):
    """Batched waveforms match per-sample scalar runs within ``tol``."""
    record = [paths[0].input_node, paths[0].output_node]
    batched = run_transient_batch([p.circuit for p in paths], tstop, DT,
                                  record=record)
    worst = 0.0
    for path, wf_b in zip(paths, batched):
        wf_s = run_transient(path.circuit, tstop, DT, record=record)
        np.testing.assert_allclose(wf_b.t, wf_s.t)
        for node in record:
            worst = max(worst, np.abs(wf_b[node] - wf_s[node]).max())
    assert worst < tol, worst
    return worst


class TestWaveformEquivalence:
    def test_seeded_population_matches_scalar(self):
        """8-sample seeded population: lockstep == per-sample scalar."""
        samples = sample_population(8, base_seed=1)
        paths = [build_instance(sample=s) for s in samples]
        _assert_waveforms_match(paths, _pulse_window(paths))

    def test_fault_resistance_sweep_matches_scalar(self):
        """Delay line with an external open across resistances: the
        batch axis is the R sweep (identical topology, varying R)."""
        paths = []
        for r in (2e3, 8e3, 32e3):
            base = build_instance()
            paths.append(inject(base, ExternalOpen(2, r)))
        _assert_waveforms_match(paths, _pulse_window(paths))

    def test_singleton_batch_matches_scalar(self):
        paths = [build_instance()]
        _assert_waveforms_match(paths, _pulse_window(paths))


class TestBatchedMeasurements:
    def test_output_pulse_agrees(self):
        samples = sample_population(4, base_seed=3)
        paths = [build_instance(sample=s) for s in samples]
        w_batch, _ = measure_output_pulse_batch(paths, W_IN, dt=DT)
        for path, w_b in zip(paths, w_batch):
            w_s, _ = measure_output_pulse(path, W_IN, dt=DT)
            assert w_b == pytest.approx(w_s, abs=1e-12)

    def test_path_delay_agrees(self):
        samples = sample_population(4, base_seed=3)
        paths = [build_instance(sample=s) for s in samples]
        d_batch, _ = measure_path_delay_batch(paths, dt=DT)
        for path, d_b in zip(paths, d_batch):
            d_s, _ = measure_path_delay(path, dt=DT)
            assert d_b == pytest.approx(d_s, abs=1e-12)
        assert all(math.isfinite(d) for d in d_batch)


class TestNewtonAccounting:
    def test_stats_accumulate_per_sample(self):
        """Batch mode books one solve per sample per Newton call and at
        least one iteration per still-active sample."""
        samples = sample_population(4, base_seed=5)
        paths = [build_instance(sample=s) for s in samples]
        tstop = _pulse_window(paths)
        with stats_scope() as stats:
            run_transient_batch([p.circuit for p in paths], tstop, DT,
                                record=[paths[0].output_node])
        solves = stats.total("newton_solves")
        iterations = stats.total("newton_iterations")
        n_steps = int(round(tstop / DT))
        # >= one batched Newton call (S solves) per time step + DC init
        assert solves >= len(paths) * n_steps
        assert iterations >= solves


class TestBatchLowering:
    def test_topology_mismatch_rejected(self):
        a = Circuit()
        a.add_vsource("V1", "in", "0", 1.0)
        a.add_resistor("R1", "in", "out", 1e3)
        a.add_capacitor("C1", "out", "0", 1e-15)
        b = Circuit()
        b.add_vsource("V1", "in", "0", 1.0)
        b.add_resistor("R1", "in", "out", 1e3)
        b.add_capacitor("C1", "out", "0", 1e-15)
        b.add_capacitor("C2", "in", "0", 1e-15)
        with pytest.raises(NetlistError):
            BatchCompiledCircuit([a, b])

    def test_empty_batch_rejected(self):
        with pytest.raises(NetlistError):
            BatchCompiledCircuit([])

    def test_x0_shape_validated(self):
        paths = [build_instance(), build_instance()]
        tstop = _pulse_window(paths)
        with pytest.raises(Exception):
            run_transient_batch([p.circuit for p in paths], tstop, DT,
                                x0=np.zeros(3))

    def test_batch_transient_tracks_mutation(self):
        """Every run_transient_batch call lowers the circuits afresh, so
        in-place resistance edits between calls (how sweeps step R) take
        effect."""
        paths = [inject(build_instance(), ExternalOpen(2, 2e3))
                 for _ in range(2)]
        tstop = _pulse_window(paths)
        circuits = [p.circuit for p in paths]
        record = [paths[0].output_node]
        wf_lo = run_transient_batch(circuits, tstop, DT, record=record)
        for path in paths:
            set_fault_resistance(path, 40e3)
        wf_hi = run_transient_batch(circuits, tstop, DT, record=record)
        node = paths[0].output_node
        assert np.abs(wf_lo[0][node] - wf_hi[0][node]).max() > 0.1
