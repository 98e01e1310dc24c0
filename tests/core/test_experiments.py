"""Experiment-driver unit tests (config plumbing and the cheap parts;
the heavy sweeps are exercised by tests/integration and benchmarks)."""

import numpy as np
import pytest

from repro.core import ExperimentConfig, run_waveform_experiment
from repro.core.experiments import _pick_fault_site


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n_samples == 16
        assert len(config.rop_resistances) == 10
        assert config.fault_stage == 2
        assert config.batch_size == 1

    def test_fast_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        config = ExperimentConfig.from_env()
        assert config.n_samples == 5
        assert config.dt == pytest.approx(4e-12)

    def test_env_overrides_beat_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        config = ExperimentConfig.from_env(n_samples=9)
        assert config.n_samples == 9

    def test_no_fast_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        config = ExperimentConfig.from_env()
        assert config.n_samples == 16

    def test_non_positive_batch_size_rejected(self):
        for batch_size in (0, -1):
            with pytest.raises(ValueError, match="batch_size"):
                ExperimentConfig(batch_size=batch_size)

    def test_samples_deterministic(self):
        config = ExperimentConfig(n_samples=3, seed=5)
        a = config.samples()
        b = config.samples()
        assert [s.seed for s in a] == [s.seed for s in b]

    def test_resistance_grids_sorted(self):
        config = ExperimentConfig()
        assert config.rop_resistances == sorted(config.rop_resistances)
        assert config.bridging_resistances == sorted(
            config.bridging_resistances)


class TestWaveformExperimentDriver:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            run_waveform_experiment("cosmic_ray", 1e3)

    def test_result_structure(self):
        config = ExperimentConfig(dt=6e-12)
        exp = run_waveform_experiment("internal_rop", 8e3, config=config)
        assert exp.nodes[0] == "a0"
        assert exp.nodes[-1] == "a7"
        assert exp.w_in == pytest.approx(0.40e-9)
        # both waveforms cover the same nodes
        for node in exp.nodes:
            assert node in exp.fault_free
            assert node in exp.faulty


class TestFaultSitePicker:
    def test_picks_gate_output_with_paths(self):
        from repro.logic import generate_c432_like, paths_through
        netlist = generate_c432_like()
        net = _pick_fault_site(netlist)
        assert netlist.gate_driving(net) is not None
        assert len(paths_through(netlist, net, max_paths=4)) >= 4

    def test_deterministic(self):
        from repro.logic import generate_c432_like
        assert (_pick_fault_site(generate_c432_like())
                == _pick_fault_site(generate_c432_like()))
