"""Experiment-driver unit tests (config plumbing and the cheap parts;
the heavy sweeps are exercised by tests/integration and benchmarks)."""

import numpy as np
import pytest

from repro.core import (ExperimentConfig, build_instance,
                        characterize_transfer, default_w_in_grid,
                        measure_output_pulse, run_transfer_experiment,
                        run_waveform_experiment)
from repro.core.experiments import _pick_fault_site
from repro.core.pulse import measure_output_pulse_batch
from repro.montecarlo import NominalModel
from repro.runtime import read_trace, stats_scope


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n_samples == 16
        assert len(config.rop_resistances) == 10
        assert config.fault_stage == 2

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
        """``batch_size`` is no setting (the runtime sizes the chunks),
        so every value is rejected."""
        assert not hasattr(ExperimentConfig(), "batch_size")
        for batch_size in (0, -1, 2):
            with pytest.raises(TypeError, match="batch_size"):
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


class TestTransferExperimentDriver:
    """Fig. 10 at tier-1 size: the nominal curve and the scatter are
    transfer rows of the one measurement chunk task."""

    WIDTHS = [0.35e-9, 0.45e-9]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        config = ExperimentConfig(
            n_samples=2, dt=1e-11, n_jobs=1,
            cache_dir=str(tmp_path_factory.mktemp("cache")))
        cold = run_transfer_experiment(config, probe_widths=self.WIDTHS)
        with stats_scope() as stats:
            warm = run_transfer_experiment(config, probe_widths=self.WIDTHS)
        return config, cold, warm, stats

    def test_scatter_rows_match_single_measurements(self, runs):
        """A row's widths run as one lockstep population: equal to that
        population exactly, and to one scalar transient per width
        within the engines' 1e-15 s agreement."""
        config, exp, _, _ = runs
        for index, sample in enumerate(config.samples()):
            population, _ = measure_output_pulse_batch(
                [build_instance(sample=sample) for _ in self.WIDTHS],
                self.WIDTHS, dt=config.dt)
            for w_in, lockstep in zip(self.WIDTHS, population):
                w_out, _ = measure_output_pulse(
                    build_instance(sample=sample), w_in, dt=config.dt)
                assert exp.sample_wouts[w_in][index] == lockstep
                assert exp.sample_wouts[w_in][index] == pytest.approx(
                    w_out, abs=1e-15)

    def test_nominal_curve_matches_characterize_transfer(self, runs):
        config, exp, _, _ = runs
        grid = default_w_in_grid()
        population, _ = measure_output_pulse_batch(
            [build_instance(sample=NominalModel()) for _ in grid], grid,
            dt=config.dt)
        direct = characterize_transfer(
            build_instance(sample=NominalModel()), grid, dt=config.dt)
        assert list(exp.nominal_curve.w_in) == list(direct.w_in)
        assert list(exp.nominal_curve.w_out) == list(population)
        assert list(exp.nominal_curve.w_out) == pytest.approx(
            list(direct.w_out), abs=1e-15)

    def test_warm_rerun_solves_nothing(self, runs):
        _, cold, warm, stats = runs
        assert stats.total("newton_solves") == 0
        assert list(warm.nominal_curve.w_out) == list(cold.nominal_curve.w_out)
        assert warm.sample_wouts == cold.sample_wouts

    def test_scatter_is_one_chunk_serially(self, tmp_path):
        """The scatter used to run one sample per task; the runtime now
        puts a serial call's samples in one chunk."""
        trace = str(tmp_path / "trace.jsonl")
        config = ExperimentConfig(n_samples=2, dt=1e-11, n_jobs=1,
                                  trace=trace)
        run_transfer_experiment(config, probe_widths=[0.40e-9])
        assert [event["chunk_size"] for event in read_trace(trace)
                if event["event"] == "task"
                and event["label"] == "transfer-scatter"] == [2, 2]


class TestAdaptiveSetting:
    """``ExperimentConfig.adaptive`` reaches the Figs. 2/3/5 and 10
    drivers; both used to run the fixed grid whatever it said."""

    def test_waveform_driver(self):
        config = ExperimentConfig(dt=6e-12, adaptive=True)
        with stats_scope() as stats:
            run_waveform_experiment("internal_rop", 8e3, config=config)
        assert stats.total("adaptive_runs") > 0

    def test_transfer_driver(self):
        config = ExperimentConfig(n_samples=1, dt=1e-11, n_jobs=1,
                                  adaptive=True)
        with stats_scope() as stats:
            run_transfer_experiment(config, probe_widths=[0.40e-9])
        assert stats.total("adaptive_runs") > 0


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
