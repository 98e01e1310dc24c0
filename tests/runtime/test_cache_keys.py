"""Cache-key sensitivity: any input that can change a measurement must
change its content-addressed key; anything that cannot, must not.

The keys under test are the ones ``repro.core.coverage
.build_sweep_payloads`` gives per-sample sweep rows and
``repro.core.transfer.measure_transfer_rows`` gives transfer rows, plus
the default-configuration keys of every keyed producer, pinned as
literals.
"""

import subprocess
import sys

import pytest

from repro.cells import default_technology
from repro.core.coverage import build_sweep_payloads
from repro.core.transfer import measure_transfer_rows
from repro.faults import BridgingFault, ExternalOpen
from repro.montecarlo import VariationModel
from repro.runtime import ResultCache, engine_cache_tag


def _row_key(tech=None, sample_seed=3, fault=None, resistances=(4e3,),
             dt=3e-12, path_kwargs=None, omega_in=0.40e-9, **dispatch):
    """The sweep-row key of one sample, as a sweep computes it."""
    fault = ExternalOpen(2, 8e3) if fault is None else fault
    _, _, keys = build_sweep_payloads(
        [VariationModel(sample_seed)], fault, resistances, tech=tech,
        dt=dt, path_kwargs=path_kwargs, measure="pulse",
        omega_in=float(omega_in), kind="h", **dispatch)
    return keys[0]


BASE = _row_key()


class TestKeySensitivity:
    def test_baseline_is_reproducible(self):
        assert _row_key() == BASE

    def test_tech_sigma_changes_key(self):
        # die-to-die perturbed technology (what a different global
        # sigma produces) must not collide with nominal
        tech = default_technology().copy(kpn=120e-6 * 1.02)
        assert _row_key(tech=tech) != BASE

    def test_supply_changes_key(self):
        assert _row_key(tech=default_technology().copy(vdd=2.4)) != BASE

    def test_sample_seed_changes_key(self):
        assert _row_key(sample_seed=4) != BASE

    def test_fault_resistance_grid_changes_key(self):
        assert _row_key(resistances=(4e3, 8e3)) != BASE
        assert _row_key(resistances=(5e3,)) != BASE

    def test_fault_spec_changes_key(self):
        assert _row_key(fault=ExternalOpen(3, 8e3)) != BASE
        assert _row_key(fault=BridgingFault(2, 8e3)) != BASE

    def test_pulse_width_changes_key(self):
        assert _row_key(omega_in=0.45e-9) != BASE

    def test_dt_changes_key(self):
        assert _row_key(dt=5e-12) != BASE

    def test_path_structure_changes_key(self):
        assert _row_key(path_kwargs={"fanout_loads": 3}) != BASE


def _transfer_key(monkeypatch, tmp_path, **changes):
    """The transfer-row key of one sample, as
    ``measure_transfer_rows`` computes it (the measurement is stubbed)."""
    from repro.core import transfer
    from repro.runtime import Runtime

    seen = []

    def fake_run(spec, items, keys=None, **_):
        seen.extend(keys)
        return [[0.0] * len(item["widths"]) for item in items]

    monkeypatch.setattr(transfer, "run_measurements", fake_run)
    settings = dict(samples=[VariationModel(3)], widths=[0.30e-9, 0.50e-9],
                    dt=3e-12)
    settings.update(changes)
    measure_transfer_rows(runtime=Runtime(cache=str(tmp_path / "cache")),
                          **settings)
    return seen[0]


class TestTransferRowKeySensitivity:
    @pytest.mark.parametrize("changes", [
        dict(tech=default_technology().copy(vdd=2.4)),
        dict(samples=[VariationModel(4)]),
        dict(fault=ExternalOpen(2, 8e3)),
        dict(widths=[0.30e-9, 0.45e-9]),
        dict(kind="l"),
        dict(dt=5e-12),
        dict(path_kwargs={"fanout_loads": 3}),
        # a two-width row runs lockstep at any batch size, so the batch
        # size shows on a one-width row only
        dict(batch_size=2, widths=[0.30e-9]),
        dict(adaptive=True),
    ], ids=lambda changes: next(iter(changes)))
    def test_input_changes_key(self, monkeypatch, tmp_path, changes):
        """Each case against the same row without its first setting."""
        name = next(iter(changes))
        base = {k: v for k, v in changes.items() if k != name}
        assert (_transfer_key(monkeypatch, tmp_path, **changes)
                != _transfer_key(monkeypatch, tmp_path, **base))

    def test_label_does_not_change_key(self, monkeypatch, tmp_path):
        """The nominal curve and the scatter share rows they both ask
        for; the label is telemetry only."""
        assert (_transfer_key(monkeypatch, tmp_path, label="a")
                == _transfer_key(monkeypatch, tmp_path, label="b"))


class TestEngineTag:
    """The engine token follows the population an item is measured in:
    a chunk's items times their grid points on the fixed grid, its items
    alone on the adaptive grid."""

    def test_population_of_one_is_scalar(self):
        assert engine_cache_tag() == ("solver=reuse",)
        assert engine_cache_tag(adaptive=True, n_points=3) == (
            "grid=adaptive", "solver=reuse")

    def test_stacked_grid_points_are_lockstep(self):
        assert engine_cache_tag(n_points=2) == ("engine=batched",
                                                "solver=exact")
        assert engine_cache_tag(n_points=2) == engine_cache_tag(
            batch_size=8, n_points=3)

    def test_sweep_row_key_follows_the_population(self):
        """A two-point fixed-grid row runs lockstep at either batch
        size; on the adaptive grid the batch size alone decides."""
        assert _row_key(resistances=(4e3, 8e3)) == _row_key(
            resistances=(4e3, 8e3), batch_size=2)
        assert _row_key(resistances=(4e3, 8e3), adaptive=True) != _row_key(
            resistances=(4e3, 8e3), adaptive=True, batch_size=2)


class TestPinnedDefaultKeys:
    """Default-configuration keys as they were computed while the Newton
    solver was still a campaign setting, except the batched row, whose
    key changed when lockstep populations moved to exact Newton, and
    the nominal transfer curve and Fig. 10 scatter rows, whose keys
    changed when they became transfer rows and again when a row's
    widths began to run as one lockstep population, and the defect
    table (see its test).  A changed literal here means every warm
    cache of that configuration goes cold."""

    GRID = [0.30e-9, 0.50e-9]
    PATH = dict(gate_kinds=("inv",) * 3)

    def test_sweep_row_scalar_fixed_grid(self):
        assert BASE == "ad7acac4686c4666dd7a5f7f25693be8"

    def test_sweep_row_batched_engine(self):
        assert (_row_key(batch_size=32)
                == "774b9be0e14915283cc2c4bc8a22dbff")

    def test_sweep_row_adaptive_grid(self):
        assert (_row_key(adaptive=True)
                == "cb270df0ff963a6fb38f6953630e0a83")

    @pytest.fixture(scope="class")
    def calibration_cache(self, tmp_path_factory):
        from repro.core import calibrate_delay_test, calibrate_pulse_test
        from repro.montecarlo import sample_population
        from repro.runtime import Runtime

        runtime = Runtime(cache=str(tmp_path_factory.mktemp("cache")))
        calibrate_pulse_test(sample_population(1, base_seed=11), dt=4e-12,
                             w_in_grid=self.GRID, omega_in=0.40e-9,
                             runtime=runtime, **self.PATH)
        calibrate_delay_test(sample_population(1, base_seed=11), dt=4e-12,
                             runtime=runtime, **self.PATH)
        measure_transfer_rows([VariationModel(3)], self.GRID, dt=4e-12,
                              runtime=runtime, path_kwargs=self.PATH)
        return runtime.cache

    def test_pulse_calibration_row(self, calibration_cache):
        assert calibration_cache.contains(
            "40b2f3ee85e88753888709313021dcae")

    def test_delay_calibration_row(self, calibration_cache):
        assert calibration_cache.contains(
            "4a16e8ecc438a507ccc9db93c5e94b88")

    def test_nominal_transfer_curve(self, calibration_cache):
        assert calibration_cache.contains(
            "d6ca7ddb87b9dcd6115583ac36f7e846")

    def test_transfer_scatter_row(self, calibration_cache):
        assert calibration_cache.contains(
            "b0e0eee3300b565313095e084b459bd4")

    def test_defect_calibration_table(self, tmp_path):
        """The electrical defect table's key carries its recipe token,
        which moved it once, when its delays and width searches began
        to run as lockstep populations."""
        from repro.logic import DefectCalibration
        from repro.runtime import Runtime

        runtime = Runtime(cache=str(tmp_path / "cache"))
        DefectCalibration.from_electrical("external", [4e3], dt=2e-11,
                                          runtime=runtime, **self.PATH)
        assert runtime.cache.contains("5d73eeb665dc044202481f643a875e97")


class TestWarmCache:
    """Values stored in the shapes the producers write, under the
    pinned keys, are served back without executing a task."""

    GRID = TestPinnedDefaultKeys.GRID
    PATH = TestPinnedDefaultKeys.PATH

    @pytest.fixture
    def runtime(self, tmp_path):
        from repro.runtime import Runtime

        runtime = Runtime(cache=str(tmp_path / "cache"))
        runtime.cache.put("d6ca7ddb87b9dcd6115583ac36f7e846",
                          [0.21e-9, 0.43e-9])
        runtime.cache.put("40b2f3ee85e88753888709313021dcae", 0.37e-9)
        runtime.cache.put("4a16e8ecc438a507ccc9db93c5e94b88", 0.31e-9)
        runtime.cache.put(BASE, [0.29e-9])
        return runtime

    def test_calibrations_read_back(self, runtime):
        from repro.core import calibrate_delay_test, calibrate_pulse_test
        from repro.montecarlo import sample_population
        from repro.runtime import RunReport

        samples = sample_population(1, base_seed=11)
        report = RunReport()
        calibration = calibrate_pulse_test(
            samples, dt=4e-12, w_in_grid=self.GRID, omega_in=0.40e-9,
            runtime=runtime, report=report, **self.PATH)
        _, delays = calibrate_delay_test(samples, dt=4e-12,
                                         runtime=runtime, report=report,
                                         **self.PATH)
        assert list(calibration.nominal_curve.w_out) == [0.21e-9, 0.43e-9]
        assert calibration.fault_free_wouts == [0.37e-9]
        assert delays == [0.31e-9]
        assert (report.cache_hits, report.cache_misses) == (3, 0)

    def test_sweep_row_reads_back(self, runtime):
        from repro.core import sweep_pulse_measurements
        from repro.runtime import RunReport

        report = RunReport()
        rows = sweep_pulse_measurements(
            [VariationModel(3)], ExternalOpen(2, 8e3), [4e3], 0.40e-9,
            dt=3e-12, runtime=runtime, report=report)
        assert rows == [[0.29e-9]]
        assert (report.cache_hits, report.cache_misses) == (1, 0)


class TestRestartHit:
    def test_unchanged_config_hits_after_process_restart(self, tmp_path):
        """Store a row under the config key, recompute the key in a
        fresh interpreter, and read the entry back: same config after a
        restart must be a cache hit."""
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(BASE, [1.0, 2.0])
        import os
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.core.coverage import build_sweep_payloads\n"
            "from repro.faults import ExternalOpen\n"
            "from repro.montecarlo import VariationModel\n"
            "from repro.runtime import ResultCache\n"
            "_, _, keys = build_sweep_payloads(\n"
            "    [VariationModel(3)], ExternalOpen(2, 8e3), [4000.0],\n"
            "    dt=3e-12, measure='pulse', omega_in=0.4e-9, kind='h')\n"
            "print(ResultCache({root!r}).get(keys[0]))\n"
        ).format(src=src, root=str(tmp_path / "cache"))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True)
        assert out.stdout.strip() == "[1.0, 2.0]"
