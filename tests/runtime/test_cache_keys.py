"""Cache-key sensitivity: any input that can change a measurement must
change its content-addressed key; anything that cannot, must not.

Every calibration, sweep and transfer row is keyed by one recipe,
``repro.core.pulse.run_measurements``'s.  The keys under test are taken
where the runtime receives them (a recording ``Runtime.run_batched``,
or ``ResultCache.contains`` after a real run), so they are the keys the
producers really use; the default-configuration key of every keyed
producer is pinned as a literal.
"""

import subprocess
import sys

import pytest

from repro.cells import default_technology
from repro.core import (calibrate_delay_test, calibrate_pulse_test,
                        sweep_pulse_measurements)
from repro.core.transfer import measure_transfer_rows
from repro.faults import BridgingFault, ExternalOpen
from repro.montecarlo import VariationModel
from repro.runtime import CampaignRun, ResultCache, Runtime

#: what the recording runtime answers for every measured point
FAKE_VALUE = 1e-9


class RecordingRuntime(Runtime):
    """A cached runtime whose ``run_batched`` records the keys and the
    chunk width it is handed, per label, and measures nothing: every
    point reads :data:`FAKE_VALUE`."""

    def __init__(self, tmp_path, executor=None):
        super().__init__(executor=executor, cache=str(tmp_path / "cache"))
        self.keys = {}
        self.widths = {}

    def run_batched(self, fn, payloads, keys=None, label="campaign",
                    batch_size=None, **_):
        self.keys.setdefault(label, []).extend(keys)
        self.widths.setdefault(label, []).append(batch_size)
        grids = [p.get("resistances", p.get("widths")) for p in payloads]
        return CampaignRun([FAKE_VALUE if grid is None
                            else [FAKE_VALUE] * len(grid)
                            for grid in grids], {}, None)


def _row_key(tmp_path, tech=None, sample_seed=3, fault=None,
             resistances=(4e3,), dt=3e-12, path_kwargs=None,
             omega_in=0.40e-9, **dispatch):
    """The sweep-row key of one sample, as a sweep hands it to the
    runtime."""
    runtime = RecordingRuntime(tmp_path)
    sweep_pulse_measurements(
        [VariationModel(sample_seed)],
        ExternalOpen(2, 8e3) if fault is None else fault, resistances,
        float(omega_in), kind="h", tech=tech, dt=dt, runtime=runtime,
        **dispatch, **(path_kwargs or {}))
    (key,) = runtime.keys["pulse-sweep"]
    return key


@pytest.fixture
def row_key(tmp_path):
    return lambda **changes: _row_key(tmp_path, **changes)


@pytest.fixture
def base(row_key):
    return row_key()


class TestKeySensitivity:
    def test_baseline_is_reproducible(self, row_key, base):
        assert row_key() == base

    def test_tech_sigma_changes_key(self, row_key, base):
        # die-to-die perturbed technology (what a different global
        # sigma produces) must not collide with nominal
        tech = default_technology().copy(kpn=120e-6 * 1.02)
        assert row_key(tech=tech) != base

    def test_supply_changes_key(self, row_key, base):
        assert row_key(tech=default_technology().copy(vdd=2.4)) != base

    def test_sample_seed_changes_key(self, row_key, base):
        assert row_key(sample_seed=4) != base

    def test_fault_resistance_grid_changes_key(self, row_key, base):
        assert row_key(resistances=(4e3, 8e3)) != base
        assert row_key(resistances=(5e3,)) != base

    def test_fault_spec_changes_key(self, row_key, base):
        assert row_key(fault=ExternalOpen(3, 8e3)) != base
        assert row_key(fault=BridgingFault(2, 8e3)) != base

    def test_pulse_width_changes_key(self, row_key, base):
        assert row_key(omega_in=0.45e-9) != base

    def test_dt_changes_key(self, row_key, base):
        assert row_key(dt=5e-12) != base

    def test_path_structure_changes_key(self, row_key, base):
        assert row_key(path_kwargs={"fanout_loads": 3}) != base


def _transfer_key(tmp_path, **changes):
    """The transfer-row key of one sample, as ``measure_transfer_rows``
    hands it to the runtime."""
    runtime = RecordingRuntime(tmp_path)
    settings = dict(samples=[VariationModel(3)], widths=[0.30e-9, 0.50e-9],
                    dt=3e-12)
    settings.update(changes)
    measure_transfer_rows(runtime=runtime, **settings)
    (keys,) = runtime.keys.values()
    return keys[0]


class TestTransferRowKeySensitivity:
    @pytest.mark.parametrize("changes", [
        dict(tech=default_technology().copy(vdd=2.4)),
        dict(samples=[VariationModel(4)]),
        dict(fault=ExternalOpen(2, 8e3)),
        dict(widths=[0.30e-9, 0.45e-9]),
        dict(kind="l"),
        dict(dt=5e-12),
        dict(path_kwargs={"fanout_loads": 3}),
        dict(adaptive=True),
    ], ids=lambda changes: next(iter(changes)))
    def test_input_changes_key(self, tmp_path, changes):
        """Each case against the same row without its first setting."""
        name = next(iter(changes))
        base = {k: v for k, v in changes.items() if k != name}
        assert (_transfer_key(tmp_path, **changes)
                != _transfer_key(tmp_path, **base))

    def test_label_does_not_change_key(self, tmp_path):
        """The nominal curve and the scatter share rows they both ask
        for; the label is telemetry only."""
        assert (_transfer_key(tmp_path, label="a")
                == _transfer_key(tmp_path, label="b"))


def _calibration_key(tmp_path, measure, **changes):
    """The pulse- or delay-calibration key of one sample, as the
    calibration hands it to the runtime."""
    runtime = RecordingRuntime(tmp_path)
    settings = dict(samples=[VariationModel(3)], dt=3e-12)
    settings.update(changes)
    if measure == "pulse":
        settings.setdefault("omega_in", 0.40e-9)
        calibrate_pulse_test(w_in_grid=[0.30e-9, 0.50e-9], runtime=runtime,
                             **settings)
    else:
        calibrate_delay_test(runtime=runtime, **settings)
    (key,) = runtime.keys[measure + "-calibration"]
    return key


_CALIBRATION_CASES = [
    dict(tech=default_technology().copy(vdd=2.4)),
    dict(samples=[VariationModel(4)]),
    dict(fault=ExternalOpen(2, 8e3)),
    dict(dt=5e-12),
    dict(fanout_loads=3),
    dict(adaptive=True),
]


class TestCalibrationRowKeySensitivity:
    @pytest.mark.parametrize("changes", _CALIBRATION_CASES + [
        dict(omega_in=0.45e-9), dict(kind="l")],
        ids=lambda changes: next(iter(changes)))
    def test_pulse_input_changes_key(self, tmp_path, changes):
        name = next(iter(changes))
        base = {k: v for k, v in changes.items() if k != name}
        assert (_calibration_key(tmp_path, "pulse", **changes)
                != _calibration_key(tmp_path, "pulse", **base))

    @pytest.mark.parametrize("changes", _CALIBRATION_CASES + [
        dict(direction="fall")], ids=lambda changes: next(iter(changes)))
    def test_delay_input_changes_key(self, tmp_path, changes):
        name = next(iter(changes))
        base = {k: v for k, v in changes.items() if k != name}
        assert (_calibration_key(tmp_path, "delay", **changes)
                != _calibration_key(tmp_path, "delay", **base))

    def test_measurement_kind_changes_key(self, tmp_path):
        """The two calibrations of one sample never share a row."""
        assert (_calibration_key(tmp_path, "pulse")
                != _calibration_key(tmp_path, "delay"))


class TestChunkingLeavesKeys:
    """Every row runs the lockstep engine in any chunk, a chunk of one
    row included, so a row's key names neither an engine nor a chunk:
    it is ``stable_hash("measurement-row", spec, item, token)`` with
    the lockstep Newton token."""

    def test_key_recipe(self, base):
        from repro.core.coverage import build_sweep_payloads
        from repro.runtime import stable_hash
        from repro.spice.transient import LOCKSTEP_NEWTON_CACHE_TOKEN

        spec, (item,) = build_sweep_payloads(
            [VariationModel(3)], ExternalOpen(2, 8e3), [4e3], dt=3e-12,
            measure="pulse", omega_in=0.40e-9, kind="h")
        assert base == stable_hash("measurement-row", spec, item,
                                   LOCKSTEP_NEWTON_CACHE_TOKEN)

    def test_sweep_row_key_ignores_the_chunk_width(self, row_key, base):
        assert row_key(batch_size=2) == base
        assert row_key(adaptive=True) == row_key(adaptive=True,
                                                 batch_size=2)

    def test_calibration_keys_ignore_the_worker_count(self, tmp_path):
        """A serial runtime measures the three rows as one chunk, two
        workers as chunks of two and one; the keys are the same."""
        from types import SimpleNamespace

        from repro.montecarlo import sample_population

        samples = sample_population(3, base_seed=2)
        runs = []
        for n_jobs in (1, 2):
            runtime = RecordingRuntime(
                tmp_path, executor=SimpleNamespace(n_jobs=n_jobs))
            calibrate_delay_test(samples, dt=3e-12, runtime=runtime)
            runs.append(runtime)
        serial, pool = runs
        assert (serial.widths["delay-calibration"],
                pool.widths["delay-calibration"]) == ([3], [2])
        assert serial.keys == pool.keys


#: the default-configuration keys of every row kind
SWEEP_ROW_KEY = "8f2619a1bff6cf99e12f00fde435ba18"
PULSE_CALIBRATION_KEY = "6dab40180efbe7fbd29394b80783bce1"
DELAY_CALIBRATION_KEY = "4d616fd570f27adb5d7ae13df2a3f0ae"
NOMINAL_CURVE_KEY = "c59f8ff4fb24509778511c3d968aaca0"


class TestPinnedDefaultKeys:
    """Default-configuration keys, one per row kind.  Every measurement
    row's key is ``stable_hash("measurement-row", spec, item, newton)``
    since the four hand-written recipes (``sweep-row``,
    ``pulse-calibration``, ``delay-calibration``, ``transfer-row``) and
    the separate ``engine=batched`` and ``grid=adaptive`` tokens became
    that one recipe, so each of these literals moved once:

    * scalar sweep row ``ad7acac4…`` → ``98e76dd6…``
    * lockstep sweep row ``774b9be0…`` → ``36d1aead…``
    * adaptive sweep row ``cb270df0…`` → ``88dd55d3…``
    * pulse calibration ``40b2f3ee…`` → ``002cd5e2…``
    * delay calibration ``4a16e8ec…`` → ``39aa520b…``
    * nominal transfer curve ``d6ca7ddb…`` → ``01e15509…``
    * Fig. 10 scatter row ``b0e0eee3…`` → ``723c33c8…``

    The defect table is no measurement row, and its key did not move
    then (see its test).

    The lockstep token then gained a revision of the lockstep stepping
    and Newton arithmetic (``LOCKSTEP_REVISION`` in
    ``repro.spice.transient``, 2 for one fixed stamp table and the
    branchless device kernel), which moved every lockstep-keyed literal
    once more and left the scalar-keyed ones where they were:

    * lockstep sweep row ``36d1aead…`` → ``1ceb4242…``
    * nominal transfer curve ``01e15509…`` → ``e83402b2…``
    * Fig. 10 scatter row ``723c33c8…`` → ``5b72f2b1…``

    Then every row began to run the lockstep engine in any chunk, a
    population of one included, so every key carries the lockstep
    token.  That moved each scalar-keyed literal once more and left
    the lockstep-keyed ones (and the defect table's) where they were:

    * default sweep row ``98e76dd6…`` → ``1ceb4242…`` (the lockstep
      sweep row's key)
    * adaptive sweep row ``88dd55d3…`` → ``78aaf17f…``
    * pulse calibration ``002cd5e2…`` → ``5c593eed…``
    * delay calibration ``39aa520b…`` → ``19aa5cab…``

    Then the fixed grid's pulse tables began to read as the scalar
    ``Pulse.value_at`` does, bit for bit, which moved fixed-grid values
    at rounding level, so ``LOCKSTEP_REVISION`` went to 3 and every
    literal here moved once more, the adaptive row's and the defect
    table's too (the token is one for both grids):

    * sweep row ``1ceb4242…`` → ``8f2619a1…``
    * adaptive sweep row ``78aaf17f…`` → ``1f77f184…``
    * pulse calibration ``5c593eed…`` → ``6dab4018…``
    * delay calibration ``19aa5cab…`` → ``4d616fd5…``
    * nominal transfer curve ``e83402b2…`` → ``c59f8ff4…``
    * Fig. 10 scatter row ``5b72f2b1…`` → ``228620cd…``
    * defect table ``c1a63086…`` → ``3b9e5846…``

    A changed literal here means every warm cache of that configuration
    goes cold."""

    GRID = [0.30e-9, 0.50e-9]
    PATH = dict(gate_kinds=("inv",) * 3)

    def test_sweep_row_fixed_grid(self, base):
        assert base == SWEEP_ROW_KEY

    def test_sweep_row_batched_engine(self, row_key):
        assert (row_key(batch_size=32)
                == "8f2619a1bff6cf99e12f00fde435ba18")

    def test_sweep_row_adaptive_grid(self, row_key):
        assert (row_key(adaptive=True)
                == "1f77f1846c92c005a446c77c6c27d04c")

    @pytest.fixture(scope="class")
    def calibration_cache(self, tmp_path_factory):
        from repro.montecarlo import sample_population

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
        assert calibration_cache.contains(PULSE_CALIBRATION_KEY)

    def test_delay_calibration_row(self, calibration_cache):
        assert calibration_cache.contains(DELAY_CALIBRATION_KEY)

    def test_nominal_transfer_curve(self, calibration_cache):
        assert calibration_cache.contains(NOMINAL_CURVE_KEY)

    def test_transfer_scatter_row(self, calibration_cache):
        assert calibration_cache.contains(
            "228620cdcbe59e2673e7bcca3d51399c")

    def test_defect_calibration_table(self, tmp_path):
        """The electrical defect table's key carries a recipe token,
        which moved it once, when its delays and width searches began
        to run as lockstep populations.  That token is now the lockstep
        Newton token, which names the same fact with the revision of the
        lockstep arithmetic; it moved the key once more (``5d73eeb6…`` →
        ``c1a63086…``), and revision 3 once more (→ ``3b9e5846…``)."""
        from repro.logic import DefectCalibration

        runtime = Runtime(cache=str(tmp_path / "cache"))
        DefectCalibration.from_electrical("external", [4e3], dt=2e-11,
                                          runtime=runtime, **self.PATH)
        assert runtime.cache.contains("3b9e584626b0d6086b56a20c85bec0dd")


class TestWarmCache:
    """Values stored in the shapes the producers write, under the
    pinned keys, are served back without executing a task."""

    GRID = TestPinnedDefaultKeys.GRID
    PATH = TestPinnedDefaultKeys.PATH

    @pytest.fixture
    def runtime(self, tmp_path):
        runtime = Runtime(cache=str(tmp_path / "cache"))
        runtime.cache.put(NOMINAL_CURVE_KEY, [0.21e-9, 0.43e-9])
        runtime.cache.put(PULSE_CALIBRATION_KEY, 0.37e-9)
        runtime.cache.put(DELAY_CALIBRATION_KEY, 0.31e-9)
        runtime.cache.put(SWEEP_ROW_KEY, [0.29e-9])
        return runtime

    def test_calibrations_read_back(self, runtime):
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
        from repro.runtime import RunReport

        report = RunReport()
        rows = sweep_pulse_measurements(
            [VariationModel(3)], ExternalOpen(2, 8e3), [4e3], 0.40e-9,
            dt=3e-12, runtime=runtime, report=report)
        assert rows == [[0.29e-9]]
        assert (report.cache_hits, report.cache_misses) == (1, 0)


class TestRestartHit:
    def test_unchanged_config_hits_after_process_restart(self, tmp_path):
        """Store a row under the config key and rerun the sweep in a
        fresh interpreter: same config after a restart must read the
        entry back as a cache hit, without measuring."""
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(SWEEP_ROW_KEY, [1.0])
        import os
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.core import sweep_pulse_measurements\n"
            "from repro.faults import ExternalOpen\n"
            "from repro.montecarlo import VariationModel\n"
            "from repro.runtime import RunReport, Runtime\n"
            "report = RunReport()\n"
            "rows = sweep_pulse_measurements(\n"
            "    [VariationModel(3)], ExternalOpen(2, 8e3), [4000.0],\n"
            "    0.4e-9, dt=3e-12, runtime=Runtime(cache={root!r}),\n"
            "    report=report)\n"
            "print(rows, report.cache_hits, report.cache_misses)\n"
        ).format(src=src, root=str(tmp_path / "cache"))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True)
        assert out.stdout.strip() == "[[1.0]] 1 0"


class SiteKeyRecorder(Runtime):
    """A cached runtime that records the fault-site keys and nets of a
    campaign, then runs it."""

    def run(self, fn, payloads, keys=None, **kwargs):
        self.keys = list(keys)
        self.nets = [payload["net"] for payload in payloads]
        return super().run(fn, payloads, keys=keys, **kwargs)


class TestCampaignSiteKeys:
    """``run_campaign`` lowers the parts its sites share once and hashes
    each site's key on from them; the keys stay those of the one recipe
    below, so caches written before keep hitting."""

    @pytest.fixture
    def campaign(self):
        from repro.logic import DefectCalibration, c17
        from repro.montecarlo import sample_population

        calibration = DefectCalibration(
            [500.0, 8e3, 128e3], [2e-12, 32e-12, 512e-12],
            [2e-12, 32e-12, 512e-12], [1e-12, 20e-12, 320e-12],
            "external")
        return c17(), calibration, sample_population(2, base_seed=9)

    @pytest.mark.parametrize("settings", [
        {}, dict(max_paths=5, sensing_tolerance=0.2, site_stride=2)])
    def test_site_key_recipe(self, tmp_path, campaign, settings):
        from repro.logic import GateTiming, run_campaign
        from repro.runtime import stable_hash

        netlist, calibration, samples = campaign
        runtime = SiteKeyRecorder(cache=str(tmp_path / "cache"))
        run_campaign(netlist, calibration, samples=samples,
                     runtime=runtime, **settings)
        max_paths = settings.get("max_paths", 12)
        tolerance = settings.get("sensing_tolerance", 0.1)
        assert runtime.nets
        assert runtime.keys == [
            stable_hash("fault-site", netlist, net, calibration,
                        GateTiming(), samples, max_paths, tolerance)
            for net in runtime.nets]

    def test_pinned_site_keys(self, tmp_path, campaign):
        from repro.logic import run_campaign

        netlist, calibration, samples = campaign
        runtime = SiteKeyRecorder(cache=str(tmp_path / "cache"))
        run_campaign(netlist, calibration, samples=samples,
                     runtime=runtime)
        assert dict(zip(runtime.nets, runtime.keys)) == {
            "G10": "a6680771a1bc478e06ca7b0fb2ed068a",
            "G11": "f5de7899ab5bceb303f99a98265cbe8e",
            "G16": "95b32135be4a4d6d7057fb5d0eda628d",
            "G19": "2694a6d9f8ab2775005d2da65a0a9257",
            "G22": "935e03d614def368f1a161f9fb705527",
            "G23": "9e3a6e9c041eaf41f49840a1c6187018",
        }
