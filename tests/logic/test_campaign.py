"""Full-circuit campaign tests (synthetic defect calibration: fast)."""

import pytest

from repro.logic import (CampaignResult, DefectCalibration,
                         FaultSiteResult, c17, evaluate_fault_site,
                         generate_c432_like, generate_random_circuit,
                         run_campaign)
from repro.logic.campaign import NO_PATH, TESTED, UNSENSITIZABLE
from repro.montecarlo import sample_population
from repro.runtime import ProcessPoolExecutor, Runtime, SerialExecutor
from repro.runtime.trace import read_trace


@pytest.fixture(scope="module")
def calibration():
    """Synthetic, monotone R -> defect map (no electrical sims)."""
    r = [500.0, 2e3, 8e3, 32e3, 128e3]
    rise = [2e-12, 8e-12, 32e-12, 128e-12, 512e-12]
    fall = [2e-12, 8e-12, 32e-12, 128e-12, 512e-12]
    theta = [1e-12, 5e-12, 20e-12, 80e-12, 320e-12]
    return DefectCalibration(r, rise, fall, theta, "external")


@pytest.fixture(scope="module")
def samples():
    return sample_population(3, base_seed=9)


class TestEvaluateFaultSite:
    def test_c17_site_tested(self, calibration, samples):
        result = evaluate_fault_site(c17(), "G10", calibration,
                                     samples=samples)
        assert result.tested
        assert result.path[0] in c17().primary_inputs
        assert result.path[-1] in c17().primary_outputs
        assert "G10" in result.path
        assert result.omega_in > 0
        assert result.omega_th > 0
        assert result.r_min is not None

    def test_vector_sensitizes(self, calibration, samples):
        n = c17()
        result = evaluate_fault_site(n, "G16", calibration,
                                     samples=samples)
        assert result.tested
        from repro.logic.atpg import side_input_objectives
        values = n.evaluate(result.vector)
        for net, want in side_input_objectives(n, result.path).items():
            assert values[net] == want

    def test_r_min_positive_and_in_range(self, calibration, samples):
        result = evaluate_fault_site(c17(), "G11", calibration,
                                     samples=samples)
        assert calibration.resistances[0] <= result.r_min <= (
            calibration.resistances[-1])


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def c17_campaign(self, calibration, samples):
        return run_campaign(c17(), calibration, samples=samples)

    def test_every_gate_site_visited(self, c17_campaign):
        assert len(c17_campaign.sites) == 6  # c17 gate outputs

    def test_c17_fully_testable(self, c17_campaign):
        assert c17_campaign.test_generation_rate() == 1.0

    def test_coverage_monotone_in_r(self, c17_campaign, calibration):
        grid = calibration.resistances
        values = [c17_campaign.coverage_at(r) for r in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_summary_fields(self, c17_campaign):
        summary = c17_campaign.summary()
        assert summary["n_sites"] == 6
        assert summary["statuses"][TESTED] == 6
        assert summary["best_r_min"] <= summary["median_r_min"]

    def test_site_limit_and_stride(self, calibration, samples):
        n = generate_random_circuit(10, 3, 40, seed=2)
        result = run_campaign(n, calibration, samples=samples,
                              site_limit=8, site_stride=2)
        assert len(result.sites) == 8

    def test_statuses_partition(self, calibration, samples):
        n = generate_random_circuit(10, 3, 40, seed=2)
        result = run_campaign(n, calibration, samples=samples,
                              site_limit=15)
        assert all(s.status in (TESTED, NO_PATH, UNSENSITIZABLE,
                                "undetectable")
                   for s in result.sites)

    def test_empty_coverage_rejected(self, calibration):
        result = CampaignResult("x", [], calibration)
        with pytest.raises(ValueError):
            result.coverage_at(1e3)


class TestAtpgEffort:
    """The ATPG counters and the logic layer's phase times reach the run
    report and the trace, and a process pool books the same counts as a
    serial run."""

    COUNTERS = ("atpg_sensitizations", "atpg_backtracks",
                "atpg_gate_evaluations")
    PHASES = ("atpg", "paths", "pulse_model")

    def test_serial_and_pool_book_equal_counts(self, calibration, samples,
                                               tmp_path):
        netlist = generate_c432_like()
        reported, traced, text, phases = {}, {}, {}, {}
        for name, executor in (
                ("serial", SerialExecutor()),
                ("pool", ProcessPoolExecutor(n_jobs=2, chunk_size=1))):
            trace = str(tmp_path / (name + ".jsonl"))
            result = run_campaign(
                netlist, calibration, samples=samples, site_stride=16,
                runtime=Runtime(executor=executor, trace=trace))
            summary = result.report.summary()
            tasks = [event for event in read_trace(trace)
                     if event["event"] == "task"]
            reported[name] = {counter: summary[counter]
                              for counter in self.COUNTERS}
            traced[name] = {counter: sum(task["stats"]["counters"][counter]
                                         for task in tasks)
                            for counter in self.COUNTERS}
            text[name] = result.report.format_report()
            phases[name] = summary["solver_phase_s"]
        assert reported["serial"] == reported["pool"]
        for name in ("serial", "pool"):
            assert set(phases[name]) == set(self.PHASES), name
            assert all(seconds > 0.0 for seconds in phases[name].values())
            assert "  solver phases: atpg " in text[name]
        assert all(reported["serial"].values()), reported["serial"]
        # the per-task trace events add up to the report
        assert traced == reported
        assert "  atpg: {} sensitizations".format(
            reported["serial"]["atpg_sensitizations"]) in text["pool"]
