"""RunReport regressions: median, throughput, failure accounting,
solver-counter folding and per-item chunk attribution."""

import pytest

from repro.runtime import RunReport, TaskOutcome


def _ok(index=0, duration=1.0, stats=None, retries=0):
    return TaskOutcome(index, value=index, duration=duration,
                       retries=retries, stats=stats)


def _failed(index=0, duration=1.0, error_type="ValueError",
            timed_out=False):
    return TaskOutcome(index, error_type=error_type,
                       error_message="boom", duration=duration,
                       timed_out=timed_out)


def _stats(**counters):
    return {"counters": counters, "phase_s": {}, "samples": {}}


class TestMedian:
    def test_even_length_uses_middle_pair(self):
        """Regression: ``durations[n // 2]`` is the *upper* middle
        element — a four-task run [1, 2, 3, 10] must report 2.5, not 3."""
        report = RunReport()
        for duration in (3.0, 1.0, 10.0, 2.0):
            report.record_outcome(_ok(duration=duration))
        assert report.summary()["task_time_median_s"] == pytest.approx(
            2.5)

    def test_odd_length_is_middle_element(self):
        report = RunReport()
        for duration in (5.0, 1.0, 3.0):
            report.record_outcome(_ok(duration=duration))
        assert report.summary()["task_time_median_s"] == pytest.approx(
            3.0)

    def test_two_elements(self):
        report = RunReport()
        report.record_outcome(_ok(duration=1.0))
        report.record_outcome(_ok(duration=2.0))
        assert report.summary()["task_time_median_s"] == pytest.approx(
            1.5)

    def test_empty_is_none(self):
        assert RunReport().summary()["task_time_median_s"] is None


class TestThroughput:
    def test_counts_only_completed_tasks(self):
        """Regression: throughput divided cache misses — which include
        failures — by wall time, so a half-failed campaign looked twice
        as fast as it was."""
        report = RunReport()
        for index in range(4):
            report.record_outcome(_ok(index))
        for index in range(4, 8):
            report.record_outcome(_failed(index))
        report.wall_time = 2.0
        assert report.samples_per_second() == pytest.approx(2.0)
        assert report.summary()["samples_per_second"] == pytest.approx(
            2.0)

    def test_zero_wall_time_is_zero_not_nan(self):
        report = RunReport()
        report.record_outcome(_ok())
        assert report.samples_per_second() == 0.0

    def test_format_report_shows_failed_count(self):
        report = RunReport("fmt")
        report.record_outcome(_ok())
        report.record_outcome(_failed(1))
        report.wall_time = 1.0
        text = report.format_report()
        assert "1 failed" in text
        assert "completed samples/s" in text
        assert "1xValueError" in text

    def test_format_report_shows_resumed_line_only_when_nonzero(self):
        """Cache hits alone are no resume: the line reports the
        manifest-backed ``resumed`` count, which another campaign's
        cache entries do not raise."""
        hits = RunReport()
        for _ in range(4):
            hits.record_hit()
        assert "resumed" not in hits.format_report()

        resumed = RunReport()
        for index in range(4):
            resumed.record_hit(resumed=index < 3)
        resumed.record_outcome(_ok())
        assert "  resumed: 3 of 5 tasks" in resumed.format_report()


class TestSolverFolding:
    def test_counters_fold_from_outcome_snapshots(self):
        report = RunReport()
        report.record_outcome(_ok(0, stats=_stats(
            newton_solves=2, newton_iterations=7, adaptive_runs=1,
            adaptive_accepted=30, adaptive_rejected=4,
            ladder_retries=1)))
        report.record_outcome(_ok(1, stats=_stats(
            newton_solves=3, newton_iterations=8)))
        assert report.newton_solves == 5
        assert report.newton_iterations == 15
        assert report.adaptive_runs == 1
        assert report.adaptive_accepted == 30
        assert report.adaptive_rejected == 4
        assert report.ladder_retries == 1
        summary = report.summary()
        assert summary["newton_solves"] == 5
        assert summary["adaptive_accepted"] == 30
        assert summary["ladder_retries"] == 1

    def test_outcome_without_stats_folds_nothing(self):
        report = RunReport()
        report.record_outcome(_ok(stats=None))
        assert report.newton_solves == 0

    def test_failed_outcome_still_contributes_effort(self):
        """A diverging solve burned real iterations before failing."""
        report = RunReport()
        outcome = _failed()
        outcome.stats = _stats(newton_solves=1, newton_iterations=50)
        report.record_outcome(outcome)
        assert report.newton_iterations == 50
        assert report.failed == 1

    def test_phase_timings_surface_in_summary(self):
        report = RunReport()
        outcome = _ok()
        outcome.stats = {"counters": {}, "phase_s": {"newton": 0.5},
                         "samples": {}}
        report.record_outcome(outcome)
        assert report.summary()["solver_phase_s"] == {"newton": 0.5}
        text = report.format_report()
        assert "newton 0.50s" in text

    def test_atpg_effort_folds_and_prints_only_when_nonzero(self):
        report = RunReport()
        report.record_outcome(_ok(0, stats=_stats(newton_solves=1)))
        assert "atpg" not in report.format_report()
        report.record_outcome(_ok(1, stats=_stats(
            atpg_sensitizations=3, atpg_backtracks=40,
            atpg_gate_evaluations=900)))
        report.record_outcome(_ok(2, stats=_stats(
            atpg_sensitizations=1, atpg_gate_evaluations=12)))
        summary = report.summary()
        assert summary["atpg_sensitizations"] == 4
        assert summary["atpg_backtracks"] == 40
        assert summary["atpg_gate_evaluations"] == 912
        assert ("atpg: 4 sensitizations, 40 backtracks, 912 implication "
                "gate evaluations") in report.format_report()


class TestChunkAttribution:
    def test_n_items_books_per_item_counts_and_durations(self):
        """A batched chunk is one executor task but four campaign
        samples: counts, taxonomy and duration shares go per item."""
        report = RunReport()
        outcome = _ok(duration=8.0, stats=_stats(newton_solves=4))
        report.record_outcome(outcome, n_items=4)
        assert report.cache_misses == 4
        assert report.completed == 4
        assert report.durations == [2.0] * 4
        # solver counters fold once, not once per item
        assert report.newton_solves == 4

    def test_failed_chunk_books_per_item_taxonomy(self):
        report = RunReport()
        report.record_outcome(_failed(timed_out=True,
                                      error_type="TaskTimeout"),
                              n_items=3)
        assert report.failed == 3
        assert report.timeouts == 3
        assert report.failure_taxonomy == {"TaskTimeout": 3}

    def test_retries_booked_once_per_chunk(self):
        report = RunReport()
        report.record_outcome(_ok(retries=2), n_items=5)
        assert report.retries == 2


class TestRobustnessCounters:
    def test_recovered_crashes_booked_on_ok_outcomes(self):
        report = RunReport().start()
        report.record_outcome(TaskOutcome(0, value=1, crashes=2))
        report.record_outcome(TaskOutcome(1, value=2))
        report.finish()
        assert report.worker_crashes == 2
        assert report.completed == 2
        assert report.failed == 0

    def test_poisoned_counted_and_in_taxonomy(self):
        report = RunReport().start()
        report.record_outcome(TaskOutcome(
            0, error_type="PoisonTask", error_message="quarantined",
            poisoned=True, crashed=True, crashes=3))
        report.finish()
        assert report.poisoned == 1
        assert report.failed == 1
        assert report.worker_crashes == 3
        assert report.failure_taxonomy["PoisonTask"] == 1

    def test_summary_carries_robustness_fields(self):
        report = RunReport().start()
        report.record_outcome(TaskOutcome(0, value=1, crashes=1))
        report.pool_rebuilds = 2
        report.cache_quarantined = 3
        report.finish()
        summary = report.summary()
        assert summary["worker_crashes"] == 1
        assert summary["poisoned"] == 0
        assert summary["pool_rebuilds"] == 2
        assert summary["cache_quarantined"] == 3

    def test_format_report_shows_robustness_line_only_when_nonzero(self):
        quiet = RunReport().start()
        quiet.record_outcome(TaskOutcome(0, value=1))
        quiet.finish()
        assert "robustness" not in quiet.format_report()

        noisy = RunReport().start()
        noisy.record_outcome(TaskOutcome(0, value=1, crashes=1))
        noisy.pool_rebuilds = 1
        noisy.finish()
        text = noisy.format_report()
        assert "robustness: 1 worker crashes" in text
        assert "1 pool rebuilds" in text
