"""Context-scoped solver instrumentation (repro.runtime.stats).

Covers the collector semantics the campaign runtime depends on: scope
isolation, fold-on-exit up to the process root, and per-sample
attribution for the batched engine.
"""

import pickle

import pytest

from repro.runtime.stats import (SolverStats, current_stats, root_stats,
                                 stats_scope)


class TestSolverStats:
    def test_counters_start_at_zero(self):
        stats = SolverStats()
        assert stats.total("newton_solves") == 0
        assert stats.total("adaptive_accepted") == 0

    def test_count_accumulates(self):
        stats = SolverStats()
        stats.count("newton_solves")
        stats.count("newton_solves", 4)
        assert stats.total("newton_solves") == 5

    def test_unknown_counter_rejected(self):
        """Typos must fail loudly, not silently create a new counter."""
        stats = SolverStats()
        with pytest.raises(KeyError):
            stats.count("newton_sloves")

    def test_phase_timer_accumulates(self):
        stats = SolverStats()
        with stats.phase("newton"):
            pass
        with stats.phase("newton"):
            pass
        assert stats.phase_s["newton"] >= 0.0
        stats.add_phase("ladder", 1.5)
        stats.add_phase("ladder", 0.5)
        assert stats.phase_s["ladder"] == pytest.approx(2.0)

    def test_per_sample_attribution(self):
        stats = SolverStats()
        stats.count_sample(0, "newton_solves", 1)
        stats.count_sample(0, "newton_iterations", 3)
        stats.count_sample(2, "newton_solves", 1)
        assert stats.samples[0] == {"newton_solves": 1,
                                    "newton_iterations": 3}
        assert stats.samples[2]["newton_solves"] == 1

    def test_snapshot_is_plain_and_picklable(self):
        stats = SolverStats()
        stats.count("newton_iterations", 7)
        stats.add_phase("newton", 0.25)
        stats.count_sample(1, "newton_solves", 2)
        snap = stats.snapshot()
        assert snap["counters"]["newton_iterations"] == 7
        assert snap["phase_s"]["newton"] == pytest.approx(0.25)
        assert snap["samples"][1]["newton_solves"] == 2
        restored = pickle.loads(pickle.dumps(snap))
        assert restored == snap
        # the snapshot is a copy, not an alias
        stats.count("newton_iterations")
        assert snap["counters"]["newton_iterations"] == 7

    def test_merge_folds_totals_but_not_samples(self):
        parent, child = SolverStats(), SolverStats()
        child.count("newton_solves", 3)
        child.add_phase("newton", 0.5)
        child.count_sample(0, "newton_solves", 3)
        parent.merge(child)
        assert parent.total("newton_solves") == 3
        assert parent.phase_s["newton"] == pytest.approx(0.5)
        assert parent.samples == {}  # row indices collide across chunks

    def test_merge_accepts_snapshot_dicts(self):
        parent = SolverStats()
        child = SolverStats()
        child.count("adaptive_accepted", 9)
        parent.merge(child.snapshot())
        assert parent.total("adaptive_accepted") == 9


class TestScopes:
    def test_scope_isolates_and_folds_on_exit(self):
        before = root_stats().total("newton_solves")
        with stats_scope() as inner:
            current_stats().count("newton_solves", 2)
            assert inner.total("newton_solves") == 2
            # while the scope is open, the root has not moved
            assert root_stats().total("newton_solves") == before
        assert root_stats().total("newton_solves") == before + 2

    def test_nested_scopes_fold_transitively(self):
        before = root_stats().total("newton_iterations")
        with stats_scope() as outer:
            current_stats().count("newton_iterations", 1)
            with stats_scope() as inner:
                current_stats().count("newton_iterations", 10)
            # the child folded into the outer scope, not the root
            assert inner.total("newton_iterations") == 10
            assert outer.total("newton_iterations") == 11
            assert root_stats().total("newton_iterations") == before
        assert root_stats().total("newton_iterations") == before + 11

    def test_no_scope_records_on_root(self):
        before = root_stats().total("ladder_retries")
        current_stats().count("ladder_retries")
        assert root_stats().total("ladder_retries") == before + 1

    def test_scope_folds_even_when_body_raises(self):
        before = root_stats().total("adaptive_rejected")
        with pytest.raises(RuntimeError):
            with stats_scope():
                current_stats().count("adaptive_rejected", 4)
                raise RuntimeError("boom")
        assert root_stats().total("adaptive_rejected") == before + 4

    def test_explicit_collector_reused(self):
        mine = SolverStats()
        with stats_scope(mine) as active:
            assert active is mine
            current_stats().count("adaptive_runs")
        assert mine.total("adaptive_runs") == 1


class TestSolverIntegration:
    """The spice hot paths record into the active scope."""

    def _rc(self):
        from repro.spice import Circuit, Pulse
        circuit = Circuit("rc")
        circuit.add_vsource(
            "V1", "in", "0",
            Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, width=2e-9))
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        return circuit

    def test_fixed_step_transient_counts_newton(self):
        from repro.spice import run_transient
        with stats_scope() as stats:
            run_transient(self._rc(), 2e-9, 20e-12)
        assert stats.total("newton_solves") > 0
        assert stats.total("newton_iterations") >= stats.total(
            "newton_solves")
        assert stats.phase_s.get("newton", 0.0) > 0.0
        assert stats.total("adaptive_runs") == 0

    def test_adaptive_transient_counts_steps(self):
        from repro.spice import run_transient
        with stats_scope() as stats:
            run_transient(self._rc(), 2e-9, 20e-12, adaptive=True)
        assert stats.total("adaptive_runs") == 1
        assert stats.total("adaptive_accepted") > 0

    def test_batched_transient_attributes_per_sample(self):
        from repro.spice import run_transient_batch
        circuits = [self._rc() for _ in range(3)]
        with stats_scope() as stats:
            run_transient_batch(circuits, 2e-9, 20e-12)
        assert sorted(stats.samples) == [0, 1, 2]
        per_sample = [stats.samples[row]["newton_iterations"]
                      for row in range(3)]
        assert all(n > 0 for n in per_sample)
        assert sum(per_sample) == stats.total("newton_iterations")
        per_solves = [stats.samples[row]["newton_solves"]
                      for row in range(3)]
        assert sum(per_solves) == stats.total("newton_solves")
