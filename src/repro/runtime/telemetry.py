"""Run telemetry: per-sample timing, solver effort, failure taxonomy.

Every campaign produces a :class:`RunReport` — the observable record of
what the runtime did: how many tasks ran vs. came from the cache, how
long each took, how much solver effort each burned (Newton solves and
iterations, adaptive accepted/rejected steps, gmin-ladder retries,
per-phase timings, ATPG sensitizations, backtracks and implication
gate evaluations) and which exception classes failures fell into.
Solver counters arrive as context-scoped snapshots on each
:class:`~repro.runtime.executors.TaskOutcome` (recorded in the worker,
shipped across the process boundary), so serial and process-pool runs
of the same campaign report identical totals.  The report serialises to
JSON so benchmark harnesses and CI can track the numbers across PRs.
"""

import json
import time
from collections import Counter

from .schema import SCHEMA_VERSION, check_schema_version
from .stats import SolverStats


def _median(sorted_values):
    """True median of an ascending list (mean of the middle pair when
    the length is even — ``values[n // 2]`` alone is the *upper* middle
    element and overstates the typical task on even-length runs)."""
    n = len(sorted_values)
    if n == 0:
        return None
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return 0.5 * (sorted_values[mid - 1] + sorted_values[mid])


class RunReport:
    """Telemetry for one campaign execution."""

    def __init__(self, label="campaign"):
        self.label = label
        self.cache_hits = 0
        self.cache_misses = 0
        self.completed = 0
        self.failed = 0
        self.timeouts = 0
        self.retries = 0
        self.resumed = 0
        #: worker deaths observed (including crashes later recovered by
        #: a retry — the final outcome carries the cumulative count)
        self.worker_crashes = 0
        #: tasks quarantined as poison (repeat crashers / hangs)
        self.poisoned = 0
        #: executor pool respawns after a fault or timeout reclaim
        self.pool_rebuilds = 0
        #: corrupt cache objects set aside and recomputed
        self.cache_quarantined = 0
        #: per-executed-task wall-clock durations (seconds); batched
        #: chunks contribute one entry per *item* (chunk time / items)
        self.durations = []
        #: aggregated solver effort across every executed task
        self.solver = SolverStats()
        #: escalation waves folded into this report (adaptive-precision
        #: campaigns submit one :meth:`Runtime.run_batched` call per
        #: wave)
        self.waves = 0
        #: ``{exception class name: count}``
        self.failure_taxonomy = Counter()
        self._t_start = None
        self.wall_time = 0.0
        self.executor = None

    # ------------------------------------------------------------------

    def start(self, executor=None):
        self._t_start = time.perf_counter()
        if executor is not None:
            self.executor = repr(executor)
        return self

    def finish(self):
        """Close the current phase; wall time accumulates so one report
        can span several runtime phases (calibration + sweeps)."""
        if self._t_start is not None:
            self.wall_time += time.perf_counter() - self._t_start
            self._t_start = None
        return self

    def record_hit(self, resumed=False):
        self.cache_hits += 1
        if resumed:
            self.resumed += 1

    def record_wave(self, count=1):
        """Book ``count`` escalation waves (sequential-allocation runs
        folded into this report by an adaptive-precision campaign)."""
        self.waves += count

    def record_outcome(self, outcome, n_items=1):
        """Fold one executor :class:`TaskOutcome` into the counters.

        ``n_items`` re-attributes a chunk task of the batched engine to
        the items it packs together: task counts, failure taxonomy and
        durations are booked per item (each item charged an equal share
        of the chunk's wall time), while solver counters fold once from
        the outcome's stats snapshot so totals stay exact.
        """
        n_items = max(1, int(n_items))
        self.cache_misses += n_items
        share = outcome.duration / n_items
        self.durations.extend([share] * n_items)
        self.retries += outcome.retries
        # worker deaths are booked even when a retry recovered the task
        # (the final ok outcome carries the cumulative crash count) — a
        # crash that happened must not disappear from the record
        self.worker_crashes += getattr(outcome, "crashes", 0)
        if outcome.stats:
            self.solver.merge(outcome.stats)
        if outcome.ok:
            self.completed += n_items
        else:
            self.failed += n_items
            self.failure_taxonomy[outcome.error_type] += n_items
            if outcome.timed_out:
                self.timeouts += n_items
            if getattr(outcome, "poisoned", False):
                self.poisoned += n_items

    # ------------------------------------------------------------------

    @property
    def n_tasks(self):
        return self.cache_hits + self.cache_misses

    @property
    def newton_solves(self):
        return self.solver.total("newton_solves")

    @property
    def newton_iterations(self):
        return self.solver.total("newton_iterations")

    @property
    def adaptive_runs(self):
        return self.solver.total("adaptive_runs")

    @property
    def adaptive_accepted(self):
        return self.solver.total("adaptive_accepted")

    @property
    def adaptive_rejected(self):
        return self.solver.total("adaptive_rejected")

    @property
    def ladder_retries(self):
        return self.solver.total("ladder_retries")

    @property
    def lu_factorizations(self):
        return self.solver.total("lu_factorizations")

    @property
    def lu_reuses(self):
        return self.solver.total("lu_reuses")

    @property
    def devices_bypassed(self):
        return self.solver.total("devices_bypassed")

    @property
    def bypass_forced_exact(self):
        return self.solver.total("bypass_forced_exact")

    @property
    def atpg_sensitizations(self):
        return self.solver.total("atpg_sensitizations")

    @property
    def atpg_backtracks(self):
        return self.solver.total("atpg_backtracks")

    @property
    def atpg_gate_evaluations(self):
        return self.solver.total("atpg_gate_evaluations")

    def samples_per_second(self):
        """Completed-task throughput over the campaign's wall clock.

        Only tasks that produced a result count — failed and timed-out
        tasks are reported separately (``failed``/``timeouts``), not
        laundered into the throughput figure.
        """
        if self.wall_time <= 0.0:
            return 0.0
        return self.completed / self.wall_time

    def summary(self):
        durations = sorted(self.durations)
        return {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "executor": self.executor,
            "n_tasks": self.n_tasks,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "poisoned": self.poisoned,
            "pool_rebuilds": self.pool_rebuilds,
            "cache_quarantined": self.cache_quarantined,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resumed": self.resumed,
            "waves": self.waves,
            "wall_time_s": self.wall_time,
            "samples_per_second": self.samples_per_second(),
            "task_time_total_s": sum(durations),
            "task_time_median_s": _median(durations),
            "task_time_max_s": durations[-1] if durations else None,
            "newton_solves": self.newton_solves,
            "newton_iterations": self.newton_iterations,
            "adaptive_runs": self.adaptive_runs,
            "adaptive_accepted": self.adaptive_accepted,
            "adaptive_rejected": self.adaptive_rejected,
            "ladder_retries": self.ladder_retries,
            "lu_factorizations": self.lu_factorizations,
            "lu_reuses": self.lu_reuses,
            "devices_bypassed": self.devices_bypassed,
            "bypass_forced_exact": self.bypass_forced_exact,
            "atpg_sensitizations": self.atpg_sensitizations,
            "atpg_backtracks": self.atpg_backtracks,
            "atpg_gate_evaluations": self.atpg_gate_evaluations,
            "solver_phase_s": dict(self.solver.phase_s),
            "failure_taxonomy": dict(self.failure_taxonomy),
        }

    def to_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.summary(), handle, indent=2, sort_keys=True)
        return path

    @staticmethod
    def load_summary(path):
        """Read back a :meth:`to_json` summary, validating its schema.

        Raises :class:`~repro.runtime.schema.SchemaVersionError` when
        the stored record comes from an unknown schema major.
        """
        with open(path) as handle:
            return check_schema_version(json.load(handle),
                                        what="run report " + str(path))

    def format_report(self):
        """Human-readable multi-line summary (CLI output)."""
        s = self.summary()
        lines = [
            "run report [{}]".format(self.label),
            "  tasks: {} ({} executed, {} cache hits, {} failed)".format(
                s["n_tasks"], s["cache_misses"], s["cache_hits"],
                s["failed"]),
            "  wall time: {:.2f}s ({:.2f} completed samples/s)".format(
                s["wall_time_s"], s["samples_per_second"]),
        ]
        if self.resumed:
            lines.insert(2, "  resumed: {} of {} tasks".format(
                s["resumed"], s["n_tasks"]))
        if self.executor:
            lines.insert(1, "  executor: {}".format(self.executor))
        if self.newton_solves:
            newton = "  newton: {} solves, {} iterations".format(
                s["newton_solves"], s["newton_iterations"])
            if self.ladder_retries:
                newton += ", {} ladder retries".format(s["ladder_retries"])
            lines.append(newton)
        if self.adaptive_runs:
            lines.append(
                "  adaptive: {} accepted / {} rejected steps in {} runs"
                .format(s["adaptive_accepted"], s["adaptive_rejected"],
                        s["adaptive_runs"]))
        if self.lu_factorizations or self.lu_reuses:
            lines.append(
                "  fast path: {} LU factorizations, {} reuses, "
                "{} devices bypassed".format(
                    s["lu_factorizations"], s["lu_reuses"],
                    s["devices_bypassed"]))
        if self.atpg_sensitizations:
            lines.append(
                "  atpg: {} sensitizations, {} backtracks, "
                "{} implication gate evaluations".format(
                    s["atpg_sensitizations"], s["atpg_backtracks"],
                    s["atpg_gate_evaluations"]))
        if s["solver_phase_s"]:
            lines.append("  solver phases: " + ", ".join(
                "{} {:.2f}s".format(name, seconds)
                for name, seconds in sorted(s["solver_phase_s"].items())))
        if self.failed:
            taxonomy = ", ".join(
                "{}x{}".format(count, name)
                for name, count in sorted(self.failure_taxonomy.items()))
            lines.append("  failures: {} ({}), {} timeouts, {} retries"
                         .format(s["failed"], taxonomy, s["timeouts"],
                                 s["retries"]))
        if (self.worker_crashes or self.poisoned or self.pool_rebuilds
                or self.cache_quarantined):
            lines.append(
                "  robustness: {} worker crashes, {} poisoned, "
                "{} pool rebuilds, {} cache quarantined".format(
                    s["worker_crashes"], s["poisoned"],
                    s["pool_rebuilds"], s["cache_quarantined"]))
        return "\n".join(lines)

    def __repr__(self):
        return ("RunReport({!r}, {} tasks, {} hits, {} failed)"
                .format(self.label, self.n_tasks, self.cache_hits,
                        self.failed))
