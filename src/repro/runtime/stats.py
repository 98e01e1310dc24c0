"""Context-scoped solver instrumentation.

Solver effort used to be tracked in module-global mutable dicts.
Globals lose information in exactly the situations the campaign
runtime cares about: counters incremented inside worker processes
never travel back to the parent's
:class:`~repro.runtime.telemetry.RunReport`, two concurrent scopes in
one process clobber each other's deltas, and a lockstep batch lumps a
whole chunk's effort into one number with no per-sample attribution.

This module replaces them with an explicit collector:

* :class:`SolverStats` — a plain counter record (Newton solves and
  iterations, adaptive accepted/rejected steps, gmin-ladder retries,
  ATPG search effort, per-phase timings, and an optional per-sample
  attribution table for the batched engine).
* :func:`stats_scope` — a nestable ``contextvars``-backed scope.  Code
  on the solver hot path records into :func:`current_stats`, which is
  the innermost open scope (or the process-root collector when none is
  open).  When a scope exits, its counters fold into the enclosing
  scope, so totals are conserved all the way up to the root.

The executor opens one scope per campaign task
(:func:`repro.runtime.executors._execute_one`) and ships the snapshot
back across the process boundary on the
:class:`~repro.runtime.executors.TaskOutcome`.
"""

import contextvars
import threading
import time
from contextlib import contextmanager

import numpy as np

#: every counter a :class:`SolverStats` tracks
COUNTER_NAMES = (
    "newton_solves",
    "newton_iterations",
    "adaptive_runs",
    "adaptive_accepted",
    "adaptive_rejected",
    "ladder_retries",
    # path-sensitization ATPG (repro.logic.atpg.sensitize_path)
    "atpg_sensitizations",
    "atpg_backtracks",
    "atpg_gate_evaluations",
)

#: counters the batched engine attributes per sample row
SAMPLE_COUNTER_NAMES = ("newton_solves", "newton_iterations")

#: queued lockstep solves :meth:`SolverStats.count_rows` folds at once
#: (bounds the queue's memory; folding costs one pass over the rows)
_FOLD_EVERY = 256

#: guards cross-thread merges into a shared parent (scope exits are rare
#: — once per task — so a single module lock costs nothing)
_MERGE_LOCK = threading.Lock()


class SolverStats:
    """One collector's worth of solver-effort counters.

    ``samples`` maps a batch row index to its share of the effort; the
    batched engine fills it so chunk tasks can be re-attributed per
    item.  It is *scope-local*: :meth:`merge` deliberately folds only
    the totals, because row indices from different chunks would collide.
    """

    __slots__ = ("counters", "phase_s", "_samples", "_pending_rows")

    def __init__(self):
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.phase_s = {}
        self._samples = {}
        #: ``(rows, iterations)`` arrays of lockstep solves booked by
        #: :meth:`count_rows` and not yet folded into :attr:`samples`
        self._pending_rows = []

    @property
    def samples(self):
        """``{row: {counter: amount}}``, the per-row attribution."""
        if self._pending_rows:
            self._fold_rows()
        return self._samples

    # -- recording -----------------------------------------------------

    def count(self, name, amount=1):
        """Increment counter ``name`` (unknown names raise KeyError)."""
        self.counters[name] = self.counters[name] + amount

    def count_sample(self, row, name, amount=1):
        """Attribute ``amount`` of counter ``name`` to batch row ``row``."""
        record = self._samples.get(int(row))
        if record is None:
            record = dict.fromkeys(SAMPLE_COUNTER_NAMES, 0)
            self._samples[int(row)] = record
        record[name] = record[name] + amount

    def count_rows(self, rows, iterations):
        """Attribute one lockstep Newton solve to each population row
        ``rows[j]``, with ``iterations[j]`` iterations.

        The arrays are queued, not looped over, so a solve books its
        ledger at a cost that does not grow with the population; they
        fold into :attr:`samples` when it is read, or in bulk once
        ``_FOLD_EVERY`` solves are queued.
        """
        self._pending_rows.append((np.array(rows), np.array(iterations)))
        if len(self._pending_rows) >= _FOLD_EVERY:
            self._fold_rows()

    def _fold_rows(self):
        pending, self._pending_rows = self._pending_rows, []
        rows = np.concatenate([r for r, _ in pending])
        solves = np.bincount(rows)
        # float sums of integer counts stay exact below 2**53
        iterations = np.bincount(
            rows, weights=np.concatenate([i for _, i in pending]))
        for row in np.flatnonzero(solves).tolist():
            self.count_sample(row, "newton_solves", int(solves[row]))
            self.count_sample(row, "newton_iterations",
                              int(iterations[row]))

    def add_phase(self, name, seconds):
        """Accumulate wall time under phase ``name``.

        Phases may nest (the gmin ladder's Newton solves count under
        both ``"newton"`` and ``"ladder"``), so phase times are a
        breakdown, not a partition of the task duration.
        """
        self.phase_s[name] = self.phase_s.get(name, 0.0) + float(seconds)

    @contextmanager
    def phase(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)

    # -- folding / transport -------------------------------------------

    def merge(self, other):
        """Fold another collector (or a :meth:`snapshot` dict) in.

        Only totals and phase timings travel; per-sample attribution
        stays with the scope that recorded it (see class docstring).
        """
        if isinstance(other, SolverStats):
            counters, phase_s = other.counters, other.phase_s
        else:
            counters = other.get("counters", {})
            phase_s = other.get("phase_s", {})
        with _MERGE_LOCK:
            for name, amount in counters.items():
                if amount:
                    self.counters[name] = (
                        self.counters.get(name, 0) + amount)
            for name, seconds in phase_s.items():
                if seconds:
                    self.phase_s[name] = (
                        self.phase_s.get(name, 0.0) + seconds)
        return self

    def snapshot(self):
        """Picklable plain-dict copy (travels on ``TaskOutcome``)."""
        return {
            "counters": dict(self.counters),
            "phase_s": dict(self.phase_s),
            "samples": {row: dict(rec)
                        for row, rec in self.samples.items()},
        }

    def total(self, name):
        return self.counters.get(name, 0)

    def __repr__(self):
        active = {k: v for k, v in self.counters.items() if v}
        return "SolverStats({})".format(active or "empty")


#: process-root collector — the sink of last resort when no scope is
#: open, and the transitive destination of every closed scope's totals
_ROOT = SolverStats()

_SCOPE = contextvars.ContextVar("repro_solver_stats")


def root_stats():
    """The process-root collector (every closed scope's totals end here)."""
    return _ROOT


def current_stats():
    """The innermost open scope's collector, or the process root."""
    return _SCOPE.get(_ROOT)


@contextmanager
def stats_scope(stats=None):
    """Open a nested instrumentation scope.

    Everything recorded while the scope is active lands on its
    collector only; on exit the totals fold into the enclosing scope
    (ultimately the process root), so outer observers still see the
    effort — just not while it is being attributed elsewhere.
    """
    stats = SolverStats() if stats is None else stats
    token = _SCOPE.set(stats)
    try:
        yield stats
    finally:
        _SCOPE.reset(token)
        current_stats().merge(stats)


@contextmanager
def rows_booked_to(owners):
    """Book the per-row ledger of the populations run in the block to
    their owners: row ``r`` counts for ``owners[r]`` in the enclosing
    scope's ``samples`` (totals fold as for any :func:`stats_scope`).

    A chunk task that runs several rows per item books each population
    row to its item, so the runtime's per-item trace attribution holds.
    """
    with stats_scope() as block:
        yield block
    enclosing = current_stats()
    for row, counters in block.samples.items():
        for name, amount in counters.items():
            enclosing.count_sample(owners[row], name, amount)


def record(name, amount=1):
    """Increment ``name`` on the active collector (hot-path helper)."""
    current_stats().count(name, amount)
