"""The campaign runner: executor + cache + checkpoint + telemetry.

:class:`Runtime` is the facade the experiment drivers use.  It maps a
module-level task function over a list of picklable payloads and

* skips tasks whose content-addressed key is already in the result
  cache (repeated figure regenerations, overlapping resistance sweeps,
  resumed campaigns);
* dispatches the rest through the configured executor backend;
* persists each fresh result and periodically checkpoints a manifest so
  an interrupted campaign resumes from completed samples;
* folds everything into a :class:`~repro.runtime.telemetry.RunReport`.

Results are placed by task index, so campaign output is bit-identical
between the serial and process-pool backends.
"""

import functools
import os

from .cache import CacheMiss, ResultCache
from .chaos import ChaosConfig
from .checkpoint import CampaignCheckpoint
from .executors import (FAILED, ProcessPoolExecutor, SerialExecutor,
                        default_n_jobs)
from .hashing import stable_hash
from .telemetry import RunReport
from .trace import TraceWriter

#: default on-disk cache location (overridden by ``REPRO_CACHE_DIR``)
DEFAULT_CACHE_DIR = ".repro_cache"

#: samples per lockstep batch in :meth:`Runtime.run_batched`; one chunk
#: is one executor task, so this is also the parallel dispatch grain
DEFAULT_BATCH_SIZE = 32


def check_batch_size(batch_size):
    """``batch_size`` as an int; ``ValueError`` unless it is a positive
    whole number."""
    if int(batch_size) != batch_size or batch_size < 1:
        raise ValueError("batch_size must be a positive integer, got {!r}"
                         .format(batch_size))
    return int(batch_size)


def engine_cache_tag(batch_size=1, adaptive=False):
    """Cache-key tag tuple for the simulation-engine configuration.

    Results from different engines or time-grid disciplines agree only
    to tolerance, never bit-exactly, so their cached rows must not
    alias.  One sample per task runs the scalar Newton and contributes
    no engine token; ``batch_size > 1`` runs chunks on the lockstep
    engine and adds ``engine=batched``.  The adaptive grid adds
    ``grid=adaptive``.  The Newton policy is decided in
    :mod:`repro.spice` alone, and every tag ends with its token.
    """
    # imported here: repro.spice imports repro.runtime.stats at load time
    from ..spice.transient import NEWTON_CACHE_TOKEN

    tag = []
    if batch_size > 1:
        tag.append("engine=batched")
    if adaptive:
        tag.append("grid=adaptive")
    # one policy now; the token stays so pre-existing keys still match
    tag.append(NEWTON_CACHE_TOKEN)
    return tuple(tag)


def _map_payloads(fn, payloads):
    """Chunk task of :meth:`Runtime.run`: ``fn`` over each payload."""
    return [fn(payload) for payload in payloads]


class CampaignRun:
    """Outcome of one :meth:`Runtime.run` or :meth:`Runtime.run_batched`
    call."""

    def __init__(self, values, errors, report):
        #: per-task values; failed slots hold the ``FAILED`` sentinel
        self.values = list(values)
        #: ``{index: exception}`` for failed tasks
        self.errors = dict(errors)
        self.report = report

    def ok_values(self):
        return [v for v in self.values if v is not FAILED]

    def value_or_none(self, index):
        value = self.values[index]
        return None if value is FAILED else value

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return "CampaignRun({} tasks, {} failed)".format(
            len(self.values), len(self.errors))


class Runtime:
    """Campaign execution runtime.

    Parameters
    ----------
    executor:
        An executor backend (default: :class:`SerialExecutor`).
    cache:
        A :class:`ResultCache` (or path string), or None to disable
        result caching and checkpointing.
    checkpoint_every:
        Completed tasks between manifest writes.
    trace:
        A :class:`~repro.runtime.trace.TraceWriter` (or path string) to
        append one JSONL event per executed task, or None (default) to
        disable tracing.
    chaos:
        A :class:`~repro.runtime.chaos.ChaosConfig` (or spec string such
        as ``"kill=0.2,corrupt=0.1,seed=7"``) enabling deterministic
        fault injection: worker kills/hangs are shipped to a process
        pool executor, cache corruption is applied right after each
        ``put``.  The serial backend is never disturbed — it is the
        reference a chaos campaign's results are compared against.
    """

    def __init__(self, executor=None, cache=None, checkpoint_every=8,
                 trace=None, chaos=None):
        self.executor = SerialExecutor() if executor is None else executor
        if isinstance(cache, str):
            cache = ResultCache(cache)
        self.cache = cache
        self.checkpoint_every = checkpoint_every
        if isinstance(trace, str):
            trace = TraceWriter(trace)
        self.trace = trace
        if isinstance(chaos, str):
            chaos = ChaosConfig.parse(chaos)
        self.chaos = chaos
        if chaos is not None and hasattr(self.executor, "chaos"):
            self.executor.chaos = chaos

    # ------------------------------------------------------------------

    @classmethod
    def from_env(cls, jobs=None, cache_dir=None, timeout=None, retries=1,
                 checkpoint_every=8, trace=None, chaos=None):
        """Build a runtime from ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``.

        ``jobs=None`` reads ``REPRO_JOBS`` (unset: serial); ``jobs=0``
        means "all CPUs".  ``cache_dir=None`` reads ``REPRO_CACHE_DIR``
        (unset: caching disabled).  ``trace=None`` reads ``REPRO_TRACE``
        (unset: tracing disabled).  ``chaos=None`` reads ``REPRO_CHAOS``
        (unset: no fault injection).
        """
        if jobs is None:
            env = os.environ.get("REPRO_JOBS")
            jobs = int(env) if env else 1
        jobs = default_n_jobs() if jobs == 0 else max(1, int(jobs))
        if jobs > 1:
            executor = ProcessPoolExecutor(n_jobs=jobs, timeout=timeout,
                                           retries=retries)
        else:
            executor = SerialExecutor(retries=retries)
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR")
        cache = ResultCache(cache_dir) if cache_dir else None
        if trace is None:
            trace = os.environ.get("REPRO_TRACE") or None
        if chaos is None:
            chaos = ChaosConfig.from_env()
        return cls(executor=executor, cache=cache,
                   checkpoint_every=checkpoint_every, trace=trace,
                   chaos=chaos)

    @classmethod
    def from_config(cls, config):
        """Runtime described by an ``ExperimentConfig``-like object."""
        return cls.from_env(jobs=getattr(config, "n_jobs", None),
                            cache_dir=getattr(config, "cache_dir", None),
                            trace=getattr(config, "trace", None))

    @property
    def parallel(self):
        return getattr(self.executor, "n_jobs", 1) > 1

    # ------------------------------------------------------------------
    # Trace sink
    # ------------------------------------------------------------------

    def _trace_chunk(self, label, chunk, keys, outcome):
        """Emit one ``task`` event per *item* of an executed chunk.

        Each item carries its own slice of the chunk's effort: the
        per-sample attribution recorded by the lockstep engine (rows in
        the chunk's stats snapshot) and an equal share of the chunk's
        wall time.  A one-item chunk's item carries the whole snapshot.
        """
        if self.trace is None:
            return
        samples = (outcome.stats or {}).get("samples") or {}
        shared = dict(outcome.stats or {})
        shared.pop("samples", None)
        share = outcome.duration / max(1, len(chunk))
        for position, index in enumerate(chunk):
            if len(chunk) == 1:
                stats = outcome.stats
            else:
                per_item = samples.get(position)
                stats = ({"counters": per_item} if per_item is not None
                         else None)
            self.trace.emit({
                "event": "task",
                "label": label,
                "index": index,
                "key": keys[index] if keys is not None else None,
                "ok": outcome.ok,
                "error": outcome.error_type,
                "duration_s": share,
                "retries": outcome.retries,
                "crashes": outcome.crashes,
                "stats": stats,
                "chunk": outcome.index,
                "chunk_size": len(chunk),
                "chunk_stats": shared if position == 0 else None,
            })

    def _trace_report(self, report):
        if self.trace is None:
            return
        self.trace.emit({"event": "report", "label": report.label,
                         "summary": report.summary()})

    # ------------------------------------------------------------------

    def _scan_cache(self, keys, values, n, label, report, settle):
        """Fill ``values`` from the cache; returns (checkpoint, pending).

        ``pending`` holds the indices whose key missed (all indices when
        caching is disabled); ``checkpoint`` is None without a cache.
        """
        pending = list(range(n))
        if self.cache is None or keys is None:
            return None, pending
        if len(keys) != n:
            raise ValueError("need one cache key per payload")
        campaign_key = stable_hash("campaign", label, list(keys))
        checkpoint = CampaignCheckpoint(
            campaign_key, root=self.cache.root,
            every=self.checkpoint_every)
        previously = checkpoint.load()
        checkpoint.n_tasks = n
        pending = []
        for index, key in enumerate(keys):
            try:
                values[index] = self.cache.get(key)
            except CacheMiss:
                pending.append(index)
                continue
            report.record_hit(resumed=key in previously)
            checkpoint.mark_done(key)
            settle()
        return checkpoint, pending

    def _robustness_baseline(self):
        """Snapshot the cumulative fault counters before a run.

        ``pool_rebuilds`` lives on the (long-lived, shareable) executor
        and ``quarantined`` on the cache; a report must book only this
        run's delta, not every run's history.
        """
        return (getattr(self.executor, "pool_rebuilds", 0),
                self.cache.quarantined if self.cache is not None else 0)

    def _fold_robustness(self, report, baseline):
        rebuilds, quarantined = baseline
        report.pool_rebuilds += (
            getattr(self.executor, "pool_rebuilds", 0) - rebuilds)
        if self.cache is not None:
            report.cache_quarantined += (
                self.cache.quarantined - quarantined)

    def _chaos_corrupt(self, key):
        """Chaos hook: maybe clobber the object just written for ``key``
        (exercises the corrupt-cache quarantine path on the next read)."""
        if (self.chaos is not None and self.cache is not None
                and self.chaos.should_corrupt(key)):
            self.chaos.corrupt_object(self.cache, key)

    def run(self, fn, payloads, keys=None, label="campaign",
            report=None, progress=None):
        """Map ``fn`` over ``payloads``; returns a :class:`CampaignRun`.

        One payload per task: :meth:`run_batched` over one-payload
        chunks.  ``keys`` enables caching/checkpointing: one stable
        cache key per payload (see
        :func:`repro.runtime.hashing.stable_hash`).  ``progress(done,
        total)`` is invoked after every settled task.
        """
        return self.run_batched(functools.partial(_map_payloads, fn),
                                payloads, keys=keys, batch_size=1,
                                label=label, report=report,
                                progress=progress)

    def run_batched(self, fn, payloads, keys=None, batch_size=None,
                    label="campaign", report=None, progress=None):
        """Map a *chunk* task over ``payloads`` in lockstep batches.

        ``fn`` receives a **list** of payloads and must return a list of
        values of the same length (the batched-engine contract: one
        worker invocation simulates a whole chunk of samples in
        lockstep).  Each chunk is one executor task, so this composes
        with the process pool — chunks fan out over workers while the
        batched engine vectorises within each.  Cache and checkpoint
        granularity stays **per item**: cached items never re-enter a
        chunk, and every item of a completed chunk is persisted under
        its own key.  A failed chunk marks all of its items failed.
        ``batch_size`` (default :data:`DEFAULT_BATCH_SIZE`) must be a
        positive integer.
        """
        payloads = list(payloads)
        n = len(payloads)
        batch_size = check_batch_size(
            DEFAULT_BATCH_SIZE if batch_size is None else batch_size)
        report = RunReport(label) if report is None else report
        report.start(self.executor)
        values = [FAILED] * n
        errors = {}
        done = [0]

        def settle(count=1):
            done[0] += count
            if progress is not None:
                progress(done[0], n)

        robustness = self._robustness_baseline()
        checkpoint, pending = self._scan_cache(keys, values, n, label,
                                               report, settle)
        chunks = [pending[i:i + batch_size]
                  for i in range(0, len(pending), batch_size)]

        def unpack(outcome):
            """Chunk values, or an exception when the chunk is unusable."""
            chunk = chunks[outcome.index]
            if not outcome.ok:
                return outcome.error()
            chunk_values = outcome.value
            if (not isinstance(chunk_values, (list, tuple))
                    or len(chunk_values) != len(chunk)):
                return ValueError(
                    "chunk task returned {} values for {} payloads".format(
                        len(chunk_values) if isinstance(
                            chunk_values, (list, tuple)) else
                        type(chunk_values).__name__, len(chunk)))
            return list(chunk_values)

        def on_result(outcome):
            chunk = chunks[outcome.index]
            unpacked = unpack(outcome)
            if (isinstance(unpacked, list) and self.cache is not None
                    and keys is not None):
                for index, value in zip(chunk, unpacked):
                    self.cache.put(keys[index], value)
                    self._chaos_corrupt(keys[index])
                    checkpoint.mark_done(keys[index])
            self._trace_chunk(label, chunk, keys, outcome)
            settle(len(chunk))

        try:
            if chunks:
                outcomes = self.executor.map_tasks(
                    fn, [[payloads[i] for i in chunk] for chunk in chunks],
                    on_result=on_result)
                for outcome in outcomes:
                    chunk = chunks[outcome.index]
                    # A chunk is an executor artifact, not a campaign
                    # unit: book its effort per item so batched and
                    # scalar campaigns report comparable task counts.
                    report.record_outcome(outcome, n_items=len(chunk))
                    unpacked = unpack(outcome)
                    if isinstance(unpacked, list):
                        for index, value in zip(chunk, unpacked):
                            values[index] = value
                    else:
                        for index in chunk:
                            errors[index] = unpacked
        finally:
            if checkpoint is not None:
                checkpoint.flush()
            self._fold_robustness(report, robustness)
            report.finish()
        self._trace_report(report)
        return CampaignRun(values, errors, report)
