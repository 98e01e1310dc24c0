"""Executor backends for campaign tasks.

A *task* is ``fn(payload)`` where ``fn`` is a module-level callable and
``payload`` is picklable; both constraints only matter for the process
pool (the serial backend also accepts closures).  Executors return
:class:`TaskOutcome` records aligned with the payload list, so result
ordering never depends on worker scheduling — a prerequisite for
bit-identical serial/parallel campaigns.

The process backend wraps :class:`concurrent.futures.ProcessPoolExecutor`
with chunked dispatch, a per-task timeout and bounded retry, and it
survives the pathologies production actually sees:

* a worker killed mid-chunk (OOM, segfault) breaks the whole stdlib
  pool — the backend books honest ``WorkerCrash`` outcomes for the
  chunks that were running, rebuilds the pool, and re-dispatches only
  the chunks that never ran (a pool fault is not a task fault);
* a task that keeps crashing the pool is quarantined as a
  ``PoisonTask`` after ``crash_quarantine`` crashes instead of taking
  the campaign down with it on every retry;
* a hung solve's expired chunk triggers actual worker termination and
  a pool respawn, so the slot is reclaimed *mid-round* instead of
  limping one worker short until the round ends;
* a task that times out ``timeout_quarantine`` times is treated as a
  deterministic hang and quarantined, so retries stop burning
  ``retries x timeout`` of wall-clock on it;
* retry rounds are separated by exponential backoff with deterministic
  seeded jitter (transient resource exhaustion gets time to clear).

The failure taxonomy on outcomes is ``crashed`` / ``timed_out`` /
``poisoned`` (plus ordinary task exceptions); all three travel through
:class:`~repro.runtime.telemetry.RunReport` and the JSONL trace.
"""

import concurrent.futures
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures.process import BrokenProcessPool

from .stats import stats_scope


#: seconds between a pool worker's checks that its parent is alive
PARENT_POLL_S = 0.25


class _FailedSentinel:
    """Marks a sample slot whose evaluation failed (vs. a legitimate
    ``None`` result)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<FAILED>"

    def __reduce__(self):
        return (_FailedSentinel, ())


#: singleton placed in result slots of failed/timed-out samples
FAILED = _FailedSentinel()


class WorkerError(RuntimeError):
    """A task failed in a worker process.

    Carries the original exception's class name and message (the
    exception object itself may not survive pickling back from the
    worker).
    """

    def __init__(self, error_type, message):
        super().__init__("{}: {}".format(error_type, message))
        self.error_type = error_type
        self.error_message = message


class TaskTimeout(WorkerError):
    """A task exceeded the executor's per-task timeout."""

    def __init__(self, seconds):
        super().__init__("TaskTimeout",
                         "no result within {:.1f}s".format(seconds))
        self.seconds = seconds


class WorkerCrash(WorkerError):
    """A worker process died (OOM, segfault, hard kill) mid-chunk.

    Distinct from a task raising: the task never produced an outcome —
    its worker vanished and the stdlib pool broke.  The executor
    rebuilds the pool and retries the task within its retry budget.
    """

    def __init__(self, message="worker process died mid-chunk"):
        super().__init__("WorkerCrash", message)


class PoisonTask(WorkerError):
    """A task was quarantined after repeatedly crashing or hanging.

    Poisoned tasks are excluded from further retry rounds: one
    deterministically-lethal input must not keep killing workers or
    burning ``retries x timeout`` of wall-clock for the whole campaign.
    """

    def __init__(self, message="task quarantined as poison"):
        super().__init__("PoisonTask", message)


def backoff_schedule(base, rounds, seed=0):
    """Per-retry-round sleep schedule: exponential with seeded jitter.

    Round ``r`` (0-based) waits ``base * 2**r`` scaled by a jitter
    factor drawn uniformly from [0.5, 1.5) — deterministic in ``seed``
    so identical campaigns back off identically (reproducible wall
    clocks in tests) while distinct seeds decorrelate retry storms
    across concurrent campaigns.
    """
    rng = random.Random(seed)
    return [base * (2.0 ** r) * (0.5 + rng.random())
            for r in range(max(0, int(rounds)))]


class TaskOutcome:
    """Result record for one task (picklable).

    ``stats`` is the full solver-effort snapshot of the task's
    instrumentation scope (see :mod:`repro.runtime.stats`): Newton
    solves/iterations, adaptive accepted/rejected steps, ladder
    retries, per-phase timings and — for chunk tasks of the batched
    engine — a per-sample attribution table.  It is recorded in the
    worker and travels back across the process boundary with the
    result, so parallel campaigns report the same counters as serial
    ones.

    ``crashes`` counts how many times this task's worker died across
    all rounds (nonzero even on a final ``ok`` outcome — a recovered
    crash still happened and the report books it); ``crashed`` /
    ``poisoned`` mark the final state itself.
    """

    __slots__ = ("index", "value", "error_type", "error_message",
                 "duration", "retries", "timed_out", "stats",
                 "crashed", "poisoned", "crashes")

    def __init__(self, index, value=None, error_type=None,
                 error_message=None, duration=0.0, retries=0,
                 timed_out=False, stats=None, crashed=False,
                 poisoned=False, crashes=0):
        self.index = index
        self.value = value
        self.error_type = error_type
        self.error_message = error_message
        self.duration = duration
        self.retries = retries
        self.timed_out = timed_out
        self.stats = stats
        self.crashed = crashed
        self.poisoned = poisoned
        self.crashes = crashes

    def _counter(self, name):
        if not self.stats:
            return 0
        return self.stats.get("counters", {}).get(name, 0)

    @property
    def newton_solves(self):
        return self._counter("newton_solves")

    @property
    def newton_iterations(self):
        return self._counter("newton_iterations")

    @property
    def ok(self):
        return self.error_type is None

    def error(self):
        """The failure as an exception object (None when ok)."""
        if self.ok:
            return None
        if self.poisoned:
            return PoisonTask(self.error_message)
        if self.timed_out:
            return TaskTimeout(self.duration)
        if self.crashed:
            return WorkerCrash(self.error_message)
        return WorkerError(self.error_type, self.error_message)

    def __repr__(self):
        state = "ok" if self.ok else self.error_type
        return "TaskOutcome({}, {}, {:.3f}s)".format(
            self.index, state, self.duration)


def _execute_one(fn, payload, index, chaos=None, attempt=0):
    """Run one task inside its own instrumentation scope.

    The scope isolates this task's solver effort from everything else
    in the process (no global diffing, so concurrent tasks cannot
    clobber each other's counters); the snapshot rides back on the
    outcome and the scope's totals still fold into the enclosing scope
    (ultimately the process root).

    ``chaos`` (a :class:`~repro.runtime.chaos.ChaosConfig`) may kill
    this worker or stall the task *before* any work happens, so an
    injected fault never leaks a half-computed result.
    """
    if chaos is not None:
        chaos.maybe_kill(index, attempt)
        chaos.maybe_hang(index, attempt)
    start = time.perf_counter()
    with stats_scope() as stats:
        try:
            value = fn(payload)
        except Exception as exc:  # noqa: BLE001 - taxonomy to caller
            return TaskOutcome(
                index, error_type=type(exc).__name__,
                error_message=str(exc),
                duration=time.perf_counter() - start,
                stats=stats.snapshot())
    return TaskOutcome(
        index, value=value, duration=time.perf_counter() - start,
        stats=stats.snapshot())


def _exit_with_parent(parent_pid):
    """Pool-worker initializer: end this worker once ``parent_pid``, the
    process that started the pool, is gone.

    A parent killed outright (``kill -9``) runs no pool shutdown, and
    its workers, still waiting on the task queue, would live on under
    init.  A daemon thread polls ``os.getppid()`` every
    :data:`PARENT_POLL_S` and exits the worker when it no longer names
    the parent.
    """
    def watch():
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


def _execute_chunk(fn, payloads, indices, chaos=None, attempt=0):
    """Worker-side entry point: run a chunk of tasks sequentially."""
    return [_execute_one(fn, payload, index, chaos=chaos, attempt=attempt)
            for payload, index in zip(payloads, indices)]


class SerialExecutor:
    """In-process execution preserving today's semantics.

    Accepts closures (nothing is pickled); ``timeout`` cannot be
    enforced in-process and is ignored; failed tasks are retried up to
    ``retries`` times.  Chaos injection does not apply here — the
    serial backend is the undisturbed reference a chaos campaign is
    compared against (and killing the only process would kill the
    campaign, not a worker).
    """

    n_jobs = 1
    pool_rebuilds = 0

    def __init__(self, retries=0):
        self.retries = int(retries)

    def map_tasks(self, fn, payloads, on_result=None):
        outcomes = []
        for index, payload in enumerate(payloads):
            outcome = _execute_one(fn, payload, index)
            for attempt in range(self.retries):
                if outcome.ok:
                    break
                outcome = _execute_one(fn, payload, index)
                outcome.retries = attempt + 1
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)
        return outcomes

    def __repr__(self):
        return "SerialExecutor()"


def default_n_jobs():
    """The CPU count (at least 1): what a job count of 0 resolves to."""
    return max(1, os.cpu_count() or 1)


class ProcessPoolExecutor:
    """Parallel backend on :class:`concurrent.futures.ProcessPoolExecutor`.

    Parameters
    ----------
    n_jobs:
        Worker process count (default: the CPU count).
    chunk_size:
        Tasks per dispatch unit.  ``None`` picks ``ceil(n / (4 *
        n_jobs))`` so each worker sees a few chunks (load balancing)
        while amortising IPC for cheap tasks.
    timeout:
        Per-task wall-clock budget in seconds (``None`` = unbounded).  A
        chunk gets ``timeout * len(chunk)``; on expiry its tasks are
        marked timed out, the hung worker is terminated with its pool,
        and everything still unfinished re-dispatches on a fresh pool —
        the slot is reclaimed immediately, not at round end.
    retries:
        How many extra rounds failed/timed-out/crashed tasks get.
        Retries run with chunk size 1 so a poison task cannot shadow
        its chunk mates.
    backoff / backoff_seed:
        Base sleep (seconds) between retry rounds; round ``r`` waits
        ``backoff * 2**r`` with deterministic seeded jitter in
        [0.5x, 1.5x) (see :func:`backoff_schedule`).  0 disables.
    crash_quarantine:
        A task observed in this many pool crashes is quarantined as
        :class:`PoisonTask` and never re-dispatched.
    timeout_quarantine:
        A task that times out this many times is treated as a
        deterministic hang and quarantined likewise.
    mp_context:
        ``multiprocessing`` start method (default ``fork`` when
        available, else ``spawn``).
    chaos:
        Optional :class:`~repro.runtime.chaos.ChaosConfig` shipped to
        workers for deterministic fault injection (tests/CI only).

    The instance-level ``pool_rebuilds`` counter records how many times
    a pool was torn down by a fault (worker death or timeout reclaim)
    and respawned for the remaining work; the runner folds it into the
    :class:`~repro.runtime.telemetry.RunReport`.
    """

    def __init__(self, n_jobs=None, chunk_size=None, timeout=None,
                 retries=1, mp_context=None, backoff=0.05,
                 backoff_seed=0, crash_quarantine=3,
                 timeout_quarantine=2, chaos=None):
        self.n_jobs = default_n_jobs() if n_jobs is None else max(
            1, int(n_jobs))
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_seed = int(backoff_seed)
        self.crash_quarantine = max(1, int(crash_quarantine))
        self.timeout_quarantine = max(1, int(timeout_quarantine))
        self.chaos = chaos
        self.pool_rebuilds = 0
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._mp_context = mp_context

    # ------------------------------------------------------------------

    def _resolve_chunk_size(self, n_tasks):
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        return max(1, -(-n_tasks // (4 * self.n_jobs)))

    def _make_pool(self, n_tasks):
        context = multiprocessing.get_context(self._mp_context)
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.n_jobs, max(1, n_tasks)),
            mp_context=context, initializer=_exit_with_parent,
            initargs=(os.getpid(),))

    @staticmethod
    def _shutdown(pool, kill):
        if kill:
            # A worker may be stuck inside a diverging solve; shutdown()
            # would join it forever.  Terminate best-effort instead.
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Outcome factories for the non-task failure modes
    # ------------------------------------------------------------------

    def _crash_outcome(self, index, attempt, crashes):
        if crashes >= self.crash_quarantine:
            return TaskOutcome(
                index, error_type="PoisonTask",
                error_message="quarantined after crashing the worker "
                "pool {} times".format(crashes),
                retries=attempt, crashed=True, poisoned=True,
                crashes=crashes)
        return TaskOutcome(
            index, error_type="WorkerCrash",
            error_message="worker process died mid-chunk "
            "(pool fault, crash {} of {} tolerated)".format(
                crashes, self.crash_quarantine - 1),
            retries=attempt, crashed=True, crashes=crashes)

    def _timeout_outcome(self, index, budget, attempt, n_timeouts,
                         crashes):
        if n_timeouts >= self.timeout_quarantine:
            return TaskOutcome(
                index, error_type="PoisonTask",
                error_message="quarantined as a deterministic hang "
                "after {} timeouts (no result within {:.1f}s "
                "each)".format(n_timeouts, budget),
                duration=budget, retries=attempt, timed_out=True,
                poisoned=True, crashes=crashes)
        return TaskOutcome(
            index, error_type="TaskTimeout",
            error_message="no result within {:.1f}s".format(budget),
            duration=budget, timed_out=True, retries=attempt,
            crashes=crashes)

    # ------------------------------------------------------------------

    def map_tasks(self, fn, payloads, on_result=None):
        payloads = list(payloads)
        outcomes = [None] * len(payloads)
        pending = list(range(len(payloads)))
        # Shared across rounds: how often each task's worker died and
        # how often it timed out — the quarantine thresholds look at
        # the whole history, not one round.
        crash_counts = {}
        timeout_counts = {}
        delays = backoff_schedule(self.backoff, self.retries,
                                  self.backoff_seed)
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt and delays[attempt - 1] > 0:
                time.sleep(delays[attempt - 1])
            # First round uses load-balancing chunks; retry rounds
            # isolate each task.
            size = 1 if attempt else self._resolve_chunk_size(len(pending))
            chunks = [pending[i:i + size]
                      for i in range(0, len(pending), size)]
            results = self._run_round(fn, payloads, chunks, attempt,
                                      on_result, crash_counts,
                                      timeout_counts)
            still_pending = []
            for index, outcome in results.items():
                outcomes[index] = outcome
                if not outcome.ok and not outcome.poisoned:
                    still_pending.append(index)
            pending = sorted(still_pending)
        for outcome in outcomes:
            # failures (including quarantined poison) were never
            # streamed; the caller's on_result sees every final outcome
            if outcome is not None and not outcome.ok \
                    and on_result is not None:
                on_result(outcome)
        return outcomes

    def _run_round(self, fn, payloads, chunks, attempt=0, on_result=None,
                   crash_counts=None, timeout_counts=None):
        """Run one dispatch round; returns ``{index: TaskOutcome}``.

        A round may span several pool lifetimes: a pool fault (worker
        death) or a timeout reclaim kills the current pool, and the
        chunks that never got to run re-dispatch on a fresh one.  Each
        respawn increments ``pool_rebuilds``.
        """
        crash_counts = {} if crash_counts is None else crash_counts
        timeout_counts = {} if timeout_counts is None else timeout_counts
        results = {}
        remaining = [list(chunk) for chunk in chunks]
        while remaining:
            remaining = self._dispatch(fn, payloads, remaining, attempt,
                                       on_result, results, crash_counts,
                                       timeout_counts)
        return results

    def _dispatch(self, fn, payloads, chunks, attempt, on_result,
                  results, crash_counts, timeout_counts):
        """One pool lifetime; returns the chunks to re-dispatch.

        Chunk results are consumed *as they complete* and successful
        outcomes are streamed to ``on_result`` immediately, so the
        caller's incremental cache writes / checkpoints land even if
        the campaign is killed mid-round.  A chunk's timeout clock
        starts when its future is observed running (queued chunks are
        not charged for time spent waiting behind busy workers).

        Returns a non-empty list only after a pool fault or a timeout
        reclaim: the unfinished chunks that should run on a fresh pool.
        """
        pool = self._make_pool(sum(len(c) for c in chunks))
        kill = False
        futures = {}
        started = set()
        settled = set()

        def settle(future):
            """Book one completed future; False on a pool-wide fault.

            A pool fault (``BrokenProcessPool``) is *not* recorded as a
            per-chunk task error — the tasks never ran (or their worker
            vanished), and booking them as ordinary failures would put
            a misleading taxonomy on work the pool lost, not the task.
            The caller classifies and re-dispatches instead.
            """
            chunk = futures[future]
            try:
                outcomes = future.result()
            except (BrokenProcessPool,
                    concurrent.futures.CancelledError):
                return False
            except Exception as exc:  # noqa: BLE001 - chunk fault
                for index in chunk:
                    results[index] = TaskOutcome(
                        index, error_type=type(exc).__name__,
                        error_message=str(exc), retries=attempt,
                        crashes=crash_counts.get(index, 0))
                settled.add(future)
                return True
            # on_result runs *outside* the pool-fault guard: an
            # exception it raises (a broken cache, KeyboardInterrupt)
            # is the caller unwinding the round, not a task failure to
            # be recorded.
            for outcome in outcomes:
                outcome.retries = attempt
                outcome.crashes = crash_counts.get(outcome.index, 0)
                results[outcome.index] = outcome
                if outcome.ok and on_result is not None:
                    on_result(outcome)
            settled.add(future)
            return True

        def drain_break():
            """Classify every unfinished chunk after a pool fault.

            Chunks that completed before the break settle normally.
            Of the rest, those observed *running* are crash suspects:
            their tasks get honest ``WorkerCrash`` outcomes (or
            ``PoisonTask`` past the quarantine threshold) and rejoin
            via the ordinary retry rounds.  Chunks that never started
            are innocent — they re-dispatch on the fresh pool without
            being booked as failures at all.
            """
            leftover = [f for f in futures if f not in settled]
            concurrent.futures.wait(leftover, timeout=5.0)
            unfinished = []
            for future in leftover:
                if future.done():
                    try:
                        exception = future.exception(timeout=0)
                    except (concurrent.futures.CancelledError,
                            concurrent.futures.TimeoutError):
                        exception = BrokenProcessPool()
                    if not isinstance(exception,
                                      (BrokenProcessPool, type(None))):
                        settle(future)  # genuine chunk error
                        continue
                    if exception is None:
                        settle(future)  # finished before the break
                        continue
                unfinished.append(future)
            suspects = [f for f in unfinished if f in started]
            if not suspects:
                # The break won the race against our running() polls;
                # without a better signal every unfinished chunk is a
                # suspect (prevents an unobserved crasher from being
                # re-dispatched forever as "innocent").
                suspects = list(unfinished)
            for future in suspects:
                for index in futures[future]:
                    crash_counts[index] = crash_counts.get(index, 0) + 1
                    results[index] = self._crash_outcome(
                        index, attempt, crash_counts[index])
            return [futures[f] for f in unfinished
                    if f not in set(suspects)]

        try:
            order = []
            for chunk in chunks:
                future = pool.submit(
                    _execute_chunk, fn, [payloads[i] for i in chunk],
                    chunk, self.chaos, attempt)
                futures[future] = chunk
                order.append(future)
            waiting = set(futures)
            # The stdlib pool prefetches work items into its IPC call
            # queue, so ``future.running()`` is True for chunks still
            # sitting in the pipe behind busy workers.  Only the first
            # ``n_slots`` running futures (submission order == worker
            # pickup order) can actually be executing; only those get a
            # timeout clock and crash suspicion — a chunk queued behind
            # a hog must be neither charged for the wait nor blamed for
            # a crash it could not have caused.
            n_slots = min(self.n_jobs, len(order))
            deadlines = {}
            while waiting:
                now = time.monotonic()
                running_now = [f for f in order
                               if f in waiting and f.running()]
                for future in running_now[:n_slots]:
                    if future not in started:
                        started.add(future)
                        if self.timeout is not None:
                            deadlines[future] = now + self.timeout * len(
                                futures[future])
                if self.timeout is not None:
                    expired = [f for f in waiting
                               if f in deadlines
                               and deadlines[f] <= now]
                    if expired:
                        kill = True
                        self.pool_rebuilds += 1
                        for future in expired:
                            waiting.discard(future)
                            chunk = futures[future]
                            budget = self.timeout * len(chunk)
                            for index in chunk:
                                timeout_counts[index] = \
                                    timeout_counts.get(index, 0) + 1
                                results[index] = self._timeout_outcome(
                                    index, budget, attempt,
                                    timeout_counts[index],
                                    crash_counts.get(index, 0))
                        # Actual slot reclaim: the hung worker dies
                        # with this pool and everything still waiting
                        # re-dispatches on a fresh one, so the round
                        # does not run a worker short until it ends.
                        return [futures[f] for f in waiting]
                    wait_s = min([deadlines[f] - now
                                  for f in waiting if f in deadlines]
                                 + [0.25])
                    wait_s = max(wait_s, 0.01)
                else:
                    # short poll (instead of blocking forever) keeps
                    # the `started` set fresh so a pool fault can tell
                    # running chunks from queued ones
                    wait_s = 0.25
                done, _ = concurrent.futures.wait(
                    waiting, timeout=wait_s,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                broke = False
                for future in done:
                    waiting.discard(future)
                    try:
                        if not settle(future):
                            broke = True
                    except BaseException:
                        # The caller is unwinding: don't join workers
                        # still grinding through chunks — their
                        # per-item results were never settled and an
                        # interrupted run must return promptly.
                        kill = True
                        raise
                if broke:
                    kill = True
                    self.pool_rebuilds += 1
                    return drain_break()
            return []
        finally:
            self._shutdown(pool, kill=kill)

    def __repr__(self):
        return "ProcessPoolExecutor(n_jobs={}, timeout={})".format(
            self.n_jobs, self.timeout)
