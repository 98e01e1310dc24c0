"""Executor backend tests: ordering, failure taxonomy, retry, timeout.

Worker functions live at module level so the process pool can pickle
them; payloads are plain dicts.
"""

import os
import time

import pytest

from repro.runtime import (FAILED, PoisonTask, ProcessPoolExecutor,
                           SerialExecutor, TaskTimeout, WorkerCrash,
                           WorkerError, backoff_schedule)


def _square(payload):
    return payload["x"] ** 2


def _fail_on_odd(payload):
    if payload["x"] % 2:
        raise ValueError("odd input {}".format(payload["x"]))
    return payload["x"]


def _flaky(payload):
    """Fails until its marker file exists, then succeeds."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("seen")
        raise RuntimeError("first attempt always fails")
    return "recovered"


def _sleepy(payload):
    time.sleep(payload["seconds"])
    return "awake"


def _newton_accounting(payload):
    from repro.runtime.stats import current_stats
    stats = current_stats()
    stats.count("newton_solves", payload["solves"])
    stats.count("newton_iterations", 3 * payload["solves"])
    return payload["solves"]


def _crash_if_marked(payload):
    """Kills its worker process outright (simulated OOM/segfault)."""
    if payload.get("crash"):
        os._exit(87)
    return payload["x"]


def _crash_until_marker(payload):
    """Kills the worker until its marker file exists, then succeeds."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("seen")
        os._exit(87)
    return "survived"


def _hang_if_marked(payload):
    if payload.get("hang"):
        time.sleep(60.0)
    return payload["x"]


PAYLOADS = [{"x": i} for i in range(7)]


class _BreaksOnSubmit:
    """A process pool whose ``submit`` raises ``BrokenProcessPool`` once
    ``limit`` chunks are in, as a pool does when a worker dies between
    two submissions."""

    def __init__(self, pool, limit):
        self._pool = pool
        self._limit = limit

    @property
    def _processes(self):
        return self._pool._processes

    def submit(self, *args, **kwargs):
        from concurrent.futures.process import BrokenProcessPool

        if not self._limit:
            raise BrokenProcessPool("a worker died between submissions")
        self._limit -= 1
        return self._pool.submit(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        self._pool.shutdown(*args, **kwargs)


@pytest.fixture(params=["serial", "pool"])
def executor(request):
    if request.param == "serial":
        return SerialExecutor()
    return ProcessPoolExecutor(n_jobs=2, retries=0)


class TestOrdering:
    def test_results_aligned_with_payloads(self, executor):
        outcomes = executor.map_tasks(_square, PAYLOADS)
        assert [o.index for o in outcomes] == list(range(7))
        assert [o.value for o in outcomes] == [i ** 2 for i in range(7)]
        assert all(o.ok for o in outcomes)

    def test_small_chunks_preserve_order(self):
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1, retries=0)
        outcomes = executor.map_tasks(_square, PAYLOADS)
        assert [o.value for o in outcomes] == [i ** 2 for i in range(7)]

    def test_on_result_sees_every_task(self, executor):
        seen = []
        executor.map_tasks(_square, PAYLOADS,
                           on_result=lambda o: seen.append(o.index))
        assert sorted(seen) == list(range(7))

    def test_on_result_exception_propagates(self):
        class Boom(RuntimeError):
            pass

        def on_result(outcome):
            raise Boom()

        with pytest.raises(Boom):
            SerialExecutor().map_tasks(_square, PAYLOADS,
                                       on_result=on_result)


class TestFailures:
    def test_taxonomy_captured(self, executor):
        outcomes = executor.map_tasks(_fail_on_odd, PAYLOADS)
        for outcome in outcomes:
            if outcome.index % 2:
                assert not outcome.ok
                assert outcome.error_type == "ValueError"
                assert str(outcome.index) in outcome.error_message
                assert isinstance(outcome.error(), WorkerError)
            else:
                assert outcome.ok
                assert outcome.error() is None

    def test_failed_sentinel_distinct_from_none(self):
        assert FAILED is not None
        assert repr(FAILED) == "<FAILED>"

    def test_failed_sentinel_survives_pickling(self):
        import pickle
        assert pickle.loads(pickle.dumps(FAILED)) is FAILED


class TestRetry:
    def test_serial_retry_recovers(self, tmp_path):
        executor = SerialExecutor(retries=1)
        payload = {"marker": str(tmp_path / "marker_serial")}
        (outcome,) = executor.map_tasks(_flaky, [payload])
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.retries == 1

    def test_pool_retry_recovers(self, tmp_path):
        executor = ProcessPoolExecutor(n_jobs=2, retries=1)
        payload = {"marker": str(tmp_path / "marker_pool")}
        (outcome,) = executor.map_tasks(_flaky, [payload])
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.retries == 1

    def test_pool_retry_exhausted(self):
        executor = ProcessPoolExecutor(n_jobs=2, retries=1)
        (outcome,) = executor.map_tasks(_fail_on_odd, [{"x": 1}])
        assert not outcome.ok
        assert outcome.retries == 1


class TestTimeout:
    def test_hung_task_marked_and_neighbours_survive(self):
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1,
                                       timeout=0.5, retries=0)
        payloads = [{"seconds": 0.0}, {"seconds": 30.0}, {"seconds": 0.0}]
        outcomes = executor.map_tasks(_sleepy, payloads)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].timed_out
        assert outcomes[1].error_type == "TaskTimeout"
        assert isinstance(outcomes[1].error(), TaskTimeout)


class TestNewtonTelemetry:
    def test_solver_effort_reported_per_task(self, executor):
        outcomes = executor.map_tasks(
            _newton_accounting, [{"solves": 2}, {"solves": 5}])
        assert [o.newton_solves for o in outcomes] == [2, 5]
        assert [o.newton_iterations for o in outcomes] == [6, 15]


class TestBackoffSchedule:
    def test_deterministic_in_seed(self):
        assert backoff_schedule(0.1, 4, seed=3) == \
            backoff_schedule(0.1, 4, seed=3)
        assert backoff_schedule(0.1, 4, seed=3) != \
            backoff_schedule(0.1, 4, seed=4)

    def test_exponential_with_bounded_jitter(self):
        delays = backoff_schedule(0.1, 5, seed=0)
        assert len(delays) == 5
        for r, delay in enumerate(delays):
            base = 0.1 * 2.0 ** r
            assert 0.5 * base <= delay < 1.5 * base

    def test_zero_base_disables(self):
        assert backoff_schedule(0.0, 3, seed=1) == [0.0, 0.0, 0.0]


class TestWorkerCrash:
    def test_pool_fault_not_booked_as_task_error(self, tmp_path):
        """A worker death books WorkerCrash, never a generic
        BrokenProcessPool-per-chunk error, and a retry recovers."""
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1,
                                       retries=1, backoff=0.01)
        payload = {"marker": str(tmp_path / "crash_marker")}
        (outcome,) = executor.map_tasks(_crash_until_marker, [payload])
        assert outcome.ok
        assert outcome.value == "survived"
        assert outcome.crashes == 1
        assert executor.pool_rebuilds >= 1

    def test_innocent_chunks_survive_a_pool_fault(self):
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1,
                                       retries=2, backoff=0.01)
        payloads = [{"x": i, "crash": i == 3} for i in range(8)]
        outcomes = executor.map_tasks(_crash_if_marked, payloads)
        for outcome in outcomes:
            if outcome.index == 3:
                continue
            assert outcome.ok, outcome
            assert outcome.value == outcome.index

    def test_submit_time_break_requeues_unsubmitted_chunks(
            self, monkeypatch):
        """A pool that breaks while chunks are being submitted is a pool
        fault like one mid-round: the submitted chunks are classified
        as after any break, and the chunks never submitted run on a
        fresh pool with no crash on their record."""
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1, retries=0)
        make_pool = executor._make_pool
        pools = []

        def first_pool_breaks(n_tasks):
            pools.append(make_pool(n_tasks))
            if len(pools) == 1:
                return _BreaksOnSubmit(pools[0], limit=3)
            return pools[-1]

        monkeypatch.setattr(executor, "_make_pool", first_pool_breaks)
        outcomes = executor.map_tasks(_square, PAYLOADS)
        serial = SerialExecutor().map_tasks(_square, PAYLOADS)
        assert ([(o.index, o.ok, o.value) for o in outcomes]
                == [(o.index, o.ok, o.value) for o in serial])
        assert len(pools) == 2
        assert executor.pool_rebuilds == 1
        assert not any(o.crashed or o.crashes for o in outcomes)

    def test_repeat_crasher_quarantined_as_poison(self):
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1,
                                       retries=6, backoff=0.01,
                                       crash_quarantine=3)
        payloads = [{"x": 0}, {"x": 1, "crash": True}, {"x": 2}]
        outcomes = executor.map_tasks(_crash_if_marked, payloads)
        bad = outcomes[1]
        assert not bad.ok
        assert bad.poisoned and bad.crashed
        assert bad.error_type == "PoisonTask"
        assert isinstance(bad.error(), PoisonTask)
        # quarantined at the threshold, not after every retry round
        assert bad.crashes == 3
        assert outcomes[0].ok and outcomes[2].ok

    def test_crash_outcome_before_quarantine_is_worker_crash(self):
        executor = ProcessPoolExecutor(n_jobs=1, chunk_size=1,
                                       retries=0)
        outcomes = executor.map_tasks(
            _crash_if_marked, [{"x": 0, "crash": True}])
        (outcome,) = outcomes
        assert not outcome.ok
        assert outcome.crashed and not outcome.poisoned
        assert outcome.error_type == "WorkerCrash"
        assert isinstance(outcome.error(), WorkerCrash)

    def test_on_result_streams_final_failures_once(self):
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1,
                                       retries=4, backoff=0.01,
                                       crash_quarantine=2)
        seen = []
        executor.map_tasks(_crash_if_marked,
                           [{"x": 0}, {"x": 1, "crash": True}],
                           on_result=lambda o: seen.append(o.index))
        assert sorted(seen) == [0, 1]


class TestTimeoutReclaim:
    def test_queued_task_survives_a_hog_with_one_worker(self):
        """n_jobs=1 regression: the queued task behind a hang must run
        on a respawned pool instead of waiting (forever) for the hung
        worker — and it is not charged for the time in the queue."""
        executor = ProcessPoolExecutor(n_jobs=1, chunk_size=1,
                                       timeout=1.0, retries=0)
        payloads = [{"x": 0}, {"x": 1, "hang": True}, {"x": 2}]
        start = time.monotonic()
        outcomes = executor.map_tasks(_hang_if_marked, payloads)
        elapsed = time.monotonic() - start
        assert outcomes[0].ok and outcomes[0].value == 0
        assert outcomes[2].ok and outcomes[2].value == 2
        assert outcomes[1].timed_out
        assert executor.pool_rebuilds >= 1
        assert elapsed < 20.0

    def test_deterministic_hang_quarantined_within_budget(self):
        """A task that always hangs stops burning retries x timeout:
        after ``timeout_quarantine`` timeouts it is poisoned and the
        remaining retry rounds skip it."""
        executor = ProcessPoolExecutor(n_jobs=2, chunk_size=1,
                                       timeout=1.0, retries=5,
                                       backoff=0.01,
                                       timeout_quarantine=2)
        start = time.monotonic()
        outcomes = executor.map_tasks(
            _hang_if_marked, [{"x": 0}, {"x": 1, "hang": True}])
        elapsed = time.monotonic() - start
        bad = outcomes[1]
        assert bad.poisoned and bad.timed_out
        assert bad.error_type == "PoisonTask"
        # 2 timeouts plus overhead — nowhere near 6 x timeout
        assert elapsed < 5.0
        assert outcomes[0].ok
