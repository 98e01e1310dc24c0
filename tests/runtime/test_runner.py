"""Runtime facade tests: caching, checkpoint/resume, failure slots."""

import json
import os

import pytest

from repro.runtime import (FAILED, CampaignCheckpoint,
                           ProcessPoolExecutor, ResultCache, Runtime,
                           SerialExecutor, stable_hash)


def _double(payload):
    return 2 * payload["x"]


def _record_and_double(payload):
    """Appends one line per execution, so tests can count real work."""
    with open(payload["log"], "a") as handle:
        handle.write("{}\n".format(payload["x"]))
    return 2 * payload["x"]


def _maybe_none(payload):
    if payload["x"] == 1:
        return None  # a legitimate result, not a failure
    if payload["x"] == 2:
        raise ValueError("boom")
    return payload["x"]


def _interrupt_on_two(payload):
    if payload["x"] == 2:
        raise KeyboardInterrupt("simulated ^C mid-campaign")
    return payload["x"]


def _executions(log):
    if not os.path.exists(log):
        return 0
    with open(log) as handle:
        return sum(1 for _ in handle)


def _payloads(n, log=None):
    if log is None:
        return [{"x": i} for i in range(n)]
    return [{"x": i, "log": log} for i in range(n)]


def _keys(n):
    return [stable_hash("runner-test", i) for i in range(n)]


class TestPlainRuns:
    def test_serial_no_cache(self):
        run = Runtime().run(_double, _payloads(5))
        assert run.values == [0, 2, 4, 6, 8]
        assert run.errors == {}
        assert run.report.completed == 5
        assert run.report.cache_hits == 0

    def test_failed_slots_and_legit_none(self):
        run = Runtime().run(_maybe_none, _payloads(4))
        assert run.values[0] == 0
        assert run.values[1] is None          # legitimate None kept
        assert run.values[2] is FAILED        # failure marked distinctly
        assert run.values[3] == 3
        assert run.ok_values() == [0, None, 3]
        assert run.value_or_none(2) is None
        assert list(run.errors) == [2]
        assert "boom" in str(run.errors[2])
        assert run.report.failed == 1
        assert run.report.failure_taxonomy == {"ValueError": 1}

    def test_progress_callback(self):
        calls = []
        Runtime().run(_double, _payloads(3),
                      progress=lambda done, total: calls.append(
                          (done, total)))
        assert calls == [(1, 3), (2, 3), (3, 3)]


class TestCaching:
    def test_second_run_is_all_hits(self, tmp_path):
        log = str(tmp_path / "log")
        runtime = Runtime(cache=str(tmp_path / "cache"))
        first = runtime.run(_record_and_double, _payloads(4, log),
                            keys=_keys(4))
        assert first.report.cache_hits == 0
        assert _executions(log) == 4
        second = runtime.run(_record_and_double, _payloads(4, log),
                             keys=_keys(4))
        assert second.values == first.values
        assert second.report.cache_hits == 4
        assert _executions(log) == 4  # nothing re-simulated

    def test_manifest_written(self, tmp_path):
        runtime = Runtime(cache=str(tmp_path / "cache"))
        runtime.run(_double, _payloads(3), keys=_keys(3), label="mfst")
        manifests = os.path.join(str(tmp_path / "cache"), "manifests")
        files = os.listdir(manifests)
        assert len(files) == 1
        with open(os.path.join(manifests, files[0])) as handle:
            manifest = json.load(handle)
        assert len(manifest["completed"]) == 3
        assert manifest["n_tasks"] == 3

    def test_interrupted_campaign_resumes(self, tmp_path):
        """A run that stopped after a prefix of the work re-uses every
        finished sample (deterministic stand-in for kill -9 mid-sweep)."""
        log = str(tmp_path / "log")
        runtime = Runtime(cache=str(tmp_path / "cache"))
        runtime.run(_record_and_double, _payloads(3, log),
                    keys=_keys(6)[:3], label="sweep")
        assert _executions(log) == 3
        full = runtime.run(_record_and_double, _payloads(6, log),
                           keys=_keys(6), label="sweep")
        assert full.values == [0, 2, 4, 6, 8, 10]
        assert full.report.cache_hits == 3
        assert _executions(log) == 6  # only the unfinished half ran

    def test_resumed_counter_uses_manifest(self, tmp_path):
        runtime = Runtime(cache=str(tmp_path / "cache"))
        runtime.run(_double, _payloads(4), keys=_keys(4), label="c")
        rerun = runtime.run(_double, _payloads(4), keys=_keys(4),
                            label="c")
        assert rerun.report.cache_hits == 4
        assert rerun.report.resumed == 4

    def test_mismatched_keys_rejected(self, tmp_path):
        runtime = Runtime(cache=str(tmp_path / "cache"))
        with pytest.raises(ValueError):
            runtime.run(_double, _payloads(3), keys=_keys(2))

    def test_failures_not_cached(self, tmp_path):
        runtime = Runtime(cache=str(tmp_path / "cache"))
        run = runtime.run(_maybe_none, _payloads(4), keys=_keys(4))
        assert run.values[2] is FAILED
        assert runtime.cache.n_objects() == 3
        rerun = runtime.run(_maybe_none, _payloads(4), keys=_keys(4))
        assert rerun.report.cache_hits == 3  # the failure retried


def _read_manifest(cache_dir):
    manifests = os.path.join(cache_dir, "manifests")
    (name,) = os.listdir(manifests)
    with open(os.path.join(manifests, name)) as handle:
        return json.load(handle)


class TestCheckpointFlush:
    """Regression: with ``checkpoint_every`` larger than the task count
    the manifest could trail the result cache by up to ``every - 1``
    marks — a clean finish left it stale, and an exception escaping the
    dispatch lost the progress entirely."""

    def test_clean_finish_flushes_pending_marks(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runtime = Runtime(cache=cache_dir, checkpoint_every=100)
        runtime.run(_double, _payloads(3), keys=_keys(3), label="fl")
        manifest = _read_manifest(cache_dir)
        assert manifest["n_completed"] == 3
        assert len(manifest["completed"]) == 3

    def test_batched_clean_finish_flushes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runtime = Runtime(cache=cache_dir, checkpoint_every=100)
        runtime.run_batched(_chunk_double, _payloads(5), keys=_keys(5),
                            batch_size=2, label="flb")
        assert _read_manifest(cache_dir)["n_completed"] == 5

    def test_exception_path_flushes_progress(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runtime = Runtime(cache=cache_dir, checkpoint_every=100)
        with pytest.raises(KeyboardInterrupt):
            runtime.run(_interrupt_on_two, _payloads(5), keys=_keys(5),
                        label="kill")
        manifest = _read_manifest(cache_dir)
        assert manifest["n_completed"] == 2  # tasks 0 and 1 finished

    def test_interrupted_progress_resumes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runtime = Runtime(cache=cache_dir, checkpoint_every=100)
        with pytest.raises(KeyboardInterrupt):
            runtime.run(_interrupt_on_two, _payloads(5), keys=_keys(5),
                        label="kill")
        rerun = runtime.run(_double, _payloads(5), keys=_keys(5),
                            label="kill")
        assert rerun.report.cache_hits == 2
        assert rerun.report.resumed == 2

    def test_batched_interrupt_flushes_and_resumes(self, tmp_path):
        """^C on the second chunk: the first chunk's items are cached
        per item and in the manifest, and a rerun executes only the
        remaining chunks."""
        cache_dir = str(tmp_path / "cache")
        runtime = Runtime(cache=cache_dir, checkpoint_every=100)
        with pytest.raises(KeyboardInterrupt):
            runtime.run_batched(_chunk_interrupt_on_two, _payloads(8),
                                keys=_keys(8), batch_size=2, label="kb")
        assert _read_manifest(cache_dir)["n_completed"] == 2
        assert runtime.cache.get(_keys(8)[0]) == 0
        assert runtime.cache.get(_keys(8)[1]) == 2

        log = str(tmp_path / "log")
        rerun = runtime.run_batched(_chunk_record_and_double,
                                    _payloads(8, log), keys=_keys(8),
                                    batch_size=2, label="kb")
        assert rerun.values == [2 * i for i in range(8)]
        assert rerun.report.cache_hits == 2
        assert rerun.report.resumed == 2
        assert _executions(log) == 6  # chunks 2-4 only

    def test_pending_marks_counter(self, tmp_path):
        checkpoint = CampaignCheckpoint("abc123", root=str(tmp_path),
                                        every=10)
        checkpoint.mark_done("k1")
        checkpoint.mark_done("k2")
        assert checkpoint.pending_marks == 2
        checkpoint.flush()
        assert checkpoint.pending_marks == 0
        assert os.path.exists(checkpoint.path)


class TestFromEnv:
    def test_defaults_are_serial_uncached(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        runtime = Runtime.from_env()
        assert isinstance(runtime.executor, SerialExecutor)
        assert runtime.cache is None
        assert not runtime.parallel

    def test_env_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        runtime = Runtime.from_env()
        assert isinstance(runtime.executor, ProcessPoolExecutor)
        assert runtime.executor.n_jobs == 3
        assert isinstance(runtime.cache, ResultCache)
        assert runtime.cache.root == str(tmp_path / "c")

    def test_explicit_args_beat_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        runtime = Runtime.from_env(jobs=1,
                                   cache_dir=str(tmp_path / "d"))
        assert isinstance(runtime.executor, SerialExecutor)
        assert runtime.cache.root == str(tmp_path / "d")

    def test_jobs_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert Runtime.from_env(jobs=0).executor.n_jobs == 4
        # 0 from the environment means all CPUs too
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert Runtime.from_env().executor.n_jobs == 4
        # an explicit 0 is not re-resolved through REPRO_JOBS
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert Runtime.from_env(jobs=0).executor.n_jobs == 4


class TestReport:
    def test_summary_fields(self, tmp_path):
        runtime = Runtime(cache=str(tmp_path / "cache"))
        run = runtime.run(_double, _payloads(4), keys=_keys(4),
                          label="telemetry")
        summary = run.report.summary()
        assert summary["label"] == "telemetry"
        assert summary["completed"] == 4
        assert summary["cache_hits"] == 0
        assert summary["cache_misses"] == 4
        assert summary["wall_time_s"] >= 0.0
        text = run.report.format_report()
        assert "telemetry" in text

    def test_report_json_round_trip(self, tmp_path):
        run = Runtime().run(_double, _payloads(2))
        path = str(tmp_path / "report.json")
        run.report.to_json(path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["completed"] == 2


def _chunk_double(payloads):
    return [2 * p["x"] for p in payloads]


def _chunk_record_and_double(payloads):
    return [_record_and_double(p) for p in payloads]


def _chunk_short(payloads):
    return [0] * (len(payloads) - 1)


def _chunk_boom(payloads):
    if any(p["x"] == 2 for p in payloads):
        raise ValueError("chunk boom")
    return [2 * p["x"] for p in payloads]


def _chunk_interrupt_on_two(payloads):
    if any(p["x"] == 2 for p in payloads):
        raise KeyboardInterrupt("simulated ^C mid-campaign")
    return [2 * p["x"] for p in payloads]


class TestBatchedRuns:
    def test_values_aligned(self):
        run = Runtime().run_batched(_chunk_double, _payloads(7),
                                    batch_size=3)
        assert run.values == [0, 2, 4, 6, 8, 10, 12]
        assert run.errors == {}

    def test_progress_counts_items_not_chunks(self):
        calls = []
        Runtime().run_batched(_chunk_double, _payloads(5), batch_size=2,
                              progress=lambda done, total: calls.append(
                                  (done, total)))
        assert calls == [(2, 5), (4, 5), (5, 5)]

    def test_misaligned_chunk_fails_whole_chunk(self):
        run = Runtime().run_batched(_chunk_short, _payloads(4),
                                    batch_size=2)
        assert run.values == [FAILED] * 4
        assert sorted(run.errors) == [0, 1, 2, 3]
        assert all(isinstance(e, ValueError)
                   for e in run.errors.values())

    def test_chunk_error_confined_to_its_chunk(self):
        run = Runtime().run_batched(_chunk_boom, _payloads(6),
                                    batch_size=2)
        assert run.values[:2] == [0, 2]
        assert sorted(run.errors) == [2, 3]
        assert run.values[4:] == [8, 10]

    def test_cache_granularity_is_per_item(self, tmp_path):
        """Cached items never re-enter a chunk: a partial warm cache
        shrinks the batched work to the misses only."""
        log = str(tmp_path / "log")
        runtime = Runtime(cache=str(tmp_path / "cache"))
        runtime.run(_record_and_double, _payloads(3, log),
                    keys=_keys(6)[:3], label="b")
        assert _executions(log) == 3
        full = runtime.run_batched(_chunk_record_and_double,
                                   _payloads(6, log), keys=_keys(6),
                                   batch_size=4, label="b")
        assert full.values == [0, 2, 4, 6, 8, 10]
        assert full.report.cache_hits == 3
        assert _executions(log) == 6

    def test_warm_rerun_is_all_hits(self, tmp_path):
        log = str(tmp_path / "log")
        runtime = Runtime(cache=str(tmp_path / "cache"))
        runtime.run_batched(_chunk_record_and_double, _payloads(5, log),
                            keys=_keys(5), batch_size=2)
        rerun = runtime.run_batched(_chunk_record_and_double,
                                    _payloads(5, log), keys=_keys(5),
                                    batch_size=2)
        assert rerun.values == [0, 2, 4, 6, 8]
        assert rerun.report.cache_hits == 5
        assert _executions(log) == 5

    def test_non_positive_batch_size_rejected(self):
        """Zero or negative chunk sizes used to be clamped to 1."""
        for batch_size in (0, -2):
            with pytest.raises(ValueError, match="batch_size"):
                Runtime().run_batched(_chunk_double, _payloads(3),
                                      batch_size=batch_size)

    def test_process_pool_chunks(self, tmp_path):
        runtime = Runtime(executor=ProcessPoolExecutor(n_jobs=2))
        run = runtime.run_batched(_chunk_double, _payloads(6),
                                  batch_size=2)
        assert run.values == [0, 2, 4, 6, 8, 10]
