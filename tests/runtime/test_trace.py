"""JSONL trace sink: strict encoding, per-task events, per-item chunk
attribution through the real batched engine."""

import json

import pytest

from repro.runtime import (Runtime, TraceWriter, read_trace, stable_hash)


def _double(payload):
    return 2 * payload["x"]


def _fail_on_odd(payload):
    if payload["x"] % 2:
        raise ValueError("odd input {}".format(payload["x"]))
    return payload["x"]


def _chunk_double(payloads):
    return [2 * p["x"] for p in payloads]


def _rc(r):
    from repro.spice import Circuit, Pulse
    circuit = Circuit("rc")
    circuit.add_vsource(
        "V1", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, width=2e-9))
    circuit.add_resistor("R1", "in", "out", r)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


def _simulate_one(payload):
    from repro.spice import run_transient
    wf = run_transient(_rc(payload["r"]), 2e-9, 20e-12)
    return float(wf["out"][-1])


def _simulate_chunk(payloads):
    from repro.spice import run_transient_batch
    waveforms = run_transient_batch([_rc(p["r"]) for p in payloads],
                                    2e-9, 20e-12)
    return [float(wf["out"][-1]) for wf in waveforms]


def _two_path_pulse(w_in):
    from repro.core.pulse import build_instance, measure_output_pulse_batch
    paths = [build_instance(gate_kinds=("inv",) * 3) for _ in range(2)]
    w_outs, _ = measure_output_pulse_batch(paths, w_in, dt=20e-12)
    return [float(w) for w in w_outs]


def _payloads(n):
    return [{"x": i} for i in range(n)]


def _keys(label, n):
    return [stable_hash(label, i) for i in range(n)]


class TestTraceWriter:
    def test_events_append_as_json_lines(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path) as trace:
            trace.emit({"event": "a", "n": 1})
            trace.emit({"event": "b", "n": 2})
            assert trace.n_events == 2
        events = read_trace(path)
        assert [e["event"] for e in events] == ["a", "b"]

    def test_lines_are_strict_json(self, tmp_path):
        """Non-finite floats must never appear as bare NaN tokens."""
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path) as trace:
            trace.emit({"event": "a", "bad": float("nan")})
        with open(path) as handle:
            for line in handle:
                json.loads(line, parse_constant=pytest.fail)

    def test_no_file_until_first_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)):
            assert not path.exists()


class TestRunTracing:
    def test_one_event_per_executed_task_plus_report(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        runtime = Runtime(trace=path)
        runtime.run(_double, _payloads(3), label="traced")
        events = read_trace(path)
        tasks = [e for e in events if e["event"] == "task"]
        reports = [e for e in events if e["event"] == "report"]
        assert len(tasks) == 3
        assert sorted(t["index"] for t in tasks) == [0, 1, 2]
        assert all(t["label"] == "traced" for t in tasks)
        assert all(t["ok"] for t in tasks)
        assert len(reports) == 1
        assert reports[0]["summary"]["completed"] == 3

    def test_cache_hits_produce_no_task_events(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        runtime = Runtime(cache=str(tmp_path / "cache"), trace=path)
        keys = _keys("trace-warm", 3)
        runtime.run(_double, _payloads(3), keys=keys, label="w")
        runtime.run(_double, _payloads(3), keys=keys, label="w")
        events = read_trace(path)
        tasks = [e for e in events if e["event"] == "task"]
        assert len(tasks) == 3  # cold run only
        assert all(t["key"] in keys for t in tasks)
        reports = [e for e in events if e["event"] == "report"]
        assert len(reports) == 2
        assert reports[1]["summary"]["cache_hits"] == 3

    def test_failures_carry_error_type(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        Runtime(trace=path).run(_fail_on_odd, _payloads(2))
        tasks = {e["index"]: e for e in read_trace(path)
                 if e["event"] == "task"}
        assert tasks[0]["ok"] and tasks[0]["error"] is None
        assert not tasks[1]["ok"]
        assert tasks[1]["error"] == "ValueError"

    def test_task_events_carry_solver_stats(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        Runtime(trace=path).run(_simulate_one,
                                [{"r": 1e3}, {"r": 2e3}])
        tasks = [e for e in read_trace(path) if e["event"] == "task"]
        for event in tasks:
            assert event["stats"]["counters"]["newton_solves"] > 0


    def test_one_item_lockstep_task_traces(self, tmp_path):
        """A one-item task that runs a lockstep population used to pass
        the engine's int-keyed per-row ledger to the trace encoder,
        whose TypeError escaped ``Runtime.run``."""
        path = str(tmp_path / "t.jsonl")
        run = Runtime(trace=path).run(_two_path_pulse, [0.4e-9])
        assert not run.errors
        (task,) = [e for e in read_trace(path) if e["event"] == "task"]
        assert task["stats"]["counters"]["newton_solves"] > 0
        assert "samples" not in task["stats"]


class TestBatchedTracing:
    def test_one_event_per_item_with_chunk_fields(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        Runtime(trace=path).run_batched(_chunk_double, _payloads(5),
                                        batch_size=2, label="b")
        tasks = [e for e in read_trace(path) if e["event"] == "task"]
        assert sorted(t["index"] for t in tasks) == [0, 1, 2, 3, 4]
        assert {t["chunk_size"] for t in tasks} == {2, 1}
        # one chunk_stats record per chunk, on its first item
        assert sum(t["chunk_stats"] is not None for t in tasks) == 3

    def test_batched_engine_attributes_effort_per_item(self, tmp_path):
        """The lockstep engine's effort must land on individual samples
        (via the scope's per-sample table), not lump into one chunk
        number."""
        path = str(tmp_path / "t.jsonl")
        run = Runtime(trace=path).run_batched(
            _simulate_chunk, [{"r": r} for r in (1e3, 2e3, 4e3, 8e3, 16e3)],
            batch_size=3, label="batched")
        tasks = [e for e in read_trace(path) if e["event"] == "task"]
        assert len(tasks) == 5
        per_item = [t["stats"]["counters"] for t in tasks]
        assert all(c["newton_solves"] > 0 for c in per_item)
        assert all(c["newton_iterations"] >= c["newton_solves"]
                   for c in per_item)
        # item attributions partition the campaign totals exactly
        assert sum(c["newton_solves"] for c in per_item) == \
            run.report.newton_solves
        assert sum(c["newton_iterations"] for c in per_item) == \
            run.report.newton_iterations
        # per-item durations are shares of their chunk, and the report
        # books one duration entry per item, not per chunk
        assert len(run.report.durations) == 5
        assert sum(t["duration_s"] for t in tasks) == pytest.approx(
            sum(run.report.durations))

    def test_per_item_values_match_scalar_reference(self, tmp_path):
        """Tracing must not perturb results: batched values equal the
        scalar engine's."""
        payloads = [{"r": r} for r in (1e3, 3e3)]
        run = Runtime(trace=str(tmp_path / "t.jsonl")).run_batched(
            _simulate_chunk, payloads, batch_size=2)
        reference = [_simulate_one(p) for p in payloads]
        assert run.values == pytest.approx(reference, abs=1e-6)


class TestEnvAndConfigWiring:
    def test_from_env_reads_repro_trace(self, monkeypatch, tmp_path):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        runtime = Runtime.from_env()
        assert isinstance(runtime.trace, TraceWriter)
        assert runtime.trace.path == path

    def test_from_env_default_is_untraced(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert Runtime.from_env().trace is None

    def test_experiment_config_carries_trace(self, monkeypatch,
                                             tmp_path):
        from repro.core.experiments import ExperimentConfig
        path = str(tmp_path / "cfg.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        config = ExperimentConfig.from_env()
        # the runtime, not the config, resolves REPRO_TRACE
        assert config.trace is None
        runtime = Runtime.from_config(config)
        assert isinstance(runtime.trace, TraceWriter)
        assert runtime.trace.path == path
