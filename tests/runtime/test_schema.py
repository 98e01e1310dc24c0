"""Schema versioning of persisted records (reports and traces)."""

import json

import pytest

from repro.runtime import (SCHEMA_VERSION, RunReport, SchemaVersionError,
                           TraceWriter, check_schema_version, read_trace)
from repro.runtime.schema import parse_version


class TestVersionParsing:
    def test_current_version_parses(self):
        major, minor = parse_version(SCHEMA_VERSION)
        assert major == 2
        assert minor >= 0

    def test_malformed_rejected(self):
        for bad in ("", "x.y", None, "1.2.3junk"):
            with pytest.raises(SchemaVersionError):
                parse_version(bad)


class TestCheckSchemaVersion:
    def test_same_major_other_minor_accepted(self):
        record = {"schema_version": "1.7", "x": 1}
        assert check_schema_version(record) is record

    def test_unknown_major_rejected(self):
        with pytest.raises(SchemaVersionError):
            check_schema_version({"schema_version": "3.0"})

    def test_missing_version_grandfathered(self):
        # records written before versioning carry no field at all
        assert check_schema_version({"x": 1}) == {"x": 1}


class TestReportStamping:
    def test_summary_carries_version(self):
        assert RunReport("x").summary()["schema_version"] == SCHEMA_VERSION

    def test_load_summary_roundtrip(self, tmp_path):
        path = str(tmp_path / "report.json")
        RunReport("x").to_json(path)
        summary = RunReport.load_summary(path)
        assert summary["schema_version"] == SCHEMA_VERSION

    def test_load_summary_reads_major_1(self, tmp_path):
        """2.0 removed the factorization-reuse counters; a 1.x summary
        that still carries them loads as it was written."""
        path = str(tmp_path / "report.json")
        record = dict(RunReport("x").summary(), schema_version="1.3",
                      lu_factorizations=1, lu_reuses=5, devices_bypassed=9,
                      bypass_forced_exact=2)
        with open(path, "w") as handle:
            json.dump(record, handle)
        assert RunReport.load_summary(path) == record

    def test_load_summary_rejects_future_major(self, tmp_path):
        path = str(tmp_path / "report.json")
        with open(path, "w") as handle:
            json.dump({"schema_version": "99.0"}, handle)
        with pytest.raises(SchemaVersionError):
            RunReport.load_summary(path)


class TestTraceStamping:
    def test_events_carry_version(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path) as trace:
            trace.emit({"event": "task", "index": 0})
        (event,) = read_trace(path)
        assert event["schema_version"] == SCHEMA_VERSION

    def test_read_trace_rejects_future_major(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"event": "task",
                                     "schema_version": "9.1"}) + "\n")
        with pytest.raises(SchemaVersionError):
            read_trace(path)
        # opt out restores the raw read
        assert read_trace(path, check_schema=False)[0]["event"] == "task"

    def test_emit_does_not_mutate_caller_event(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        event = {"event": "task"}
        with TraceWriter(path) as trace:
            trace.emit(event)
        assert "schema_version" not in event
