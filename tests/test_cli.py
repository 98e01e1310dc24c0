"""CLI tests (fast paths only; coverage/paths commands are exercised by
the benchmark harness)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_waveforms_args(self):
        args = build_parser().parse_args(
            ["waveforms", "internal_rop", "--resistance", "5000"])
        assert args.kind == "internal_rop"
        assert args.resistance == 5000.0

    def test_bad_fault_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["waveforms", "nuclear"])

    def test_coverage_args(self):
        args = build_parser().parse_args(["coverage", "bridging"])
        assert args.fault == "bridging"
        assert args.jobs is None
        assert args.cache_dir is None

    def test_coverage_runtime_flags(self):
        args = build_parser().parse_args(
            ["coverage", "open", "--jobs", "4",
             "--cache-dir", "/tmp/cache"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/cache"

    def test_non_positive_batch_size_rejected(self, capsys):
        """``--batch-size`` is gone, so every value is rejected: the
        runtime sizes the chunks from ``--jobs``."""
        for value in ("0", "-4", "2"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(
                    ["coverage", "open", "--batch-size", value])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --batch-size" in (
                capsys.readouterr().err)

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs is None
        assert args.samples == 5
        assert args.sites is None
        assert args.cache_dir == ".repro_cache"
        assert not args.no_cache
        assert args.task_timeout is None
        assert args.report_json is None

    def test_campaign_runtime_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--jobs", "2", "--samples", "4", "--sites", "6",
             "--cache-dir", "/tmp/c", "--task-timeout", "30",
             "--report-json", "report.json"])
        assert args.jobs == 2
        assert args.samples == 4
        assert args.sites == 6
        assert args.cache_dir == "/tmp/c"
        assert args.task_timeout == 30.0
        assert args.report_json == "report.json"


class TestCommands:
    def test_waveforms_command_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        rc = main(["waveforms", "internal_rop"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "internal open" in out
        assert "dampened at output: True" in out

    def test_transfer_command_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        rc = main(["transfer"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "w_in (ps)" in out
        assert "asymptotic" in out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestFailOnErrors:
    def test_default_on(self):
        args = build_parser().parse_args(["coverage", "open"])
        assert args.fail_on_errors is True

    def test_escape_hatch(self):
        args = build_parser().parse_args(
            ["campaign", "--no-fail-on-errors"])
        assert args.fail_on_errors is False

    def test_report_exit_maps_failures(self):
        from repro.cli import _report_exit
        from repro.runtime import RunReport

        class FakeArgs:
            fail_on_errors = True

        clean = RunReport("t")
        assert _report_exit(FakeArgs(), clean) == 0
        assert _report_exit(FakeArgs(), None) == 0
        failing = RunReport("t")
        failing.failed = 2
        assert _report_exit(FakeArgs(), failing) == 3
        FakeArgs.fail_on_errors = False
        assert _report_exit(FakeArgs(), failing) == 0
