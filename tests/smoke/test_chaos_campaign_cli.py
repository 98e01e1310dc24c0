"""A chaos campaign through the real ``pulsetest campaign`` CLI.

Deselected from the default run (marker ``smoke``); run it with::

    PYTHONPATH=src python -m pytest -m smoke tests/smoke

A serial reference campaign, a cold ``--jobs 2`` campaign under worker
kills and cache corruption, and a warm run over the corrupted cache
must print the same tables.  ``tests/chaos/`` pins the runtime's
counters (crash and rebuild accounting, solver totals, trace-vs-report
agreement) on a synthetic task; this test checks what only the CLI run
shows: ``--chaos`` reaches both the worker pool and the cache, and the
electrical calibration plus the C432 campaign come out unchanged.
"""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke

CAMPAIGN = ["campaign", "--fast", "--samples", "2", "--stride", "12"]


def _campaign(capsys, tmp_path, name, *flags):
    report = str(tmp_path / (name + ".json"))
    assert main(CAMPAIGN + list(flags) + ["--report-json", report]) == 0
    out = capsys.readouterr().out
    with open(report) as handle:
        return out, json.load(handle)


def _tables(out):
    """The campaign output above the run-report block (which carries
    wall times and executor names, so it differs between runs)."""
    return out.split("\nrun report", 1)[0]


def test_chaos_campaign_matches_serial_run(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    serial_out, serial = _campaign(capsys, tmp_path, "serial",
                                   "--jobs", "1", "--no-cache")
    cold_out, cold = _campaign(capsys, tmp_path, "cold", "--jobs", "2",
                               "--cache-dir", cache,
                               "--chaos", "kill=0.2,corrupt=0.1,seed=7")
    warm_out, warm = _campaign(capsys, tmp_path, "warm", "--jobs", "2",
                               "--cache-dir", cache)

    assert _tables(cold_out) == _tables(serial_out)
    assert _tables(warm_out) == _tables(serial_out)
    assert cold["failed"] == warm["failed"] == 0
    assert cold["completed"] == serial["completed"]
    assert warm["cache_hits"] + warm["cache_misses"] == serial["completed"]
    assert "resumed:" in warm_out
    # the flag really disturbed the runs, so the parity above means
    # something: workers died and cached objects rotted
    assert cold["worker_crashes"] > 0
    assert cold["pool_rebuilds"] > 0
    assert warm["cache_quarantined"] > 0
