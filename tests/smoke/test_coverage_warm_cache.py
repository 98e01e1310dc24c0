"""A warm rerun of ``pulsetest coverage`` reads every row kind back.

Deselected from the default run (marker ``smoke``); run it with::

    PYTHONPATH=src python -m pytest -m smoke tests/smoke

Two ``REPRO_FAST=1 pulsetest coverage open --batch-size 2`` runs share
one cache directory, each in a fresh interpreter.  The second must
execute nothing: its nominal transfer curve, both calibrations and both
sweeps are cache hits, so every row kind's key is the same in a new
process.  The 5 calibration samples fall into chunks of 2, so the cold
run also caches a lone chunk's row, which must read back under the key
a full chunk's rows carry.

On the adaptive grid every row of a population steps on its own time
grid, so an ``--adaptive --batch-size 2`` cache serves an
``--adaptive --batch-size 1`` rerun every row whose engine did not
change: only the 10 one-point calibration rows move from the lockstep
to the scalar Newton, while the nominal curve and the 10 two-point
sweep rows run lockstep at either size and hit.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.smoke

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

#: one nominal curve, 5 + 5 calibration rows and 5 + 5 sweep rows
WARM_TASKS = "tasks: 21 (0 executed, 21 cache hits, 0 failed)"

#: the adaptive --batch-size 1 rerun: only the calibration rows execute
ADAPTIVE_RERUN_TASKS = "tasks: 21 (10 executed, 11 cache hits, 0 failed)"


def _coverage(cache_dir, *flags, batch_size=2):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(REPRO_FAST="1", PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "coverage", "open",
         "--batch-size", str(batch_size), "--cache-dir", cache_dir,
         *flags],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout


def _tables(out):
    """The output above the run-report block (which carries wall times,
    so it differs between runs)."""
    return out.split("\nrun report", 1)[0]


def test_warm_rerun_executes_nothing(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = _coverage(cache_dir)
    warm = _coverage(cache_dir)

    assert cold.startswith("calibration: ")
    assert WARM_TASKS in warm
    assert _tables(warm) == _tables(cold)


def test_adaptive_rows_hit_across_batch_sizes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _coverage(cache_dir, "--adaptive")
    rerun = _coverage(cache_dir, "--adaptive", batch_size=1)

    assert ADAPTIVE_RERUN_TASKS in rerun
