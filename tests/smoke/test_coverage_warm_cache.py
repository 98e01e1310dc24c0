"""A warm rerun of ``pulsetest coverage`` reads every row kind back,
however the runtime chunked the run that filled the cache.

Deselected from the default run (marker ``smoke``); run it with::

    PYTHONPATH=src python -m pytest -m smoke tests/smoke

A cold ``REPRO_FAST=1 pulsetest coverage open --jobs 2`` run and a
serial rerun share one cache directory, each in a fresh interpreter.
The runtime chunks the two differently (one chunk per worker against
one chunk per call), and every row runs the lockstep engine in any
chunk, so a row's key does not depend on its chunk.  The rerun must
execute nothing: its nominal transfer curve, both calibrations and both
sweeps are cache hits, so every row kind's key is the same in a new
process and at another worker count.  The same holds with
``--adaptive``, where every row steps on its own time grid.
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


def _coverage(cache_dir, *flags):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(REPRO_FAST="1", PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "coverage", "open",
         "--cache-dir", cache_dir, *flags],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout


def _tables(out):
    """The output above the run-report block (which carries wall times,
    so it differs between runs)."""
    return out.split("\nrun report", 1)[0]


@pytest.mark.parametrize("grid", [(), ("--adaptive",)],
                         ids=["fixed", "adaptive"])
def test_serial_rerun_of_a_pool_run_executes_nothing(tmp_path, grid):
    cache_dir = str(tmp_path / "cache")
    cold = _coverage(cache_dir, "--jobs", "2", *grid)
    warm = _coverage(cache_dir, *grid)

    assert cold.startswith("calibration: ")
    assert WARM_TASKS not in cold
    assert WARM_TASKS in warm
    assert _tables(warm) == _tables(cold)
