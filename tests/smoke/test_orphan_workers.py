"""A killed campaign leaves no pool workers behind.

Deselected from the default run (marker ``smoke``); run it with::

    PYTHONPATH=src python -m pytest -m smoke tests/smoke

``pulsetest campaign --jobs 2`` runs its fault sites on two forked pool
workers.  Killed with SIGKILL, the campaign runs no pool shutdown; its
workers, waiting on the task queue, must still notice that their parent
is gone and exit, instead of living on under init.  Process parents are
read from ``/proc`` (Linux).
"""

import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = [
    pytest.mark.smoke,
    pytest.mark.skipif(not os.path.isdir("/proc/self"),
                       reason="reads process parents from /proc"),
]

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

CAMPAIGN = ["campaign", "--fast", "--samples", "4", "--stride", "1",
            "--jobs", "2", "--no-cache"]

#: how long the workers get to exit after their parent is killed
EXIT_GRACE_S = 5.0


def _state_and_parent(pid):
    """``(state letter, parent pid)`` of a process, or None once it is
    gone."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            stat = handle.read()
    except OSError:
        return None
    # the command name may hold spaces; the fields follow its ")"
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _alive(pid):
    """True while ``pid`` runs (a zombie has exited)."""
    status = _state_and_parent(pid)
    return status is not None and status[0] != "Z"


def _children(pid):
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and _alive(int(entry))
            and _state_and_parent(int(entry))[1] == pid]


def test_killed_campaign_leaves_no_workers():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    campaign = subprocess.Popen(
        [sys.executable, "-m", "repro.cli"] + CAMPAIGN, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        # the pool starts after the electrical calibration
        deadline = time.monotonic() + 120.0
        while len(workers) < 2:
            assert campaign.poll() is None, (
                "the campaign ended before its two workers were seen")
            assert time.monotonic() < deadline, "no worker pool started"
            time.sleep(0.05)
            workers = _children(campaign.pid)
        campaign.send_signal(signal.SIGKILL)
        campaign.wait(timeout=30)
        deadline = time.monotonic() + EXIT_GRACE_S
        while (any(_alive(pid) for pid in workers)
               and time.monotonic() < deadline):
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive(pid)]
        assert not survivors, (
            "pool workers {} outlived their killed campaign by {:.0f} s"
            .format(survivors, EXIT_GRACE_S))
    finally:
        if campaign.poll() is None:
            campaign.kill()
            campaign.wait(timeout=30)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
