"""Smoke test of the end-to-end benchmark (outside the tier-1 suite).

Runs every workload at ``--scale smoke``, untraced and traced, in about
a minute::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_bench.py

It checks that the printed metric names are exactly the ones
``BENCHMARK.json`` declares, that the traced self times add up to the
traced wall time within 3 %, and that a run leaves no new files in the
repository.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _git_status():
    return subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout


def _run(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    before = _git_status()

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        stdout, result = _run(trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {metric["name"] for metric in spec[section]}
        assert all(NAME.fullmatch(name) for name in declared)
        for workload in workloads:
            printed = {key.split(".", 1)[1] for key in result["metrics"]
                       if key.startswith(workload + ".")}
            assert printed == declared, workload
        if trace:
            gaps = re.findall(r"\(gap ([0-9.]+)%\)", stdout)
            assert len(gaps) == len(workloads)
            assert all(float(gap) <= 3.0 for gap in gaps)

    assert _git_status() == before
