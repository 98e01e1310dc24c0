"""The bench-report regression gate (``benchmarks/compare_bench.py``).

Its cache ratio compares the warm-cache rerun with a direct read of the
objects the cold run wrote, so both sides are cache work: a faster
solver (a faster cold run) must not read as a cache regression, and a
slower warm path must.
"""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "compare_bench.py")


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(cold_s, warm_s, reads_s):
    return {"cache": {"cold_wall_time_s": cold_s,
                      "warm_wall_time_s": warm_s,
                      "reads_wall_time_s": reads_s,
                      "warm_over_cold": warm_s / cold_s,
                      "warm_over_reads": warm_s / reads_s}}


BASELINE = _report(cold_s=6.0, warm_s=0.003, reads_s=0.001)


def test_faster_cold_leg_passes(compare_bench):
    fresh = _report(cold_s=2.0, warm_s=0.003, reads_s=0.001)
    regressions, checked = compare_bench.compare(BASELINE, fresh, 0.30)
    assert (regressions, checked) == ([], 1)


def test_slower_warm_path_fails(compare_bench):
    fresh = _report(cold_s=6.0, warm_s=0.006, reads_s=0.001)
    regressions, checked = compare_bench.compare(BASELINE, fresh, 0.30)
    assert checked == 1
    assert len(regressions) == 1
    assert regressions[0].startswith("cache.warm_over_reads:")


@pytest.mark.parametrize("fresh, status", [
    (_report(cold_s=2.0, warm_s=0.003, reads_s=0.001), 0),
    (_report(cold_s=6.0, warm_s=0.006, reads_s=0.001), 1)],
    ids=["faster-cold", "slower-warm"])
def test_exit_status(compare_bench, tmp_path, capsys, fresh, status):
    paths = []
    for name, report in (("baseline", BASELINE), ("fresh", fresh)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(report))
        paths.append(str(path))
    assert compare_bench.main(paths) == status
    capsys.readouterr()
