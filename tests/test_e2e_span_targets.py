"""The end-to-end benchmark's tracer must still find every entry point.

``benchmarks/e2e/spans.py`` wraps simulator functions and methods by
name; a traced name that is deleted or renamed makes a traced benchmark
run raise.  Resolving every target here catches that in the tier-1
suite, with the tracer's own resolver.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = (Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
         / "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

TARGETS = sorted({target for targets in spans.SPAN_TARGETS.values()
                  for target in targets})


@pytest.mark.parametrize("target", TARGETS)
def test_span_target_resolves(target):
    """Class targets must sit in the class's own ``__dict__`` (the
    tracer patches the class it names, so an inherited attribute would
    leave the real method unwrapped); ``_resolve`` raises otherwise."""
    owner, attr, raw = spans._resolve(target)
    function = raw.__func__ if isinstance(raw, (classmethod,
                                                staticmethod)) else raw
    assert callable(function), target


def test_counters_name_traced_targets():
    for target in list(spans.COUNTERS) + list(spans.COUNT_OK):
        assert target in TARGETS, target


def _double(value):
    return 2 * value


def test_worker_probe_patch_reaches_pool_workers(tmp_path, monkeypatch):
    """``probe.py`` times the host inside pool workers by replacing
    ``repro.runtime.executors._execute_chunk`` by name.  That works only
    while the pool ships the module global, so forked workers call the
    wrapper: patch it the way ``WorkerProbes.install`` does and check
    that the wrapper ran in the workers."""
    import os

    from repro.runtime import ProcessPoolExecutor, executors

    original = executors._execute_chunk
    parent = os.getpid()

    def _execute_chunk(*args, **kwargs):
        if os.getpid() != parent:
            (tmp_path / "worker-{}".format(os.getpid())).touch()
        return original(*args, **kwargs)

    _execute_chunk.__module__ = original.__module__
    _execute_chunk.__qualname__ = original.__qualname__
    monkeypatch.setattr(executors, "_execute_chunk", _execute_chunk)
    outcomes = ProcessPoolExecutor(n_jobs=2).map_tasks(_double, [1, 2])
    assert [outcome.value for outcome in outcomes] == [2, 4]
    assert list(tmp_path.glob("worker-*"))
