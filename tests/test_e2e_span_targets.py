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
