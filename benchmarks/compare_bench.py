#!/usr/bin/env python
"""Compare two ``BENCH_runtime.json`` files and fail on regressions.

Usage::

    python benchmarks/compare_bench.py BASELINE FRESH [--threshold 0.30]
                                       [--absolute]

Walks every section of both reports and compares the performance
metrics they share.  By default only *machine-independent ratios* are
compared (``speedup_vs_*``, ``step_reduction_vs_fixed``,
``warm_over_reads``): the committed baseline usually comes from a
different machine than the fresh run, so absolute wall times and
samples/s say more about the runner than about the code.
``--absolute`` additionally compares raw throughput numbers
(``*_per_second``) for same-machine A/B runs.

``warm_over_reads`` is the warm-cache rerun's time over a direct read
of the objects the cold leg wrote: both sides are cache work.  The
report also records ``warm_over_cold``, but the gate skips it: its
denominator is the cold leg's solver time, so a faster solver reads as
a slower cache.

A metric regresses when the fresh value is worse than the baseline by
more than ``--threshold`` (default 0.30 = 30%).  "Worse" is
direction-aware: higher is better for speedups and throughput, lower is
better for ``warm_over_reads``.  Exit status is 1 when any metric
regressed, 0 otherwise.
"""

import argparse
import json
import sys

#: metric-name suffixes that are ratios (machine-independent).
RATIO_HIGHER_IS_BETTER = ("speedup_vs_serial", "step_reduction_vs_fixed",
                          "transient_reduction_vs_fixed")
RATIO_LOWER_IS_BETTER = ("warm_over_reads",)

#: absolute throughput metrics, only compared with ``--absolute``.
ABSOLUTE_HIGHER_IS_BETTER = ("samples_per_second",)


def walk_metrics(report, path=""):
    """Yield ``(dotted.path, leaf_key, value)`` for every numeric leaf."""
    for key, value in sorted(report.items()):
        here = "{}.{}".format(path, key) if path else key
        if isinstance(value, dict):
            for item in walk_metrics(value, here):
                yield item
        elif isinstance(value, (int, float)) and not isinstance(
                value, bool):
            yield here, key, float(value)


def classify(leaf_key, absolute):
    """``(tracked, higher_is_better)`` for one metric name."""
    if leaf_key in RATIO_HIGHER_IS_BETTER:
        return True, True
    if leaf_key in RATIO_LOWER_IS_BETTER:
        return True, False
    if absolute and leaf_key in ABSOLUTE_HIGHER_IS_BETTER:
        return True, True
    return False, True


def compare(baseline, fresh, threshold, absolute=False):
    """Compare two parsed reports; returns ``(regressions, checked)``.

    ``regressions`` is a list of human-readable strings; ``checked``
    counts the metrics present in both reports and tracked under the
    current mode.
    """
    base_metrics = {p: v for p, k, v in walk_metrics(baseline)
                    if classify(k, absolute)[0]}
    regressions = []
    checked = 0
    for path, key, value in walk_metrics(fresh):
        tracked, higher_better = classify(key, absolute)
        if not tracked or path not in base_metrics:
            continue
        ref = base_metrics[path]
        checked += 1
        if ref <= 0:
            continue
        change = value / ref - 1.0
        worse = -change if higher_better else change
        if worse > threshold:
            regressions.append(
                "{}: {:.3f} -> {:.3f} ({:+.1%}, {} is better)".format(
                    path, ref, value, change,
                    "higher" if higher_better else "lower"))
    return regressions, checked


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail on BENCH_runtime.json perf regressions")
    parser.add_argument("baseline", help="committed reference report")
    parser.add_argument("fresh", help="freshly generated report")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional regression "
                             "(default 0.30)")
    parser.add_argument("--absolute", action="store_true",
                        help="also compare machine-dependent throughput "
                             "(same-machine A/B runs only)")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)

    regressions, checked = compare(baseline, fresh, args.threshold,
                                   absolute=args.absolute)
    if checked == 0:
        print("compare_bench: no shared metrics to compare "
              "(wrong files?)")
        return 1
    if regressions:
        print("compare_bench: {} of {} metrics regressed more than "
              "{:.0%}:".format(len(regressions), checked,
                               args.threshold))
        for line in regressions:
            print("  " + line)
        return 1
    print("compare_bench: {} metrics within {:.0%} of baseline".format(
        checked, args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
