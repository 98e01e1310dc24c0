#!/usr/bin/env python
"""Cost per row of a lockstep population, on both time grids.

Usage::

    python benchmarks/population_cost.py [--populations 1 8 64 96 128 256]
                                         [--repeats 3]

Measures one ``measure_output_pulse_batch`` population of the 7-gate
path with an ``ExternalOpen(2)`` at 4, 12 and 30 kOhm (row ``i`` is
Monte Carlo sample ``i // 3`` at the ``i % 3``-th resistance), an input
pulse of 430 ps and dt = 5 ps, on the fixed and on the adaptive grid.
Each time is the best of ``--repeats`` runs, in CPU seconds of this
process (compile, DC operating point and transient; the instances are
built beforehand), with single-thread BLAS; each repeat runs the two
grids back to back.  Prints, per population size, the seconds per row
of both grids and their ratio (adaptive / fixed).  This is the probe
behind DESIGN.md's "Chunking" table, which sets
``repro.core.pulse.MAX_POPULATION``.
"""

import argparse
import os
import sys
import time

# single-thread BLAS, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.core.pulse import (  # noqa: E402
    build_instance, measure_output_pulse_batch)
from repro.faults import ExternalOpen  # noqa: E402
from repro.montecarlo import sample_population  # noqa: E402

RESISTANCES = (4e3, 12e3, 30e3)
W_IN = 430e-12
DT = 5e-12


def population(size):
    """``size`` instances: Monte Carlo samples x the three resistances."""
    samples = sample_population(-(-size // len(RESISTANCES)), base_seed=0)
    return [build_instance(sample=samples[i // len(RESISTANCES)],
                           fault=ExternalOpen(2, RESISTANCES[
                               i % len(RESISTANCES)]))
            for i in range(size)]


def seconds_per_row(paths, repeats):
    """Best of ``repeats`` CPU times of one population run, per row, on
    the fixed and on the adaptive grid.  Each repeat runs both grids
    back to back, so host-speed drift reaches both minima alike."""
    best = {False: float("inf"), True: float("inf")}
    for _ in range(repeats):
        for adaptive in best:
            start = time.process_time()
            measure_output_pulse_batch(paths, W_IN, dt=DT, adaptive=adaptive)
            best[adaptive] = min(best[adaptive], time.process_time() - start)
    return best[False] / len(paths), best[True] / len(paths)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--populations", type=int, nargs="+",
                        default=[1, 8, 64, 96, 128, 256],
                        help="population sizes to measure")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per measurement; the best counts")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.populations) < 1:
        parser.error("populations and repeats must be positive")
    print("population  fixed s/row  adaptive s/row  adaptive/fixed")
    for size in args.populations:
        fixed, adaptive = seconds_per_row(population(size), args.repeats)
        print("{:>10d}  {:>11.4f}  {:>14.4f}  {:>14.2f}".format(
            size, fixed, adaptive, adaptive / fixed), flush=True)


if __name__ == "__main__":
    main()
