#!/usr/bin/env python
"""Cost per row of a lockstep population, on both time grids.

Usage::

    python benchmarks/population_cost.py [--populations 1 8 64 96 128 256]
                                         [--repeats 3] [--mixed 6]

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

Then, per grid, ``--mixed`` pulse rows (the first instances of the
population, driven as above) and as many delay rows (the same
instances, driven by one rising input transition), each row stopping
at its own window, run as one ``run_transient_batch`` population and
as the two populations apart (how a campaign measured its pulse and
delay sweeps before they shared one call).  Prints the seconds per row
of both and their ratio (mixed / apart).
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
    build_instance, measure_output_pulse_batch, simulation_window)
from repro.faults import ExternalOpen  # noqa: E402
from repro.montecarlo import sample_population  # noqa: E402
from repro.spice import run_transient_batch  # noqa: E402

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


def driven(paths, kind):
    """``(circuits, stops)`` of copies of ``paths`` driven by the
    430 ps pulse (``kind="pulse"``) or by one rising transition, each
    stopping at its own window."""
    circuits, stops = [], []
    for path in paths:
        path = path.copy()
        if kind == "pulse":
            delay = path.set_input_pulse(W_IN)
            stops.append(simulation_window(path, w_in=W_IN,
                                           stimulus_delay=delay))
        else:
            delay = path.set_input_transition("rise")
            stops.append(simulation_window(path, stimulus_delay=delay))
        circuits.append(path.circuit)
    return circuits, stops


def mixed_against_apart(paths, repeats):
    """Best-of-``repeats`` CPU seconds per row, per grid, of the pulse
    and delay rows of ``paths`` as one population and as two."""
    pulse, delay = driven(paths, "pulse"), driven(paths, "delay")
    record = [paths[0].input_node, paths[0].output_node]

    def run(parts, adaptive):
        for circuits, stops in parts:
            run_transient_batch(circuits, max(stops), DT, record=record,
                                adaptive=adaptive, stops=stops)

    mixed = [(pulse[0] + delay[0], pulse[1] + delay[1])]
    best = {}
    for _ in range(repeats):
        for adaptive in (False, True):
            for name, parts in (("mixed", mixed), ("apart", [pulse, delay])):
                start = time.process_time()
                run(parts, adaptive)
                key = (adaptive, name)
                best[key] = min(best.get(key, float("inf")),
                                time.process_time() - start)
    rows = 2 * len(paths)
    return {adaptive: (best[adaptive, "mixed"] / rows,
                       best[adaptive, "apart"] / rows)
            for adaptive in (False, True)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--populations", type=int, nargs="+",
                        default=[1, 8, 64, 96, 128, 256],
                        help="population sizes to measure")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per measurement; the best counts")
    parser.add_argument("--mixed", type=int, default=6,
                        help="pulse rows, and as many delay rows, of the "
                             "mixed population")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.populations + [args.mixed]) < 1:
        parser.error("populations, repeats and mixed must be positive")
    print("population  fixed s/row  adaptive s/row  adaptive/fixed")
    for size in args.populations:
        fixed, adaptive = seconds_per_row(population(size), args.repeats)
        print("{:>10d}  {:>11.4f}  {:>14.4f}  {:>14.2f}".format(
            size, fixed, adaptive, adaptive / fixed), flush=True)
    print("\n{0} pulse + {0} delay rows, each to its own window".format(
        args.mixed))
    print("grid      mixed s/row  apart s/row  mixed/apart")
    costs = mixed_against_apart(population(args.mixed), args.repeats)
    for adaptive, (mixed, apart) in costs.items():
        print("{:<8s}  {:>11.4f}  {:>11.4f}  {:>11.2f}".format(
            "adaptive" if adaptive else "fixed", mixed, apart, mixed / apart))


if __name__ == "__main__":
    main()
