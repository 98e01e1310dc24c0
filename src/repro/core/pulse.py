"""Instance construction and electrical measurement primitives.

These are the two measurements everything in the paper reduces to:

* ``w_out = f_p(w_in)`` — the output pulse width when a pulse of width
  ``w_in`` is injected at the sensitized path's input (pulse testing), and
* ``d_p`` — the path propagation delay for a single input transition
  (reduced-clock delay-fault testing).

Every calibration, sweep and transfer row measures its population
through one chunk task, :func:`_measure_chunk`, dispatched, chunked
and cached under one key recipe by :func:`run_measurements`.  Every
measurement runs the lockstep engine of
:func:`~repro.spice.run_transient_batch`, whatever its population
size, so a row reads the same in any chunk.
"""

import functools
import inspect
import math

import numpy as np

from ..cells import build_path, default_technology
from ..faults import inject
from ..runtime import Runtime, stable_hash
from ..runtime.stats import rows_booked_to
from ..spice import run_transient_batch
from ..spice.transient import LOCKSTEP_NEWTON_CACHE_TOKEN

#: default transient step; stimulus edges are >= 50 ps so 2 ps resolves
#: them with >25 points per edge
DEFAULT_DT = 2e-12

#: per-gate time budget used to size the simulation window
GATE_DELAY_BUDGET = 0.35e-9

#: settling margin after the last expected event
WINDOW_MARGIN = 1.2e-9

#: instances one chunk task runs as one population at most: the
#: per-row cost of a lockstep population stops falling near 128 (7-gate
#: path, DESIGN.md "Chunking")
MAX_POPULATION = 128


def build_instance(sample=None, fault=None, tech=None, **path_kwargs):
    """Build one (possibly faulty) circuit instance.

    Parameters
    ----------
    sample:
        A :class:`~repro.montecarlo.VariationModel`; ``None`` builds the
        nominal instance.
    fault:
        A fault spec from :mod:`repro.faults`; ``None`` builds fault-free.
    tech:
        Base technology before die-to-die perturbation.
    path_kwargs:
        Forwarded to :func:`repro.cells.build_path` (gate_kinds, loads...).
    """
    tech = default_technology() if tech is None else tech
    if sample is not None:
        tech = sample.apply_to_technology(tech)
        path_kwargs.setdefault("device_factors", sample.device_factors)
    path = build_path(tech=tech, **path_kwargs)
    if fault is not None:
        path = inject(path, fault)
    return path


def output_pulse_polarity(path, kind="h"):
    """Excursion direction of the output pulse at the path's PO.

    A ``kind='h'`` pulse departs from input idle 0; the output idles at
    ``idle_level(n_gates, 0)`` and the pulse excurses the other way.
    """
    input_idle = 0 if kind == "h" else 1
    output_idle = path.idle_level(path.n_gates, input_idle)
    return "low" if output_idle == 1 else "high"


def simulation_window(path, w_in=0.0, stimulus_delay=0.0):
    """Transient stop time covering launch, propagation and settling."""
    return (stimulus_delay + w_in
            + path.n_gates * GATE_DELAY_BUDGET + WINDOW_MARGIN)


def measure_output_pulse(path, w_in, kind="h", dt=DEFAULT_DT, level=None,
                         record_all=False, adaptive=False):
    """Inject a pulse and measure ``w_out`` at the path output.

    Returns ``(w_out, waveform)``; ``w_out`` is the width of the widest
    output excursion past the 50 % level (0.0 when fully dampened).
    ``record_all=True`` keeps every node in the waveform (for the
    waveform-reproduction benches); otherwise only input and output are
    recorded.  This is :func:`measure_output_pulse_batch` of a one-path
    population.
    """
    w_outs, waveforms = measure_output_pulse_batch(
        [path], w_in, kind=kind, dt=dt, level=level, record_all=record_all,
        adaptive=adaptive)
    return w_outs[0], waveforms[0]


def measure_path_delay(path, direction="rise", dt=DEFAULT_DT, level=None,
                       adaptive=False):
    """Propagation delay for a single input transition.

    Returns ``(delay, waveform)``.  When the output never crosses the
    50 % level within the window — a gross defect or a bridging-induced
    functional error — the delay is ``math.inf``, which every reduced
    clock period trivially detects.  This is
    :func:`measure_path_delay_batch` of a one-path population.
    """
    delays, waveforms = measure_path_delay_batch(
        [path], direction=direction, dt=dt, level=level, adaptive=adaptive)
    return delays[0], waveforms[0]


def measure_output_pulse_batch(paths, w_in, kind="h", dt=DEFAULT_DT,
                               level=None, record_all=False, adaptive=False):
    """``w_out`` of every path in a population of topologically
    identical paths.

    ``w_in`` is one width for all paths or one per path.  The instances
    share one lockstep transient (see
    :func:`~repro.spice.run_transient_batch`) over a shared window, the
    widest of the per-instance windows — the extra settle time is
    measurement-neutral.  Returns ``(w_outs, waveforms)`` lists aligned
    with ``paths``.
    """
    paths = list(paths)
    widths = list(w_in) if np.ndim(w_in) else [w_in] * len(paths)
    if len(widths) != len(paths):
        raise ValueError("need one pulse width per path, got {} for {} "
                         "paths".format(len(widths), len(paths)))
    delays = [path.set_input_pulse(w, kind=kind)
              for path, w in zip(paths, widths)]
    tstop = max(simulation_window(path, w_in=w, stimulus_delay=delay)
                for path, w, delay in zip(paths, widths, delays))
    record = (None if record_all
              else [paths[0].input_node, paths[0].output_node])
    waveforms = run_transient_batch([path.circuit for path in paths],
                                    tstop, dt, record=record,
                                    adaptive=adaptive)
    w_outs = []
    for path, waveform in zip(paths, waveforms):
        lv = path.tech.vdd_half if level is None else level
        polarity = output_pulse_polarity(path, kind)
        w_outs.append(waveform.widest_pulse(path.output_node, lv, polarity))
    return w_outs, waveforms


def measure_path_delay_batch(paths, direction="rise", dt=DEFAULT_DT,
                             level=None, adaptive=False):
    """Propagation delay of every path in a population (see
    :func:`measure_output_pulse_batch`).

    ``direction`` is one transition direction for all paths or one per
    path.  Returns ``(delays, waveforms)``; non-crossing outputs report
    ``math.inf`` exactly like :func:`measure_path_delay`.
    """
    paths = list(paths)
    directions = (list(direction) if np.ndim(direction)
                  else [direction] * len(paths))
    if len(directions) != len(paths):
        raise ValueError("need one direction per path, got {} for {} "
                         "paths".format(len(directions), len(paths)))
    stim_delays = [path.set_input_transition(d)
                   for path, d in zip(paths, directions)]
    tstop = max(simulation_window(path, stimulus_delay=delay)
                for path, delay in zip(paths, stim_delays))
    record = [paths[0].input_node, paths[0].output_node]
    waveforms = run_transient_batch([path.circuit for path in paths],
                                    tstop, dt, record=record,
                                    adaptive=adaptive)
    delays = []
    for path, waveform in zip(paths, waveforms):
        lv = path.tech.vdd_half if level is None else level
        d = waveform.propagation_delay(path.input_node, path.output_node,
                                       lv)
        delays.append(math.inf if d is None else d)
    return delays, waveforms


def _measure_paths(spec, paths):
    """One shared transient of ``paths`` under ``spec``'s measurement."""
    dt = DEFAULT_DT if spec["dt"] is None else spec["dt"]
    if spec["measure"] == "pulse":
        values, _ = measure_output_pulse_batch(
            paths, spec["omega_in"], kind=spec["kind"], dt=dt,
            adaptive=spec["adaptive"])
    else:
        values, _ = measure_path_delay_batch(
            paths, direction=spec["direction"], dt=dt,
            adaptive=spec["adaptive"])
    return [float(value) for value in values]


def _grid(item):
    """An item's grid points: its resistances (a sweep row), its input
    widths (a transfer row) or one point of no grid (a calibration
    row)."""
    return item.get("resistances", item.get("widths", [None]))


def _measure_chunk(spec, items):
    """Chunk task of every calibration, sweep and transfer row.

    ``spec`` holds what the whole call shares: ``measure`` (``"pulse"``
    with ``omega_in`` and ``kind``, or ``"delay"`` with ``direction``),
    ``dt``, ``adaptive``, ``tech``, ``path_kwargs`` and ``fault``.  An
    item holds its ``sample`` and, for a sweep row, the ``resistances``
    its fault steps through, or, for a transfer row, the input
    ``widths`` (``spec`` then has no ``omega_in``, and its fault is
    injected as given): one instance per grid point gives a row of
    values.  An item without a grid gives one value.  Each item has
    its own grid, so a chunk may mix grid points; the grids have
    equally many (:func:`run_measurements` checks).

    The chunk's instances run as one lockstep population on either
    grid, and a lockstep row does not depend on its population.  Each
    population row's solver effort is booked to its item.
    """
    sweep = "resistances" in items[0]
    transfer = "widths" in items[0]
    grids = [_grid(item) for item in items]
    fault = spec["fault"]
    n = len(grids[0])
    # instance k is grid point k % n of item k // n
    points = [point for grid in grids for point in grid]
    paths = [build_instance(sample=items[k // n]["sample"],
                            tech=spec["tech"],
                            fault=(fault.with_resistance(point) if sweep
                                   else fault),
                            **spec["path_kwargs"])
             for k, point in enumerate(points)]
    population_spec = dict(spec, omega_in=points) if transfer else spec
    with rows_booked_to([k // n for k in range(len(paths))]):
        values = _measure_paths(population_spec, paths)
    if not (sweep or transfer):
        return values
    return [values[i * n:(i + 1) * n] for i in range(len(items))]


def run_measurements(spec, items, runtime=None, report=None,
                     batch_size=None, label="measure"):
    """Values of ``items`` measured under ``spec``, in item order.

    Dispatches :func:`_measure_chunk` through
    :meth:`~repro.runtime.Runtime.run_batched`.  The runtime sizes the
    chunks: ``ceil(len(items) / n_jobs)`` items each, so a serial call
    is one chunk and a pool gives each worker one, capped at
    :data:`MAX_POPULATION` instances and at least one item
    (``batch_size`` items instead when given: the sweeps' explicit
    chunk width).  The items' grids must have equally many points, so
    that one width serves the call.  With a result cache, each item is
    cached under ``stable_hash("measurement-row", spec, item,
    newton)``: ``spec`` and the item are everything the chunk task
    reads, and ``newton`` is the lockstep Newton token, which names the
    revision of the lockstep arithmetic.  No row depends on its chunk,
    so neither its value nor its key does.  ``label`` is telemetry
    only.  Raises ``TypeError`` for a ``spec["path_kwargs"]`` key that
    :func:`~repro.cells.build_path` does not take, before anything is
    keyed or run, and otherwise the first failed chunk's error.
    """
    unknown = sorted(set(spec["path_kwargs"])
                     - set(inspect.signature(build_path).parameters))
    if unknown:
        raise TypeError("build_path() got unexpected keyword argument(s) "
                        "{}".format(", ".join(map(repr, unknown))))
    runtime = Runtime() if runtime is None else runtime
    n_points = {len(_grid(item)) for item in items}
    if len(n_points) > 1:
        raise ValueError("items of one call need equally many R points "
                         "or widths, got {}".format(sorted(n_points)))
    if batch_size is None:
        per_worker = -(-len(items) // runtime.executor.n_jobs)
        batch_size = max(1, min(per_worker, MAX_POPULATION
                                // max(n_points, default=1)))
    keys = None
    if runtime.cache is not None:
        keys = [stable_hash("measurement-row", spec, item,
                            LOCKSTEP_NEWTON_CACHE_TOKEN)
                for item in items]
    run = runtime.run_batched(
        functools.partial(_measure_chunk, spec), items, keys=keys,
        batch_size=batch_size, label=label, report=report)
    if run.errors:
        raise run.errors[min(run.errors)]
    return run.values
