"""Instance construction and electrical measurement primitives.

These are the two measurements everything in the paper reduces to:

* ``w_out = f_p(w_in)`` — the output pulse width when a pulse of width
  ``w_in`` is injected at the sensitized path's input (pulse testing), and
* ``d_p`` — the path propagation delay for a single input transition
  (reduced-clock delay-fault testing).

Every calibration, sweep and transfer row measures its population
through one chunk task, :func:`_measure_chunk`, dispatched, chunked
and cached under one key recipe by :func:`run_measurement_groups`,
which takes one or more independent measurements at once
(:func:`run_measurements` is its call of one).  A chunk's instances
that share topology, dt and time grid run as one lockstep population
of :func:`~repro.spice.run_transient_batch`, whatever their
measurements, each to its own window; the batch measurements of a path
list (:func:`measure_output_pulse_batch`,
:func:`measure_path_delay_batch`) take the same path.  A lockstep row
depends on nothing but itself, so a row reads the same in any chunk
and beside any other measurement.
"""

import functools
import inspect
import math

import numpy as np

from ..cells import build_path, default_technology
from ..faults import inject
from ..runtime import Runtime, stable_hash
from ..runtime.stats import rows_booked_to
from ..spice import BatchCompiledCircuit, run_transient_batch
from ..spice.mna import CompiledCircuit
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
    share one lockstep transient (see :func:`_measure_rows`) over a
    shared window, the widest of the per-instance windows — the extra
    settle time is measurement-neutral.  Returns ``(w_outs, waveforms)``
    lists aligned with ``paths``.
    """
    paths = list(paths)
    widths = list(w_in) if np.ndim(w_in) else [w_in] * len(paths)
    if len(widths) != len(paths):
        raise ValueError("need one pulse width per path, got {} for {} "
                         "paths".format(len(widths), len(paths)))
    return _measure_rows(_one_window(
        [_drive_pulse(path, w, kind, level) for path, w in zip(paths, widths)],
        dt, adaptive), record_all=record_all)


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
    return _measure_rows(_one_window(
        [_drive_transition(path, d, level)
         for path, d in zip(paths, directions)], dt, adaptive))


# ----------------------------------------------------------------------
# Measurement rows: a driven instance, its window and how it is read
# ----------------------------------------------------------------------

def _drive_pulse(path, w_in, kind, level):
    """Drive ``path`` with an input pulse of width ``w_in``.  Returns
    ``(path, window, read)``: ``read(waveform)`` is its ``w_out``."""
    delay = path.set_input_pulse(w_in, kind=kind)
    lv = path.tech.vdd_half if level is None else level
    polarity = output_pulse_polarity(path, kind)

    def read(waveform):
        return waveform.widest_pulse(path.output_node, lv, polarity)

    return (path, simulation_window(path, w_in=w_in, stimulus_delay=delay),
            read)


def _drive_transition(path, direction, level):
    """Drive ``path`` with one input transition.  Returns ``(path,
    window, read)``: ``read(waveform)`` is its delay, ``math.inf`` when
    the output never crosses the level."""
    delay = path.set_input_transition(direction)
    lv = path.tech.vdd_half if level is None else level

    def read(waveform):
        d = waveform.propagation_delay(path.input_node, path.output_node,
                                       lv)
        return math.inf if d is None else d

    return path, simulation_window(path, stimulus_delay=delay), read


def _one_window(driven, dt, adaptive):
    """Rows of ``driven`` instances that all stop at the widest of
    their windows (see :func:`_measure_rows`)."""
    stop = max(window for _, window, _ in driven)
    return [(path, stop, dt, adaptive, read) for path, _, read in driven]


def _measure_rows(rows, record_all=False):
    """Simulate and read ``rows``, each ``(path, stop, dt, adaptive,
    read)``: a driven instance, its stop time, its time grid and the
    reader of its value.

    The rows that share topology, ``dt`` and grid run as one lockstep
    population of :func:`~repro.spice.run_transient_batch`, each to its
    own stop, and a lockstep row does not depend on its population.
    Each population row's solver effort is booked to its position in
    ``rows``.  Only input and output are recorded unless
    ``record_all``.  Returns ``(values, waveforms)`` in row order.
    """
    members, circuits = _populations(rows)
    waveforms = [None] * len(rows)
    for key, population in members.items():
        _, dt, adaptive = key
        first = rows[population[0]][0]
        stops = [rows[k][1] for k in population]
        with rows_booked_to(population):
            # the batch takes the population's circuits over and keeps
            # only its template through the transient (built here, so
            # that no list of them waits on this frame during the call)
            measured = run_transient_batch(
                BatchCompiledCircuit(circuits.pop(key)), max(stops), dt,
                record=(None if record_all
                        else [first.input_node, first.output_node]),
                adaptive=adaptive, stops=stops)
        for k, waveform in zip(population, measured):
            waveforms[k] = waveform
    return ([read(waveform) for (*_, read), waveform in zip(rows, waveforms)],
            waveforms)


def _populations(rows):
    """``rows`` (see :func:`_measure_rows`) grouped by topology, ``dt``
    and grid: two dicts on the same keys, of the rows' indices and of
    their compiled circuits (a function of its own, so that no loop
    name of the caller keeps a compiled circuit alive)."""
    members, circuits = {}, {}
    for k, (path, _, dt, adaptive, _) in enumerate(rows):
        circuit = CompiledCircuit(path.circuit)
        key = (circuit.topology(), dt, adaptive)
        members.setdefault(key, []).append(k)
        circuits.setdefault(key, []).append(circuit)
    return members, circuits


def _grid(item):
    """An item's grid points: its resistances (a sweep row), its input
    widths (a transfer row) or one point of no grid (a calibration
    row)."""
    return item.get("resistances", item.get("widths", [None]))


def _item_rows(spec, item):
    """The rows of one item under ``spec``: one instance per grid point
    (see :func:`_measure_chunk`), each driven for ``spec``'s
    measurement, all stopping at the item's window, the widest of its
    instances'."""
    points = _grid(item)
    fault = spec["fault"]
    paths = [build_instance(sample=item["sample"], tech=spec["tech"],
                            fault=(fault.with_resistance(point)
                                   if "resistances" in item else fault),
                            **spec["path_kwargs"])
             for point in points]
    if spec["measure"] == "pulse":
        widths = (points if "widths" in item
                  else [spec["omega_in"]] * len(points))
        driven = [_drive_pulse(path, w, spec["kind"], None)
                  for path, w in zip(paths, widths)]
    else:
        driven = [_drive_transition(path, spec["direction"], None)
                  for path in paths]
    dt = DEFAULT_DT if spec["dt"] is None else spec["dt"]
    return _one_window(driven, dt, spec["adaptive"])


#: the payload field naming an item's measurement (its index in the
#: call's specs)
MEASUREMENT = "measurement"


def _measure_chunk(specs, payloads):
    """Chunk task of every calibration, sweep and transfer row.

    ``specs`` holds the call's measurements, each what its items share:
    ``measure`` (``"pulse"`` with ``omega_in`` and ``kind``, or
    ``"delay"`` with ``direction``), ``dt``, ``adaptive``, ``tech``,
    ``path_kwargs`` and ``fault``.  A payload is an item tagged with
    the index of its spec (:data:`MEASUREMENT`).  An item holds its
    ``sample`` and, for a sweep row, the ``resistances`` its fault
    steps through, or, for a transfer row, the input ``widths`` (its
    spec then has no ``omega_in``, and its fault is injected as given):
    one instance per grid point gives a row of values.  An item without
    a grid gives one value.

    Every instance of the chunk is built first; then the instances that
    share topology, dt and grid run as one lockstep population
    (:func:`_measure_rows`), each item's instances to the item's own
    window, and each is read by its own spec.  A lockstep row depends
    on nothing but its item, and each population row's solver effort is
    booked to its item.
    """
    rows, owners = [], []
    for position, payload in enumerate(payloads):
        item_rows = _item_rows(specs[payload[MEASUREMENT]], payload)
        rows.extend(item_rows)
        owners.extend([position] * len(item_rows))
    with rows_booked_to(owners):
        values, _ = _measure_rows(rows)
    values = iter(values)
    chunk = []
    for payload in payloads:
        row = [float(next(values)) for _ in _grid(payload)]
        gridded = "resistances" in payload or "widths" in payload
        chunk.append(row if gridded else row[0])
    return chunk


def run_measurements(spec, items, runtime=None, report=None,
                     batch_size=None, label="measure"):
    """Values of ``items`` measured under ``spec``, in item order: the
    one-measurement call of :func:`run_measurement_groups`.

    ``batch_size`` gives an explicit chunk width in items (the sweeps'
    explicit width) instead of the runtime's.  ``label`` is telemetry
    only.
    """
    (values,) = run_measurement_groups([(label, spec, items)],
                                       runtime=runtime, report=report,
                                       batch_size=batch_size)
    return values


def run_measurement_groups(groups, runtime=None, report=None,
                           batch_size=None):
    """Values of several independent measurements in one runtime call.

    ``groups`` lists ``(label, spec, items)`` triples; returns one list
    of values per group, in item order.  Every item runs through the
    chunk task :func:`_measure_chunk` by
    :meth:`~repro.runtime.Runtime.run_batched`, so the groups' rows
    share chunks and, where their topology, dt and grid agree, lockstep
    populations.  The runtime sizes the chunks by instance count: a
    worker's share of the call's instances, rounded up to whole items
    of the most points, at most :data:`MAX_POPULATION` instances, and
    never splitting an item (``batch_size`` items of the most points
    instead when given).  The items of one group must have equally
    many grid points.  With a result cache, each item is cached under
    ``stable_hash("measurement-row", spec, item, newton)``: ``spec``
    and the item are everything the chunk task reads, and ``newton`` is
    the lockstep Newton token, which names the revision of the lockstep
    arithmetic.  No row depends on its chunk or on the other groups,
    so neither its value nor its key does.  Labels are telemetry only:
    each item's trace events carry its group's label, and an error
    names the measurements of the items it failed.  Raises
    ``TypeError`` for a ``spec["path_kwargs"]`` key that
    :func:`~repro.cells.build_path` does not take, before anything is
    keyed or run, and otherwise the first failed item's error.
    """
    runtime = Runtime() if runtime is None else runtime
    labels, specs, payloads, sizes = [], [], [], []
    keys = None if runtime.cache is None else []
    for index, (label, spec, items) in enumerate(groups):
        unknown = sorted(set(spec["path_kwargs"])
                         - set(inspect.signature(build_path).parameters))
        if unknown:
            raise TypeError("build_path() got unexpected keyword "
                            "argument(s) {}".format(
                                ", ".join(map(repr, unknown))))
        n_points = {len(_grid(item)) for item in items}
        if len(n_points) > 1:
            raise ValueError("items of one measurement need equally many R "
                             "points or widths, got {}".format(
                                 sorted(n_points)))
        specs.append(spec)
        for item in items:
            labels.append(label)
            payloads.append(dict(item, **{MEASUREMENT: index}))
            sizes.append(len(_grid(item)))
            if keys is not None:
                keys.append(stable_hash("measurement-row", spec, item,
                                        LOCKSTEP_NEWTON_CACHE_TOKEN))
    widest = max(sizes, default=1)
    if batch_size is None:
        per_worker = -(-sum(sizes) // (runtime.executor.n_jobs * widest))
        budget = min(widest * per_worker, MAX_POPULATION)
    else:
        budget = widest * batch_size
    run = runtime.run_batched(
        functools.partial(_measure_chunk, tuple(specs)), payloads,
        keys=keys, batch_size=max(1, budget), weights=sizes,
        label="+".join(dict.fromkeys(label for label, _, _ in groups)),
        labels=labels, report=report)
    if run.errors:
        raise _attributed(run.errors, labels)
    values = iter(run.values)
    return [[next(values) for _ in items] for _, _, items in groups]


def _attributed(errors, labels):
    """The first failed item's error, with a note naming the
    measurements of every item that failed with it."""
    error = errors[min(errors)]
    failed = [labels[index] for index, other in sorted(errors.items())
              if other is error]
    # what ``add_note`` does (Python 3.11+), on every supported version
    error.__notes__ = getattr(error, "__notes__", []) + [
        "failed measurement rows: " + ", ".join(
            "{} x{}".format(label, failed.count(label))
            for label in dict.fromkeys(failed))]
    return error
