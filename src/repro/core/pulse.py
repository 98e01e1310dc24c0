"""Instance construction and electrical measurement primitives.

These are the two measurements everything in the paper reduces to:

* ``w_out = f_p(w_in)`` — the output pulse width when a pulse of width
  ``w_in`` is injected at the sensitized path's input (pulse testing), and
* ``d_p`` — the path propagation delay for a single input transition
  (reduced-clock delay-fault testing).
"""

import math

from ..cells import build_path, default_technology
from ..faults import inject
from ..spice import run_transient_batch

#: default transient step; stimulus edges are >= 50 ps so 2 ps resolves
#: them with >25 points per edge
DEFAULT_DT = 2e-12

#: per-gate time budget used to size the simulation window
GATE_DELAY_BUDGET = 0.35e-9

#: settling margin after the last expected event
WINDOW_MARGIN = 1.2e-9


def chunk_signature(payload, fields):
    """Cheap comparable signature of one chunk payload's shared settings.

    Lists become tuples and fault specs their ``repr`` (kind + stage +
    resistance) so payloads built separately compare by value, not
    identity.
    """
    sig = []
    for field in fields:
        value = payload.get(field)
        if isinstance(value, (list, tuple)):
            value = tuple(float(v) if isinstance(v, (int, float)) else v
                          for v in value)
        elif value is not None and field == "fault":
            value = repr(value)
        sig.append((field, value))
    return tuple(sig)


def assert_chunk_compatible(payloads, fields, task="chunk task"):
    """Fail loudly when a chunk mixes incompatible measurement settings.

    The lockstep chunk tasks read every measurement setting from their
    first payload; a mis-grouped chunk would otherwise silently measure
    every sample with the first payload's settings.  Raises
    ``ValueError`` naming the first differing field.
    """
    first = chunk_signature(payloads[0], fields)
    for position, payload in enumerate(payloads[1:], start=1):
        sig = chunk_signature(payload, fields)
        if sig == first:
            continue
        diffs = ["{}: {!r} != {!r}".format(field, got, want)
                 for (field, want), (_, got) in zip(first, sig)
                 if want != got]
        raise ValueError(
            "incompatible payloads in one {}: payload {} differs from "
            "payload 0 on {}".format(task, position, "; ".join(diffs)))


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
    population, which runs the scalar Newton.
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

    The instances share one transient (see
    :func:`~repro.spice.run_transient_batch`: lockstep for more than
    one path) over a shared window, the widest of the per-instance
    windows — the extra settle time is measurement-neutral.  Returns
    ``(w_outs, waveforms)`` lists aligned with ``paths``.
    """
    paths = list(paths)
    delays = [path.set_input_pulse(w_in, kind=kind) for path in paths]
    tstop = max(simulation_window(path, w_in=w_in, stimulus_delay=delay)
                for path, delay in zip(paths, delays))
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

    Returns ``(delays, waveforms)``; non-crossing outputs report
    ``math.inf`` exactly like :func:`measure_path_delay`.
    """
    paths = list(paths)
    stim_delays = [path.set_input_transition(direction) for path in paths]
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
