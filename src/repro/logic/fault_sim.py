"""Logic-level pulse-test fault simulation.

This is the reproduction of the tool the paper announces in its
conclusions ("a logic level fault simulation tool is under development in
order to apply our method to the case of large combinational networks").
A resistive defect at a net is represented by three electrically
calibrated quantities (:class:`DefectCalibration`):

* extra rise / extra fall delay of the defective net's transitions —
  drives delay-fault behaviour and polarity-dependent pulse stretching
  in the event-driven simulator;
* a *pulse-threshold shift* — the increase of the minimum propagatable
  pulse width caused by the defect's slew degradation.  Two-valued event
  simulation cannot represent partial-swing truncation, so this component
  is applied through the analytic Omana-style path model
  (:mod:`repro.logic.pulse_model`), which is exactly why the paper pairs
  its tool with a timing-accurate pulse propagation model [10].
"""

import math

import numpy as np

from .atpg import sensitize_path
from .paths import path_inversion_parity
from .pulse_model import GatePulseModel, PathPulseModel
from .simulator import GateTiming, NetDelayDefect, TimingSimulator


class DefectCalibration:
    """Electrically calibrated map: resistance -> defect behaviour.

    ``kind`` selects the defect class: ``"internal_pullup"`` (slows rising
    edges only), ``"internal_pulldown"`` (falling only) or ``"external"``
    (both edges, dominated by slew degradation).
    """

    def __init__(self, resistances, extra_rise, extra_fall, theta_shift,
                 kind):
        self.resistances = np.asarray(resistances, dtype=float)
        self.extra_rise = np.asarray(extra_rise, dtype=float)
        self.extra_fall = np.asarray(extra_fall, dtype=float)
        self.theta_shift = np.asarray(theta_shift, dtype=float)
        self.kind = kind
        lengths = {len(self.resistances), len(self.extra_rise),
                   len(self.extra_fall), len(self.theta_shift)}
        if len(lengths) != 1:
            raise ValueError("calibration arrays must be aligned")
        if np.any(np.diff(self.resistances) <= 0):
            raise ValueError("resistances must be strictly increasing")

    # ------------------------------------------------------------------

    def _interp(self, table, resistance):
        return float(np.interp(resistance, self.resistances, table))

    def defect_for(self, net, resistance):
        """Edge-delay part as a :class:`NetDelayDefect` (event-driven)."""
        return NetDelayDefect(
            net,
            extra_rise=self._interp(self.extra_rise, resistance),
            extra_fall=self._interp(self.extra_fall, resistance))

    def theta_shift_for(self, resistance):
        """Pulse-threshold shift (seconds) at ``resistance``."""
        return self._interp(self.theta_shift, resistance)

    def apply_to_path_model(self, model, gate_index, resistance):
        """Path model with the defect folded into one gate's transfer.

        The defective stage's rejection threshold grows by the calibrated
        theta shift and its asymptotic offset by the edge-delay imbalance
        (the width a surviving pulse loses).
        """
        gates = list(model.gate_models)
        if not 0 <= gate_index < len(gates):
            raise ValueError("gate_index out of range")
        base = gates[gate_index]
        shift = self.theta_shift_for(resistance)
        imbalance = abs(self._interp(self.extra_rise, resistance)
                        - self._interp(self.extra_fall, resistance))
        gates[gate_index] = GatePulseModel(
            theta=base.theta + shift,
            span=base.span + 0.5 * shift,
            delta=base.delta + imbalance)
        return PathPulseModel(gates)

    # ------------------------------------------------------------------

    def to_dict(self):
        """Plain JSON-serialisable form (runtime cache entries)."""
        return {
            "resistances": [float(r) for r in self.resistances],
            "extra_rise": [float(v) for v in self.extra_rise],
            "extra_fall": [float(v) for v in self.extra_fall],
            "theta_shift": [float(v) for v in self.theta_shift],
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["resistances"], data["extra_rise"],
                   data["extra_fall"], data["theta_shift"], data["kind"])

    @classmethod
    def from_electrical(cls, kind, resistances, tech=None, stage=2,
                        dt=None, runtime=None, **path_kwargs):
        """Build the table by electrical simulation on a reference path.

        For every R the defect is injected at ``stage`` of a reference
        structure; the added 50 % crossing delay of the stage output is
        measured for both input transition directions, and the minimum
        propagatable pulse width of the whole path is found by bisection
        to extract the threshold shift.

        The fault-free path and the faulty paths (one per R) are two
        circuit topologies, and each runs as lockstep populations: one
        for its rise and fall delays, then the rounds of its width
        searches, all run together by
        :func:`~repro.core.search.bisect_populations` (the widths of
        :func:`~repro.core.transfer.minimum_propagatable_width`).
        """
        from ..cells import default_technology
        from ..core.pulse import build_instance, measure_path_delay_batch
        from ..core.search import bisect_populations
        from ..core.transfer import pulses_survive, width_search
        from ..faults import (ExternalOpen, InternalOpen, PULL_DOWN,
                              PULL_UP, inject, set_fault_resistance)
        from ..runtime import CacheMiss, stable_hash
        from ..spice.transient import LOCKSTEP_NEWTON_CACHE_TOKEN

        resistances = sorted(float(r) for r in resistances)
        cache = None if runtime is None else runtime.cache
        key = None
        if cache is not None:
            resolved_tech = (default_technology() if tech is None
                             else tech)
            # its delays and width searches run as lockstep populations,
            # so the key names the lockstep arithmetic
            key = stable_hash("defect-calibration", kind, resistances,
                              resolved_tech, stage, dt, path_kwargs,
                              LOCKSTEP_NEWTON_CACHE_TOKEN)
            try:
                return cls.from_dict(cache.get(key))
            except CacheMiss:
                pass
        if kind == "internal_pullup":
            fault = InternalOpen(stage, PULL_UP, resistances[0])
        elif kind == "internal_pulldown":
            fault = InternalOpen(stage, PULL_DOWN, resistances[0])
        elif kind == "external":
            fault = ExternalOpen(stage, resistances[0])
        else:
            raise ValueError("unknown defect kind {!r}".format(kind))

        base = build_instance(tech=tech, **path_kwargs)
        faulty = inject(base, fault)
        # configuration 0 is fault-free, configuration k the fault at
        # resistances[k - 1]; the two topologies are the two groups
        paths = [base] + [set_fault_resistance(faulty.copy(), r)
                          for r in resistances]
        groups = [[0], list(range(1, len(paths)))]
        kwargs = {} if dt is None else {"dt": dt}
        delays = [None] * len(paths)
        for group in groups:
            measured, _ = measure_path_delay_batch(
                [paths[k].copy() for k in group for _ in range(2)],
                ["rise", "fall"] * len(group), **kwargs)
            for i, k in enumerate(group):
                delays[k] = measured[2 * i:2 * i + 2]
        w_min = bisect_populations(
            [width_search(group="faulty" if k else "fault-free")
             for k in range(len(paths))],
            lambda probes: pulses_survive(
                [paths[k] for k, _ in probes], [w for _, w in probes],
                dt=dt))
        w_min = [math.inf if w is None else w for w in w_min]

        (d_rise_ff, d_fall_ff), w_min_ff = delays[0], w_min[0]
        extra_rise, extra_fall, theta_shift = [], [], []
        for (d_rise, d_fall), w in zip(delays[1:], w_min[1:]):
            # Attribute the whole-path delay change to the defective
            # stage; the fault-free remainder is unchanged by the defect.
            extra_rise.append(_finite(d_rise - d_rise_ff))
            extra_fall.append(_finite(d_fall - d_fall_ff))
            theta_shift.append(_finite(w - w_min_ff))
        calibration = cls(resistances, extra_rise, extra_fall,
                          theta_shift, kind)
        if key is not None:
            cache.put(key, calibration.to_dict())
        return calibration


def _finite(value, ceiling=1e-6):
    """Clamp to [0, ceiling]; inf (never-propagates) becomes the ceiling."""
    if math.isinf(value) or math.isnan(value):
        return ceiling
    return min(max(value, 0.0), ceiling)


class PulseTestResult:
    """Outcome of one logic-level pulse test application."""

    def __init__(self, observed_width, observation_net, trace):
        self.observed_width = observed_width
        self.observation_net = observation_net
        self.trace = trace

    def detected(self, omega_th):
        """Fault indication: expected output pulse absent / too narrow."""
        return self.observed_width < omega_th

    def __repr__(self):
        return "PulseTestResult(w_out={:.0f}ps at {})".format(
            self.observed_width * 1e12, self.observation_net)


def run_pulse_test(netlist, path_nets, vector, w_in, timing=None,
                   defect=None, launch_time=1e-9, t_end=None):
    """Apply a pulse test along a sensitized path (event-driven).

    ``vector`` is the complete PI assignment (from the ATPG); a pulse of
    width ``w_in`` is injected on the path's PI and the pulse width
    observed at the path's PO is returned.
    """
    timing = GateTiming() if timing is None else timing
    pi = path_nets[0]
    po = path_nets[-1]
    if pi not in netlist.primary_inputs:
        raise ValueError("path must start at a primary input")

    idle = vector[pi]
    events = [(launch_time, pi, 1 - idle),
              (launch_time + w_in, pi, idle)]
    if t_end is None:
        t_end = launch_time + w_in + 100e-12 * (len(path_nets) + 20)

    simulator = TimingSimulator(netlist, timing=timing, defect=defect)
    trace = simulator.run(vector, events=events, t_end=t_end)
    return PulseTestResult(trace.widest_pulse(po), po, trace)


def characterize_path_for_test(netlist, path_nets, timing=None,
                               max_backtracks=2000):
    """Sensitize a path and derive its pulse-test parameters.

    Returns ``None`` when unsensitizable, else a dict with the vector,
    the logic-level (ω_in, ω_th) recommendation from the analytic model
    (ω_in at the onset of the path's asymptotic region, the Sec. 5 rule)
    and the path's inversion parity.
    """
    from .pulse_model import path_model_from_netlist

    timing = GateTiming() if timing is None else timing
    try:
        sens = sensitize_path(netlist, path_nets,
                              max_backtracks=max_backtracks)
    except ValueError:
        return None
    if sens is None:
        return None
    vector = sens.vector(netlist)
    model = path_model_from_netlist(netlist, path_nets, timing)
    omega_in = model.region3_onset()
    omega_th = model.transfer(omega_in)
    values = netlist.evaluate(vector)
    parity = path_inversion_parity(netlist, path_nets, side_values=values)
    return {
        "path": list(path_nets),
        "vector": vector,
        "sensitization": sens,
        "model": model,
        "omega_in": omega_in,
        "omega_th": omega_th,
        "parity": parity,
    }


def minimum_detectable_resistance(model, fault_gate_index, calibration,
                                  omega_in, omega_th, rel_tol=0.02):
    """Smallest R flagged on a path, via the analytic defect model.

    Detection: the defective path's output pulse at the calibrated ω_in
    falls below ω_th.  Bisects the calibrated resistance range (the
    defect behaviour is monotone in R).  Returns None when even the
    largest calibrated R escapes.
    """
    def detected(r):
        faulted = calibration.apply_to_path_model(
            model, fault_gate_index, r)
        return faulted.transfer(omega_in) < omega_th

    lo = float(calibration.resistances[0])
    hi = float(calibration.resistances[-1])
    if not detected(hi):
        return None
    if detected(lo):
        return lo
    while hi - lo > rel_tol * lo:
        mid = (lo * hi) ** 0.5  # geometric: R spans decades
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return hi
