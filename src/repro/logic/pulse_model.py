"""Analytic logic-level pulse-propagation model (Omana-style).

The paper (Sec. 5) notes that electrical simulation of every candidate
path is impractical for realistic circuits and points at timing-accurate
logic-level models of transient-pulse propagation [Omana et al., IOLTS
2003].  This module implements such a model: each gate is a piecewise
transfer function with the same three regions observed electrically
(Fig. 10):

* ``w_in <= theta``            -> fully dampened (region 1),
* ``theta < w_in < theta+span`` -> steep attenuation (region 2),
* ``w_in >= theta+span``        -> asymptotic ``w_out = w_in - delta``
  (region 3; ``delta`` is the rise/fall delay imbalance).

Gate parameters can be set directly, derived from a
:class:`~repro.logic.simulator.GateTiming` table, or *calibrated against
the electrical simulator* (:func:`calibrate_gate_model`) — the
bottom-up/top-down synergy the paper's tool relies on.
"""

import numpy as np

from ..runtime.stats import current_stats


class GatePulseModel:
    """Piecewise-linear pulse transfer of one gate (one polarity)."""

    def __init__(self, theta, span, delta=0.0):
        if theta < 0 or span <= 0:
            raise ValueError("theta must be >= 0 and span > 0")
        self.theta = float(theta)
        self.span = float(span)
        self.delta = float(delta)

    @classmethod
    def from_delays(cls, tp_lh, tp_hl, span_fraction=0.6):
        """Derive model parameters from gate propagation delays.

        The rejection threshold of an inertial gate tracks its slower
        propagation delay; the attenuation span is a fraction of it; the
        asymptotic offset is the edge-delay imbalance.
        """
        slower = max(tp_lh, tp_hl)
        return cls(theta=slower, span=span_fraction * slower,
                   delta=abs(tp_lh - tp_hl))

    def asymptote_start(self):
        return self.theta + self.span

    def transfer(self, w_in):
        """Output pulse width for input width ``w_in``."""
        if w_in <= self.theta:
            return 0.0
        start = self.asymptote_start()
        w_asym = max(start - self.delta, 0.0)
        if w_in >= start:
            return max(w_in - self.delta, 0.0)
        # Region 2: linear ramp 0 -> w_asym over (theta, theta+span).
        return w_asym * (w_in - self.theta) / self.span

    def required_input(self, w_out):
        """Smallest input width producing at least ``w_out`` (inverse)."""
        if w_out <= 0.0:
            return self.theta
        start = self.asymptote_start()
        w_asym = max(start - self.delta, 0.0)
        if w_out >= w_asym:
            return w_out + self.delta
        if w_asym == 0.0:
            return start
        return self.theta + self.span * w_out / w_asym

    def __repr__(self):
        return ("GatePulseModel(theta={:.0f}ps, span={:.0f}ps, "
                "delta={:.0f}ps)").format(self.theta * 1e12,
                                          self.span * 1e12,
                                          self.delta * 1e12)


class PathPulseModel:
    """Composition of gate models along a path."""

    def __init__(self, gate_models):
        self.gate_models = list(gate_models)
        if not self.gate_models:
            raise ValueError("a path needs at least one gate")

    def transfer(self, w_in):
        w = float(w_in)
        for gate in self.gate_models:
            w = gate.transfer(w)
            if w <= 0.0:
                return 0.0
        return w

    def minimum_propagatable(self):
        """Smallest input width surviving to the path output.

        Computed by inverting the chain from the output back: the last
        gate must receive at least its own ``theta`` (exclusive), etc.
        A tiny epsilon keeps the result strictly in the propagating
        region.
        """
        eps = 1e-15
        needed = eps
        for gate in reversed(self.gate_models):
            needed = gate.required_input(needed) + eps
        return needed

    def region3_onset(self):
        """Input width at which the whole path is in its asymptotic
        region (every gate past its own attenuation span)."""
        needed = 0.0
        for gate in reversed(self.gate_models):
            needed = max(gate.required_input(needed), gate.asymptote_start())
        return needed

    def curve(self, w_in_values):
        """Vectorised transfer over a grid (for plotting / fitting)."""
        return np.array([self.transfer(w) for w in w_in_values])

    def __repr__(self):
        return "PathPulseModel({} gates)".format(len(self.gate_models))


def model_for_gate(gate, timing, span_fraction=0.6):
    """Gate model derived from a :class:`GateTiming` entry."""
    tp_lh, tp_hl = timing.delays(gate)
    return GatePulseModel.from_delays(tp_lh, tp_hl,
                                      span_fraction=span_fraction)


def path_model_from_netlist(netlist, path_nets, timing, span_fraction=0.6):
    """Pulse model for a structural path (list of nets, PI first).

    The time is booked as phase ``"pulse_model"`` on the active
    :class:`~repro.runtime.stats.SolverStats`.
    """
    with current_stats().phase("pulse_model"):
        models = []
        for net in path_nets[1:]:
            gate = netlist.gate_driving(net)
            if gate is None:
                raise ValueError(
                    "net {!r} on the path is undriven".format(net))
            models.append(model_for_gate(gate, timing, span_fraction))
        return PathPulseModel(models)


def calibrate_gate_model(kind, tech=None, fanout_loads=2,
                         w_in_grid=None, dt=None, kind_of_pulse="h"):
    """Fit a :class:`GatePulseModel` from electrical simulation.

    Builds a single-gate sensitized stage in :mod:`repro.cells`, sweeps
    the injected width and extracts (theta, span, delta) from the
    measured transfer curve.  This anchors the logic-level model to the
    electrical substrate.
    """
    from ..core.transfer import characterize_transfer
    from ..core.pulse import build_instance

    if w_in_grid is None:
        w_in_grid = np.linspace(0.04e-9, 0.5e-9, 24)

    stage = build_instance(tech=tech, gate_kinds=(kind,),
                           fanout_loads=fanout_loads, side_fanout_stages=())
    curve = characterize_transfer(stage, w_in_grid, kind=kind_of_pulse,
                                  dt=dt)
    theta = curve.dampened_limit()
    onset = curve.region3_onset()
    if onset is None:
        onset = float(curve.w_in[-1])
    span = max(onset - theta, 1e-12)
    # Asymptotic offset: mean (w_in - w_out) past the onset.
    mask = curve.w_in >= onset
    if mask.any():
        delta = float(np.mean(curve.w_in[mask] - curve.w_out[mask]))
    else:
        delta = 0.0
    return GatePulseModel(theta=theta, span=span, delta=max(delta, 0.0))
