"""Electrical-level pulse-test generation (Sec. 5).

"In order to detect a fault, we have to select a suitable kind of pulse
(h or l) and a path including the fault site.  The target is to optimize
the pair (ω_in, ω_th) which should maximize the range of detectable
resistances while avoiding false positives."

The key subtlety is the *pulse kind*: a defect that slows only one
transition polarity (an internal open) shrinks a pulse only when the
slowed edge is the pulse's **leading** (excursion-entry) edge at the
fault site; with the opposite kind the pulse *widens* instead and the
fault escapes.  ``select_pulse_kind`` encodes that reasoning and
``generate_pulse_test`` assembles the full test.
"""

import math

from ..faults import (BridgingFault, ExternalOpen, InternalBridgingFault,
                      InternalOpen, PULL_UP, inject, set_fault_resistance)
from ..montecarlo import NominalModel
from .calibration import calibrate_pulse_test
from .pulse import build_instance, measure_output_pulse_batch
from .search import BracketSearch, bisect_populations

#: transition polarity a fault degrades at its site ("rise", "fall",
#: "both")
RISE, FALL, BOTH = "rise", "fall", "both"


def degraded_transition(fault, cell_kind=None):
    """Which stage-output transition the defect slows (Sec. 2).

    ``cell_kind`` is required for internal bridging faults: a bridge on
    an NMOS-stack node (NAND) loads the pull-down and slows falling
    output edges; a PMOS-stack node (NOR) the dual.
    """
    if isinstance(fault, InternalOpen):
        return RISE if fault.network == PULL_UP else FALL
    if isinstance(fault, ExternalOpen):
        return BOTH
    if isinstance(fault, InternalBridgingFault):
        if cell_kind is None:
            raise ValueError(
                "internal bridging needs the victim cell kind")
        return FALL if cell_kind.startswith("nand") else RISE
    if isinstance(fault, BridgingFault):
        # The bridge fights the excursion away from the aggressor's
        # steady value: with aggressor at 0 the victim's rising edge is
        # degraded, and vice versa.  'auto' (None) aggressors oppose the
        # idle-0 h-pulse excursion, i.e. degrade the rise.
        if fault.aggressor_value in (None, 0):
            return RISE
        return FALL
    raise TypeError("unknown fault spec {!r}".format(fault))


def select_pulse_kind(path, fault):
    """Pick 'h' or 'l' so the degraded edge *shrinks* the pulse.

    The pulse shrinks when the slowed transition is the leading edge of
    the excursion at the fault site.  For a kind-``k`` pulse the fault
    site idles at ``idle_level(stage, input_idle(k))`` and the leading
    edge goes *away* from that idle value: idle 0 -> leading edge rises.
    Faults degrading both edges are detected by either kind; 'h' is
    returned by convention.
    """
    cell_kind = None
    if isinstance(fault, InternalBridgingFault):
        cell_kind = path.cell_at(fault.stage).kind
    direction = degraded_transition(fault, cell_kind=cell_kind)
    if direction == BOTH:
        return "h"
    stage = fault.stage
    # leading edge rises iff the fault site idles low
    idle_h = path.idle_level(stage, 0)   # kind 'h': input idles 0
    idle_l = path.idle_level(stage, 1)
    want_idle = 0 if direction == RISE else 1
    if idle_h == want_idle:
        return "h"
    if idle_l == want_idle:
        return "l"
    raise AssertionError("idle levels must differ between pulse kinds")


class GeneratedPulseTest:
    """A complete pulse test for one fault family on one path."""

    def __init__(self, fault_family, kind, calibration, r_min):
        self.fault_family = fault_family
        self.kind = kind
        self.calibration = calibration
        #: estimated minimal detectable resistance (None: not detected
        #: within the searched range)
        self.r_min = r_min

    @property
    def omega_in(self):
        return self.calibration.omega_in

    @property
    def omega_th(self):
        return self.calibration.omega_th

    def __repr__(self):
        return ("GeneratedPulseTest(kind={!r}, omega_in={:.0f}ps, "
                "omega_th={:.0f}ps, r_min={})").format(
                    self.kind, self.omega_in * 1e12, self.omega_th * 1e12,
                    "-" if self.r_min is None
                    else "{:.0f}".format(self.r_min))


def estimate_r_min(fault_family, omega_in, detector, kind="h", tech=None,
                   r_lo=200.0, r_hi=100e3, rel_tol=0.05, dt=None,
                   sample=None, **path_kwargs):
    """Minimal detectable resistance by electrical bisection.

    ``fault_family(r)`` maps resistance to a fault spec.  Detection uses
    the nominal (or given) instance; Monte Carlo bounds come from the
    calibration itself.  The bisection (midpoint ``sqrt(lo * hi)``,
    open while ``hi - lo > rel_tol * lo``) runs by
    :func:`~repro.core.search.bisect_populations`: both ends in one
    round, then the next levels' midpoints per round, each round one
    lockstep population of the faulty instance at its probes' R.
    Returns None when even ``r_hi`` escapes and ``r_lo`` when ``r_lo``
    is already detected.
    """
    sample = NominalModel() if sample is None else sample
    kwargs = {} if dt is None else {"dt": dt}
    base = build_instance(sample=sample, tech=tech, **path_kwargs)
    faulty = inject(base, fault_family(r_hi))

    def detected(probes):
        w_outs, _ = measure_output_pulse_batch(
            [set_fault_resistance(faulty.copy(), r) for _, r in probes],
            omega_in, kind=kind, **kwargs)
        return [detector.fault_detected(w_out) for w_out in w_outs]

    search = BracketSearch(r_lo, r_hi, lambda lo, hi: math.sqrt(lo * hi),
                           lambda lo, hi: hi - lo > rel_tol * lo)
    (r_min,) = bisect_populations([search], detected)
    return r_min


def generate_pulse_test(samples, fault_family, tech=None, dt=None,
                        r_hi=100e3, **path_kwargs):
    """Full Sec. 5 flow for one fault family on the reference path.

    1. pick the pulse kind from the fault's degraded transition,
    2. calibrate (ω_in, ω_th) on the fault-free population for that
       kind (yield-first),
    3. estimate the minimal detectable resistance by bisection.
    """
    probe = build_instance(sample=NominalModel(), tech=tech,
                           **path_kwargs)
    reference_fault = fault_family(1e3)
    kind = select_pulse_kind(probe, reference_fault)
    calibration = calibrate_pulse_test(samples, tech=tech, kind=kind,
                                       dt=dt, **path_kwargs)
    r_min = estimate_r_min(fault_family, calibration.omega_in,
                           calibration.detector, kind=kind, tech=tech,
                           dt=dt, r_hi=r_hi, **path_kwargs)
    return GeneratedPulseTest(fault_family, kind, calibration, r_min)
