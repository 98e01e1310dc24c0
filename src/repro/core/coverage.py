"""Coverage-vs-resistance experiments (Figs. 6-9).

Each (Monte Carlo instance, R point) pair is one faulty instance; a
sweep task measures all of its pairs in one lockstep transient.
Coverage is then evaluated for every tested setting of the test
parameter (clock-period factor T'/T* or sensing-threshold factor
ω_th'/ω_th*) from the same measurements — the measurement is independent
of the decision threshold.

The per-sample sweep rows are embarrassingly parallel, so they are
dispatched through the campaign runtime (:mod:`repro.runtime`): pass a
``runtime`` to fan rows out over a process pool and/or skip rows whose
content-addressed result is already cached.  ``fault_family`` is a
:class:`~repro.faults.models.FaultSpec` prototype (picklable and
cacheable; the sweep task rescales it with ``with_resistance``).
"""

import math

from ..cells import default_technology
from ..faults import FaultSpec
from ..montecarlo import wilson_interval
from ..runtime import check_batch_size
from .pulse import run_measurements


class CoverageCurve:
    """C(R) for one test-parameter setting.

    Stores per-R ``(hits, n)`` pairs; the coverage fractions are derived
    from them.  An earlier version stored only the float ratios and
    reconstructed hit counts for the Wilson intervals via
    ``round(c * n_samples)`` — information loss that silently mis-binned
    averaged or externally-supplied ratios (e.g. 0.375 of 4
    banker's-rounds to 2 hits).  Keeping the counts makes the intervals
    exact by construction.

    ``n_samples`` is an int for the classic uniform-population sweep
    (every R point measured on the full population) or a per-point
    sequence for adaptive-precision campaigns, where sequential sample
    allocation stops easy points early.  The Wilson intervals always use
    each point's own ``n``, so variable-n curves report exact error
    bars, not a uniform approximation.
    """

    def __init__(self, label, resistances, hits, n_samples):
        self.label = label
        self.resistances = list(resistances)
        if isinstance(n_samples, (int, float)):
            ns = [n_samples] * len(self.resistances)
        else:
            ns = list(n_samples)
        if len(ns) != len(self.resistances):
            raise ValueError(
                "need one n per R point, got {} for {} points".format(
                    len(ns), len(self.resistances)))
        self.ns = []
        for n in ns:
            if n != int(n) or int(n) <= 0:
                raise ValueError(
                    "n_samples must be positive integers, got {!r}"
                    .format(n))
            self.ns.append(int(n))
        #: largest per-point population (== the population size for
        #: uniform curves); kept as an int attribute for compatibility
        self.n_samples = max(self.ns) if self.ns else int(n_samples)
        self.hits = []
        for h, n in zip(self._check_length(hits), self.ns):
            if h != int(h):
                raise ValueError(
                    "hit counts must be integers, got {!r} (pass the raw "
                    "detection counts, not coverage ratios)".format(h))
            h = int(h)
            if not 0 <= h <= n:
                raise ValueError(
                    "hit count {} outside [0, n={}]".format(h, n))
            self.hits.append(h)
        self.coverage = [h / n for h, n in zip(self.hits, self.ns)]

    def _check_length(self, hits):
        hits = list(hits)
        if len(hits) != len(self.resistances):
            raise ValueError(
                "need one hit count per R point, got {} for {} points"
                .format(len(hits), len(self.resistances)))
        return hits

    @property
    def uniform(self):
        """True when every R point was measured on the same population."""
        return len(set(self.ns)) <= 1

    def confidence_intervals(self):
        return [wilson_interval(h, n)
                for h, n in zip(self.hits, self.ns)]

    def halfwidths(self):
        """Per-point Wilson half-widths (the adaptive stopping metric)."""
        return [0.5 * (hi - lo) for lo, hi in self.confidence_intervals()]

    def minimum_detectable_r(self, target=1.0):
        """Smallest sampled R with coverage >= target (None if never)."""
        for r, c in zip(self.resistances, self.coverage):
            if c >= target:
                return r
        return None

    def __repr__(self):
        n = ("n={}".format(self.n_samples) if self.uniform
             else "n={}..{}".format(min(self.ns), max(self.ns)))
        return "CoverageCurve({!r}, {} R points, {})".format(
            self.label, len(self.resistances), n)


class CoverageResult:
    """All curves of one experiment plus the raw per-sample measurements."""

    def __init__(self, resistances, curves, raw):
        self.resistances = list(resistances)
        #: {setting label: CoverageCurve}
        self.curves = dict(curves)
        #: raw[sample_index][r_index] measurement (w_out or delay)
        self.raw = raw

    def curve(self, label):
        return self.curves[label]

    def labels(self):
        return sorted(self.curves)


#: the measurement contract a sweep may carry on top of its samples,
#: fault, grid and path
MEASURE_FIELDS = ("measure", "omega_in", "kind", "direction")


def build_sweep_payloads(samples, fault, resistances, tech=None, dt=None,
                         adaptive=False, path_kwargs=None, **measure_spec):
    """Spec and items of a per-sample measurement sweep.

    This is the single source of truth for the sweep task contract:
    the fixed-grid drivers (:func:`sweep_pulse_measurements` /
    :func:`sweep_delay_measurements`) and the adaptive campaign
    (:mod:`repro.core.adaptive_coverage`) both build their sweeps
    here, so a row computed through either path lands under the same
    content-addressed cache key (see
    :func:`~repro.core.pulse.run_measurement_groups`).  ``fault`` must be a
    picklable :class:`~repro.faults.models.FaultSpec` prototype
    (``TypeError`` otherwise).  ``measure_spec`` is ``measure="pulse",
    omega_in=..., kind=...`` or ``measure="delay", direction=...``
    (``ValueError`` on any other field).  Returns ``(spec, items)`` for
    :func:`~repro.core.pulse.run_measurements`: one item per sample
    over the whole grid.
    """
    if not isinstance(fault, FaultSpec):
        raise TypeError(
            "sweeps need a picklable FaultSpec prototype, got {!r}"
            .format(fault))
    unknown = sorted(set(measure_spec) - set(MEASURE_FIELDS))
    if unknown:
        raise ValueError("unknown measurement setting(s) {}".format(
            ", ".join(unknown)))
    tech = default_technology() if tech is None else tech
    path_kwargs = {} if path_kwargs is None else dict(path_kwargs)
    resistances = [float(r) for r in resistances]
    spec = dict(fault=fault, tech=tech, dt=dt, adaptive=adaptive,
                path_kwargs=path_kwargs, **measure_spec)
    items = [{"sample": sample, "resistances": resistances}
             for sample in samples]
    return spec, items


def _sweep_batch_size(engine, batch_size):
    """A sweep's explicit chunk width, or None: the runtime sizes the
    chunks (see :func:`~repro.core.pulse.run_measurement_groups`).
    ``engine`` is None or ``"batched"``, with no effect."""
    if engine not in (None, "batched"):
        raise ValueError("unknown engine {!r}".format(engine))
    return None if batch_size is None else check_batch_size(batch_size)


def pulse_sweep_rows(samples, fault_family, resistances, omega_in,
                     kind="h", tech=None, dt=None, adaptive=False,
                     **path_kwargs):
    """The measurement group of :func:`sweep_pulse_measurements`:
    ``(label, spec, items)`` for
    :func:`~repro.core.pulse.run_measurement_groups`."""
    return ("pulse-sweep",) + build_sweep_payloads(
        samples, fault_family, resistances, tech=tech, dt=dt,
        adaptive=adaptive, path_kwargs=path_kwargs, measure="pulse",
        omega_in=float(omega_in), kind=kind)


def delay_sweep_rows(samples, fault_family, resistances, direction="rise",
                     tech=None, dt=None, adaptive=False, **path_kwargs):
    """The measurement group of :func:`sweep_delay_measurements`."""
    return ("delay-sweep",) + build_sweep_payloads(
        samples, fault_family, resistances, tech=tech, dt=dt,
        adaptive=adaptive, path_kwargs=path_kwargs, measure="delay",
        direction=direction)


def _sweep(group, runtime, report, engine, batch_size):
    """Dispatch one sweep's rows through the runtime.

    Each chunk of samples is one executor task, so chunking composes
    with the process pool, and a chunk's samples x R points run as one
    lockstep population on either grid.  A row's values and cache key
    do not depend on its chunk.
    """
    label, spec, items = group
    return run_measurements(spec, items, runtime=runtime, report=report,
                            batch_size=_sweep_batch_size(engine, batch_size),
                            label=label)


def sweep_pulse_measurements(samples, fault_family, resistances,
                             omega_in, kind="h", tech=None, dt=None,
                             runtime=None, report=None, engine=None,
                             batch_size=None, adaptive=False,
                             **path_kwargs):
    """Per-sample, per-R output pulse widths for a fault family.

    ``fault_family`` is a fault prototype (any resistance).  Each task
    simulates a chunk of samples, sized by the runtime; its samples x
    ``resistances`` run in lockstep as one population.  ``batch_size``
    (an explicit chunk width) and ``engine`` (None or ``"batched"``,
    with no effect) remain only because the end-to-end and runtime
    benches pass them; both go when those benches change.
    """
    return _sweep(pulse_sweep_rows(samples, fault_family, resistances,
                                   omega_in, kind=kind, tech=tech, dt=dt,
                                   adaptive=adaptive, **path_kwargs),
                  runtime, report, engine, batch_size)


def sweep_delay_measurements(samples, fault_family, resistances,
                             direction="rise", tech=None, dt=None,
                             runtime=None, report=None, engine=None,
                             batch_size=None, adaptive=False,
                             **path_kwargs):
    """Per-sample, per-R path delays for a fault family (``engine`` and
    ``batch_size`` as in :func:`sweep_pulse_measurements`)."""
    return _sweep(delay_sweep_rows(samples, fault_family, resistances,
                                   direction=direction, tech=tech, dt=dt,
                                   adaptive=adaptive, **path_kwargs),
                  runtime, report, engine, batch_size)


def pulse_decision(detector, factor=1.0):
    """``(label, decide(w_out, sample))`` of C_pulse at ω_th'/ω_th* =
    ``factor``."""
    scaled = detector.scaled(factor)
    return ("{:.1f}*w_th".format(factor),
            lambda value, sample: scaled.fault_detected(value))


def delay_decision(test, factor=1.0):
    """``(label, decide(delay, sample))`` of C_del at T'/T* = ``factor``."""
    return ("{:.1f}*T".format(factor),
            lambda value, sample: test.detects(value, sample=sample,
                                               t_factor=factor))


def _coverage_result(raw, samples, resistances, decisions):
    """One uniform-n curve per ``(label, decide)`` over ``raw``."""
    curves = {}
    for label, decide in decisions:
        hit_counts = [sum(1 for row, sample in zip(raw, samples)
                          if decide(row[ri], sample))
                      for ri in range(len(resistances))]
        curves[label] = CoverageCurve(label, resistances, hit_counts,
                                      len(samples))
    return CoverageResult(resistances, curves, raw)


def pulse_coverage(raw, samples, resistances, calibration,
                   threshold_factors=(0.9, 1.0, 1.1)):
    """C_pulse(ω_th', R) from raw pulse measurements.

    The paper's Fig. 7/9 settings: ω_th' in {0.9, 1.0, 1.1} x ω_th* — the
    swept factor *is* the sensing-sensitivity fluctuation scenario, so no
    additional per-sample threshold noise is applied here (the calibration
    already guaranteed zero false positives at the 1.1 worst case).
    """
    return _coverage_result(
        raw, samples, resistances,
        [pulse_decision(calibration.detector, f) for f in threshold_factors])


def delay_coverage(raw, samples, resistances, test,
                   period_factors=(0.9, 1.0, 1.1)):
    """C_del(T', R) from raw delay measurements (Fig. 6/8 settings)."""
    return _coverage_result(
        raw, samples, resistances,
        [delay_decision(test, f) for f in period_factors])


def detected_fraction_is_monotonic(curve, tolerance=0.0):
    """True when coverage never decreases with R beyond ``tolerance``.

    Holds for opens (bigger defect, easier detection); bridging violates
    it by design — C_del *decays* with R (Fig. 8).
    """
    values = curve.coverage
    return all(b >= a - tolerance for a, b in zip(values, values[1:]))


def delay_is_all_finite(raw):
    """True when every raw delay is finite (no functional failures)."""
    return all(math.isfinite(d) for row in raw for d in row)
