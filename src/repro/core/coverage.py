"""Coverage-vs-resistance experiments (Figs. 6-9).

For each Monte Carlo instance the fault is injected once and its
resistance swept, so a sweep costs one netlist copy plus one transient per
R point.  Coverage is then evaluated for every tested setting of the test
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
from ..faults import FaultSpec, inject, set_fault_resistance
from ..montecarlo import wilson_interval
from ..runtime import (DEFAULT_BATCH_SIZE, Runtime, check_batch_size,
                       engine_cache_tag, stable_hash)
from .pulse import (assert_chunk_compatible, build_instance,
                    measure_output_pulse_batch, measure_path_delay_batch)


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


# ----------------------------------------------------------------------
# The sweep task (module-level: picklable for the process pool)
# ----------------------------------------------------------------------

def _measure_kwargs(payload):
    """Time-grid kwargs (dt + adaptive) encoded in a sweep-row or
    calibration payload."""
    kwargs = {"adaptive": payload.get("adaptive", False)}
    if payload["dt"] is not None:
        kwargs["dt"] = payload["dt"]
    return kwargs


#: payload fields every member of one sweep chunk must agree on (the
#: chunk task applies the first payload's settings to all samples)
SWEEP_CHUNK_FIELDS = ("measure", "dt", "adaptive", "omega_in", "kind",
                      "direction", "fault")

#: the measurement contract a sweep payload may carry on top of its
#: sample, fault, grid and path
MEASURE_FIELDS = ("measure", "omega_in", "kind", "direction")


def _sweep_chunk_task(payloads):
    """Measurement rows of a chunk of samples over their resistance
    grids: one transient of the whole chunk per grid position.

    Each sample steps through its own grid, so a chunk may mix R points;
    the grids only need equally many points.
    """
    assert_chunk_compatible(payloads, SWEEP_CHUNK_FIELDS,
                            task="sweep chunk")
    n_points = {len(payload["resistances"]) for payload in payloads}
    if len(n_points) > 1:
        raise ValueError("payloads in one sweep chunk need equally many "
                         "R points, got {}".format(sorted(n_points)))
    first = payloads[0]
    kwargs = _measure_kwargs(first)
    instances = []
    for payload in payloads:
        base = build_instance(sample=payload["sample"],
                              tech=payload["tech"],
                              **payload["path_kwargs"])
        fault = payload["fault"].with_resistance(payload["resistances"][0])
        instances.append(inject(base, fault))
    rows = [[] for _ in instances]
    for step in range(n_points.pop()):
        for faulty, payload in zip(instances, payloads):
            set_fault_resistance(faulty, payload["resistances"][step])
        if first["measure"] == "pulse":
            values, _ = measure_output_pulse_batch(
                instances, first["omega_in"], kind=first["kind"], **kwargs)
        else:
            values, _ = measure_path_delay_batch(
                instances, direction=first["direction"], **kwargs)
        for row, value in zip(rows, values):
            row.append(float(value))
    return rows


def build_sweep_payloads(samples, fault, resistances, tech=None, dt=None,
                         batch_size=1, adaptive=False, path_kwargs=None,
                         with_keys=True, **measure_spec):
    """Payloads + cache keys for a per-sample measurement sweep.

    This is the single source of truth for the sweep task contract:
    the fixed-grid drivers (:func:`sweep_pulse_measurements` /
    :func:`sweep_delay_measurements`) and the adaptive campaign
    (:mod:`repro.core.adaptive_coverage`) both build their payloads
    here, so a row computed through either path lands under the same
    content-addressed cache key.  ``fault`` must be a picklable
    :class:`~repro.faults.models.FaultSpec` prototype (``TypeError``
    otherwise).  ``batch_size`` is the dispatch grain the keys are
    tagged for (see :func:`~repro.runtime.engine_cache_tag`).
    ``measure_spec`` is ``measure="pulse", omega_in=..., kind=...`` or
    ``measure="delay", direction=...`` (``ValueError`` on any other
    field); returns ``(payloads, keys)`` with ``keys=None`` when
    ``with_keys`` is false.
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
    payloads = [dict(sample=sample, fault=fault, resistances=resistances,
                     tech=tech, dt=dt, path_kwargs=path_kwargs,
                     adaptive=adaptive, **measure_spec)
                for sample in samples]
    keys = None
    if with_keys:
        tag = engine_cache_tag(batch_size, adaptive)
        keys = [stable_hash("sweep-row", tech, sample, fault, resistances,
                            dt, path_kwargs, measure_spec, *tag)
                for sample in samples]
    return payloads, keys


def _sweep_batch_size(engine, batch_size):
    """The dispatch grain of a sweep: ``batch_size`` samples per task
    (default 1).  ``engine`` is its older spelling: ``"scalar"`` is one
    sample per task, ``"batched"`` defaults to
    :data:`~repro.runtime.DEFAULT_BATCH_SIZE`."""
    if engine not in (None, "scalar", "batched"):
        raise ValueError("unknown engine {!r}".format(engine))
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE if engine == "batched" else 1
    batch_size = check_batch_size(batch_size)
    if engine == "scalar" and batch_size > 1:
        raise ValueError("engine='scalar' runs one sample per task; got "
                         "batch_size={}".format(batch_size))
    return batch_size


def _sweep_rows(samples, fault, resistances, tech, dt, runtime, label,
                report, path_kwargs, batch_size, adaptive=False,
                **measure_spec):
    """Dispatch the per-sample measurement rows through the runtime.

    Samples are grouped into chunks of ``batch_size``; each chunk is
    one executor task, so batching composes with the process pool.  A
    chunk of one runs the scalar Newton, larger chunks the lockstep
    engine, and their cache keys carry an engine tag so the two never
    serve each other's cached rows (they agree only to tolerance, not
    bit-exactly).
    """
    runtime = Runtime() if runtime is None else runtime
    payloads, keys = build_sweep_payloads(
        samples, fault, resistances, tech=tech, dt=dt,
        batch_size=batch_size, adaptive=adaptive, path_kwargs=path_kwargs,
        with_keys=runtime.cache is not None, **measure_spec)
    run = runtime.run_batched(_sweep_chunk_task, payloads, keys=keys,
                              batch_size=batch_size, label=label,
                              report=report)
    if run.errors:
        raise run.errors[min(run.errors)]
    return run.values


def sweep_pulse_measurements(samples, fault_family, resistances,
                             omega_in, kind="h", tech=None, dt=None,
                             runtime=None, report=None, engine=None,
                             batch_size=None, adaptive=False,
                             **path_kwargs):
    """Per-sample, per-R output pulse widths for a fault family.

    ``fault_family`` is a fault prototype (any resistance).  Each task
    simulates ``batch_size`` samples (default 1; more run in lockstep).
    ``engine="batched"`` is the older spelling of ``batch_size > 1``.
    """
    return _sweep_rows(samples, fault_family, resistances, tech, dt,
                       runtime, "pulse-sweep", report, path_kwargs,
                       _sweep_batch_size(engine, batch_size),
                       adaptive=adaptive, measure="pulse",
                       omega_in=float(omega_in), kind=kind)


def sweep_delay_measurements(samples, fault_family, resistances,
                             direction="rise", tech=None, dt=None,
                             runtime=None, report=None, engine=None,
                             batch_size=None, adaptive=False,
                             **path_kwargs):
    """Per-sample, per-R path delays for a fault family (``engine`` and
    ``batch_size`` as in :func:`sweep_pulse_measurements`)."""
    return _sweep_rows(samples, fault_family, resistances, tech, dt,
                       runtime, "delay-sweep", report, path_kwargs,
                       _sweep_batch_size(engine, batch_size),
                       adaptive=adaptive, measure="delay",
                       direction=direction)


def pulse_coverage(raw, samples, resistances, calibration,
                   threshold_factors=(0.9, 1.0, 1.1)):
    """C_pulse(ω_th', R) from raw pulse measurements.

    The paper's Fig. 7/9 settings: ω_th' in {0.9, 1.0, 1.1} x ω_th* — the
    swept factor *is* the sensing-sensitivity fluctuation scenario, so no
    additional per-sample threshold noise is applied here (the calibration
    already guaranteed zero false positives at the 1.1 worst case).
    """
    curves = {}
    n = len(samples)
    for factor in threshold_factors:
        detector = calibration.detector.scaled(factor)
        hit_counts = []
        for ri in range(len(resistances)):
            hits = 0
            for si in range(n):
                if detector.fault_detected(raw[si][ri]):
                    hits += 1
            hit_counts.append(hits)
        label = "{:.1f}*w_th".format(factor)
        curves[label] = CoverageCurve(label, resistances, hit_counts, n)
    return CoverageResult(resistances, curves, raw)


def delay_coverage(raw, samples, resistances, test,
                   period_factors=(0.9, 1.0, 1.1)):
    """C_del(T', R) from raw delay measurements (Fig. 6/8 settings)."""
    curves = {}
    n = len(samples)
    for factor in period_factors:
        hit_counts = []
        for ri in range(len(resistances)):
            hits = 0
            for si, sample in enumerate(samples):
                if test.detects(raw[si][ri], sample=sample,
                                t_factor=factor):
                    hits += 1
            hit_counts.append(hits)
        label = "{:.1f}*T".format(factor)
        curves[label] = CoverageCurve(label, resistances, hit_counts, n)
    return CoverageResult(resistances, curves, raw)


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
