"""Adaptive-precision coverage campaigns (sequential CI + grid refinement).

The fixed-grid campaigns of :mod:`repro.core.coverage` simulate the full
Monte Carlo population S at every point of a blind resistance grid —
most of that budget is spent confirming what a handful of samples
already shows (coverage 0 far below the detectable range, coverage 1 far
above it).  This module spends transients where the statistics actually
need them, in the spirit of statistical test-cost reduction for
post-silicon delay test (EffiTest):

* **Sequential sample allocation** — each R point is measured in
  escalating waves (``min_wave`` samples, then doubled, up to S) and
  stops as soon as its Wilson interval's half-width falls below
  ``ci_width``.  Easy points (coverage near 0 or 1) resolve after one or
  two waves; only points near a coverage transition escalate to the full
  population.
* **Resistance-grid refinement** — instead of a dense blind grid, a
  coarse initial grid brackets each coverage crossing (defaults: the
  50 % and 100 % targets) and geometric bisection localises it to a
  relative tolerance.  Bisection points only need to answer
  "above or below the target?", so they additionally stop as soon as
  their Wilson interval excludes the target.

Every (sample, R) measurement is dispatched through the campaign
:class:`~repro.runtime.Runtime` (in chunks the runtime sizes) under the
same content-addressed key scheme as the fixed-grid sweeps
(single-point resistance grids), so escalation waves never recompute
earlier samples, warm reruns resume from the cache, and serial vs
process-pool waves report identical values and solver counters.  A
sweep's wave loop is a generator (:func:`sweep_waves`), so sweeps that
do not depend on each other advance together, one runtime call per
round of waves (:func:`adaptive_sweeps`); each reads as it does alone.
"""

import math

from ..montecarlo import wilson_excludes, wilson_halfwidth
from ..runtime import Runtime, RunReport
from .coverage import CoverageCurve, build_sweep_payloads
from .pulse import run_measurement_groups

#: default per-point Wilson half-width target (the fixed-grid campaign's
#: worst case at S = 16 is ~0.20, so 0.15 is a strictly tighter promise)
DEFAULT_CI_WIDTH = 0.15

#: first escalation wave (doubles until S)
DEFAULT_MIN_WAVE = 8

#: relative tolerance the crossing bisection drives the bracket to
DEFAULT_REFINE_REL_TOL = 0.10

#: coverage targets whose crossings get refined
DEFAULT_REFINE_TARGETS = (0.5, 1.0)

#: initial-grid size the blind grid is subsampled down to
DEFAULT_INITIAL_POINTS = 4


class PointState:
    """Measurements accumulated at one resistance point.

    ``values`` holds the raw measurements in population order; waves
    always extend the prefix, so sample *i*'s value lives at index *i*.
    """

    __slots__ = ("r", "values", "waves", "refined")

    def __init__(self, r, refined=False):
        self.r = float(r)
        self.values = []
        self.waves = 0
        #: True when the point was added by crossing refinement (its
        #: stopping rule may use target exclusion)
        self.refined = refined

    @property
    def n(self):
        return len(self.values)

    def hits(self, decide, samples):
        return sum(1 for value, sample in zip(self.values, samples)
                   if decide(value, sample))

    def __repr__(self):
        return "PointState(r={:.0f}, n={})".format(self.r, self.n)


def subsample_grid(resistances, max_points=DEFAULT_INITIAL_POINTS):
    """Endpoint-preserving subsample of a resistance grid.

    The initial grid only needs to bracket the coverage crossings —
    refinement supplies the resolution — so a handful of points spanning
    the range replaces the blind dense grid.
    """
    rs = sorted(set(float(r) for r in resistances))
    if not rs:
        raise ValueError("resistances must be non-empty")
    max_points = max(2, int(max_points))
    if len(rs) <= max_points:
        return rs
    last = len(rs) - 1
    indices = sorted(set(round(i * last / (max_points - 1))
                         for i in range(max_points)))
    return [rs[i] for i in indices]


def _next_wave(n_now, n_total, min_wave):
    """Sample count after one more escalation wave at a point."""
    if n_now <= 0:
        return min(n_total, max(1, min_wave))
    return min(n_total, 2 * n_now)


class _SweepMeasurer:
    """Dispatch (sample index, R) measurement requests via the runtime.

    The sweep's spec comes from
    :func:`~repro.core.coverage.build_sweep_payloads` once; each request
    is one item of a single-point resistance grid, so each (sample, R)
    pair lands under one stable content-addressed cache key no matter
    which wave (or which rerun) asks for it.  A whole wave is one
    measurement group of :func:`~repro.core.pulse.run_measurement_groups`,
    in request order; a chunk may span R points, and the waves of
    several sweeps may share one call (:func:`_measure_waves`).
    """

    def __init__(self, samples, fault, tech, dt, runtime, report,
                 adaptive, path_kwargs, label, measure_spec):
        self.samples = list(samples)
        self.spec, _ = build_sweep_payloads(
            [], fault, [], tech=tech, dt=dt, adaptive=adaptive,
            path_kwargs=path_kwargs, **measure_spec)
        self.runtime = Runtime() if runtime is None else runtime
        self.report = report
        self.label = label
        #: (sample, R) measurements requested so far (cached or fresh)
        self.requested = 0

    def group(self, requests):
        """``[(sample_index, r), ...]`` as this sweep's measurement
        group ``(label, spec, items)``."""
        self.requested += len(requests)
        return (self.label, self.spec,
                [{"sample": self.samples[index], "resistances": [float(r)]}
                 for index, r in requests])

    def measure(self, requests):
        """Measure ``[(sample_index, r), ...]``; values in request order."""
        requests = list(requests)
        if not requests:
            return []
        (values,) = _measure_waves([self], [requests])
        return values


def _measure_waves(measurers, waves):
    """One wave of each sweep in one runtime call: ``waves[k]`` lists
    ``measurers[k]``'s requests.  Returns their values, per sweep in
    request order.  The call runs on the first measurer's runtime and
    books to its report."""
    first = measurers[0]
    groups = run_measurement_groups(
        [measurer.group(requests)
         for measurer, requests in zip(measurers, waves)],
        runtime=first.runtime, report=first.report)
    return [[float(row[0]) for row in rows] for rows in groups]


def _advance_together(sweeps, measure):
    """Run the wave generators ``sweeps`` (see :func:`sweep_waves`)
    together, one round per wave: each round hands ``measure`` the next
    wave of every unfinished sweep, as ``[(index, requests), ...]``,
    and sends each sweep the values ``measure`` returns for it, in that
    order.  Returns each sweep's result."""
    results = [None] * len(sweeps)
    pending = {}

    def send(index, values):
        try:
            pending[index] = sweeps[index].send(values)
        except StopIteration as stop:
            pending.pop(index, None)
            results[index] = stop.value

    for index in range(len(sweeps)):
        send(index, None)
    while pending:
        round_ = sorted(pending.items())
        for (index, _), values in zip(round_, measure(round_)):
            send(index, values)
    return results


class AdaptiveSweepResult:
    """One measurement kind's adaptively-sampled C(R) raw material."""

    def __init__(self, points, samples, crossings, label, waves,
                 initial_grid, full_grid):
        #: sorted :class:`PointState` list (initial grid + refinement)
        self.points = sorted(points, key=lambda p: p.r)
        self.samples = list(samples)
        #: ``{target: {"lo": r, "hi": r, "detected_at": r}}`` refined
        #: crossing brackets (absent targets never crossed on the grid)
        self.crossings = dict(crossings)
        self.label = label
        #: escalation waves the sweep took
        self.waves = waves
        self.initial_grid = list(initial_grid)
        #: the blind grid the campaign replaced (for budget accounting)
        self.full_grid = list(full_grid)

    @property
    def resistances(self):
        return [p.r for p in self.points]

    @property
    def ns(self):
        return [p.n for p in self.points]

    @property
    def total_measurements(self):
        """(sample, R) transients the adaptive plan asked for."""
        return sum(p.n for p in self.points)

    @property
    def fixed_grid_measurements(self):
        """Transients of the blind fixed-grid sweep this replaces."""
        return len(self.samples) * len(self.full_grid)

    def matched_resolution_measurements(self, rel_tol):
        """Transients a blind geometric grid would need to localise a
        crossing to ``rel_tol`` over the campaign's resistance range."""
        lo, hi = min(self.full_grid), max(self.full_grid)
        n_points = 1 + math.ceil(math.log(hi / lo)
                                 / math.log(1.0 + rel_tol))
        return len(self.samples) * n_points

    def curve(self, label, decide):
        """Variable-n :class:`CoverageCurve` under decision ``decide``."""
        hits = [p.hits(decide, self.samples) for p in self.points]
        return CoverageCurve(label, self.resistances, hits, self.ns)

    def raw(self):
        """``{r: [values in population order]}`` (variable length)."""
        return {p.r: list(p.values) for p in self.points}

    def minimum_detectable_r(self, target=1.0):
        """The refined R where coverage reaches ``target`` under the
        primary decision, or None when the grid never crossed it."""
        crossing = self.crossings.get(float(target))
        if crossing is not None:
            return crossing["detected_at"]
        return None

    def __repr__(self):
        return ("AdaptiveSweepResult({!r}, {} points, {} measurements, "
                "{} waves)").format(self.label, len(self.points),
                                    self.total_measurements, self.waves)


def adaptive_sweep(samples, fault, resistances, decide,
                   ci_width=DEFAULT_CI_WIDTH, min_wave=DEFAULT_MIN_WAVE,
                   refine_targets=DEFAULT_REFINE_TARGETS,
                   refine_rel_tol=DEFAULT_REFINE_REL_TOL,
                   initial_points=DEFAULT_INITIAL_POINTS,
                   tech=None, dt=None, runtime=None, report=None,
                   adaptive=False, path_kwargs=None,
                   label="adaptive-sweep", measurer=None, **measure_spec):
    """Adaptive-precision coverage sweep over one fault family.

    ``decide(value, sample) -> bool`` is the *primary* detection
    decision (the 1.0-factor test setting) driving both the stopping
    rule and the crossing refinement; curves for other settings are
    derived afterwards from the same raw values via
    :meth:`AdaptiveSweepResult.curve`.

    ``measure_spec`` is the measurement contract of
    :func:`~repro.core.coverage.build_sweep_payloads`
    (``measure="pulse", omega_in=..., kind=...`` or
    ``measure="delay", direction=...``).  ``measurer`` overrides the
    runtime-backed dispatcher (tests inject a synthetic one).  The
    sweep is :func:`sweep_waves` run alone.

    Returns an :class:`AdaptiveSweepResult`.
    """
    report = RunReport(label) if report is None else report
    waves = sweep_waves(samples, resistances, decide, report, label,
                        ci_width=ci_width, min_wave=min_wave,
                        refine_targets=refine_targets,
                        refine_rel_tol=refine_rel_tol,
                        initial_points=initial_points)
    if measurer is None:
        measurer = _SweepMeasurer(
            samples, fault, tech, dt, runtime, report, adaptive,
            path_kwargs, label, measure_spec)
    (result,) = _advance_together(
        [waves], lambda round_: [measurer.measure(requests)
                                 for _, requests in round_])
    return result


def adaptive_sweeps(samples, fault, resistances, sweeps,
                    ci_width=DEFAULT_CI_WIDTH, min_wave=DEFAULT_MIN_WAVE,
                    refine_targets=DEFAULT_REFINE_TARGETS,
                    refine_rel_tol=DEFAULT_REFINE_REL_TOL,
                    initial_points=DEFAULT_INITIAL_POINTS, tech=None,
                    dt=None, runtime=None, report=None, adaptive=False,
                    path_kwargs=None):
    """Several runtime-backed adaptive sweeps of one fault family,
    advanced together (:func:`_advance_together`): each round measures
    the next wave of every unfinished sweep in one runtime call
    (:func:`_measure_waves`).

    ``sweeps`` lists ``(label, decide, measure_spec)`` per sweep, as
    :func:`adaptive_sweep` takes them; the other arguments are shared.
    Each sweep's waves, values and cache keys are those it has alone.
    Returns one :class:`AdaptiveSweepResult` per sweep.
    """
    report = RunReport("adaptive-sweeps") if report is None else report
    waves = [sweep_waves(samples, resistances, decide, report, label,
                         ci_width=ci_width, min_wave=min_wave,
                         refine_targets=refine_targets,
                         refine_rel_tol=refine_rel_tol,
                         initial_points=initial_points)
             for label, decide, _ in sweeps]
    measurers = [_SweepMeasurer(samples, fault, tech, dt, runtime, report,
                                adaptive, path_kwargs, label, measure_spec)
                 for label, _, measure_spec in sweeps]
    return _advance_together(waves, lambda round_: _measure_waves(
        [measurers[index] for index, _ in round_],
        [requests for _, requests in round_]))


def sweep_waves(samples, resistances, decide, report, label,
                ci_width=DEFAULT_CI_WIDTH, min_wave=DEFAULT_MIN_WAVE,
                refine_targets=DEFAULT_REFINE_TARGETS,
                refine_rel_tol=DEFAULT_REFINE_REL_TOL,
                initial_points=DEFAULT_INITIAL_POINTS):
    """The waves of one adaptive sweep (see :func:`adaptive_sweep`), as
    a generator; a bad setting raises here, before it starts.

    Each ``send`` of a wave's values, in request order (None to start),
    returns the next wave's ``[(sample_index, r), ...]`` requests; the
    generator returns the :class:`AdaptiveSweepResult` once the sweep
    needs no more.  Every wave is booked to ``report``.  Because a
    wave's requests depend only on earlier values, the waves of several
    sweeps can be measured together (:func:`_advance_together`).
    """
    samples = list(samples)
    n_total = len(samples)
    if n_total <= 0:
        raise ValueError("need a non-empty population")
    ci_width = float(ci_width)
    if not 0.0 < ci_width < 0.5:
        raise ValueError("ci_width must lie in (0, 0.5)")
    min_wave = max(1, int(min_wave))
    refine_rel_tol = float(refine_rel_tol)
    if refine_rel_tol <= 0.0:
        raise ValueError("refine_rel_tol must be positive")
    return _waves(samples, resistances, decide, report, label, ci_width,
                  min_wave, refine_targets, refine_rel_tol, initial_points)


def _waves(samples, resistances, decide, report, label, ci_width,
           min_wave, refine_targets, refine_rel_tol, initial_points):
    """The body of :func:`sweep_waves`."""
    n_total = len(samples)
    full_grid = sorted(set(float(r) for r in resistances))
    grid = subsample_grid(full_grid, initial_points)
    points = {r: PointState(r) for r in grid}
    waves = 0

    def coverage(point):
        return point.hits(decide, samples) / point.n

    def resolved(point, target=None):
        if point.n >= n_total:
            return True
        if point.n == 0:
            return False
        hits = point.hits(decide, samples)
        if wilson_halfwidth(hits, point.n) <= ci_width:
            return True
        # a refinement point only answers "above or below target?" —
        # once the interval excludes the target, more samples at this R
        # cannot change the bisection step
        return (target is not None
                and wilson_excludes(hits, point.n, target))

    def run_waves(wave_points, target=None):
        nonlocal waves
        active = [p for p in wave_points if not resolved(p, target)]
        while active:
            plan, requests = [], []
            for point in active:
                goal = _next_wave(point.n, n_total, min_wave)
                plan.append((point, goal))
                requests.extend((i, point.r)
                                for i in range(point.n, goal))
            values = yield requests
            position = 0
            for point, goal in plan:
                count = goal - point.n
                point.values.extend(values[position:position + count])
                position += count
                point.waves += 1
            waves += 1
            report.record_wave()
            active = [p for p in active if not resolved(p, target)]

    # Phase 1: drive every initial-grid point to its precision target.
    yield from run_waves(list(points.values()))

    # Phase 2: bisect each target's crossing interval geometrically.
    crossings = {}
    for target in refine_targets:
        target = float(target)
        ordered = sorted(points.values(), key=lambda p: p.r)
        above = [coverage(p) >= target for p in ordered]
        bracket = None
        for (a, ok_a), (b, ok_b) in zip(zip(ordered, above),
                                        zip(ordered[1:], above[1:])):
            if ok_a != ok_b:
                bracket = (a, b)
                break
        if bracket is None:
            continue
        lo, hi = bracket
        lo_above = coverage(lo) >= target
        while hi.r > lo.r * (1.0 + refine_rel_tol):
            r_mid = math.sqrt(lo.r * hi.r)
            mid = points.get(r_mid)
            if mid is None:
                mid = PointState(r_mid, refined=True)
                points[r_mid] = mid
            yield from run_waves([mid], target=target)
            if (coverage(mid) >= target) == lo_above:
                lo = mid
            else:
                hi = mid
        detected = lo if lo_above else hi
        crossings[target] = {"lo": lo.r, "hi": hi.r,
                             "detected_at": detected.r}

    return AdaptiveSweepResult(points.values(), samples, crossings,
                               label, waves, grid, full_grid)
