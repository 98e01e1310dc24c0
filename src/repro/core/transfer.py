"""Pulse transfer characterisation ``w_out = f_p(w_in)`` (Fig. 10).

The paper identifies three regions of the transfer relation:

1. a *dampened* region — the input pulse is completely swallowed,
2. an *attenuation* region connecting 1) and 3) — steep, and very
   sensitive to parameter fluctuations (to be avoided),
3. an *asymptotic* region — ``w_out`` tracks ``w_in`` linearly with unit
   slope.

The test-generation rule of Sec. 5 places the injected width ω_in at the
*beginning of region 3*.

A *transfer row* is one sample's instance measured at a list of input
widths (:func:`measure_transfer_rows`, through the chunk task of every
calibration and sweep, which runs one instance per width as one
lockstep population): the nominal curve is
:class:`~repro.montecarlo.NominalModel`'s row, Fig. 10's scatter the
population's rows.
"""

import math

import numpy as np

from ..cells import default_technology
from .pulse import (DEFAULT_DT, measure_output_pulse,
                    measure_output_pulse_batch, run_measurement_groups)
from .search import BracketSearch, bisect_populations


class TransferCurve:
    """Sampled transfer relation for one path instance."""

    def __init__(self, w_in, w_out, kind="h"):
        self.w_in = np.asarray(w_in, dtype=float)
        self.w_out = np.asarray(w_out, dtype=float)
        self.kind = kind
        if self.w_in.shape != self.w_out.shape:
            raise ValueError("w_in / w_out shape mismatch")
        if np.any(np.diff(self.w_in) <= 0):
            raise ValueError("w_in grid must be strictly increasing")

    # ------------------------------------------------------------------

    def dampened_limit(self):
        """Largest sampled ``w_in`` that is fully dampened (region 1 end).

        Returns 0.0 when even the narrowest sampled pulse propagates.
        """
        dead = self.w_in[self.w_out <= 0.0]
        return float(dead.max()) if dead.size else 0.0

    def slopes(self):
        """Finite-difference slope between consecutive grid points."""
        return np.diff(self.w_out) / np.diff(self.w_in)

    def region3_onset(self, slope_tolerance=0.25):
        """Smallest ``w_in`` from which the slope stays within
        ``1 +- slope_tolerance`` up to the end of the grid (region 3).

        Returns None if the asymptotic region was never reached —
        the caller should extend the grid.
        """
        slopes = self.slopes()
        ok = np.abs(slopes - 1.0) <= slope_tolerance
        # also require the pulse to actually propagate there
        ok = np.logical_and(ok, self.w_out[1:] > 0.0)
        onset = None
        for i in range(len(ok) - 1, -1, -1):
            if ok[i]:
                onset = self.w_in[i]
            else:
                break
        return None if onset is None else float(onset)

    def attenuation_span(self, slope_tolerance=0.25):
        """(start, end) of region 2; degenerate when absent."""
        start = self.dampened_limit()
        end = self.region3_onset(slope_tolerance)
        if end is None:
            end = float(self.w_in[-1])
        return start, end

    def interpolate(self, w_in):
        """Linear interpolation of ``w_out`` at ``w_in``."""
        return float(np.interp(w_in, self.w_in, self.w_out))

    def __repr__(self):
        return "TransferCurve({} points, kind={!r})".format(
            len(self.w_in), self.kind)


def default_w_in_grid(tech=None, n_points=13):
    """A grid spanning the dampened-to-asymptotic range for 5-9 gate paths
    in the default technology (0.1 ... 0.7 ns)."""
    return np.linspace(0.10e-9, 0.70e-9, n_points)


def characterize_transfer(path, w_in_values, kind="h", dt=None,
                          adaptive=False):
    """Measure the transfer curve of the built ``path``, one transient
    per width (only the path's stimulus changes between them).

    The time-grid knobs mirror
    :func:`~repro.core.pulse.measure_output_pulse` so a calibration can
    characterise its nominal curve on the same grid as the population
    it calibrates.
    """
    dt = DEFAULT_DT if dt is None else dt
    w_out = [measure_output_pulse(path, float(w), kind=kind, dt=dt,
                                  adaptive=adaptive)[0]
             for w in w_in_values]
    return TransferCurve(w_in_values, w_out, kind=kind)


def transfer_rows(samples, widths, kind="h", dt=None, fault=None,
                  tech=None, path_kwargs=None, adaptive=False,
                  label="transfer-rows"):
    """The measurement group of :func:`measure_transfer_rows`:
    ``(label, spec, items)`` for
    :func:`~repro.core.pulse.run_measurement_groups`."""
    tech = default_technology() if tech is None else tech
    path_kwargs = {} if path_kwargs is None else dict(path_kwargs)
    widths = [float(w) for w in widths]
    spec = dict(measure="pulse", kind=kind, dt=dt, adaptive=adaptive,
                tech=tech, path_kwargs=path_kwargs, fault=fault)
    return label, spec, [{"sample": sample, "widths": widths}
                         for sample in samples]


def measure_transfer_rows(samples, widths, kind="h", dt=None, fault=None,
                          tech=None, path_kwargs=None, runtime=None,
                          report=None, adaptive=False,
                          label="transfer-rows"):
    """One transfer row per sample: ``w_out`` of its instance, ``fault``
    injected as given, at every width in ``widths``.

    Runs :func:`~repro.core.pulse.run_measurement_groups` (which keys
    each row and sizes the chunks); a chunk's samples x widths run as
    one lockstep population.
    """
    (rows,) = run_measurement_groups(
        [transfer_rows(samples, widths, kind=kind, dt=dt, fault=fault,
                       tech=tech, path_kwargs=path_kwargs,
                       adaptive=adaptive, label=label)],
        runtime=runtime, report=report)
    return rows


def width_search(lo=0.05e-9, hi=1.0e-9, tol=5e-12, group=None):
    """The bisection of :func:`minimum_propagatable_width` (same
    defaults): midpoint ``0.5 * (lo + hi)``, open while ``hi - lo >
    tol``, passing (the pulse survives) at ``hi``."""
    return BracketSearch(lo, hi, lambda a, b: 0.5 * (a + b),
                         lambda a, b: b - a > tol, group=group)


def pulses_survive(paths, widths, kind="h", dt=None):
    """Whether a pulse of each width survives its path: one population
    of copies of ``paths`` (which must share one topology)."""
    kwargs = {} if dt is None else {"dt": dt}
    w_outs, _ = measure_output_pulse_batch(
        [path.copy() for path in paths], widths, kind=kind, **kwargs)
    return [w_out > 0.0 for w_out in w_outs]


def minimum_propagatable_width(path, lo=0.05e-9, hi=1.0e-9, tol=5e-12,
                               kind="h", dt=None):
    """Smallest input pulse width that survives to the path output.

    Bisection on whether a pulse survives (``w_out > 0``), run by
    :func:`~repro.core.search.bisect_populations`: both ends in one
    round, then the next levels' midpoints of the bracket per round,
    each round one lockstep population of copies of ``path`` (``path``
    itself is not touched).  Returns ``math.inf`` when even ``hi`` is
    dampened and ``lo`` when ``lo`` already survives.
    """
    (w_min,) = bisect_populations(
        [width_search(lo, hi, tol)],
        lambda probes: pulses_survive([path] * len(probes),
                                      [w for _, w in probes], kind=kind,
                                      dt=dt))
    return math.inf if w_min is None else w_min


def recommended_w_in(curve, margin=0.03e-9, slope_tolerance=0.25):
    """The paper's rule: ω_in at the beginning of region 3, plus a small
    safety margin keeping clear of the fluctuation-sensitive region 2."""
    onset = curve.region3_onset(slope_tolerance)
    if onset is None:
        raise ValueError(
            "transfer curve never reaches the asymptotic region; "
            "extend the w_in grid")
    return onset + margin
