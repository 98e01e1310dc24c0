"""Pulse transfer characterisation ``w_out = f_p(w_in)`` (Fig. 10).

The paper identifies three regions of the transfer relation:

1. a *dampened* region — the input pulse is completely swallowed,
2. an *attenuation* region connecting 1) and 3) — steep, and very
   sensitive to parameter fluctuations (to be avoided),
3. an *asymptotic* region — ``w_out`` tracks ``w_in`` linearly with unit
   slope.

The test-generation rule of Sec. 5 places the injected width ω_in at the
*beginning of region 3*.
"""

import numpy as np

from .pulse import measure_output_pulse


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


def characterize_transfer(path_builder, w_in_values, kind="h", dt=None,
                          adaptive=False):
    """Measure the transfer curve of the path built by ``path_builder``.

    ``path_builder`` is a zero-argument callable returning a fresh
    :class:`~repro.cells.PathCircuit` (fresh because the stimulus is
    mutated per measurement point).  The time-grid knobs mirror
    :func:`~repro.core.pulse.measure_output_pulse` so a calibration can
    characterise its nominal curve on the same grid as the population
    it calibrates.
    """
    kwargs = {"adaptive": adaptive}
    if dt is not None:
        kwargs["dt"] = dt
    w_out = []
    for w in w_in_values:
        path = path_builder()
        value, _ = measure_output_pulse(path, float(w), kind=kind, **kwargs)
        w_out.append(value)
    return TransferCurve(np.asarray(w_in_values, dtype=float),
                         np.array(w_out), kind=kind)


def minimum_propagatable_width(path, lo=0.05e-9, hi=1.0e-9, tol=5e-12,
                               kind="h", dt=None):
    """Smallest input pulse width that survives to the path output.

    Bisection on :func:`measure_output_pulse`; the path instance is reused
    (only its stimulus mutates).  Returns ``math.inf`` when even ``hi``
    is dampened.
    """
    import math

    kwargs = {} if dt is None else {"dt": dt}

    def survives(width):
        w_out, _ = measure_output_pulse(path, width, kind=kind, **kwargs)
        return w_out > 0.0

    if not survives(hi):
        return math.inf
    if survives(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if survives(mid):
            hi = mid
        else:
            lo = mid
    return hi


def recommended_w_in(curve, margin=0.03e-9, slope_tolerance=0.25):
    """The paper's rule: ω_in at the beginning of region 3, plus a small
    safety margin keeping clear of the fluctuation-sensitive region 2."""
    onset = curve.region3_onset(slope_tolerance)
    if onset is None:
        raise ValueError(
            "transfer curve never reaches the asymptotic region; "
            "extend the w_in grid")
    return onset + margin
