"""Time-dependent source waveform descriptions.

These mirror the classic SPICE independent-source stimuli.  Each stimulus
implements ``value_at(t)`` (scalar) and ``values_at(t_array)`` (vectorised),
plus ``breakpoints(tstop)`` so the transient engine can align time steps with
sharp corners.
"""

import numpy as np

from .errors import NetlistError


class Stimulus:
    """Base class for source stimuli."""

    def value_at(self, t):
        raise NotImplementedError

    def values_at(self, t):
        t = np.asarray(t, dtype=float)
        return np.array([self.value_at(ti) for ti in t.ravel()]).reshape(t.shape)

    def breakpoints(self, tstop):
        """Times in ``[0, tstop]`` where the waveform has a corner."""
        return []


class Dc(Stimulus):
    """Constant value."""

    def __init__(self, value):
        self.value = float(value)

    def value_at(self, t):
        return self.value

    def values_at(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.value)

    def __repr__(self):
        return "Dc({:g})".format(self.value)


class Pulse(Stimulus):
    """SPICE ``PULSE(v1 v2 td tr pw tf per)`` stimulus.

    The waveform sits at ``v1``, ramps to ``v2`` over ``tr`` starting at
    ``td``, holds for ``pw``, ramps back over ``tf`` and (optionally)
    repeats with period ``per``.
    """

    def __init__(self, v1, v2, delay=0.0, rise=1e-12, width=1e-9,
                 fall=None, period=None):
        if rise <= 0:
            raise NetlistError("pulse rise time must be positive")
        fall = rise if fall is None else fall
        if fall <= 0:
            raise NetlistError("pulse fall time must be positive")
        if width < 0:
            raise NetlistError("pulse width must be non-negative")
        self.v1 = float(v1)
        self.v2 = float(v2)
        self.delay = float(delay)
        self.rise = float(rise)
        self.width = float(width)
        self.fall = float(fall)
        self.period = None if period is None else float(period)
        if self.period is not None and self.period <= 0:
            raise NetlistError("pulse period must be positive")

    def _single(self, tau):
        """Value within one period, ``tau`` measured from the pulse start."""
        if tau < 0.0:
            return self.v1
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1

    def value_at(self, t):
        tau = t - self.delay
        if self.period is not None and tau >= 0.0:
            tau = tau % self.period
        return self._single(tau)

    def values_at(self, t):
        """Vectorised evaluation (used by the batched engine's
        precomputed source-waveform tables), bit for bit
        :meth:`value_at`: the same subtractions and the same interval
        tests, in its order."""
        t = np.asarray(t, dtype=float)
        tau = t - self.delay
        if self.period is not None:
            tau = np.where(tau >= 0.0, np.mod(tau, self.period), tau)
        plateau = tau - self.rise
        falling = plateau - self.width
        return np.select(
            [tau < 0.0, tau < self.rise, plateau < self.width,
             falling < self.fall],
            [self.v1, self.v1 + (self.v2 - self.v1) * tau / self.rise,
             self.v2, self.v2 + (self.v1 - self.v2) * falling / self.fall],
            default=self.v1)

    def breakpoints(self, tstop):
        corners = []
        start = self.delay
        while start <= tstop:
            for c in (start,
                      start + self.rise,
                      start + self.rise + self.width,
                      start + self.rise + self.width + self.fall):
                if 0.0 <= c <= tstop:
                    corners.append(c)
            if self.period is None:
                break
            start += self.period
        return corners

    def __repr__(self):
        return ("Pulse(v1={:g}, v2={:g}, delay={:g}, rise={:g}, width={:g}, "
                "fall={:g})").format(self.v1, self.v2, self.delay, self.rise,
                                     self.width, self.fall)


class Pwl(Stimulus):
    """Piece-wise-linear stimulus defined by ``(time, value)`` points."""

    def __init__(self, points):
        pts = [(float(t), float(v)) for t, v in points]
        if not pts:
            raise NetlistError("PWL stimulus needs at least one point")
        times = [p[0] for p in pts]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise NetlistError("PWL times must be non-decreasing")
        self.times = np.array(times)
        self.values = np.array([p[1] for p in pts])

    def value_at(self, t):
        return float(np.interp(t, self.times, self.values))

    def values_at(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.values)

    def breakpoints(self, tstop):
        return [t for t in self.times if 0.0 <= t <= tstop]

    def __repr__(self):
        return "Pwl({} points)".format(len(self.times))


def collect_breakpoints(stimuli, tstop, min_gap=None):
    """Merged, deduplicated stimulus corner times in ``(0, tstop)``.

    The adaptive transient engine lands a step on every breakpoint so
    that sharp waveform corners (pulse edges, PWL knots) never fall
    inside an integration step — the trapezoidal rule assumes the
    stimulus is smooth within a step.  Corners closer together than
    ``min_gap`` (default ``1e-6 * tstop``) are merged into one landing
    point; 0 and ``tstop`` are omitted because the engine starts and
    stops there anyway.
    """
    if min_gap is None:
        min_gap = 1e-6 * tstop
    points = []
    for stimulus in stimuli:
        points.extend(stimulus.breakpoints(tstop))
    merged = []
    for point in sorted(points):
        if point <= min_gap or point >= tstop - min_gap:
            continue
        if merged and point - merged[-1] <= min_gap:
            continue
        merged.append(float(point))
    return merged


def make_stimulus(value):
    """Coerce ``value`` into a :class:`Stimulus`.

    Numbers become :class:`Dc`; stimuli pass through unchanged.
    """
    if isinstance(value, Stimulus):
        return value
    if isinstance(value, (int, float)):
        return Dc(value)
    raise NetlistError(
        "cannot interpret {!r} as a source stimulus".format(value))
