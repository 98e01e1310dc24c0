"""Transient analysis.

One time-stepping loop (:func:`_simulate`) runs every transient.  Two
choices parametrise it:

* **The time grid.**  Fixed-step (the reference): backward Euler
  (robust, slightly lossy) or trapezoidal (second-order, default) on a
  uniform grid that always *covers* ``tstop`` (step count is a ceiling,
  so the last grid point is at or past the requested stop time).
  Adaptive (``adaptive=True``, trapezoidal only): local-truncation-
  error controlled stepping — step halving on rejection, bounded
  doubling on acceptance — with source-breakpoint registration so steps
  land exactly on stimulus corners (pulse edges, PWL knots).  The LTE
  estimate is the difference between the trapezoidal corrector and a
  polynomial predictor through the last accepted points; it
  overestimates the true trapezoidal LTE, which keeps the controller
  conservative where waveform measurements are taken.
* **The population.**  Every transient runs on the exact lockstep
  Newton of :mod:`repro.spice.batch`: :func:`run_transient_batch`
  takes a population of topologically identical circuits, of any
  size, each row on its own grid and to its own stop (``stops``), and
  :func:`run_transient` runs one circuit as a population of one.

The loop advances a population in rounds; each round solves every
unfinished row once, all in one Newton call, and a row leaves the
round's stacks once it reaches its stop.  On the fixed grid
(:class:`_FixedGrid`) every row steps by ``dt`` on the ``linspace`` of
its own stop, so rows of equal stops share the round's time.  On the
adaptive grid one controller (:class:`_RowGrids`) serves the whole
population: each row's decisions (propose with breakpoint landing,
accept with bounded growth, reject by halving, the ``dt_min`` floor)
are its own :class:`_StepController`'s, in scalar Python, while the
companion matrices, right-hand sides, predictor, LTE and state updates
run once per round over the round's rows.  A row's values, time base
and counters are the same in any population, with any mates' stops.

The fixed-step grid remains the reference; the equivalence suite
(tests/spice/test_adaptive.py) pins adaptive waveform measurements
within measurement tolerance of a 4x finer fixed grid while using
materially fewer steps.
"""

import numpy as np

from ..runtime.stats import record
from .batch import (BatchCompiledCircuit, gmin_ladder_batch,
                    newton_solve_batch, solve_dc_batch)
from .errors import AnalysisError, ConvergenceError
from .sources import collect_breakpoints
from .waveform import Waveform

BACKWARD_EULER = "be"
TRAPEZOIDAL = "trap"

#: revision of the lockstep engine's stepping and Newton arithmetic.
#: Bump it with every change that moves lockstep values, even at
#: rounding level, so a warm cache never serves rows an earlier solver
#: computed.  2: one fixed stamp table and the branchless device kernel
#: (rows before it carried no revision).  3: the fixed grid's pulse
#: tables read as the scalar ``Pulse.value_at`` does, bit for bit.
LOCKSTEP_REVISION = 3

#: cache-key token naming the lockstep Newton (exact Newton) and its
#: revision; every measurement row's key (see
#: ``repro.core.pulse.run_measurements``) and the defect table's key
#: carry it, so its text must not change while the arithmetic does not
LOCKSTEP_NEWTON_CACHE_TOKEN = "solver=exact;revision={}".format(
    LOCKSTEP_REVISION)

#: default absolute LTE tolerance (volts).  Crossing-time accuracy is
#: the LTE divided by the local slew; at the bench's ~0.05 V/ps edges,
#: 1 mV keeps level crossings well inside the 0.1 ps measurement budget.
DEFAULT_LTE_TOL = 1e-3

#: accepted steps may grow by at most this factor per step
MAX_STEP_GROWTH = 2.0

#: target-error safety factor in the step-size controller
STEP_SAFETY = 0.9


def _check_analysis(tstop, dt, method, adaptive):
    if tstop <= 0 or dt <= 0:
        raise AnalysisError("tstop and dt must be positive")
    if method not in (BACKWARD_EULER, TRAPEZOIDAL):
        raise AnalysisError("unknown integration method {!r}".format(method))
    if adaptive and method != TRAPEZOIDAL:
        raise AnalysisError("adaptive stepping requires the trapezoidal "
                            "method")


def _fixed_step_count(tstop, dt):
    """Number of fixed steps whose grid covers ``tstop``.

    A ceiling with a relative guard against float dust: ``round`` here
    used to produce ``n_steps * dt < tstop`` for non-commensurate
    ``tstop/dt``, silently clipping the tail of an output pulse.
    """
    return max(1, int(np.ceil(tstop / dt * (1.0 - 1e-12))))


# ----------------------------------------------------------------------
# Step control
# ----------------------------------------------------------------------

class _StepController:
    """LTE step-size controller with breakpoint landing, one per row.

    Owns the row's current time, its next proposed step and its
    breakpoint cursor.  The time-stepping loop drives it: ``propose`` a
    trial step, attempt the implicit solve, then either ``accept``
    (bounded growth from the error estimate) or ``reject`` (halving; a
    step already at the ``dt_min`` floor is force-accepted instead of
    looping forever).
    """

    def __init__(self, tstop, dt, dt_min, dt_max, lte_tol, breakpoints):
        dt_min = dt / 16.0 if dt_min is None else float(dt_min)
        dt_max = min(tstop, 32.0 * dt) if dt_max is None else float(dt_max)
        if dt_min <= 0 or dt_max <= 0:
            raise AnalysisError("dt_min and dt_max must be positive")
        dt_min = min(dt_min, dt)
        dt_max = max(dt_max, dt)
        if lte_tol <= 0:
            raise AnalysisError("lte_tol must be positive")
        self.tstop = tstop
        self.dt = dt
        self.dt_min = dt_min
        self.dt_max = dt_max
        self.lte_tol = lte_tol
        self.t = 0.0
        self.h = min(dt, dt_max)
        self.breakpoints = list(breakpoints)
        self._next_break = 0
        self._target = None

    def done(self):
        return self.t >= self.tstop * (1.0 - 1e-12)

    def propose(self, history):
        """Trial step ``(h, t + h)`` for the next attempt.

        Clamped to ``dt`` while the predictor history (``history``
        accepted points since the last discontinuity) is too short for a
        trustworthy LTE estimate, and shortened to land exactly on the
        next stimulus breakpoint or ``tstop``.
        """
        h = min(self.h, self.dt_max)
        if history < 3:
            h = min(h, self.dt)
        h = min(h, self.tstop - self.t)
        self._target = None
        while (self._next_break < len(self.breakpoints)
               and self.breakpoints[self._next_break]
               <= self.t * (1.0 + 1e-12)):
            self._next_break += 1
        if self._next_break < len(self.breakpoints):
            gap = self.breakpoints[self._next_break] - self.t
            if gap <= h * (1.0 + 1e-9):
                h = gap
                self._target = self.breakpoints[self._next_break]
        return h, self.t + h

    def accept(self, h, err):
        """Commit the step; returns True when it landed on a breakpoint
        (the caller must reset its predictor history across the
        discontinuity)."""
        landed = self._target is not None
        if landed:
            self.t = self._target
            self._next_break += 1
        else:
            self.t += h
        if err is None or err <= 0.0:
            growth = MAX_STEP_GROWTH
        else:
            growth = min(MAX_STEP_GROWTH,
                         STEP_SAFETY * (self.lte_tol / err) ** (1.0 / 3.0))
        self.h = min(max(h * growth, self.dt_min), self.dt_max)
        return landed

    def reject(self, h):
        """Halve the step; returns True when ``h`` is already at the
        floor and the caller must force-accept (or re-raise) instead."""
        if h <= self.dt_min * (1.0 + 1e-9):
            return True
        self.h = max(h * 0.5, self.dt_min)
        return False


def _index(positions, m):
    """Increasing ``positions`` in an ``m``-row stack as an index: a
    slice when they cover every row, so the stack is viewed, not
    copied."""
    return slice(None) if len(positions) == m else np.array(positions,
                                                            dtype=int)


def _predict(hist_t, hist_x, t_new):
    """Polynomial extrapolation of each row's state to its trial time.

    ``hist_t`` holds each row's last ``k`` accepted times and ``hist_x``
    the ``k`` ``(m, n)`` state stacks there, oldest first; ``t_new``
    holds each row's trial time.  Quadratic through three points
    (matching the trapezoidal rule's second order), linear through two.
    Each row's Lagrange weights are its own, in float arithmetic; the
    extrapolation is one expression over the stacks.
    """
    if len(hist_x) >= 3:
        w = np.array([((t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2)),
                       (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2)),
                       (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1)))
                      for (t0, t1, t2), t in zip(hist_t, t_new)])
        return (w[:, 0, None] * hist_x[-3] + w[:, 1, None] * hist_x[-2]
                + w[:, 2, None] * hist_x[-1])
    w = np.array([(t - t0) / (t1 - t0)
                  for (t0, t1), t in zip(hist_t, t_new)])[:, None]
    return (1.0 - w) * hist_x[-2] + w * hist_x[-1]


def _push_history(hist_t, hist_x, accepted, t_new, x_new, landed):
    """Append each accepted row's point to its history, which keeps the
    last three: ``hist_t``, per row, a list of times, and ``hist_x``
    three ``(m, n)`` state stacks, oldest first.  ``accepted`` lists the
    rows' positions, and ``t_new`` and ``x_new`` hold every row's trial
    point.  Returns the new state stacks (``x_new`` among them when
    every row was accepted).  A breakpoint landing restarts a row's
    history, because the stimulus derivative is discontinuous there.
    """
    for j, restart in zip(accepted, landed):
        hist_t[j] = [t_new[j]] if restart else hist_t[j][-2:] + [t_new[j]]
    if len(accepted) == len(hist_t):
        return hist_x[1:] + [x_new]
    shift = np.zeros((len(hist_t), 1), dtype=bool)
    shift[accepted] = True
    return [np.where(shift, newer, older)
            for older, newer in zip(hist_x, hist_x[1:] + [x_new])]


# ----------------------------------------------------------------------
# Time grids
# ----------------------------------------------------------------------

def _stack_product(a, b):
    """``a @ b`` for an ``(m, k)`` stack ``a``, each row summed in the
    order of the ``m > 1`` product.  numpy multiplies a one-row ``a``
    by a matrix-vector routine whose summation order differs from the
    matrix-matrix one at rounding level, so a one-row stack is
    multiplied as two copies of itself."""
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _geq_scale(method, h):
    """Companion conductance per farad of a step ``h``."""
    return (1.0 if method == BACKWARD_EULER else 2.0) / h


class _FixedGrid:
    """The uniform reference grid.

    Each row steps by ``dt`` on its own ``linspace`` from 0 past its
    stop (:func:`_fixed_step_count` steps); rows with equal step counts
    share one time base.  Every round steps every unfinished row onto
    its next grid point, and a row leaves the stacks at its last one.
    The companion matrices are the cached
    :meth:`~repro.spice.batch.BatchCompiledCircuit.companion_base`, the
    sources come from tables over each row's grid, and nothing is ever
    rejected, so a convergence failure propagates.
    """

    def __init__(self, compiled, x, stops, dt, method, cols):
        self.compiled = compiled
        #: each row's step count, and its time base (one per count)
        self.n_steps = np.array([_fixed_step_count(stop, dt)
                                 for stop in stops])
        bases = {n: np.linspace(0.0, n * dt, n + 1)
                 for n in sorted(set(self.n_steps.tolist()))}
        self.times = [bases[n] for n in self.n_steps.tolist()]
        #: the longest row's time base, which names the rounds
        self.clock = bases[max(bases)]
        self.step = 0
        #: population index of each unfinished row, and those rows as
        #: an index of the population (a slice while they are all)
        self.rows = np.arange(len(x))
        self.live = slice(None)
        #: the step at which the next row finishes
        self.next_stop = int(self.n_steps.min())
        geq_scale = _geq_scale(method, dt)
        self.a_base = compiled.companion_base(method, geq_scale)
        self.geq = compiled.cap_c * geq_scale
        if len(bases) == 1:
            self.vsrc, self.isrc = compiled.source_tables(self.clock)
        else:
            self.vsrc = np.zeros((len(x), compiled.n_vsrc, self.clock.size))
            self.isrc = np.zeros((len(x), compiled.n_isrc, self.clock.size))
            for n, times in bases.items():
                rows = np.flatnonzero(self.n_steps == n)
                (self.vsrc[rows, :, :n + 1],
                 self.isrc[rows, :, :n + 1]) = compiled.source_tables(times,
                                                                      rows)
        self.cols = cols
        self.kept = np.empty((self.clock.size, len(x), cols.size))
        self.kept[0] = x[:, cols]

    def done(self):
        return not len(self.rows)

    def propose(self):
        """``(rows, t, a_base, geq)`` of the round: every unfinished
        row, at its next grid point (``t`` is the longest row's)."""
        return self.rows, self.clock[self.step + 1], self.a_base, self.geq

    def rhs(self, t, ieq):
        """Sources from the tables plus the companion currents ``ieq``,
        the round's rows in one product each."""
        compiled = self.compiled
        k = self.step + 1
        rhs = np.zeros((len(self.rows), compiled.n))
        rhs[:, compiled.n_nodes:compiled.n_nodes + compiled.n_vsrc] = (
            self.vsrc[:, :, k])
        if compiled.n_isrc:
            rhs += _stack_product(self.isrc[:, :, k],
                                  compiled.isrc_rhs_incidence)
        if ieq is not None:
            rhs += _stack_product(ieq, compiled.cap_rhs_incidence)
        return rhs

    def settle(self, t, x_new, conv):
        """Accept the round, every row, or raise if any row failed.
        Returns ``(accepted, kept)`` as :meth:`_RowGrids.settle` does:
        every row, and the positions of the rows still unfinished (None
        when no row reached its last point)."""
        if not conv.all():
            raise ConvergenceError(
                "batched Newton failed to converge for {} of {} samples"
                .format(np.count_nonzero(~conv), conv.size), time=t)
        self.step += 1
        self.kept[self.step, self.live] = x_new[:, self.cols]
        if self.step < self.next_stop:
            return slice(None), None
        kept = np.flatnonzero(self.n_steps > self.step)
        for name in ("rows", "n_steps", "a_base", "geq", "vsrc", "isrc"):
            setattr(self, name, getattr(self, name)[kept])
        self.live = self.rows
        if kept.size:
            self.next_stop = int(self.n_steps.min())
        return slice(None), kept

    def outputs(self):
        """Per row, its time base and ``(cols, times)`` kept values."""
        return [(times, self.kept[:times.size, row].T)
                for row, times in enumerate(self.times)]


class _RowGrids:
    """The adaptive grid: one :class:`_StepController` per row of the
    population, so a row's time base and values depend on nothing but
    the row.

    Every round advances every unfinished row once.  The decisions
    (propose, accept, reject, the predictor weights) are each row's
    own, in scalar Python; the array work runs once per round over the
    round's rows: companion matrices of the rows whose step changed,
    right-hand sides, the predictor and LTE over the history stacks, and
    the output writes.  The per-row state holds the unfinished rows
    only, in population order, and is compacted when a row reaches its
    stop, so a round's stacks are that state itself.
    """

    def __init__(self, compiled, x, stops, dt, method, cols, dt_min,
                 dt_max, lte_tol):
        n_rows, n = x.shape
        self.compiled = compiled
        self.method = method
        self.cols = cols
        self.controllers = [
            _StepController(stop, dt, dt_min, dt_max, lte_tol,
                            collect_breakpoints(self._stimuli(row), stop))
            for row, stop in enumerate(stops)]
        record("adaptive_runs", n_rows)
        self.n_rows = n_rows
        #: population index of each unfinished row; ``whole`` until the
        #: first row finishes (positions are population indices then)
        self.rows = np.arange(n_rows)
        self.whole = True
        #: each row's companion matrix and conductances, and the step
        #: they were built for
        self.a_base = np.empty((n_rows, n, n))
        self.geq = np.empty((n_rows, compiled.n_caps))
        self.built = [None] * n_rows
        #: the round's trial steps, one per unfinished row
        self.h = ()
        #: the predictor history (see :func:`_push_history`)
        self.hist_t = [[0.0] for _ in range(n_rows)]
        self.hist_x = [np.zeros((n_rows, n)), np.zeros((n_rows, n)), x]
        #: accepted points, one ``(rows, times, values)`` block a round
        self.log = [(self.rows, np.zeros(n_rows), x[:, cols])]

    def _stimuli(self, row):
        compiled = self.compiled
        return [src.stimulus for src in
                compiled._vsources[row] + compiled._isources[row]]

    def done(self):
        return not self.controllers

    def propose(self):
        """``(rows, t, a_base, geq)`` of the round: every unfinished row,
        at its own trial time."""
        self.h, t = zip(*[controller.propose(len(times))
                          for controller, times
                          in zip(self.controllers, self.hist_t)])
        changed = [j for j, (h, built) in enumerate(zip(self.h, self.built))
                   if h != built]
        if changed:
            compiled = self.compiled
            at = _index(changed, len(t))
            rows = at if self.whole else self.rows[at]
            scale = np.array([_geq_scale(self.method, self.h[j])
                              for j in changed])[:, None]
            self.a_base[at] = (compiled.a_static[rows]
                               + compiled.cap_companion_matrix(scale, rows))
            self.geq[at] = compiled.cap_c[rows] * scale
            for j in changed:
                self.built[j] = self.h[j]
        return self.rows, t, self.a_base, self.geq

    def rhs(self, t, ieq):
        """Each row's sources at its own time plus its companion currents
        ``ieq``, the capacitor product taken row by row."""
        compiled = self.compiled
        rhs = np.zeros((len(t), compiled.n))
        compiled.source_rhs(t, rhs, self.rows.tolist())
        if ieq is not None:
            rhs += np.matmul(ieq[:, None, :],
                             compiled.cap_rhs_incidence)[:, 0]
        return rhs

    def _errors(self, t, x_new, conv):
        """Each converged row's LTE estimate, the largest node deviation
        from its predictor (None while its history is too short)."""
        err = [None] * len(t)
        n_nodes = self.compiled.n_nodes
        if not n_nodes:
            return err
        for k in (3, 2):
            group = [j for j, (ok, times) in enumerate(zip(conv, self.hist_t))
                     if ok and len(times) == k]
            if not group:
                continue
            at = _index(group, len(t))
            x_pred = _predict([self.hist_t[j] for j in group],
                              [stack[at] for stack in self.hist_x[-k:]],
                              [t[j] for j in group])
            deviation = np.abs(x_new[at, :n_nodes] - x_pred[:, :n_nodes])
            for j, e in zip(group, deviation.max(axis=1).tolist()):
                err[j] = e
        return err

    def settle(self, t, x_new, conv):
        """Accept or reject each row's step.

        A row whose solve failed rejects its step, and so does one whose
        LTE exceeds the tolerance.  At the ``dt_min`` floor a failed
        solve raises, naming the row, and an LTE rejection is
        force-accepted.  Returns ``(accepted, kept)``: the positions in
        the round of the accepted rows, and of the rows still
        unfinished (None when every row is).
        """
        conv = conv.tolist()
        err = self._errors(t, x_new, conv)
        accepted, landed, rejected, finished = [], [], 0, False
        try:
            for j, (controller, h, ok, e) in enumerate(
                    zip(self.controllers, self.h, conv, err)):
                if not ok:
                    if controller.reject(h):
                        raise ConvergenceError(
                            "Newton failed to converge for row {} of {} "
                            "at t = {:.6g} s".format(
                                self.rows[j], self.n_rows, t[j]), time=t[j])
                    rejected += 1
                elif (e is not None and e > controller.lte_tol
                      and not controller.reject(h)):
                    rejected += 1
                else:
                    landed.append(controller.accept(h, e))
                    accepted.append(j)
                    finished = finished or controller.done()
        finally:
            record("adaptive_accepted", len(accepted))
            record("adaptive_rejected", rejected)
        self.hist_x = _push_history(self.hist_t, self.hist_x, accepted, t,
                                    x_new, landed)
        at = _index(accepted, len(t))
        self.log.append((self.rows[at], [t[j] for j in accepted],
                         x_new[at][:, self.cols]))
        if not finished:
            return at, None
        kept = [j for j, controller in enumerate(self.controllers)
                if not controller.done()]
        for name in ("controllers", "built", "hist_t"):
            setattr(self, name, [getattr(self, name)[j] for j in kept])
        kept = np.array(kept, dtype=int)
        self.hist_x = [stack[kept] for stack in self.hist_x]
        for name in ("rows", "a_base", "geq"):
            setattr(self, name, getattr(self, name)[kept])
        self.whole = False
        return at, kept

    def outputs(self):
        """Per row, its time base and ``(cols, times)`` kept values."""
        rows, times, kept = (np.concatenate(part) for part in zip(*self.log))
        order = np.argsort(rows, kind="stable")
        bounds = np.cumsum(np.bincount(rows))[:-1]
        return [(row_times, row_kept.T) for row_times, row_kept in zip(
            np.split(times[order], bounds), np.split(kept[order], bounds))]


# ----------------------------------------------------------------------
# The time-stepping loop and its two entry points
# ----------------------------------------------------------------------

def _initial_state(compiled, x0, gmin):
    """The DC operating point at t=0, or ``x0`` checked against the
    population's state shape."""
    if x0 is None:
        return solve_dc_batch(compiled, t=0.0, gmin=gmin)
    x = np.array(x0, dtype=float)
    if x.shape != (compiled.n_samples, compiled.n):
        raise AnalysisError("x0 has wrong shape")
    return x


def _solve(compiled, a_base, rhs, x, rows, gmin):
    """A round's implicit solves, population ``rows``, in one lockstep
    Newton call, with a gmin-continuation ladder for the rows that fail
    it, from their previous accepted state (the diverged iterate is
    discarded).  Returns ``(x_new, converged)``."""
    x_new, conv = newton_solve_batch(compiled, a_base, rhs, x, rows,
                                     gmin=gmin)
    if not conv.all():
        bad = np.flatnonzero(~conv)
        x_new[bad], conv[bad] = gmin_ladder_batch(
            compiled, a_base[bad], rhs[bad], x[bad], rows[bad], gmin)
    return x_new, conv


def _simulate(compiled, x, grid, method, gmin):
    """Integrate the population from state ``x`` on ``grid``.

    One loop serves both grids.  Each round the grid proposes its rows
    with their times, companion matrices and conductances; all of them
    are solved in one Newton call; the grid settles the solves, and the
    states of the rows it accepted advance.  The loop's state stacks
    (``x`` and the capacitor voltages and currents) hold the grid's
    rows, compacted with them, and are replaced, never written in place.
    """
    vcap = compiled.cap_branch_voltages(x)
    icap = np.zeros_like(vcap)  # caps carry no current at DC
    while not grid.done():
        rows, t, a_base, geq = grid.propose()
        ieq = None
        if compiled.n_caps:
            # capacitor companion current sources
            ieq = geq * vcap
            if method != BACKWARD_EULER:
                ieq += icap
        x_new, conv = _solve(compiled, a_base, grid.rhs(t, ieq), x, rows,
                             gmin)
        done, kept = grid.settle(t, x_new, conv)
        x_new = x_new[done]
        v = compiled.cap_branch_voltages(x_new)
        i_new = geq[done] * (v - vcap[done])
        if method != BACKWARD_EULER:
            i_new -= icap[done]
        if isinstance(done, slice):  # every row of the round accepted
            x, vcap, icap = x_new, v, i_new
        else:  # fresh stacks: the history may hold the previous ones
            x, vcap, icap = x.copy(), vcap.copy(), icap.copy()
            x[done], vcap[done], icap[done] = x_new, v, i_new
        if kept is not None:
            x, vcap, icap = x[kept], vcap[kept], icap[kept]
    return grid.outputs()


def _waveforms(outputs, nodes, index):
    """One :class:`Waveform` per row, restricted to ``nodes``."""
    waveforms = []
    for times, kept in outputs:
        columns = iter(kept)
        waveforms.append(Waveform(times, {
            node: np.zeros_like(times) if i < 0 else next(columns)
            for node, i in zip(nodes, index)}))
    return waveforms


def run_transient(circuit, tstop, dt, method=TRAPEZOIDAL, record=None,
                  gmin=1e-12, x0=None, adaptive=False, dt_min=None,
                  dt_max=None, lte_tol=DEFAULT_LTE_TOL):
    """Simulate ``circuit`` from 0 to ``tstop``, as a population of one
    of :func:`run_transient_batch`.

    Parameters
    ----------
    circuit:
        Symbolic circuit.
    tstop, dt:
        Stop time and time step (seconds).  With ``adaptive=True``,
        ``dt`` is the initial (and post-breakpoint) step.
    method:
        ``"trap"`` (default) or ``"be"``.  Adaptive stepping requires
        the trapezoidal method.
    record:
        Node names to keep; ``None`` keeps all nodes.
    x0:
        Initial ``(n,)`` state vector; defaults to the DC operating
        point at t=0 (with the sources evaluated at t=0).
    adaptive:
        Enable LTE-controlled stepping on a non-uniform grid whose
        steps land exactly on stimulus breakpoints.
    dt_min, dt_max:
        Step bounds for the adaptive controller (defaults ``dt/16`` and
        ``min(tstop, 32*dt)``).
    lte_tol:
        Per-step error tolerance in volts (adaptive only).

    Returns a :class:`Waveform` (non-uniform time base when adaptive).
    """
    return run_transient_batch(
        [circuit], tstop, dt, method=method, record=record, gmin=gmin,
        x0=None if x0 is None else [x0], adaptive=adaptive, dt_min=dt_min,
        dt_max=dt_max, lte_tol=lte_tol)[0]


def run_transient_batch(circuits, tstop, dt, method=TRAPEZOIDAL,
                        record=None, gmin=1e-12, x0=None, adaptive=False,
                        dt_min=None, dt_max=None, lte_tol=DEFAULT_LTE_TOL,
                        stops=None):
    """Simulate a population of topologically identical circuits from 0
    to ``tstop``, or each row to its own stop.

    The population, of any size, advances in lockstep on exact Newton:
    each iteration assembles all still-active rows through one fixed
    stamp table and performs one stacked solve (see
    :mod:`repro.spice.batch`).  Each row steps on its own grid: the
    fixed ``linspace`` of its stop, or with ``adaptive=True`` its own
    time, step and breakpoints; a row that reaches its stop leaves the
    population.  So a row's waveform does not depend on the rest of the
    population.  Each Newton solve that fails to converge retries its
    rows on a gmin-continuation ladder.

    Parameters mirror :func:`run_transient`; ``circuits`` is a list of
    symbolic circuits, or the
    :class:`~repro.spice.batch.BatchCompiledCircuit` of the population
    (which keeps only its template of the compiled circuits it was
    built from), and ``x0``, when given, is an ``(S, n)`` initial-state
    stack.  ``stops``, when given, holds each row's stop
    time, none of them past ``tstop`` (the longest row's stop); by
    default every row stops at ``tstop``.

    Returns a list of :class:`Waveform`, aligned with ``circuits``.
    """
    _check_analysis(tstop, dt, method, adaptive)
    compiled = (circuits if isinstance(circuits, BatchCompiledCircuit)
                else BatchCompiledCircuit(list(circuits)))
    if stops is None:
        stops = [tstop] * compiled.n_samples
    elif (len(stops) != compiled.n_samples
          or not all(0 < stop <= tstop for stop in stops)):
        raise AnalysisError("need one stop in (0, tstop] per circuit")
    x = _initial_state(compiled, x0, gmin)
    nodes = compiled.node_order if record is None else list(record)
    index = [compiled.index_of(node) for node in nodes]
    cols = np.array([i for i in index if i >= 0], dtype=int)
    if adaptive:
        grid = _RowGrids(compiled, x, stops, dt, method, cols, dt_min,
                         dt_max, lte_tol)
    else:
        grid = _FixedGrid(compiled, x, stops, dt, method, cols)
    return _waveforms(_simulate(compiled, x, grid, method, gmin), nodes,
                      index)
