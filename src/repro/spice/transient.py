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
* **The Newton engine, picked by entry point.**  :func:`run_transient`
  runs one circuit on the scalar reuse Newton of :mod:`repro.spice.mna`
  (``solver="exact"`` selects its exact-Newton reference);
  :func:`run_transient_batch` runs a population of topologically
  identical circuits, of any size, on the exact lockstep Newton of
  :mod:`repro.spice.batch`, on one grid when fixed and on one grid per
  row when adaptive.

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
from .mna import (CompiledCircuit, NewtonState, gmin_continuation_solve,
                  newton_solve)
from .dcop import solve_dc
from .sources import collect_breakpoints
from .waveform import Waveform

BACKWARD_EULER = "be"
TRAPEZOIDAL = "trap"

#: Newton policies of :func:`run_transient`: ``reuse``, with ``exact``
#: as the reference the equivalence tests compare it against; a
#: lockstep population always runs ``exact``
SOLVER_EXACT = "exact"
SOLVER_REUSE = "reuse"

#: revision of the lockstep engine's stepping and Newton arithmetic.
#: Bump it with every change that moves lockstep values, even at
#: rounding level, so a warm cache never serves rows an earlier solver
#: computed.  2: one fixed stamp table and the branchless device kernel
#: (rows before it carried no revision).
LOCKSTEP_REVISION = 2

#: cache-key token naming the lockstep Newton and its revision; every
#: measurement row's key (see ``repro.core.pulse.run_measurements``) and
#: the defect table's key carry it
LOCKSTEP_NEWTON_CACHE_TOKEN = "solver={};revision={}".format(
    SOLVER_EXACT, LOCKSTEP_REVISION)

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
# Time grids
# ----------------------------------------------------------------------

class _FixedGrid:
    """The uniform reference grid, driven like :class:`_StepController`.

    Every step is ``dt`` and lands on a ``linspace`` point; nothing is
    ever rejected, so a convergence failure propagates.
    """

    def __init__(self, tstop, dt):
        self.n_steps = _fixed_step_count(tstop, dt)
        self.times = np.linspace(0.0, self.n_steps * dt, self.n_steps + 1)
        self.dt = dt
        self.accepted = 0

    def done(self):
        return self.accepted == self.n_steps

    def propose(self, history):
        return self.dt, self.times[self.accepted + 1]

    def accept(self, h, err):
        self.accepted += 1
        return False

    def reject(self, h):
        return True


class _StepController:
    """LTE step-size controller with breakpoint landing.

    Owns the current time, the next proposed step and the breakpoint
    cursor.  The time-stepping loop drives it: ``propose`` a trial step,
    attempt the implicit solve, then either ``accept`` (bounded growth
    from the error estimate) or ``reject`` (halving; a step already at
    the ``dt_min`` floor is force-accepted instead of looping forever).
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
        self.accepted = 0
        self.rejected = 0

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
        self.accepted += 1
        record("adaptive_accepted")
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
        self.rejected += 1
        record("adaptive_rejected")
        self.h = max(h * 0.5, self.dt_min)
        return False


def _predict(hist_t, hist_x, t_new):
    """Polynomial extrapolation of the state to ``t_new``.

    Quadratic through the last three accepted points (matching the
    trapezoidal rule's second order), linear with only two, None with
    fewer.  Works on both scalar ``(n,)`` and stacked ``(S, n)`` states
    since the Lagrange weights are scalars.
    """
    k = len(hist_t)
    if k < 2:
        return None
    if k >= 3:
        t0, t1, t2 = hist_t[-3], hist_t[-2], hist_t[-1]
        w0 = (t_new - t1) * (t_new - t2) / ((t0 - t1) * (t0 - t2))
        w1 = (t_new - t0) * (t_new - t2) / ((t1 - t0) * (t1 - t2))
        w2 = (t_new - t0) * (t_new - t1) / ((t2 - t0) * (t2 - t1))
        return w0 * hist_x[-3] + w1 * hist_x[-2] + w2 * hist_x[-1]
    t0, t1 = hist_t[-2], hist_t[-1]
    w = (t_new - t0) / (t1 - t0)
    return (1.0 - w) * hist_x[-2] + w * hist_x[-1]


def _push_history(hist_t, hist_x, t_new, x_new, landed):
    """Append an accepted point; a breakpoint landing restarts the
    history because the stimulus derivative is discontinuous there."""
    if landed:
        hist_t[:] = [t_new]
        hist_x[:] = [x_new]
    else:
        hist_t.append(t_new)
        hist_x.append(x_new)
        if len(hist_t) > 3:
            del hist_t[0]
            del hist_x[0]


# ----------------------------------------------------------------------
# Newton engines
# ----------------------------------------------------------------------

class _ScalarEngine:
    """One circuit on the scalar Newton of :mod:`repro.spice.mna`.

    An engine gives the time-stepping loop what differs between one
    circuit and a population: the DC start, the source and capacitor
    right-hand sides, and a round's implicit solves with their gmin
    retry.  The lowered circuit (``compiled``) supplies the rest
    through the interface :class:`~repro.spice.batch.BatchCompiledCircuit`
    mirrors.  State vectors are ``(n,)`` here and ``(S, n)`` in the
    lockstep engine; ``rows`` (a slice) are the population rows of one
    grid.
    """

    n_samples = 1

    def __init__(self, circuit, solver):
        compiled = CompiledCircuit(circuit)
        self.compiled = compiled
        self.shape = (compiled.n,)
        self.state = NewtonState() if solver == SOLVER_REUSE else None
        # capacitor terminals off ground, and their node indices
        self._mp, self._mq = compiled.cap_p >= 0, compiled.cap_n >= 0
        self._cap_p = compiled.cap_p[self._mp]
        self._cap_n = compiled.cap_n[self._mq]

    def stimuli(self, rows):
        compiled = self.compiled
        return [src.stimulus
                for src in compiled.vsources + compiled.isources]

    def dc(self, gmin):
        return solve_dc(self.compiled, t=0.0, gmin=gmin)

    def tabulate(self, times):
        """Sources are evaluated per step; nothing to precompute."""

    def rhs(self, t, step, ieq, rows):
        """Right-hand side at ``t``: sources plus the capacitor
        companion currents ``ieq`` (None without capacitors)."""
        compiled = self.compiled
        rhs = np.zeros(compiled.n)
        compiled.source_rhs(t, rhs)
        if ieq is not None:
            np.add.at(rhs, self._cap_p, ieq[self._mp])
            np.subtract.at(rhs, self._cap_n, ieq[self._mq])
        return rhs

    def solve(self, requests, gmin):
        """A round's one request ``(t, a_base, rhs, x, rows)``, solved."""
        ((t, a_base, rhs, x, _),) = requests
        try:
            return [newton_solve(self.compiled, a_base, rhs, x, gmin=gmin,
                                 time=t, state=self.state)]
        except ConvergenceError:
            # Retry with gmin continuation on the *same* companion system;
            # switching instants occasionally need it.  Rungs that fail
            # are skipped by the ladder; only the final solve at the
            # target gmin is allowed to propagate.
            return [gmin_continuation_solve(self.compiled, a_base, rhs, x,
                                            gmin=gmin, time=t)]


def _stack_product(a, b):
    """``a @ b`` for an ``(m, k)`` stack ``a``, each row summed in the
    order of the ``m > 1`` product.  numpy multiplies a one-row ``a``
    by a matrix-vector routine whose summation order differs from the
    matrix-matrix one at rounding level, so a one-row stack is
    multiplied as two copies of itself."""
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


class _LockstepEngine:
    """A population on the exact lockstep Newton of
    :mod:`repro.spice.batch`: one stacked solve per Newton iteration over
    the still-active rows (see :class:`_ScalarEngine` for the
    interface)."""

    def __init__(self, circuits):
        batch = BatchCompiledCircuit(circuits)
        self.compiled = batch
        self.n_samples = batch.n_samples
        self.shape = (batch.n_samples, batch.n)
        self._rows = np.arange(batch.n_samples)
        self._tables = None

    def stimuli(self, rows):
        batch = self.compiled
        return [src.stimulus for s in self._rows[rows]
                for src in batch._vsources[s] + batch._isources[s]]

    def dc(self, gmin):
        return solve_dc_batch(self.compiled, t=0.0, gmin=gmin)

    def tabulate(self, times):
        """Source-waveform tables over the whole fixed grid (kills the
        per-step Python loop over samples and sources)."""
        self._tables = self.compiled.source_tables(times)

    def rhs(self, t, step, ieq, rows):
        """As :meth:`_ScalarEngine.rhs`, for ``rows``; the sources come
        from the tables at grid index ``step`` when :meth:`tabulate`
        ran (the fixed grid, whose one grid owns every row)."""
        batch = self.compiled
        rhs = np.zeros((self._rows[rows].size, batch.n))
        if self._tables is None:
            batch.source_rhs(t, rhs, rows)
            product = np.matmul  # one row at a time at any population size
        else:
            vsrc_tab, isrc_tab = self._tables
            rhs[:, batch.n_nodes:batch.n_nodes + batch.n_vsrc] = (
                vsrc_tab[:, :, step])
            product = _stack_product  # the whole population at once
            if batch.n_isrc:
                rhs += product(isrc_tab[:, :, step],
                               batch.isrc_rhs_incidence)
        if ieq is not None:
            rhs += product(ieq, batch.cap_rhs_incidence)
        return rhs

    def solve(self, requests, gmin):
        """Every request ``(t, a_base, rhs, x, rows)`` of a round in one
        stacked Newton call.  Returns, per request, its rows' solution,
        or the :class:`ConvergenceError` of a request whose rows did
        not all converge."""
        batch = self.compiled
        if len(requests) == 1:
            ((_, a_base, rhs, x, rows),) = requests
            rows = self._rows[rows]
        else:  # one row per request, ``rows`` a slice of one
            _, a_base, rhs, x, rows = zip(*requests)
            a_base, rhs, x = map(np.concatenate, (a_base, rhs, x))
            rows = np.r_[rows]
        x_new, conv = newton_solve_batch(batch, a_base, rhs, x, rows,
                                         gmin=gmin)
        if not conv.all():
            # gmin-continuation ladder for the failing rows only, from
            # the previous accepted state (the diverged iterate is
            # discarded, exactly like the scalar retry path).
            bad = np.flatnonzero(~conv)
            x_new[bad], conv[bad] = gmin_ladder_batch(
                batch, a_base[bad], rhs[bad], x[bad], rows[bad], gmin)
        # a request's rows step together, so one failed row fails it
        parts = ([(x_new, conv)] if len(requests) == 1
                 else zip(x_new[:, None], conv[:, None]))
        return [x if ok.all() else ConvergenceError(
                    "batched Newton failed to converge for {} of {} samples"
                    .format(np.count_nonzero(~ok), ok.size), time=t)
                for (t, *_), (x, ok) in zip(requests, parts)]


# ----------------------------------------------------------------------
# The time-stepping loop and its two entry points
# ----------------------------------------------------------------------

def _initial_state(engine, x0, gmin):
    """The DC operating point at t=0, or ``x0`` checked against the
    engine's state shape."""
    if x0 is None:
        return engine.dc(gmin)
    x = np.array(x0, dtype=float)
    if x.shape != engine.shape:
        raise AnalysisError("x0 has wrong shape")
    return x


def _steps(engine, grid, rows, x, method, size, cols):
    """The stepping loop of one time grid over population ``rows`` from
    their state ``x``.

    A generator: it yields each implicit solve ``(t, a_base, rhs, x,
    rows)``, is sent the solution or thrown its
    :class:`ConvergenceError`, and returns the accepted times and the
    ``(times, rows, cols)`` array of every accepted state's ``cols``.
    """
    compiled = engine.compiled
    n_nodes = compiled.n_nodes
    adaptive = isinstance(grid, _StepController)
    # Accepted points go into preallocated arrays (sized for the fixed
    # grid, doubled when an adaptive run outgrows them): keeping one
    # small array alive per step measurably slowed the Newton solves.
    times = np.empty(size)
    kept = np.empty((size, x.size // x.shape[-1], cols.size))
    times[0] = 0.0
    kept[0] = x.take(cols, axis=-1)
    count = 1
    hist_t = [0.0]
    hist_x = [x]
    vcap_prev = compiled.cap_branch_voltages(x)
    icap_prev = np.zeros_like(vcap_prev)  # caps carry no current at DC
    h_prev = None

    while not grid.done():
        h, t_new = grid.propose(len(hist_t))
        if h != h_prev:
            geq_scale = (1.0 if method == BACKWARD_EULER else 2.0) / h
            if rows == slice(None):
                # cached and identity-stable: the reuse Newton keeps its
                # LU while ``a_base`` is the same object
                a_base = compiled.companion_base(method, geq_scale)
            else:  # one row of a lockstep population
                a_base = (compiled.a_static[rows]
                          + compiled.cap_companion_matrix(geq_scale, rows))
            geq = compiled.cap_c[rows] * geq_scale
            h_prev = h

        ieq = None
        if compiled.n_caps:
            # capacitor companion current sources
            if method == BACKWARD_EULER:
                ieq = geq * vcap_prev
            else:
                ieq = geq * vcap_prev + icap_prev
        rhs = engine.rhs(t_new, grid.accepted + 1, ieq, rows)

        try:
            x_new = yield t_new, a_base, rhs, x, rows
        except ConvergenceError:
            # A non-converging trial step is a rejection like any other:
            # halve and retry (implicit steps converge more easily the
            # shorter they get).  At the floor, and on the fixed grid,
            # the error propagates.
            if grid.reject(h):
                raise
            continue

        err = None
        if adaptive:
            x_pred = _predict(hist_t, hist_x, t_new)
            if x_pred is not None and n_nodes:
                err = float(np.max(np.abs((x_new - x_pred)[..., :n_nodes])))
                if err > grid.lte_tol and not grid.reject(h):
                    continue

        landed = grid.accept(h, err)
        x = x_new
        vcap = compiled.cap_branch_voltages(x)
        if compiled.n_caps:
            if method == BACKWARD_EULER:
                icap_prev = geq * (vcap - vcap_prev)
            else:
                icap_prev = geq * (vcap - vcap_prev) - icap_prev
        vcap_prev = vcap
        if count == len(times):
            times = np.concatenate([times, np.empty_like(times)])
            kept = np.concatenate([kept, np.empty_like(kept)])
        times[count] = t_new
        kept[count] = x.take(cols, axis=-1)
        count += 1
        if adaptive:
            _push_history(hist_t, hist_x, t_new, x, landed)
    return times[:count], kept[:count]


def _simulate(engine, x, tstop, dt, method, gmin, nodes, adaptive, dt_min,
              dt_max, lte_tol):
    """Integrate from state ``x`` to ``tstop`` on either grid.

    The fixed grid is one grid for the whole population.  On the
    adaptive grid every row of a lockstep population has its own
    controller, so its time base and values depend on nothing but the
    row; each round solves every unfinished row at its own time and
    step in one Newton call.  Returns one :class:`Waveform` per sample,
    restricted to ``nodes`` (None keeps every node).
    """
    compiled = engine.compiled
    nodes = compiled.node_order if nodes is None else list(nodes)
    index = [compiled.index_of(node) for node in nodes]
    cols = np.array([i for i in index if i >= 0], dtype=int)
    rows = [slice(None)]
    if adaptive:
        if engine.n_samples > 1:
            rows = [slice(r, r + 1) for r in range(engine.n_samples)]
        grids = [_StepController(tstop, dt, dt_min, dt_max, lte_tol,
                                 collect_breakpoints(engine.stimuli(r), tstop))
                 for r in rows]
        record("adaptive_runs", len(rows))
    else:
        grids = [_FixedGrid(tstop, dt)]
        engine.tabulate(grids[0].times)

    size = _fixed_step_count(tstop, dt) + 1
    loops = [_steps(engine, grid, r, x[r], method, size, cols)
             for grid, r in zip(grids, rows)]
    pending = {loop: next(loop) for loop in loops}
    finished = {}
    while pending:
        try:
            outcomes = engine.solve(list(pending.values()), gmin)
        except ConvergenceError as exc:  # the scalar engine's one row
            outcomes = [exc]
        for loop, outcome in zip(list(pending), outcomes):
            try:
                pending[loop] = (loop.throw(outcome)
                                 if isinstance(outcome, ConvergenceError)
                                 else loop.send(outcome))
            except StopIteration as stop:
                del pending[loop]
                finished[loop] = stop.value

    waveforms = []
    for loop in loops:
        times, kept = finished[loop]
        for row in kept.transpose(1, 2, 0):
            columns = iter(row)
            waveforms.append(Waveform(times, {
                node: np.zeros_like(times) if i < 0 else next(columns)
                for node, i in zip(nodes, index)}))
    return waveforms


def run_transient(circuit, tstop, dt, method=TRAPEZOIDAL, record=None,
                  gmin=1e-12, x0=None, adaptive=False, dt_min=None,
                  dt_max=None, lte_tol=DEFAULT_LTE_TOL,
                  solver=SOLVER_REUSE):
    """Simulate ``circuit`` from 0 to ``tstop``.

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
        Initial state vector; defaults to the DC operating point at t=0
        (with the sources evaluated at t=0).
    adaptive:
        Enable LTE-controlled stepping on a non-uniform grid whose
        steps land exactly on stimulus breakpoints.
    dt_min, dt_max:
        Step bounds for the adaptive controller (defaults ``dt/16`` and
        ``min(tstop, 32*dt)``).
    lte_tol:
        Per-step error tolerance in volts (adaptive only).
    solver:
        ``"reuse"`` (modified Newton with a warm LU factorization and
        device bypass; the default) or ``"exact"`` (re-stamp and
        re-factor every iteration; the reference the equivalence tests
        compare against).

    Returns a :class:`Waveform` (non-uniform time base when adaptive).
    """
    _check_analysis(tstop, dt, method, adaptive)
    if solver not in (SOLVER_EXACT, SOLVER_REUSE):
        raise ValueError("unknown solver mode {!r}; expected {} or {}"
                         .format(solver, SOLVER_REUSE, SOLVER_EXACT))
    engine = _ScalarEngine(circuit, solver)
    x = _initial_state(engine, x0, gmin)
    return _simulate(engine, x, tstop, dt, method, gmin, record, adaptive,
                     dt_min, dt_max, lte_tol)[0]


def run_transient_batch(circuits, tstop, dt, method=TRAPEZOIDAL,
                        record=None, gmin=1e-12, x0=None, adaptive=False,
                        dt_min=None, dt_max=None, lte_tol=DEFAULT_LTE_TOL):
    """Simulate a population of topologically identical circuits from 0
    to ``tstop``.

    The population, of any size, advances in lockstep on exact Newton:
    each iteration assembles all still-active rows through one fixed
    stamp table and performs one stacked solve (see
    :mod:`repro.spice.batch`).  On the fixed grid the rows share one
    grid; with ``adaptive=True`` each row keeps its own time, step and
    breakpoints, so a row's waveform does not depend on the rest of the
    population.  Semantics (integration method, damped Newton, per-step
    gmin-continuation retry) mirror the scalar engine per sample; the
    equivalence suite pins the two within 1e-6 V.

    Parameters mirror :func:`run_transient` except ``solver`` (the
    lockstep engine runs exact Newton only); ``circuits`` is a list of
    symbolic circuits and ``x0``, when given, is an ``(S, n)``
    initial-state stack.

    Returns a list of :class:`Waveform`, aligned with ``circuits``.
    """
    _check_analysis(tstop, dt, method, adaptive)
    engine = _LockstepEngine(list(circuits))
    x = _initial_state(engine, x0, gmin)
    return _simulate(engine, x, tstop, dt, method, gmin, record, adaptive,
                     dt_min, dt_max, lte_tol)
