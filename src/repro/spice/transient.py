"""Transient analysis.

Two time-grid disciplines share the integration core:

* **Fixed-step** (the reference): backward Euler (robust, slightly
  lossy) or trapezoidal (second-order, default) on a uniform grid that
  always *covers* ``tstop`` (step count is a ceiling, so the last grid
  point is at or past the requested stop time).
* **Adaptive** (``adaptive=True``, trapezoidal only): local-truncation-
  error controlled stepping — step halving on rejection, bounded
  doubling on acceptance — with source-breakpoint registration so steps
  land exactly on stimulus corners (pulse edges, PWL knots).  The LTE
  estimate is the difference between the trapezoidal corrector and a
  polynomial predictor through the last accepted points; it
  overestimates the true trapezoidal LTE, which keeps the controller
  conservative where waveform measurements are taken.

The fixed-step engine remains the reference implementation; the
equivalence suite (tests/spice/test_adaptive.py) pins adaptive waveform
measurements within measurement tolerance of a 4x finer fixed grid
while using materially fewer steps.
"""

import numpy as np

from ..runtime.stats import record
from .batch import (BatchCompiledCircuit, BatchNewtonState,
                    gmin_ladder_batch, newton_solve_batch, solve_dc_batch)
from .errors import AnalysisError, ConvergenceError
from .mna import (CompiledCircuit, NewtonState, gmin_continuation_solve,
                  newton_solve)
from .dcop import solve_dc
from .sources import collect_breakpoints
from .waveform import Waveform

BACKWARD_EULER = "be"
TRAPEZOIDAL = "trap"

#: Newton policies: ``reuse`` runs every campaign; ``exact`` is the
#: reference the equivalence tests compare it against
SOLVER_EXACT = "exact"
SOLVER_REUSE = "reuse"

#: cache-key token naming the Newton policy campaigns run; keys computed
#: above ``repro.spice`` carry it (see ``repro.runtime.engine_cache_tag``)
NEWTON_CACHE_TOKEN = "solver=" + SOLVER_REUSE

#: default absolute LTE tolerance (volts).  Crossing-time accuracy is
#: the LTE divided by the local slew; at the bench's ~0.05 V/ps edges,
#: 1 mV keeps level crossings well inside the 0.1 ps measurement budget.
DEFAULT_LTE_TOL = 1e-3

#: accepted steps may grow by at most this factor per step
MAX_STEP_GROWTH = 2.0

#: target-error safety factor in the step-size controller
STEP_SAFETY = 0.9


def _check_solver(solver):
    if solver not in (SOLVER_EXACT, SOLVER_REUSE):
        raise ValueError("unknown solver mode {!r}; expected {} or {}"
                         .format(solver, SOLVER_REUSE, SOLVER_EXACT))


def _fixed_step_count(tstop, dt):
    """Number of fixed steps whose grid covers ``tstop``.

    A ceiling with a relative guard against float dust: ``round`` here
    used to produce ``n_steps * dt < tstop`` for non-commensurate
    ``tstop/dt``, silently clipping the tail of an output pulse.
    """
    return max(1, int(np.ceil(tstop / dt * (1.0 - 1e-12))))


class TransientResult:
    """Raw transient output: times, state matrix and the index maps."""

    def __init__(self, compiled, times, states):
        self.compiled = compiled
        self.times = times
        self.states = states

    def waveform(self, nodes=None):
        """Package node voltages as a :class:`Waveform`.

        ``nodes=None`` records every node; pass an iterable to restrict.
        """
        compiled = self.compiled
        if nodes is None:
            nodes = compiled.node_order
        signals = {}
        for node in nodes:
            idx = compiled.index_of(node)
            if idx < 0:
                signals[node] = np.zeros_like(self.times)
            else:
                signals[node] = self.states[:, idx]
        return Waveform(self.times, signals)


# ----------------------------------------------------------------------
# Adaptive step-size control (shared by the scalar and batched engines)
# ----------------------------------------------------------------------

class _StepController:
    """LTE step-size controller with breakpoint landing.

    Owns the current time, the next proposed step and the breakpoint
    cursor.  Both adaptive engines drive it the same way: ``propose`` a
    trial step, attempt the implicit solve, then either ``accept``
    (bounded growth from the error estimate) or ``reject`` (halving;
    a step already at the ``dt_min`` floor is force-accepted instead of
    looping forever).
    """

    def __init__(self, tstop, dt, dt_min, dt_max, lte_tol):
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
        self.breakpoints = []
        self._next_break = 0
        self._target = None
        self.accepted = 0
        self.rejected = 0

    def register_breakpoints(self, points):
        self.breakpoints = list(points)

    def done(self):
        return self.t >= self.tstop * (1.0 - 1e-12)

    def propose(self, history):
        """Trial step for the next attempt.

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
        return h

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
# Scalar transient
# ----------------------------------------------------------------------

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
    if tstop <= 0 or dt <= 0:
        raise AnalysisError("tstop and dt must be positive")
    if method not in (BACKWARD_EULER, TRAPEZOIDAL):
        raise AnalysisError("unknown integration method {!r}".format(method))
    if adaptive and method != TRAPEZOIDAL:
        raise AnalysisError("adaptive stepping requires the trapezoidal "
                            "method")
    _check_solver(solver)

    compiled = CompiledCircuit(circuit)
    n = compiled.n

    if x0 is None:
        x = solve_dc(compiled, t=0.0, gmin=gmin)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (n,):
            raise AnalysisError("x0 has wrong shape")

    if adaptive:
        result = _run_adaptive(compiled, x, tstop, dt, dt_min, dt_max,
                               lte_tol, gmin, solver)
        return result.waveform(record)

    n_steps = _fixed_step_count(tstop, dt)
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_steps + 1, n))
    states[0] = x

    if method == BACKWARD_EULER:
        geq_scale = 1.0 / dt
    else:
        geq_scale = 2.0 / dt
    a_base = compiled.companion_base(method, geq_scale)
    geq = compiled.cap_c * geq_scale
    newton_state = NewtonState() if solver == SOLVER_REUSE else None

    cap_p, cap_n = compiled.cap_p, compiled.cap_n
    mp, mq = cap_p >= 0, cap_n >= 0

    vcap_prev = compiled.cap_branch_voltages(x)
    icap_prev = np.zeros_like(vcap_prev)  # caps carry no current at DC

    for step in range(1, n_steps + 1):
        t = times[step]
        rhs = np.zeros(n)
        compiled.source_rhs(t, rhs)

        # Capacitor companion current sources.
        if compiled.n_caps:
            if method == BACKWARD_EULER:
                ieq = geq * vcap_prev
            else:
                ieq = geq * vcap_prev + icap_prev
            np.add.at(rhs, cap_p[mp], ieq[mp])
            np.subtract.at(rhs, cap_n[mq], ieq[mq])

        try:
            x = newton_solve(compiled, a_base, rhs, x, gmin=gmin, time=t,
                             state=newton_state)
        except ConvergenceError:
            # Retry with gmin continuation on the *same* companion system;
            # switching instants occasionally need it.  Rungs that fail
            # are skipped by the ladder (a second failure used to abort
            # the whole transient); only the final solve at the target
            # gmin is allowed to propagate.
            x = gmin_continuation_solve(compiled, a_base, rhs, x,
                                        gmin=gmin, time=t)

        states[step] = x
        vcap = compiled.cap_branch_voltages(x)
        if compiled.n_caps:
            if method == BACKWARD_EULER:
                icap_prev = geq * (vcap - vcap_prev)
            else:
                icap_prev = geq * (vcap - vcap_prev) - icap_prev
        vcap_prev = vcap

    result = TransientResult(compiled, times, states)
    return result.waveform(record)


def _run_adaptive(compiled, x, tstop, dt, dt_min, dt_max, lte_tol, gmin,
                  solver=SOLVER_REUSE):
    """Adaptive trapezoidal transient on the scalar engine."""
    n = compiled.n
    n_nodes = compiled.n_nodes
    controller = _StepController(tstop, dt, dt_min, dt_max, lte_tol)
    stimuli = [src.stimulus for src in compiled.vsources]
    stimuli += [src.stimulus for src in compiled.isources]
    controller.register_breakpoints(collect_breakpoints(stimuli, tstop))
    record("adaptive_runs")
    newton_state = NewtonState() if solver == SOLVER_REUSE else None

    cap_p, cap_n = compiled.cap_p, compiled.cap_n
    mp, mq = cap_p >= 0, cap_n >= 0
    vcap_prev = compiled.cap_branch_voltages(x)
    icap_prev = np.zeros_like(vcap_prev)

    times = [0.0]
    states = [x]
    hist_t = [0.0]
    hist_x = [x]

    while not controller.done():
        h = controller.propose(len(hist_t))
        t_new = controller.t + h
        geq_scale = 2.0 / h
        a_base = compiled.companion_base(TRAPEZOIDAL, geq_scale)
        geq = compiled.cap_c * geq_scale

        rhs = np.zeros(n)
        compiled.source_rhs(t_new, rhs)
        if compiled.n_caps:
            ieq = geq * vcap_prev + icap_prev
            np.add.at(rhs, cap_p[mp], ieq[mp])
            np.subtract.at(rhs, cap_n[mq], ieq[mq])

        try:
            try:
                x_new = newton_solve(compiled, a_base, rhs, x, gmin=gmin,
                                     time=t_new, state=newton_state)
            except ConvergenceError:
                x_new = gmin_continuation_solve(compiled, a_base, rhs, x,
                                                gmin=gmin, time=t_new)
        except ConvergenceError:
            # A non-converging trial step is a rejection like any other:
            # halve and retry (implicit steps converge more easily the
            # shorter they get).  At the floor the error propagates.
            if controller.reject(h):
                raise
            continue

        err = None
        x_pred = _predict(hist_t, hist_x, t_new)
        if x_pred is not None and n_nodes:
            err = float(np.max(np.abs((x_new - x_pred)[:n_nodes])))
            if err > lte_tol and not controller.reject(h):
                continue

        landed = controller.accept(h, err)
        x = x_new
        vcap = compiled.cap_branch_voltages(x)
        if compiled.n_caps:
            icap_prev = geq * (vcap - vcap_prev) - icap_prev
        vcap_prev = vcap
        times.append(t_new)
        states.append(x)
        _push_history(hist_t, hist_x, t_new, x, landed)

    return TransientResult(compiled, np.array(times), np.array(states))


# ----------------------------------------------------------------------
# Batched (lockstep) transient
# ----------------------------------------------------------------------

class BatchTransientResult:
    """Raw lockstep-transient output for a whole population.

    ``states`` is ``(S, n_steps+1, n)``; per-sample views package into
    the same :class:`Waveform` objects the scalar engine produces.
    """

    def __init__(self, batch, times, states):
        self.batch = batch
        self.times = times
        self.states = states

    def waveform(self, sample, nodes=None):
        """One sample's node voltages as a :class:`Waveform`."""
        batch = self.batch
        if nodes is None:
            nodes = batch.node_order
        signals = {}
        for node in nodes:
            idx = batch.index_of(node)
            if idx < 0:
                signals[node] = np.zeros_like(self.times)
            else:
                signals[node] = self.states[sample, :, idx]
        return Waveform(self.times, signals)

    def waveforms(self, nodes=None):
        """Per-sample waveforms, aligned with the input population."""
        return [self.waveform(s, nodes)
                for s in range(self.batch.n_samples)]


def run_transient_batch(circuits, tstop, dt, method=TRAPEZOIDAL,
                        record=None, gmin=1e-12, x0=None, adaptive=False,
                        dt_min=None, dt_max=None, lte_tol=DEFAULT_LTE_TOL,
                        solver=SOLVER_REUSE):
    """Simulate a population of topologically identical circuits in
    lockstep from 0 to ``tstop``.

    The population advances through the same time grid together: each
    Newton iteration assembles all still-active samples with precomputed
    flat stamp-index maps and performs one stacked ``np.linalg.solve``
    (see :mod:`repro.spice.batch`).  Semantics (integration method,
    damped Newton, per-step gmin-continuation retry) mirror
    :func:`run_transient` per sample; the scalar engine stays the
    reference implementation and the equivalence suite pins the two
    within 1e-6 V.

    With ``adaptive=True`` the whole batch advances on one shared
    non-uniform grid (the union grid): per-sample LTE estimates feed a
    single step-size controller, so a step is accepted only when *every*
    sample's error clears ``lte_tol`` and the grid lands on the union of
    all samples' stimulus breakpoints.

    Parameters mirror :func:`run_transient`; ``circuits`` is a list of
    symbolic circuits (or a prebuilt
    :class:`~repro.spice.batch.BatchCompiledCircuit`) and ``x0``, when
    given, is an ``(S, n)`` initial-state stack.

    Returns a list of :class:`Waveform`, aligned with ``circuits``.
    """
    if tstop <= 0 or dt <= 0:
        raise AnalysisError("tstop and dt must be positive")
    if method not in (BACKWARD_EULER, TRAPEZOIDAL):
        raise AnalysisError("unknown integration method {!r}".format(method))
    if adaptive and method != TRAPEZOIDAL:
        raise AnalysisError("adaptive stepping requires the trapezoidal "
                            "method")
    _check_solver(solver)

    batch = (circuits if isinstance(circuits, BatchCompiledCircuit)
             else BatchCompiledCircuit(circuits))
    n_samples, n = batch.n_samples, batch.n

    if x0 is None:
        x = solve_dc_batch(batch, t=0.0, gmin=gmin)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (n_samples, n):
            raise AnalysisError("x0 has wrong shape")

    if adaptive:
        result = _run_adaptive_batch(batch, x, tstop, dt, dt_min, dt_max,
                                     lte_tol, gmin, solver)
        return result.waveforms(record)

    n_steps = _fixed_step_count(tstop, dt)
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_samples, n_steps + 1, n))
    states[:, 0] = x

    if method == BACKWARD_EULER:
        geq_scale = 1.0 / dt
    else:
        geq_scale = 2.0 / dt
    a_base = batch.companion_base(method, geq_scale)
    geq = batch.cap_c * geq_scale
    newton_state = (BatchNewtonState() if solver == SOLVER_REUSE
                    else None)

    # Source-waveform tables over the whole grid (kills the per-step
    # Python loop the scalar engine pays in source_rhs).
    vsrc_tab, isrc_tab = batch.source_tables(times)
    vsrc_lo, vsrc_hi = batch.n_nodes, batch.n_nodes + batch.n_vsrc

    vcap_prev = batch.cap_branch_voltages(x)
    icap_prev = np.zeros_like(vcap_prev)

    for step in range(1, n_steps + 1):
        t = times[step]
        rhs = np.zeros((n_samples, n))
        rhs[:, vsrc_lo:vsrc_hi] = vsrc_tab[:, :, step]
        if batch.n_isrc:
            rhs += isrc_tab[:, :, step] @ batch.isrc_rhs_incidence

        if batch.n_caps:
            if method == BACKWARD_EULER:
                ieq = geq * vcap_prev
            else:
                ieq = geq * vcap_prev + icap_prev
            rhs += ieq @ batch.cap_rhs_incidence

        x_prev = x
        x, conv = newton_solve_batch(batch, a_base, rhs, x_prev,
                                     gmin=gmin, time=t,
                                     state=newton_state)
        if not conv.all():
            # gmin-continuation ladder for the failing subset only, from
            # the previous accepted state (the diverged iterate is
            # discarded, exactly like the scalar retry path).
            bad = np.flatnonzero(~conv)
            x[bad] = gmin_ladder_batch(batch, a_base[bad], rhs[bad],
                                       x_prev[bad], bad, gmin, time=t)

        states[:, step] = x
        vcap = batch.cap_branch_voltages(x)
        if batch.n_caps:
            if method == BACKWARD_EULER:
                icap_prev = geq * (vcap - vcap_prev)
            else:
                icap_prev = geq * (vcap - vcap_prev) - icap_prev
        vcap_prev = vcap

    result = BatchTransientResult(batch, times, states)
    return result.waveforms(record)


def _run_adaptive_batch(batch, x, tstop, dt, dt_min, dt_max, lte_tol,
                        gmin, solver=SOLVER_REUSE):
    """Adaptive trapezoidal transient on the lockstep engine.

    The batch advances on the union grid: one controller, per-sample
    LTE estimates reduced with a max, breakpoints collected from every
    sample's stimuli.
    """
    n_samples, n = batch.n_samples, batch.n
    n_nodes = batch.n_nodes
    controller = _StepController(tstop, dt, dt_min, dt_max, lte_tol)
    stimuli = [src.stimulus for sources in batch._vsources
               for src in sources]
    stimuli += [src.stimulus for sources in batch._isources
                for src in sources]
    controller.register_breakpoints(collect_breakpoints(stimuli, tstop))
    record("adaptive_runs")
    newton_state = (BatchNewtonState() if solver == SOLVER_REUSE
                    else None)

    vcap_prev = batch.cap_branch_voltages(x)
    icap_prev = np.zeros_like(vcap_prev)

    times = [0.0]
    states = [x]
    hist_t = [0.0]
    hist_x = [x]

    while not controller.done():
        h = controller.propose(len(hist_t))
        t_new = controller.t + h
        geq_scale = 2.0 / h
        a_base = batch.companion_base(TRAPEZOIDAL, geq_scale)
        geq = batch.cap_c * geq_scale

        rhs = np.zeros((n_samples, n))
        batch.source_rhs(t_new, rhs)
        if batch.n_caps:
            ieq = geq * vcap_prev + icap_prev
            rhs += ieq @ batch.cap_rhs_incidence

        try:
            x_new, conv = newton_solve_batch(batch, a_base, rhs, x,
                                             gmin=gmin, time=t_new,
                                             state=newton_state)
            if not conv.all():
                bad = np.flatnonzero(~conv)
                x_new[bad] = gmin_ladder_batch(batch, a_base[bad],
                                               rhs[bad], x[bad], bad,
                                               gmin, time=t_new)
        except ConvergenceError:
            if controller.reject(h):
                raise
            continue

        err = None
        x_pred = _predict(hist_t, hist_x, t_new)
        if x_pred is not None and n_nodes:
            err = float(np.max(np.abs((x_new - x_pred)[:, :n_nodes])))
            if err > lte_tol and not controller.reject(h):
                continue

        landed = controller.accept(h, err)
        x = x_new
        vcap = batch.cap_branch_voltages(x)
        if batch.n_caps:
            icap_prev = geq * (vcap - vcap_prev) - icap_prev
        vcap_prev = vcap
        times.append(t_new)
        states.append(x)
        _push_history(hist_t, hist_x, t_new, x, landed)

    stacked = np.transpose(np.array(states), (1, 0, 2))
    return BatchTransientResult(batch, np.array(times), stacked)


class BatchTransient:
    """Reusable lockstep transient runner over a circuit population.

    Thin stateful wrapper around :func:`run_transient_batch` for sweep
    drivers: holds the population and analysis knobs, and re-lowers on
    every :meth:`run` because sweeps mutate the circuits in place
    between runs (e.g. ``set_fault_resistance``); lowering is orders of
    magnitude cheaper than the transient itself.
    """

    def __init__(self, circuits, method=TRAPEZOIDAL, gmin=1e-12):
        self.circuits = list(circuits)
        self.method = method
        self.gmin = gmin

    @property
    def n_samples(self):
        return len(self.circuits)

    def run(self, tstop, dt, record=None, x0=None, **adaptive_kwargs):
        """One lockstep transient; returns per-sample waveforms."""
        return run_transient_batch(self.circuits, tstop, dt,
                                   method=self.method, record=record,
                                   gmin=self.gmin, x0=x0,
                                   **adaptive_kwargs)
