"""Batched population lowering and lockstep Newton solves.

Every Monte Carlo experiment in the paper evaluates a population of
*topologically identical* circuits: only the parameter draws (device
betas, thresholds, capacitances) and the injected fault resistance differ
between samples.  :class:`BatchCompiledCircuit` lowers such a population
into stacked numpy arrays — ``(S, n, n)`` base matrices, ``(4, S, n_mos)``
device parameters, ``(S, n_caps)`` capacitor vectors — so an entire
population advances through a transient in lockstep:

* assembly uses *one fixed stamp table*: every MOSFET's eight Norton
  stamp entries (six matrix, two rhs) know their destination in a row's
  flat ``n*n + n + 1`` buffer up front, entries touching ground go to
  its last slot, a discard bin, and the source/drain orientation of a
  device rides in its stamped values, so the destinations never change
  with the operating point.  Per Newton iteration the devices are
  evaluated with the branchless
  :func:`~repro.spice.mosfet.evaluate_level1_fast` kernel and matrix
  and rhs of every row are scattered by one ``np.bincount``;
* each Newton iteration re-stamps every still-active sample and
  performs ONE stacked ``np.linalg.solve`` over them; converged samples
  drop out of the batch, whose per-row arrays are compacted only when
  a row leaves (:func:`newton_solve_batch`).

The lockstep Newton is exact Newton: it keeps no factorization and
bypasses no device between iterations.  It is the one transient Newton:
:func:`repro.spice.transient.run_transient` runs one circuit as a
population of one.  Its waveforms are pinned, within 1e-9 V, to a
reference the removed scalar exact-Newton transient recorded
(tests/spice/test_batch_engine.py), and :func:`solve_dc_batch` agrees
with the scalar DC solve of :mod:`repro.spice.dcop` per circuit.
"""

import time as _time

import numpy as np

from ..runtime.stats import current_stats
from .errors import ConvergenceError, NetlistError
from .mna import _COMPANION_CACHE_MAX, CompiledCircuit
from .mosfet import evaluate_level1_fast


class BatchCompiledCircuit:
    """A population of topologically identical circuits in stacked form.

    Parameters
    ----------
    circuits:
        Iterable of symbolic circuits (or pre-compiled
        :class:`~repro.spice.mna.CompiledCircuit` instances).  Sample 0 is
        the structural template; every other sample must match its node
        ordering and element incidence exactly — only numeric values
        (conductances, capacitances, device parameters, stimuli) may
        differ.
    """

    def __init__(self, circuits):
        compiled = [c if isinstance(c, CompiledCircuit) else
                    CompiledCircuit(c) for c in circuits]
        if not compiled:
            raise NetlistError("batch needs at least one circuit")
        template = compiled[0]
        topology = template.topology()
        for k, other in enumerate(compiled[1:], start=1):
            if other.topology() != topology:
                raise NetlistError(
                    "sample {} is not topologically identical to sample "
                    "0; batched lowering needs a structurally uniform "
                    "population".format(k))

        self.template = template
        self.n_samples = len(compiled)
        self.n = template.n
        self.n_nodes = template.n_nodes
        self.n_vsrc = template.n_vsrc
        self.node_order = template.node_order
        self.node_index = template.node_index

        # Per-sample stimuli (index arrays are shared via the template).
        self._vsources = [c.vsources for c in compiled]
        self._isources = [c.isources for c in compiled]
        self.n_isrc = len(template.isources)

        # Stacked numeric payloads.
        self.a_static = np.stack([c.a_static for c in compiled])
        self.cap_p = template.cap_p
        self.cap_n = template.cap_n
        self.cap_c = np.stack([c.cap_c for c in compiled])
        self.n_caps = template.n_caps

        self.mos_d = template.mos_d
        self.mos_g = template.mos_g
        self.mos_s = template.mos_s
        self.mos_sign = template.mos_sign
        #: ``(4, S, n_mos)``: every device's polarity sign, beta, vt and
        #: lambda, one gather away from the parameters of any subset of
        #: rows (the sign is stacked too: the kernel runs faster on
        #: equal shapes than on a broadcast)
        self.mos_params = np.stack([
            np.tile(self.mos_sign, (len(compiled), 1)),
            np.stack([c.mos_beta for c in compiled]),
            np.stack([c.mos_vt for c in compiled]),
            np.stack([c.mos_lam for c in compiled])])
        _, self.mos_beta, self.mos_vt, self.mos_lam = self.mos_params
        self.n_mos = template.n_mos

        #: ``(n, n)`` identity on the node rows, zero on the source
        #: branch rows: where the Newton gmin goes
        self.node_eye = np.diag((np.arange(self.n) < self.n_nodes) * 1.0)

        self._build_stamp_table()
        self._build_cap_maps()
        self._build_isrc_incidence()
        self._companion_cache = {}

    def __len__(self):
        return self.n_samples

    # ------------------------------------------------------------------

    def index_of(self, node):
        return self.template.index_of(node)

    # ------------------------------------------------------------------
    # Flat stamp tables
    # ------------------------------------------------------------------

    def _flat_mat(self, rows, cols):
        """Flattened ``row*n + col`` destinations; ground entries are
        routed to the discard bin ``n*n``."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        valid = np.logical_and(rows >= 0, cols >= 0)
        return np.where(valid, rows * self.n + cols, self.n * self.n)

    def _build_stamp_table(self):
        """The one MOSFET scatter table of the population.

        Row k of a stack assembles into a flat buffer of ``width = n*n
        + n + 1`` slots at offset ``k * width``: its matrix row-major,
        its rhs, and a last slot that every entry touching ground is
        discarded into.  The table holds eight destinations per device,
        entry-major in the order of :func:`_stamp_values`: the matrix
        entries (d,g) (d,d) (d,s) (s,g) (s,d) (s,s), then the rhs entries
        d and s.  The table of a k-row stack is the first ``k * 8 *
        n_mos`` entries of the population's.
        """
        n = self.n
        width = n * n + n + 1
        d, g, s = self.mos_d, self.mos_g, self.mos_s

        def mat(row, col):
            return np.where((row >= 0) & (col >= 0), row * n + col,
                            width - 1)

        def rhs(row):
            return np.where(row >= 0, n * n + row, width - 1)

        local = np.concatenate([mat(d, g), mat(d, d), mat(d, s),
                                mat(s, g), mat(s, d), mat(s, s),
                                rhs(d), rhs(s)])
        self._mos_terminals = np.stack([d, g, s])
        self._row_width = width
        self._stamp_table = (np.arange(self.n_samples)[:, None] * width
                             + local).ravel()

    def _build_cap_maps(self):
        """The capacitor scatter table, like the stamp table: row k of a
        stack scatters its four entries per capacitor, (p,p) (q,q) (p,q)
        (q,p), into a flat buffer of ``n*n + 1`` slots at offset ``k *
        (n*n + 1)``, ground entries into the last slot; the table of a
        k-row stack is the first ``k * 4 * n_caps`` entries."""
        p, q = self.cap_p, self.cap_n
        local = np.stack([
            self._flat_mat(p, p), self._flat_mat(q, q),
            self._flat_mat(p, q), self._flat_mat(q, p)], axis=-1).ravel()
        self._cap_table = (np.arange(self.n_samples)[:, None]
                           * (self.n * self.n + 1) + local).ravel()
        #: each row's four signed capacitances per capacitor, in table
        #: order (a sign commutes exactly with the step's scale)
        self._cap_signed = (self.cap_c[:, :, None]
                            * [1.0, 1.0, -1.0, -1.0]).reshape(
                                self.n_samples, -1)
        # Companion-current scatter as a dense incidence matrix so the
        # per-step rhs update is a single matmul: rhs += ieq @ inc.
        inc = np.zeros((self.n_caps, self.n))
        for j in range(self.n_caps):
            if p[j] >= 0:
                inc[j, p[j]] += 1.0
            if q[j] >= 0:
                inc[j, q[j]] -= 1.0
        self.cap_rhs_incidence = inc

    def _build_isrc_incidence(self):
        template = self.template
        inc = np.zeros((self.n_isrc, self.n))
        for k in range(self.n_isrc):
            p, q = template.isrc_p[k], template.isrc_n[k]
            if p >= 0:
                inc[k, p] -= 1.0
            if q >= 0:
                inc[k, q] += 1.0
        self.isrc_rhs_incidence = inc

    # ------------------------------------------------------------------
    # bincount-based scatter assembly
    # ------------------------------------------------------------------

    def _scatter(self, values):
        """Scatter the ``(m, 8 * n_mos)`` stamp values of
        :func:`_stamp_values` through the stamp table.  Returns the
        ``(m, n, n)`` matrix and ``(m, n)`` rhs stacks, both views of one
        fresh buffer."""
        m = values.shape[0]
        n, width = self.n, self._row_width
        if values.size:
            buf = np.bincount(self._stamp_table[:values.size],
                              weights=values.ravel(),
                              minlength=m * width).reshape(m, width)
        else:  # bincount of nothing comes back as integers
            buf = np.zeros((m, width))
        return buf[:, :n * n].reshape(m, n, n), buf[:, n * n:n * n + n]

    # ------------------------------------------------------------------
    # Assembly helpers (batched mirrors of CompiledCircuit)
    # ------------------------------------------------------------------

    def gather_voltages(self, x):
        """``(m, n_nodes+1)`` node voltages with a trailing pinned 0.0
        ground column (index -1 in the terminal maps lands there)."""
        m = x.shape[0]
        v = np.empty((m, self.n_nodes + 1))
        v[:, :self.n_nodes] = x[:, :self.n_nodes]
        v[:, -1] = 0.0
        return v

    def cap_companion_matrix(self, geq_scale, rows=slice(None)):
        """Companion-conductance stack of ``rows``, ``geq = C * scale``
        (``geq_scale`` one scale, or an ``(m, 1)`` column of one per
        row), scattered through the capacitor table by one
        ``bincount``."""
        vals = self._cap_signed[rows] * geq_scale
        m, nn1 = len(vals), self.n * self.n + 1
        if not vals.size:  # bincount of nothing comes back as integers
            return np.zeros((m, self.n, self.n))
        acc = np.bincount(self._cap_table[:vals.size], weights=vals.ravel(),
                          minlength=m * nn1)
        return acc.reshape(m, nn1)[:, :-1].reshape(m, self.n, self.n)

    def companion_base(self, scheme, geq_scale):
        """``a_static + cap_companion_matrix(geq_scale)`` stack, cached
        per ``(scheme, geq_scale)`` — the batched mirror of
        :meth:`repro.spice.mna.CompiledCircuit.companion_base` (shared,
        read-only)."""
        key = (scheme, float(geq_scale))
        cache = self._companion_cache
        base = cache.pop(key, None)
        if base is None:
            base = self.a_static + self.cap_companion_matrix(geq_scale)
            base.setflags(write=False)
            while len(cache) >= _COMPANION_CACHE_MAX:
                cache.pop(next(iter(cache)))
        cache[key] = base
        return base

    def cap_branch_voltages(self, x):
        """Per-sample voltage across each capacitor (p - n)."""
        if self.n_caps == 0:
            return np.zeros((x.shape[0], 0))
        v = self.gather_voltages(x)
        return v[:, self.cap_p] - v[:, self.cap_n]

    def source_rhs(self, t, rhs, rows=slice(None)):
        """Add the source contributions of population ``rows`` (a slice
        or an index sequence) at ``t``, one time for every row or a
        sequence of one per row."""
        samples = (range(self.n_samples)[rows] if isinstance(rows, slice)
                   else rows)
        times = [t] * len(samples) if np.isscalar(t) else t
        if self.n_vsrc:
            rhs[:, self.n_nodes:self.n_nodes + self.n_vsrc] += [
                [src.stimulus.value_at(t) for src in self._vsources[s]]
                for s, t in zip(samples, times)]
        for j, (s, t) in enumerate(zip(samples, times)):
            for k, src in enumerate(self._isources[s]):
                value = src.stimulus.value_at(t)
                p = self.template.isrc_p[k]
                q = self.template.isrc_n[k]
                if p >= 0:
                    rhs[j, p] -= value
                if q >= 0:
                    rhs[j, q] += value

    def source_tables(self, times, rows=None):
        """Stimulus values of population ``rows`` (default: every row)
        over the whole time grid ``times``.

        Returns ``(vsrc_tab, isrc_tab)`` with shapes ``(m, n_vsrc, T)``
        and ``(m, n_isrc, T)``; precomputing them removes every per-step
        Python loop over sources from the transient hot path.
        """
        times = np.asarray(times, dtype=float)
        rows = range(self.n_samples) if rows is None else list(rows)
        vsrc = np.zeros((len(rows), self.n_vsrc, times.size))
        isrc = np.zeros((len(rows), self.n_isrc, times.size))
        for j, s in enumerate(rows):
            for k, src in enumerate(self._vsources[s]):
                vsrc[j, k] = src.stimulus.values_at(times)
            for k, src in enumerate(self._isources[s]):
                isrc[j, k] = src.stimulus.values_at(times)
        return vsrc, isrc

    def stamp_mosfets(self, x, a_base, rhs_base, params, gmin=1e-12):
        """Linearise every MOSFET of every row of ``x`` and stamp it.

        ``x`` is ``(m, n)`` and ``params`` the ``(4, m, n_mos)`` device
        parameters of its rows (``mos_params[:, rows]``).  Returns fresh
        ``(a, rhs)`` stacks: ``a_base``/``rhs_base`` plus the stamps.
        """
        v = self.gather_voltages(x).take(self._mos_terminals, axis=1)
        vd, vg, vs = v[:, 0], v[:, 1], v[:, 2]
        a, rhs = self._scatter(_stamp_values(
            vd, vg, vs, *evaluate_level1_fast(vd, vg, vs, *params), gmin))
        a += a_base
        rhs += rhs_base
        return a, rhs

    # ------------------------------------------------------------------
    # Device-cache helpers of the removed factorization-reuse Newton
    # (stacked mirrors of CompiledCircuit's).  Nothing in the package
    # calls them; the benchmark tracer (benchmarks/e2e/spans.py) still
    # names all three.
    # ------------------------------------------------------------------

    def refresh_device_cache(self, x, state, rows, force_exact):
        """Update the per-device linearisation cache for ``rows``.

        ``x`` is the ``(m, n)`` state of the rows, ``rows`` their
        population indices into ``state``'s stacked cache, and
        ``force_exact`` an ``(m,)`` mask of rows whose devices must all
        be re-evaluated.  Returns ``(n_bypassed, exact_rows)`` — the
        total number of bypassed device evaluations and the ``(m,)``
        mask of rows whose every device was evaluated at ``x``.
        """
        m = x.shape[0]
        if self.n_mos == 0:
            return 0, np.ones(m, dtype=bool)
        v = self.gather_voltages(x)
        vd = v[:, self.mos_d]
        vg = v[:, self.mos_g]
        vs = v[:, self.mos_s]
        tol = state.bypass_tol
        moved = np.abs(vd - state.dev_vd[rows]) > tol
        np.logical_or(moved, np.abs(vg - state.dev_vg[rows]) > tol,
                      out=moved)
        np.logical_or(moved, np.abs(vs - state.dev_vs[rows]) > tol,
                      out=moved)
        moved[force_exact | ~state.dev_valid[rows]] = True
        r_idx, c_idx = np.nonzero(moved)
        if r_idx.size:
            pr = rows[r_idx]
            # the lockstep Newton's branchless kernel, so the two
            # linearisations agree bitwise
            i_ab, gm, gds, a_is_drain = evaluate_level1_fast(
                vd[r_idx, c_idx], vg[r_idx, c_idx], vs[r_idx, c_idx],
                self.mos_sign[c_idx], self.mos_beta[pr, c_idx],
                self.mos_vt[pr, c_idx], self.mos_lam[pr, c_idx])
            state.dev_i[pr, c_idx] = i_ab
            state.dev_gm[pr, c_idx] = gm
            state.dev_gds[pr, c_idx] = gds
            state.dev_a_is_drain[pr, c_idx] = a_is_drain
            state.dev_vd[pr, c_idx] = vd[r_idx, c_idx]
            state.dev_vg[pr, c_idx] = vg[r_idx, c_idx]
            state.dev_vs[pr, c_idx] = vs[r_idx, c_idx]
        state.dev_valid[rows] = True
        return int(moved.size - r_idx.size), moved.all(axis=1)

    def _cached_stamps(self, state, rows, gmin):
        """:meth:`_scatter` of the stamp values of ``rows``' cached
        linearisation."""
        return self._scatter(_stamp_values(
            state.dev_vd[rows], state.dev_vg[rows], state.dev_vs[rows],
            state.dev_i[rows], state.dev_gm[rows], state.dev_gds[rows],
            state.dev_a_is_drain[rows], gmin))

    def stamp_jacobian_from_cache(self, a, state, rows, gmin=1e-12):
        """Stamp the small-signal (matrix-only) MOSFET entries for
        ``rows`` from the cached linearisation into the ``(m, n, n)``
        stack ``a`` — same entries :meth:`stamp_mosfets` writes."""
        a += self._cached_stamps(state, rows, gmin)[0]

    def residual_from_cache(self, x, a_base, rhs_base, state, rows,
                            gmin=1e-12):
        """Stacked KCL residual ``F(x) = A·x - rhs`` of the system
        stamped from the cached linearisation, with the gmin diagonal
        on node rows; exact at a cache refreshed at ``x`` (see
        :meth:`repro.spice.mna.CompiledCircuit.residual_from_cache`)."""
        a, rhs = self._cached_stamps(state, rows, gmin)
        a += a_base
        f = (a @ x[:, :, None])[:, :, 0] - rhs - rhs_base
        n_nodes = self.n_nodes
        f[:, :n_nodes] += gmin * x[:, :n_nodes]
        return f


def _stamp_values(vd, vg, vs, i_ab, gm, gds, a_is_drain, gmin):
    """Norton stamp values of every device, ``(m, 8 * n_mos)`` in the
    order of the stamp table (see
    :meth:`BatchCompiledCircuit._build_stamp_table`).

    Takes the terminal voltages and the level-1 linearisation
    ``(i_ab, gm, gds, a_is_drain)`` of :func:`evaluate_level1_fast`,
    whose frame puts its *a* terminal at the higher channel end.  In the
    fixed drain/source frame the channel current from d to s is
    ``i_ds = ieq + G_g vg + G_d vd + G_s vs``: the frame's orientation
    moves ``gm`` between the conductances, never the destinations.
    Rows d and s of the matrix get ``±(G_g, G_d, G_s)`` plus ``gmin``
    on their diagonal, the rhs ``∓ieq``.  ``ieq`` sums the frame's own
    terms, ``gm`` times the gate drive and ``gds`` times the channel
    drop, so it is as well conditioned as the per-device stamp.
    """
    gm_d = gm * a_is_drain  # gm when d is the frame's a terminal
    gm_s = gm - gm_d  # gm when s is
    g_g = gm_d - gm_s
    g_d = gds + gm_s
    g_s = gds + gm_d  # -G_s
    ieq = (np.where(a_is_drain, i_ab, -i_ab) - gm_d * (vg - vs)
           + gm_s * (vg - vd) - gds * (vd - vs))
    return np.concatenate((g_g, g_d + gmin, -g_s, -g_g, -g_d, g_s + gmin,
                           -ieq, ieq), axis=-1)


# ----------------------------------------------------------------------
# Lockstep Newton
# ----------------------------------------------------------------------

def newton_solve_batch(batch, a_base, rhs_base, x0, sample_idx=None,
                       gmin=1e-12, max_iter=120, vtol=1e-6, damping=0.8):
    """Damped exact Newton over a stack of MNA systems in lockstep.

    ``a_base``/``rhs_base`` are ``(m, n, n)``/``(m, n)`` stacks of the
    x-independent contributions; ``x0`` is the ``(m, n)`` start state.
    Each iteration stamps all still-active samples and performs one
    stacked ``np.linalg.solve``; samples whose voltage step drops below
    ``vtol`` leave the active set (their state is frozen at the accepted
    solution).  Returns ``(x, converged)`` — unlike the scalar solver
    this never raises on non-convergence, so the caller can escalate
    (gmin ladder) for the failed subset only.  Samples with singular
    matrices are reported as non-converged.
    """
    if sample_idx is None:
        sample_idx = np.arange(np.asarray(x0).shape[0])
    sample_idx = np.asarray(sample_idx, dtype=int)
    x = np.array(x0, dtype=float)
    m = x.shape[0]
    n_nodes = batch.n_nodes
    stats = current_stats()
    stats.count("newton_solves", m)
    # Per-sample iteration ledger: a sample pays for every iteration it
    # stays in the active set, so chunk effort can be re-attributed to
    # the individual tasks the chunk packs together.
    sample_iters = np.zeros(m, dtype=int)
    start = _time.perf_counter()
    converged = np.zeros(m, dtype=bool)
    # The active stack: the rows still iterating, their state, bases and
    # device parameters.  It is compacted when rows leave, so iterations
    # gather nothing.  Its base carries the gmin diagonal on node rows,
    # which guards against floating nodes.
    active = np.arange(m)
    xa = x
    a_act = a_base + gmin * batch.node_eye
    rhs_act = rhs_base
    params = batch.mos_params[:, sample_idx]
    for iteration in range(1, max_iter + 1):
        a, rhs = batch.stamp_mosfets(xa, a_act, rhs_act, params, gmin)
        singular = None
        try:
            # rhs needs an explicit trailing axis: (k, n) alone would be
            # read as one matrix by the (m,m),(m,n) gufunc signature.
            x_new = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One singular sample poisons the stacked solve; fall back to
            # per-sample solves for this iteration and quarantine them.
            x_new = xa.copy()
            singular = np.zeros(len(xa), dtype=bool)
            for j in range(len(xa)):
                try:
                    x_new[j] = np.linalg.solve(a[j], rhs[j])
                except np.linalg.LinAlgError:
                    singular[j] = True
        dx = x_new - xa
        vstep = np.abs(dx[:, :n_nodes]).max(axis=1)
        over = vstep > damping
        if over.any():
            dx[over] *= (damping / vstep[over])[:, None]
        xa += dx
        leave = vstep <= vtol  # quarantined rows too: they did not move
        if leave.any():
            gone = active[leave]
            x[gone] = xa[leave]
            sample_iters[gone] = iteration
            converged[gone] = True
            if singular is not None:
                converged[active[singular]] = False
            if gone.size == active.size:
                break
            keep = ~leave
            active, xa, a_act, rhs_act = (
                active[keep], xa[keep], a_act[keep], rhs_act[keep])
            params = params[:, keep]
    else:
        x[active] = xa
        sample_iters[active] = max_iter
    stats.count("newton_iterations", int(sample_iters.sum()))
    stats.add_phase("newton", _time.perf_counter() - start)
    stats.count_rows(sample_idx, sample_iters)
    return x, converged


def gmin_ladder_batch(batch, a_base, rhs_base, x0, sample_idx, gmin,
                      start_gmin=1e-3):
    """gmin continuation for a subset of samples that failed plain Newton.

    The stacked form of :func:`repro.spice.mna.gmin_continuation_solve`:
    walk gmin from ``start_gmin`` down to the target in decade steps,
    keeping each rung's solution only for the samples that converged on
    it, then solve at the target gmin.  All array arguments are already
    restricted to the failing subset; ``sample_idx`` maps them back to
    population rows.  Returns that final solve's ``(x, converged)``.
    """
    x = np.array(x0, dtype=float)
    stats = current_stats()
    # One ladder escalation per failing sample, as one
    # gmin_continuation_solve call books one.
    stats.count("ladder_retries", int(x.shape[0]))
    with stats.phase("ladder"):
        step_gmin = start_gmin
        while step_gmin >= gmin * 0.999:
            x_try, conv = newton_solve_batch(
                batch, a_base, rhs_base, x, sample_idx=sample_idx,
                gmin=step_gmin)
            x[conv] = x_try[conv]
            step_gmin *= 0.1
        return newton_solve_batch(batch, a_base, rhs_base, x,
                                  sample_idx=sample_idx, gmin=gmin)


def solve_dc_batch(batch, t=0.0, x0=None, gmin=1e-12):
    """Batched DC operating point with gmin-continuation fallback."""
    rhs = np.zeros((batch.n_samples, batch.n))
    batch.source_rhs(t, rhs)
    a_base = batch.a_static
    if x0 is None:
        x0 = np.zeros((batch.n_samples, batch.n))
    else:
        x0 = np.array(x0, dtype=float)
    x, conv = newton_solve_batch(batch, a_base, rhs, x0, gmin=gmin)
    if conv.all():
        return x
    bad = np.flatnonzero(~conv)
    x[bad], conv[bad] = gmin_ladder_batch(batch, a_base[bad], rhs[bad],
                                          x0[bad], bad, gmin)
    if not conv.all():
        raise ConvergenceError(
            "batched Newton failed to converge for {} of {} samples"
            .format(int(np.count_nonzero(~conv)), bad.size), time=t)
    return x
