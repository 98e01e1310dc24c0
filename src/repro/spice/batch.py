"""Batched population lowering and lockstep Newton solves.

Every Monte Carlo experiment in the paper evaluates a population of
*topologically identical* circuits: only the parameter draws (device
betas, thresholds, capacitances) and the injected fault resistance differ
between samples.  :class:`BatchCompiledCircuit` lowers such a population
into stacked numpy arrays — ``(S, n, n)`` base matrices, ``(S, n_mos)``
device-parameter vectors, ``(S, n_caps)`` capacitor vectors — so an
entire population advances through a transient in lockstep:

* assembly uses *precomputed flat stamp-index maps*: every MOSFET Norton
  stamp and capacitor companion entry knows its flattened ``row*n + col``
  destination up front (entries touching ground are routed to a discard
  bin), so per-iteration assembly is one ``np.bincount`` over the whole
  batch instead of per-element ``np.add.at`` scatters;
* each Newton iteration re-stamps every still-active sample and
  performs ONE stacked ``np.linalg.solve`` over them; converged samples
  drop out of the batch via a per-sample active mask
  (:func:`newton_solve_batch`).

The lockstep Newton is exact Newton: it keeps no factorization and
bypasses no device between iterations.  Factorization reuse, which pays
off for one circuit (:mod:`repro.spice.mna`), needs about twice the
iterations in lockstep and a per-row LAPACK loop, and lost to the
stacked exact solve at every population size measured.  The scalar
engine remains the reference implementation; the equivalence suite pins
the batched waveforms to it within 1e-6 V.
"""

import time as _time

import numpy as np

from ..runtime.stats import current_stats
from .errors import ConvergenceError, NetlistError
from .mna import _COMPANION_CACHE_MAX, CompiledCircuit
from .mosfet import evaluate_level1, evaluate_level1_fast


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
        for k, other in enumerate(compiled[1:], start=1):
            self._check_topology(template, other, k)

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
        self.mos_beta = np.stack([c.mos_beta for c in compiled])
        self.mos_vt = np.stack([c.mos_vt for c in compiled])
        self.mos_lam = np.stack([c.mos_lam for c in compiled])
        self.n_mos = template.n_mos

        self._build_stamp_maps()
        self._build_cap_maps()
        self._build_isrc_incidence()
        self._companion_cache = {}

    # ------------------------------------------------------------------

    @staticmethod
    def _check_topology(template, other, index):
        same = (other.n == template.n
                and other.n_nodes == template.n_nodes
                and other.node_order == template.node_order
                and np.array_equal(other.cap_p, template.cap_p)
                and np.array_equal(other.cap_n, template.cap_n)
                and np.array_equal(other.mos_d, template.mos_d)
                and np.array_equal(other.mos_g, template.mos_g)
                and np.array_equal(other.mos_s, template.mos_s)
                and np.array_equal(other.mos_sign, template.mos_sign)
                and np.array_equal(other.isrc_p, template.isrc_p)
                and np.array_equal(other.isrc_n, template.isrc_n)
                and len(other.vsources) == len(template.vsources))
        if not same:
            raise NetlistError(
                "sample {} is not topologically identical to sample 0; "
                "batched lowering needs a structurally uniform population"
                .format(index))

    def index_of(self, node):
        return self.template.index_of(node)

    # ------------------------------------------------------------------
    # Flat stamp-index maps
    # ------------------------------------------------------------------

    def _flat_mat(self, rows, cols):
        """Flattened ``row*n + col`` destinations; ground entries are
        routed to the discard bin ``n*n``."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        valid = np.logical_and(rows >= 0, cols >= 0)
        return np.where(valid, rows * self.n + cols, self.n * self.n)

    def _build_stamp_maps(self):
        """Matrix/rhs destinations for both source/drain orientations.

        The level-1 evaluation swaps source and drain per device so that
        ``vds >= 0``; which orientation applies depends on the operating
        point, so both index tables are precomputed and selected per
        iteration with the ``a_is_drain`` flag.
        """
        d, g, s = self.mos_d, self.mos_g, self.mos_s
        self._mos_mat_idx = {}
        self._mos_rhs_idx = {}
        for key, (a_idx, b_idx) in (("d", (d, s)), ("s", (s, d))):
            # Column order matches the value stack in stamp_mosfets:
            # (a,g)+gm  (a,a)+gds+gmin  (a,b)-(gm+gds)
            # (b,g)-gm  (b,a)-gds       (b,b)+gm+gds+gmin
            self._mos_mat_idx[key] = np.stack([
                self._flat_mat(a_idx, g),
                self._flat_mat(a_idx, a_idx),
                self._flat_mat(a_idx, b_idx),
                self._flat_mat(b_idx, g),
                self._flat_mat(b_idx, a_idx),
                self._flat_mat(b_idx, b_idx),
            ], axis=-1)
            # rhs rows: a gets -ieq, b gets +ieq; discard bin is n.
            self._mos_rhs_idx[key] = np.stack([
                np.where(a_idx >= 0, a_idx, self.n),
                np.where(b_idx >= 0, b_idx, self.n),
            ], axis=-1)

    def _build_cap_maps(self):
        p, q = self.cap_p, self.cap_n
        self._cap_mat_idx = np.stack([
            self._flat_mat(p, p), self._flat_mat(q, q),
            self._flat_mat(p, q), self._flat_mat(q, p)], axis=-1)
        self._cap_mat_sign = np.array([1.0, 1.0, -1.0, -1.0])
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

    def _scatter_matrix(self, a, idx, vals):
        """Accumulate flat-indexed entries into the ``(m, n, n)`` stack
        ``a``; the per-sample discard bin ``n*n`` is dropped."""
        m = a.shape[0]
        nn1 = self.n * self.n + 1
        offsets = (np.arange(m) * nn1)[:, None]
        idx = idx.reshape(m, -1) if idx.ndim == 3 else idx.reshape(1, -1)
        flat = (idx + offsets).ravel()
        acc = np.bincount(flat, weights=vals.reshape(m, -1).ravel(),
                          minlength=m * nn1)
        a += acc.reshape(m, nn1)[:, :self.n * self.n].reshape(
            m, self.n, self.n)

    def _scatter_rhs(self, rhs, idx, vals):
        m = rhs.shape[0]
        n1 = self.n + 1
        offsets = (np.arange(m) * n1)[:, None]
        idx = idx.reshape(m, -1) if idx.ndim == 3 else idx.reshape(1, -1)
        flat = (idx + offsets).ravel()
        acc = np.bincount(flat, weights=vals.reshape(m, -1).ravel(),
                          minlength=m * n1)
        rhs += acc.reshape(m, n1)[:, :self.n]

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
        """Companion-conductance stack of ``rows``, ``geq = C * scale``."""
        geq = self.cap_c[rows] * geq_scale
        a = np.zeros((len(geq), self.n, self.n))
        if self.n_caps == 0:
            return a
        vals = geq[:, :, None] * self._cap_mat_sign
        self._scatter_matrix(a, self._cap_mat_idx, vals)
        return a

    def companion_base(self, scheme, geq_scale):
        """``a_static + cap_companion_matrix(geq_scale)`` stack, cached
        per ``(scheme, geq_scale)`` — the batched mirror of
        :meth:`repro.spice.mna.CompiledCircuit.companion_base` (shared,
        read-only, identity-stable for LU warm starts)."""
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
        """Add the source contributions at ``t`` of population ``rows``."""
        for j, s in enumerate(range(self.n_samples)[rows]):
            for k, src in enumerate(self._vsources[s]):
                rhs[j, self.n_nodes + k] += src.stimulus.value_at(t)
            for k, src in enumerate(self._isources[s]):
                value = src.stimulus.value_at(t)
                p = self.template.isrc_p[k]
                q = self.template.isrc_n[k]
                if p >= 0:
                    rhs[j, p] -= value
                if q >= 0:
                    rhs[j, q] += value

    def source_tables(self, times):
        """Per-sample stimulus values over the whole time grid.

        Returns ``(vsrc_tab, isrc_tab)`` with shapes ``(S, n_vsrc, T)``
        and ``(S, n_isrc, T)``; precomputing them removes every per-step
        Python loop over sources from the transient hot path.
        """
        times = np.asarray(times, dtype=float)
        vsrc = np.zeros((self.n_samples, self.n_vsrc, times.size))
        for s, sources in enumerate(self._vsources):
            for k, src in enumerate(sources):
                vsrc[s, k] = src.stimulus.values_at(times)
        isrc = np.zeros((self.n_samples, self.n_isrc, times.size))
        for s, sources in enumerate(self._isources):
            for k, src in enumerate(sources):
                isrc[s, k] = src.stimulus.values_at(times)
        return vsrc, isrc

    def stamp_mosfets(self, x, a, rhs, sample_idx=None, gmin=1e-12):
        """Linearise and stamp every MOSFET of every sample in ``x``.

        ``x`` is ``(m, n)``; ``sample_idx`` maps its rows to population
        rows for the device-parameter lookup (default: rows 0..m-1).
        """
        if self.n_mos == 0:
            return
        if sample_idx is None:
            sample_idx = slice(None)
        v = self.gather_voltages(x)
        vd = v[:, self.mos_d]
        vg = v[:, self.mos_g]
        vs = v[:, self.mos_s]

        i_ab, gm, gds, a_is_drain = evaluate_level1(
            vd, vg, vs, self.mos_sign, self.mos_beta[sample_idx],
            self.mos_vt[sample_idx], self.mos_lam[sample_idx])

        va = np.where(a_is_drain, vd, vs)
        vb = np.where(a_is_drain, vs, vd)
        ieq = i_ab - gm * (vg - vb) - gds * (va - vb)

        sel = a_is_drain[:, :, None]
        mat_idx = np.where(sel, self._mos_mat_idx["d"],
                           self._mos_mat_idx["s"])
        mat_vals = np.stack([gm, gds + gmin, -(gm + gds),
                             -gm, -gds, gm + gds + gmin], axis=-1)
        self._scatter_matrix(a, mat_idx, mat_vals)

        rhs_idx = np.where(sel, self._mos_rhs_idx["d"],
                           self._mos_rhs_idx["s"])
        rhs_vals = np.stack([-ieq, ieq], axis=-1)
        self._scatter_rhs(rhs, rhs_idx, rhs_vals)

    # ------------------------------------------------------------------
    # Factorization-reuse helpers (stacked mirrors of CompiledCircuit).
    # Nothing in the package calls them; the benchmark tracer
    # (benchmarks/e2e/spans.py) still names all three.
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
            # same branchless kernel as the scalar fast path, so the
            # two engines' cached linearisations agree bitwise
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

    def stamp_jacobian_from_cache(self, a, state, rows, gmin=1e-12):
        """Stamp the small-signal (matrix-only) MOSFET entries for
        ``rows`` from the cached linearisation into the ``(m, n, n)``
        stack ``a`` — same entries :meth:`stamp_mosfets` writes."""
        if self.n_mos == 0:
            return
        gm = state.dev_gm[rows]
        gds = state.dev_gds[rows]
        sel = state.dev_a_is_drain[rows][:, :, None]
        mat_idx = np.where(sel, self._mos_mat_idx["d"],
                           self._mos_mat_idx["s"])
        mat_vals = np.stack([gm, gds + gmin, -(gm + gds),
                             -gm, -gds, gm + gds + gmin], axis=-1)
        self._scatter_matrix(a, mat_idx, mat_vals)

    def residual_from_cache(self, x, a_base, rhs_base, state, rows,
                            gmin=1e-12):
        """Stacked KCL residual ``F(x)`` of the exact stamped system,
        device currents taken from the cached linearisation (see
        :meth:`repro.spice.mna.CompiledCircuit.residual_from_cache`)."""
        f = (a_base @ x[:, :, None])[:, :, 0] - rhs_base
        n_nodes = self.n_nodes
        f[:, :n_nodes] += gmin * x[:, :n_nodes]
        if self.n_mos:
            v = self.gather_voltages(x)
            aid = state.dev_a_is_drain[rows]
            node_a = np.where(aid, self.mos_d, self.mos_s)
            node_b = np.where(aid, self.mos_s, self.mos_d)
            arange = np.arange(x.shape[0])[:, None]
            va = v[arange, node_a]
            vb = v[arange, node_b]
            i = state.dev_i[rows]
            fa = i + gmin * va
            fb = -i + gmin * vb
            sel = aid[:, :, None]
            rhs_idx = np.where(sel, self._mos_rhs_idx["d"],
                               self._mos_rhs_idx["s"])
            self._scatter_rhs(f, rhs_idx, np.stack([fa, fb], axis=-1))
        return f


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
    singular = np.zeros(m, dtype=bool)
    diag = np.arange(n_nodes)
    active = np.arange(m)
    for _iteration in range(max_iter):
        if active.size == 0:
            break
        sample_iters[active] += 1
        a = a_base[active].copy()
        rhs = rhs_base[active].copy()
        batch.stamp_mosfets(x[active], a, rhs,
                            sample_idx=sample_idx[active], gmin=gmin)
        a[:, diag, diag] += gmin
        try:
            # rhs needs an explicit trailing axis: (k, n) alone would be
            # read as one matrix by the (m,m),(m,n) gufunc signature.
            x_new = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One singular sample poisons the stacked solve; fall back to
            # per-sample solves for this iteration and quarantine them.
            x_new = np.empty_like(rhs)
            for j in range(a.shape[0]):
                try:
                    x_new[j] = np.linalg.solve(a[j], rhs[j])
                except np.linalg.LinAlgError:
                    x_new[j] = x[active[j]]
                    singular[active[j]] = True
        dx = x_new - x[active]
        if n_nodes:
            vstep = np.abs(dx[:, :n_nodes]).max(axis=1)
        else:
            vstep = np.zeros(active.size)
        over = vstep > damping
        if np.any(over):
            dx[over] *= (damping / vstep[over])[:, None]
        x[active] += dx
        done = np.logical_and(vstep <= vtol, ~singular[active])
        converged[active[done]] = True
        active = active[np.logical_and(~done, ~singular[active])]
    stats.count("newton_iterations", int(sample_iters.sum()))
    stats.add_phase("newton", _time.perf_counter() - start)
    stats.count_rows(sample_idx, sample_iters)
    return x, converged


def gmin_ladder_batch(batch, a_base, rhs_base, x0, sample_idx, gmin,
                      start_gmin=1e-3):
    """gmin continuation for a subset of samples that failed plain Newton.

    Mirrors the scalar :func:`repro.spice.mna.gmin_continuation_solve`:
    walk gmin from ``start_gmin`` down to the target in decade steps,
    keeping each rung's solution only for the samples that converged on
    it, then solve at the target gmin.  All array arguments are already
    restricted to the failing subset; ``sample_idx`` maps them back to
    population rows.  Returns that final solve's ``(x, converged)``.
    """
    x = np.array(x0, dtype=float)
    stats = current_stats()
    # One ladder escalation per failing sample, matching the scalar
    # engine's one gmin_continuation_solve call per sample-step.
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
