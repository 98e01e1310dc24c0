"""Modified nodal analysis compiler and the one-circuit DC Newton.

The compiler resolves a symbolic :class:`~repro.spice.netlist.Circuit` into
dense numpy structures:

* static linear conductance matrix (resistors),
* voltage-source incidence columns/rows,
* capacitor terminal index arrays (MOSFET intrinsic caps are materialised
  here),
* MOSFET terminal index arrays plus per-device parameter vectors so the
  nonlinear evaluation is a single vectorised call per Newton iteration.

:class:`~repro.spice.batch.BatchCompiledCircuit` stacks these per circuit
of a population, and every transient runs on its lockstep Newton.  The
damped exact Newton here (:func:`newton_solve`, with the gmin ladder of
:func:`gmin_continuation_solve`) is the one-circuit DC solve behind
:func:`repro.spice.dcop.operating_point` and
:func:`repro.spice.dcop.dc_residual`.

The unknown vector is ``x = [node voltages..., vsource branch currents...]``.
Ground is index ``-1`` and is handled by appending a pinned 0.0 entry when
gathering voltages and by masking stamps that land on it.
"""

import time as _time

import numpy as np
# Nothing in the package calls these LAPACK bindings; the benchmark
# tracer (benchmarks/e2e/spans.py) still names both.
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

from ..runtime.stats import current_stats
from .elements import Capacitor, CurrentSource, Resistor, VoltageSource
from .errors import ConvergenceError, NetlistError
from .mosfet import Mosfet, evaluate_level1, evaluate_level1_fast
from .netlist import is_ground

#: companion-base variants kept per compiled circuit (adaptive stepping
#: revisits a handful of step sizes)
_COMPANION_CACHE_MAX = 8


class CompiledCircuit:
    """A circuit lowered to numeric form, ready for analysis."""

    def __init__(self, circuit):
        self.circuit = circuit
        self.node_index = {}
        order = circuit.nodes()
        for i, node in enumerate(order):
            self.node_index[node] = i
        self.node_order = order
        self.n_nodes = len(order)

        self.vsources = circuit.elements(VoltageSource)
        self.isources = circuit.elements(CurrentSource)
        self.n_vsrc = len(self.vsources)
        self.n = self.n_nodes + self.n_vsrc

        if self.n_nodes == 0:
            raise NetlistError("circuit has no non-ground nodes")

        self._build_static(circuit)
        self._build_caps(circuit)
        self._build_mosfets(circuit)
        self._companion_cache = {}

    # ------------------------------------------------------------------

    def topology(self):
        """What every row of a lockstep population must share, as a
        hashable value: the node order and the incidence of every
        source, capacitor and MOSFET (with its polarity).  Element
        values may differ between rows; a capacitor of zero value is no
        capacitor, so values can change the topology too."""
        return (tuple(self.node_order), self.n_vsrc) + tuple(
            part.tobytes() for part in (
                self.cap_p, self.cap_n, self.mos_d, self.mos_g, self.mos_s,
                self.mos_sign, self.isrc_p, self.isrc_n))

    def index_of(self, node):
        """Matrix index of ``node`` (-1 for ground)."""
        if is_ground(node):
            return -1
        try:
            return self.node_index[node]
        except KeyError:
            raise NetlistError("unknown node {!r}".format(node))

    # ------------------------------------------------------------------

    def _build_static(self, circuit):
        n = self.n
        a_static = np.zeros((n, n))

        for res in circuit.elements(Resistor):
            g = res.conductance
            p = self.index_of(res.node("p"))
            q = self.index_of(res.node("n"))
            if p >= 0:
                a_static[p, p] += g
            if q >= 0:
                a_static[q, q] += g
            if p >= 0 and q >= 0:
                a_static[p, q] -= g
                a_static[q, p] -= g

        for k, src in enumerate(self.vsources):
            row = self.n_nodes + k
            p = self.index_of(src.node("p"))
            q = self.index_of(src.node("n"))
            if p >= 0:
                a_static[row, p] += 1.0
                a_static[p, row] += 1.0
            if q >= 0:
                a_static[row, q] -= 1.0
                a_static[q, row] -= 1.0

        self.a_static = a_static

        # Current-source incidence (value applied at solve time).
        self.isrc_p = np.array(
            [self.index_of(s.node("p")) for s in self.isources], dtype=int)
        self.isrc_n = np.array(
            [self.index_of(s.node("n")) for s in self.isources], dtype=int)

    def _build_caps(self, circuit):
        cap_p, cap_n, cap_c = [], [], []
        self.cap_names = []
        for cap in circuit.elements(Capacitor):
            if cap.capacitance <= 0.0:
                continue
            cap_p.append(self.index_of(cap.node("p")))
            cap_n.append(self.index_of(cap.node("n")))
            cap_c.append(cap.capacitance)
            self.cap_names.append(cap.name)
        # MOSFET intrinsic capacitances become anonymous linear caps.
        for mos in circuit.elements(Mosfet):
            for suffix, node_a, node_b, value in mos.intrinsic_capacitors():
                cap_p.append(self.index_of(node_a))
                cap_n.append(self.index_of(node_b))
                cap_c.append(value)
                self.cap_names.append("{}.{}".format(mos.name, suffix))
        self.cap_p = np.array(cap_p, dtype=int)
        self.cap_n = np.array(cap_n, dtype=int)
        self.cap_c = np.array(cap_c, dtype=float)
        self.n_caps = len(cap_c)

    def _build_mosfets(self, circuit):
        mosfets = circuit.elements(Mosfet)
        self.mosfets = mosfets
        self.mos_d = np.array(
            [self.index_of(m.node("d")) for m in mosfets], dtype=int)
        self.mos_g = np.array(
            [self.index_of(m.node("g")) for m in mosfets], dtype=int)
        self.mos_s = np.array(
            [self.index_of(m.node("s")) for m in mosfets], dtype=int)
        self.mos_sign = np.array([m.sign for m in mosfets])
        self.mos_beta = np.array([m.beta for m in mosfets])
        self.mos_vt = np.array([m.params.vt for m in mosfets])
        self.mos_lam = np.array([m.params.lam for m in mosfets])
        self.n_mos = len(mosfets)

    # ------------------------------------------------------------------
    # Assembly helpers
    # ------------------------------------------------------------------

    def gather_voltages(self, x):
        """Node voltages with a trailing pinned 0.0 for ground (index -1)."""
        v = np.empty(self.n_nodes + 1)
        v[:self.n_nodes] = x[:self.n_nodes]
        v[-1] = 0.0
        return v

    def cap_companion_matrix(self, geq_scale):
        """Constant companion-conductance matrix for caps, ``geq = C*scale``.

        ``geq_scale`` is ``1/h`` for backward Euler or ``2/h`` for TRAP.
        """
        a = np.zeros((self.n, self.n))
        if self.n_caps == 0:
            return a
        geq = self.cap_c * geq_scale
        p, q = self.cap_p, self.cap_n
        mp, mq = p >= 0, q >= 0
        np.add.at(a, (p[mp], p[mp]), geq[mp])
        np.add.at(a, (q[mq], q[mq]), geq[mq])
        both = np.logical_and(mp, mq)
        np.add.at(a, (p[both], q[both]), -geq[both])
        np.add.at(a, (q[both], p[both]), -geq[both])
        return a

    def companion_base(self, scheme, geq_scale):
        """``a_static + cap_companion_matrix(geq_scale)``, cached.

        Keyed per ``(scheme, geq_scale)``; the returned array is shared
        and marked read-only.  Transients use the stacked mirror,
        :meth:`repro.spice.batch.BatchCompiledCircuit.companion_base`;
        nothing in the package calls this one, which the benchmark
        tracer still names.
        """
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
        """Voltage across each capacitor (p - n) for state ``x``."""
        if self.n_caps == 0:
            return np.zeros(0)
        v = self.gather_voltages(x)
        return v[self.cap_p] - v[self.cap_n]

    def source_rhs(self, t, rhs):
        """Add independent-source contributions at time ``t`` into ``rhs``."""
        for k, src in enumerate(self.vsources):
            rhs[self.n_nodes + k] += src.stimulus.value_at(t)
        for k, src in enumerate(self.isources):
            value = src.stimulus.value_at(t)
            p, q = self.isrc_p[k], self.isrc_n[k]
            if p >= 0:
                rhs[p] -= value
            if q >= 0:
                rhs[q] += value

    def stamp_mosfets(self, x, a, rhs, gmin=1e-12):
        """Linearise every MOSFET around ``x`` and stamp into ``a``/``rhs``."""
        if self.n_mos == 0:
            return
        v = self.gather_voltages(x)
        vd = v[self.mos_d]
        vg = v[self.mos_g]
        vs = v[self.mos_s]

        i_ab, gm, gds, a_is_drain = evaluate_level1(
            vd, vg, vs, self.mos_sign, self.mos_beta,
            self.mos_vt, self.mos_lam)

        node_a = np.where(a_is_drain, self.mos_d, self.mos_s)
        node_b = np.where(a_is_drain, self.mos_s, self.mos_d)
        va = np.where(a_is_drain, vd, vs)
        vb = np.where(a_is_drain, vs, vd)

        # Norton equivalent: I_ab = Ieq + gm*(vg - vb) + gds*(va - vb)
        ieq = i_ab - gm * (vg - vb) - gds * (va - vb)

        ia, ib, ig = node_a, node_b, self.mos_g
        ma, mb, mg = ia >= 0, ib >= 0, ig >= 0

        def stamp(rows, cols, vals, mask):
            if np.any(mask):
                np.add.at(a, (rows[mask], cols[mask]), vals[mask])

        # Row a: +gm*vg + gds*va - (gm+gds)*vb
        stamp(ia, ig, gm, np.logical_and(ma, mg))
        stamp(ia, ia, gds + gmin, ma)
        stamp(ia, ib, -(gm + gds), np.logical_and(ma, mb))
        # Row b: mirror
        stamp(ib, ig, -gm, np.logical_and(mb, mg))
        stamp(ib, ia, -gds, np.logical_and(mb, ma))
        stamp(ib, ib, gm + gds + gmin, mb)

        if np.any(ma):
            np.add.at(rhs, ia[ma], -ieq[ma])
        if np.any(mb):
            np.add.at(rhs, ib[mb], ieq[mb])

    def mosfet_currents(self, x):
        """Drain current of each MOSFET (positive into the drain) at ``x``."""
        if self.n_mos == 0:
            return np.zeros(0)
        v = self.gather_voltages(x)
        i_ab, _, _, a_is_drain = evaluate_level1(
            v[self.mos_d], v[self.mos_g], v[self.mos_s],
            self.mos_sign, self.mos_beta, self.mos_vt, self.mos_lam)
        # i_ab flows a -> b; when a is the drain, drain current = +i_ab.
        return np.where(a_is_drain, i_ab, -i_ab)

    # ------------------------------------------------------------------
    # Device-cache helpers of the removed factorization-reuse Newton.
    # Nothing in the package calls them; the benchmark tracer
    # (benchmarks/e2e/spans.py) still names all three.
    # ------------------------------------------------------------------

    def refresh_device_cache(self, x, state, force_exact=False):
        """Update ``state``'s per-device linearisation cache around ``x``.

        Devices whose terminal voltages all moved less than
        ``state.bypass_tol`` since their last evaluation keep their
        cached ``(i_ab, gm, gds, a_is_drain)``; only the moved subset is
        re-evaluated (``force_exact`` re-evaluates everything).  Returns
        the number of devices bypassed.
        """
        if self.n_mos == 0:
            return 0
        v = self.gather_voltages(x)
        vd = v[self.mos_d]
        vg = v[self.mos_g]
        vs = v[self.mos_s]
        full = force_exact or state.dev_vd is None
        if not full:
            tol = state.bypass_tol
            moved = np.abs(vd - state.dev_vd) > tol
            np.logical_or(moved, np.abs(vg - state.dev_vg) > tol,
                          out=moved)
            np.logical_or(moved, np.abs(vs - state.dev_vs) > tol,
                          out=moved)
            n_moved = int(np.count_nonzero(moved))
            if n_moved == self.n_mos:
                full = True  # everything moved: vectorised full pass
        if full:
            (state.dev_i, state.dev_gm, state.dev_gds,
             state.dev_a_is_drain) = evaluate_level1_fast(
                vd, vg, vs, self.mos_sign, self.mos_beta,
                self.mos_vt, self.mos_lam)
            state.dev_vd, state.dev_vg, state.dev_vs = vd, vg, vs
            aid = state.dev_a_is_drain
            state.node_ab = np.concatenate(
                (np.where(aid, self.mos_d, self.mos_s),
                 np.where(aid, self.mos_s, self.mos_d)))
            return 0
        if n_moved:
            idx = np.flatnonzero(moved)
            i_ab, gm, gds, a_is_drain = evaluate_level1_fast(
                vd[idx], vg[idx], vs[idx], self.mos_sign[idx],
                self.mos_beta[idx], self.mos_vt[idx], self.mos_lam[idx])
            state.dev_i[idx] = i_ab
            state.dev_gm[idx] = gm
            state.dev_gds[idx] = gds
            state.dev_a_is_drain[idx] = a_is_drain
            state.dev_vd[idx] = vd[idx]
            state.dev_vg[idx] = vg[idx]
            state.dev_vs[idx] = vs[idx]
            state.node_ab[idx] = np.where(a_is_drain, self.mos_d[idx],
                                          self.mos_s[idx])
            state.node_ab[idx + self.n_mos] = np.where(
                a_is_drain, self.mos_s[idx], self.mos_d[idx])
        return self.n_mos - n_moved

    def stamp_jacobian_from_cache(self, a, state, gmin=1e-12):
        """Stamp the small-signal (matrix-only) part of every MOSFET from
        ``state``'s cached linearisation — same entries
        :meth:`stamp_mosfets` writes, without re-evaluating devices."""
        if self.n_mos == 0:
            return
        gm, gds = state.dev_gm, state.dev_gds
        ia = state.node_ab[:self.n_mos]
        ib = state.node_ab[self.n_mos:]
        ig = self.mos_g
        ma, mb, mg = ia >= 0, ib >= 0, ig >= 0

        def stamp(rows, cols, vals, mask):
            if np.any(mask):
                np.add.at(a, (rows[mask], cols[mask]), vals[mask])

        stamp(ia, ig, gm, np.logical_and(ma, mg))
        stamp(ia, ia, gds + gmin, ma)
        stamp(ia, ib, -(gm + gds), np.logical_and(ma, mb))
        stamp(ib, ig, -gm, np.logical_and(mb, mg))
        stamp(ib, ia, -gds, np.logical_and(mb, ma))
        stamp(ib, ib, gm + gds + gmin, mb)

    def residual_from_cache(self, x, a_base, rhs_base, state, gmin=1e-12):
        """KCL residual ``F(x)`` of the stamped system at ``x``.

        Device currents come from ``state``'s cache (exact when the cache
        was refreshed at ``x``; within ``(gm+gds)*bypass_tol`` for
        bypassed devices).  Row conventions match :meth:`stamp_mosfets`:
        ``F = A(x)·x - rhs`` of the exact Norton-stamped system, so a
        Newton step is ``dx = -J⁻¹ F``.
        """
        n = self.n
        f = np.empty(n + 1)
        np.matmul(a_base, x, out=f[:n])
        f[:n] -= rhs_base
        n_nodes = self.n_nodes
        f[:n_nodes] += gmin * x[:n_nodes]
        # trailing slot is a discard bin: ground stamps (index -1) land
        # there and are dropped with the final slice, mask-free
        f[n] = 0.0
        if self.n_mos:
            v = self.gather_voltages(x)
            nm = self.n_mos
            contrib = np.empty(2 * nm)
            contrib[:nm] = state.dev_i
            np.negative(state.dev_i, out=contrib[nm:])
            contrib += gmin * v[state.node_ab]
            np.add.at(f, state.node_ab, contrib)
        return f[:n]

def newton_solve(compiled, a_base, rhs_base, x0, gmin=1e-12,
                 max_iter=120, vtol=1e-6, damping=0.8, time=None):
    """Solve the nonlinear MNA system ``F(x) = 0`` by damped Newton.

    ``a_base``/``rhs_base`` hold every contribution that does not depend on
    ``x`` (linear elements, sources, capacitor companions).  Returns the
    converged solution.
    """
    x = np.array(x0, dtype=float)
    n_nodes = compiled.n_nodes
    stats = current_stats()
    stats.count("newton_solves")
    iterations = 0
    start = _time.perf_counter()
    last_step = None
    try:
        for iteration in range(max_iter):
            iterations += 1
            a = a_base.copy()
            rhs = rhs_base.copy()
            compiled.stamp_mosfets(x, a, rhs, gmin=gmin)
            # Diagonal gmin on node rows guards against floating nodes.
            idx = np.arange(n_nodes)
            a[idx, idx] += gmin
            try:
                x_new = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                raise ConvergenceError(
                    "singular MNA matrix", iterations=iteration, time=time)
            dx = x_new - x
            # Limit voltage updates to keep the quadratic model honest.
            vstep = np.abs(dx[:n_nodes]).max() if n_nodes else 0.0
            # Report the *undamped* Newton step on failure: the damped
            # value used to masquerade as the residual and made every
            # diverging solve look like it stopped at ``damping``.
            last_step = vstep
            if vstep > damping:
                dx *= damping / vstep
            x = x + dx
            if vstep <= vtol:
                return x
        raise ConvergenceError(
            "Newton failed to converge", iterations=iterations,
            residual=0.0 if last_step is None else float(last_step),
            time=time)
    finally:
        # Book iterations even on the failure path — diverging solves
        # are exactly the effort test-time tuning needs to see.
        stats.count("newton_iterations", iterations)
        stats.add_phase("newton", _time.perf_counter() - start)


def gmin_continuation_solve(compiled, a_base, rhs_base, x0, gmin=1e-12,
                            time=None, start_gmin=1e-3):
    """Newton with a gmin-continuation ladder (for hard operating points).

    Walks gmin from ``start_gmin`` down to the target in decade steps; a
    rung that fails to converge is *skipped* (the ladder continues from
    the last converged iterate) instead of aborting the whole analysis.
    The final solve at the target gmin must converge or
    :class:`ConvergenceError` propagates.
    """
    x = np.array(x0, dtype=float)
    stats = current_stats()
    stats.count("ladder_retries")
    with stats.phase("ladder"):
        step_gmin = start_gmin
        while step_gmin >= gmin * 0.999:
            try:
                x = newton_solve(compiled, a_base, rhs_base, x,
                                 gmin=step_gmin, time=time)
            except ConvergenceError:
                # A failed rung keeps the previous iterate; the next
                # (lighter or target) rung may still pull it in.
                pass
            step_gmin *= 0.1
        return newton_solve(compiled, a_base, rhs_base, x, gmin=gmin,
                            time=time)
