"""Hypothesis property test of the lockstep MOSFET stamp.

``BatchCompiledCircuit.stamp_mosfets`` scatters every device through one
fixed table whose destinations ignore which terminal acts as the drain;
the orientation rides in the stamped values.  The reference here stamps
device by device, in the orientation the masked level-1 model picks,
with ``np.add.at``.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.spice import BatchCompiledCircuit, Circuit
from repro.spice.mna import CompiledCircuit
from repro.spice.mosfet import MosfetParams, evaluate_level1

GMIN = 1e-12
#: "0" is ground
NODES = ("0", "a", "b", "c")
#: rows of the population
ROWS = 2

devices = st.lists(
    st.tuples(st.sampled_from(["nmos", "pmos"]),
              *[st.sampled_from(NODES)] * 3),
    min_size=1, max_size=6)
# three node voltages and one source current per row, on a nanovolt
# grid: smaller values only add underflow dust to the comparison
states = st.lists(st.floats(min_value=-1.0, max_value=3.5).map(
    lambda v: round(v, 9)), min_size=4 * ROWS, max_size=4 * ROWS)
scales = st.lists(st.floats(min_value=0.5, max_value=2.0),
                  min_size=ROWS, max_size=ROWS)


def _circuit(devices, scale):
    """One row: the devices between the nodes, parameters scaled per
    row, a source on ``a`` and a resistor from every node to ground."""
    c = Circuit()
    c.add_vsource("V1", "a", "0", 1.0)
    for node in NODES[1:]:
        c.add_resistor("R" + node, node, "0", 1e4)
    params = MosfetParams(kp=120e-6 * scale, vt=0.4 + 0.1 * scale,
                          lam=0.05 * scale)
    for k, (kind, d, g, s) in enumerate(devices):
        add = c.add_nmos if kind == "nmos" else c.add_pmos
        add("M{}".format(k), d, g, s, "0", 1e-6 * (k + 1), 0.5e-6, params)
    return c


def _reference_stamp(compiled, x):
    """Per-device Norton stamps of one row at ``x``: ``(a, rhs,
    matrix scale, rhs scale)``, the scales being the largest device
    conductance and the largest term of a device's equivalent current."""
    n = compiled.n
    a, rhs = np.zeros((n, n)), np.zeros(n)
    v = np.append(x[:compiled.n_nodes], 0.0)  # index -1 is ground
    mat_scale = rhs_scale = 0.0
    for k in range(compiled.n_mos):
        d, g, s = compiled.mos_d[k], compiled.mos_g[k], compiled.mos_s[k]
        i_ab, gm, gds, a_is_drain = (float(q) for q in evaluate_level1(
            v[d], v[g], v[s], compiled.mos_sign[k], compiled.mos_beta[k],
            compiled.mos_vt[k], compiled.mos_lam[k]))
        na, nb = (d, s) if a_is_drain else (s, d)
        terms = (i_ab, gm * (v[g] - v[nb]), gds * (v[na] - v[nb]))
        ieq = terms[0] - terms[1] - terms[2]
        for row, col, val in ((na, g, gm), (na, na, gds + GMIN),
                              (na, nb, -(gm + gds)), (nb, g, -gm),
                              (nb, na, -gds), (nb, nb, gm + gds + GMIN)):
            if row >= 0 and col >= 0:
                np.add.at(a, (row, col), val)
        for row, val in ((na, -ieq), (nb, ieq)):
            if row >= 0:
                np.add.at(rhs, row, val)
        mat_scale = max(mat_scale, gm + gds + GMIN)
        rhs_scale = max(rhs_scale, *map(abs, terms))
    return a, rhs, mat_scale, rhs_scale


class TestLockstepStamp:
    # both orientations of an NMOS and of a PMOS, each conducting, with
    # a terminal on ground
    @example(devices=[("nmos", "a", "b", "0"), ("nmos", "0", "b", "a"),
                      ("pmos", "a", "0", "c"), ("pmos", "c", "0", "a")],
             state=[1.5, 2.5, 3.0, 0.0] * ROWS, scale=[1.0, 1.5])
    @given(devices=devices, state=states, scale=scales)
    @settings(max_examples=200, deadline=None)
    def test_stamp_matches_per_device_reference(self, devices, state,
                                                scale):
        circuits = [_circuit(devices, s) for s in scale]
        batch = BatchCompiledCircuit(circuits)
        n = batch.n
        x = np.reshape(state, (ROWS, n))
        a, rhs = batch.stamp_mosfets(x, np.zeros((ROWS, n, n)),
                                     np.zeros((ROWS, n)), batch.mos_params,
                                     gmin=GMIN)
        for row, circuit in enumerate(circuits):
            a_ref, rhs_ref, mat_scale, rhs_scale = _reference_stamp(
                CompiledCircuit(circuit), x[row])
            np.testing.assert_allclose(a[row], a_ref, rtol=0,
                                       atol=1e-12 * mat_scale)
            np.testing.assert_allclose(rhs[row], rhs_ref, rtol=0,
                                       atol=1e-12 * rhs_scale)
