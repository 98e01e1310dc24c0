"""Level-1 (Shichman-Hodges) MOSFET model.

The device evaluates a quadratic I-V characteristic with channel-length
modulation applied in both triode and saturation (which keeps the output
conductance continuous across the boundary — important for Newton).  Dynamic
behaviour is modelled with lumped, constant terminal capacitances derived
from the device geometry; they are materialised as ordinary linear
capacitors by the MNA compiler.

Body effect is intentionally omitted: the cells built by :mod:`repro.cells`
tie bulks to the rails and the pulse-dampening physics studied by the paper
does not depend on it.
"""

import numpy as np

from .elements import Element
from .errors import NetlistError

NMOS = "nmos"
PMOS = "pmos"


class MosfetParams:
    """Electrical parameters of a single device instance.

    Parameters
    ----------
    kp:
        Transconductance parameter (A/V^2), i.e. ``mu * Cox``.
    vt:
        Threshold voltage magnitude (positive for both polarities).
    lam:
        Channel-length modulation (1/V).
    cgs, cgd, cdb, csb:
        Lumped terminal capacitances (F).  Gate capacitances default to a
        split of ``cox_per_area * W * L`` when built by the cell library.
    """

    __slots__ = ("kp", "vt", "lam", "cgs", "cgd", "cdb", "csb")

    def __init__(self, kp, vt, lam=0.0, cgs=0.0, cgd=0.0, cdb=0.0, csb=0.0):
        if kp <= 0.0:
            raise NetlistError("kp must be positive")
        if vt <= 0.0:
            raise NetlistError("vt magnitude must be positive")
        self.kp = float(kp)
        self.vt = float(vt)
        self.lam = float(lam)
        self.cgs = float(cgs)
        self.cgd = float(cgd)
        self.cdb = float(cdb)
        self.csb = float(csb)

    def copy(self):
        return MosfetParams(self.kp, self.vt, self.lam,
                            self.cgs, self.cgd, self.cdb, self.csb)

    def __repr__(self):
        return ("MosfetParams(kp={:.3e}, vt={:.3f}, lam={:.3f})"
                .format(self.kp, self.vt, self.lam))


class Mosfet(Element):
    """Four-terminal MOSFET (drain, gate, source, bulk)."""

    TERMINALS = ("d", "g", "s", "b")

    def __init__(self, name, d, g, s, b, polarity, width, length, params):
        super().__init__(name, d, g, s, b)
        if polarity not in (NMOS, PMOS):
            raise NetlistError(
                "polarity must be 'nmos' or 'pmos', got {!r}".format(polarity))
        if width <= 0 or length <= 0:
            raise NetlistError("W and L must be positive")
        if not isinstance(params, MosfetParams):
            raise NetlistError("params must be a MosfetParams")
        self.polarity = polarity
        self.width = float(width)
        self.length = float(length)
        self.params = params

    @property
    def beta(self):
        """Device transconductance factor ``kp * W / L`` (A/V^2)."""
        return self.params.kp * self.width / self.length

    @property
    def sign(self):
        """+1 for NMOS, -1 for PMOS (voltage/current transform)."""
        return 1.0 if self.polarity == NMOS else -1.0

    def intrinsic_capacitors(self):
        """Lumped caps as ``(suffix, node_a, node_b, value)`` tuples."""
        p = self.params
        t = self.terminals
        caps = [("cgs", t["g"], t["s"], p.cgs),
                ("cgd", t["g"], t["d"], p.cgd),
                ("cdb", t["d"], t["b"], p.cdb),
                ("csb", t["s"], t["b"], p.csb)]
        return [c for c in caps if c[3] > 0.0]


def evaluate_level1(vd, vg, vs, sign, beta, vt, lam):
    """Vectorised level-1 evaluation.

    All arguments are broadcastable arrays; ``sign`` is +1 (NMOS) or -1
    (PMOS).  Returns ``(i_ab, gm, gds, a_is_drain)`` where ``i_ab`` is the
    physical current flowing from terminal *a* to terminal *b* in the
    source/drain-swapped frame, ``a_is_drain`` says whether *a* is the
    device's nominal drain terminal, and ``gm``/``gds`` are the (physical)
    small-signal derivatives w.r.t. ``v_g - v_b`` and ``v_a - v_b``.
    """
    vd = np.asarray(vd, dtype=float)
    vg = np.asarray(vg, dtype=float)
    vs = np.asarray(vs, dtype=float)

    # Transform to an NMOS-like frame.
    tvd = sign * vd
    tvg = sign * vg
    tvs = sign * vs

    # Source/drain swap so vds >= 0 in the transformed frame.
    a_is_drain = tvd >= tvs
    tva = np.where(a_is_drain, tvd, tvs)
    tvb = np.where(a_is_drain, tvs, tvd)

    vgs = tvg - tvb
    vds = tva - tvb
    vov = vgs - vt

    cutoff = vov <= 0.0
    sat = np.logical_and(~cutoff, vds >= vov)
    triode = np.logical_and(~cutoff, ~sat)

    clm = 1.0 + lam * vds
    ids = np.zeros_like(vds)
    gm = np.zeros_like(vds)
    gds = np.zeros_like(vds)

    # Saturation.
    if np.any(sat):
        vov_s = np.where(sat, vov, 0.0)
        ids = np.where(sat, 0.5 * beta * vov_s ** 2 * clm, ids)
        gm = np.where(sat, beta * vov_s * clm, gm)
        gds = np.where(sat, 0.5 * beta * vov_s ** 2 * lam, gds)

    # Triode.
    if np.any(triode):
        core = vov * vds - 0.5 * vds ** 2
        ids = np.where(triode, beta * core * clm, ids)
        gm = np.where(triode, beta * vds * clm, gm)
        gds = np.where(
            triode, beta * ((vov - vds) * clm + lam * core), gds)

    # Physical current from a to b carries the polarity sign; the
    # derivatives are sign-free because voltages transform with the same
    # sign (see DESIGN.md / model notes).
    i_ab = sign * ids
    return i_ab, gm, gds, a_is_drain


def evaluate_level1_fast(vd, vg, vs, sign, beta, vt, lam):
    """Branchless :func:`evaluate_level1`, the lockstep Newton's kernel.

    Same physics, fewer numpy kernels: the three regions collapse into
    one expression by clamping the overdrive at cutoff
    (``vov = max(vgs - vt, 0)``) and clipping the channel drop at
    pinch-off (``vdse = min(vds, vov)``), which reproduces each region's
    formula exactly — saturation is triode evaluated at ``vds = vov``.
    Results agree with the masked reference to rounding order
    (machine-epsilon-level, far inside every solver tolerance).
    Arguments must already be float arrays.
    """
    tvd = sign * vd
    tvg = sign * vg
    tvs = sign * vs
    a_is_drain = tvd >= tvs
    tva = np.maximum(tvd, tvs)
    tvb = np.minimum(tvd, tvs)
    vds = tva - tvb
    vov = np.maximum((tvg - tvb) - vt, 0.0)
    vdse = np.minimum(vds, vov)
    clm = 1.0 + lam * vds
    half = vov - 0.5 * vdse
    ids = beta * half * vdse * clm
    gm = beta * vdse * clm
    gds = beta * (vov - vdse) * clm + lam * beta * half * vdse
    return sign * ids, gm, gds, a_is_drain
