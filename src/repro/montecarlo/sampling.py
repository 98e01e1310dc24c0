"""Parameter-fluctuation sampling (the paper's Monte Carlo population).

Section 4: "a sample S of circuit instances ... has been generated
according to a normal distribution of main circuit parameters with a 10%
standard deviation".  We split the fluctuation into a die-to-die (global)
component applied to the technology and a within-die (local) per-device
component, both normally distributed and truncated at 3 sigma.

Determinism matters: the same instance must be measurable fault-free and
faulty with *identical* device parameters, and instances must be
reproducible across processes.  Per-device factors are therefore derived
from a hash of ``(instance seed, device name)`` rather than from draw
order.
"""

import zlib

import numpy as np

#: technology fields subject to die-to-die fluctuation
GLOBAL_FIELDS = ("kpn", "kpp", "vtn", "vtp", "cox_area", "cov_width",
                 "cj_width", "c_wire")


def _truncated_normal(rng, sigma, size=None):
    """N(1, sigma) truncated to [1 - 3 sigma, 1 + 3 sigma]."""
    draw = rng.normal(1.0, sigma, size=size)
    return np.clip(draw, 1.0 - 3.0 * sigma, 1.0 + 3.0 * sigma)


class VariationModel:
    """One Monte Carlo circuit instance's parameter fluctuations.

    Parameters
    ----------
    seed:
        Instance identity; everything below is a pure function of it.
    sigma_global:
        Die-to-die relative sigma applied to technology fields.
    sigma_local:
        Within-die relative sigma applied per device (kp, vt, caps).
    sigma_timing:
        Relative sigma for auxiliary timing quantities (flip-flop CQ/setup,
        sensing-circuit threshold, clock period) — the "uncertainties" lists
        of Sec. 3.
    """

    def __init__(self, seed, sigma_global=0.05, sigma_local=0.05,
                 sigma_timing=0.03):
        self.seed = int(seed)
        self.sigma_global = float(sigma_global)
        self.sigma_local = float(sigma_local)
        self.sigma_timing = float(sigma_timing)
        rng = np.random.default_rng(self.seed)
        factors = _truncated_normal(rng, self.sigma_global,
                                    size=len(GLOBAL_FIELDS))
        self.global_factors = dict(zip(GLOBAL_FIELDS, factors))
        #: ``{label: factor}`` of :meth:`timing_factor` (private, so the
        #: cache token, which reads public attributes only, ignores it)
        self._timing_factors = {}

    # ------------------------------------------------------------------

    def apply_to_technology(self, tech):
        """Technology with this instance's die-to-die factors applied."""
        if self.sigma_global == 0.0:
            return tech
        return tech.scaled(self.global_factors)

    def _named_rng(self, name):
        token = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng((self.seed << 32) ^ token)

    def device_factors(self, device_name):
        """Within-die (kp, vt, c) factors for one transistor."""
        if self.sigma_local == 0.0:
            return 1.0, 1.0, 1.0
        rng = self._named_rng("dev:" + device_name)
        kp_f, vt_f, c_f = _truncated_normal(rng, self.sigma_local, size=3)
        return float(kp_f), float(vt_f), float(c_f)

    def timing_factor(self, label):
        """Multiplicative fluctuation for a named timing quantity.

        A pure function of the seed and ``label``, drawn once per label
        and instance: a campaign reads each gate's factors once per
        candidate path and Monte Carlo sample.
        """
        if self.sigma_timing == 0.0:
            return 1.0
        factor = self._timing_factors.get(label)
        if factor is None:
            rng = self._named_rng("time:" + label)
            factor = float(_truncated_normal(rng, self.sigma_timing))
            self._timing_factors[label] = factor
        return factor

    def __getstate__(self):
        # the memo stays out of the pickle: a copy (one per pool chunk)
        # draws its own factors, whatever the original has read
        state = dict(self.__dict__)
        state["_timing_factors"] = {}
        return state

    def __repr__(self):
        return ("VariationModel(seed={}, sg={:g}, sl={:g}, st={:g})"
                .format(self.seed, self.sigma_global, self.sigma_local,
                        self.sigma_timing))


class NominalModel(VariationModel):
    """The no-fluctuation instance (all factors exactly 1)."""

    def __init__(self):
        super().__init__(seed=0, sigma_global=0.0, sigma_local=0.0,
                         sigma_timing=0.0)

    def __repr__(self):
        return "NominalModel()"


def sample_population(n_samples, base_seed=1, **kwargs):
    """The paper's sample ``S``: ``n_samples`` deterministic instances."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return [VariationModel(seed=base_seed + i, **kwargs)
            for i in range(n_samples)]
