"""Full-circuit pulse-test campaign (the paper's announced tool).

The conclusions promise "a logic level fault simulation tool ... to
apply our method to the case of large combinational networks".  This
module is that tool: walk the fault sites of a gate-level circuit,
generate a pulse test for each (path selection + ATPG sensitization +
per-path (ω_in, ω_th) under Monte Carlo timing fluctuation), and report
the circuit-level coverage as a function of the defect resistance.
"""

from ..montecarlo import sample_population
from ..runtime import Runtime, RunReport, stable_hashes
from .fault_sim import characterize_path_for_test, minimum_detectable_resistance
from .paths import paths_through
from .pulse_model import path_model_from_netlist
from .simulator import GateTiming

TESTED = "tested"
UNSENSITIZABLE = "unsensitizable"
NO_PATH = "no_path"
UNDETECTABLE = "undetectable"
ERROR = "error"


class FaultSiteResult:
    """Outcome for one fault site (a gate-output net)."""

    def __init__(self, net, status, path=None, vector=None, omega_in=None,
                 omega_th=None, r_min=None, paths_tried=0):
        self.net = net
        self.status = status
        self.path = path
        self.vector = vector
        self.omega_in = omega_in
        self.omega_th = omega_th
        self.r_min = r_min
        self.paths_tried = paths_tried

    @property
    def tested(self):
        return self.status == TESTED

    def to_dict(self):
        """Plain JSON-serialisable form (runtime cache entries)."""
        return {
            "net": self.net,
            "status": self.status,
            "path": None if self.path is None else list(self.path),
            "vector": self.vector,
            "omega_in": self.omega_in,
            "omega_th": self.omega_th,
            "r_min": self.r_min,
            "paths_tried": self.paths_tried,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["net"], data["status"], path=data.get("path"),
                   vector=data.get("vector"),
                   omega_in=data.get("omega_in"),
                   omega_th=data.get("omega_th"),
                   r_min=data.get("r_min"),
                   paths_tried=data.get("paths_tried", 0))

    def __repr__(self):
        return "FaultSiteResult({}, {})".format(self.net, self.status)


class CampaignResult:
    """Aggregated campaign outcome."""

    def __init__(self, circuit_name, sites, calibration, report=None):
        self.circuit_name = circuit_name
        self.sites = list(sites)
        self.calibration = calibration
        #: runtime :class:`~repro.runtime.RunReport` (telemetry)
        self.report = report

    # ------------------------------------------------------------------

    def tested_sites(self):
        return [s for s in self.sites if s.tested]

    def coverage_at(self, resistance):
        """Fraction of *all* sites whose generated test detects an open
        of the given resistance."""
        if not self.sites:
            raise ValueError("campaign has no sites")
        hits = sum(1 for s in self.tested_sites()
                   if s.r_min is not None and s.r_min <= resistance)
        return hits / len(self.sites)

    def test_generation_rate(self):
        """Fraction of sites for which a sensitized test exists."""
        return len(self.tested_sites()) / len(self.sites)

    def summary(self):
        from collections import Counter
        statuses = Counter(s.status for s in self.sites)
        r_mins = [s.r_min for s in self.tested_sites()
                  if s.r_min is not None]
        return {
            "circuit": self.circuit_name,
            "n_sites": len(self.sites),
            "statuses": dict(statuses),
            "test_generation_rate": self.test_generation_rate(),
            "n_detecting": len(r_mins),
            "best_r_min": min(r_mins) if r_mins else None,
            "median_r_min": sorted(r_mins)[len(r_mins) // 2]
            if r_mins else None,
        }

    def __repr__(self):
        return "CampaignResult({}: {}/{} sites tested)".format(
            self.circuit_name, len(self.tested_sites()), len(self.sites))


def evaluate_fault_site(netlist, net, calibration, timing=None,
                        samples=None, max_paths=12, max_backtracks=1500,
                        sensing_tolerance=0.1):
    """Generate and grade a pulse test for one fault site.

    Tries candidate paths (shortest first — cheaper tests) until one is
    sensitizable, then computes the conservative ω_th from the weakest
    Monte Carlo instance and the minimal detectable resistance from the
    electrically calibrated defect model.
    """
    timing = GateTiming() if timing is None else timing
    samples = sample_population(5, base_seed=7) if samples is None else (
        samples)

    candidates = paths_through(netlist, net, max_paths=max_paths)
    candidates.sort(key=len)
    if not candidates:
        return FaultSiteResult(net, NO_PATH)

    tried = 0
    for path in candidates:
        tried += 1
        if path[-1] not in netlist.primary_outputs:
            continue
        if path.index(net) == 0:
            continue  # fault net must be a gate output along the path
        info = characterize_path_for_test(
            netlist, path, timing=timing, max_backtracks=max_backtracks)
        if info is None:
            continue
        omega_in = info["omega_in"]
        wouts = []
        for sample in samples:
            model = path_model_from_netlist(
                netlist, path, GateTiming(table=timing.table,
                                          default=timing.default,
                                          sample=sample))
            wouts.append(model.transfer(omega_in))
        weakest = min(wouts)
        if weakest <= 0.0:
            continue
        omega_th = weakest / (1.0 + sensing_tolerance)
        fault_gate_index = path.index(net) - 1
        r_min = minimum_detectable_resistance(
            info["model"], fault_gate_index, calibration, omega_in,
            omega_th)
        status = TESTED if r_min is not None else UNDETECTABLE
        return FaultSiteResult(
            net, status, path=path, vector=info["vector"],
            omega_in=omega_in, omega_th=omega_th, r_min=r_min,
            paths_tried=tried)
    return FaultSiteResult(net, UNSENSITIZABLE, paths_tried=tried)


def _site_task(payload):
    """Worker: evaluate one fault site; returns a plain dict (cacheable)."""
    result = evaluate_fault_site(
        payload["netlist"], payload["net"], payload["calibration"],
        timing=payload["timing"], samples=payload["samples"],
        max_paths=payload["max_paths"],
        sensing_tolerance=payload["sensing_tolerance"])
    return result.to_dict()


def run_campaign(netlist, calibration, timing=None, samples=None,
                 max_paths=12, site_limit=None, site_stride=1,
                 sensing_tolerance=0.1, runtime=None, progress=None):
    """Generate pulse tests for every gate-output net of ``netlist``.

    ``site_limit``/``site_stride`` subsample the fault list for quick
    runs.  ``calibration`` is a
    :class:`~repro.logic.fault_sim.DefectCalibration` (built once,
    electrically).  ``runtime`` routes the per-site work through the
    campaign runtime (parallel execution, result caching and
    checkpoint/resume); a site whose evaluation fails — even after the
    executor's retries — is reported with status ``"error"`` instead of
    killing the campaign.
    """
    timing = GateTiming() if timing is None else timing
    if samples is None:
        samples = sample_population(5, base_seed=7)
    runtime = Runtime() if runtime is None else runtime

    sites = [net for net in netlist.topological_nets()
             if netlist.gate_driving(net) is not None]
    sites = sites[::max(1, site_stride)]
    if site_limit is not None:
        sites = sites[:site_limit]

    payloads = [dict(netlist=netlist, net=net, calibration=calibration,
                     timing=timing, samples=samples, max_paths=max_paths,
                     sensing_tolerance=sensing_tolerance)
                for net in sites]
    keys = None
    if runtime.cache is not None:
        # stable_hash("fault-site", netlist, net, calibration, timing,
        # samples, max_paths, sensing_tolerance), the shared parts
        # lowered once for all sites
        keys = stable_hashes(("fault-site", netlist), sites,
                             (calibration, timing, samples, max_paths,
                              sensing_tolerance))
    report = RunReport("campaign:{}".format(netlist.name))
    run = runtime.run(_site_task, payloads, keys=keys,
                      label="campaign:{}".format(netlist.name),
                      report=report, progress=progress)
    results = []
    for index, net in enumerate(sites):
        value = run.value_or_none(index)
        if value is None:
            results.append(FaultSiteResult(net, ERROR))
        else:
            results.append(FaultSiteResult.from_dict(value))
    return CampaignResult(netlist.name, results, calibration,
                          report=report)
