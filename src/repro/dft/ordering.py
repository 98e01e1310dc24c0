"""Output-transition-ordering DF testing (the [7] baseline).

The paper discusses Singh's self-timed structural method (ITC 2005):
sample outputs repeatedly and flag a delay fault when "the switching
order of any two outputs is opposite to that evaluated by means of
fault-free simulation", noting two weaknesses — the ordered transitions
must not be "too close" (fine ordering is impaired by timing
fluctuations) and the comparison couldn't be made quantitatively
"because of the lack of experimental data".

This module supplies that comparison: a dual-path structure whose two
outputs have a designed arrival-time gap, an ordering test calibrated on
the fault-free Monte Carlo population (guard band such that no healthy
instance flips), and a coverage sweep against fault resistance.
"""

from ..cells import build_path, default_technology
from ..faults import inject, set_fault_resistance
from ..spice import run_transient


class DualPathCircuit:
    """Two sensitized chains sharing one launched input transition.

    ``path_a`` (the shorter/faster one) hosts the fault; ``path_b`` is
    the reference whose output nominally switches *after* path_a's.
    """

    def __init__(self, path_a, path_b):
        self.path_a = path_a
        self.path_b = path_b

    @property
    def tech(self):
        return self.path_a.tech


def build_dual_path(tech=None, length_a=5, length_b=7, sample=None):
    """Two independent chains measured under the same instance.

    Electrically the chains live in separate circuits (no coupling
    exists between them in the real structure either); what they share
    is the die: the same variation model perturbs both.
    """
    tech = default_technology() if tech is None else tech
    kwargs = {}
    if sample is not None:
        tech = sample.apply_to_technology(tech)
        kwargs["device_factors"] = sample.device_factors
    path_a = build_path(tech=tech, gate_kinds=("inv",) * length_a,
                        title="ordering path A", **kwargs)
    path_b = build_path(tech=tech, gate_kinds=("inv",) * length_b,
                        title="ordering path B", **kwargs)
    return DualPathCircuit(path_a, path_b)


def output_arrival(path, direction="rise", dt=3e-12):
    """Absolute 50% arrival time of the path output transition."""
    delay = path.set_input_transition(direction)
    tstop = delay + path.n_gates * 0.35e-9 + 1.2e-9
    waveform = run_transient(path.circuit, tstop, dt,
                             record=[path.input_node, path.output_node])
    level = path.tech.vdd_half
    return waveform.first_crossing(path.output_node, level, after=delay)


class OrderingTest:
    """Calibrated transition-ordering test.

    ``guard`` is the minimum healthy separation observed across the
    fault-free population; detection requires the *order to flip*
    (t_a > t_b), exactly the [7] decision rule.
    """

    def __init__(self, nominal_gap, guard):
        self.nominal_gap = nominal_gap
        self.guard = guard

    def detects(self, t_a, t_b):
        """Fault indication: path A's output now switches after B's."""
        if t_a is None:
            return True  # output never switched: gross defect
        if t_b is None:
            return False  # reference broken: not attributable to A
        return t_a > t_b

    def __repr__(self):
        return ("OrderingTest(nominal_gap={:.0f}ps, guard={:.0f}ps)"
                .format(self.nominal_gap * 1e12, self.guard * 1e12))


def calibrate_ordering_test(samples, tech=None, length_a=5, length_b=7,
                            direction="rise", dt=3e-12):
    """Measure the fault-free gap distribution; fail loudly when any
    healthy instance already flips (ordering "too fine" — the paper's
    caveat about close transitions)."""

    def worker(sample):
        dual = build_dual_path(tech=tech, length_a=length_a,
                               length_b=length_b, sample=sample)
        t_a = output_arrival(dual.path_a, direction, dt=dt)
        t_b = output_arrival(dual.path_b, direction, dt=dt)
        return t_b - t_a

    gaps = [worker(sample) for sample in samples]
    guard = min(gaps)
    if guard <= 0.0:
        raise ValueError(
            "transition ordering flips on a fault-free instance; the "
            "two outputs are too close for this population "
            "(min gap {:.0f} ps)".format(guard * 1e12))
    return OrderingTest(nominal_gap=sum(gaps) / len(gaps), guard=guard)


def sweep_ordering_measurements(samples, fault_family, resistances,
                                tech=None, length_a=5, length_b=7,
                                direction="rise", dt=3e-12):
    """Per-sample, per-R (t_a, t_b) pairs with the fault in path A."""

    def worker(sample):
        dual = build_dual_path(tech=tech, length_a=length_a,
                               length_b=length_b, sample=sample)
        faulty_a = inject(dual.path_a, fault_family(resistances[0]))
        t_b = output_arrival(dual.path_b, direction, dt=dt)
        row = []
        for r in resistances:
            set_fault_resistance(faulty_a, r)
            t_a = output_arrival(faulty_a, direction, dt=dt)
            row.append((t_a, t_b))
        return row

    return [worker(sample) for sample in samples]


def ordering_coverage(raw, resistances, test):
    """C_order(R): fraction of instances whose output order flipped."""
    n = len(raw)
    coverage = []
    for ri in range(len(resistances)):
        hits = sum(1 for si in range(n)
                   if test.detects(*raw[si][ri]))
        coverage.append(hits / n)
    return coverage
