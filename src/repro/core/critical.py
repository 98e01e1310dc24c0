"""Bridging critical resistance (Sec. 2 / Sec. 4).

"Under nominal conditions, the critical resistance of such a fault is
equal to 2 kOhm.  Above such a value, an additional delay is produced
instead of a logic error."  This module locates that boundary for any
bridging configuration: the largest R at which the contention still
flips a downstream logic value statically.
"""

from ..faults import BridgingFault, inject, set_fault_resistance
from ..montecarlo import NominalModel
from ..spice import operating_point
from ..spice.batch import BatchCompiledCircuit, solve_dc_batch
from .pulse import build_instance
from .search import BracketSearch, bisect_populations


def _held_at(path, input_level, tech):
    """``path`` with its input held statically at ``input_level`` (0 V
    or the VDD of ``tech``)."""
    path.set_input(tech.vdd if input_level else 0.0)
    return path


def _logic_values(voltage, path):
    """Logic value (above VDD/2) of every stage node of ``path`` past
    its input, from ``voltage(node)``."""
    half = path.tech.vdd_half
    return [voltage(node) > half for node in path.stage_nodes[1:]]


def static_levels_correct(faulty_path, input_level, reference_path=None):
    """True when every stage node holds its healthy logic value with the
    input statically at ``input_level``."""
    reference_path = (build_instance(sample=NominalModel(),
                                     tech=faulty_path.tech)
                      if reference_path is None else reference_path)
    tech = faulty_path.tech
    op_faulty = operating_point(
        _held_at(faulty_path, input_level, tech).circuit)
    op_ref = operating_point(
        _held_at(reference_path, input_level, tech).circuit)
    return (_logic_values(op_faulty.get, faulty_path)
            == _logic_values(op_ref.get, faulty_path))


def bridging_critical_resistance(stage=2, tech=None, aggressor_value=None,
                                 r_lo=100.0, r_hi=50e3, rel_tol=0.03,
                                 input_level=None):
    """Largest R at which the bridge still causes a static logic error.

    The contention state is the input level that drives the victim node
    *against* the aggressor.  The fault-free levels are solved once; the
    bisection (midpoint ``(lo * hi) ** 0.5``, open while ``hi - lo >
    rel_tol * lo``, erring at ``lo``) runs by
    :func:`~repro.core.search.bisect_populations`, each round's R probes
    one batched DC solve of the faulty instance.  Returns None when
    even ``r_lo`` produces no error (the bridge is benign over the whole
    range) and ``r_hi`` when even ``r_hi`` errs.
    """
    probe = build_instance(sample=NominalModel(), tech=tech)
    fault = BridgingFault(stage, r_hi, aggressor_value=aggressor_value)

    if input_level is None:
        # The contention state drives the victim node to the value the
        # aggressor opposes: pick the input level whose static victim
        # value differs from what the aggressor holds.
        held = (fault.aggressor_value
                if fault.aggressor_value is not None
                else probe.idle_level(stage, 0))
        input_level = next(candidate for candidate in (0, 1)
                           if probe.idle_level(stage, candidate) != held)

    reference = build_instance(sample=NominalModel(), tech=tech)
    faulty = inject(probe, fault)
    healthy = _logic_values(operating_point(
        _held_at(reference, input_level, faulty.tech).circuit).get, faulty)

    def errors(probes):
        batch = BatchCompiledCircuit([
            _held_at(set_fault_resistance(faulty.copy(), r), input_level,
                     faulty.tech).circuit
            for _, r in probes])
        x = solve_dc_batch(batch)
        return [_logic_values(lambda node: row[batch.index_of(node)],
                              faulty) != healthy
                for row in x]

    search = BracketSearch(r_lo, r_hi, lambda lo, hi: (lo * hi) ** 0.5,
                           lambda lo, hi: hi - lo > rel_tol * lo,
                           passes_high=False)
    (r_crit,) = bisect_populations([search], errors)
    return r_crit
