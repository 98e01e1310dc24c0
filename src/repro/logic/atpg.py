"""Path-sensitization test generation (PODEM-style).

To apply the pulse test to a fault site we need a PI vector that makes
every *side input* along the chosen path non-controlling, so the injected
pulse traverses the whole path (Sec. 3: "all the side inputs of the path
are set to non-controlling values").  This is the classic path-delay-test
sensitization problem; the paper observes that "the basic algorithms used
for path DF test generation can easily be modified".

The implementation is a compact PODEM: objectives are justified by
backtracing to primary inputs, with chronological backtracking on
conflicts.  Implication is event-driven and confined to the objectives'
fan-in cone (the only nets the conflict check and the backtrace read):
one 3-valued value map lives for the whole search, and each PI
assignment, flip or unassignment re-evaluates only the cone gates whose
inputs changed, in topological order.
"""

import heapq

from ..runtime.stats import current_stats
from .paths import path_gates


class SensitizationResult:
    """Outcome of a sensitization attempt."""

    def __init__(self, path_nets, assignment, objectives, backtracks):
        self.path_nets = list(path_nets)
        #: full PI vector (unassigned PIs filled with 0)
        self.assignment = dict(assignment)
        self.objectives = dict(objectives)
        self.backtracks = backtracks

    def vector(self, netlist, fill=0):
        """Complete PI assignment with don't-cares filled."""
        vector = {pi: fill for pi in netlist.primary_inputs}
        vector.update(self.assignment)
        return vector

    def __repr__(self):
        return ("SensitizationResult({} objectives, {} assigned PIs, "
                "{} backtracks)").format(len(self.objectives),
                                         len(self.assignment),
                                         self.backtracks)


def side_input_objectives(netlist, path_nets):
    """The (net, value) requirements that sensitize ``path_nets``.

    Every side input of every on-path gate must sit at the gate's
    non-controlling value.  XOR/XNOR gates impose no requirement (any
    side value propagates; it only flips polarity).

    Raises ValueError when a side input *is itself on the path* — such a
    path is untestable as a single sensitized path (multi-path DFs, which
    the paper leaves out of scope).
    """
    on_path = set(path_nets)
    objectives = {}
    for gate, in_net in zip(path_gates(netlist, path_nets), path_nets):
        nc = gate.noncontrolling_value
        if nc is None:
            continue
        for side in gate.inputs:
            if side == in_net:
                continue
            if side in on_path:
                raise ValueError(
                    "side input {!r} of gate {} lies on the path itself"
                    .format(side, gate.name))
            if objectives.get(side, nc) != nc:
                raise ValueError(
                    "conflicting requirements on net {!r}".format(side))
            objectives[side] = nc
    return objectives


def sensitize_path(netlist, path_nets, max_backtracks=2000,
                   extra_objectives=None):
    """Find a PI vector sensitizing ``path_nets``.

    Returns a :class:`SensitizationResult` or ``None`` when the path is
    (found) unsensitizable within the backtrack limit.  The search's
    effort (one sensitization, its backtracks and implication gate
    evaluations) is booked on the active
    :class:`~repro.runtime.stats.SolverStats`.
    """
    stats = current_stats()
    stats.count("atpg_sensitizations")
    objectives = side_input_objectives(netlist, path_nets)
    if extra_objectives:
        for net, value in extra_objectives.items():
            if objectives.get(net, value) != value:
                return None
            objectives[net] = value

    cone = _ConeImplication(netlist, objectives)
    assignment, backtracks = _podem(netlist, cone, objectives,
                                    max_backtracks)
    stats.count("atpg_backtracks", backtracks)
    stats.count("atpg_gate_evaluations", cone.evaluations)
    if assignment is None:
        return None
    return SensitizationResult(path_nets, assignment, objectives,
                               backtracks)


def _podem(netlist, cone, objectives, max_backtracks):
    """The PODEM decision loop; returns ``(assignment or None,
    backtracks)``."""
    values = cone.values
    assignment = {}
    decision_stack = []  # (pi, tried_both)
    backtracks = 0

    while True:
        conflict = any(values[net] is not None and values[net] != want
                       for net, want in objectives.items())
        if not conflict:
            unresolved = [net for net, want in objectives.items()
                          if values[net] is None]
            if not unresolved:
                return assignment, backtracks
            target_net = unresolved[0]
            pi, value = _backtrace(netlist, target_net,
                                   objectives[target_net], values)
            if pi is not None:
                assignment[pi] = value
                cone.assign({pi: value})
                decision_stack.append([pi, False])
                continue
            conflict = True  # nothing left to justify with: treat as conflict

        # Conflict: chronological backtracking.
        backtracks += 1
        if backtracks > max_backtracks:
            return None, backtracks
        changes = {}
        while decision_stack:
            pi, tried_both = decision_stack[-1]
            if tried_both:
                decision_stack.pop()
                del assignment[pi]
                changes[pi] = None
            else:
                decision_stack[-1][1] = True
                assignment[pi] = 1 - assignment[pi]
                changes[pi] = assignment[pi]
                break
        else:
            return None, backtracks  # exhausted the decision tree
        cone.assign(changes)


class _ConeImplication:
    """3-valued values of the fan-in cone of ``roots``, kept current
    event by event.

    Every value starts at X (no PI assigned).  :meth:`assign` applies
    PI changes and re-evaluates, in topological order, only the cone
    gates an input of which changed, each once; ``evaluations`` counts
    those gate evaluations.  The values equal a full
    :meth:`~repro.logic.netlist.LogicNetlist.evaluate3` of the same
    assignment on every cone net, since a cone net depends on cone PIs
    only.
    """

    def __init__(self, netlist, roots):
        cone = set()
        stack = list(roots)
        while stack:
            net = stack.pop()
            if net in cone:
                continue
            cone.add(net)
            gate = netlist.gate_driving(net)
            if gate is not None:
                stack.extend(gate.inputs)
        self.values = dict.fromkeys(cone)
        self.rank = {}
        self.readers = {net: [] for net in cone}
        for rank, net in enumerate(netlist.topological_nets()):
            if net not in cone:
                continue
            self.rank[net] = rank
            gate = netlist.gate_driving(net)
            if gate is not None:
                for net_in in gate.inputs:
                    self.readers[net_in].append(gate)
        self.evaluations = 0

    def assign(self, changes):
        """Apply ``{pi: value}`` (None: unassign) and propagate."""
        values, rank, readers = self.values, self.rank, self.readers
        values.update(changes)
        queued = {gate.output: gate for pi in changes
                  for gate in readers[pi]}
        queue = [(rank[net], gate) for net, gate in queued.items()]
        heapq.heapify(queue)
        while queue:
            _, gate = heapq.heappop(queue)
            self.evaluations += 1
            out = gate.evaluate3([values[net] for net in gate.inputs])
            if out == values[gate.output]:
                continue
            values[gate.output] = out
            for reader in readers[gate.output]:
                if reader.output not in queued:
                    queued[reader.output] = reader
                    heapq.heappush(queue, (rank[reader.output], reader))


def _backtrace(netlist, net, want, values):
    """PODEM backtrace: walk from an objective to an unassigned PI.

    Returns ``(pi, value)`` or ``(None, None)`` when every cone input is
    already assigned (the objective cannot be influenced any more).
    """
    current, value = net, want
    for _ in range(10000):
        gate = netlist.gate_driving(current)
        if gate is None:
            if values[current] is None:
                return current, value
            return None, None
        current, value = _choose_gate_input(gate, value, values)
        if current is None:
            return None, None
    raise RuntimeError("backtrace did not terminate")


def _choose_gate_input(gate, want, values):
    """Pick an X input of ``gate`` and the value to aim for on it."""
    kind = gate.kind
    xs = [i for i in gate.inputs if values[i] is None]
    if not xs:
        return None, None
    if kind in ("not", "nand", "nor"):
        inner = 1 - want
    else:
        inner = want
    if kind in ("and", "nand"):
        # output-inner 1 needs ALL ones (pick any X, aim 1);
        # output-inner 0 needs ONE zero (pick any X, aim 0).
        return xs[0], inner
    if kind in ("or", "nor"):
        # dual of AND: inner 1 needs one 1; inner 0 needs all 0.
        return xs[0], inner
    if kind in ("buf", "not"):
        return xs[0], inner
    # XOR/XNOR: aim for the parity completing the assigned inputs,
    # assuming remaining X inputs (if several) end up 0.
    assigned_ones = sum(values[i] for i in gate.inputs
                        if values[i] is not None)
    target_parity = want if kind == "xor" else 1 - want
    return xs[0], (target_parity ^ (assigned_ones % 2)) & 1


def find_sensitizable_path(netlist, net, max_paths=64, max_backtracks=2000):
    """First sensitizable path through ``net`` plus its vector.

    Returns ``(path_nets, SensitizationResult)`` or ``(None, None)``.
    """
    from .paths import paths_through
    for path in paths_through(netlist, net, max_paths=max_paths):
        try:
            result = sensitize_path(netlist, path,
                                    max_backtracks=max_backtracks)
        except ValueError:
            continue
        if result is not None:
            return path, result
    return None, None
