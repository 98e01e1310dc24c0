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
fan-in cone (the only nets the conflict check and the backtrace read).
Each search numbers that cone once, in topological order: a net's id is
its rank, and it has a kind code, a tuple of input ids and a list of
reader ids, so the search runs on lists of ints, not on names and
:class:`~repro.logic.netlist.Gate` objects.  One 3-valued value list
lives for the whole search, and each PI assignment, flip or unassignment
re-evaluates only the cone gates whose inputs changed, in topological
order, each once.  The decisions and backtracks equal those of a full
re-simulation after every decision, and the gate evaluations too are
pinned by a recorded reference (``tests/logic/test_exactness.py``
checks both).
"""

import heapq

from ..runtime.stats import current_stats
from .netlist import CONTROLLING, GATE_TYPES, INVERTING
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
    evaluations) and its time (phase ``"atpg"``) are booked on the
    active :class:`~repro.runtime.stats.SolverStats`.
    """
    stats = current_stats()
    stats.count("atpg_sensitizations")
    with stats.phase("atpg"):
        objectives = side_input_objectives(netlist, path_nets)
        if extra_objectives:
            for net, value in extra_objectives.items():
                if objectives.get(net, value) != value:
                    return None
                objectives[net] = value

        cone = _Cone(netlist, objectives)
        assignment, backtracks = _podem(
            cone, [(cone.ids[net], want) for net, want in objectives.items()],
            max_backtracks)
        stats.count("atpg_backtracks", backtracks)
        stats.count("atpg_gate_evaluations", cone.evaluations)
    if assignment is None:
        return None
    return SensitizationResult(path_nets, assignment, objectives,
                               backtracks)


def _podem(cone, objectives, max_backtracks):
    """The PODEM decision loop over ``objectives``, ``(id, want)``
    pairs; returns ``(assignment or None, backtracks)``.

    The assignment maps PI names to values in decision order: the
    decision stack, read bottom up.
    """
    values = cone.values
    decision_stack = []  # [pi id, tried_both]
    backtracks = 0

    while True:
        # one pass: the first violated objective ends it, and until
        # then the first unresolved one is the next target
        target = None
        for net, want in objectives:
            value = values[net]
            if value is None:
                if target is None:
                    target = net, want
            elif value != want:
                break
        else:
            if target is None:
                return ({cone.names[pi]: values[pi]
                         for pi, _ in decision_stack}, backtracks)
            pi, value = _backtrace(cone, *target)
            if pi is not None:
                cone.assign(((pi, value),))
                decision_stack.append([pi, False])
                continue
            # nothing left to justify with: treat as a conflict

        # Conflict: chronological backtracking.
        backtracks += 1
        if backtracks > max_backtracks:
            return None, backtracks
        changes = []
        while decision_stack:
            pi, tried_both = decision_stack[-1]
            if tried_both:
                decision_stack.pop()
                changes.append((pi, None))
            else:
                decision_stack[-1][1] = True
                changes.append((pi, 1 - values[pi]))
                break
        else:
            return None, backtracks  # exhausted the decision tree
        cone.assign(changes)


#: kind code of a cone net: ``_PI`` for a primary input (any undriven
#: net), else one plus the index of its gate's kind in ``GATE_TYPES``
_PI = 0
_KIND_CODES = {kind: code for code, kind in enumerate(GATE_TYPES, 1)}
#: per kind code, the netlist's controlling input value (None: the
#: output is the inputs' parity) and output inversion
_CONTROLLING = (None,) + tuple(CONTROLLING[kind] for kind in GATE_TYPES)
_INVERTING = (0,) + tuple(int(INVERTING[kind]) for kind in GATE_TYPES)


class _Cone:
    """The fan-in cone of ``roots``, numbered in topological order, and
    its 3-valued values, kept current event by event.

    A cone net's id is its rank among the cone nets in the netlist's
    topological order, so every gate's input ids are smaller than its
    own.  ``names[id]`` is the net, ``kinds[id]`` its kind code,
    ``inputs[id]`` its gate's input ids (in the gate's input order;
    empty for a PI), ``readers[id]`` the ids of the cone gates that read
    it, and ``values[id]`` its value (0, 1 or None for X).

    Every value starts at X (no PI assigned).  :meth:`assign` applies
    PI changes and re-evaluates, in id order, only the cone gates an
    input of which changed, each once; ``evaluations`` counts those gate
    evaluations.  The values equal a full
    :meth:`~repro.logic.netlist.LogicNetlist.evaluate3` of the same
    assignment on every cone net, since a cone net depends on cone PIs
    only.
    """

    def __init__(self, netlist, roots):
        gates = {}
        stack = list(roots)
        while stack:
            net = stack.pop()
            if net in gates:
                continue
            gate = gates[net] = netlist.gate_driving(net)
            if gate is not None:
                stack.extend(gate.inputs)
        self.names = [net for net in netlist.topological_nets()
                      if net in gates]
        self.ids = ids = {net: i for i, net in enumerate(self.names)}
        self.kinds = []
        self.inputs = []
        self.readers = [[] for _ in self.names]
        for i, net in enumerate(self.names):
            gate = gates[net]
            if gate is None:
                self.kinds.append(_PI)
                self.inputs.append(())
                continue
            self.kinds.append(_KIND_CODES[gate.kind])
            inputs = tuple([ids[net_in] for net_in in gate.inputs])
            self.inputs.append(inputs)
            for j in inputs:
                self.readers[j].append(i)
        self.values = [None] * len(self.names)
        self.evaluations = 0

    def assign(self, changes):
        """Apply ``(pi id, value)`` changes (None: unassign) and
        propagate.

        The queue is a heap of gate ids.  A gate is pushed once per
        changed input, but each gate pushed has a larger id than the
        gate being evaluated, so ids pop in increasing order and the
        copies of one id pop in a row: the first is evaluated, the rest
        are skipped.
        """
        values, readers = self.values, self.readers
        kinds, inputs = self.kinds, self.inputs
        queue = []
        for pi, value in changes:
            values[pi] = value
            queue.extend(readers[pi])
        heapq.heapify(queue)
        heappop, heappush = heapq.heappop, heapq.heappush
        evaluations = 0
        last = -1
        while queue:
            gate = heappop(queue)
            if gate == last:
                continue
            last = gate
            evaluations += 1
            kind = kinds[gate]
            control = _CONTROLLING[kind]
            if control is None:
                out = _INVERTING[kind]
                for net in inputs[gate]:
                    value = values[net]
                    if value is None:
                        out = None
                        break
                    out ^= value
            else:
                out = 1 - control
                for net in inputs[gate]:
                    value = values[net]
                    if value == control:
                        out = control
                        break
                    if value is None:
                        out = None
                if out is not None:
                    out ^= _INVERTING[kind]
            if out == values[gate]:
                continue
            values[gate] = out
            for reader in readers[gate]:
                heappush(queue, reader)
        self.evaluations += evaluations


def _backtrace(cone, net, want):
    """PODEM backtrace: walk from objective ``net`` (an id) to an
    unassigned PI, each step to a gate's first X input.

    The value aimed for on that input is ``want`` through the gate's
    inversion; through a parity gate (XOR, XNOR) it also completes the
    parity of the assigned inputs, assuming the other X inputs (if
    several) end up 0.  Returns ``(pi id, value)`` or ``(None, None)``
    when every input on the way is already assigned (the objective
    cannot be influenced any more).
    """
    kinds, inputs, values = cone.kinds, cone.inputs, cone.values
    while True:
        kind = kinds[net]
        if kind == _PI:
            if values[net] is None:
                return net, want
            return None, None
        gate_inputs = inputs[net]
        for net_in in gate_inputs:
            if values[net_in] is None:
                break
        else:
            return None, None
        want ^= _INVERTING[kind]
        if _CONTROLLING[kind] is None:
            for other in gate_inputs:
                value = values[other]
                if value is not None:
                    want ^= value
        net = net_in


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
