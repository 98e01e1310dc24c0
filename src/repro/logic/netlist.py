"""Gate-level netlist representation.

A :class:`LogicNetlist` is a DAG of single-output gates over named nets.
It supports the operations the test-generation flow needs: topological
evaluation, structural queries (fanin cone, fanout, depth) and 3-valued
simulation primitives used by the ATPG.
"""

import networkx as nx

GATE_TYPES = ("and", "nand", "or", "nor", "not", "buf", "xor", "xnor")

#: controlling input value per gate type (None: no controlling value)
CONTROLLING = {"and": 0, "nand": 0, "or": 1, "nor": 1,
               "not": None, "buf": None, "xor": None, "xnor": None}

#: output inversion per gate type, over the type's base function:
#: AND or OR for the types with a controlling value, the inputs' parity
#: for the rest (BUF and NOT are parity gates of one input)
INVERTING = {"and": False, "nand": True, "or": False, "nor": True,
             "not": True, "buf": False, "xor": False, "xnor": True}


class Gate:
    """A single-output logic gate."""

    __slots__ = ("name", "kind", "inputs", "output")

    def __init__(self, name, kind, inputs, output):
        kind = kind.lower()
        if kind not in GATE_TYPES:
            raise ValueError("unknown gate type {!r}".format(kind))
        if kind in ("not", "buf") and len(inputs) != 1:
            raise ValueError("{} takes exactly one input".format(kind))
        if kind not in ("not", "buf") and len(inputs) < 2:
            raise ValueError("{} needs at least two inputs".format(kind))
        self.name = name
        self.kind = kind
        self.inputs = tuple(inputs)
        self.output = output

    @property
    def controlling_value(self):
        return CONTROLLING[self.kind]

    @property
    def noncontrolling_value(self):
        c = self.controlling_value
        return None if c is None else 1 - c

    def evaluate(self, values):
        """Boolean evaluation given an input-value sequence (0/1)."""
        v = list(values)
        if self.kind == "not":
            return 1 - v[0]
        if self.kind == "buf":
            return v[0]
        if self.kind == "and":
            return int(all(v))
        if self.kind == "nand":
            return int(not all(v))
        if self.kind == "or":
            return int(any(v))
        if self.kind == "nor":
            return int(not any(v))
        if self.kind == "xor":
            return sum(v) % 2
        return 1 - (sum(v) % 2)  # xnor

    def evaluate3(self, values):
        """3-valued (0/1/None=X) evaluation."""
        v = list(values)
        c = self.controlling_value
        if c is not None:
            if c in v:
                out = c
            elif None in v:
                return None
            else:
                out = 1 - c
            if self.kind in ("nand", "nor"):
                out = 1 - out
            return out
        if None in v:
            return None
        return self.evaluate(v)

    def __repr__(self):
        return "Gate({} = {}({}))".format(
            self.output, self.kind.upper(), ", ".join(self.inputs))


class LogicNetlist:
    """Combinational gate-level circuit."""

    def __init__(self, name="circuit"):
        self.name = name
        self.primary_inputs = []
        self.primary_outputs = []
        self._gates_by_output = {}
        self._topo_cache = None
        self._graph_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, net):
        if net in self._gates_by_output:
            raise ValueError("net {!r} already driven by a gate".format(net))
        if net in self.primary_inputs:
            raise ValueError("duplicate primary input {!r}".format(net))
        self.primary_inputs.append(net)
        self._structure_changed()

    def add_output(self, net):
        if net in self.primary_outputs:
            raise ValueError("duplicate primary output {!r}".format(net))
        self.primary_outputs.append(net)

    def add_gate(self, kind, inputs, output, name=None):
        if output in self._gates_by_output:
            raise ValueError("net {!r} already driven".format(output))
        if output in self.primary_inputs:
            raise ValueError(
                "net {!r} is a primary input, cannot drive it".format(output))
        gate = Gate(name or "g_{}".format(output), kind, inputs, output)
        self._gates_by_output[output] = gate
        self._structure_changed()
        return gate

    def replace_gate_input(self, output_net, old_input, new_input):
        """Rewire one input of the gate driving ``output_net``.

        Used by generator repair passes; the caller is responsible for
        keeping the graph acyclic (connecting to a PI always is).
        """
        gate = self._gates_by_output.get(output_net)
        if gate is None:
            raise ValueError("net {!r} has no driving gate".format(output_net))
        if old_input not in gate.inputs:
            raise ValueError(
                "{!r} is not an input of gate {}".format(old_input, gate.name))
        gate.inputs = tuple(new_input if net == old_input else net
                            for net in gate.inputs)
        self._structure_changed()
        return gate

    def _structure_changed(self):
        """Drop the cached graph and topological order."""
        self._topo_cache = None
        self._graph_cache = None

    def __getstate__(self):
        # the cached graph stays out of the pickle; an unpickled copy
        # (one per pool chunk) builds it once, on first use
        state = dict(self.__dict__)
        state["_graph_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def gates(self):
        return list(self._gates_by_output.values())

    def cache_token(self):
        """Stable structural description for runtime cache keys."""
        return [self.name, list(self.primary_inputs),
                list(self.primary_outputs),
                sorted((g.name, g.kind, list(g.inputs), g.output)
                       for g in self._gates_by_output.values())]

    def gate_driving(self, net):
        return self._gates_by_output.get(net)

    def nets(self):
        """All nets: inputs plus gate outputs."""
        return list(self.primary_inputs) + list(self._gates_by_output)

    @property
    def n_gates(self):
        return len(self._gates_by_output)

    def fanout_map(self):
        """{net: [gates reading it]}"""
        fanout = {net: [] for net in self.nets()}
        for gate in self._gates_by_output.values():
            for net in gate.inputs:
                if net not in fanout:
                    raise ValueError(
                        "gate {} reads undriven net {!r}".format(
                            gate.name, net))
                fanout[net].append(gate)
        return fanout

    def graph(self):
        """networkx DiGraph over nets (edges: gate input -> gate output).

        Built once and shared by every caller until the next
        :meth:`add_input`, :meth:`add_gate` or
        :meth:`replace_gate_input`, so it is frozen: mutating it raises.
        """
        if self._graph_cache is None:
            g = nx.DiGraph()
            g.add_nodes_from(self.nets())
            for gate in self._gates_by_output.values():
                for net in gate.inputs:
                    g.add_edge(net, gate.output)
            self._graph_cache = nx.freeze(g)
        return self._graph_cache

    def topological_nets(self):
        """Nets in evaluation order; raises on combinational loops."""
        if self._topo_cache is None:
            graph = self.graph()
            try:
                self._topo_cache = list(nx.topological_sort(graph))
            except nx.NetworkXUnfeasible:
                raise ValueError(
                    "netlist {!r} has a combinational loop".format(self.name))
        return self._topo_cache

    def validate(self):
        """Structural sanity: driven nets, acyclicity, outputs exist."""
        known = set(self.nets())
        for gate in self._gates_by_output.values():
            for net in gate.inputs:
                if net not in known:
                    raise ValueError(
                        "gate {} reads undriven net {!r}".format(
                            gate.name, net))
        for net in self.primary_outputs:
            if net not in known:
                raise ValueError(
                    "primary output {!r} is not a net".format(net))
        self.topological_nets()
        return True

    def depth(self):
        """Logic depth in gate levels."""
        level = {net: 0 for net in self.primary_inputs}
        for net in self.topological_nets():
            gate = self._gates_by_output.get(net)
            if gate is not None:
                level[net] = 1 + max(level[i] for i in gate.inputs)
        outputs = self.primary_outputs or list(level)
        return max(level[n] for n in outputs)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def evaluate(self, input_values):
        """Zero-delay boolean simulation; returns {net: value}."""
        values = {}
        for net in self.primary_inputs:
            values[net] = int(input_values[net])
        for net in self.topological_nets():
            gate = self._gates_by_output.get(net)
            if gate is not None:
                values[net] = gate.evaluate(values[i] for i in gate.inputs)
        return values

    def evaluate3(self, assignments):
        """3-valued simulation from a partial PI assignment.

        ``assignments`` maps PIs to 0/1; missing PIs are X (None).
        """
        values = {}
        for net in self.primary_inputs:
            values[net] = assignments.get(net)
        for net in self.topological_nets():
            gate = self._gates_by_output.get(net)
            if gate is not None:
                values[net] = gate.evaluate3(
                    [values[i] for i in gate.inputs])
        return values

    def __repr__(self):
        return "LogicNetlist({!r}: {} PIs, {} POs, {} gates)".format(
            self.name, len(self.primary_inputs), len(self.primary_outputs),
            self.n_gates)
