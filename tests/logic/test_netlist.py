"""Gate-level netlist tests."""

import pickle

import networkx as nx
import pytest

from repro.logic import Gate, LogicNetlist, c17, paths_through


class TestGate:
    @pytest.mark.parametrize("kind,ins,expected", [
        ("and", (1, 1), 1), ("and", (1, 0), 0),
        ("nand", (1, 1), 0), ("nand", (0, 1), 1),
        ("or", (0, 0), 0), ("or", (0, 1), 1),
        ("nor", (0, 0), 1), ("nor", (1, 0), 0),
        ("xor", (1, 1), 0), ("xor", (1, 0), 1),
        ("xnor", (1, 1), 1), ("xnor", (1, 0), 0),
    ])
    def test_two_input_truth(self, kind, ins, expected):
        g = Gate("g", kind, ["a", "b"], "y")
        assert g.evaluate(ins) == expected

    def test_not_and_buf(self):
        assert Gate("g", "not", ["a"], "y").evaluate([0]) == 1
        assert Gate("g", "buf", ["a"], "y").evaluate([1]) == 1

    def test_three_input_nand(self):
        g = Gate("g", "nand", ["a", "b", "c"], "y")
        assert g.evaluate([1, 1, 1]) == 0
        assert g.evaluate([1, 0, 1]) == 1

    def test_controlling_values(self):
        assert Gate("g", "nand", ["a", "b"], "y").controlling_value == 0
        assert Gate("g", "nor", ["a", "b"], "y").controlling_value == 1
        assert Gate("g", "xor", ["a", "b"], "y").controlling_value is None

    def test_noncontrolling_values(self):
        assert Gate("g", "nand", ["a", "b"], "y").noncontrolling_value == 1
        assert Gate("g", "nor", ["a", "b"], "y").noncontrolling_value == 0

    def test_evaluate3_controlling_dominates_x(self):
        g = Gate("g", "nand", ["a", "b"], "y")
        assert g.evaluate3([0, None]) == 1
        assert g.evaluate3([1, None]) is None

    def test_evaluate3_or(self):
        g = Gate("g", "or", ["a", "b"], "y")
        assert g.evaluate3([1, None]) == 1
        assert g.evaluate3([0, None]) is None
        assert g.evaluate3([0, 0]) == 0

    def test_evaluate3_xor_needs_all(self):
        g = Gate("g", "xor", ["a", "b"], "y")
        assert g.evaluate3([1, None]) is None
        assert g.evaluate3([1, 0]) == 1

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("g", "majority", ["a", "b"], "y")

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Gate("g", "not", ["a", "b"], "y")
        with pytest.raises(ValueError):
            Gate("g", "nand", ["a"], "y")


class TestNetlistConstruction:
    def test_duplicate_driver_rejected(self):
        n = LogicNetlist()
        n.add_input("a")
        n.add_input("b")
        n.add_gate("nand", ["a", "b"], "y")
        with pytest.raises(ValueError):
            n.add_gate("nor", ["a", "b"], "y")

    def test_driving_an_input_rejected(self):
        n = LogicNetlist()
        n.add_input("a")
        n.add_input("b")
        with pytest.raises(ValueError):
            n.add_gate("not", ["b"], "a")

    def test_duplicate_input_rejected(self):
        n = LogicNetlist()
        n.add_input("a")
        with pytest.raises(ValueError):
            n.add_input("a")

    def test_validate_catches_undriven_read(self):
        n = LogicNetlist()
        n.add_input("a")
        n.add_gate("not", ["ghost"], "y")
        with pytest.raises(ValueError):
            n.validate()

    def test_validate_catches_bogus_output(self):
        n = LogicNetlist()
        n.add_input("a")
        n.add_output("nowhere")
        with pytest.raises(ValueError):
            n.validate()

    def test_replace_gate_input(self):
        n = LogicNetlist()
        n.add_input("a")
        n.add_input("b")
        n.add_input("c")
        n.add_gate("nand", ["a", "b"], "y")
        n.replace_gate_input("y", "b", "c")
        assert n.gate_driving("y").inputs == ("a", "c")

    def test_replace_gate_input_rejects_missing(self):
        n = LogicNetlist()
        n.add_input("a")
        n.add_input("b")
        n.add_gate("nand", ["a", "b"], "y")
        with pytest.raises(ValueError):
            n.replace_gate_input("y", "zzz", "a")


class TestC17:
    def test_structure(self):
        n = c17()
        assert len(n.primary_inputs) == 5
        assert len(n.primary_outputs) == 2
        assert n.n_gates == 6
        assert n.depth() == 3

    @pytest.mark.parametrize("vector,g22,g23", [
        ({"G1": 0, "G2": 0, "G3": 0, "G6": 0, "G7": 0}, 0, 0),
        ({"G1": 1, "G2": 1, "G3": 1, "G6": 1, "G7": 1}, 1, 0),
        ({"G1": 0, "G2": 1, "G3": 1, "G6": 0, "G7": 0}, 1, 1),
        ({"G1": 1, "G2": 0, "G3": 0, "G6": 1, "G7": 1}, 0, 1),
    ])
    def test_known_vectors(self, vector, g22, g23):
        values = c17().evaluate(vector)
        assert values["G22"] == g22
        assert values["G23"] == g23

    def test_evaluate3_partial(self):
        n = c17()
        values = n.evaluate3({"G3": 0})  # G10 = NAND(G1,0) = 1, G11 = 1
        assert values["G10"] == 1
        assert values["G11"] == 1
        assert values["G22"] is None

    def test_fanout_map(self):
        n = c17()
        fanout = n.fanout_map()
        assert len(fanout["G11"]) == 2  # feeds G16 and G19
        assert fanout["G22"] == []

    def test_topological_order_respects_dependencies(self):
        n = c17()
        order = n.topological_nets()
        assert order.index("G10") < order.index("G22")
        assert order.index("G16") < order.index("G23")


class TestLoopsAndDepth:
    def test_combinational_loop_detected(self):
        n = LogicNetlist()
        n.add_input("a")
        n.add_gate("nand", ["a", "q2"], "q1")
        n.add_gate("nand", ["a", "q1"], "q2")
        with pytest.raises(ValueError):
            n.topological_nets()

    def test_depth_of_chain(self):
        n = LogicNetlist()
        n.add_input("a")
        prev = "a"
        for i in range(5):
            n.add_gate("not", [prev], "n{}".format(i))
            prev = "n{}".format(i)
        n.add_output(prev)
        assert n.depth() == 5


class TestStructureCache:
    """``graph()`` and ``topological_nets()`` are built once and shared;
    each structural mutator drops both."""

    def _warm(self):
        n = LogicNetlist()
        for pi in ("a", "b"):
            n.add_input(pi)
        n.add_gate("nand", ["a", "b"], "x")
        n.add_output("x")
        graph, order = n.graph(), n.topological_nets()
        assert n.graph() is graph and n.topological_nets() is order
        return n, graph, order

    @pytest.mark.parametrize("mutate", [
        lambda n: n.add_input("c"),
        lambda n: n.add_gate("not", ["x"], "y"),
        lambda n: n.replace_gate_input("x", "b", "a"),
    ], ids=["add_input", "add_gate", "replace_gate_input"])
    def test_mutators_invalidate(self, mutate):
        n, graph, order = self._warm()
        mutate(n)
        assert n.graph() is not graph
        assert n.topological_nets() is not order
        assert set(n.graph().edges) == {
            (net, gate.output) for gate in n.gates()
            for net in gate.inputs}
        assert set(n.topological_nets()) == set(n.nets())

    def test_paths_see_a_rewire(self):
        n, _, _ = self._warm()
        n.add_input("c")
        n.add_gate("not", ["c"], "y")
        n.add_output("y")
        assert paths_through(n, "x") == [["a", "x"], ["b", "x"]]
        n.replace_gate_input("x", "b", "y")
        assert paths_through(n, "x") == [["a", "x"], ["c", "y", "x"]]

    def test_shared_graph_is_read_only(self):
        n, graph, _ = self._warm()
        with pytest.raises(nx.NetworkXError):
            graph.add_edge("x", "a")

    def test_pickle_carries_no_graph(self):
        n, graph, order = self._warm()
        state = pickle.loads(pickle.dumps(n))
        assert state._graph_cache is None
        assert state.topological_nets() == order
        assert sorted(state.graph().edges) == sorted(graph.edges)
        assert "_graph_cache" in vars(n) and n.graph() is graph
