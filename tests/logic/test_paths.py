"""Path-enumeration tests."""

import networkx as nx
import pytest

from repro.logic import (c17, fanout_load_counts, generate_c432_like,
                         longest_paths_by_depth, path_gates,
                         path_inversion_parity, paths_through)


class TestPathsThrough:
    def test_c17_paths_through_g11(self):
        n = c17()
        paths = paths_through(n, "G11")
        # G11 is fed by G3/G6 and feeds G16 (->G22, G23) and G19 (->G23)
        assert all(p[0] in n.primary_inputs for p in paths)
        assert all(p[-1] in n.primary_outputs for p in paths)
        assert all("G11" in p for p in paths)
        assert len(paths) == 6  # 2 PIs x 3 PO routes

    def test_paths_through_pi(self):
        n = c17()
        paths = paths_through(n, "G1")
        assert all(p[0] == "G1" for p in paths)
        assert len(paths) >= 1

    def test_paths_through_po(self):
        n = c17()
        paths = paths_through(n, "G22")
        assert all(p[-1] == "G22" for p in paths)

    def test_max_paths_respected(self):
        n = generate_c432_like()
        net = n.topological_nets()[80]
        paths = paths_through(n, net, max_paths=5)
        assert len(paths) <= 5

    def test_max_length_respected(self):
        n = generate_c432_like()
        net = n.topological_nets()[80]
        paths = paths_through(n, net, max_paths=30, max_length=9)
        assert all(len(p) <= 9 for p in paths)

    def test_too_long_segment_uses_no_budget(self):
        """A segment of max_length + 1 nets can never fit, so it must
        not use up the segment budget: the DFS from ``a`` reaches ``t``
        first through a -> x -> y -> t (4 nets), then directly."""
        from repro.logic import LogicNetlist
        n = LogicNetlist()
        n.add_input("a")
        n.add_gate("not", ["a"], "x")
        n.add_gate("not", ["x"], "y")
        n.add_gate("nand", ["y", "a"], "t")
        n.add_output("t")
        assert paths_through(n, "t", max_paths=1, max_length=3) == [
            ["a", "t"]]

    def test_max_length_keeps_every_fitting_path(self):
        n = generate_c432_like()
        graph = n.graph()
        fitting = sorted(
            path for pi in n.primary_inputs for po in n.primary_outputs
            for path in nx.all_simple_paths(graph, pi, po, cutoff=5)
            if "N135" in path)
        assert len(fitting) == 8
        assert sorted(paths_through(n, "N135", max_paths=30,
                                    max_length=6)) == fitting

    def test_unknown_net_rejected(self):
        with pytest.raises(ValueError):
            paths_through(c17(), "nope")


class TestPathQueries:
    def test_path_gates(self):
        n = c17()
        gates = path_gates(n, ["G1", "G10", "G22"])
        assert [g.output for g in gates] == ["G10", "G22"]

    def test_path_gates_rejects_undriven(self):
        n = c17()
        with pytest.raises(ValueError):
            path_gates(n, ["G1", "G3"])

    def test_parity_all_nand_path(self):
        n = c17()
        assert path_inversion_parity(n, ["G1", "G10", "G22"]) == 0
        assert path_inversion_parity(n, ["G3", "G11", "G16", "G23"]) == 1

    def test_parity_with_xor_needs_sides(self):
        from repro.logic import LogicNetlist
        n = LogicNetlist()
        n.add_input("a")
        n.add_input("b")
        n.add_gate("xor", ["a", "b"], "y")
        n.add_output("y")
        with pytest.raises(ValueError):
            path_inversion_parity(n, ["a", "y"])
        assert path_inversion_parity(n, ["a", "y"], {"b": 0}) == 0
        assert path_inversion_parity(n, ["a", "y"], {"b": 1}) == 1

    def test_fanout_load_counts(self):
        n = c17()
        counts = fanout_load_counts(n, ["G3", "G11", "G16", "G23"])
        assert counts == [2, 2, 2, 0]  # G3 feeds G10+G11; G23 is a PO

    def test_longest_paths_sorted(self):
        n = generate_c432_like()
        net = n.topological_nets()[90]
        paths = longest_paths_by_depth(n, net, max_paths=5)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths, reverse=True)
