"""Benchmark-circuit generator tests."""

import numpy as np
import pytest

from repro.logic import (c17, generate_c432_like, generate_random_circuit)
from repro.logic import benchmarks


def per_vector_repair(netlist, rng, n_vectors=256, rounds=8,
                      min_rate=0.1):
    """The net repair as it ran before it went bit-parallel: one scalar
    draw per PI value and one ``LogicNetlist.evaluate`` per vector."""
    pis = netlist.primary_inputs
    for _ in range(rounds):
        counts = {net: 0 for net in netlist.nets()}
        for _ in range(n_vectors):
            vec = {pi: int(rng.integers(2)) for pi in pis}
            values = netlist.evaluate(vec)
            for net, value in values.items():
                counts[net] += value
        stuck = [net for net, ones in counts.items()
                 if netlist.gate_driving(net) is not None
                 and not (min_rate <= ones / n_vectors <= 1.0 - min_rate)]
        if not stuck:
            return
        topo = netlist.topological_nets()
        topo_index = {net: i for i, net in enumerate(topo)}
        for net in stuck:
            gate = netlist.gate_driving(net)
            victim = gate.inputs[int(rng.integers(len(gate.inputs)))]
            earlier = [cand for cand in topo[:topo_index[net]]
                       if cand not in gate.inputs
                       and 0.25 <= counts[cand] / n_vectors <= 0.75]
            if not earlier:
                earlier = [pi for pi in pis if pi not in gate.inputs]
            if earlier:
                replacement = earlier[int(rng.integers(len(earlier)))]
                netlist.replace_gate_input(net, victim, replacement)


class TestRandomGenerator:
    def test_requested_sizes(self):
        n = generate_random_circuit(n_inputs=10, n_outputs=3, n_gates=30,
                                    seed=1)
        assert len(n.primary_inputs) == 10
        assert len(n.primary_outputs) == 3
        assert n.n_gates == 30

    def test_deterministic_per_seed(self):
        a = generate_random_circuit(8, 2, 20, seed=5)
        b = generate_random_circuit(8, 2, 20, seed=5)
        assert [g.inputs for g in a.gates()] == [g.inputs for g in b.gates()]

    def test_seeds_differ(self):
        a = generate_random_circuit(8, 2, 20, seed=5)
        b = generate_random_circuit(8, 2, 20, seed=6)
        assert [g.inputs for g in a.gates()] != [g.inputs for g in b.gates()]

    def test_validates_structurally(self):
        n = generate_random_circuit(12, 4, 50, seed=3)
        assert n.validate()

    def test_depth_close_to_target(self):
        # The bias-repair pass may shorten some paths; depth must stay
        # within a factor two of the request and never exceed it.
        n = generate_random_circuit(12, 4, 60, seed=3, target_depth=10)
        assert 5 <= n.depth() <= 10

    def test_no_constant_internal_nets(self):
        """The repair pass must leave every gate output controllable."""
        n = generate_random_circuit(12, 4, 60, seed=3)
        rng = np.random.default_rng(99)
        counts = {net: 0 for net in n.nets()}
        trials = 256
        for _ in range(trials):
            vec = {pi: int(rng.integers(2)) for pi in n.primary_inputs}
            for net, v in n.evaluate(vec).items():
                counts[net] += v
        for net, ones in counts.items():
            if n.gate_driving(net) is None:
                continue
            assert 0 < ones < trials, "net {} looks constant".format(net)


class TestC432Like:
    @pytest.fixture(scope="class")
    def circuit(self):
        return generate_c432_like()

    def test_iscas_c432_statistics(self, circuit):
        assert len(circuit.primary_inputs) == 36
        assert len(circuit.primary_outputs) == 7
        assert 140 <= circuit.n_gates <= 180
        assert 12 <= circuit.depth() <= 20

    def test_nand_dominated(self, circuit):
        kinds = [g.kind for g in circuit.gates()]
        assert kinds.count("nand") > len(kinds) * 0.25

    def test_reproducible(self):
        a = generate_c432_like()
        b = generate_c432_like()
        assert [g.inputs for g in a.gates()] == [g.inputs for g in b.gates()]

    def test_has_sensitizable_paths(self, circuit):
        """At least a quarter of sampled paths must be sensitizable —
        the property Fig. 11 depends on."""
        from repro.logic import paths_through, sensitize_path
        ok = checked = 0
        for net in circuit.topological_nets():
            if circuit.gate_driving(net) is None:
                continue
            for path in paths_through(circuit, net, max_paths=2):
                checked += 1
                try:
                    if sensitize_path(circuit, path) is not None:
                        ok += 1
                except ValueError:
                    pass
            if checked >= 60:
                break
        assert ok >= checked * 0.25


class TestBitParallelRepair:
    """The packed repair draws the same random stream and rewires the
    same nets as the per-vector reference above."""

    @pytest.mark.parametrize("seed", [432, 7, 11, 0, 1])
    def test_c432_like_netlist_unchanged(self, monkeypatch, seed):
        packed = generate_c432_like(seed=seed)
        monkeypatch.setattr(benchmarks, "_repair_biased_nets",
                            per_vector_repair)
        reference = generate_c432_like(seed=seed)
        assert packed.cache_token() == reference.cache_token()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_every_gate_kind_unchanged(self, monkeypatch, seed):
        weights = dict.fromkeys(["and", "nand", "or", "nor", "not", "buf",
                                 "xor", "xnor"], 1.0)
        kwargs = dict(n_inputs=9, n_outputs=3, n_gates=60, seed=seed,
                      kind_weights=weights)
        packed = generate_random_circuit(**kwargs)
        monkeypatch.setattr(benchmarks, "_repair_biased_nets",
                            per_vector_repair)
        assert packed.cache_token() == generate_random_circuit(
            **kwargs).cache_token()

    def test_packed_evaluation_matches_per_vector(self):
        netlist = generate_c432_like(seed=7)
        rng = np.random.default_rng(0)
        vectors = rng.integers(2, size=(70, len(netlist.primary_inputs)))
        words = {pi: sum(int(bit) << k for k, bit in enumerate(column))
                 for pi, column in zip(netlist.primary_inputs, vectors.T)}
        packed = benchmarks._evaluate_packed(netlist, words, (1 << 70) - 1)
        for k, vector in enumerate(vectors):
            values = netlist.evaluate(dict(zip(netlist.primary_inputs,
                                               vector)))
            assert all((packed[net] >> k) & 1 == value
                       for net, value in values.items())


class TestC17Preset:
    def test_exact_gate_list(self):
        n = c17()
        nand_inputs = {g.output: set(g.inputs) for g in n.gates()}
        assert nand_inputs == {
            "G10": {"G1", "G3"},
            "G11": {"G3", "G6"},
            "G16": {"G2", "G11"},
            "G19": {"G11", "G7"},
            "G22": {"G10", "G16"},
            "G23": {"G16", "G19"},
        }
