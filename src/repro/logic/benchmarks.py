"""Benchmark circuits.

* ``c17()`` — the exact ISCAS-85 c17 netlist (small enough to know by
  heart; used pervasively in tests).
* ``generate_c432_like()`` — a deterministic synthetic generator producing
  circuits with ISCAS-85 C432-class statistics (36 PIs, 7 POs, ~160
  gates, depth around 17, NAND-dominated mix).  The verbatim C432 netlist
  is not redistributable from memory with confidence; the Fig. 11
  experiment only needs a population of structurally diverse sensitizable
  paths with varied fan-out loads, which this provides (see DESIGN.md,
  *Substitutions*).
* ``generate_random_circuit()`` — the fully parameterised generator the
  c432-class preset is built on.
"""

import functools
import operator

import numpy as np

from .bench_parser import parse_bench
from .netlist import LogicNetlist

_C17_BENCH = """
# c17 (ISCAS-85)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def c17():
    """The ISCAS-85 c17 benchmark (5 PIs, 2 POs, 6 NAND2)."""
    return parse_bench(_C17_BENCH, name="c17")


def generate_random_circuit(n_inputs, n_outputs, n_gates, seed=0,
                            target_depth=None, max_fanin=3,
                            kind_weights=None, name=None):
    """Deterministic layered random DAG of logic gates.

    Gates are placed on levels so the depth is controlled; each gate draws
    its inputs from earlier levels with a bias toward the immediately
    preceding one (keeps paths long and fan-out realistic).
    """
    if target_depth is None:
        target_depth = max(3, int(np.ceil(n_gates ** 0.5)))
    if kind_weights is None:
        kind_weights = {"nand": 0.35, "nor": 0.15, "and": 0.15,
                        "or": 0.10, "not": 0.15, "xor": 0.05, "buf": 0.05}
    kinds = sorted(kind_weights)
    weights = np.array([kind_weights[k] for k in kinds], dtype=float)
    weights = weights / weights.sum()

    rng = np.random.default_rng(seed)
    netlist = LogicNetlist(name or "random_s{}".format(seed))
    for i in range(n_inputs):
        netlist.add_input("I{}".format(i))

    # Distribute gates over levels (at least one per level).
    per_level = np.full(target_depth, n_gates // target_depth, dtype=int)
    per_level[:n_gates % target_depth] += 1

    levels = [list(netlist.primary_inputs)]
    fanout_count = {net: 0 for net in netlist.primary_inputs}
    gate_id = 0
    for level_index, count in enumerate(per_level, start=1):
        level_nets = []
        for _ in range(count):
            kind = kinds[int(rng.choice(len(kinds), p=weights))]
            fanin = 1 if kind in ("not", "buf") else int(
                rng.integers(2, max_fanin + 1))
            inputs = _draw_inputs(rng, levels, fanin, fanout_count)
            for net in inputs:
                fanout_count[net] += 1
            output = "N{}".format(gate_id)
            netlist.add_gate(kind, inputs, output)
            level_nets.append(output)
            fanout_count[output] = 0
            gate_id += 1
        levels.append(level_nets)

    # POs: prefer nets with no fanout, deepest first.
    fanout = netlist.fanout_map()
    candidates = [net for net in reversed(netlist.topological_nets())
                  if netlist.gate_driving(net) is not None
                  and not fanout[net]]
    for net in reversed(netlist.topological_nets()):
        if len(candidates) >= n_outputs:
            break
        if netlist.gate_driving(net) is not None and net not in candidates:
            candidates.append(net)
    for net in candidates[:n_outputs]:
        netlist.add_output(net)
    _repair_biased_nets(netlist, rng)
    netlist.validate()
    return netlist


def _repair_biased_nets(netlist, rng, n_vectors=256, rounds=8,
                        min_rate=0.1):
    """Break up (nearly) constant internal nets.

    Deep random NAND-heavy logic develops constant nets through
    reconvergent complements, which makes side-input objectives
    unsatisfiable and paths untestable — unlike real benchmark circuits.
    Any gate output stuck at one value across random vectors gets one of
    its inputs rewired to a fresh primary input, restoring
    controllability.  A round's vectors are simulated bit-parallel
    (:func:`_evaluate_packed`).
    """
    pis = netlist.primary_inputs
    mask = (1 << n_vectors) - 1
    for _ in range(rounds):
        # row k is vector k, drawn one PI value after another; bit k of
        # a PI's packed int is its value in vector k
        bits = rng.integers(2, size=(n_vectors, len(pis))).astype(bool)
        packed = np.packbits(bits, axis=0, bitorder="little")
        values = _evaluate_packed(netlist, {
            pi: int.from_bytes(packed[:, j].tobytes(), "little")
            for j, pi in enumerate(pis)}, mask)
        counts = {net: values[net].bit_count() for net in netlist.nets()}
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
            # Rewire to an earlier (acyclic), well-balanced net; this
            # keeps the circuit deep instead of collapsing onto PIs.
            earlier = [cand for cand in topo[:topo_index[net]]
                       if cand not in gate.inputs
                       and 0.25 <= counts[cand] / n_vectors <= 0.75]
            if not earlier:
                earlier = [pi for pi in pis if pi not in gate.inputs]
            if earlier:
                replacement = earlier[int(rng.integers(len(earlier)))]
                netlist.replace_gate_input(net, victim, replacement)


#: packed-vector form of each gate kind: the bitwise reduction over its
#: inputs (a one-input gate reduces to its input) and whether the output
#: inverts it
_PACKED_GATES = {
    "and": (operator.and_, False), "nand": (operator.and_, True),
    "or": (operator.or_, False), "nor": (operator.or_, True),
    "xor": (operator.xor, False), "xnor": (operator.xor, True),
    "buf": (operator.and_, False), "not": (operator.and_, True),
}


def _evaluate_packed(netlist, pi_words, mask):
    """Zero-delay simulation of many vectors at once.

    ``pi_words`` maps each PI to its values packed into one int (bit
    ``k`` is vector ``k``); ``mask`` has one bit set per vector.
    Returns ``{net: packed values}``, like
    :meth:`~repro.logic.netlist.LogicNetlist.evaluate` per bit.
    """
    values = dict(pi_words)
    for net in netlist.topological_nets():
        gate = netlist.gate_driving(net)
        if gate is not None:
            reduce_op, inverted = _PACKED_GATES[gate.kind]
            word = functools.reduce(reduce_op,
                                    [values[i] for i in gate.inputs])
            values[net] = word ^ mask if inverted else word
    return values


def _draw_inputs(rng, levels, fanin, fanout_count):
    """Pick ``fanin`` distinct source nets.

    Preference order keeps reconvergence realistic (and paths
    sensitizable): nets with no fan-out yet are favoured, with a bias
    toward the previous level so paths stay deep.
    """
    chosen = []
    available = [net for level in levels for net in level]
    fresh_prev = [net for net in levels[-1] if fanout_count[net] == 0]
    fresh_any = [net for net in available if fanout_count[net] == 0]
    attempts = 0
    while len(chosen) < fanin and attempts < 200:
        attempts += 1
        roll = rng.random()
        if roll < 0.55 and fresh_prev:
            pool = fresh_prev
        elif roll < 0.80 and fresh_any:
            pool = fresh_any
        elif rng.random() < 0.5 and levels[-1]:
            pool = levels[-1]
        else:
            pool = available
        net = pool[int(rng.integers(len(pool)))]
        if net not in chosen:
            chosen.append(net)
    while len(chosen) < fanin:
        for net in available:
            if net not in chosen:
                chosen.append(net)
                break
    return chosen


def generate_c432_like(seed=432):
    """A C432-class circuit: 36 PIs, 7 POs, ~160 gates, depth ~17.

    ISCAS-85 C432 is a 27-channel interrupt controller dominated by
    NAND/NOT logic with a few XORs; the preset mirrors those statistics.
    """
    return generate_random_circuit(
        n_inputs=36, n_outputs=7, n_gates=160, seed=seed, target_depth=17,
        max_fanin=3,
        kind_weights={"nand": 0.45, "not": 0.20, "and": 0.10,
                      "nor": 0.10, "or": 0.05, "xor": 0.07, "buf": 0.03},
        name="c432like_s{}".format(seed))
