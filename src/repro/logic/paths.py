"""Structural path enumeration through a fault site.

Test generation (Sec. 5) starts from the set of candidate paths that
include the fault location; the pair (ω_in, ω_th) is then optimised over
that set.  Enumeration is bounded because path counts explode in
reconvergent circuits.
"""

from itertools import islice

import networkx as nx

from ..runtime.stats import current_stats


def paths_through(netlist, net, max_paths=64, max_length=None):
    """PI -> PO structural paths through ``net``.

    Returns a list of net-name lists (each starts at a PI and ends at a
    PO).  At most ``max_paths`` paths are produced; ``max_length`` bounds
    the *total* path length in nets.  The time is booked as phase
    ``"paths"`` on the active :class:`~repro.runtime.stats.SolverStats`.
    """
    with current_stats().phase("paths"):
        graph = netlist.graph()
        if net not in graph:
            raise ValueError("unknown net {!r}".format(net))

        upstream = _segments(
            _cone(graph, nx.ancestors(graph, net) | {net}),
            sources=netlist.primary_inputs, target=net,
            max_count=max_paths, max_length=max_length, forward=False)
        downstream = _segments(
            _cone(graph, nx.descendants(graph, net) | {net}),
            sources=netlist.primary_outputs, target=net,
            max_count=max_paths, max_length=max_length, forward=True)
        paths = []
        for up in upstream:
            for down in downstream:
                if max_length is not None and (
                        len(up) + len(down) - 1 > max_length):
                    continue
                paths.append(up + down[1:])
                if len(paths) >= max_paths:
                    return paths
        return paths


def _cone(graph, nodes):
    """The subgraph of ``graph`` on ``nodes``, as a new graph.

    Each node keeps its successors in ``graph``'s order, so a DFS visits
    them as it would on ``graph``.  (A networkx subgraph *view* may not:
    it iterates a small node filter's set instead of the adjacency.)
    """
    cone = nx.DiGraph()
    cone.add_nodes_from(node for node in graph if node in nodes)
    cone.add_edges_from((node, succ) for node in cone
                        for succ in graph.successors(node)
                        if succ in nodes)
    return cone


def _segments(graph, sources, target, max_count, max_length, forward):
    """Simple paths between ``target`` and a set of terminals.

    ``forward=True`` walks target -> terminal (downstream to POs),
    ``forward=False`` walks terminal -> target (upstream from PIs).
    ``graph`` holds only the target's cone on that side, so a DFS never
    enters a net that cannot reach (or be reached from) the target, and
    terminals outside it are skipped.  Paths come out in the order a DFS
    on the whole netlist graph yields them: pruning removes only
    branches that yield none.
    """
    # networkx counts the cutoff in edges; a segment of max_length nets
    # has max_length - 1 of them
    cutoff = None if max_length is None else max_length - 1
    segments = []
    if target in sources:
        segments.append([target])  # the net itself is a PI (PO)
    for terminal in sources:
        if terminal == target or terminal not in graph:
            continue
        if forward:
            generator = nx.all_simple_paths(graph, target, terminal,
                                            cutoff=cutoff)
        else:
            generator = nx.all_simple_paths(graph, terminal, target,
                                            cutoff=cutoff)
        for path in islice(generator, max_count):
            segments.append(path)
            if len(segments) >= max_count:
                return segments
    return segments


def path_gates(netlist, path_nets):
    """Gates along a path (one per net after the first)."""
    gates = []
    for net in path_nets[1:]:
        gate = netlist.gate_driving(net)
        if gate is None:
            raise ValueError(
                "path net {!r} has no driving gate".format(net))
        gates.append(gate)
    return gates


def path_inversion_parity(netlist, path_nets, side_values=None):
    """Number of inversions along the path, modulo 2.

    XOR/XNOR parity depends on the side-input values; ``side_values``
    (a net->value map) must cover their side inputs in that case.
    """
    parity = 0
    for gate, in_net in zip(path_gates(netlist, path_nets), path_nets):
        if gate.kind in ("not", "nand", "nor"):
            parity ^= 1
        elif gate.kind in ("xor", "xnor"):
            if side_values is None:
                raise ValueError(
                    "XOR on path needs side values for parity")
            ones = sum(side_values[i] for i in gate.inputs if i != in_net)
            parity ^= (ones % 2) ^ (1 if gate.kind == "xnor" else 0)
    return parity


def fanout_load_counts(netlist, path_nets):
    """Fan-out count of each on-path net (loading for the electrical
    translation of the path)."""
    fanout = netlist.fanout_map()
    return [len(fanout[net]) for net in path_nets]


def longest_paths_by_depth(netlist, net, max_paths=16):
    """Convenience: the structurally longest paths through ``net``."""
    paths = paths_through(netlist, net, max_paths=max_paths * 4)
    paths.sort(key=len, reverse=True)
    return paths[:max_paths]
