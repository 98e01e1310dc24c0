"""The pruned path enumeration and the event-driven PODEM return exactly
what the unpruned, full re-simulation algorithms return.

Both references are kept here in their plain form: ``paths_through`` as
a DFS from every terminal through the whole netlist graph, and PODEM
re-simulating every net after each decision, with its own backtrace on
net names and value maps.  The checks compare order, assignments (in
decision order) and backtrack counts, not just sets.  The search's work
is pinned too: ``podem_reference.json`` records, at the campaign's
backtrack limit, the outcome, assignment, backtracks and implication
gate evaluations of every candidate path of the benchmark's C432 site
set.
"""

import json
from itertools import islice
from pathlib import Path

import networkx as nx
import pytest

from repro.logic import (c17, generate_c432_like, paths_through,
                         sensitize_path, side_input_objectives)
from repro.runtime.stats import stats_scope

#: the recorded searches (see the module docstring)
PODEM_REFERENCE = Path(__file__).with_name("podem_reference.json")

#: low enough to keep the full re-simulation reference fast, high
#: enough that some searches still end on the limit
MAX_BACKTRACKS = 150


def reference_paths_through(netlist, net, max_paths):
    """Unpruned enumeration: every terminal's DFS walks its whole cone."""
    graph = netlist.graph()

    def segments(terminals, forward):
        found = [[net]] if net in terminals else []
        for terminal in terminals:
            if terminal == net:
                continue
            generator = (nx.all_simple_paths(graph, net, terminal)
                         if forward else
                         nx.all_simple_paths(graph, terminal, net))
            for path in islice(generator, max_paths):
                found.append(path)
                if len(found) >= max_paths:
                    return found
        return found

    paths = []
    for up in segments(netlist.primary_inputs, forward=False):
        for down in segments(netlist.primary_outputs, forward=True):
            paths.append(up + down[1:])
            if len(paths) >= max_paths:
                return paths
    return paths


def reference_sensitize(netlist, path_nets, max_backtracks):
    """PODEM with a full 3-valued re-simulation after every decision.

    Returns ``(assignment or None, backtracks)``; raises ValueError
    like :func:`sensitize_path` for a path with a side input on it.
    """
    objectives = side_input_objectives(netlist, path_nets)
    assignment = {}
    decision_stack = []
    backtracks = 0
    while True:
        values = netlist.evaluate3(assignment)
        conflict = any(values[net] is not None and values[net] != want
                       for net, want in objectives.items())
        if not conflict:
            unresolved = [net for net, want in objectives.items()
                          if values[net] is None]
            if not unresolved:
                return assignment, backtracks
            pi, value = reference_backtrace(
                netlist, unresolved[0], objectives[unresolved[0]], values)
            if pi is not None:
                assignment[pi] = value
                decision_stack.append([pi, False])
                continue
        backtracks += 1
        if backtracks > max_backtracks:
            return None, backtracks
        while decision_stack:
            pi, tried_both = decision_stack[-1]
            if tried_both:
                decision_stack.pop()
                del assignment[pi]
            else:
                decision_stack[-1][1] = True
                assignment[pi] = 1 - assignment[pi]
                break
        else:
            return None, backtracks


def reference_backtrace(netlist, net, want, values):
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


CIRCUITS = [
    pytest.param(c17, 1, id="c17"),
    pytest.param(lambda: generate_c432_like(seed=432), 9, id="c432-432"),
    pytest.param(lambda: generate_c432_like(seed=7), 9, id="c432-7"),
]


@pytest.mark.parametrize("build, stride", CIRCUITS)
def test_paths_match_unpruned_enumeration(build, stride):
    netlist = build()
    for net in netlist.topological_nets()[::stride]:
        assert (paths_through(netlist, net, max_paths=12)
                == reference_paths_through(netlist, net, 12)), net


@pytest.mark.parametrize("build, stride", CIRCUITS)
def test_sensitization_matches_full_resimulation(build, stride):
    netlist = build()
    outcomes = set()
    for net in netlist.topological_nets()[::stride]:
        for path in paths_through(netlist, net, max_paths=12):
            try:
                want, backtracks = reference_sensitize(
                    netlist, path, MAX_BACKTRACKS)
            except ValueError:
                with pytest.raises(ValueError):
                    sensitize_path(netlist, path,
                                   max_backtracks=MAX_BACKTRACKS)
                outcomes.add("ValueError")
                continue
            with stats_scope() as stats:
                got = sensitize_path(netlist, path,
                                     max_backtracks=MAX_BACKTRACKS)
            assert stats.total("atpg_sensitizations") == 1
            assert stats.total("atpg_backtracks") == backtracks, path
            if want is None:
                assert got is None, path
                outcomes.add("None")
            else:
                assert got is not None, path
                assert list(got.assignment.items()) == list(
                    want.items()), path
                assert got.backtracks == backtracks
                outcomes.add("sensitized")
    if netlist.name != "c17":
        # the c432-class circuits exercise every outcome
        assert outcomes == {"ValueError", "None", "sensitized"}


def _candidate_paths(netlist, site_stride, max_paths):
    """The distinct candidate paths of every ``site_stride``-th
    gate-output net, in first-seen order."""
    sites = [net for net in netlist.topological_nets()
             if netlist.gate_driving(net) is not None][::site_stride]
    paths = {}
    for net in sites:
        for path in paths_through(netlist, net, max_paths=max_paths):
            paths.setdefault(tuple(path), path)
    return list(paths.values())


def test_search_work_matches_recorded_reference():
    """Every search of the C432 site set, at the campaign's backtrack
    limit (some end on it), makes the recorded assignment with the
    recorded backtracks and implication gate evaluations."""
    reference = json.loads(PODEM_REFERENCE.read_text())
    netlist = generate_c432_like(seed=reference["seed"])
    records = reference["paths"]
    assert [record["path"] for record in records] == _candidate_paths(
        netlist, reference["site_stride"], reference["max_paths"])
    limit = reference["max_backtracks"]
    outcomes = set()
    for record in records:
        got, outcome = None, "side input on path"
        with stats_scope() as stats:
            try:
                got = sensitize_path(netlist, record["path"],
                                     max_backtracks=limit)
            except ValueError:
                pass
            else:
                outcome = "unsensitized" if got is None else "sensitized"
        assert outcome == record["outcome"], record["path"]
        assert (None if got is None else [
            list(item) for item in got.assignment.items()]) == (
                record["assignment"]), record["path"]
        assert stats.total("atpg_sensitizations") == 1
        assert stats.total("atpg_backtracks") == record["backtracks"]
        assert stats.total("atpg_gate_evaluations") == (
            record["gate_evaluations"]), record["path"]
        outcomes.add(outcome)
    assert outcomes == {"sensitized", "unsensitized", "side input on path"}
    assert max(record["backtracks"] for record in records) == limit + 1
