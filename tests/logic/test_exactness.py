"""The pruned path enumeration and the event-driven PODEM return exactly
what the unpruned, full re-simulation algorithms return.

Both references are kept here in their plain form: ``paths_through`` as
a DFS from every terminal through the whole netlist graph, and PODEM
re-simulating every net after each decision.  The checks compare order,
assignments (in decision order) and backtrack counts, not just sets.
"""

from itertools import islice

import networkx as nx
import pytest

from repro.logic import (c17, generate_c432_like, paths_through,
                         sensitize_path, side_input_objectives)
from repro.logic.atpg import _backtrace
from repro.runtime.stats import stats_scope

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
            pi, value = _backtrace(netlist, unresolved[0],
                                   objectives[unresolved[0]], values)
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
