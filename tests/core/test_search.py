"""Population bisection against the sequential bisection it replaces.

The references below are the loops the four electrical searches ran
before they moved onto :func:`repro.core.search.bisect_populations`,
with the decider, midpoint and loop condition as parameters:
``rising`` is the shape of ``minimum_propagatable_width`` and
``estimate_r_min`` (the decider passes at ``hi``), ``falling`` the shape
of ``bridging_critical_resistance`` (it passes at ``lo``).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import build_path
from repro.core import search as search_module
from repro.core.pulse import measure_output_pulse_batch
from repro.core.search import BracketSearch, bisect_populations
from repro.core.transfer import (minimum_propagatable_width,
                                 pulses_survive, width_search)

MIDPOINTS = {
    "arithmetic": lambda lo, hi: 0.5 * (lo + hi),
    "sqrt": lambda lo, hi: math.sqrt(lo * hi),
    "power": lambda lo, hi: (lo * hi) ** 0.5,
}


def sequential_rising(lo, hi, midpoint, is_open, passes):
    """``(result, final bracket, probes)`` of the loop that passes at
    ``hi``."""
    probes = []

    def decide(x):
        probes.append(x)
        return passes(x)

    if not decide(hi):
        return None, (lo, hi), probes
    if decide(lo):
        return lo, (lo, hi), probes
    while is_open(lo, hi):
        mid = midpoint(lo, hi)
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return hi, (lo, hi), probes


def sequential_falling(lo, hi, midpoint, is_open, passes):
    """The same for the loop that passes at ``lo``."""
    probes = []

    def decide(x):
        probes.append(x)
        return passes(x)

    if not decide(lo):
        return None, (lo, hi), probes
    if decide(hi):
        return hi, (lo, hi), probes
    while is_open(lo, hi):
        mid = midpoint(lo, hi)
        if decide(mid):
            lo = mid
        else:
            hi = mid
    return lo, (lo, hi), probes


def stop_rule(kind, tol):
    if kind == "absolute":
        return lambda lo, hi: hi - lo > tol
    return lambda lo, hi: hi - lo > tol * lo


class Recorder:
    """A decider over ``(search index, x)`` probes that records each
    call (one population)."""

    def __init__(self, passes):
        self.passes = passes
        self.calls = []

    def __call__(self, probes):
        self.calls.append(list(probes))
        return [self.passes[index](x) for index, x in probes]


@st.composite
def bisection_cases(draw):
    lo = draw(st.floats(min_value=1e-12, max_value=1e3))
    hi = lo * draw(st.floats(min_value=1.01, max_value=1e4))
    rule = draw(st.sampled_from(["absolute", "relative"]))
    rel = draw(st.floats(min_value=1e-4, max_value=0.5))
    tol = rel * (hi - lo) if rule == "absolute" else rel
    # thresholds inside the bracket, and outside it for both pre-check
    # exits
    where = draw(st.floats(min_value=-0.2, max_value=1.2))
    threshold = lo + where * (hi - lo)
    midpoint = draw(st.sampled_from(sorted(MIDPOINTS)))
    passes_high = draw(st.booleans())
    return dict(lo=lo, hi=hi, midpoint=MIDPOINTS[midpoint],
                is_open=stop_rule(rule, tol), threshold=threshold,
                passes_high=passes_high)


def sequential(case, passes):
    loop = sequential_rising if case["passes_high"] else sequential_falling
    return loop(case["lo"], case["hi"], case["midpoint"], case["is_open"],
                passes)


def monotone(case):
    threshold = case["threshold"]
    if case["passes_high"]:
        return lambda x: x >= threshold
    return lambda x: x <= threshold


def make_search(case, group=None):
    return BracketSearch(case["lo"], case["hi"], case["midpoint"],
                         case["is_open"], passes_high=case["passes_high"],
                         group=group)


class TestMonotoneDeciders:
    @given(levels=st.integers(min_value=1, max_value=4),
           cases=st.lists(bisection_cases(), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_bisection(self, levels, cases):
        searches = [make_search(case, group=k % 2)
                    for k, case in enumerate(cases)]
        decide = Recorder([monotone(case) for case in cases])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "LEVELS_PER_ROUND", levels)
            results = bisect_populations(searches, decide)
        for index, (case, search, result) in enumerate(
                zip(cases, searches, results)):
            want, bracket, probes = sequential(case, monotone(case))
            assert result == want
            assert search.result == want
            assert (search.lo, search.hi) == bracket
            # every sequential probe was evaluated by some population
            assert set(probes) <= {x for call in decide.calls
                                   for k, x in call if k == index}
        # one call per group per round, each within the round's budget
        n_groups = len({search.group for search in searches})
        first_round = decide.calls[:n_groups]
        assert sum(len(call) for call in first_round) == 2 * len(cases)
        for call in decide.calls:
            assert call
            assert len({searches[index].group for index, _ in call}) == 1
            for index in {index for index, _ in call}:
                assert (sum(1 for k, _ in call if k == index)
                        <= max(2, 2 ** levels - 1))

    @pytest.mark.parametrize("passes_high", [True, False])
    def test_pre_check_exits(self, passes_high):
        case = dict(lo=1.0, hi=2.0, midpoint=MIDPOINTS["arithmetic"],
                    is_open=stop_rule("absolute", 1e-3),
                    passes_high=passes_high)
        passing_end, other_end = (2.0, 1.0) if passes_high else (1.0, 2.0)
        # nothing passes: the passing end fails its pre-check -> None
        (result,) = bisect_populations([make_search(case)],
                                       Recorder([lambda x: False]))
        assert result is None
        assert sequential(case, lambda x: False)[0] is None
        # everything passes: the other end passes -> that end
        decide = Recorder([lambda x: True])
        (result,) = bisect_populations([make_search(case)], decide)
        assert result == other_end
        assert sequential(case, lambda x: True)[0] == other_end
        # both exits cost the one pre-check population of both ends
        assert decide.calls == [[(0, passing_end), (0, other_end)]]

    def test_round_probes_only_reachable_nodes(self):
        """With a relative stop rule and arithmetic midpoints, the low
        branches of the tree stay open longer than the high ones.  One
        round over all levels probes exactly the nodes the loop
        condition lets the sequential loop reach, far fewer than the
        full tree."""
        is_open = stop_rule("relative", 0.05)
        midpoint = MIDPOINTS["arithmetic"]

        def reachable(lo, hi):
            if not is_open(lo, hi):
                return 0
            mid = midpoint(lo, hi)
            return 1 + reachable(lo, mid) + reachable(mid, hi)

        case = dict(lo=1.0, hi=100.0, midpoint=midpoint, is_open=is_open,
                    passes_high=True, threshold=1.7)
        decide = Recorder([monotone(case)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "LEVELS_PER_ROUND", 12)
            (result,) = bisect_populations([make_search(case)], decide)
        assert result == sequential(case, monotone(case))[0]
        assert [len(call) for call in decide.calls] == [2,
                                                        reachable(1.0, 100.0)]
        assert reachable(1.0, 100.0) < 2 ** 12 - 1


class TestNonMonotoneDecider:
    def test_returns_the_sequential_loops_transition(self):
        """Pulses survive in [0.3, 0.5) and again from 0.8 on.  The
        helper reads each decision where the sequential loop would, so
        it returns the sequential loop's value: the transition at 0.8,
        which the first midpoint (0.5, dampened) steers to, and not the
        narrowest surviving width, 0.3."""
        def survives(x):
            return 0.3 <= x < 0.5 or x >= 0.8

        case = dict(lo=0.0, hi=1.0, midpoint=MIDPOINTS["arithmetic"],
                    is_open=stop_rule("absolute", 1e-3), passes_high=True)
        want, bracket, _ = sequential(case, survives)
        search = make_search(case)
        (result,) = bisect_populations([search], Recorder([survives]))
        assert result == want
        assert (search.lo, search.hi) == bracket
        assert result == pytest.approx(0.8, abs=1e-3)
        assert not survives(search.lo) and survives(search.hi)


class TestSevenGatePath:
    """The electrical width search on the reference path at 20 ps: the
    population bisection against a sequential bisection whose every
    probe runs on the lockstep engine too (a two-row population of the
    same instance at the probe's width).  The population rounds share
    one window, the widest of their rows'; identical brackets show that
    the shared window moves no decision."""

    DT = 2e-11

    def test_bracket_matches_sequential_lockstep_search(self):
        path = build_path()

        def survives(width):
            w_outs, _ = measure_output_pulse_batch(
                [path.copy(), path.copy()], width, dt=self.DT)
            assert w_outs[0] == w_outs[1]
            return w_outs[0] > 0.0

        want, bracket, probes = sequential_rising(
            0.05e-9, 1.0e-9, MIDPOINTS["arithmetic"],
            stop_rule("absolute", 5e-12), survives)
        search = width_search()
        (result,) = bisect_populations(
            [search], lambda batch: pulses_survive(
                [path] * len(batch), [w for _, w in batch], dt=self.DT))
        assert (search.lo, search.hi) == bracket
        assert result == want == minimum_propagatable_width(path,
                                                            dt=self.DT)
        assert math.isfinite(result) and len(probes) == 10


class TestCalibrationPopulations:
    def test_four_r_calibration_runs_the_predicted_populations(
            self, monkeypatch):
        """Two topologies (fault-free, faulty at 4 R), each: one delay
        population (rise and fall), one pre-check population (both
        bracket ends), then ceil(8 / LEVELS_PER_ROUND) rounds of the
        8-level width bisection."""
        import repro.core.pulse as pulse
        from repro.logic import DefectCalibration

        sizes = []
        original = pulse.run_transient_batch

        def counting(circuits, *args, **kwargs):
            sizes.append(len(circuits))
            return original(circuits, *args, **kwargs)

        monkeypatch.setattr(pulse, "run_transient_batch", counting)
        DefectCalibration.from_electrical(
            "external", [1e3, 4e3, 12e3, 40e3], dt=2e-11)
        levels = search_module.LEVELS_PER_ROUND
        rounds = [levels] * (8 // levels) + ([8 % levels] if 8 % levels
                                             else [])
        per_search = 2 + 2 + sum(2 ** m - 1 for m in rounds)
        assert len(sizes) == 2 * (2 + len(rounds))
        assert sorted(sizes) == sorted(
            [2, 8, 2, 8] + [2 ** m - 1 for m in rounds]
            + [4 * (2 ** m - 1) for m in rounds])
        assert sum(sizes) == 5 * per_search
