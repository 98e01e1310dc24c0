"""Bracket searches run as population bisection.

Every electrical search of the flow is a bisection over a decision that
is monotone along its bracket: does a pulse of width ``w`` survive the
path, is a defect of resistance ``R`` detected, does a bridge of
resistance ``R`` still flip a static level.  Probed one at a time, each
decision costs one single-circuit simulation.

:func:`bisect_populations` runs any number of such searches together,
in rounds.  A round takes every search whose bracket is still open and
evaluates the midpoints of its next :data:`LEVELS_PER_ROUND` bisection
levels: the nodes of its bisection tree that the search's own loop
condition lets the sequential loop reach, at most ``2**m - 1`` of them.
The probes of all searches that share a ``group`` (one circuit
topology) are decided by one call, i.e. one lockstep population.  The
round then walks each tree along the decisions, to the bracket the
sequential loop holds after those levels.

Exactness: the walk reads the same decisions at the same midpoints as
the sequential loop, each computed by the same expression from the same
bracket, so a search ends on exactly the sequential loop's bracket and
returns its value whenever a probe's decision depends on its value
alone, not on the other probes of its population; the other probes of a
round are speculation the decisions discard.  This needs no
monotonicity: a non-monotone decider ends where the sequential loop
ends too, on one of its transitions.  Monotonicity is what makes that
bracket *the* threshold.  The electrical deciders meet the condition up
to the population's numerics (lockstep Newton, the population's shared
window), which move a measured width or delay by about 1e-17 s and no
decision (``tests/core/test_search.py`` checks the 7-gate path).
"""

#: bisection levels one round evaluates, i.e. ``2**LEVELS_PER_ROUND - 1``
#: midpoints per open bracket.  Chosen by timing the defect calibration
#: (``DefectCalibration.from_electrical``: 5 width searches of 8
#: levels) at 1 to 5 and 8 levels per round, at dt 20 ps and 5 ps: 3
#: and 4 tied within noise, about 10 % ahead of 2 (see DESIGN.md,
#: "Population bisection").
LEVELS_PER_ROUND = 4


class BracketSearch:
    """One bisection: its bracket and the rules of the loop it replaces.

    ``midpoint(lo, hi)`` is the site's midpoint expression and
    ``is_open(lo, hi)`` its loop condition.  ``passes_high`` tells where
    the decider passes: True when it passes at ``hi`` (a passing
    midpoint becomes the new ``hi``), False when it passes at ``lo``.
    Searches with equal ``group`` are decided together.

    After :func:`bisect_populations`, ``lo``/``hi`` hold the final
    bracket and ``result`` the sequential loop's return value: ``None``
    when the passing end fails its pre-check, the other end when that
    end already passes, and otherwise the passing end of the bracket.
    """

    def __init__(self, lo, hi, midpoint, is_open, passes_high=True,
                 group=None):
        self.lo = lo
        self.hi = hi
        self.midpoint = midpoint
        self.is_open = is_open
        self.passes_high = passes_high
        self.group = group
        self.result = None

    def ends(self):
        """``(passing end, other end)`` of the bracket."""
        return (self.hi, self.lo) if self.passes_high else (self.lo, self.hi)

    def tree(self, lo, hi, depth, probes):
        """The nodes the sequential loop can reach from ``(lo, hi)``
        within ``depth`` levels, as nested ``(probe index, below,
        above)`` tuples (None where the loop stops); appends their
        midpoints to ``probes``."""
        if depth == 0 or not self.is_open(lo, hi):
            return None
        mid = self.midpoint(lo, hi)
        probes.append(mid)
        index = len(probes) - 1
        return (index, self.tree(lo, mid, depth - 1, probes),
                self.tree(mid, hi, depth - 1, probes))

    def walk(self, node, probes, passed):
        """Follow the decisions from ``node`` down, moving the bracket
        the way the sequential loop would."""
        while node is not None:
            index, below, above = node
            if passed[index] == self.passes_high:
                self.hi, node = probes[index], below
            else:
                self.lo, node = probes[index], above

    def __repr__(self):
        return "BracketSearch([{!r}, {!r}], result={!r})".format(
            self.lo, self.hi, self.result)


def _decide_by_group(searches, probes, decide):
    """Decisions of ``probes`` (``(search index, x)`` pairs), one
    ``decide`` call per group of searches."""
    groups = {}
    for position, (index, _) in enumerate(probes):
        groups.setdefault(searches[index].group, []).append(position)
    passed = [None] * len(probes)
    for positions in groups.values():
        for position, value in zip(positions, decide(
                [probes[position] for position in positions])):
            passed[position] = bool(value)
    return passed


def bisect_populations(searches, decide):
    """Run ``searches`` (:class:`BracketSearch`) to their results.

    ``decide(probes)`` receives ``(search index, x)`` pairs, all from
    searches of one group, and returns one truth value per pair; each
    call is meant to be one population.  The first round decides both
    ends of every bracket; each later round :data:`LEVELS_PER_ROUND`
    bisection levels of every bracket still open.  Returns the
    searches' results, in order.
    """
    searches = list(searches)
    probes = [(index, end) for index, search in enumerate(searches)
              for end in search.ends()]
    passed = _decide_by_group(searches, probes, decide)
    active = []
    for index, search in enumerate(searches):
        passing_end_ok, other_end_ok = passed[2 * index:2 * index + 2]
        if not passing_end_ok:
            search.result = None
        elif other_end_ok:
            search.result = search.ends()[1]
        else:
            active.append(index)
    while active:
        trees, probes = [], []
        for index in active:
            search = searches[index]
            mids = []
            trees.append((search.tree(search.lo, search.hi,
                                      LEVELS_PER_ROUND, mids),
                          len(probes), mids))
            probes.extend((index, mid) for mid in mids)
        passed = _decide_by_group(searches, probes, decide)
        still_open = []
        for index, (tree, offset, mids) in zip(active, trees):
            search = searches[index]
            search.walk(tree, mids, passed[offset:offset + len(mids)])
            if search.is_open(search.lo, search.hi):
                still_open.append(index)
            else:
                search.result = search.ends()[0]
        active = still_open
    return [search.result for search in searches]
