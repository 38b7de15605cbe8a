"""Greedy construction and exact minimum-weight search.

``greedy_cps`` always produces a valid sequence (its weight is an upper
bound); ``min_weight_cps`` finds the exact minimum by iterative-deepening
depth-first search over canonical state pairs with memoized bounds.  The
minimum weight over all sequences equals the hybrid number of the two
forests, and for two trees the TBR distance between them.

The search is single-threaded and deterministic: the witness of an exact
result is the lexicographically least optimal trace under the step
ordering, also when the greedy sequence is already optimal.
"""

import time
from dataclasses import dataclass, field
from itertools import chain

from .errors import GroundSetMismatch, NotATree
from .reductions import (
    ReductionStep,
    ReductionTrace,
    _pair_moves,
    applicable_steps,
    apply_action,
    apply_step,
    legal_moves,
)


class _BudgetExceeded(Exception):
    pass


@dataclass
class SearchStats:
    """Counters of one search.  ``nodes`` counts expanded states (the node
    budget counts these), ``applied`` the steps the search applied,
    ``forced`` the free steps it took without branching, and
    ``level_nodes[k]`` the nodes expanded while deciding whether the
    weight is at most k (the witness walk's nodes are in ``nodes`` only).
    """

    nodes: int = 0
    memo_hits: int = 0
    elapsed: float = 0.0
    applied: int = 0
    forced: int = 0
    level_nodes: list = field(default_factory=list)


@dataclass
class SearchResult:
    """Outcome of a minimum-weight search.

    ``status`` is "exact" when lower == upper is the true minimum, or
    "bounded" when a node budget ran out first; the witness always
    validates with weight equal to ``upper``.
    """

    status: str
    lower: int
    upper: int
    witness: ReductionTrace
    stats: SearchStats

    @property
    def min_weight(self):
        if self.status != "exact":
            return None
        return self.lower


# ---------------------------------------------------------------------------
# greedy existence construction


def _free_step(F, F2):
    """The first legal C1 step, else the first legal C3 step, in the order
    of ``applicable_steps``; None when no free step exists."""
    for a, b in F.cherries():
        if F2.has_cherry((a, b)):
            return ReductionStep(a, "C1", "forward", y=b)
    singles = [
        (next(iter(t.vertex_of)), orientation)
        for forest, orientation in ((F, "forward"), (F2, "reversed"))
        for t in forest.components
        if t.num_vertices == 1
    ]
    if singles:
        label, orientation = min(singles)
        return ReductionStep(label, "C3", orientation)
    return None


def _greedy_pick(F, F2):
    """Choose the next step(s) following the existence argument: take the
    first free C1/C3 step, otherwise cut the pendant edge of a leaf of the
    first cherry and then drop that leaf, giving the (x, x, ...) pattern."""
    free = _free_step(F, F2)
    if free is not None:
        return [free]
    # F has no isolated vertex, so it has a cherry; with no free step, one
    # of its orderings has C2 moves, and the first of them cuts e_x
    x, y = F.cherries()[0]
    cut, _ = next(chain(_pair_moves(F, F2, x, y, "forward"), _pair_moves(F, F2, y, x, "forward")))
    return [cut, ReductionStep(cut.label, "C3", "forward")]


def greedy_cps(F, F2):
    """A valid cherry picking sequence for any pair of forests on the same
    labels, of length at least |X|; weight 0 whenever only C1/C3 steps are
    needed."""
    if F.ground_set != F2.ground_set or not F.ground_set:
        raise GroundSetMismatch("forests must share a non-empty label set")
    steps = []
    cur_F, cur_F2 = F, F2
    while len(cur_F.ground_set) > 1:
        for step in _greedy_pick(cur_F, cur_F2):
            cur_F, cur_F2 = apply_step(cur_F, cur_F2, step)
            steps.append(step)
    (terminal,) = cur_F.ground_set
    return ReductionTrace(tuple(steps), terminal=terminal)


# ---------------------------------------------------------------------------
# exact search


class _Searcher:
    """Iterative-deepening search over pairs of forests, memoized on
    canonical state keys.

    Free steps are forced.  When a C1 or C3 step is legal, the search takes
    the first one (C1 before C3, each in enumeration order) as the state's
    only child and does not branch on the other steps.  This keeps the
    exact value, which is the hybrid number of the pair:

    * the step costs nothing, so value(state) <= value(child);
    * the child is both forests restricted to one label fewer, and a
      network displaying the two forests displays their restrictions once
      that leaf is deleted, so value(child) <= value(state).

    For C1 this is the common-cherry (subtree) reduction of Allen & Steel
    2001 ("Subtree transfer operations and their induced metrics on
    evolutionary trees"), which keeps the TBR distance; a C3 step deletes
    a label that is already an isolated vertex, which costs nothing and
    can only lower the weight still to pay.  Chains of forced steps are
    followed in a loop, so recursion depth grows with the number of C2
    steps, not with the label count.

    A state without a free step has only C2 steps, all of cost one, and a
    child is built only when that cost is below the current best.  The
    search applies the actions its own enumeration resolved, and a free
    step is always a drop, so no step is checked twice; the witness walk
    and ``greedy_cps`` go through the checked ``apply_step``.
    """

    def __init__(self, budget=None):
        self.budget = budget
        self.stats = SearchStats()
        # state key -> (value, exact); non-exact entries are lower bounds
        self.memo = {}

    @staticmethod
    def _key(F, F2):
        a, b = F.canonical, F2.canonical
        return (a, b) if a <= b else (b, a)

    def _lookup(self, key, cutoff):
        hit = self.memo.get(key)
        if hit is None:
            return None
        value, exact = hit
        if exact:
            self.stats.memo_hits += 1
            return min(value, cutoff)
        if value >= cutoff:
            self.stats.memo_hits += 1
            return cutoff
        return None

    def _store(self, key, best, exact):
        old = self.memo.get(key)
        if old is None or (exact and not old[1]) or (not exact and not old[1] and best > old[0]):
            self.memo[key] = (best, exact)

    def residual(self, F, F2, cutoff):
        """min(true residual weight, cutoff); exact when below cutoff."""
        if cutoff <= 0:
            return 0
        chain = []  # keys of the states passed on the way, all of equal value
        best = 0
        while len(F.ground_set) > 1:
            key = self._key(F, F2)
            hit = self._lookup(key, cutoff)
            if hit is not None:
                best = hit
                break
            self.stats.nodes += 1
            if self.budget is not None and self.stats.nodes > self.budget:
                raise _BudgetExceeded
            chain.append(key)
            step = _free_step(F, F2)
            if step is None:
                best = self._branch(F, F2, cutoff)
                break
            self.stats.forced += 1
            self.stats.applied += 1
            F, F2, _ = apply_action(F, F2, ("drop", step.label))
        exact = best < cutoff
        for key in chain:
            self._store(key, best, exact)
        return best

    def _branch(self, F, F2, cutoff):
        """min(value, cutoff) of a state whose steps all cost one."""
        best = cutoff
        if best <= 1:
            return best
        for _, action in legal_moves(F, F2):
            nF, nF2, _ = apply_action(F, F2, action)
            self.stats.applied += 1
            best = min(best, 1 + self.residual(nF, nF2, best - 1))
            if best <= 1:
                break
        return best

    def witness(self, F, F2, weight):
        """The lexicographically least optimal trace, by always taking the
        first step (in enumeration order) that preserves optimality."""
        steps = []
        cur_F, cur_F2, need = F, F2, weight
        while len(cur_F.ground_set) > 1:
            for step in applicable_steps(cur_F, cur_F2):
                cost = step.cost
                if cost > need:
                    continue
                nF, nF2 = apply_step(cur_F, cur_F2, step)
                rest = self.residual(nF, nF2, need - cost + 1)
                if rest == need - cost:
                    steps.append(step)
                    cur_F, cur_F2, need = nF, nF2, need - cost
                    break
            else:  # pragma: no cover - a valid minimum always has a step
                raise AssertionError("no step preserves the optimal weight")
        (terminal,) = cur_F.ground_set
        return ReductionTrace(tuple(steps), terminal=terminal)


def min_weight_cps(F, F2, budget=None):
    """Exact minimum weight over all cherry picking sequences, with a
    witness trace.

    Iterative deepening proves each level exhausted before admitting one
    more C2 step; the greedy sequence provides the initial upper bound.
    Free C1/C3 steps are forced rather than branched on (see
    ``_Searcher`` for why that keeps the minimum).  With a node
    ``budget``, a "bounded" result reports the best interval instead of
    exactness; the budget limits the search itself, not the witness walk
    for an already-proven minimum.
    """
    start = time.monotonic()
    upper_trace = greedy_cps(F, F2)
    upper = upper_trace.weight
    searcher = _Searcher(budget)
    stats = searcher.stats
    value = 0  # every weight below `value` is ruled out
    try:
        while value < upper:
            before = stats.nodes
            try:
                found = searcher.residual(F, F2, value + 1)
            finally:
                stats.level_nodes.append(stats.nodes - before)
            if found <= value:
                break
            value += 1
    except _BudgetExceeded:
        stats.elapsed = time.monotonic() - start
        return SearchResult("bounded", value, upper, upper_trace, stats)
    if upper == 0:
        # the greedy trace takes the first free step at every state, which
        # is the walk's choice when the weight is 0
        witness = upper_trace
    else:
        searcher.budget = None
        witness = searcher.witness(F, F2, value)
    stats.elapsed = time.monotonic() - start
    return SearchResult("exact", value, value, witness, stats)


def hybrid_number(F, F2):
    """Minimum reticulation number over networks displaying both forests,
    computed as the minimum cherry picking weight."""
    return min_weight_cps(F, F2).min_weight


def tbr_distance(T, T2):
    """Tree bisection and reconnection distance between two trees given as
    single-component forests."""
    for forest in (T, T2):
        if len(forest.components) != 1:
            raise NotATree("tbr distance needs single-component forests")
    return min_weight_cps(T, T2).min_weight


__all__ = [
    "SearchResult",
    "SearchStats",
    "greedy_cps",
    "hybrid_number",
    "min_weight_cps",
    "tbr_distance",
]
