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
)


class _BudgetExceeded(Exception):
    pass


@dataclass
class SearchStats:
    """Counters of one search.  ``nodes`` counts expanded states (the node
    budget counts these), ``applied`` the steps the search applied,
    ``forced`` the free steps it took without branching, and
    ``level_nodes[k]`` the nodes expanded while deciding whether the
    weight is at most k (the witness walk's nodes are in ``nodes`` only),
    ``memo_size`` the memo entries held when the search ended, and
    ``stop_reason`` why it ended: "exact" once the minimum is proven,
    "budget" when the node budget ran out first.
    """

    nodes: int = 0
    memo_hits: int = 0
    elapsed: float = 0.0
    applied: int = 0
    forced: int = 0
    level_nodes: list = field(default_factory=list)
    memo_size: int = 0
    stop_reason: str = None


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


def _cherry_moves(F, F2):
    """The actions of the C2 moves around the first cherry (x, y) of F:
    every forward move of (x, y) and of (y, x), and every reversed move of
    each cherry of F2 that contains x or y, in both orders.  Only called
    on a state without a free step, so F has a cherry and no move is C1.

    Moves that differ in label or rule can cut the same edge (C2a_i of
    (x, y) and of (y, x) both cut e_x and e_y), so each action is listed
    once, in the step order of its first move.
    """
    x, y = F.cherries()[0]
    moves = [*_pair_moves(F, F2, x, y, "forward"), *_pair_moves(F, F2, y, x, "forward")]
    for a in (x, y):
        for b in F2.cherry_partners(a):
            moves.extend(_pair_moves(F2, F, a, b, "reversed"))
            moves.extend(_pair_moves(F2, F, b, a, "reversed"))
    moves.sort(key=lambda move: move[0].sort_key())
    return list(dict.fromkeys(action for _, action in moves))


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

    A state without a free step has only C2 steps, all of cost one, and
    the search branches on one cherry: the moves of ``_cherry_moves``
    around the first cherry (x, y) of F.  Every one of them is a legal
    step, so each child gives an upper bound; the minimum is kept because
    some optimal sequence starts with one of them.  The argument is the
    sibling-pair lemma for maximum agreement forests (Whidden, Beiko &
    Zeh, "Fixed-parameter algorithms for maximum agreement forests", SIAM
    J. Comput. 2013; Chen, Fan & Sze, "Parameterized and approximation
    algorithms for maximum agreement forest in multifurcating trees",
    TCS 2015), which branches on one sibling pair.  With no free step,
    (x, y) is not a cherry of F2 and neither forest has an isolated
    vertex.  Take an optimal sequence and follow x and y through it:
    before the end, one of them is isolated in one forest (and dropped
    by C3) or the two form a common cherry (and one is dropped by C1).

    * One of them is isolated first.  Its pendant edge is cut in F or in
      F2, and the cut is traded for the one in F at the same cost: cutting
      e_x in either forest and then dropping x leaves the same state, both
      forests restricted to the other labels.  Cutting e_x or e_y in F is
      a forward move of (x, y) or (y, x): C2a_i when one of them is in a
      cherry of F2, else C2b_i or C2c, so one of the two orders has it.
    * They become a common cherry first.  Then every subtree that hangs
      off the x--y path of F2 is cut away on the way, as the lemma's
      third branch cuts every pendant subtree between the pair.  Cuts in
      different places commute, so the one next to x (or y) can go
      first: when it is a single leaf z, (x, z) is a cherry of F2 and the
      reversed C2a moves of that cherry cut e_z or a pendant subtree
      beyond it; otherwise it is the C2b_ii edge at x's neighbour.

    The forward C2a_ii/C2a_iii moves, which cut next to the pair in F,
    are legal moves of (x, y) as well and are kept: extra legal moves
    cannot take the value below the minimum.  While a branch cuts only
    in F2, F's first cherry stays (x, y), so the search keeps working on
    the same pair until it is resolved.  The argument above is a sketch
    in the lemma's terms, not a formal proof, so it is also checked: the
    tests compare the search with a full-branching reference on every
    tree pair up to five leaves and on seeded forest pairs up to eight
    leaves, and a ``slow`` test on every pair of six-leaf trees.

    A child is built only when its cost is below the current best.  The
    search applies the actions its own enumeration resolved, and a free
    step is always a drop, so no step is checked twice; the witness walk
    and ``greedy_cps`` enumerate every legal step through the checked
    ``applicable_steps`` and ``apply_step``, so the witness is the
    lexicographically least optimal trace whichever moves the search
    branched on.
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
        for action in _cherry_moves(F, F2):
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
        stats.memo_size = len(searcher.memo)
        stats.stop_reason = "budget"
        return SearchResult("bounded", value, upper, upper_trace, stats)
    if upper == 0:
        # the greedy trace takes the first free step at every state, which
        # is the walk's choice when the weight is 0
        witness = upper_trace
    else:
        searcher.budget = None
        witness = searcher.witness(F, F2, value)
    stats.elapsed = time.monotonic() - start
    stats.memo_size = len(searcher.memo)
    stats.stop_reason = "exact"
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
