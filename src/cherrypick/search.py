"""Greedy construction and exact minimum-weight search.

``greedy_cps`` always produces a valid sequence (its weight is an upper
bound); ``min_weight_cps`` finds the exact minimum by iterative-deepening
depth-first search over pairs of forests, memoized on their label
partitions.  The minimum weight over all sequences equals the hybrid
number of the two forests, and for two trees the TBR distance between
them.

The search is single-threaded and deterministic: the witness of an exact
result is the lexicographically least optimal trace under the step
ordering, also when the greedy sequence is already optimal.
"""

import time
from itertools import chain
from typing import NamedTuple

from .errors import CapExceeded, GroundSetMismatch, NotATree
from .reductions import (
    ReductionStep,
    ReductionTrace,
    _isolated_moves,
    _ordered_moves,
    _pair_moves,
    _path_end_edges,
    applicable_steps,  # unused here, but bench/tracer.py wraps search.applicable_steps
    apply_action,
    apply_step,
)


class _BudgetExceeded(Exception):
    pass


class SearchStats:
    """Counters of one search.  ``nodes`` counts expanded states (the node
    budget counts these), ``applied`` the cuts and drops the search
    applied (a branch child that is the drop of a leaf its cut would
    isolate counts once, see ``_closed``), ``forced`` the free steps it
    took without branching (not the C3 step such a cut would force), and
    ``level_nodes[k]`` the nodes expanded while deciding whether the
    weight is at most k (the witness walk's nodes are in ``nodes`` only).
    The input's own common-cherry chain, which ``_solve`` takes once
    before anything else, is counted once in ``forced`` and ``applied``
    and in neither ``nodes`` nor ``level_nodes``: its states are never
    expanded, so a value-only solve has ``nodes == sum(level_nodes)``.
    ``memo_size`` the memo entries held when the search ended, and
    ``stop_reason`` why it ended: "exact" once the minimum is proven,
    "budget" when the node budget ran out first, "cap" when every weight
    up to a distance cap was ruled out first.
    """

    __slots__ = ("nodes", "memo_hits", "elapsed", "applied", "forced", "level_nodes",
                 "memo_size", "stop_reason")

    def __init__(self, nodes=0, memo_hits=0, elapsed=0.0, applied=0, forced=0,
                 level_nodes=None, memo_size=0, stop_reason=None):
        self.nodes, self.memo_hits, self.elapsed, self.applied = nodes, memo_hits, elapsed, applied
        self.forced, self.memo_size, self.stop_reason = forced, memo_size, stop_reason
        self.level_nodes = [] if level_nodes is None else level_nodes

    def _asdict(self):
        """The counters by name, in field order (``hybrid --json``'s "stats")."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return "SearchStats(%s)" % ", ".join("%s=%r" % item for item in self._asdict().items())


class SearchResult(NamedTuple):
    """Outcome of a minimum-weight search.

    ``status`` is "exact" when lower == upper is the true minimum, or
    "bounded" when a node budget (or, inside the package, a distance cap)
    stopped the search first; the witness always validates with weight
    equal to ``upper``.
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


def _common_cherry_step(F2, cherries):
    """The first legal C1 step in the order of ``applicable_steps``, or
    None: the first of F's `cherries` that is a cherry of F2 too."""
    for a, b in cherries:
        if F2.has_cherry((a, b)):
            return ReductionStep(a, "C1", "forward", y=b)
    return None


def _free_step(F, F2, cherries):
    """The first legal C1 step, else the first legal C3 step, in the order
    of ``applicable_steps``; None when no free step exists.  `cherries` is
    ``F.cherries()``, which the caller keeps for its own use."""
    step = _common_cherry_step(F2, cherries)
    if step is None:
        isolated = _isolated_moves(F, F2)
        step = isolated[0][0] if isolated else None
    return step


def _common_cherry_chain(F, F2):
    """Take C1 steps, each the first legal one, until the pair has no
    common cherry or one label is left: the steps, in order, and the
    reduced pair.  Each step is the one ``_free_step`` returns at its
    state."""
    steps = []
    while len(F.ground_set) > 1:
        step = _common_cherry_step(F2, F.cherries())
        if step is None:
            break
        F, F2, _ = apply_action(F, F2, ("drop", step.label))
        steps.append(step)
    return tuple(steps), F, F2


def _greedy_pick(F, F2):
    """Choose the next step(s) following the existence argument, each
    paired with its resolved action: take the first free C1/C3 step,
    otherwise cut the pendant edge of a leaf of the first cherry and then
    drop that leaf, giving the (x, x, ...) pattern."""
    cherries = F.cherries()
    free = _free_step(F, F2, cherries)
    if free is not None:
        return [(free, ("drop", free.label))]
    # F has no isolated vertex, so it has a cherry; with no free step, one
    # of its orderings has C2 moves, and the first of them cuts e_x in F,
    # which leaves x an isolated vertex of F
    x, y = cherries[0]
    cut = next(chain(_pair_moves(F, F2, x, y, "forward"), _pair_moves(F, F2, y, x, "forward")))
    label = cut[0].label
    return [cut, (ReductionStep(label, "C3", "forward"), ("drop", label))]


def _check_ground_sets(F, F2):
    """Reject forests on different or empty label sets."""
    if F.ground_set != F2.ground_set or not F.ground_set:
        raise GroundSetMismatch("forests must share a non-empty label set")


def greedy_cps(F, F2):
    """A valid cherry picking sequence for any pair of forests on the same
    labels, of length at least |X|; weight 0 whenever only C1/C3 steps are
    needed.  Every step comes from ``_free_step`` or ``_pair_moves`` with
    its action resolved, so greedy applies that action without a check."""
    _check_ground_sets(F, F2)
    steps = []
    cur_F, cur_F2 = F, F2
    while len(cur_F.ground_set) > 1:
        for step, action in _greedy_pick(cur_F, cur_F2):
            cur_F, cur_F2, _ = apply_action(cur_F, cur_F2, action)
            steps.append(step)
    (terminal,) = cur_F.ground_set
    return ReductionTrace(tuple(steps), terminal=terminal)


# ---------------------------------------------------------------------------
# exact search


def _cherry_moves(F, F2, cherry):
    """The cut actions the search branches on at a state without a free
    step, around F's first cherry (x, y) (see ``_Searcher``): e_x, then
    e_y unless it is the same edge, in F; when x and y share a tree of F2,
    the pendant subtrees at u_1, then u_m, of their path x, u_1..u_m, y,
    which are the C2b_ii edges of (x, y) and of (y, x)."""
    x, y = cherry
    comp = F.component_index(x)
    e_x, e_y = (F.components[comp].pendant_edge(leaf) for leaf in (x, y))
    actions = [("cut", 0, comp, e) for e in ((e_x,) if e_x == e_y else (e_x, e_y))]
    b_comp = F2.component_index(x)
    if F2.component_index(y) == b_comp:
        actions.extend(("cut", 1, b_comp, e) for e in _path_end_edges(F2.components[b_comp], x, y))
    return actions


def _closed(F, F2, action):
    """`action`, or ("drop", z) when it cuts an edge whose end in the
    tree it cuts is a leaf labelled z (the first such end in edge order).

    The cut leaves z an isolated vertex of that forest, so its C3 step is
    legal and free, and the cut and then the drop of z reach the state
    that dropping z from both forests reaches: both forests restricted to
    the other labels.  A free step keeps the value (see ``_Searcher``),
    so the drop child has the cut child's value, one node and one surgery
    sooner."""
    if action[0] == "cut":
        _, side, comp, edge = action
        labels = (F2 if side else F).components[comp].labels
        for end in edge:
            if end in labels:
                return ("drop", labels[end])
    return action


class _Searcher:
    """Iterative-deepening search over pairs of forests, memoized on
    their label partitions.

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
    the search branches on the cuts of ``_cherry_moves`` around the first
    cherry (x, y) of F: e_x and e_y in F and, when x and y share a tree of
    F2, the pendant subtrees at the two ends u_1 and u_m of their path
    there.  This is the sibling-pair lemma for maximum agreement forests
    (Whidden, Beiko & Zeh, "Fixed-parameter algorithms for maximum
    agreement forests", SIAM J. Comput. 2013; Chen, Fan & Sze,
    "Parameterized and approximation algorithms for maximum agreement
    forest in multifurcating trees", TCS 2015), which branches on one
    sibling pair.  The value of a state is the hybrid number h(F, F2) of
    its pair, and one plus the least child value is that number because:

    * The cut set contains an optimal first step.  With no free step,
      (x, y) is not a cherry of F2 and neither forest has an isolated
      vertex.  Take an optimal sequence and trace x and y through it:
      either one of them becomes isolated first, or the two become a
      common cherry first.  In the first case the cut that isolates x
      (or y) is traded for e_x (or e_y) in F at the same cost: cutting
      x's pendant edge in either forest and then dropping x leaves the
      same state, both forests restricted to the other labels, and cuts
      in different places commute, so it can go first.  In the second
      case x and y share a tree of F2, with path x, u_1, ..., u_m, y, and
      m >= 2 since (x, y) is not a cherry there.  An unrooted path becomes
      a cherry once all but one of its pendant subtrees are gone, so the
      subtree at u_1 or the one at u_m is cut, and that cut can go first.
    * Each child is an upper bound.  A child need not be a legal step (an
      end cut in F2 often is not), so the bound goes through networks.
      Take a network that displays the child pair.  Add one edge between
      the images of the cut's two sides, as ``BuildState.add_display_edge``
      does when it undoes a cut.  The result displays the parent pair, so
      h(F, F2) <= 1 + h(child).

    One identity makes most children cheaper to reach:

    * A cut that leaves a leaf z isolated is branched on as the drop of z
      (``_closed``).  That is e_x or e_y, or an end subtree in F2 that is
      the one leaf z.  The cut makes z an isolated vertex, whose C3 step
      is free and keeps the value (see above), and the cut and then that
      step reach the state the drop reaches: both forests restricted to
      the other labels.  So the drop child has the cut child's value, and
      the search builds it with one surgery and one node fewer.  The
      witness walk's probes apply their moves the same way.

    A branch that cuts only in F2 keeps (x, y) a cherry of F, but not
    always the first: the drop of a one-leaf end subtree removes that
    leaf from F too, and that can make a cherry that sorts before (x, y).

    The argument that the cut set contains an optimal first step is a
    sketch in the lemma's terms, not a formal proof, so it is also
    checked: the tests compare the search with a full-branching reference
    on every tree pair up to five leaves and on seeded forest pairs up to
    eight leaves, and ``slow`` tests on every pair of six-leaf trees and
    on seeded nine-leaf tree pairs.

    A child is built only when its cost is below the current best, and
    the search applies its cuts and drops unchecked.  Surgery builds its
    trees unchecked too (see ``trees``): they are valid by construction,
    and surgery's tests judge them against ``restrict``.

    ``_solve`` takes the input pair's own chain of C1 steps once, with
    ``_common_cherry_chain``, before greedy, the deepening levels and the
    witness walk run, and starts all three from the reduced pair.  Each
    level would otherwise expand the chain's states again: their memo
    entries from the level before are lower bounds below the new cutoff.
    The reduced pair has the input's value, because a free step keeps
    the value (see above), and the outputs do not change, because greedy
    and the walk both begin with exactly this chain: at a state with a C1
    step, greedy takes ``_free_step``'s step, the first C1 step, and the
    walk takes the same step through ``_common_cherry_chain`` (see
    below).

    The witness walk takes, at each state, the first step in the order of
    ``applicable_steps`` whose child keeps the optimal value, so the
    witness is the lexicographically least optimal trace whichever moves
    the search branched on.  Two cases are settled with no enumeration
    and no search:

    * The state has a C1 step.  "C1" sorts before every other rule under
      ``sort_key``, the least C1 step is ``_common_cherry_chain``'s next
      step, and a free step keeps the value (see above), so that step is
      the choice.  The walk takes such steps through that chain.
    * No weight is left to pay.  Only free steps fit and each of them
      keeps the value.  With no C1 step left, the least free step is the
      first C3 step (in ``sort_key`` order).

    Elsewhere a C2 step can sort before the free C3 step and keep the
    value as well, so the walk reads the moves of ``_ordered_moves`` in
    turn and asks the search for each child's value.  That is exact and
    cheap:

    * The moves come in step order, the order of ``legal_moves``:
      ``_ordered_moves`` merges one stream per ordered cherry and
      orientation, plus the C3 moves, and each stream is in step order
      already, so the merge is the sorted list.
    * A stream advances only past the moves the walk rejected, so its
      pendant-shape or x--y path search runs only once its cheaper
      moves failed; the first move of every stream needs neither.
    * A probe applies its move through ``_closed`` (see above), then
      drops every isolated label of the child before asking
      ``residual``.  Each drop is a legal C3 step, and a free step keeps
      the value (see above), so the answer is unchanged; the dropped
      child is the state the search itself reaches after a cut, whose
      value the memo often holds already.
    * A probe applies its move's resolved action unchecked, as each move
      comes with it.  A step chosen among the moves then goes through
      the checked ``apply_step``, so it is checked before ``hybrid
      --trace-out`` writes it, whether or not anything replays the
      trace.  The free steps taken without enumerating (the C1 chains,
      and C3 steps once no weight is left) are applied as resolved, as
      greedy applies its steps.

    The memo key of a state is the label partition of each forest, never
    a rendering of its trees.  Steps only cut edges and drop leaves, and
    both delete edges and suppress the degree-two vertices left, so every
    component of a state is the input component holding its labels
    restricted to those labels (Allen & Steel's agreement-forest view).
    One searcher only sees descendants of one input pair, so the two
    partitions determine the state.  The key joins each component's
    sorted labels with "," and the sorted component strings with ";";
    neither character can occur in a label, so distinct partitions get
    distinct keys.
    """

    def __init__(self, budget=None):
        self.budget = budget
        self.stats = SearchStats()
        # state key -> (value, exact); non-exact entries are lower bounds
        self.memo = {}

    @staticmethod
    def _key(F, F2):
        return tuple(
            ";".join(sorted(",".join(sorted(t.vertex_of)) for t in forest.components))
            for forest in (F, F2)
        )

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
        """Record a state's result; the write never loses information:

        * every write follows a lookup miss on the same key at the same
          cutoff (``residual`` stores the keys of its chain once it has
          their value);
        * a miss means there is no entry, or a non-exact bound below
          that cutoff;
        * the new entry is exact, or equals the cutoff, so it supersedes
          the old one;
        * no descendant shares the key, because each step drops a label
          or adds a component, so nothing wrote the key in between.
        """
        self.memo[key] = (best, exact)

    def residual(self, F, F2, cutoff):
        """min(true residual weight, cutoff); exact when below cutoff.
        Every caller passes a cutoff of at least one."""
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
            cherries = F.cherries()
            step = _free_step(F, F2, cherries)
            if step is None:
                best = self._branch(F, F2, cutoff, cherries[0])
                break
            self.stats.forced += 1
            self.stats.applied += 1
            F, F2, _ = apply_action(F, F2, ("drop", step.label))
        exact = best < cutoff
        for key in chain:
            self._store(key, best, exact)
        return best

    def _branch(self, F, F2, cutoff, cherry):
        """min(value, cutoff) of a state whose steps all cost one, around
        F's first cherry."""
        best = cutoff
        if best <= 1:
            return best
        for action in _cherry_moves(F, F2, cherry):
            nF, nF2, _ = apply_action(F, F2, _closed(F, F2, action))
            self.stats.applied += 1
            best = min(best, 1 + self.residual(nF, nF2, best - 1))
            if best <= 1:
                break
        return best

    def _probe(self, F, F2, action, cutoff):
        """``residual`` of the child that `action` makes, with its
        isolated labels dropped first (see the class doc); one label
        stays when every label is isolated."""
        F, F2, _ = apply_action(F, F2, _closed(F, F2, action))
        isolated = _isolated_moves(F, F2)
        for _, drop in isolated[: len(F.ground_set) - 1]:
            F, F2, _ = apply_action(F, F2, drop)
        return self.residual(F, F2, cutoff)

    def witness(self, F, F2, weight):
        """The lexicographically least optimal trace, by always taking the
        first step (in enumeration order) that preserves optimality; a
        C1 step, and any free step once `weight` is paid, is taken without
        enumerating (see the class doc)."""
        steps = []
        cur_F, cur_F2, need = F, F2, weight
        while True:
            head, cur_F, cur_F2 = _common_cherry_chain(cur_F, cur_F2)
            steps.extend(head)
            if len(cur_F.ground_set) == 1:
                break
            if need == 0:
                # a state of value 0 has a free step, here a C3 step
                step, action = _isolated_moves(cur_F, cur_F2)[0]
                cur_F, cur_F2, _ = apply_action(cur_F, cur_F2, action)
                steps.append(step)
                continue
            # a step costs at most one, so every step fits
            for step, action in _ordered_moves(cur_F, cur_F2):
                rest = need - step.cost
                if self._probe(cur_F, cur_F2, action, rest + 1) == rest:
                    break
            else:  # pragma: no cover - a valid minimum always has a step
                raise AssertionError("no step preserves the optimal weight")
            cur_F, cur_F2 = apply_step(cur_F, cur_F2, step)
            steps.append(step)
            need = rest
        (terminal,) = cur_F.ground_set
        return ReductionTrace(tuple(steps), terminal=terminal)


def min_weight_cps(F, F2, budget=None):
    """Exact minimum weight over all cherry picking sequences, with a
    witness trace.

    Iterative deepening proves each level exhausted before admitting one
    more C2 step; the greedy sequence provides the initial upper bound.
    Free C1/C3 steps are forced rather than branched on (see
    ``_Searcher`` for why that keeps the minimum).  The input's own
    common cherries are picked once, before greedy and the search start,
    and that chain heads both the greedy trace and the witness, which
    are what greedy and the walk on the input pair return.  With a node
    ``budget``, a "bounded" result reports the best interval instead of
    exactness; the budget limits the search itself, not the witness walk
    for an already-proven minimum.
    """
    return _solve(F, F2, budget=budget)


def _solve(F, F2, budget=None, cap=None, walk=True):
    """``min_weight_cps`` for the package's own callers: with a ``cap``,
    the search stops as "bounded" (stop reason "cap") once every weight up
    to ``cap`` is ruled out, and ``walk=False`` skips the witness walk for
    callers that need only the value (the witness is then None).  A
    negative budget or cap raises ValueError, and forests on different or
    empty label sets GroundSetMismatch, before the chain is taken."""
    for name, bound in (("budget", budget), ("cap", cap)):
        if bound is not None and bound < 0:
            raise ValueError("%s must be non-negative, got %r" % (name, bound))
    start = time.monotonic()
    _check_ground_sets(F, F2)
    searcher = _Searcher(budget)
    stats = searcher.stats
    head, F, F2 = _common_cherry_chain(F, F2)
    stats.forced = stats.applied = len(head)
    greedy = greedy_cps(F, F2)
    upper_trace = greedy._replace(steps=head + greedy.steps)
    upper = upper_trace.weight
    value = 0  # every weight below `value` is ruled out
    witness = upper_trace
    try:
        while value < upper and (cap is None or value <= cap):
            before = stats.nodes
            try:
                found = searcher.residual(F, F2, value + 1)
            finally:
                stats.level_nodes.append(stats.nodes - before)
            if found <= value:
                upper = value
                break
            value += 1
    except _BudgetExceeded:
        status, stats.stop_reason = "bounded", "budget"
    else:
        if value < upper:
            status, stats.stop_reason = "bounded", "cap"
        else:
            status, stats.stop_reason = "exact", "exact"
            if not walk:
                witness = None
            elif upper > 0:
                # at weight 0 the greedy trace is the walk's choice: it
                # takes the first free step at every state
                searcher.budget = None
                tail = searcher.witness(F, F2, value)
                witness = tail._replace(steps=head + tail.steps)
    stats.elapsed = time.monotonic() - start
    stats.memo_size = len(searcher.memo)
    return SearchResult(status, value, upper, witness, stats)


def hybrid_number(F, F2):
    """Minimum reticulation number over networks displaying both forests,
    computed as the minimum cherry picking weight."""
    return _solve(F, F2, walk=False).min_weight


def tbr_distance(T, T2, cap=None):
    """Tree bisection and reconnection distance between two trees given as
    single-component forests: the minimum cherry picking weight, and 0
    without a search when the trees are equal.  Raises CapExceeded when
    the distance exceeds ``cap``, as soon as the search has ruled out
    every distance up to it, and ValueError for a negative ``cap``."""
    if cap is not None and cap < 0:
        raise ValueError("cap must be non-negative, got %r" % (cap,))
    if len(T.components) != 1 or len(T2.components) != 1:
        raise NotATree("tbr needs single-tree inputs")
    if T.ground_set != T2.ground_set:
        raise GroundSetMismatch("trees are on different label sets")
    if T == T2:
        return 0
    result = _solve(T, T2, cap=cap, walk=False)
    if cap is not None and result.lower > cap:
        raise CapExceeded("TBR distance exceeds cap %d" % cap)
    return result.lower


__all__ = [
    "SearchResult",
    "SearchStats",
    "greedy_cps",
    "hybrid_number",
    "min_weight_cps",
    "tbr_distance",
]
