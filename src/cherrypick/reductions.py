"""The cherry picking calculus on pairs of forests.

A reduction step removes a leaf from both forests (C1, C3) or cuts one
edge out of one forest (the C2 family).  An annotated sequence of steps
ending with both forests equal to the same single leaf is a cherry picking
sequence; its weight is the number of C2 steps.  Each rule may act with
the roles of the two forests reversed, recorded as the step orientation.

Rules and their side conditions, with x the step label and y its cherry
partner in the orientation's first forest A (B is the other forest):

* C1      -- (x,y) is a cherry of both forests; remove x from both.
* C2a_i   -- (x,z) is a cherry of B for some z != y; cut e_x or e_y in A.
* C2a_ii  -- additionally ((x,y),p) is a proper pendant subtree of x's
             tree in A; cut e_p or the subtree's cut-edge (e_xyp).
* C2a_iii -- additionally ((x,y),(p,q)) is a proper pendant subtree; cut
             e_p, e_q, or the cherry edge e_pq.
* C2b_i   -- x and y sit in one tree of B, neither in a cherry of B; cut
             e_x or e_y in A.
* C2b_ii  -- same condition, but cut the uniquely determined edge of B at
             x's neighbour that avoids the x--y path.
* C2c     -- x and y sit in different trees of B, neither an isolated
             vertex nor in a cherry of B; cut e_x or e_y in A.
* C3      -- x is an isolated vertex of the orientation's forest; remove
             x from both.

``_pair_moves`` states the C1/C2 side conditions once, and ``check_step``
looks a step up in it.  ``_isolated_moves`` lists the C3 steps, also for
the search's free step.  ``_ordered_moves`` merges the two into every
legal step in step order, lazily: ``legal_moves`` lists it, and the
search's witness walk reads it only as far as its choice.  C1 and
both-singleton C3 steps, whose two orientations have identical effect,
are enumerated with forward orientation only.
"""

import heapq
from typing import NamedTuple

from .errors import (
    BadTerminal,
    GroundSetMismatch,
    InapplicableStep,
    ReplayError,
)
from .trees import (
    Forest,
    _copy,
    _cut_edge,
    _drop_leaf,
    _edge,
    pendant_shapes,
    remove_edge_traced,
    remove_leaf_traced,
)


class RuleParams(NamedTuple):
    params: tuple  # the parameters a step of the rule carries
    cuts: tuple  # the allowed values of its ``cut`` parameter
    unmet: str  # the error when its side conditions (stated in _pair_moves) fail


_NO_Z = "no cherry ({x},z) with z != {y} in the other forest"
_NO_SHAPE = _NO_Z + ", or (({x},{y}),%s) is not a proper pendant subtree"
_NOT_C2B = "{x} and {y} are not in one tree of the other forest, or one is in a cherry there"
_NOT_C2C = "{x} and {y} share a tree of the other forest, or one is isolated or in a cherry there"

RULE_PARAMS = {
    "C1": RuleParams(("y",), (), "({x},{y}) is not a cherry of the other forest"),
    "C2a_i": RuleParams(("y", "cut"), ("e_x", "e_y"), _NO_Z),
    "C2a_ii": RuleParams(("y", "p", "cut"), ("e_p", "e_xyp"), _NO_SHAPE % "{p}"),
    "C2a_iii": RuleParams(("y", "p", "q", "cut"), ("e_p", "e_q", "e_pq"), _NO_SHAPE % "({p},{q})"),
    "C2b_i": RuleParams(("y", "cut"), ("e_x", "e_y"), _NOT_C2B),
    "C2b_ii": RuleParams(("y", "cut"), ("c2b_edge",), _NOT_C2B),
    "C2c": RuleParams(("y", "cut"), ("e_x", "e_y"), _NOT_C2C),
    "C3": RuleParams((), (), "{x} is not an isolated vertex of its forest"),
}
RULES = tuple(RULE_PARAMS)
C2_RULES = frozenset(r for r in RULES if r.startswith("C2"))
# a step's optional fields, in the order steps sort and print by; each
# rule's RULE_PARAMS entry names the ones its steps carry
STEP_PARAMS = ("y", "p", "q", "cut")


class ReductionStep(NamedTuple):
    label: str
    rule: str
    orientation: str = "forward"
    y: str = None
    p: str = None
    q: str = None
    cut: str = None

    @property
    def cost(self):
        return 1 if self.rule in C2_RULES else 0

    def sort_key(self):
        params = (getattr(self, k) or "" for k in STEP_PARAMS)
        return (self.rule, self.label, *params, self.orientation)

    def describe(self):
        bits = [self.rule, self.label]
        bits += ["%s=%s" % (k, getattr(self, k)) for k in STEP_PARAMS if getattr(self, k)]
        if self.orientation == "reversed":
            bits.append("reversed")
        return " ".join(bits)


class ReductionTrace(NamedTuple):
    """An ordered list of steps; ``terminal`` is the label both forests
    collapse to, filled in by replay (the serialized form carries steps
    only)."""

    steps: tuple
    terminal: str = None

    @property
    def weight(self):
        return sum(s.cost for s in self.steps)

    def __len__(self):
        return len(self.steps)


# the inherited ``_make`` (so ``_replace``) counts the fields with len(), the step count here
ReductionTrace._make = classmethod(lambda cls, fields: cls(*fields))


def labels_of(trace):
    """The bare label sequence, terminal label included; labels may
    repeat.  Requires a replayed trace (terminal known)."""
    if trace.terminal is None:
        raise ValueError("trace has no terminal label; replay it first")
    return tuple(s.label for s in trace.steps) + (trace.terminal,)


# ---------------------------------------------------------------------------
# step legality


def _sides(F, F2, orientation):
    return (F, F2) if orientation == "forward" else (F2, F)


def _check_labels(F, F2):
    """Reject a pair of forests on different label sets.  A step keeps
    the two label sets equal, so the entry points (``apply_step``,
    ``legal_moves``, ``replay_trace``) check this once per call."""
    if F.ground_set != F2.ground_set:
        raise GroundSetMismatch("forests are on different label sets")


def _pair_moves(A, B, x, y, orientation):
    """Each legal C1/C2 step for the ordered cherry (x, y) of A, paired
    with its resolved action; B is the other forest of the orientation.

    This is the one statement of the C1/C2 side conditions.  C1 is
    yielded for the forward orientation only, as both orientations have
    the same effect.  Moves come lazily and in step order (see
    ``sort_key``), so a lookup that stops at its match skips the
    pendant-shape and x--y path searches when it can.
    """
    side = 0 if orientation == "forward" else 1
    partners = B.cherry_partners(x)
    if side == 0 and y in partners:
        yield ReductionStep(x, "C1", orientation, y=y), ("drop", x)
    if any(z != y for z in partners):
        rule = "C2a_i"
    elif partners or B.cherry_partners(y):
        return
    elif B.component_index(x) == B.component_index(y):
        rule = "C2b_i"
    elif B.is_singleton(x) or B.is_singleton(y):
        return
    else:
        rule = "C2c"
    comp = A.component_index(x)
    tree = A.components[comp]
    for cut, leaf in (("e_x", x), ("e_y", y)):
        action = ("cut", side, comp, tree.pendant_edge(leaf))
        yield ReductionStep(x, rule, orientation, y=y, cut=cut), action
    if rule == "C2a_i":
        for shape in pendant_shapes(tree, (x, y)):
            if not shape.proper:
                continue
            if shape.kind == "xyp":
                shape_rule = "C2a_ii"
                cuts = (("e_p", shape.e_p), ("e_xyp", shape.cut_edge))
            else:
                shape_rule = "C2a_iii"
                cuts = (("e_p", shape.e_p), ("e_pq", shape.e_pq), ("e_q", shape.e_q))
            for cut, edge in cuts:
                step = ReductionStep(
                    x, shape_rule, orientation, y=y, p=shape.p, q=shape.q, cut=cut
                )
                yield step, ("cut", side, comp, edge)
    elif rule == "C2b_i":
        b_comp = B.component_index(x)
        action = ("cut", 1 - side, b_comp, _path_end_edges(B.components[b_comp], x, y)[0])
        yield ReductionStep(x, "C2b_ii", orientation, y=y, cut="c2b_edge"), action


def _path_end_edges(tree, x, y):
    """The edges that hang off the two inner ends of the path x, u_1, ...,
    u_m, y between leaves x and y of a tree (m >= 2): the one at u_1, then
    the one at u_m.  They are the C2b_ii edges of (x, y) and of (y, x)."""
    path = tree.path(tree.vertex_of[x], tree.vertex_of[y])
    ends = []
    for i in (1, -2):
        (w,) = tree.adj[path[i]] - {path[i - 1], path[i + 1]}
        ends.append(_edge(path[i], w))
    return ends


def check_step(F, F2, step):
    """Validate a step against a state; returns the resolved action.

    The action is ("drop", label) for C1/C3 or ("cut", side, component
    index, edge) for the C2 family, where side 0 cuts the first forest.
    Parameters the rule does not use are ignored, and a C2a_iii step may
    name p and q in either order.  Raises InapplicableStep naming the
    violated side condition.  The forests must share their label set,
    which the entry points check (see ``_check_labels``).
    """
    x, rule, orientation = step.label, step.rule, step.orientation
    if x not in F.ground_set:
        raise InapplicableStep("label %r is not in the ground set" % (x,))
    if rule not in RULE_PARAMS:
        raise InapplicableStep("unknown rule %r" % (rule,))
    if orientation not in ("forward", "reversed"):
        raise InapplicableStep("unknown orientation %r" % (orientation,))
    params, cuts, unmet = RULE_PARAMS[rule]
    if cuts and step.cut not in cuts:
        raise InapplicableStep("%s cut must be one of %s" % (rule, ", ".join(cuts)))
    if rule == "C1":
        orientation = "forward"  # both orientations have the same effect
    A, B = _sides(F, F2, orientation)
    if rule == "C3":
        if not A.is_singleton(x):
            raise InapplicableStep(unmet.format(x=x))
        return ("drop", x)

    fields = {k: getattr(step, k) for k in params}
    y = fields["y"]
    if y is None or y == x or y not in F.ground_set:
        raise InapplicableStep("missing or invalid cherry partner")
    if not A.has_cherry((x, y)):
        raise InapplicableStep("(%s,%s) is not a cherry of the reduced forest" % (x, y))
    if rule == "C2a_iii" and step.p and step.q and step.q < step.p:
        # enumeration names p < q; swapping p and q swaps e_p and e_q
        cut = {"e_p": "e_q", "e_q": "e_p"}.get(step.cut, step.cut)
        fields.update(p=step.q, q=step.p, cut=cut)
    want = ReductionStep(x, rule, orientation, **fields)
    for move, action in _pair_moves(A, B, x, y, orientation):
        if move == want:
            return action
    raise InapplicableStep(unmet.format(x=x, y=y, p=step.p, q=step.q))


# ---------------------------------------------------------------------------
# applying steps


def apply_action(F, F2, action):
    """Carry out a resolved action (see ``check_step``) without checking
    it; returns (F', F2', record).

    The record is ("drop", left LeafRemoval, right LeafRemoval) or
    ("cut", side, EdgeRemoval).  Each says, with ``EndpointEffect``s, how
    the ends of the removed forest edge were left: a LeafRemoval the far
    end of the removed leaf's pendant edge (None for an isolated leaf),
    an EdgeRemoval both ends of the cut.  The network builder re-opens
    those ends to undo the step.
    """
    if action[0] == "drop":
        x = action[1]
        nF, rec_l = remove_leaf_traced(F, x)
        nF2, rec_r = remove_leaf_traced(F2, x)
        return nF, nF2, ("drop", rec_l, rec_r)
    _, side, comp_idx, edge = action
    if side == 0:
        nF, rec = remove_edge_traced(F, comp_idx, edge)
        return nF, F2, ("cut", 0, rec)
    nF2, rec = remove_edge_traced(F2, comp_idx, edge)
    return F, nF2, ("cut", 1, rec)


def _patch(forests, action):
    """Carry out a resolved action in place on the replay's state, the
    list [F, F2] of forests whose trees the replay owns; returns the
    record, as ``apply_action`` does.  The one tree the action touches in
    a forest is patched (``trees._drop_leaf``, ``trees._cut_edge``) and
    the forest is rebuilt around it."""
    if action[0] == "drop":
        x = action[1]
        ground, record = forests[0].ground_set - {x}, ["drop"]
        for s, forest in enumerate(forests):
            i = forest.component_index(x)
            kept, rec = _drop_leaf(forest.components[i], x)
            forests[s] = forest.replace_component(i, [kept], ground)
            record.append(rec)
        return tuple(record)
    _, side, i, edge = action
    sides, rec = _cut_edge(forests[side].components[i], edge)
    forests[side] = forests[side].replace_component(i, sides, forests[side].ground_set)
    return ("cut", side, rec)


def apply_step(F, F2, step):
    """Check a step and apply it; returns (F', F2')."""
    _check_labels(F, F2)
    nF, nF2, _ = apply_action(F, F2, check_step(F, F2, step))
    return nF, nF2


# ---------------------------------------------------------------------------
# enumeration


def _isolated_moves(F, F2):
    """The C3 steps of a state, one per one-vertex component, paired with
    their actions, in label order: forward when x is isolated in F,
    otherwise reversed."""
    moves = {}
    for forest, orientation in ((F2, "reversed"), (F, "forward")):
        for t in forest.components:
            if t.num_vertices == 1:
                (x,) = t.vertex_of
                moves[x] = (ReductionStep(x, "C3", orientation), ("drop", x))
    return [moves[x] for x in sorted(moves)]


def _ordered_moves(F, F2):
    """Every C1, C2 and C3 step of a state, paired with its resolved
    action, in step order and lazily: the merge of each ordered cherry's
    ``_pair_moves`` and of ``_isolated_moves``, each of which is already
    in step order.  A stream is advanced only past the moves taken from
    it, so a reader that stops early skips the rest of its searches.  At
    one label it lists that label's C3 step, which is not legal there
    (see ``legal_moves``)."""
    streams = []
    for orientation in ("forward", "reversed"):
        A, B = _sides(F, F2, orientation)
        for a, b in A.cherries():
            streams.append(_pair_moves(A, B, a, b, orientation))
            streams.append(_pair_moves(A, B, b, a, orientation))
    streams.append(_isolated_moves(F, F2))
    return heapq.merge(*streams, key=lambda move: move[0].sort_key())


def legal_moves(F, F2):
    """Every step legal at a state, paired with its resolved action, in
    step order.  Terminal states (one label left) admit no steps."""
    _check_labels(F, F2)
    if not F.ground_set:
        raise GroundSetMismatch("forests are empty")
    if len(F.ground_set) == 1:
        return []
    return list(_ordered_moves(F, F2))


def applicable_steps(F, F2):
    """The complete, duplicate-free, deterministically ordered list of
    steps legal at a state."""
    return [step for step, _ in legal_moves(F, F2)]


# ---------------------------------------------------------------------------
# replay


class ReplayResult(NamedTuple):
    weight: int
    terminal: str
    final: tuple  # the last (F, F2), both on the terminal label alone
    records: tuple  # each step's surgery record, in trace order


def replay_trace(F, F2, trace):
    """Replay a trace from a starting pair, checking every step's side
    conditions (``check_step``) and the terminal state; returns the
    weight, the terminal label, the final state and each step's surgery
    record.

    The replay copies each input tree once and then owns its state: a
    step patches the one tree it touches in place (see ``_patch``), so no
    step copies a tree and only the records grow with the trace.
    The caller's forests and trees are never changed.  The trees surgery
    leaves are not validated again: the starting trees passed the public
    constructor, and a drop or a cut of a valid tree leaves valid trees
    (see the ``trees`` module)."""
    _check_labels(F, F2)
    forests = [Forest._trusted(tuple(map(_copy, f.components)), f.ground_set) for f in (F, F2)]
    records = []
    for i, step in enumerate(trace.steps):
        try:
            action = check_step(*forests, step)
        except InapplicableStep as exc:
            raise ReplayError(i, "%s: %s" % (step.describe(), exc))
        records.append(_patch(forests, action))
    ground = forests[0].ground_set
    if len(ground) != 1:
        raise BadTerminal("replay ended with %d labels, expected 1" % len(ground))
    (terminal,) = ground
    # both forests on one label are necessarily the same singleton tree
    return ReplayResult(trace.weight, terminal, tuple(forests), tuple(records))


def validate_trace(F, F2, trace):
    """Replay a trace and return its weight (the number of C2 steps),
    patching one state in place (see ``replay_trace``)."""
    return replay_trace(F, F2, trace).weight
