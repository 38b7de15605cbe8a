"""The cherry picking calculus: enumeration, application, replay."""

import tracemalloc

import pytest

from cherrypick import reductions
from cherrypick.builder import _ids_apart, build_network
from cherrypick.errors import (
    BadTerminal,
    GroundSetMismatch,
    InapplicableStep,
    ReplayError,
)
from cherrypick.generate import random_forest_pair, seeded_rng
from cherrypick.newick import parse_forest, serialize_forest
from cherrypick.reductions import (
    RULES,
    ReductionStep,
    ReductionTrace,
    applicable_steps,
    apply_action,
    apply_step,
    check_step,
    labels_of,
    legal_moves,
    replay_trace,
    validate_trace,
)
from cherrypick.search import greedy_cps
from cherrypick.trees import PhyloTree, canonical_form

from util import replay_states


def state(a, b):
    return parse_forest(a), parse_forest(b)


# ---------------------------------------------------------------------------
# enumeration on pinned examples


def test_steps_identical_isolated_edge():
    F, F2 = state("(1,2);", "(1,2);")
    steps = applicable_steps(F, F2)
    assert [(s.rule, s.label, s.y) for s in steps] == [
        ("C1", "1", "2"),
        ("C1", "2", "1"),
    ]


def test_steps_distinct_quartets_full_enumeration():
    # hand enumeration: per orientation, 4 (label, partner) orderings, each
    # contributing two C2a_i cuts and, with both proper ((x,y),p) shapes,
    # four C2a_ii steps; the quartet itself is not a *proper* ((x,y),(p,q))
    # pendant subtree, so no C2a_iii; no C1/C2b/C2c/C3 anywhere
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    steps = applicable_steps(F, F2)
    assert len(steps) == 48
    by_rule = {}
    for s in steps:
        by_rule.setdefault(s.rule, []).append(s)
    assert set(by_rule) == {"C2a_i", "C2a_ii"}
    assert len(by_rule["C2a_i"]) == 16
    assert len(by_rule["C2a_ii"]) == 32
    assert ReductionStep("1", "C2a_i", "forward", y="2", cut="e_x") in steps
    assert ReductionStep("1", "C2a_i", "reversed", y="3", cut="e_y") in steps
    assert ReductionStep("1", "C2a_ii", "forward", y="2", p="3", cut="e_xyp") in steps
    assert ReductionStep("4", "C2a_ii", "reversed", y="2", p="3", cut="e_p") in steps


def test_steps_three_leaf_star_with_singleton():
    # C3 applies to the isolated vertex 1; C1 to the shared cherry (2,3);
    # C2a_i to each cherry ordering with a partner witness across forests
    F, F2 = state("1;\n(2,3);", "((2,3),1);")
    steps = applicable_steps(F, F2)
    got = [(s.rule, s.label, s.y or "", s.cut or "", s.orientation) for s in steps]
    want = {
        ("C1", "2", "3", "", "forward"),
        ("C1", "3", "2", "", "forward"),
        ("C2a_i", "2", "3", "e_x", "forward"),
        ("C2a_i", "2", "3", "e_y", "forward"),
        ("C2a_i", "3", "2", "e_x", "forward"),
        ("C2a_i", "3", "2", "e_y", "forward"),
        ("C2a_i", "2", "1", "e_x", "reversed"),
        ("C2a_i", "2", "1", "e_y", "reversed"),
        ("C2a_i", "3", "1", "e_x", "reversed"),
        ("C2a_i", "3", "1", "e_y", "reversed"),
        ("C3", "1", "", "", "forward"),
    }
    assert set(got) == want and len(steps) == len(want)


def test_c3_steps_come_from_the_isolated_vertices_of_either_forest():
    # 1 is isolated in F only, 2 in F2 only and 3 in both: a label
    # isolated in F is dropped forward, else reversed, and the two
    # orientations of 3, which have one effect, give one step
    F, F2 = state("1;\n3;\n(2,(4,5));", "2;\n3;\n(1,(4,5));")
    assert [move for move in legal_moves(F, F2) if move[0].rule == "C3"] == [
        (ReductionStep("1", "C3", "forward"), ("drop", "1")),
        (ReductionStep("2", "C3", "reversed"), ("drop", "2")),
        (ReductionStep("3", "C3", "forward"), ("drop", "3")),
    ]
    # the same rule, label by label, on seeded forest pairs
    rng = seeded_rng(1919)
    for n in range(3, 9):
        labels = [str(i) for i in range(1, n + 1)]
        for _ in range(8):
            F, F2 = random_forest_pair(labels, rng.randint(1, n), rng)
            want = [
                ReductionStep(x, "C3", "forward" if F.is_singleton(x) else "reversed")
                for x in sorted(F.ground_set)
                if F.is_singleton(x) or F2.is_singleton(x)
            ]
            assert [s for s in applicable_steps(F, F2) if s.rule == "C3"] == want


def test_steps_terminal_state_empty():
    F, F2 = state("x;", "x;")
    assert applicable_steps(F, F2) == []


def test_steps_ground_set_mismatch():
    F, F2 = state("(1,2);", "(1,3);")
    with pytest.raises(GroundSetMismatch):
        applicable_steps(F, F2)


def test_steps_deterministic_order():
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    once = applicable_steps(F, F2)
    twice = applicable_steps(F, F2)
    assert once == twice
    assert once == sorted(once, key=ReductionStep.sort_key)


# ---------------------------------------------------------------------------
# application on pinned examples


def test_apply_c1_on_isolated_edge():
    F, F2 = state("(1,2);", "(1,2);")
    step = ReductionStep("1", "C1", "forward", y="2")
    nF, nF2 = apply_step(F, F2, step)
    assert canonical_form(nF) == "2;" and canonical_form(nF2) == "2;"


def test_apply_c2a_i_cut_ex():
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    step = ReductionStep("1", "C2a_i", "forward", y="2", cut="e_x")
    nF, nF2 = apply_step(F, F2, step)
    assert canonical_form(nF) == canonical_form(parse_forest("1;\n(2,(3,4));"))
    assert nF2 is F2


def test_apply_c3_removes_from_both():
    F, F2 = state("1;\n(2,(3,4));", "((1,3),(2,4));")
    step = ReductionStep("1", "C3", "forward")
    nF, nF2 = apply_step(F, F2, step)
    assert canonical_form(nF) == canonical_form(parse_forest("(2,(3,4));"))
    assert canonical_form(nF2) == canonical_form(parse_forest("(3,(2,4));"))


def test_apply_c2b_ii_cuts_computed_edge_in_other_forest():
    # x=1, y=2 share a tree in the second forest with neither in a cherry;
    # the edge at 1's neighbour off the 1--2 path detaches the (3,4) side
    F = parse_forest("(1,2);\n(3,4);\n(5,6);")
    F2 = parse_forest("((3,4),(1,(2,(5,6))));")
    step = ReductionStep("1", "C2b_i", "forward", y="2", cut="e_x")
    nF, nF2 = apply_step(F, F2, step)
    assert nF2 is F2
    assert canonical_form(nF) == canonical_form(parse_forest("1;\n2;\n(3,4);\n(5,6);"))
    step2 = ReductionStep("1", "C2b_ii", "forward", y="2", cut="c2b_edge")
    nF, nF2 = apply_step(F, F2, step2)
    assert nF is F
    assert canonical_form(nF2) == canonical_form(parse_forest("(3,4);\n(1,(2,(5,6)));"))


def test_apply_inapplicable_names_condition():
    F, F2 = state("((1,2),(3,4));", "((1,2),(3,4));")
    step = ReductionStep("1", "C2a_i", "forward", y="2", cut="e_x")
    with pytest.raises(InapplicableStep) as exc:
        apply_step(F, F2, step)
    assert "no cherry" in str(exc.value)


def test_apply_c2a_iii_proper_case():
    F = parse_forest("((1,2),((3,4),(5,6)));")
    F2 = parse_forest("((1,3),((2,4),(5,6)));")
    step = ReductionStep("1", "C2a_iii", "forward", y="2", p="3", q="4", cut="e_pq")
    nF, _ = apply_step(F, F2, step)
    assert canonical_form(nF) == canonical_form(parse_forest("(3,4);\n((1,2),(5,6));"))


def test_apply_c2a_iii_rejected_on_whole_quartet():
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    step = ReductionStep("1", "C2a_iii", "forward", y="2", p="3", q="4", cut="e_pq")
    with pytest.raises(InapplicableStep):
        apply_step(F, F2, step)


# generic faults of a step built by hand (parse_trace stops them in a
# trace document before a step exists)
GENERIC_FAULTS = [
    (ReductionStep("1", "C4", y="2"), "unknown rule 'C4'"),
    (ReductionStep("1", "C1", "sideways", y="2"), "unknown orientation 'sideways'"),
    (ReductionStep("1", "C2a_i", y="2", cut="e_p"), "C2a_i cut must be one of e_x, e_y"),
    (ReductionStep("9", "C1", y="2"), "label '9' is not in the ground set"),
    (ReductionStep("1", "C2a_i", cut="e_x"), "missing or invalid cherry partner"),
]


@pytest.mark.parametrize("step, message", GENERIC_FAULTS)
def test_check_step_generic_faults(step, message):
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    with pytest.raises(InapplicableStep) as exc:
        check_step(F, F2, step)
    assert str(exc.value) == message
    with pytest.raises(ReplayError) as exc:
        replay_trace(F, F2, ReductionTrace((step,)))
    assert exc.value.step_index == 0
    assert exc.value.reason == "%s: %s" % (step.describe(), message)


def test_describe_names_every_parameter_and_the_orientation():
    step = ReductionStep("1", "C2a_iii", "reversed", y="2", p="3", q="4", cut="e_pq")
    assert step.describe() == "C2a_iii 1 y=2 p=3 q=4 cut=e_pq reversed"


# ---------------------------------------------------------------------------
# lookup of a step among the enumerated moves


def test_check_step_resolves_every_enumerated_move():
    rng = seeded_rng(808)
    for n in range(4, 9):
        labels = [str(i) for i in range(1, n + 1)]
        for _ in range(6):
            F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
            for step, action in legal_moves(F, F2):
                assert check_step(F, F2, step) == action
                nF, nF2, _ = apply_action(F, F2, action)
                assert apply_step(F, F2, step) == (nF, nF2)


def test_c2a_iii_accepts_p_and_q_in_either_order():
    F = parse_forest("((1,2),((3,4),(5,6)));")
    F2 = parse_forest("((1,3),((2,4),(5,6)));")
    for cut, twin_cut in (("e_p", "e_q"), ("e_q", "e_p"), ("e_pq", "e_pq")):
        step = ReductionStep("1", "C2a_iii", "forward", y="2", p="4", q="3", cut=cut)
        twin = ReductionStep("1", "C2a_iii", "forward", y="2", p="3", q="4", cut=twin_cut)
        assert check_step(F, F2, step) == check_step(F, F2, twin)
        assert apply_step(F, F2, step) == apply_step(F, F2, twin)
    # e_p is the pendant edge of the p the step names
    step = ReductionStep("1", "C2a_iii", "forward", y="2", p="4", q="3", cut="e_p")
    assert apply_step(F, F2, step)[0].is_singleton("4")


def test_orientation_symmetric_steps_accepted_reversed():
    # (2,3) is a cherry of both forests and 1 is isolated in both, so C1
    # and C3 are enumerated forward only, yet the reversed forms replay
    F, F2 = state("1;\n(2,3);", "1;\n(2,3);")
    for step in (
        ReductionStep("2", "C1", "reversed", y="3"),
        ReductionStep("1", "C3", "reversed"),
    ):
        forward = ReductionStep(step.label, step.rule, "forward", y=step.y)
        assert step not in applicable_steps(F, F2) and forward in applicable_steps(F, F2)
        assert check_step(F, F2, step) == check_step(F, F2, forward)
        assert apply_step(F, F2, step) == apply_step(F, F2, forward)


# ---------------------------------------------------------------------------
# trace replay


def quartet_weight1_trace():
    return ReductionTrace(
        (
            ReductionStep("1", "C2a_i", "forward", y="2", cut="e_x"),
            ReductionStep("1", "C3", "forward"),
            ReductionStep("2", "C1", "forward", y="3"),
            ReductionStep("3", "C1", "forward", y="4"),
        )
    )


def test_validate_weight_zero_identical():
    F, F2 = state("((1,2),(3,4));", "((1,2),(3,4));")
    trace = ReductionTrace(
        (
            ReductionStep("1", "C1", "forward", y="2"),
            ReductionStep("2", "C1", "forward", y="3"),
            ReductionStep("3", "C1", "forward", y="4"),
        )
    )
    assert validate_trace(F, F2, trace) == 0


def test_validate_weight_one_quartets():
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    assert validate_trace(F, F2, quartet_weight1_trace()) == 1


def test_validate_single_label_empty_trace():
    F, F2 = state("x;", "x;")
    assert validate_trace(F, F2, ReductionTrace(())) == 0


def test_replay_error_carries_step_index():
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    bad = ReductionTrace(
        (
            ReductionStep("1", "C2b_i", "forward", y="2", cut="e_x"),  # 1 is in a cherry of F2
        )
    )
    with pytest.raises(ReplayError) as exc:
        validate_trace(F, F2, bad)
    assert exc.value.step_index == 0
    assert "cherry" in exc.value.reason


def test_replay_bad_terminal():
    F, F2 = state("((1,2),(3,4));", "((1,2),(3,4));")
    short = ReductionTrace((ReductionStep("1", "C1", "forward", y="2"),))
    with pytest.raises(BadTerminal):
        validate_trace(F, F2, short)


def test_validate_trace_holds_one_state_at_a_time():
    # a replay that kept every state peaked near 36 MB on this pair
    rng = seeded_rng(400)
    F, F2 = random_forest_pair([str(i) for i in range(400)], 1, rng)
    trace = greedy_cps(F, F2)
    tracemalloc.start()
    try:
        weight = validate_trace(F, F2, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weight == trace.weight
    assert peak < 4_000_000
    # the replay keeps the final state and every record
    replay = replay_trace(F, F2, trace)
    assert replay.final[0].ground_set == {replay.terminal} and len(replay.records) == len(trace)


def test_replay_records_and_final_state_equal_a_walk_that_keeps_every_state():
    rng = seeded_rng(707)
    for n in range(4, 31):
        labels = [str(i) for i in range(1, n + 1)]
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        trace = greedy_cps(F, F2)
        states, records = replay_states(F, F2, trace)
        replay = replay_trace(F, F2, trace)
        assert replay.records == tuple(records)
        assert replay.final == states[-1]


def _snapshot(*forests):
    """Each forest's component tuple and ground set, and each component's
    identity with copies of its adjacency, labels and leaf index."""
    return [
        (
            forest.components,
            forest.ground_set,
            [(id(t), dict(t.adj), dict(t.labels), dict(t.vertex_of)) for t in forest.components],
        )
        for forest in forests
    ]


def test_replay_never_changes_its_input():
    # the replay patches copies of the input trees, never the trees a
    # caller holds; parsed forests keep their vertex ids apart, so
    # build_network hands the input forests themselves to the replay
    rng = seeded_rng(3232)
    for n in (8, 21, 40):
        pair = random_forest_pair([str(i) for i in range(n)], rng.randint(2, 3), rng)
        F, F2 = (parse_forest(serialize_forest(forest)) for forest in pair)
        assert _ids_apart(F) is F and _ids_apart(F2) is F2
        trace = greedy_cps(F, F2)
        before = _snapshot(F, F2)
        first = replay_trace(F, F2, trace)
        assert _snapshot(F, F2) == before
        assert validate_trace(F, F2, trace) == trace.weight
        assert _snapshot(F, F2) == before
        build_network(F, F2, trace)
        assert _snapshot(F, F2) == before
        again = replay_trace(F, F2, trace)
        assert again.records == first.records and again.final == first.final
        # a step that fails midway: a drop repeated after its label is gone
        k = next(i for i in range(len(trace) // 2, len(trace)) if trace.steps[i - 1].cost == 0)
        broken = ReductionTrace(trace.steps[:k] + trace.steps[k - 1:])
        with pytest.raises(ReplayError) as exc:
            replay_trace(F, F2, broken)
        assert exc.value.step_index == k
        assert _snapshot(F, F2) == before
        # a trace that stops short of one label
        with pytest.raises(BadTerminal):
            replay_trace(F, F2, ReductionTrace(trace.steps[:-1]))
        assert _snapshot(F, F2) == before


def test_replay_states_equal_their_parsed_documents():
    # replay keeps components in surgery order, not canonical order; each
    # state still equals the forest its document parses to, and every
    # label's component index points at the component holding it
    rng = seeded_rng(606)
    for n in range(6, 21):
        labels = [str(i) for i in range(1, n + 1)]
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        for state_pair in replay_states(F, F2, greedy_cps(F, F2))[0]:
            for forest in state_pair:
                again = parse_forest(serialize_forest(forest))
                assert forest == again and hash(forest) == hash(again)
                for lab in forest.ground_set:
                    assert lab in forest.components[forest.component_index(lab)].vertex_of


def test_labels_of_includes_terminal():
    F, F2 = state("((1,2),(3,4));", "((1,3),(2,4));")
    from cherrypick.reductions import replay_trace

    trace = quartet_weight1_trace()
    rep = replay_trace(F, F2, trace)
    full = ReductionTrace(trace.steps, terminal=rep.terminal)
    assert labels_of(full) == ("1", "1", "2", "3", "4")
    with pytest.raises(ValueError):
        labels_of(trace)


# ---------------------------------------------------------------------------
# structural invariants


def test_c1_c3_shrink_ground_set_c2_preserves_it():
    rng = seeded_rng(404)
    labels = [str(i) for i in range(1, 7)]
    for _ in range(40):
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        for step in applicable_steps(F, F2):
            nF, nF2 = apply_step(F, F2, step)
            if step.rule in ("C1", "C3"):
                assert len(nF.ground_set) == len(F.ground_set) - 1
                assert nF.ground_set == nF2.ground_set
            else:
                assert nF.ground_set == F.ground_set
                assert nF2.ground_set == F2.ground_set
                changed = (len(nF.components) != len(F.components)) + (
                    len(nF2.components) != len(F2.components)
                )
                assert changed == 1


def test_applicable_steps_nonempty_off_terminal():
    rng = seeded_rng(505)
    for _ in range(200):
        n = rng.randint(2, 7)
        labels = [str(i) for i in range(1, n + 1)]
        F, F2 = random_forest_pair(labels, rng.randint(1, min(3, n)), rng)
        assert applicable_steps(F, F2)


def _candidate_steps(ground):
    labels = sorted(ground)
    cuts = {
        "C1": [None],
        "C2a_i": ["e_x", "e_y"],
        "C2a_ii": ["e_p", "e_xyp"],
        "C2a_iii": ["e_p", "e_q", "e_pq"],
        "C2b_i": ["e_x", "e_y"],
        "C2b_ii": ["c2b_edge"],
        "C2c": ["e_x", "e_y"],
        "C3": [None],
    }
    for rule in RULES:
        for orientation in ("forward", "reversed"):
            for x in labels:
                ys = [None] if rule == "C3" else [y for y in labels if y != x]
                for y in ys:
                    ps = (
                        [p for p in labels if p not in (x, y)]
                        if rule in ("C2a_ii", "C2a_iii")
                        else [None]
                    )
                    for p in ps:
                        qs = (
                            [q for q in labels if q not in (x, y, p)]
                            if rule == "C2a_iii"
                            else [None]
                        )
                        for q in qs:
                            for cut in cuts[rule]:
                                yield ReductionStep(
                                    x, rule, orientation, y=y, p=p, q=q, cut=cut
                                )


def _normalize(step):
    # C1 and both-sided C3 conditions are orientation symmetric; the
    # enumerator emits them once, forward
    if step.rule == "C1":
        return ReductionStep(step.label, "C1", "forward", y=step.y)
    return step


def test_enumeration_sound_and_complete():
    # soundness: everything enumerated replays; completeness: every legal
    # candidate from the parameter cross-product is enumerated (up to the
    # documented orientation collapse for C1/C3)
    rng = seeded_rng(606)
    labels = [str(i) for i in range(1, 6)]
    for _ in range(12):
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        enumerated = set(applicable_steps(F, F2))
        for step in enumerated:
            apply_step(F, F2, step)  # must not raise
        legal = set()
        for cand in _candidate_steps(F.ground_set):
            try:
                check_step(F, F2, cand)
            except InapplicableStep:
                continue
            legal.add(_normalize(cand))
        # C2a_iii steps are stored with p < q; normalize candidates too,
        # and collapse C3 steps legal in both orientations to forward
        fixed = set()
        for s in legal:
            if s.rule == "C2a_iii" and s.q < s.p:
                cut = {"e_p": "e_q", "e_q": "e_p"}.get(s.cut, s.cut)
                s = ReductionStep(s.label, s.rule, s.orientation, y=s.y, p=s.q, q=s.p, cut=cut)
            if s.rule == "C3" and s.orientation == "reversed" and F.is_singleton(s.label):
                s = ReductionStep(s.label, "C3", "forward")
            fixed.add(s)
        assert fixed == enumerated


def test_weight_counts_c2_steps_exactly():
    rng = seeded_rng(707)
    from cherrypick.search import greedy_cps

    labels = [str(i) for i in range(1, 8)]
    for _ in range(30):
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        trace = greedy_cps(F, F2)
        w = validate_trace(F, F2, trace)
        assert w == sum(1 for s in trace.steps if s.rule.startswith("C2"))


# ---------------------------------------------------------------------------
# replay trusts surgery; surgery's own tests (test_trees.py) judge its trees


def _pair_documents(n, seed):
    """Serialized forest pairs (so parsing builds every tree through the
    public constructor) and a greedy trace for them."""
    rng = seeded_rng(seed)
    F, F2 = random_forest_pair([str(i) for i in range(n)], rng.randint(1, 3), rng)
    return serialize_forest(F), serialize_forest(F2), greedy_cps(F, F2)


def test_replay_validates_only_the_trees_the_constructor_builds(monkeypatch):
    # no tree surgery creates is validated again, and a replay step patches
    # the tree it touches in place: it builds no tree through the
    # constructor and rewrites only a few adjacency entries, the rest
    # keeping their frozensets; a step that copied or rebuilt its tree
    # would cost the tree's size
    validated, built, rewritten = [], [], []
    validate, init = PhyloTree._validate, PhyloTree.__init__

    def counted_validate(self):
        validated.append(id(self))
        return validate(self)

    def counted_init(self, adj, labels):
        built.append(id(self))
        init(self, adj, labels)

    def in_place(surgery):
        def spied(tree, removed):
            before, builds = dict(tree.adj), len(built)
            out, record = surgery(tree, removed)
            assert len(built) == builds
            children = [c for c in (out if isinstance(out, tuple) else [out]) if c is not None]
            # a drop leaves the patched tree (none for an isolated leaf), a
            # cut the patched tree and the smaller side
            assert children in ([], [tree]) or (len(children) == 2 and tree in children)
            for child in children:
                rewritten.append(sum(before.get(v) is not ns for v, ns in child.adj.items()))
            return out, record

        return spied

    pairs = [_pair_documents(n, 4000 + n) for n in (40, 47, 53, 60)]
    monkeypatch.setattr(PhyloTree, "_validate", counted_validate)
    monkeypatch.setattr(PhyloTree, "__init__", counted_init)
    for name in ("_drop_leaf", "_cut_edge"):
        monkeypatch.setattr(reductions, name, in_place(getattr(reductions, name)))
    for doc1, doc2, trace in pairs:
        F, F2 = state(doc1, doc2)
        weight = validate_trace(F, F2, trace)
        assert weight == trace.weight
        build_network(F, F2, trace)
    assert validated == built
    assert len(rewritten) > 400
    # a step rewrites at most two vertices of each tree it leaves (the
    # ends of a merged edge, or a cut's leaf end)
    assert max(rewritten) <= 2
