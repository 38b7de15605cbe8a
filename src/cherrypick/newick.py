"""Reading and writing forests, networks, and reduction traces.

Forest documents hold one Newick string per line; network documents hold
one ``u -- v`` edge per line (a repeated line makes a double edge, leaves
are the degree-one vertices and their tokens are the labels); traces are
JSON arrays of reduction steps.  In forest and network documents ``#``
starts a comment and blank lines are skipped; both LF and CRLF line ends
are accepted.  A Newick line is read as a list of tokens (punctuation and
labels, with blanks between them) folded into a tree by one loop; see
``_parse_newick_line``.
"""

import itertools
import json
import re

from .errors import (
    DegreeViolation,
    Disconnected,
    DuplicateLabel,
    NonBinary,
    ParseError,
    SchemaError,
    TripleEdge,
)
from .networks import PseudoNetwork
from .reductions import RULE_PARAMS, ReductionStep, ReductionTrace
from .trees import FORBIDDEN_LABEL_CHARS, Forest, PhyloTree, is_valid_label


# ---------------------------------------------------------------------------
# forests


# A line's tokens: each punctuation mark, and each maximal run of other
# characters that are not blanks (a label, valid or not).  Only blanks lie
# between tokens.
_TOKEN = re.compile(r"[(),;]|[^(),; \t]+")


def _parse_newick_line(content, line_no, alloc, seen_labels):
    """Parse one Newick string into a PhyloTree.

    The line is read in two steps.  ``_TOKEN`` lists its tokens with their
    offsets, and an end token ``(len(content), "")`` stands for the end of
    the line, so a fault there is reported at column len + 1.  One loop
    then folds the tokens: open parentheses live on an explicit stack of
    (opener offset, child vertices), so nesting depth is not limited by
    the recursion limit, and a closed group becomes one vertex joined to
    its children.  A rooted string with a degree-two root is unrooted by
    suppressing the root; a three-child root is kept as an internal
    vertex.
    """
    adj = {}
    labels = {}
    tokens = itertools.chain(
        ((m.start(), m.group()) for m in _TOKEN.finditer(content)), [(len(content), "")]
    )

    def err(message, at, cls=ParseError):
        raise cls(message, line=line_no, column=at + 1)

    def vertex(kids=()):
        v = next(alloc)
        adj[v] = set(kids)
        for k in kids:
            adj[k].add(v)
        return v

    groups = []
    for at, tok in tokens:
        if tok == "(":
            groups.append((at, []))
            continue
        if not tok or tok in "),;":
            err("expected a leaf label", at)
        if ":" in tok:
            err("branch lengths are not supported", at + tok.index(":"))
        if set(tok) & FORBIDDEN_LABEL_CHARS:
            err("invalid character in label %r" % tok, at)
        if tok in seen_labels:
            err("duplicate label %r" % tok, at, DuplicateLabel)
        seen_labels[tok] = (line_no, at + 1)
        v = vertex()
        labels[v] = tok
        # fold the finished vertex v into the open groups, closing each
        # group that a ')' ends; a ',' asks for the next child
        while groups:
            opener, kids = groups[-1]
            kids.append(v)
            at, tok = next(tokens)
            if tok == ",":
                break
            if tok != ")":
                err("expected ',' or ')'", at)
            groups.pop()
            if groups:
                if len(kids) != 2:
                    err("internal node with %d children (need 2)" % len(kids), opener, NonBinary)
                v = vertex(kids)
            elif len(kids) == 2:  # unroot by suppressing the root
                adj[kids[0]].add(kids[1])
                adj[kids[1]].add(kids[0])
            elif len(kids) == 3:
                vertex(kids)
            else:
                err("root with %d children (need 2 or 3)" % len(kids), opener, NonBinary)
        else:
            break  # the root group closed, or the tree is a single leaf
    at, tok = next(tokens)
    if tok != ";":
        err("expected ';'", at)
    at, tok = next(tokens)
    if tok:
        err("unexpected text after ';'", at)
    return PhyloTree(adj, labels)


def parse_forest(text):
    """Parse a forest document: one Newick per non-comment line."""
    alloc = itertools.count()
    seen = {}
    trees = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        trees.append(_parse_newick_line(content.rstrip(), line_no, alloc, seen))
    if not trees:
        raise ParseError("document contains no trees")
    return Forest(sorted(trees, key=lambda t: t.canonical) if len(trees) > 1 else trees)


def parse_tree(text):
    """Parse a document that must contain exactly one tree."""
    forest = parse_forest(text)
    if len(forest.components) != 1:
        raise ParseError("expected a single tree, found %d components" % len(forest.components))
    return forest.components[0]


def serialize_forest(forest):
    """Canonical rendering, one component per line; equal forests
    serialize to identical bytes."""
    return forest.canonical + "\n"


# ---------------------------------------------------------------------------
# networks


def parse_network(text):
    """Parse an edge-list network document."""
    edge_names = []
    lone = []
    first_seen = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        parts = content.split()
        if len(parts) == 1 and parts[0] != "--":
            lone.append((parts[0], line_no))
            continue
        if len(parts) != 3 or parts[1] != "--":
            raise ParseError("expected 'u -- v'", line=line_no, column=1)
        u, v, at = parts[0], parts[2], line_no
        for tok in (u, v):
            if tok == "--" or "#" in tok:
                raise ParseError("invalid vertex name %r" % tok, line=at, column=1)
            first_seen.setdefault(tok, at)
        if u == v:
            raise ParseError("loop edge at %r" % u, line=at, column=1)
        edge_names.append((u, v, at))

    if lone:
        if edge_names or len(lone) > 1:
            raise ParseError(
                "a lone vertex line is only valid as the whole document",
                line=lone[0][1],
                column=1,
            )
        name, at = lone[0]
        if not is_valid_label(name):
            raise ParseError("invalid leaf label %r" % name, line=at, column=1)
        return PseudoNetwork((), {0: name})
    if not edge_names:
        raise ParseError("document contains no edges")

    ids = {}
    for u, v, _ in edge_names:
        for tok in (u, v):
            if tok not in ids:
                ids[tok] = len(ids)
    counts = {}
    edges = []
    for u, v, at in edge_names:
        key = tuple(sorted((u, v)))
        counts[key] = counts.get(key, 0) + 1
        if counts[key] > 2:
            raise TripleEdge("third parallel edge %s -- %s" % key, line=at, column=1)
        edges.append((ids[u], ids[v]))

    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    names = {i: tok for tok, i in ids.items()}
    labels = {}
    for v, d in deg.items():
        if d == 1:
            if not is_valid_label(names[v]):
                raise ParseError(
                    "invalid leaf label %r" % names[v], line=first_seen[names[v]], column=1
                )
            labels[v] = names[v]
        elif d != 3:
            raise DegreeViolation(
                "vertex %r has degree %d (need 1 or 3)" % (names[v], d),
                line=first_seen[names[v]],
            )
    if not labels:
        raise DegreeViolation("network has no degree-one vertices to serve as leaves")
    # connectivity: delegate to the model, re-raising with document context
    try:
        return PseudoNetwork(edges, labels)
    except Disconnected:
        raise Disconnected("network document describes a disconnected graph")


def serialize_network(network):
    """Edge list sorted by endpoint names; internal vertices are named
    v1, v2, ... deterministically.  A single-vertex network serializes as
    its bare label."""
    if network.num_vertices == 1:
        return next(iter(network.labels.values())) + "\n"
    names = network.name_map()
    lines = sorted(
        "%s -- %s" % tuple(sorted((names[u], names[v]))) for u, v in network.edge_list
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# traces


def parse_trace(text):
    """Parse a trace document; schema validation only (replay-time checks
    live in the reduction engine)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("not valid JSON: %s" % exc, line=exc.lineno, column=exc.colno)
    except RecursionError:
        raise SchemaError("not a trace: JSON nested too deeply")
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise SchemaError("not valid JSON: %s" % exc)
    if not isinstance(data, list):
        raise SchemaError("trace must be a JSON array of steps")
    steps = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise SchemaError("step %d is not an object" % i)
        extra = set(item) - {"label", "rule", "orientation", "params"}
        if extra:
            raise SchemaError("step %d has unknown keys %s" % (i, sorted(extra)))
        rule = item.get("rule")
        if not isinstance(rule, str) or rule not in RULE_PARAMS:
            raise SchemaError("step %d has unknown rule %r" % (i, rule))
        label = item.get("label")
        if not isinstance(label, str) or not is_valid_label(label):
            raise SchemaError("step %d has a bad label %r" % (i, label))
        orientation = item.get("orientation", "forward")
        if orientation not in ("forward", "reversed"):
            raise SchemaError("step %d has a bad orientation %r" % (i, orientation))
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("step %d params must be an object" % i)
        need, cuts, _ = RULE_PARAMS[rule]
        missing = [k for k in need if k not in params]
        if missing:
            raise SchemaError("step %d (%s) is missing params %s" % (i, rule, missing))
        unknown = set(params) - set(need)
        if unknown:
            raise SchemaError("step %d (%s) has unknown params %s" % (i, rule, sorted(unknown)))
        for k in ("y", "p", "q"):
            if k in params and (not isinstance(params[k], str) or not is_valid_label(params[k])):
                raise SchemaError("step %d has a bad %r param" % (i, k))
        if "cut" in params and params["cut"] not in cuts:
            raise SchemaError(
                "step %d (%s) has cut %r, expected one of %s"
                % (i, rule, params["cut"], list(cuts))
            )
        steps.append(
            ReductionStep(
                label=label,
                rule=rule,
                orientation=orientation,
                y=params.get("y"),
                p=params.get("p"),
                q=params.get("q"),
                cut=params.get("cut"),
            )
        )
    return ReductionTrace(tuple(steps))


def serialize_trace(trace):
    data = []
    for s in trace.steps:
        params = {k: getattr(s, k) for k in RULE_PARAMS[s.rule].params}
        data.append(
            {"label": s.label, "rule": s.rule, "orientation": s.orientation, "params": params}
        )
    return json.dumps(data, indent=2) + "\n"
