"""Batch command-line surface.

Subcommands: hybrid, tbr, validate-trace, build-network, displays, gen.
Exit codes: 0 success, 1 internal error, 2 parse/input error (negative
budgets and caps included) or unwritable output path, 3 ground-set
mismatch, 4 budget, cap or size guard exhausted (``displays`` on a
network above 40 vertices), 5 semantic validation failure.
``--json`` switches the report to a stable machine-readable object.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

from .builder import build_network
from .errors import (
    CapExceeded,
    CherryPickError,
    GroundSetMismatch,
    ParseError,
    ScaleGuard,
)
from .generate import random_forest, seeded_rng
from .networks import reticulation_number
from .newick import (
    parse_forest,
    parse_network,
    parse_trace,
    serialize_forest,
    serialize_network,
    serialize_trace,
)
from .oracles import displays
from .reductions import validate_trace
from .search import _solve, tbr_distance

PAIR_SEPARATOR = "# --- pair separator ---"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_INVALID = 5

# The exit code of an error is that of the first row whose classes it is an
# instance of; an error that no row names is a bug (EXIT_INTERNAL).
EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (GroundSetMismatch, EXIT_MISMATCH),
    ((CapExceeded, ScaleGuard), EXIT_BUDGET),
    (CherryPickError, EXIT_INVALID),
    (ValueError, EXIT_PARSE),
)


def _non_negative(text):
    """argparse type for node budgets and distance caps."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return value


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _read_pair(args):
    """The two forests named by --forest1/--forest2, on one label set."""
    F = parse_forest(_read(args.forest1))
    F2 = parse_forest(_read(args.forest2))
    if F.ground_set != F2.ground_set:
        raise GroundSetMismatch("forests are on different label sets")
    return F, F2


def _write_all(outputs):
    """Write each (path, text) pair; if a write fails, remove the files
    already written, so a failed run leaves no partial output behind."""
    written = []
    for path, text in outputs:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            for done in written:
                try:
                    os.remove(done)
                except OSError:
                    pass
            raise ParseError("cannot write %s: %s" % (path, exc))
        written.append(path)


def _report(args, command, inputs, outcome, started, human_lines):
    if args.json:
        print(
            json.dumps(
                {
                    "command": command,
                    "inputs": inputs,
                    "outcome": outcome,
                    "timing_sec": round(time.monotonic() - started, 6),
                },
                sort_keys=True,
            )
        )
    else:
        for line in human_lines:
            print(line)


def _cmd_hybrid(args, started):
    F, F2 = _read_pair(args)
    walk = bool(args.trace_out or args.network_out)  # only output files need the witness
    result = _solve(F, F2, budget=args.budget, walk=walk)
    inputs = {"forest1": args.forest1, "forest2": args.forest2}
    if result.status == "bounded":
        outcome = {
            "status": "bounded",
            "lower": result.lower,
            "upper": result.upper,
            "nodes": result.stats.nodes,
            "stats": dataclasses.asdict(result.stats),
        }
        _report(args, "hybrid", inputs, outcome, started, [])
        print(
            "budget exhausted: hybrid number in [%d, %d]" % (result.lower, result.upper),
            file=sys.stderr,
        )
        return EXIT_BUDGET
    weight = result.min_weight
    outputs = []
    if args.trace_out:
        outputs.append((args.trace_out, serialize_trace(result.witness)))
    network = None
    if args.network_out:
        network = build_network(F, F2, result.witness)
        outputs.append((args.network_out, serialize_network(network)))
    _write_all(outputs)
    outcome = {
        "status": "exact",
        "hybrid_number": weight,
        "nodes": result.stats.nodes,
        "stats": dataclasses.asdict(result.stats),
    }
    if network is not None:
        outcome["network_reticulation"] = reticulation_number(network)
    _report(args, "hybrid", inputs, outcome, started, [str(weight)])
    return EXIT_OK


def _cmd_tbr(args, started):
    T, T2 = parse_forest(_read(args.tree1)), parse_forest(_read(args.tree2))
    distance = tbr_distance(T, T2, cap=args.cap)
    inputs = {"tree1": args.tree1, "tree2": args.tree2}
    _report(args, "tbr", inputs, {"distance": distance}, started, [str(distance)])
    return EXIT_OK


def _cmd_validate_trace(args, started):
    trace = parse_trace(_read(args.trace))
    F, F2 = _read_pair(args)
    weight = validate_trace(F, F2, trace)
    inputs = {"forest1": args.forest1, "forest2": args.forest2, "trace": args.trace}
    _report(args, "validate-trace", inputs, {"weight": weight}, started, [str(weight)])
    return EXIT_OK


def _cmd_build_network(args, started):
    trace = parse_trace(_read(args.trace))
    F, F2 = _read_pair(args)
    network = build_network(F, F2, trace)
    _write_all([(args.out, serialize_network(network))])
    r = reticulation_number(network)
    inputs = {"forest1": args.forest1, "forest2": args.forest2, "trace": args.trace}
    outcome = {"out": args.out, "reticulation": r}
    _report(args, "build-network", inputs, outcome, started, ["wrote %s (r=%d)" % (args.out, r)])
    return EXIT_OK


def _cmd_displays(args, started):
    network = parse_network(_read(args.network))
    forest = parse_forest(_read(args.forest))
    witness = displays(network, forest)
    inputs = {"network": args.network, "forest": args.forest}
    outcome = {"displays": witness is not None}
    if witness is not None and args.json:
        names = network.name_map()
        outcome["witness"] = [
            {
                "component": tree.canonical,
                "edges": [[names[a], names[b]] for a, b in image.network_edges()],
            }
            for tree, image in zip(forest.components, witness.images)
        ]
    _report(args, "displays", inputs, outcome, started, ["yes" if witness else "no"])
    return EXIT_OK


def _cmd_gen(args, started):
    if args.leaves < 1:
        raise ParseError("--leaves must be at least 1")
    labels = [str(i) for i in range(1, args.leaves + 1)]
    rng = seeded_rng(args.seed)
    docs = [serialize_forest(random_forest(labels, args.components, rng))]
    if args.pair:
        docs.append(serialize_forest(random_forest(labels, args.components, rng)))
    text = (PAIR_SEPARATOR + "\n").join(docs)
    sys.stdout.write(text)  # with --json too: the document is the output
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="cherrypick",
        description="Exact hybrid numbers and TBR distances via cherry picking sequences.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hybrid", help="minimum cherry picking weight of two forests")
    p.add_argument("--forest1", required=True)
    p.add_argument("--forest2", required=True)
    unwritten = (
        "; a bounded run (exit 4) writes no file: a failed run leaves no partial "
        "output, and its witness is the greedy trace at the upper bound, not a minimum"
    )
    p.add_argument("--trace-out", help="write the lexicographically least optimal trace" + unwritten)
    p.add_argument("--network-out", help="write a network rebuilt from that optimal trace" + unwritten)
    p.add_argument(
        "--budget",
        type=_non_negative,
        default=None,
        help="search node budget: the number of states the search may expand; "
        "free C1/C3 steps are forced, not branched on, which keeps that count small",
    )
    p.set_defaults(func=_cmd_hybrid)

    p = sub.add_parser("tbr", help="TBR distance between two trees")
    p.add_argument("--tree1", required=True)
    p.add_argument("--tree2", required=True)
    p.add_argument("--cap", type=_non_negative, help="exit 4 when the distance is above CAP")
    p.set_defaults(func=_cmd_tbr)

    p = sub.add_parser("validate-trace", help="replay a trace and print its weight")
    p.add_argument("--forest1", required=True)
    p.add_argument("--forest2", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_validate_trace)

    p = sub.add_parser("build-network", help="build a display network from a trace")
    p.add_argument("--forest1", required=True)
    p.add_argument("--forest2", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_network)

    p = sub.add_parser("displays", help="does a network display a forest?")
    p.add_argument("--network", required=True)
    p.add_argument("--forest", required=True)
    p.set_defaults(func=_cmd_displays)

    p = sub.add_parser("gen", help="emit seeded random forests")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--pair", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        return args.func(args, started)
    except Exception as exc:
        for classes, code in EXIT_CODES:
            if isinstance(exc, classes):
                print("error: %s" % exc, file=sys.stderr)
                return code
        # any other failure is a bug, still reported as an exit code
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
