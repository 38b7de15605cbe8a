"""The benchmark workloads: their stored instance lists, the seeded
relabelling that turns a run seed into input documents, and the timed
pipeline with its answer checks for each kind of instance.

Every call into the program goes through an attribute of the package
module passed in as ``cp`` (``cp.min_weight_cps(...)``), looked up at call
time, so the tracer can wrap those names without touching ``src/``.
"""

import hashlib
import json
import random
import re
from pathlib import Path

POOL = Path(__file__).resolve().parent / "pool.json"
LABEL = re.compile(r"t\d+")

# Per-instance guards owned by the benchmark, the same on every commit.
NODE_BUDGET = 30_000
INSTANCE_SECONDS = 30.0


class WrongAnswer(Exception):
    """An instance returned an answer that fails a check."""


def sha256_json(value):
    """Digest of a JSON value in canonical form (sorted keys, no spaces)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_pool():
    pool = json.loads(POOL.read_text())
    if sha256_json(pool["workloads"]) != pool["sha256"]:
        raise ValueError("pool.json does not match its recorded digest")
    return pool


def check_references(workload, instances):
    """Check the stored references before any timing: every instance has
    a non-negative weight, and a trace's weight is its count of C2 steps."""
    for inst in instances:
        if not isinstance(inst["weight"], int) or inst["weight"] < 0:
            raise ValueError("%s: bad reference weight" % inst["id"])
        if workload == "certify-large":
            cuts = sum(step["rule"].startswith("C2") for step in json.loads(inst["trace"]))
            if cuts != inst["weight"]:
                raise ValueError("%s: trace weight differs from its reference" % inst["id"])


def relabel(inst, rng):
    """The instance's documents with leaf labels permuted by ``rng``; the
    permutation preserves every reference answer."""
    names = sorted(set(LABEL.findall(inst["forest1"])))
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))

    def sub(doc):
        return LABEL.sub(lambda m: mapping[m.group()], doc)

    docs = {"forest1": sub(inst["forest1"]), "forest2": sub(inst["forest2"])}
    if "trace" in inst:
        steps = json.loads(inst["trace"])
        for step in steps:
            step["label"] = mapping[step["label"]]
            params = step["params"]
            for key in ("y", "p", "q"):
                if key in params:
                    params[key] = mapping[params[key]]
        docs["trace"] = json.dumps(steps, separators=(",", ":"))
    return docs


def pass_inputs(workload, instances, seed, pass_index):
    """The documents of one pass over the instance list, and their sha256.
    Each pass of a run draws a fresh permutation from (seed, pass)."""
    rng = random.Random("%s/%d/%d" % (workload, seed, pass_index))
    docs = [relabel(inst, rng) for inst in instances]
    return docs, sha256_json(docs)


def expect(ok, what):
    if not ok:
        raise WrongAnswer(what)


def run_search(cp, docs, reference, stats):
    """Solve exactly, write the witness, replay it, rebuild its network and
    check that the network displays both inputs."""
    F = cp.parse_forest(docs["forest1"])
    F2 = cp.parse_forest(docs["forest2"])
    res = cp.min_weight_cps(F, F2, budget=NODE_BUDGET)
    stats["nodes"] += res.stats.nodes
    stats["memo_hits"] += res.stats.memo_hits
    stats["weight"] += reference
    expect(res.status == "exact", "search ended %s" % res.status)
    expect(res.min_weight == reference, "weight %s, reference %d" % (res.min_weight, reference))
    cp.serialize_trace(res.witness)
    expect(cp.validate_trace(F, F2, res.witness) == reference, "witness replays to another weight")
    net = cp.build_network(F, F2, res.witness, verify=True)
    cp.serialize_network(net)
    expect(cp.reticulation_number(net) == reference, "network r differs from the weight")
    expect(cp.displays(net, F) is not None, "network does not display forest 1")
    expect(cp.displays(net, F2) is not None, "network does not display forest 2")


def run_certify(cp, docs, reference, stats):
    """Parse a forest pair and a trace, validate the trace, rebuild its
    network, round-trip the network and analyse it."""
    F = cp.parse_forest(docs["forest1"])
    F2 = cp.parse_forest(docs["forest2"])
    trace = cp.parse_trace(docs["trace"])
    stats["trace_steps"] += len(trace.steps)
    expect(cp.validate_trace(F, F2, trace) == reference, "trace replays to another weight")
    net = cp.build_network(F, F2, trace, verify=True)
    back = cp.parse_network(cp.serialize_network(net))
    expect(
        (back.num_vertices, back.num_edges) == (net.num_vertices, net.num_edges),
        "network changed in the round trip",
    )
    expect(back.leaf_labels == F.ground_set, "network leaves differ from the input labels")
    r = cp.reticulation_number(back)
    expect(r <= reference, "network r exceeds the trace weight")
    expect(sum(b.reticulation for b in cp.blobs(back)) == r, "blob reticulations do not sum to r")
    expect(cp.simplify(back).suppressed_count == 0, "rebuilt network is not simple")


PIPELINES = {
    "deep-search": run_search,
    "wide-swap": run_search,
    "certify-large": run_certify,
}
