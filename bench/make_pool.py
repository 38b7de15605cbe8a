"""Write bench/pool.json: the fixed instance lists of the benchmark
workloads, each instance with its reference answer.

Run from the repository root:

    python3 bench/make_pool.py

The output depends only on POOL_SEED, so re-running it on the same code
rewrites identical bytes.  The benchmark never regenerates the pool: it
reads the stored documents and only permutes their leaf labels per run
seed, which keeps every reference answer valid.

References are computed independently of the solver where an oracle
exists, and every reference is cross-checked against the solver here:

* deep-search tree pairs: ``tbr_distance_bfs``;
* deep-search forest pairs: the solver at the commit that wrote the pool
  (no oracle covers forests), with the witness replayed, rebuilt and
  display-checked;
* wide-swap pairs: 0 when the trees are equal, 1 when the second tree is
  a TBR neighbour of the first, else 2 (one label transposition is two
  prune-and-regraft moves);
* certify-large: the weight of a trace made by the walk below.
"""

import json
import random
import sys

from workloads import LABEL, POOL, sha256_json

sys.path.insert(0, str(POOL.parent.parent / "src"))

import cherrypick as cp  # noqa: E402
from cherrypick.generate import random_forest, random_tree  # noqa: E402

POOL_SEED = 20221216

# (leaves, components) per instance, in pool order
DEEP_SEARCH = [(7, 1)] * 3 + [(8, 2)] * 2 + [(9, 3)] * 2
WIDE_SWAP = [11, 11, 12]
CERTIFY_LARGE = 12


def labels(n):
    return ["t%d" % i for i in range(n)]


def solve_checked(F, F2, reference):
    """Solve, then check the witness end to end against the reference."""
    res = cp.min_weight_cps(F, F2)
    assert res.status == "exact" and res.min_weight == reference, (res, reference)
    assert cp.validate_trace(F, F2, res.witness) == reference
    net = cp.build_network(F, F2, res.witness, verify=True)
    assert cp.reticulation_number(net) == reference
    assert cp.displays(net, F) is not None and cp.displays(net, F2) is not None
    return res.stats.nodes


def deep_search(rng):
    out = []
    for i, (n, k) in enumerate(DEEP_SEARCH):
        if k == 1:
            T, T2 = random_tree(labels(n), rng), random_tree(labels(n), rng)
            F, F2 = cp.Forest([T]), cp.Forest([T2])
            ref, source = cp.tbr_distance_bfs(T, T2), "tbr_distance_bfs"
        else:
            F, F2 = random_forest(labels(n), k, rng), random_forest(labels(n), k, rng)
            ref, source = cp.min_weight_cps(F, F2).min_weight, "solver"
        nodes = solve_checked(F, F2, ref)
        out.append(instance("deep-%d-n%d-k%d" % (i, n, k), F, F2, ref, source, nodes))
    return out


def wide_swap(rng):
    out = []
    for i, n in enumerate(WIDE_SWAP):
        T = random_tree(labels(n), rng)
        a, b = rng.sample(labels(n), 2)
        doc = cp.serialize_forest(cp.Forest([T]))
        swapped = LABEL.sub(lambda m: {a: b, b: a}.get(m.group(), m.group()), doc)
        F, F2 = cp.parse_forest(doc), cp.parse_forest(swapped)
        if F == F2:
            ref = 0
        elif F2.components[0].canonical in cp.tbr_neighbors(F.components[0]):
            ref = 1
        else:
            ref = 2
        nodes = solve_checked(F, F2, ref)
        out.append(instance("swap-%d-n%d-%s-%s" % (i, n, a, b), F, F2, ref, "tbr_neighbors", nodes))
    return out


def walk_trace(F, F2, rng):
    """A valid trace: the first free step when one exists, otherwise a
    random legal step.  Uses only the public step functions, so a better
    greedy bound or search cannot change these inputs."""
    steps = []
    while len(F.ground_set) > 1:
        options = cp.applicable_steps(F, F2)
        free = [s for s in options if s.cost == 0]
        step = free[0] if free else options[rng.randrange(len(options))]
        F, F2 = cp.apply_step(F, F2, step)
        steps.append(step)
    return cp.ReductionTrace(tuple(steps))


def certify_large(rng):
    out = []
    for i in range(CERTIFY_LARGE):
        n, k = rng.randint(60, 120), rng.randint(1, 3)
        F, F2 = random_forest(labels(n), k, rng), random_forest(labels(n), k, rng)
        trace = walk_trace(F, F2, rng)
        assert cp.validate_trace(F, F2, trace) == trace.weight
        item = instance("certify-%d-n%d-k%d" % (i, n, k), F, F2, trace.weight, "trace weight", None)
        item["trace"] = json.dumps(json.loads(cp.serialize_trace(trace)), separators=(",", ":"))
        out.append(item)
    return out


def instance(name, F, F2, weight, source, nodes):
    item = {
        "id": name,
        "forest1": cp.serialize_forest(F),
        "forest2": cp.serialize_forest(F2),
        "weight": weight,
        "reference": source,
    }
    if nodes is not None:
        item["seed_nodes"] = nodes
    return item


def main():
    rng = random.Random(POOL_SEED)
    workloads = {
        "deep-search": deep_search(rng),
        "wide-swap": wide_swap(rng),
        "certify-large": certify_large(rng),
    }
    pool = {"pool_seed": POOL_SEED, "sha256": sha256_json(workloads), "workloads": workloads}
    POOL.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    for name, items in workloads.items():
        print(name, [(it["id"], it["weight"], it.get("seed_nodes")) for it in items])
    print("wrote", POOL, pool["sha256"])


if __name__ == "__main__":
    main()
