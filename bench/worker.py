"""Run one workload in this process and print one JSON report line.

Started by bench/run.py as a child process, so the resource limits set
here bind this workload only:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (import, loading the pool, generating the first pass's documents
and checking the stored references) is timed on its own, SETUP_REPEATS
times, and reported as the median.  The timed part then runs passes over
the workload's fixed instance list, each pass with a fresh seeded label
permutation, until the next pass would end after ``--seconds``.  With
``--trace 1`` every pass runs twice on the same documents, untraced and
traced, which gives the per-layer split and the tracing overhead.

Every set-up and every instance is timed with ``refclock.Clock``, which
corrects for the speed of the shared host.  ``setup_s`` and ``wall_s`` are
corrected seconds; the raw seconds are in the report (``setup_runs_s``,
``raw_wall_s``, ``instance_s``).
"""

import argparse
import contextlib
import gc
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from refclock import Clock
from tracer import Tracer, installed
from workloads import (
    INSTANCE_SECONDS,
    PIPELINES,
    check_references,
    load_pool,
    pass_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 9
MIN_PASSES = 3
HARD_STOP_SECONDS = 140.0
ADDRESS_SPACE_BYTES = 1 << 30
CPU_SECONDS = 165

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "raw_wall_s": "s",
    "inst_p50_s": "s",
    "peak_rss_mb": "MB",
    "inst_tail_s": "s",
    "failed_frac": "fraction",
    "search.solve_s": "s",
    "search.greedy_s": "s",
    "search.nodes": "count",
    "search.memo_hits": "count",
    "search.nodes_per_s": "1/s",
    "search.greedy_gap": "count",
    "reductions.enumerate_calls": "count",
    "reductions.enumerate_s": "s",
    "reductions.apply_calls": "count",
    "reductions.apply_s": "s",
    "reductions.apply_self_s": "s",
    "reductions.apply_per_node": "ratio",
    "reductions.check_calls": "count",
    "reductions.check_s": "s",
    "reductions.validate_s": "s",
    "reductions.replay_s": "s",
    "trees.surgery_calls": "count",
    "trees.surgery_s": "s",
    "trees.tree_builds": "count",
    "builder.build_calls": "count",
    "builder.build_s": "s",
    "builder.steps_undone": "count",
    "newick.parse_s": "s",
    "newick.serialize_s": "s",
    "networks.analyse_s": "s",
    "oracles.displays_calls": "count",
    "oracles.displays_s": "s",
    "tracing_overhead": "ratio",
}


class GuardTimeout(Exception):
    """An instance ran past the benchmark's per-instance wall-clock guard."""


def _on_alarm(signum, frame):
    raise GuardTimeout("instance exceeded %.0f s" % INSTANCE_SECONDS)


def limit_resources():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS + 5))
    signal.signal(signal.SIGALRM, _on_alarm)


def import_program():
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "cherrypick" or m.startswith("cherrypick.")]:
        del sys.modules[name]
    import cherrypick

    if Path(cherrypick.__file__).resolve().parent != (SRC / "cherrypick").resolve():
        raise ImportError("cherrypick was not imported from %s" % SRC)
    return cherrypick


def set_up(workload, seed):
    """Import, load the instance list, build the first pass's documents and
    check them against the stored references."""
    cp = import_program()
    instances = load_pool()["workloads"][workload]
    check_references(workload, instances)
    docs, _ = pass_inputs(workload, instances, seed, 0)
    for inst, doc in zip(instances, docs):
        F, F2 = cp.parse_forest(doc["forest1"]), cp.parse_forest(doc["forest2"])
        if F.ground_set != F2.ground_set:
            raise ValueError("%s: forests on different labels" % inst["id"])
        if "trace" in doc:
            cp.parse_trace(doc["trace"])
        elif (inst["weight"] == 0) != (F == F2):
            raise ValueError("%s: weight 0 must mean isomorphic inputs" % inst["id"])
    return cp, instances


def run_pass(cp, clock, workload, instances, docs, tracer=None):
    """Run every instance once; returns per-instance raw and corrected
    seconds, failures and the search counters the program reports itself."""
    pipeline = PIPELINES[workload]
    stats = dict.fromkeys(("nodes", "memo_hits", "weight", "trace_steps"), 0)
    times, costs, failures = [], [], []
    for inst, doc in zip(instances, docs):
        gc.collect()
        root = tracer.begin("bench.instance") if tracer else None
        clock.start()
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_SECONDS)
        try:
            try:
                pipeline(cp, doc, inst["weight"], stats)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # any failure of the program is counted, and the run goes on
            failures.append({"id": inst["id"], "error": "%s: %s" % (type(exc).__name__, exc)})
        seconds, cost = clock.stop()
        times.append(seconds)
        costs.append(cost)
        if tracer:
            tracer.finish(root)
    return times, costs, failures, stats


def layer_metrics(tracer, stats):
    rows, by_stage = tracer.table()

    def calls(*names):
        return sum(rows[n][0] for n in names if n in rows)

    def took(*names):
        return sum(rows[n][1] for n in names if n in rows)

    nodes = stats["nodes"]
    solve = took("search.min_weight_cps")
    apply_calls = calls("reductions.apply_step")
    surgery = ("trees.remove_leaf_traced", "trees.remove_edge_traced")
    parse = ("newick.parse_forest", "newick.parse_trace", "newick.parse_network")
    analyse = ("networks.reticulation_number", "networks.blobs", "networks.simplify")
    counts = tracer.counts
    metrics = {
        "search.solve_s": solve,
        "search.greedy_s": took("search.greedy_cps"),
        "search.nodes": nodes,
        "search.memo_hits": stats["memo_hits"],
        "search.greedy_gap": counts["search.greedy_weight"] - stats["weight"],
        "reductions.enumerate_calls": calls("reductions.applicable_steps"),
        "reductions.enumerate_s": took("reductions.applicable_steps"),
        "reductions.apply_calls": apply_calls,
        "reductions.apply_s": took("reductions.apply_step"),
        "reductions.apply_self_s": rows.get("reductions.apply_step", [0, 0.0, 0.0])[2],
        "reductions.apply_per_node": apply_calls / nodes if nodes else 0.0,
        "reductions.check_calls": calls("reductions.check_step"),
        "reductions.check_s": took("reductions.check_step"),
        "reductions.validate_s": took("reductions.validate_trace"),
        "reductions.replay_s": took("reductions.replay_trace"),
        "trees.surgery_calls": calls(*surgery),
        "trees.surgery_s": took(*surgery),
        "trees.tree_builds": counts["trees.tree_builds"],
        "builder.build_calls": calls("builder.build_network"),
        "builder.build_s": took("builder.build_network"),
        "builder.steps_undone": counts["builder.steps_undone"],
        "newick.parse_s": took(*parse),
        "newick.serialize_s": took("newick.serialize_trace", "newick.serialize_network"),
        "networks.analyse_s": took(*analyse),
        "oracles.displays_calls": calls("oracles.displays"),
        "oracles.displays_s": took("oracles.displays"),
    }
    return metrics, rows, by_stage


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def list_time(pass_times):
    """Seconds for one pass over the instance list, median over passes."""
    return statistics.median(sum(times) for times in pass_times)


def list_cost(pass_costs):
    """Corrected seconds for one pass over the instance list: each
    instance's median over the passes, summed over the list."""
    return sum(statistics.median(costs) for costs in zip(*pass_costs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PIPELINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    limit_resources()
    sys.path.insert(0, str(SRC))
    clock = Clock()
    setup_runs, setup_costs = [], []
    for _ in range(SETUP_REPEATS):
        clock.start()
        cp, instances = set_up(args.workload, args.seed)
        seconds, cost = clock.stop()
        setup_runs.append(seconds)
        setup_costs.append(cost)

    runs = {False: [], True: []}  # traced -> per-pass instance seconds
    cost_runs = {False: [], True: []}  # traced -> per-pass corrected seconds
    pass_counters, failures, digests, layer_runs, first_trace = [], [], [], [], None
    attempted = 0
    start = perf_counter()
    while True:
        docs, digest = pass_inputs(args.workload, instances, args.seed, len(digests))
        digests.append(digest)
        # with --trace 1 the untraced and traced runs of a pass alternate
        # which goes first, so warm-up does not bias the overhead ratio
        order = [False, True] if args.trace else [False]
        if len(digests) % 2 == 0:
            order.reverse()
        for traced in order:
            tracer = Tracer() if traced else None
            with installed(tracer) if traced else contextlib.nullcontext():
                times, costs, failed, stats = run_pass(
                    cp, clock, args.workload, instances, docs, tracer
                )
            failures.extend(failed)
            attempted += len(times)
            runs[traced].append(times)
            cost_runs[traced].append(costs)
            if not traced:
                pass_counters.append(stats)
                continue
            metrics, rows, by_stage = layer_metrics(tracer, stats)
            layer_runs.append(metrics)
            first_trace = first_trace or (tracer, rows, by_stage, stats)
        elapsed = perf_counter() - start
        next_end = elapsed * (len(digests) + 1) / len(digests)
        if next_end > HARD_STOP_SECONDS or (len(digests) >= MIN_PASSES and next_end > args.seconds):
            break
    measured_s = perf_counter() - start
    pass_times = runs[False]
    samples = sorted(t for times in pass_times for t in times)
    # the highest whole percentile with at least ten samples above it
    tail_pct = math.floor(100 * (1 - 10 / len(samples)))

    metrics = {
        "setup_s": statistics.median(setup_costs),
        "wall_s": list_cost(cost_runs[False]),
        "raw_wall_s": list_time(pass_times),
        "inst_p50_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": len(failures) / attempted,
    }
    if tail_pct > 50:
        metrics["inst_tail_s"] = percentile(samples, tail_pct)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "passes": len(digests),
        "measured_s": measured_s,
        "pass_wall_s": [sum(times) for times in pass_times],
        "setup_runs_s": setup_runs,
        "setup_corrected_s": setup_costs,
        "inst_samples": len(samples),
        "inst_tail_pct": tail_pct if tail_pct > 50 else None,
        "inputs_sha256": digests,
        "counters": pass_counters[0],
        "pass_counters": pass_counters,
        "instance_s": {inst["id"]: list(times) for inst, times in zip(instances, zip(*pass_times))},
        "instance_corrected_s": {
            inst["id"]: list(costs) for inst, costs in zip(instances, zip(*cost_runs[False]))
        },
    }
    if args.trace:
        tracer, rows, by_stage, stats = first_trace
        # counts from the first traced pass, which repeat exactly per seed;
        # times as the median over the traced passes
        for name, value in layer_runs[0].items():
            counted = UNITS[name] in ("count", "ratio")
            metrics[name] = value if counted else statistics.median(m[name] for m in layer_runs)
        solve = metrics["search.solve_s"]
        metrics["search.nodes_per_s"] = metrics["search.nodes"] / solve if solve else 0.0
        metrics["tracing_overhead"] = list_cost(cost_runs[True]) / metrics["wall_s"]
        report["traced_pass_wall_s"] = [sum(times) for times in runs[True]]
        report["trace_steps"] = stats["trace_steps"]
        # share of the first traced pass's solve time per function under
        # min_weight_cps, as [inclusive, self]
        under = by_stage.get("search.min_weight_cps", {})
        solve = under.get("search.min_weight_cps", [0, 0.0])[1]
        report["solve_split"] = {
            name: [row[1] / solve, row[2] / solve] for name, row in under.items() if solve
        }
        report["functions"] = rows
        report["functions_by_stage"] = by_stage
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
        tracer.dump(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
        report["spans"] = len(tracer.start)
    report["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    try:
        main()
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print("benchmark could not run: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        sys.exit(2)
