"""Benchmark entry point: run one workload (or all) in a child process and
print its full report, then one JSON result line.

    python3 bench/run.py --workload deep-search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the repository root.  Workload names, metric names, units and
bounds live in BENCHMARK.json; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  With
``--workload all`` the metric names are prefixed by the workload.  The
lines before it are the full report: input digests, counters, the
per-function span table and the environment (commit, Python, nproc, src
line count).  Exit code 1, and no result line, when a workload could not
run at all.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_SECONDS = 170


def git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def run_workload(name, args):
    """The worker's report for one workload, or None when it did not run."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_SECONDS
        )
    except subprocess.TimeoutExpired:
        print("%s: worker exceeded %d s" % (name, CHILD_TIMEOUT_SECONDS), file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print("%s: worker exited with code %d" % (name, done.returncode), file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    env = environment()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        report = run_workload(name, args)
        if report is None:
            return 1
        report["environment"] = env
        print(json.dumps(report, indent=1, sort_keys=True))
        prefix = name + "." if args.workload == "all" else ""
        for metric in declared:
            got = report["metrics"][metric["name"]]
            if got["unit"] != metric["unit"]:
                print("%s: unit %s, declared %s" % (metric["name"], got["unit"], metric["unit"]),
                      file=sys.stderr)
                return 1
            result["metrics"][prefix + metric["name"]] = got
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
