"""Benchmark of pinned `gph` experiments, one workload per fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload residual --seed 1 --seconds 20 --trace 0

The run starts worker.py in a child process with the BLAS/OpenMP thread
count fixed before numpy loads.  The child runs one cold job (set-up),
then closed-loop jobs, one at a time, until --seconds have passed.  With
--trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 every job alternates traced/untraced and the last line reports
the per-layer metrics.  The line before it is the full run record
(per-job times, environment), also written under perfbench/out/.
Exit status is non-zero, with no result line, when the run cannot be made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# one BLAS thread: a job's CPU time then equals its wall time; a second
# thread doubles CPU on decay-independent for no wall time (see README)
BLAS_THREADS = 1
# the child is killed past this, so the whole run ends within 180 s
CHILD_TIMEOUT_S = 170


def declared_units(root=ROOT):
    """Unit of every metric BENCHMARK.json declares, by section."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in bench[section]}
            for section in ("end_to_end", "per_layer")}


def summarize(record, spawn_monotonic, units):
    """The result line: correctness, job counts and the metrics.

    Raises ValueError when no job after job 0 passed, or when the metrics
    are not exactly the ones `units` (from `declared_units`) lists.
    """
    jobs = record["jobs"]
    failed = sum(1 for j in jobs if j["problems"])
    # a job that completed with a wrong output makes the run incorrect;
    # a job that raised is only counted as failed
    correct = not any(j["problems"] and not j["raised"] for j in jobs)
    passing = [j["wall_s"] for j in jobs[1:] if not j["problems"]]
    if not passing:
        raise ValueError("no job after job 0 passed")
    if record["trace"]:
        section, values = "per_layer", record["layers"]
    else:
        section, values = "end_to_end", {
            "job_s": statistics.median(passing),
            "setup_s": record["first_job_end_monotonic"] - spawn_monotonic,
            "peak_rss_mb": record["peak_rss_mb"],
        }
    declared = units[section]
    if set(values) != set(declared):
        raise ValueError(f"metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(values) ^ set(declared))}")
    metrics = {k: {"value": v, "unit": declared[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("need --seed >= 0 and 0 < --seconds <= 120")
    if not os.path.isfile(os.path.join(ROOT, "src", "gphier", "cli.py")):
        print(f"perfbench: no gphier sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = declared_units()

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--csv-dir", stem + "-csv"]
    if args.trace:
        cmd += ["--spans", stem + "-spans.jsonl"]

    spawn = time.monotonic()
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"perfbench: worker exited {child.returncode}", file=sys.stderr)
        return 1
    record = json.loads(child.stdout.strip().splitlines()[-1])
    try:
        result = summarize(record, spawn, units)
    except ValueError as exc:
        print(f"perfbench: {exc}; run record in {stem}.json", file=sys.stderr)
        result = None
    record["result"] = result
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if result is None:
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
