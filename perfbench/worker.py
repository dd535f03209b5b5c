"""One benchmark run in a fresh process: cold first job, then timed jobs.

Started by run.py with the BLAS/OpenMP thread variables already set, so
they are in place before numpy loads.  Prints one JSON object: the jobs,
the environment record and, with --trace 1, the per-layer metrics.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402
from workloads import TOP_ORDER, WORKLOADS, check_report, job_seed  # noqa: E402

# symbols that report the thread count an OpenBLAS build is using
_BLAS_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def blas_threads_in_effect():
    """Thread count of every OpenBLAS copy mapped into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in _BLAS_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = int(fn())
                break
    return found


def import_gphier(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gphier
    from gphier import cli

    where = os.path.realpath(gphier.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"gphier imported from {where}, not from {src}")
    return gphier, cli


def run_job(cli, workload, seed, csv_dir):
    """Run one pinned job; returns its record (timings, problems).

    The job writes its CSV files to `csv_dir`, emptied first so that no
    file of an earlier job is checked.
    """
    cfg = cli.ExperimentConfig(seed=seed, **WORKLOADS[workload])
    shutil.rmtree(csv_dir, ignore_errors=True)
    start, cpu = time.perf_counter(), time.process_time()
    try:
        rep = cli.run_experiment(cfg, csv_dir=csv_dir)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "raised": True,
                "problems": [f"raised {exc!r}"]}
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    problems = check_report(workload, asdict(cfg), rep.to_obj(), csv_dir)
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "raised": False,
            "problems": problems, "program_thread_count":
            rep.environment.get("thread_count")}


def layer_metrics(tracer, job_index):
    """Per-layer figures of one traced job."""
    root, by, extra = tracer.job_profile(job_index)

    def get(name, key="self"):
        return by.get(name, {}).get(key, 0)

    evolve_steps = get("dynamics.evolve_truncated", "units")
    nls_steps = get("nls.nls_evolve", "units")
    out = {
        "trace.job_s": root,
        "trace.span_count": sum(v["calls"] for v in by.values()),
        "cli.run_experiment_self_s": get("cli.run_experiment"),
        "tensor.h_alpha_norm_s": get("tensor.h_alpha_norm"),
        "tensor.h_alpha_norm_calls": get("tensor.h_alpha_norm", "calls"),
        "tensor.factorized_s": get("tensor.factorized"),
        "dynamics.evolve_truncated_s": get("dynamics.evolve_truncated"),
        "dynamics.evolve_step_ms": (1e3 * get("dynamics.evolve_truncated")
                                    / evolve_steps if evolve_steps else 0.0),
        "dynamics.collision_matrix_s": get("dynamics.collision_matrix")
        + get("dynamics.full_collision_matrix"),
        "dynamics.collision_matrix_calls": get("dynamics.collision_matrix", "calls"),
        "dynamics.full_collision_matrix_calls":
            get("dynamics.full_collision_matrix", "calls"),
        "dynamics.matrix_nnz": get("dynamics.full_collision_matrix", "max_units"),
        "dynamics.collision_s": get("dynamics.collision"),
        "dynamics.collision_calls": get("dynamics.collision", "calls"),
        "duhamel.term_batch_s": get("duhamel.term_batch"),
        "duhamel.term_batch_calls": get("duhamel.term_batch", "calls"),
        "duhamel.evaluator_count": extra.get("duhamel.DuhamelEvaluator", 0),
        "duhamel.integral_residual_s": get("duhamel.integral_residual"),
        "randomization.omega_l2_h_alpha_s":
            get("randomization.omega_l2_h_alpha", "incl"),
        "randomization.omega_evaluations": extra["omega_evaluations"],
        "randomization.operator_norm_s":
            get("randomization.collision_omega_operator_norm")
            + get("randomization.deterministic_collision_norm"),
        # inclusive: the stepper's own nonlinearity calls are spans of their own
        "nls.nls_evolve_s": get("nls.nls_evolve", "incl"),
        "nls.step_us": (1e6 * get("nls.nls_evolve", "incl") / nls_steps
                        if nls_steps else 0.0),
        "nls.factorized_residual_s": get("nls.factorized_residual", "incl"),
    }
    for module in ("tensor", "dynamics", "duhamel", "randomization", "nls"):
        out[f"{module}.self_s"] = sum(v["self"] for k, v in by.items()
                                      if k.startswith(module + "."))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--csv-dir", required=True,
                    help="directory each job writes its CSV files to")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    gphier, cli = import_gphier(args.root)
    import numpy
    import scipy

    tracer = Tracer() if args.trace else None

    jobs = []

    def one(index, traced):
        seed = job_seed(args.seed, index)
        if traced:
            tracer.job = index
            tracer.install()
        try:
            rec = run_job(cli, args.workload, seed, args.csv_dir)
        finally:
            if traced:
                tracer.uninstall()
        rec.update(index=index, traced=traced)
        jobs.append(rec)

    # job 0 runs on cold caches and ends the set-up; it is not timed as a job
    one(0, bool(args.trace))
    first_job_end = time.monotonic()
    measure_start = time.perf_counter()
    index = 1
    while True:
        one(index, bool(args.trace) and index % 2 == 1)
        index += 1
        counted = jobs[1:]
        done = time.perf_counter() - measure_start >= args.seconds
        if args.trace:
            done = done and any(j["traced"] for j in counted) \
                and any(not j["traced"] for j in counted)
        if done:
            break

    from gphier import dynamics

    F = (2 * WORKLOADS[args.workload]["M"] + 1) ** WORKLOADS[args.workload]["d"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": WORKLOADS[args.workload],
        "jobs": jobs,
        "first_job_end_monotonic": first_job_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "python": sys.version.split()[0],
            "gphier": gphier.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_threads_in_effect": blas_threads_in_effect(),
            "lattice_size": F,
            "level_dims": {k: F ** (2 * k)
                           for k in range(1, TOP_ORDER[args.workload] + 1)},
            "largest_cached_matrix_nnz": max(
                (int(m.nnz) for m in dynamics._MATRIX_CACHE.values()), default=0),
        },
    }
    if tracer is not None:
        traced = [j for j in jobs[1:] if j["traced"]]
        per_job = [layer_metrics(tracer, j["index"]) for j in traced]
        layers = {k: statistics.fmean(m[k] for m in per_job) for k in per_job[0]}
        first = layer_metrics(tracer, 0)
        layers["trace.first_job_collision_matrix_s"] = \
            first["dynamics.collision_matrix_s"]
        plain = statistics.median(j["wall_s"] for j in jobs[1:] if not j["traced"])
        wrapped = statistics.median(j["wall_s"] for j in traced)
        layers["trace.overhead_pct"] = 100.0 * (wrapped - plain) / plain
        record["layers"] = layers
        record["layers_per_job"] = per_job
        if args.spans:
            with open(args.spans, "w") as fh:
                tracer.dump(fh)
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
