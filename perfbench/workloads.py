"""Pinned workloads, per-job seeds and the benchmark's own output checks.

Each workload is one `gph` experiment kind at a fixed config; a job is one
`run_experiment` call on that config with a per-job seed.  The checks here
are independent of the program's own `Report.check` verdicts: they read
the report's raw constants, and for `residual` every grid point the job
writes to its CSV, and reject anything non-finite.
"""

import csv
import math
import os

WORKLOADS = {
    # Duhamel-vs-ODE cross-check over all three modes; RK4 + GL Duhamel,
    # fresh sign fields (and so fresh collision matrices) every job.
    "residual": dict(kind="residual", d=1, M=3, N=3, K_max=3, q=16, T=0.5,
                     dt=5e-4, grid_points=11),
    # criterion 4: exact Omega-average by 8^j field enumeration per depth;
    # the same fields every job, so the matrix cache stays warm.
    "decay-independent": dict(kind="decay", mode="independent", d=1, M=1,
                              K_max=4, T=0.5, q=12),
    # criterion 10: at F=17 the order-3 collision is above the matrix cap,
    # so the gather kernel and the dense tensor powers carry the job.
    "nls-factorized": dict(kind="nls", d=1, M=8, T=0.5, dt=1e-3),
}

# highest tensor order a job materializes (nls: gamma^(k+1) for k = 1, 2)
TOP_ORDER = {"residual": 3, "decay-independent": 4, "nls-factorized": 3}


# the file a residual job writes one row per (mode, k, grid time) to
RESIDUAL_CSV = "duhamel_vs_ode.csv"


def job_seed(workload_seed, job_index):
    """Seed of job `job_index` of a run started with `workload_seed`."""
    return (int(workload_seed) * 1_000_003 + 7919 * int(job_index)) % 2**31


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _walk_numbers(obj, path=""):
    """Yield (path, value) for every number in a nested report object."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _walk_numbers(val, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            yield from _walk_numbers(val, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def _at_most(problems, name, value, limit):
    if not _finite(value):
        problems.append(f"{name}: {value!r} is not a finite number")
    elif not value <= limit:
        problems.append(f"{name}: {value!r} > {limit!r}")


def _as_number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def _check_residual(cfg, rep, csv_dir):
    problems = []
    const = rep.get("constants", {})
    _at_most(problems, "duhamel_ode_discrepancy",
             const.get("duhamel_ode_discrepancy"), 1e-5)
    _at_most(problems, "integral_residual", const.get("integral_residual"), 1e-6)
    # the reported discrepancy is a max() fold that drops NaN, so every
    # (mode, k, t) point of the two constructions is checked on its own
    path = os.path.join(csv_dir, RESIDUAL_CSV)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return problems + [f"{RESIDUAL_CSV}: {exc}"]
    expected = 3 * cfg["N"] * cfg["grid_points"]
    if len(rows) != expected:
        problems.append(f"{RESIDUAL_CSV}: {len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        _at_most(problems, f"{RESIDUAL_CSV} row {i} rel_err",
                 _as_number(row.get("rel_err")), 1e-5)
    return problems


def _check_decay(cfg, rep, csv_dir):
    problems = []
    const = rep.get("constants", {})
    norms = const.get("decay_norms")
    if not isinstance(norms, list) or len(norms) != 4:
        problems.append(f"decay_norms: expected 4 depths, got {norms!r}")
    else:
        # free flow is unitary and level 1 is normalised to H^alpha norm 1
        n0 = norms[0]
        _at_most(problems, "|decay_norms[0] - 1|",
                 abs(n0 - 1.0) if _finite(n0) else n0, 1e-12)
    _at_most(problems, "decay_bound_excess", const.get("decay_bound_excess"),
             1e-8)
    return problems


def _check_nls(cfg, rep, csv_dir):
    problems = []
    by_name = {c.get("name"): c for c in rep.get("checks", [])}
    single = by_name.get("nls.single_mode", {}).get("measured")
    # |phi_T(z) - exp(-i(|z|^2 + 1) T)| for the unit single-mode datum
    _at_most(problems, "single-mode closed form", single, 1e-8)
    ratio = rep.get("constants", {}).get("rk4_halving_ratio")
    if not _finite(ratio):
        problems.append(f"rk4_halving_ratio: {ratio!r} is not a finite number")
    elif not 12.0 <= ratio <= 20.0:
        problems.append(f"rk4_halving_ratio: {ratio!r} outside [12, 20]")
    return problems


_CHECKS = {
    "residual": _check_residual,
    "decay-independent": _check_decay,
    "nls-factorized": _check_nls,
}


def check_report(workload, cfg, rep, csv_dir):
    """Problems found in one job's report object; empty when it is correct.

    `cfg` is the config dict the job was run with; `rep` is
    `Report.to_obj()`; `csv_dir` is the directory the job wrote its CSV
    files to.  Every number in the report must be finite, every
    program check must have passed, the report must describe the pinned
    config, and the workload's own checks must hold.
    """
    problems = []
    if rep.get("config") != cfg:
        problems.append("report config differs from the pinned job config")
    checks = rep.get("checks", [])
    if not checks:
        problems.append("report carries no checks")
    for c in checks:
        if c.get("passed") is not True:
            problems.append(f"program check {c.get('name')} failed")
    if rep.get("passed") is not True:
        problems.append("report is not marked passed")
    for path, val in _walk_numbers({"checks": checks,
                                    "constants": rep.get("constants", {})}):
        if not math.isfinite(val):
            problems.append(f"{path}: {val!r} is not finite")
    problems.extend(_CHECKS[workload](cfg, rep, csv_dir))
    return problems
