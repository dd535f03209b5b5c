"""Tests of the benchmark's own checks, job accounting and tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import copy
import math
import os
import sys
from dataclasses import asdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gphier import cli  # noqa: E402
from run import declared_units, summarize  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import RESIDUAL_CSV, WORKLOADS, check_report, job_seed  # noqa: E402

UNITS = declared_units()


def write_residual_rows(csv_dir, cfg, rel_err=1e-12):
    """duhamel_vs_ode.csv as a residual job of `cfg` writes it."""
    rows = [(mode, k, t, rel_err)
            for mode in ("deterministic", "dependent", "independent")
            for k in range(1, cfg.N + 1)
            for t in [0.1 * i for i in range(cfg.grid_points)]]
    cli._write_csv(str(csv_dir), RESIDUAL_CSV, ["mode", "k", "t", "rel_err"], rows)
    return rows


def good_report(workload, seed=3, csv_dir=None):
    """A report shaped like a passing job of `workload`, built by Report.

    With `csv_dir` given, a residual report also gets its grid-point CSV.
    """
    cfg = cli.ExperimentConfig(seed=seed, **WORKLOADS[workload])
    if workload == "residual" and csv_dir is not None:
        write_residual_rows(csv_dir, cfg)
    rep = cli.Report(config=asdict(cfg))
    if workload == "residual":
        rep.constants.update(duhamel_ode_discrepancy=3e-15, integral_residual=2e-16)
        rep.check("duhamel.ode_equivalence", 3e-15, 1e-5, "DERIVED")
        rep.check("duhamel.integral_residual", 2e-16, 1e-6, "DERIVED")
    elif workload == "decay-independent":
        rep.constants.update(decay_norms=[1.0, 0.4, 0.1, 0.02],
                             decay_bound_excess=-0.6)
        rep.check("duhamel.decay_chain_bound_excess", -0.6, 1e-8, "DERIVED")
    else:
        rep.constants.update(mass_drift=3e-13, rk4_halving_ratio=16.1)
        rep.check("nls.mass_conservation", 3e-13, 1e-8, "DERIVED")
        rep.check("nls.single_mode", 2e-12, 1e-8, "DERIVED")
        rep.check("nls.rk4_order_low", 16.1, 20.0, "DERIVED")
        rep.check("nls.rk4_order_high", -16.1, -12.0, "DERIVED")
    return cfg, rep


def corrupt(workload, how, csv_dir=None):
    cfg, rep = good_report(workload, csv_dir=csv_dir)
    const = rep.constants
    if how == "nan":
        key = {"residual": "duhamel_ode_discrepancy",
               "decay-independent": "decay_bound_excess",
               "nls-factorized": "rk4_halving_ratio"}[workload]
        const[key] = math.nan
    elif how == "perturbed":
        if workload == "residual":
            const["duhamel_ode_discrepancy"] = 2e-5
        elif workload == "decay-independent":
            const["decay_norms"][0] = 1.0 + 1e-9
        else:
            const["rk4_halving_ratio"] = 21.0
    elif how == "failed-check":
        rep.check("injected", 1.0, 0.0, "TRIVIAL")
    elif how == "inf":
        rep.checks[0]["measured"] = math.inf
    return cfg, rep


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_passing_report_has_no_problems(workload, tmp_path):
    cfg, rep = good_report(workload, csv_dir=tmp_path)
    assert check_report(workload, asdict(cfg), rep.to_obj(), tmp_path) == []


@pytest.mark.parametrize("how", ["nan", "perturbed", "failed-check", "inf"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_report_is_rejected(workload, how, tmp_path):
    cfg, rep = corrupt(workload, how, csv_dir=tmp_path)
    assert check_report(workload, asdict(cfg), rep.to_obj(), tmp_path)


def test_nan_passing_program_check_is_still_rejected(tmp_path):
    # a check collapsed to an int passes on NaN input; the raw constant
    # still carries the NaN and must be caught
    cfg, rep = good_report("decay-independent")
    rep.constants["decay_norms"][2] = math.nan
    assert rep.passed
    assert check_report("decay-independent", asdict(cfg), rep.to_obj(), tmp_path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2e-5])
def test_bad_residual_grid_point_is_rejected(bad, tmp_path):
    # the program folds grid points with max(), which drops a NaN, so the
    # report alone passes; the CSV row must be caught
    cfg, rep = good_report("residual")
    rows = write_residual_rows(tmp_path, cfg)
    rows[17] = rows[17][:3] + (bad,)
    cli._write_csv(str(tmp_path), RESIDUAL_CSV, ["mode", "k", "t", "rel_err"], rows)
    assert rep.passed
    problems = check_report("residual", asdict(cfg), rep.to_obj(), tmp_path)
    assert problems == [f"{RESIDUAL_CSV} row 17 rel_err: "
                        + (f"{bad!r} is not a finite number" if bad != 2e-5
                           else "2e-05 > 1e-05")]


def test_missing_or_short_residual_csv_is_rejected(tmp_path):
    cfg, rep = good_report("residual")
    assert check_report("residual", asdict(cfg), rep.to_obj(), tmp_path)
    rows = write_residual_rows(tmp_path, cfg)
    cli._write_csv(str(tmp_path), RESIDUAL_CSV, ["mode", "k", "t", "rel_err"],
                   rows[:-1])
    assert check_report("residual", asdict(cfg), rep.to_obj(), tmp_path)


def test_real_residual_job_writes_the_checked_rows(tmp_path):
    # a small residual run, to hold the check to the program's CSV layout
    cfg = cli.ExperimentConfig(kind="residual", d=1, M=1, N=2, K_max=2, q=16,
                               T=0.1, dt=1e-2, grid_points=3, seed=4)
    rep = cli.run_experiment(cfg, csv_dir=str(tmp_path))
    assert check_report("residual", asdict(cfg), rep.to_obj(), tmp_path) == []


def test_config_mismatch_is_rejected(tmp_path):
    cfg, rep = good_report("residual", csv_dir=tmp_path)
    obj = copy.deepcopy(rep.to_obj())
    obj["config"]["dt"] = 1e-3
    assert check_report("residual", asdict(cfg), obj, tmp_path)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_job_counts_as_failed(workload, monkeypatch, tmp_path):
    """run_job on a corrupted report, then summarize: one job failed."""
    outcomes = iter([good_report, lambda w, csv_dir: corrupt(w, "nan", csv_dir),
                     good_report])

    def fake_run(cfg, csv_dir=None, out_dir=None):
        _, rep = next(outcomes)(workload, csv_dir=csv_dir)
        rep.config = asdict(cfg)
        return rep

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    jobs = [dict(run_job(cli, workload, job_seed(5, i), str(tmp_path)),
                 index=i, traced=False) for i in range(3)]
    record = {"trace": 0, "jobs": jobs, "first_job_end_monotonic": 2.0,
              "peak_rss_mb": 100.0}
    result = summarize(record, 1.0, UNITS)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["correct"] is False
    assert result["metrics"]["job_s"]["value"] == jobs[2]["wall_s"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == UNITS["end_to_end"]


def test_run_without_a_passing_job_is_refused(monkeypatch, tmp_path):
    def boom(cfg, csv_dir=None, out_dir=None):
        raise MemoryError("collision matrix domain exceeds cap")

    monkeypatch.setattr(cli, "run_experiment", boom)
    rec = dict(run_job(cli, "residual", 1, str(tmp_path)), index=0, traced=False)
    assert rec["raised"] and rec["problems"]
    with pytest.raises(ValueError, match="no job after job 0 passed"):
        summarize({"trace": 0, "jobs": [rec, rec],
                   "first_job_end_monotonic": 1.0, "peak_rss_mb": 1.0}, 0.0,
                  UNITS)


def test_undeclared_or_missing_metric_is_refused():
    job = {"wall_s": 1.0, "problems": [], "raised": False}
    layers = {name: 1.0 for name in UNITS["per_layer"]}
    record = {"trace": 1, "jobs": [job, job], "layers": layers}
    assert set(summarize(record, 0.0, UNITS)["metrics"]) == set(layers)
    for bad in (dict(layers, **{"tensor.extra_s": 1.0}),
                {k: v for k, v in layers.items() if k != "nls.step_us"}):
        with pytest.raises(ValueError, match="BENCHMARK.json per_layer"):
            summarize(dict(record, layers=bad), 0.0, UNITS)


def test_job_seeds_are_reproducible_and_distinct():
    seeds = [job_seed(7, i) for i in range(50)]
    assert seeds == [job_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert not set(seeds) & {job_seed(8, i) for i in range(50)}


def test_tracer_self_times_account_for_the_job():
    import gphier
    from gphier import dynamics, tensor

    original = tensor.h_alpha_norm
    tracer = Tracer()
    tracer.job = 0
    tracer.install()
    try:
        # bound under its own module and re-bound by importers
        assert tensor.h_alpha_norm is not original
        assert cli.h_alpha_norm is tensor.h_alpha_norm
        assert gphier.h_alpha_norm is tensor.h_alpha_norm
        rep = cli.run_experiment(cli.ExperimentConfig(kind="verify"))
    finally:
        tracer.uninstall()
    assert rep.passed
    assert tensor.h_alpha_norm is original and cli.h_alpha_norm is original
    assert not hasattr(dynamics.full_collision_matrix, "__wrapped__")
    root, by, _ = tracer.job_profile(0)
    assert by["cli.run_experiment"]["calls"] == 1
    assert by["tensor.h_alpha_norm"]["calls"] > 5
    assert by["dynamics.evolve_truncated"]["units"] > 0
    total_self = sum(v["self"] for v in by.values())
    assert total_self == pytest.approx(root, rel=1e-9)
    assert root == pytest.approx(by["cli.run_experiment"]["incl"], rel=1e-12)
    assert all(s[3] < i for i, s in enumerate(tracer.spans))
