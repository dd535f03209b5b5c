import json
import math
import time

import numpy as np
import pytest

from gphier import cli
from gphier.cli import ConfigError, ExperimentConfig, Report, main, run_experiment


def test_config_validation_names_fields():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(kind="converge", K_max=2, N=4).validate()
    assert any("K_max" in p for p in exc.value.problems)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(xi=0.9, xi_prime=0.5).validate()
    assert any(p.startswith("xi") for p in exc.value.problems)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(alpha=2.0, alpha0=1.0).validate()
    assert any("alpha0" in p for p in exc.value.problems)
    for kind, n in (("estimate-c0", 0), ("decay", 1), ("decay", -2)):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind=kind, mc_samples=n).validate()
        assert any(p.startswith("mc_samples") for p in exc.value.problems)


def test_verify_passes_and_reports(tmp_path):
    cfg = ExperimentConfig(kind="verify")
    rep = run_experiment(cfg)
    assert rep.passed
    assert all("provenance" in c for c in rep.checks)
    assert {c["provenance"] for c in rep.checks} <= {"PAPER", "TRIVIAL", "DERIVED"}
    out = tmp_path / "rep.json"
    rep.dump(out)
    obj = json.loads(out.read_text())
    assert obj["passed"] is True
    assert "thread_count" in obj["environment"]


def test_exit_codes(tmp_path, capsys):
    assert main(["verify", "--seed", "3"]) == 0
    # config error: exit 2 with the failing field named on stderr
    code = main(["converge", "--set", "K_max=2", "--set", "N=4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "K_max" in err
    assert main(["verify", "--set", "bogus_field=1"]) == 2
    # oversized or unsupported configs: a config error, not a traceback
    capsys.readouterr()
    assert main(["residual", "--set", "M=3", "--set", "N=4", "--set", "K_max=4"]) == 2
    assert capsys.readouterr().err.startswith("config error: N:")
    assert main(["decay", "--set", "mode=dependent"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: M:") and "modulus shells" in err
    # decay at K_max=1 has no depth to profile
    assert main(["decay", "--set", "K_max=1"]) == 2
    assert capsys.readouterr().err.startswith("config error: K_max:")
    # residual at N=1 has no level below N to check the integral equation on
    assert main(["residual", "--set", "N=1", "--set", "K_max=1"]) == 2
    assert capsys.readouterr().err.startswith("config error: N:")
    # nls steps to T in whole steps of dt, and needs 13 of them for its
    # residual times to clear the seven-point stencil
    assert main(["nls", "--set", "T=0.5", "--set", "dt=0.3"]) == 2
    assert capsys.readouterr().err.startswith("config error: dt:")
    assert main(["nls", "--set", "T=0.01"]) == 2
    assert capsys.readouterr().err.startswith("config error: T:")
    ExperimentConfig(kind="nls", T=0.013).validate()
    with pytest.raises(ConfigError, match="^T: "):
        ExperimentConfig(kind="nls", T=0.012).validate()
    # integer fields take whole numbers only, float fields finite numbers,
    # and the seed is in [0, 2^62); each is a config error naming the field
    for argv, name in (
        (["residual", "--set", "T=abc"], "T"),
        (["residual", "--set", "T=nan"], "T"),
        (["residual", "--set", "T=inf"], "T"),
        (["decay", "--set", "K_max=2.5"], "K_max"),
        (["estimate-c0", "--set", "mc_samples=2.5"], "mc_samples"),
        (["verify", "--set", "q=nan"], "q"),
        (["verify", "--set", "alpha=nan"], "alpha"),
        (["verify", "--set", "seed=-1"], "seed"),
        # seeds key signed 64-bit streams after small offsets: < 2^62
        (["verify", "--set", "seed=9223372036854775806"], "seed"),
        (["verify", "--set", f"seed={2**62}"], "seed"),
        (["verify", "--set", "M=1.5"], "M"),
        (["verify", "--set", "M=true"], "M"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"config error: {name}:"), argv
    ExperimentConfig(kind="residual", T=1, xi=np.float64(0.25)).validate()
    ExperimentConfig(kind="verify", seed=2**62 - 1).validate()
    # each kind's largest dense size is checked before any state is built,
    # and the error names the field at fault
    for argv, name in (
        # 2^11, 2^17 and 2^25 sign fields, above the 2^10 estimate-c0 averages
        (["estimate-c0", "--set", "M=5"], "M"),
        (["estimate-c0", "--set", "M=8"], "M"),
        (["estimate-c0", "--set", "d=2", "--set", "M=2"], "d"),
        (["decay", "--set", "M=2", "--set", "K_max=4"], "K_max"),
        (["decay", "--set", "M=3", "--set", "K_max=4"], "K_max"),
        (["converge", "--set", "M=3", "--set", "N=3", "--set", "K_max=4"], "N"),
        (["continuity", "--set", "M=6", "--set", "N=3"], "N"),
        # 11 * 16^5 Gauss-Legendre nodes for the depth-5 Duhamel term
        (["residual", "--set", "N=6", "--set", "K_max=6"], "N"),
        # 2^14 and 2^11 joint sign fields, above the 2^10 one climb takes
        (["continuity", "--set", "M=3", "--set", "N=3"], "N"),
        (["continuity", "--set", "M=5", "--set", "N=2"], "M"),
        # the order-3 tensor power on the M' = max(M, 2) lattice: 125^6 and
        # 33^6 entries, above the 2^28 dense guard
        (["nls", "--set", "d=3"], "d"),
        (["nls", "--set", "M=16"], "M"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}:"), err
        assert "exceeds the cap" in err
    # exact dependent-mode decay enumerates 2^F shared fields: 2^11 at M=5
    # is refused up front, naming mc_samples
    start = time.perf_counter()
    assert main(["decay", "--set", "mode=dependent", "--set", "M=5",
                 "--set", "K_max=3", "--set", "mc_samples=0", "--set", "T=0.1",
                 "--set", "q=6", "--seed", "30"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: mc_samples:"), err
    assert "exceeds the cap" in err
    # refused in under a second, naming the field: converge at N < 3 has no
    # ratio to check (and at N=2 nothing bounds its 2^F shared fields), and
    # dependent-mode decay at M=6 would build an order-3 collision matrix
    # of F^6 = 13^6 > 2^21 coefficients
    for argv, name in (
        (["converge"], "N"),
        (["converge", "--set", "M=5", "--set", "N=2", "--set", "K_max=3"], "N"),
        (["decay", "--set", "mode=dependent", "--set", "M=6", "--set", "K_max=3",
          "--set", "mc_samples=16"], "K_max"),
    ):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}:"), err


def test_checks_with_nothing_to_compare_are_left_out():
    # converge at N=3 has no ratio after the first; the check would measure
    # an empty list.  Dependent decay at K_max=2 has no depth >= 2, so none
    # of its checks would be left: the config is refused, and a report with
    # no checks does not pass.
    cfg, name = (ExperimentConfig(kind="converge", N=3, K_max=4),
                 "duhamel.cauchy_ratio_below_first")
    rep = run_experiment(cfg)
    assert rep.passed
    assert name not in [c["name"] for c in rep.checks]
    with pytest.raises(ConfigError, match="K_max: dependent-mode decay"):
        run_experiment(ExperimentConfig(kind="decay", mode="dependent", M=3,
                                        K_max=2, mc_samples=16))
    assert not Report(config={}).passed


def test_independent_decay_field_count_is_capped(capsys):
    # independent-mode decay averages over 2^(F min(K_max - 1, 3)) joint
    # sign fields.  2^9 is admitted: criterion 4 (M=1, K_max=4) and M=4 at
    # K_max=2.  2^11 at M=5 and 2^15 at M=7 are refused up front, naming M
    for M, K_max in ((1, 4), (4, 2)):
        ExperimentConfig(kind="decay", mode="independent", M=M,
                         K_max=K_max).validate()
    for M in (5, 7):
        start = time.perf_counter()
        assert main(["decay", "--set", "mode=independent", "--set", "K_max=2",
                     "--set", f"M={M}"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: M:"), err
        assert "joint sign field" in err and "exceeds the cap 1024" in err
    # dependent-mode decay at K_max=2 would report no check at all
    assert main(["decay", "--set", "mode=dependent", "--set", "M=3",
                 "--set", "K_max=2", "--set", "mc_samples=16"]) == 2
    assert capsys.readouterr().err.startswith("config error: K_max:")


def test_decay_builds_only_levels_it_reads(monkeypatch):
    # the profile and its chain bound read levels 1..min(K_max, 4); a dense
    # level 8 at F=3 would hold 3^16 complex entries.  The state request is
    # recorded, and the run stopped before anything is built.
    requested = []

    class Stop(Exception):
        pass

    def recording(lattice, K_max, seed, **kwargs):
        requested.append((K_max, len(kwargs["level_norms"])))
        raise Stop

    monkeypatch.setattr(cli, "random_state", recording)
    for mode in ("deterministic", "independent"):
        with pytest.raises(Stop):
            run_experiment(ExperimentConfig(kind="decay", mode=mode, K_max=8))
    assert requested == [(4, 4), (4, 4)]


def test_report_determinism(tmp_path):
    a = run_experiment(ExperimentConfig(kind="verify", seed=11)).to_obj()
    b = run_experiment(ExperimentConfig(kind="verify", seed=11)).to_obj()
    a["environment"].pop("timestamp")
    b["environment"].pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_reproducible(monkeypatch):
    # a report is a function of (config, seed): a run on cold collision-matrix,
    # energy-split and energy-bucket caches equals a rerun on the caches it
    # left warm
    from gphier import duhamel, dynamics

    monkeypatch.setattr(dynamics, "_MATRIX_CACHE", {})
    monkeypatch.setattr(dynamics, "_SPLIT_CACHE", {})
    monkeypatch.setattr(duhamel, "_BUCKETS", {})
    configs = [
        ExperimentConfig(kind="estimate-c0", M=1, mc_samples=200),
        ExperimentConfig(kind="decay", mode="independent", M=1, K_max=3),
    ]
    runs = []
    for _ in ("cold", "warm"):
        objs = [run_experiment(cfg).to_obj() for cfg in configs]
        for obj in objs:
            obj.pop("environment")
        runs.append(objs)
    assert dynamics._MATRIX_CACHE and dynamics._SPLIT_CACHE and duhamel._BUCKETS
    assert runs[0] == runs[1]


def test_csv_output(tmp_path):
    code = main([
        "nls", "--set", "M=4", "--set", "T=0.1", "--csv", str(tmp_path),
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 0
    text = (tmp_path / "nls_residuals.csv").read_text()
    assert text.splitlines()[0] == "k,algebraic,fd"
    assert len(text.splitlines()) == 3


def test_report_merge(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--out", str(p1)]) == 0
    assert main(["expand", "--out", str(p2)]) == 0
    merged = tmp_path / "merged.json"
    assert main(["report-merge", str(p1), str(p2), "--out", str(merged)]) == 0
    obj = json.loads(merged.read_text())
    assert obj["passed"] is True
    assert len(obj["reports"]) == 2
    # a failing constituent drives the merged exit code to 1
    p3 = tmp_path / "c.json"
    p3.write_text(json.dumps({"passed": False, "checks": []}))
    assert main(["report-merge", str(p1), str(p3), "--out", str(merged)]) == 1


def test_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"M": 2, "seed": 5}))
    code = main(["verify", "--config", str(cfg_path), "--set", "alpha=1.5",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    obj = json.loads((tmp_path / "r.json").read_text())
    assert obj["config"]["M"] == 2
    assert obj["config"]["alpha"] == 1.5


def test_non_finite_measured_fails_every_kind():
    rep = Report(config={})
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        for kind in ("le", "lt"):
            assert not rep.check("x", bad, 1.0, "TRIVIAL", kind=kind)
    assert rep.check("x", 0.5, 1.0, "TRIVIAL", kind="lt")
    assert not rep.check("x", 1.0, 1.0, "TRIVIAL", kind="lt")


def test_dump_writes_strict_json(tmp_path):
    rep = Report(config={})
    for bad in (math.nan, math.inf, -math.inf):
        rep.check("x", bad, 1.0, "TRIVIAL")
    path = tmp_path / "rep.json"
    rep.dump(path)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    obj = json.loads(path.read_text(), parse_constant=reject)
    assert [c["measured"] for c in obj["checks"]] == ["nan", "inf", "-inf"]
    assert obj["passed"] is False


def test_nan_grid_point_fails_residual(monkeypatch):
    real = cli.evolve_truncated

    def one_nan_point(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.states[1].level(1).data[0, 0] = math.nan
        return traj

    monkeypatch.setattr(cli, "evolve_truncated", one_nan_point)
    cfg = ExperimentConfig(kind="residual", M=1, N=2, K_max=2, q=16, T=0.1,
                           grid_points=3)
    rep = run_experiment(cfg)
    failed = {c["name"] for c in rep.checks if not c["passed"]}
    assert failed == {"duhamel.ode_equivalence"}
    assert math.isnan(rep.constants["duhamel_ode_discrepancy"])


def test_nan_inputs_fail_collapsed_checks(monkeypatch):
    monkeypatch.setattr(cli, "cauchy_diagnostic",
                        lambda *a, **k: np.array([math.nan] * 3))
    rep = run_experiment(ExperimentConfig(kind="converge", N=4, K_max=5))
    by = {c["name"]: c["passed"] for c in rep.checks}
    assert by["duhamel.cauchy_decreasing"] is False
    monkeypatch.setattr(cli, "phase_inequality_scan",
                        lambda *a, **k: (0, math.nan, 1))
    rep = run_experiment(ExperimentConfig(kind="continuity"))
    by = {c["name"]: c["passed"] for c in rep.checks}
    assert by["dynamics.phase_bound_violations"] is False
