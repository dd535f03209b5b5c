import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from gphier import cli, duhamel, dynamics, randomization, tensor
from gphier.cli import ConfigError, ExperimentConfig, Report, main, run_experiment
from gphier.duhamel import solution_time_modulus
from gphier.lattice import FrequencyLattice
from gphier.tensor import MemoryGuardError, random_state


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
    # continuity at N=1 builds no collision matrix; its dense order-2 sample
    # (1601^4 and 401^4 > 2^28 entries) names the lattice, before any state
    for M in (800, 200):
        assert main(["continuity", "--set", "N=1", "--set", f"M={M}"]) == 2
        assert capsys.readouterr().err.startswith("config error: M:")
    # nls steps to T in whole steps of dt, and needs 13 of them for its
    # residual times to clear the seven-point stencil
    assert main(["nls", "--set", "T=0.5", "--set", "dt=0.3"]) == 2
    assert capsys.readouterr().err.startswith("config error: dt:")
    assert main(["nls", "--set", "T=0.01"]) == 2
    assert capsys.readouterr().err.startswith("config error: T:")
    ExperimentConfig(kind="nls", T=0.013).validate()
    # the largest nls lattice at d=1: a pair-reduced sum (shift buffer) of
    # 41^4 81 < 2^28 entries, which the kernel holds one F-th at a time
    ExperimentConfig(kind="nls", M=20).validate()
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
        # the solutions split by class paths at 8 times: 163 247 9^2 8 and
        # 2517 17^2 8 entries at level 1, above the 2^22 chain cap
        (["continuity", "--set", "M=4", "--set", "N=3"], "M"),
        (["continuity", "--set", "M=8", "--set", "N=2"], "M"),
        # the order-3 collision's whole pair-reduced sum (shift buffer) on
        # the M' = max(M, 2) lattice: 125^4 9^3 and 43^4 85 entries, above
        # the 2^28 entry guard, though the kernel holds one F-th at a time
        (["nls", "--set", "d=3"], "d"),
        (["nls", "--set", "M=21"], "M"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}:"), err
        assert "exceeds the cap" in err
    # refused in under a second, naming the field: converge at N < 3 has no
    # ratio to check (and at N=2 nothing bounds its 2^F shared fields), and
    # dependent-mode decay at M=6 would build an order-3 collision matrix
    # of F^6 = 13^6 > 2^21 coefficients.  verify evolves at N=3, so its
    # order-3 collision matrix names the lattice (13^6 and 27^6 > 2^21), and
    # its dense random level of order K_max=9 has 3^18 > 2^28 entries.
    # continuity at N=1 is refused by the row of its dense order-2 sample
    # tensor (401^4 > 2^28 entries)
    for argv, name in (
        (["converge"], "N"),
        (["converge", "--set", "M=5", "--set", "N=2", "--set", "K_max=3"], "N"),
        (["decay", "--set", "mode=dependent", "--set", "M=6", "--set", "K_max=3",
          "--set", "mc_samples=16"], "K_max"),
        (["verify", "--set", "M=6"], "M"),
        (["verify", "--set", "d=3"], "d"),
        (["verify", "--set", "K_max=9"], "K_max"),
        (["continuity", "--set", "N=1", "--set", "M=200"], "M"),
    ):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}:"), err
    # an input file that cannot be read, or holds no JSON object, an --out
    # directory that does not exist and a --csv path that is a file, or is
    # below one, checked before the run: one config error line naming it
    bad, listed, report = (tmp_path / n for n in ("bad.json", "list.json", "r.json"))
    bad.write_text("{bad")
    listed.write_text("[1]")
    report.write_text(json.dumps({"passed": True}))
    missing = tmp_path / "missing" / "r.json"
    for argv, path in (
        (["verify", "--config", str(tmp_path / "none.json")], "none.json"),
        (["verify", "--config", str(bad)], "bad.json"),
        (["verify", "--config", str(listed)], "list.json"),
        (["report-merge", str(tmp_path / "none.json"), "--out",
          str(tmp_path / "m.json")], "none.json"),
        (["report-merge", str(report), str(listed), "--out",
          str(tmp_path / "m.json")], "list.json"),
        (["report-merge", str(bad), "--out", str(tmp_path / "m.json")], "bad.json"),
        (["verify", "--out", str(missing)], "missing"),
        (["report-merge", str(report), "--out", str(missing)], "missing"),
        (["decay", "--csv", str(report)], "r.json"),
        (["verify", "--csv", str(report / "tables")], "r.json"),
    ):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert path in err, err
    assert not (tmp_path / "m.json").exists()


def test_dependent_decay_ignores_mc_samples(tmp_path):
    # exact dependent-mode decay climbs once per odd-multiplicity class of
    # its data and draws no field: at M=5 (2^11 shared fields) it passes, and
    # mc_samples, which only estimate-c0 reads, changes nothing
    objs = []
    for n in ("0", "10000"):
        out = tmp_path / f"mc{n}.json"
        assert main(["decay", "--set", "mode=dependent", "--set", "M=5",
                     "--set", "K_max=3", "--set", f"mc_samples={n}",
                     "--set", "T=0.1", "--set", "q=6", "--seed", "30",
                     "--out", str(out)]) == 0
        objs.append(json.loads(out.read_text()))
    assert objs[0]["constants"] == objs[1]["constants"]
    assert objs[0]["checks"] == objs[1]["checks"]
    assert 1 <= objs[0]["constants"]["dependent_class_count"] <= 16


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


def test_independent_decay_size_boundary(capsys):
    # independent-mode decay takes class paths and enumerates no field; the
    # size guard that binds it is the operator norms' domain
    # F^(2 min(K_max, 4)) <= 2^16.  The largest admitted config (d=1, M=7, K_max=2) runs and
    # passes; M=8 is refused up front, naming M, since K_max=2 is the least
    for M, K_max, d in ((2, 3, 1), (1, 4, 1), (1, 2, 2)):
        ExperimentConfig(kind="decay", mode="independent", M=M, K_max=K_max,
                         d=d).validate()
    assert main(["decay", "--set", "mode=independent", "--set", "K_max=2",
                 "--set", "M=7"]) == 0
    capsys.readouterr()
    for sets, name in ((["M=8"], "M"), (["M=3", "K_max=3"], "K_max"),
                       (["d=2", "K_max=3"], "K_max"), (["d=3"], "d")):
        args = ["decay", "--set", "mode=independent", "--set", "K_max=2"]
        start = time.perf_counter()
        assert main(args + [a for v in sets for a in ("--set", v)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}:"), err
        assert "operator norms" in err and "exceeds the cap 65536" in err
    # dependent-mode decay at K_max=2 would report no check at all
    assert main(["decay", "--set", "mode=dependent", "--set", "M=3",
                 "--set", "K_max=2", "--set", "mc_samples=16"]) == 2
    assert capsys.readouterr().err.startswith("config error: K_max:")


def test_continuity_size_boundary(capsys):
    # continuity splits its solutions by class paths and enumerates no
    # field; the guard is the split's size against the chain cap.  The
    # largest admitted config (d=1, M=7, N=2) runs and passes; the next
    # lattice, and the next depth, are refused up front, naming M or d
    for M, N, d in ((3, 3, 1), (1, 2, 2)):
        ExperimentConfig(kind="continuity", M=M, N=N, d=d).validate()
    assert main(["continuity", "--set", "M=7", "--set", "N=2"]) == 0
    capsys.readouterr()
    for sets, name in ((["M=8"], "M"), (["M=4", "N=3"], "M"),
                       (["d=2", "N=3"], "d"), (["d=2", "M=2"], "d")):
        args = ["continuity", "--set", "N=2"]
        start = time.perf_counter()
        assert main(args + [a for v in sets for a in ("--set", v)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}:"), err
        assert "class split" in err and "exceeds the cap 4194304" in err
    # the evaluator refuses the same split at run time, before allocating it
    lat = FrequencyLattice(1, 8)
    st = random_state(lat, 2, 0, level_norms=[1.0, 1.0])
    with pytest.raises(MemoryGuardError, match=f"^M: .* {2517 * 17**2 * 8} "
                       "entries for 2517 class paths"):
        solution_time_modulus(st, 2, [0.0, 0.05], (1e-2, 1e-3, 1e-4), "independent")


def test_decay_takes_one_operator_norm_per_order(monkeypatch):
    # criterion 4 (K_max=4): orders 2..4, each at slot j=1 only, since the
    # norm does not depend on the slot
    calls = []
    real = cli.collision_omega_operator_norm

    def counted(lattice, k, j, alpha, randomized=True):
        calls.append((k, j))
        return real(lattice, k, j, alpha, randomized)

    monkeypatch.setattr(cli, "collision_omega_operator_norm", counted)
    rep = run_experiment(ExperimentConfig(kind="decay", mode="independent",
                                          M=1, K_max=4, T=0.5, q=12, seed=104))
    assert rep.passed
    assert calls == [(1, 1), (2, 1), (3, 1)]


def test_nan_operator_norm_fails_decay(monkeypatch, tmp_path):
    # a NaN norm makes the chain bound NaN, which no check may pass
    monkeypatch.setattr(cli, "collision_omega_operator_norm",
                        lambda *a, **k: math.nan)
    out = tmp_path / "rep.json"
    assert main(["decay", "--set", "mode=independent", "--set", "K_max=4",
                 "--set", "T=0.5", "--set", "q=12", "--seed", "104",
                 "--out", str(out)]) == 1
    obj = json.loads(out.read_text())
    by = {c["name"]: c for c in obj["checks"]}
    assert by["duhamel.decay_chain_bound_excess"]["passed"] is False
    assert by["duhamel.decay_chain_bound_excess"]["measured"] == "nan"
    assert obj["passed"] is False


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


def test_residual_job_holds_few_grid_blocks():
    # the residual job at d=1 M=3 N=3 over 11 grid times: one level-3 grid
    # block is (117649, 11) complex, 19.7 MiB.  The top level is formed one
    # time at a time on every path (the residual's quadrature nodes, the
    # trajectories, the comparison), so a warm job's traced peak measures
    # 1.27 such blocks (25.2 MiB, seeds 3, 11, 12); the bound leaves a
    # margin of 0.43 blocks (8.4 MiB), so holding one level-3 grid block
    # again fails (the batched top level peaked at 2.65 blocks)
    cfg = ExperimentConfig(kind="residual", d=1, M=3, N=3, K_max=3, q=16,
                           T=0.5, grid_points=11, seed=3)
    run_experiment(cfg)  # warm the matrices, splits and imports
    block = FrequencyLattice(1, 3).size**6 * 11 * 16
    tracemalloc.start()
    try:
        assert run_experiment(cfg).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * block, peak / block


def test_report_determinism(tmp_path):
    a = run_experiment(ExperimentConfig(kind="verify", seed=11)).to_obj()
    b = run_experiment(ExperimentConfig(kind="verify", seed=11)).to_obj()
    a["environment"].pop("timestamp")
    b["environment"].pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# the per-process stores of lattice-only structures: collision matrices and
# class-energy splits, and every other table (energy splits,
# shift tables, odd-class masks and labels, operator norms, NLS tables)
STORES = [(dynamics, "_MATRIX_CACHE"), (tensor, "_TABLES")]


def _empty_lattice_caches(monkeypatch):
    """Put an empty store of the same budget in place of each process store
    for the test; returns a reader of the stores' entries by name."""
    for module, name in STORES:
        monkeypatch.setattr(module, name, tensor.Store(getattr(module, name).budget))
    return lambda: {name: getattr(module, name).entries for module, name in STORES}


def test_report_reproducible(monkeypatch):
    # a report is a function of (config, seed): a run on cold lattice caches
    # equals a rerun on the caches it left warm
    caches = _empty_lattice_caches(monkeypatch)
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
        if len(runs) == 1:
            assert {key[0] for key in caches()["_TABLES"]} == {
                "energies", "shifts", "masks", "classes", "norm", "leggauss"}
            assert any(key[0] == "split" for key in caches()["_MATRIX_CACHE"])
    assert runs[0] == runs[1]


def test_warm_decay_job_builds_no_lattice_structure(monkeypatch):
    # independent decay's class-energy splits, odd-class labels and operator
    # norms depend on the lattice alone: a second job in the process builds
    # none of them, and the arrays it reuses are read-only
    caches = _empty_lattice_caches(monkeypatch)
    builds = {"split": 0, "lanczos": 0}

    def counted(module, name, key):
        build = getattr(module, name)

        def wrapper(*args):
            builds[key] += 1
            return build(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(duhamel, "_class_energy_split", "split")
    counted(randomization, "_lanczos_norm", "lanczos")
    cfg = dict(kind="decay", mode="independent", M=1, K_max=4, T=0.5, q=12)
    assert run_experiment(ExperimentConfig(seed=1, **cfg)).passed
    cold = dict(builds)
    # the class masks and labels: a rebuild would store new arrays
    tables = {key: value for key, value in caches()["_TABLES"].items()
              if key[0] in ("masks", "classes")}
    assert all(cold.values()) and tables, (cold, tables)
    assert run_experiment(ExperimentConfig(seed=2, **cfg)).passed
    assert builds == cold
    assert all(caches()["_TABLES"][key] is value for key, value in tables.items())
    lat = FrequencyLattice(1, 1)
    split = next(v for key, v in caches()["_MATRIX_CACHE"].items()
                 if key[0] == "split")
    for arr in (tensor.odd_classes(lat, 2)[0], tensor._odd_masks(lat, 2),
                split.data, split.indices):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


# small configs of the kinds that read the stores: Duhamel evaluators'
# blocks and class-energy splits, operator norms, the NLS tables
STORE_CONFIGS = [
    ExperimentConfig(kind="residual", M=1, N=2, K_max=2, q=16, T=0.1,
                     grid_points=3),
    ExperimentConfig(kind="decay", mode="independent", M=1, K_max=3),
    ExperimentConfig(kind="continuity"),
    ExperimentConfig(kind="nls", M=2),
]


def test_report_does_not_depend_on_the_stores(monkeypatch):
    # on emptied stores, on the stores that run left warm, and with every
    # store (the process stores and each evaluator's blocks) lowered to one
    # entry, so that nearly every table is rebuilt where it is read: the
    # reports agree outside `environment`
    def reports():
        objs = [run_experiment(cfg).to_obj() for cfg in STORE_CONFIGS]
        for obj in objs:
            obj.pop("environment")
        return objs

    caches = _empty_lattice_caches(monkeypatch)
    cold = reports()
    assert reports() == cold
    init = tensor.Store.__init__
    monkeypatch.setattr(tensor.Store, "__init__",
                        lambda self, budget: init(self, 1))
    caches = _empty_lattice_caches(monkeypatch)
    assert reports() == cold
    assert [len(entries) for entries in caches().values()] == [1, 1]


def test_second_workload_job_adds_no_store_entry(monkeypatch):
    # the benchmark's three workload configs: a second job in the process,
    # at another seed, finds every lattice-only structure it reads stored
    workloads = [
        dict(kind="residual", d=1, M=3, N=3, K_max=3, q=16, T=0.5, dt=5e-4,
             grid_points=11),
        dict(kind="decay", mode="independent", d=1, M=1, K_max=4, T=0.5, q=12),
        dict(kind="nls", d=1, M=8, T=0.5, dt=1e-3),
    ]
    caches = _empty_lattice_caches(monkeypatch)
    for cfg in workloads:
        assert run_experiment(ExperimentConfig(seed=1, **cfg)).passed
        keys = {name: set(entries) for name, entries in caches().items()}
        assert run_experiment(ExperimentConfig(seed=2, **cfg)).passed
        assert {name: set(entries) for name, entries in caches().items()} == keys


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


@pytest.mark.parametrize("kind, fields, draws", [
    ("decay", dict(mode="independent", K_max=4, T=0.5), 0),
    ("decay", dict(mode="dependent", M=5, K_max=3, q=6), 0),
    ("converge", dict(mode="independent", N=3, K_max=4), 0),
    ("converge", dict(mode="dependent", N=3, K_max=4), 0),
    ("continuity", dict(N=3, K_max=3, q=10, xi=0.5, xi_prime=1.0), 0),
    ("estimate-c0", dict(mc_samples=16), 16),
], ids=["decay-independent", "decay-dependent", "converge-independent",
        "converge-dependent", "continuity", "estimate-c0"])
def test_exact_averages_draw_no_field(monkeypatch, kind, fields, draws):
    # decay, converge and continuity average over every sign field exactly,
    # by class splits, so they draw none; estimate-c0 draws its Monte Carlo
    # samples and no other field
    drawn = []
    real = randomization.sample_field

    def counted(*args, **kwargs):
        drawn.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(randomization, "sample_field", counted)
    monkeypatch.setattr(cli, "sample_field", counted)
    assert run_experiment(ExperimentConfig(kind=kind, **fields)).passed
    assert len(drawn) == draws


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
