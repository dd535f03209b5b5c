"""Acceptance suite: one test per criterion, one printed line per verdict.

Each criterion is a pinned `ExperimentConfig` run through `run_experiment`,
the same code `gph <kind>` runs, so a criterion's checks, thresholds and
provenance are defined once, in `gphier.cli`.  A test asserts that the
report carries the pinned config, that the run passes, that the
criterion's checks are among its checks, and that the run's wall time is
under the criterion's budget.  Criteria that share a config share one
run.  Run with `pytest tests/test_acceptance.py -s` to see the verdict
lines, printed from the report's measured values and thresholds.
"""

import functools
import time
from dataclasses import asdict

import pytest

from gphier.cli import ExperimentConfig, run_experiment

RESIDUAL = ExperimentConfig(kind="residual", d=1, M=2, N=4, K_max=4, T=0.1,
                            q=16, grid_points=11, seed=101)
ESTIMATE_C0 = ExperimentConfig(kind="estimate-c0", M=1, alpha=1.0,
                               mc_samples=10_000, seed=102)
# the config of the benchmark's decay-independent workload
DECAY = ExperimentConfig(kind="decay", mode="independent", M=1, K_max=4,
                         T=0.5, q=12, seed=104)
CONVERGE = ExperimentConfig(kind="converge", mode="dependent", M=1, N=5,
                            K_max=6, T=0.1, xi=0.5, xi_prime=1.0, q=4,
                            seed=106)
CONTINUITY = ExperimentConfig(kind="continuity", M=1, N=3, K_max=3, T=0.1,
                              alpha=1.0, alpha0=2.0, q=10, xi=0.5,
                              xi_prime=1.0, seed=108)
EXPAND = ExperimentConfig(kind="expand", seed=110)
VERIFY = ExperimentConfig(kind="verify", M=2, seed=111)
# the config of the benchmark's nls-factorized workload
NLS = ExperimentConfig(kind="nls", M=8, T=0.5, dt=1e-3, seed=115)


@functools.cache
def pinned_run(cfg):
    """The report of one run of `cfg` and its wall time, run once per config."""
    start = time.perf_counter()
    rep = run_experiment(cfg)
    return rep, time.perf_counter() - start


def verdict(num, title, cfg, names, budget):
    """Print one line per named check of the pinned run, then assert."""
    rep, elapsed = pinned_run(cfg)
    assert rep.config == asdict(cfg)
    by_name = {c["name"]: c for c in rep.checks}
    missing = [name for name in names if name not in by_name]
    assert not missing, f"criterion {num}: {missing} not in the report"
    for name in names:
        c = by_name[name]
        status = "PASS" if c["passed"] else "FAIL"
        print(f"\n[{status}] criterion {num} ({title}): {name} "
              f"measured={c['measured']} threshold={c['threshold']} "
              f"[{c['provenance']}] (runtime {elapsed:.1f}s < {budget}s)")
    failed = [c["name"] for c in rep.checks if not c["passed"]]
    assert not failed, f"criterion {num} failed: {failed}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"
    return rep


def test_criterion_1_duhamel_ode_equivalence():
    verdict(1, "Duhamel/ODE equivalence", RESIDUAL,
            ["duhamel.ode_equivalence"], 60)


def test_criterion_2_integral_residual():
    verdict(2, "integral-equation residual", RESIDUAL,
            ["duhamel.integral_residual"], 60)


def test_criterion_3_randomized_estimate():
    rep = verdict(3, "randomized-estimate machinery", ESTIMATE_C0,
                  ["random.exact_vs_mc_4sigma",
                   "random.opnorm_majorizes_ratios"], 10)
    # the exact L^2(Omega) operator norm of the order-2 collision at M=1, and
    # the exact Omega-averages of gamma and of the trial ratios, pinned so
    # that a change in how the averages are batched cannot move them
    pins = {"c0_exact_operator_norm": 1.732050807568877,
            "omega_norm_exact": 0.5103595305805632,
            "c0_empirical": 0.6327294235872727}
    for name, value in pins.items():
        assert rep.constants[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_criterion_4_factorial_decay():
    verdict(4, "factorial Duhamel decay", DECAY,
            ["duhamel.decay_chain_bound_excess"], 120)


def test_criterion_4_decay_norms_pinned():
    # the exact Omega-averaged norms of Duh_0..Duh_3 at criterion 4, pinned
    # so that a change in how the average is evaluated cannot move them
    rep, _ = pinned_run(DECAY)
    expected = [1.0000000000000002, 0.2231928091224439, 0.04169676605426055,
                0.0056740349324868235]
    assert rep.constants["decay_norms"] == pytest.approx(expected, rel=1e-12,
                                                        abs=0.0)


def test_criterion_5_truncation_cauchy():
    verdict(5, "truncation Cauchy diagnostics", CONVERGE,
            ["duhamel.cauchy_decreasing", "duhamel.cauchy_ratio_below_first"],
            120)


def test_criterion_5_cauchy_values_pinned():
    # the exact dependent-mode D(N) and their ratios at criterion 5, pinned
    # so that a change in how the Duhamel sums are formed cannot move them
    rep, _ = pinned_run(CONVERGE)
    pins = {"cauchy_D": {"2": 0.024941967454239454, "3": 0.007871467231677818,
                         "4": 0.0024111932480690703, "5": 0.0006940846184152517},
            "cauchy_ratios": [0.31559127186415614, 0.306320686741285,
                              0.28785939035416924]}
    for name, value in pins.items():
        assert rep.constants[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_criterion_6_phase_modulus_inequality():
    # a lattice with a violating slot also adds a failing
    # dynamics.phase_bound_d<d>M<M>k<k> check, which fails the run
    verdict(6, "free-flow modulus inequality", CONTINUITY,
            ["dynamics.phase_bound_violations"], 30)


def test_criterion_7_solution_modulus():
    verdict(7, "solution modulus scaling", CONTINUITY,
            ["duhamel.modulus_uniform_small_delta"], 120)


def test_criterion_7_modulus_ratios_pinned():
    # the exact Omega-averaged time-modulus ratios at criterion 7, pinned so
    # that a change in how the solutions' class splits are summed cannot
    # move them
    rep, _ = pinned_run(CONTINUITY)
    expected = {"0.01": 0.02991865007529, "0.001": 0.009463069645045346,
                "0.0001": 0.00299254594242911}
    assert rep.constants["modulus_ratios"] == pytest.approx(expected, rel=1e-12,
                                                           abs=0.0)


def test_criterion_8_symbolic_expansion():
    verdict(8, "symbolic expansion soundness", EXPAND,
            ["expansion.example1_A", "expansion.example1_B",
             "expansion.example1_nu", "expansion.example1_nu_prime",
             "expansion.example1_soundness"], 30)


def test_criterion_9_randomization_identities():
    verdict(9, "randomization identities", VERIFY,
            ["random.all_plus_recovery_bitwise",
             "random.randomize_norm_preserved",
             "dynamics.mode_collapse_bitwise"], 5)


def test_criterion_10_nls_factorized():
    verdict(10, "NLS factorized solutions", NLS,
            ["nls.algebraic_residual_k1", "nls.algebraic_residual_k2",
             "nls.fd_residual_k1", "nls.fd_residual_k2",
             "nls.rk4_order_low", "nls.rk4_order_high"], 60)


def test_criterion_10_nls_constants_pinned():
    # the RK4 step-halving ratio and the mass drift at criterion 10, pinned
    # so that a change in how the NLS stepper evaluates cannot move them
    rep, _ = pinned_run(NLS)
    pins = {"rk4_halving_ratio": 16.064635556126323,
            "mass_drift": 5.948574965941589e-13}
    for name, value in pins.items():
        assert rep.constants[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_criterion_11_simplex_identity():
    verdict(11, "simplex identity", VERIFY, ["duhamel.simplex_identity"], 5)


def test_criterion_12_nonresonant_tools():
    verdict(12, "non-resonant tools", EXPAND,
            ["expansion.nonresonant_roundtrip", "expansion.resonant_rejected",
             "expansion.resonant_witness"], 5)
