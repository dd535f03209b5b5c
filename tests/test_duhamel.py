import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from gphier import duhamel
from gphier.lattice import FrequencyLattice
from gphier.tensor import (
    DensityMatrix,
    HierarchyState,
    MemoryGuardError,
    h_alpha_norm,
    random_state,
)
from gphier.dynamics import (
    HierarchyMode,
    evolve_truncated,
    free_evolve,
    full_collision,
    level_energy,
    sign_vector,
)
from gphier.duhamel import (
    DuhamelEvaluator,
    QuadratureSpec,
    cauchy_diagnostic,
    decay_profile,
    integral_residual,
    simplex_check,
    solution_time_modulus,
)
from gphier.randomization import SignField, enumerate_fields, sample_field


@pytest.fixture
def lat():
    return FrequencyLattice(1, 1)


@pytest.fixture
def quad():
    return QuadratureSpec(q=12)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(q=1)


def test_depth_zero_is_free_evolution(lat, quad):
    st = random_state(lat, 2, 0)
    mode = HierarchyMode.deterministic()
    out = DuhamelEvaluator(st, [mode], quad).term(1, 0, 0.4)[0]
    ref = free_evolve(st.level(1), 0.4)
    assert h_alpha_norm(out - ref, 0.0) < 1e-14


def test_depth_one_closed_form(lat, quad):
    # single-mode data: the time integral has an elementary antiderivative
    g2 = DensityMatrix.zeros(lat, 2)
    i0, i1 = lat.index_of([0]), lat.index_of([1])
    g2.data[i1, i0, i0, i0] = 1.0
    st = HierarchyState(lat, 2, {2: g2})
    mode = HierarchyMode.deterministic()
    t = 0.37
    term = DuhamelEvaluator(st, [mode], quad).term(1, 1, t)[0]
    coll = full_collision(g2)
    e_in = 1.0  # |1|^2 + |0|^2 - |0|^2 - |0|^2
    e_out = level_energy(lat, 1).reshape(3, 3)
    expected = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            if coll.data[a, b] == 0:
                continue
            eo = e_out[a, b]
            if abs(eo - e_in) < 1e-14:
                integral = t * np.exp(-1j * t * e_in)
            else:
                integral = np.exp(-1j * t * eo) \
                    * (np.exp(1j * t * (eo - e_in)) - 1) / (1j * (eo - e_in))
            expected[a, b] = -1j * integral * coll.data[a, b]
    assert np.max(np.abs(term.data - expected)) < 1e-10


def test_depth_positive_at_zero_time(lat, quad):
    st = random_state(lat, 3, 1)
    mode = HierarchyMode.deterministic()
    out = DuhamelEvaluator(st, [mode], quad).term(1, 2, 0.0)[0]
    assert not np.any(out.data)


def test_term_bounds(lat, quad):
    st = random_state(lat, 2, 2)
    mode = HierarchyMode.deterministic()
    ev = DuhamelEvaluator(st, [mode], quad)
    with pytest.raises(ValueError):
        ev.term(1, 5, 0.1)  # depth 5 reaches level 6, beyond K_max
    with pytest.raises(ValueError):
        ev.term(1, -1, 0.1)  # negative depth
    with pytest.raises(ValueError):
        ev.term(2, 1, 0.1)  # exceeds K_max


def test_missing_leaf_level_gives_zero(lat, quad):
    st = HierarchyState(lat, 3, {1: random_state(lat, 1, 3).level(1)})
    mode = HierarchyMode.deterministic()
    out = DuhamelEvaluator(st, [mode], quad).term(1, 2, 0.2)[0]
    assert not np.any(out.data)


def test_truncated_solution_top_level(lat, quad):
    st = random_state(lat, 3, 4)
    mode = HierarchyMode.deterministic()
    sol = DuhamelEvaluator(st, [mode], quad).solution(3, 3, 0.3)[0]
    ref = free_evolve(st.level(3), 0.3)
    assert h_alpha_norm(sol - ref, 0.0) < 1e-13


def test_truncated_solution_at_zero(lat, quad):
    st = random_state(lat, 3, 5)
    mode = HierarchyMode.deterministic()
    sol = DuhamelEvaluator(st, [mode], quad).solution(3, 1, 0.0)[0]
    assert h_alpha_norm(sol - st.level(1), 0.0) < 1e-14


@pytest.mark.parametrize("which", ["deterministic", "dependent", "independent"])
def test_solution_matches_ode(lat, which):
    st = random_state(lat, 3, 6, alpha=1.0, level_norms=[1.0] * 3)
    f = sample_field(lat, 7)
    mode = {
        "deterministic": HierarchyMode.deterministic(),
        "dependent": HierarchyMode.dependent(f),
        "independent": HierarchyMode.independent(
            {2: sample_field(lat, 8, level=2), 3: sample_field(lat, 8, level=3)}
        ),
    }[which]
    quad = QuadratureSpec(q=16)
    grid = (0.0, 0.05, 0.1)
    traj = evolve_truncated(st, 3, 0.1, mode, grid_times=grid)
    ev = DuhamelEvaluator(st, [mode], quad)
    for k in (1, 2, 3):
        sol = ev.solution_batch(3, k, grid).of(0)
        for i in range(len(grid)):
            diff = ev._wrap(k, sol[:, i]) - traj.states[i].level(k)
            rel = h_alpha_norm(diff, 1.0) \
                / (1 + h_alpha_norm(ev._wrap(k, sol[:, i]), 1.0))
            assert rel < 1e-5


_MODES = ("deterministic", "dependent", "independent")


@settings(max_examples=12, deadline=None, database=None)
@given(which=hst.sampled_from(_MODES), N=hst.integers(1, 3), data=hst.data(),
       times=hst.lists(hst.floats(0.0, 0.2), min_size=2, max_size=3,
                       unique=True).map(sorted),
       seed=hst.integers(0, 2**16))
def test_energy_chains_match_exponential(which, N, data, times, seed):
    # the energy-chain Duhamel terms against the exact exponential, at the
    # 1e-5 relative H^1 measure of test_solution_matches_ode
    lat = FrequencyLattice(1, 1)
    k = data.draw(hst.integers(1, N), label="k")
    st = random_state(lat, N, seed, alpha=1.0, level_norms=[1.0] * N)
    mode = {
        "deterministic": HierarchyMode.deterministic(),
        "dependent": HierarchyMode.dependent(sample_field(lat, seed + 1)),
        "independent": HierarchyMode.independent(
            {lv: sample_field(lat, seed + 2, level=lv) for lv in range(2, N + 1)}
        ),
    }[which]
    traj = evolve_truncated(st, N, times[-1], mode, grid_times=times)
    ev = DuhamelEvaluator(st, [mode], QuadratureSpec(q=16))
    sol = ev.solution_batch(N, k, times).of(0)
    for i in range(len(times)):
        ref = ev._wrap(k, sol[:, i])
        rel = h_alpha_norm(ref - traj.states[i].level(k), 1.0) \
            / (1 + h_alpha_norm(ref, 1.0))
        assert rel < 1e-5


@settings(max_examples=10, deadline=None, database=None)
@given(N=hst.integers(1, 4), data=hst.data(),
       times=hst.lists(hst.floats(0.0, 0.2), min_size=2, max_size=3,
                       unique=True).map(sorted),
       seed=hst.integers(0, 2**16))
def test_batch_slices_match_batches_of_one(N, data, times, seed):
    # one batch mixes the full 8^(N-1) independent product set on levels
    # 2..N, dependent Monte Carlo fields, the deterministic mode and
    # repeated modes, in any order.  Each mode's slice equals that mode run
    # as a batch of one, bitwise; for N <= 3 it also matches the exact
    # exponential at the 1e-5 measure of test_energy_chains_match_exponential
    lat = FrequencyLattice(1, 1)
    st = random_state(lat, N, seed, alpha=1.0, level_norms=[1.0] * N)
    product = [HierarchyMode.independent(dict(zip(range(2, N + 1), combo)))
               for combo in itertools.product(enumerate_fields(lat),
                                              repeat=N - 1)]
    sampled = [HierarchyMode.dependent(sample_field(lat, seed, sample=i))
               for i in range(3)]
    pool = product + sampled + [HierarchyMode.deterministic()]
    repeats = data.draw(hst.lists(hst.sampled_from(pool), max_size=4),
                        label="repeats")
    modes = data.draw(hst.permutations(pool + repeats), label="modes")
    checked = data.draw(hst.lists(hst.integers(0, len(modes) - 1), min_size=1,
                                  max_size=4, unique=True), label="checked")
    k = data.draw(hst.integers(1, N), label="k")
    quad = QuadratureSpec(q=16)
    ev = DuhamelEvaluator(st, modes, quad)
    terms = [ev.term_batch(k, j, times) for j in range(N - k + 1)]
    sol = ev.solution_batch(N, k, times)
    for i in checked:
        one = DuhamelEvaluator(st, [modes[i]], quad)
        for j, term in enumerate(terms):
            assert np.array_equal(term.of(i), one.term_batch(k, j, times).of(0))
        assert np.array_equal(sol.of(i), one.solution_batch(N, k, times).of(0))
        if N > 3:
            continue
        traj = evolve_truncated(st, N, times[-1], modes[i], grid_times=times)
        for t in range(len(times)):
            ref = ev._wrap(k, sol.of(i)[:, t])
            rel = h_alpha_norm(ref - traj.states[t].level(k), 1.0) \
                / (1 + h_alpha_norm(ref, 1.0))
            assert rel < 1e-5


@pytest.mark.parametrize("d, M, N", [(1, 1, 3), (1, 2, 3), (2, 1, 2)],
                         ids=["M1", "M2", "d2"])
@settings(max_examples=3, deadline=None, database=None)
@given(data=hst.data(), seed=hst.integers(0, 2**16))
def test_dependent_mode_is_conjugated_deterministic(d, M, N, data, seed):
    # under one shared field h every collision is S_(m-1) B S_m, and the
    # inner signs of a chain meet as h^2 = 1: level k of the dependent
    # solution is S_k times level k of the deterministic solution from the
    # data S_m gamma0^(m).  A sign tensor on the wrong slots breaks this.
    lat = FrequencyLattice(d, M)
    F = lat.size
    signs = data.draw(hst.lists(hst.sampled_from((1, -1)), min_size=F,
                                max_size=F).filter(lambda v: len(set(v)) == 2),
                      label="field")
    h = SignField(np.array(signs, dtype=np.int8), "drawn")
    st = random_state(lat, N, seed, alpha=1.0, level_norms=[1.0] * N)
    signed = st.with_levels({
        m: DensityMatrix(lat, m, "dense", data=st.level(m).data
                         * sign_vector(lat, h, m).reshape((F,) * (2 * m)))
        for m in range(1, N + 1)})
    dep, det = HierarchyMode.dependent(h), HierarchyMode.deterministic()
    times = (0.0, 0.05, 0.2)
    quad = QuadratureSpec(q=8)
    dep_ev = DuhamelEvaluator(st, [dep], quad)
    det_ev = DuhamelEvaluator(signed, [det], quad)
    dep_traj = evolve_truncated(st, N, times[-1], dep, grid_times=times)
    det_traj = evolve_truncated(signed, N, times[-1], det, grid_times=times)
    for k in range(1, N + 1):
        s_k = sign_vector(lat, h, k)
        got = dep_ev.solution_batch(N, k, times).of(0)
        ref = s_k[:, None] * det_ev.solution_batch(N, k, times).of(0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        for a, b in zip(dep_traj.states, det_traj.states):
            got, ref = a.level(k).data.reshape(-1), s_k * b.level(k).data.reshape(-1)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batch_too_large_for_the_cap_is_refused(lat, monkeypatch):
    # eight shared fields give eight level-1 terms of 9 entries at 30 times,
    # 2,160 entries; one mode alone needs 270.  Above the cap, the batch is
    # a guard error naming the field, raised before any block is built
    st = random_state(lat, 3, 40, alpha=1.0, level_norms=[1.0] * 3)
    modes = [HierarchyMode.dependent(f) for f in enumerate_fields(lat)]
    times = np.linspace(0.0, 0.1, 30)
    quad = QuadratureSpec(q=3)
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 2000)
    DuhamelEvaluator(st, modes[:1], quad).term_batch(1, 2, times)

    def no_block(*args):
        raise AssertionError("a block was built before the guard")

    monkeypatch.setattr(DuhamelEvaluator, "_leaf", no_block)
    with pytest.raises(MemoryGuardError, match="^mc_samples: "):
        DuhamelEvaluator(st, modes, quad).term_batch(1, 2, times)


def test_chain_chunks_match_and_guard(lat, monkeypatch):
    # a cap small enough to chunk the leaf energies, and above it both the
    # energies and the chain suffixes, gives the same terms; below one
    # chain column (729 rows at level 3, 30 q^3 = 810 time nodes) it is a
    # guard error naming the field
    st = random_state(lat, 4, 33, alpha=1.0, level_norms=[1.0] * 4)
    mode = HierarchyMode.dependent(sample_field(lat, 34))
    quad = QuadratureSpec(q=3)
    times = np.linspace(0.0, 0.3, 30)
    ref = DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times).of(0)
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 3000)
    out = DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times).of(0)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 800)
    with pytest.raises(MemoryGuardError, match="^q: "):
        DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times)
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 700)
    with pytest.raises(MemoryGuardError, match="^M: "):
        DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times)


def test_nonuniform_grid_matches_duhamel():
    # the exponential is exact on every grid interval, so uneven gaps agree
    # with GL Duhamel to quadrature accuracy, far inside the 1e-5 criterion
    lat = FrequencyLattice(1, 2)
    st = random_state(lat, 3, 31, alpha=1.0, level_norms=[1.0] * 3)
    mode = HierarchyMode.independent(
        {lv: sample_field(lat, 32, level=lv) for lv in (2, 3)}
    )
    grid = (0.0, 0.003, 0.04, 0.041, 0.1)
    traj = evolve_truncated(st, 3, 0.1, mode, grid_times=grid)
    ev = DuhamelEvaluator(st, [mode], QuadratureSpec(q=16))
    for k in (1, 2, 3):
        sol = ev.solution_batch(3, k, grid).of(0)
        for i in range(len(grid)):
            ref = ev._wrap(k, sol[:, i])
            rel = h_alpha_norm(ref - traj.states[i].level(k), 1.0) \
                / (1 + h_alpha_norm(ref, 1.0))
            assert rel <= 1e-10


def test_integral_residual_vanishes(lat):
    st = random_state(lat, 3, 9, alpha=1.0, level_norms=[1.0] * 3)
    quad = QuadratureSpec(q=16)
    ev = DuhamelEvaluator(st, [HierarchyMode.dependent(sample_field(lat, 10))], quad)
    for k in (1, 2):
        assert integral_residual(ev, 3, k, 0.1, alpha=1.0)[0] < 1e-6
    assert integral_residual(ev, 3, 1, 0.0, alpha=1.0)[0] == 0.0
    with pytest.raises(ValueError):
        integral_residual(ev, 3, 3, 0.1)


def test_integral_residual_single_level(lat):
    # one-level data: the collision integrand vanishes, pure free evolution
    st = HierarchyState(lat, 3, {1: random_state(lat, 1, 11).level(1)})
    quad = QuadratureSpec(q=12)
    ev = DuhamelEvaluator(st, [HierarchyMode.deterministic()], quad)
    assert integral_residual(ev, 3, 1, 0.2)[0] < 1e-12


def test_simplex_identity(quad):
    num, exact = simplex_check(2, 1.0, quad)
    assert exact == 0.5
    assert abs(num - exact) < 1e-12
    num, exact = simplex_check(1, 0.3, quad)
    assert exact == pytest.approx(0.3)
    num, exact = simplex_check(4, 0.7, quad)
    assert abs(num - 0.7**4 / 24.0) < 1e-10


def test_decay_profile_zero_top(lat, quad):
    st = HierarchyState(lat, 3, {
        1: random_state(lat, 1, 12).level(1),
        2: random_state(lat, 2, 13).level(2),
    })
    mode = HierarchyMode.deterministic()
    norms, normalized = decay_profile(st, 1, 0.3, mode, 2, quad, alpha=1.0)
    assert norms[2] == 0.0
    assert norms[0] == pytest.approx(h_alpha_norm(st.level(1), 1.0), rel=1e-13)


def test_decay_chain_bound(lat):
    st = random_state(lat, 3, 14, alpha=1.0, level_norms=[1.0] * 3)
    quad = QuadratureSpec(q=12)
    mode = HierarchyMode.independent(
        {lv: sample_field(lat, 20, level=lv) for lv in (2, 3)}
    )
    t = 0.5
    norms, _ = decay_profile(st, 1, t, mode, 2, quad, alpha=1.0)
    from gphier.randomization import collision_omega_operator_norm

    sig = {}
    for m in (2, 3):
        sig[m] = max(
            collision_omega_operator_norm(lat, m - 1, jj, 1.0)[0]
            for jj in range(1, m)
        )
    for j in (1, 2):
        bound = (t**j / math.factorial(j)) \
            * math.prod((1 + i) * sig[2 + i] for i in range(j)) \
            * h_alpha_norm(st.level(1 + j), 1.0)
        assert norms[j] <= bound + 1e-8


def test_dependent_decay_shape():
    # non-resonant data under the shared-field mode: the factorial-normalized
    # diagnostics stay below a margin of the depth-1 value
    from gphier.expansion import nonresonant_sample

    lat = FrequencyLattice(1, 5)
    st = nonresonant_sample(lat, 3, 30)
    mode = HierarchyMode.dependent(sample_field(lat, 31))
    quad = QuadratureSpec(q=6)
    norms, normalized = decay_profile(st, 1, 0.1, mode, 2, quad, alpha=1.0,
                                      mc_samples=16, seed=32)
    assert normalized[2] <= normalized[1] * 1.5


def test_cauchy_increment_identity(lat):
    st = random_state(lat, 4, 15, alpha=1.0,
                      level_norms=[0.5**k for k in range(1, 5)])
    mode = HierarchyMode.dependent(sample_field(lat, 16))
    quad = QuadratureSpec(q=8)
    ev = DuhamelEvaluator(st, [mode], quad)
    N, k, t = 2, 1, 0.1
    lhs = ev.solution_batch(N + 1, k, [t]).of(0)[:, 0] \
        - ev.solution_batch(N, k, [t]).of(0)[:, 0]
    rhs = ev.term_batch(k, N + 1 - k, [t]).of(0)[:, 0]
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_cauchy_diagnostic_decreasing(lat):
    st = random_state(lat, 5, 17, alpha=1.0,
                      level_norms=[0.5**k for k in range(1, 6)])
    mode = HierarchyMode.dependent(sample_field(lat, 18))
    quad = QuadratureSpec(q=4)
    D = cauchy_diagnostic(st, [2, 3, 4], 0.1, mode, quad, alpha=1.0, xi=0.5,
                          grid_times=(0.0, 0.1))
    assert D[1] < D[0] and D[2] < D[1]
    assert D[1] / D[0] < 1.0


def test_solution_time_modulus_decreases(lat):
    st = random_state(lat, 2, 19, alpha=2.0, level_norms=[1.0, 1.0])
    mode = HierarchyMode.independent({2: sample_field(lat, 21, level=2)})
    quad = QuadratureSpec(q=8)
    ratios = solution_time_modulus(st, 2, [0.0, 0.05], (1e-2, 1e-3), mode,
                                   quad, alpha=1.0, xi=0.5)
    assert ratios[1e-3] <= ratios[1e-2] * (1 + 1e-9)


def test_solution_time_modulus_keeps_nan(lat, monkeypatch):
    # a NaN level norm must reach the ratio, not vanish in a max() fold
    st = random_state(lat, 2, 19, alpha=2.0, level_norms=[1.0, 1.0])
    mode = HierarchyMode.deterministic()
    monkeypatch.setattr(duhamel, "h_alpha_norm", lambda gamma, alpha: math.nan)
    ratios = solution_time_modulus(st, 2, [0.0, 0.05], (1e-2, 1e-3), mode,
                                   QuadratureSpec(q=4))
    assert all(math.isnan(v) for v in ratios.values())
