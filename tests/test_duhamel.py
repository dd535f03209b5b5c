import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from gphier import cli, duhamel, dynamics, randomization, tensor
from gphier.cli import ExperimentConfig, run_experiment
from gphier.lattice import FrequencyLattice
from gphier.tensor import (
    DensityMatrix,
    HierarchyState,
    MemoryGuardError,
    data_classes,
    h_alpha_norm,
    odd_classes,
    project,
    random_state,
)
from gphier.dynamics import (
    HierarchyMode,
    conjugate,
    evolve_truncated,
    free_evolve,
    full_collision,
    full_collision_matrix,
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
from gphier.randomization import (
    SignField,
    enumerate_fields,
    omega_l2_h_alpha,
    sample_field,
)


def _per_mode(batch, fn):
    """fn of each mode's array of an (n_modes, ...) batch, stacked over
    modes; a batch broadcast over the modes runs fn once."""
    if batch.strides[0] == 0:
        return np.repeat([fn(batch[0])], len(batch), axis=0)
    return np.array([fn(v) for v in batch])


def _field_key(mode, m):
    """The fingerprint of the mode's level-m sign field; None for no field."""
    field = mode.field_for_level(m)
    return None if field is None else field.fingerprint()


def _distinct_paths(modes, levels):
    """(the first mode of each distinct tuple of sign fields on `levels`,
    the index of each mode's tuple among them)."""
    firsts, seen, index = [], {}, []
    for md in modes:
        key = tuple(_field_key(md, m) for m in levels)
        if key not in seen:
            seen[key] = len(firsts)
            firsts.append(md)
        index.append(seen[key])
    return firsts, np.array(index)


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
        sol = ev.solution_batch(3, k, grid)[0]
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
    sol = ev.solution_batch(N, k, times)[0]
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
            assert np.array_equal(term[i], one.term_batch(k, j, times)[0])
        assert np.array_equal(sol[i], one.solution_batch(N, k, times)[0])
        if N > 3:
            continue
        traj = evolve_truncated(st, N, times[-1], modes[i], grid_times=times)
        for t in range(len(times)):
            ref = ev._wrap(k, sol[i][:, t])
            rel = h_alpha_norm(ref - traj.states[t].level(k), 1.0) \
                / (1 + h_alpha_norm(ref, 1.0))
            assert rel < 1e-5


def test_sign_vectors_built_once_per_field_and_order(monkeypatch):
    # an all-modes batch at M=1, K_max=4: the 8^3 independent product set
    # on levels 2..4, dependent fields and the deterministic mode.  Every
    # term, solution and collision of the batch builds each sign vector
    # S_m(h) at most once per (field, order), and each leaf block at most
    # once per (level, field)
    lat = FrequencyLattice(1, 1)
    st = random_state(lat, 4, 44, alpha=1.0, level_norms=[1.0] * 4)
    product = [HierarchyMode.independent(dict(zip(range(2, 5), combo)))
               for combo in itertools.product(enumerate_fields(lat), repeat=3)]
    sampled = [HierarchyMode.dependent(sample_field(lat, 45, sample=i))
               for i in range(3)]
    modes = product + sampled + [HierarchyMode.deterministic()]
    ev = DuhamelEvaluator(st, modes, QuadratureSpec(q=4))
    builds, leaves = collections.Counter(), collections.Counter()
    get = ev._blocks.get

    def counted(lattice, field, k):
        builds[field.fingerprint(), k] += 1
        return sign_vector(lattice, field, k)

    def counted_get(key, build):
        def counted_build():
            if key[0] == "leaf":
                leaves[key[1]] += 1
            return build()
        return get(key, counted_build)

    monkeypatch.setattr(duhamel, "sign_vector", counted)
    monkeypatch.setattr(ev._blocks, "get", counted_get)
    times = [0.0, 0.1]
    for k in range(1, 5):
        for j in range(5 - k):
            term = ev.term_batch(k, j, times)
            if k > 1:
                ev.collide(k, term)
        ev.solution_batch(4, k, times)
    integral_residual(ev, 4, 1, 0.1)
    # the lattice has 8 fields, each used at orders 1..4
    assert len(builds) == 8 * 4 and max(builds.values()) == 1
    # a term of depth >= 1 ends at a leaf of level 2..4: one build per
    # distinct field there (the lattice's 8, the sampled ones among them,
    # and none), not one per mode
    assert leaves == {m: len({_field_key(md, m) for md in modes})
                      for m in range(2, 5)} == {2: 9, 3: 9, 4: 9}


@pytest.mark.parametrize("shape", [(1, 2), (1, 3), (1, 4), (2, 3)])
@settings(max_examples=5, deadline=None, database=None)
@given(data=hst.data(), t=hst.floats(0.05, 1.0), seed=hst.integers(0, 2**16))
def test_class_paths_match_field_enumeration(shape, data, t, seed):
    # the oracle: the class-path average of Duh_j against the enumeration
    # of every joint field of levels k+1..k+j (2^(F j) modes, up to 2^10 at
    # M=2) over one evaluator batch
    M, K_max = shape
    lat = FrequencyLattice(1, M)
    k = data.draw(hst.integers(1, K_max - 1), label="k")
    j = data.draw(hst.integers(1, K_max - k), label="j")
    st = random_state(lat, K_max, seed, alpha=1.0, level_norms=[1.0] * K_max)
    quad = QuadratureSpec(q=4)

    def norms(modes):
        ev = DuhamelEvaluator(st, modes, quad)
        return _per_mode(ev.term_batch(k, j, [t]),
                         lambda term: h_alpha_norm(ev._wrap(k, term[:, 0]), 1.0))

    ref = omega_l2_h_alpha(norms, "independent", lat, range(k + 1, k + j + 1)).value
    got = DuhamelEvaluator(st, quad=quad).omega_norm(k, j, t, "independent", 1.0)
    assert abs(got - ref) <= 1e-13 * ref


def test_exact_independent_decay_draws_no_field(monkeypatch):
    # criterion 4's run takes its exact averages by class paths: no field
    # is enumerated, no evaluator holds a mode, and the climbs number
    # at most the class paths of the depths averaged (k=1, j <= 3 and
    # k=2, j=1: 4 + 16 + 64 + 4 at M=1)
    def no_enumeration(lattice):
        raise AssertionError("enumerate_fields was called")

    batches, climbs = [], collections.Counter()
    init, climb = DuhamelEvaluator.__init__, DuhamelEvaluator._climb

    def counted_init(self, state0, modes=(), quad=None):
        modes = list(modes)
        batches.append(len(modes))
        init(self, state0, modes, quad)

    def counted_climb(self, *args, **kwargs):
        climbs["climb"] += 1
        return climb(self, *args, **kwargs)

    monkeypatch.setattr(randomization, "enumerate_fields", no_enumeration)
    monkeypatch.setattr(DuhamelEvaluator, "__init__", counted_init)
    monkeypatch.setattr(DuhamelEvaluator, "_climb", counted_climb)
    cfg = ExperimentConfig(kind="decay", mode="independent", M=1, K_max=4,
                           T=0.5, q=12, seed=104)
    assert run_experiment(cfg).passed
    lat = FrequencyLattice(1, 1)
    n_cls = {m: odd_classes(lat, m)[1] for m in range(2, 5)}
    paths = sum(math.prod(n_cls[m] for m in range(k + 1, k + j + 1))
                for k, j_max in ((1, 3), (2, 1)) for j in range(1, j_max + 1))
    assert paths == 88
    assert batches and set(batches) == {0}
    assert 0 < climbs["climb"] <= paths


def test_dependent_averages_build_one_evaluator(monkeypatch):
    # the dependent decay profile and Cauchy diagnostic split the data by
    # class inside one evaluator's climbs: one build per call, whatever the
    # number of classes of the data
    built = []
    init = DuhamelEvaluator.__init__

    def counted_init(self, state0, modes=(), quad=None):
        built.append(len(list(modes)))
        init(self, state0, modes, quad)

    monkeypatch.setattr(DuhamelEvaluator, "__init__", counted_init)
    lat = FrequencyLattice(1, 1)
    st = random_state(lat, 3, 40, alpha=1.0, level_norms=[1.0] * 3)
    assert data_classes(st, [1, 2, 3]).size == 4
    quad = QuadratureSpec(q=4)
    decay_profile(st, 1, 0.2, "dependent", 2, quad)
    assert built == [0]
    cauchy_diagnostic(st, [1, 2], 0.2, "dependent", quad, grid_times=(0.0, 0.2))
    assert built == [0, 0]


def test_block_cache_stays_within_the_cap(monkeypatch):
    # 64 shared fields each bring a leaf block and sign vectors of up to
    # 729 entries; under a cap of 3,000 stored entries the cache evicts
    # the least recently used and the terms are unchanged
    lat = FrequencyLattice(1, 1)
    st = random_state(lat, 4, 46, alpha=1.0, level_norms=[1.0] * 4)
    modes = [HierarchyMode.dependent(sample_field(lat, 47, sample=i))
             for i in range(64)]
    quad = QuadratureSpec(q=4)
    times = [0.05, 0.1]
    full = DuhamelEvaluator(st, modes, quad)
    ref = full.term_batch(1, 3, times)
    assert full._blocks.total > 3000
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 3000)
    ev = DuhamelEvaluator(st, modes, quad)
    out = ev.term_batch(1, 3, times)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert ev._blocks.total == sum(b.size for b in ev._blocks.values()) <= 3000


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
        got = dep_ev.solution_batch(N, k, times)[0]
        ref = s_k[:, None] * det_ev.solution_batch(N, k, times)[0]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        for a, b in zip(dep_traj.states, det_traj.states):
            got, ref = a.level(k).data.reshape(-1), s_k * b.level(k).data.reshape(-1)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batch_too_large_for_the_cap_is_refused(lat, monkeypatch):
    # eight shared fields give eight level-1 terms of 9 entries at 30 times,
    # 2,160 entries; one mode alone needs 270.  Above the cap, the batch is
    # a guard error naming M and its class path and mode counts, raised
    # before any block is built
    st = random_state(lat, 3, 40, alpha=1.0, level_norms=[1.0] * 3)
    modes = [HierarchyMode.dependent(f) for f in enumerate_fields(lat)]
    times = np.linspace(0.0, 0.1, 30)
    quad = QuadratureSpec(q=3)
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 2000)
    DuhamelEvaluator(st, modes[:1], quad).term_batch(1, 2, times)

    def no_block(*args):
        raise AssertionError("a block was built before the guard")

    monkeypatch.setattr(DuhamelEvaluator, "_leaf", no_block)
    with pytest.raises(MemoryGuardError, match="^M: the Duhamel terms at level 1 "
                       "over 30 times hold 2160 entries for 1 class paths x 8 modes"):
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
    ref = DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times)[0]
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 3000)
    out = DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times)[0]
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 800)
    with pytest.raises(MemoryGuardError, match="^q: "):
        DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times)
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 700)
    with pytest.raises(MemoryGuardError, match="^M: "):
        DuhamelEvaluator(st, [mode], quad).term_batch(1, 3, times)


def test_class_path_chunks_match_and_guard(lat, monkeypatch):
    # the class-path climb at depth 3 carries 4, 16 and 64 class paths per
    # chain column at levels 3, 2 and 1 (2,916, 1,296 and 576 rows).  A cap
    # of 3,000 chunks every level and gives the same norm; below the widest
    # column it is a guard error naming the field
    st = random_state(lat, 4, 35, alpha=1.0, level_norms=[1.0] * 4)
    quad = QuadratureSpec(q=4)
    ref = DuhamelEvaluator(st, quad=quad).omega_norm(1, 3, 0.4, "independent")
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 3000)
    got = DuhamelEvaluator(st, quad=quad).omega_norm(1, 3, 0.4, "independent")
    assert abs(got - ref) <= 1e-13 * ref
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 2900)
    with pytest.raises(MemoryGuardError, match="^M: .* for each of 4 class paths"):
        DuhamelEvaluator(st, quad=quad).omega_norm(1, 3, 0.4, "independent")


def test_dependent_class_chunks_match(lat, monkeypatch):
    # the dependent class split carries the 4 classes of the data at level
    # 4 on every level of a depth-3 climb, none of which splits again
    # (2,916, 324 and 36 rows per chain column at levels 3, 2 and 1); a
    # cap of 3,000 chunks every level and gives the same norm
    st = random_state(lat, 4, 35, alpha=1.0, level_norms=[1.0] * 4)
    quad = QuadratureSpec(q=4)
    ref = DuhamelEvaluator(st, quad=quad).omega_norm(1, 3, 0.4, "dependent")
    monkeypatch.setattr(duhamel, "CHAIN_CAP", 3000)
    got = DuhamelEvaluator(st, quad=quad).omega_norm(1, 3, 0.4, "dependent")
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("variant", ["dependent", "independent"])
def test_nan_at_the_leaf_reaches_the_averages(lat, variant):
    # a NaN in gamma0 at level 4 sits in a nonzero column of every chain
    # block it reaches, so no pruned climb drops it: the depth-3 average
    # at level 1 is NaN, and the depths that never read level 4 are not
    st = random_state(lat, 4, 48, alpha=1.0, level_norms=[1.0] * 4)
    top = st.level(4).data.copy().reshape(-1)
    top[full_collision_matrix(lat, 4).indices[0]] = np.nan
    st = st.with_levels({4: DensityMatrix(lat, 4, "dense",
                                          data=top.reshape(st.level(4).data.shape))})
    quad = QuadratureSpec(q=4)
    assert math.isnan(DuhamelEvaluator(st, quad=quad).omega_norm(1, 3, 0.3, variant))
    norms = decay_profile(st, 1, 0.3, variant, 3, quad)[0]
    assert np.all(np.isfinite(norms[:3])) and math.isnan(norms[3])


def _confined_state(lat, K, seed, points):
    """Random coefficients on the indices of levels 1..K whose odd-
    multiplicity class is the point set `points`, zero elsewhere."""
    rng = np.random.default_rng(seed)
    mask = sum(1 << p for p in points)
    levels = {}
    for m in range(1, K + 1):
        shape = (lat.size,) * (2 * m)
        on = tensor._odd_masks(lat, m) == mask
        data = np.where(on, rng.standard_normal(on.size) + 1j * rng.standard_normal(on.size), 0)
        levels[m] = DensityMatrix(lat, m, "dense", data=data.reshape(shape))
    return HierarchyState(lat, K, levels)


@pytest.mark.parametrize("variant", ["dependent", "independent"])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_one_class_data_matches_field_enumeration(variant, j):
    # data confined to the one odd class {0, 1} leaves whole class paths
    # empty, so the pruned climb drops every column of them; the class
    # split's average still equals the enumeration of every field of
    # levels 2..1+j (the shared field, if dependent) to roundoff
    lat = FrequencyLattice(1, 1)
    st = _confined_state(lat, 4, 49, (0, 1))
    assert data_classes(st, range(1, 5)).tolist() == [0b011]
    quad, t = QuadratureSpec(q=4), 0.4
    ev = DuhamelEvaluator(st, quad=quad)
    terms = ev._class_terms(1, [j], [t], variant)
    assert terms.shape[1] == 1 or not np.all(terms.any(axis=(0, 2)))

    def norms(modes):
        batch = DuhamelEvaluator(st, modes, quad)
        return _per_mode(batch.term_batch(1, j, [t]),
                         lambda term: h_alpha_norm(batch._wrap(1, term[:, 0]), 1.0))

    ref = omega_l2_h_alpha(norms, variant, lat, range(2, 2 + j)).value
    got = ev.omega_norm(1, j, t, variant)
    assert ref > 0 and abs(got - ref) <= 1e-13 * ref


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
        sol = ev.solution_batch(3, k, grid)[0]
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


def _three_modes(lat, seed, levels):
    return [HierarchyMode.deterministic(),
            HierarchyMode.dependent(sample_field(lat, seed)),
            HierarchyMode.independent({m: sample_field(lat, seed + 1, level=m)
                                       for m in levels})]


@pytest.mark.parametrize("d, M, m", [(1, 1, 3), (1, 2, 3), (2, 1, 2)])
@settings(max_examples=4, deadline=None, database=None)
@given(seed=hst.integers(0, 2**16),
       times=hst.lists(hst.floats(0.0, 0.5), min_size=1, max_size=3))
def test_collide_conjugates_the_operand_bitwise(d, M, m, seed, times):
    # collide puts each field's signs on the operand and on the product of
    # the deterministic matrix, which it applies in real arithmetic
    # (`real_matmul`): every mode's collision equals S_(m-1)(h) B (S_m(h) x)
    # by scipy's complex kernel to the last bit
    lat = FrequencyLattice(d, M)
    st = random_state(lat, m, seed, alpha=1.0, level_norms=[1.0] * m)
    modes = _three_modes(lat, seed + 1, range(2, m + 1))
    ev = DuhamelEvaluator(st, modes, QuadratureSpec(q=4))
    batch = ev.solution_batch(m, m, times)
    got = ev.collide(m, batch)
    B = full_collision_matrix(lat, m)
    for i, mode in enumerate(modes):
        h = mode.field_for_level(m)
        signs = None if h is None else (sign_vector(lat, h, m - 1),
                                        sign_vector(lat, h, m))
        assert np.array_equal(got[i], conjugate(B.__matmul__, batch[i], signs))


def test_no_signed_matrix_outside_the_generator(monkeypatch):
    # a field's signs go on the operand and the product: over three modes,
    # `collide` and `integral_residual`, below the top level and at it, sign
    # no matrix.  An independent evolve_truncated at N=3 signs one, the
    # order-2 block of its generator, which expm_multiply needs as a matrix
    lat, N = FrequencyLattice(1, 1), 3
    st = random_state(lat, N, 28, alpha=1.0, level_norms=[1.0] * N)
    modes = _three_modes(lat, 29, range(2, N + 1))
    ev = DuhamelEvaluator(st, modes, QuadratureSpec(q=4))
    original, signed = dynamics._signed, []

    def counted(mat, signs):
        if signs is not None:
            signed.append(mat.shape)
        return original(mat, signs)

    for mod in (dynamics, duhamel, cli, randomization):
        if getattr(mod, "_signed", None) is original:
            monkeypatch.setattr(mod, "_signed", counted)
    for k in range(1, N):
        ev.collide(k + 1, ev.solution_batch(N, k + 1, [0.1, 0.2]))
        integral_residual(ev, N, k, 0.1)
    assert signed == []
    evolve_truncated(st, N, 0.1, modes[2])
    assert signed == [full_collision_matrix(lat, 2).shape]


def test_integral_residual_holds_one_node_block():
    # d=1 M=3, q=16: the level-3 solution at the 16 quadrature nodes would
    # be one (117649, 16) complex block.  The level-2 residual forms the top
    # level one node at a time and collides it under each mode's signs, so
    # the traced peak of a warm call measures 0.20 such blocks (5.6 MiB);
    # forming the whole block (1.33) fails the bound
    lat = FrequencyLattice(1, 3)
    st = random_state(lat, 3, 5, alpha=1.0, level_norms=[1.0] * 3)
    ev = DuhamelEvaluator(st, _three_modes(lat, 6, (2, 3)), QuadratureSpec(q=16))
    integral_residual(ev, 3, 2, 0.5)  # warm the matrix, splits and signs
    block = lat.size**6 * 16 * 16
    tracemalloc.start()
    try:
        integral_residual(ev, 3, 2, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * block, peak / block


def _batched_residual(ev, N, k, t):
    """The residual with the level-(k+1) solution at every node at once,
    collided by `collide`: the formula the top level's stream replaced,
    kept here as its oracle."""
    x, w = ev._gl
    nodes = 0.5 * t * (x + 1.0)
    integrand = ev.collide(k + 1, ev.solution_batch(N, k + 1, nodes))
    integrand *= ev._phases(k, t - nodes)
    free_k = ev._free(k, [t])[:, 0]
    return np.array([
        h_alpha_norm(ev._wrap(k, row - free_k + 1j * (part @ (0.5 * t * w))), 1.0)
        for row, part in zip(ev.solution_batch(N, k, [t])[:, :, 0], integrand)])


@pytest.mark.parametrize("M, N", [(2, 3), (1, 4)])
@settings(max_examples=3, deadline=None, database=None)
@given(seed=hst.integers(0, 2**16), t=hst.floats(0.01, 0.5))
def test_top_level_residual_matches_batched_oracle(M, N, seed, t):
    # at k = N-1 the integrand's top level is formed and collided one node
    # at a time, under each mode's signs on the vector; per column the
    # products and sums are the batch's, so every mode's norm is its bits
    lat = FrequencyLattice(1, M)
    st = random_state(lat, N, seed, alpha=1.0, level_norms=[1.0] * N)
    ev = DuhamelEvaluator(st, _three_modes(lat, seed + 1, range(2, N + 1)),
                          QuadratureSpec(q=16))
    got = integral_residual(ev, N, N - 1, t)
    assert np.array_equal(got, _batched_residual(ev, N, N - 1, t))
    assert np.all(got < 1e-6)


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
    norms, normalized = decay_profile(st, 1, 0.3, "deterministic", 2, quad,
                                      alpha=1.0)
    assert norms[2] == 0.0
    assert norms[0] == pytest.approx(h_alpha_norm(st.level(1), 1.0), rel=1e-13)


def test_vanishing_dense_level_has_norm_zero(lat, quad):
    # a dense level of zeros has no class: its depth's average is 0.0 in
    # every mode, and so is the Cauchy increment that reads only it
    st = random_state(lat, 2, 12, alpha=1.0, level_norms=[1.0] * 2)
    st = HierarchyState(lat, 3, {1: st.level(1), 2: st.level(2),
                                 3: DensityMatrix.zeros(lat, 3)})
    for variant in ("deterministic", "dependent", "independent"):
        norms, _ = decay_profile(st, 1, 0.3, variant, 2, quad, alpha=1.0)
        assert norms[2] == 0.0 and norms[1] > 0.0
    assert cauchy_diagnostic(st, [2], 0.3, "dependent", quad).tolist() == [0.0]


def test_decay_chain_bound(lat):
    st = random_state(lat, 3, 14, alpha=1.0, level_norms=[1.0] * 3)
    quad = QuadratureSpec(q=12)
    t = 0.5
    norms, _ = decay_profile(st, 1, t, "independent", 2, quad, alpha=1.0)
    from gphier.randomization import collision_omega_operator_norm

    # the largest norm over every slot j < m: `gph decay` takes slot 1 only,
    # by the slot symmetry, so this per-slot max is its independent oracle
    sig = {}
    for m in (2, 3):
        sig[m] = max(
            collision_omega_operator_norm(lat, m - 1, jj, 1.0)
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
    quad = QuadratureSpec(q=6)
    norms, normalized = decay_profile(st, 1, 0.1, "dependent", 2, quad, alpha=1.0)
    assert normalized[2] <= normalized[1] * 1.5


def _sparse_state(lat, K, seed):
    """Up to four random COO entries per level 1..K, the shape of non-resonant data."""
    rng = np.random.default_rng(seed)
    levels = {}
    for m in range(1, K + 1):
        idx = np.unique(rng.integers(0, lat.size, size=(4, 2 * m)), axis=0)
        vals = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        levels[m] = DensityMatrix.from_coo(lat, m, idx, vals)
    return HierarchyState(lat, K, levels)


# ids storage-M for the dependent mode, independent-storage-M for the other
@pytest.mark.parametrize("variant,storage,M", [
    pytest.param(variant, storage, M, id=("" if variant == "dependent" else
                                          "independent-") + f"{storage}-{M}")
    for variant in ("dependent", "independent") for storage in ("coo", "dense")
    for M in (1, 2)])
@settings(max_examples=3, deadline=None, database=None)
@given(seed=hst.integers(0, 2**16), t=hst.floats(0.05, 0.5))
def test_dependent_class_sums_match_field_enumeration(variant, storage, M, seed, t):
    # the decay profile and Cauchy diagnostic of both randomized modes add
    # class-split deterministic runs in squares; enumerating every field
    # (the shared one, or one per level 2..3) through the evaluator's
    # modes, with the pointwise collision `collide`, gives the same
    # averages.  Non-resonant data needs 2K modulus shells, more than
    # M <= 2 has, so the sparse data is drawn in its shape: up to four COO
    # entries per level
    lat = FrequencyLattice(1, M)
    quad = QuadratureSpec(q=4)
    st = random_state(lat, 3, seed, alpha=1.0, level_norms=[1.0] * 3) \
        if storage == "dense" else _sparse_state(lat, 3, seed)
    levels = [0] if variant == "dependent" else [2, 3]
    pairs, grid = [(1, 1), (2, 1), (2, 2)], np.array([0.0, t])

    def norms(modes):
        """[mode, (depth j of the profile, then pair (N, k)), ti]."""
        ev = DuhamelEvaluator(st, modes, quad)
        out = [np.repeat(_per_mode(ev.term_batch(1, j, [t]), lambda term: h_alpha_norm(
            ev._wrap(1, term[:, 0]), 1.0))[:, None], grid.size, axis=1) for j in range(3)]
        for N, k in pairs:
            cols = ev.collide(k + 1, ev.term_batch(k + 1, N - k, grid))
            out.append(_per_mode(cols, lambda col, k=k: [
                h_alpha_norm(ev._wrap(k, col[:, i]), 1.0)
                for i in range(grid.size)]))
        return np.stack(out, axis=1)

    rms = omega_l2_h_alpha(norms, variant, lat, levels).value
    assert rms.shape == (6, 2)
    profile = decay_profile(st, 1, t, variant, 2, quad)[0]
    assert np.all(np.abs(profile - rms[:3, 0]) <= 1e-13 * rms[:3, 0])
    ref = [np.max(0.5 * rms[3]), np.max(0.5 * rms[4] + 0.25 * rms[5])]
    got = cauchy_diagnostic(st, [1, 2], t, variant, quad, xi=0.5, grid_times=grid)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.array(ref))


def test_deterministic_cauchy_matches_pointwise_collision():
    # deterministic `gph converge` (N=3 K_max=4) collides the deterministic
    # terms themselves: D(N) against `collide` of `term_batch` under the
    # deterministic mode, rebuilt from the run's config
    cfg = ExperimentConfig(kind="converge", N=3, K_max=4)
    rep = run_experiment(cfg)
    assert "dependent_class_count" not in rep.constants
    lat = FrequencyLattice(cfg.d, cfg.M)
    st = random_state(lat, 4, cfg.seed, alpha=cfg.alpha,
                      level_norms=[0.5**k for k in range(1, 5)])
    ev = DuhamelEvaluator(st, [HierarchyMode.deterministic()], QuadratureSpec(q=8))
    grid = [0.0, cfg.T / 2, cfg.T]
    for N in (2, 3):
        ref = np.max(sum(cfg.xi**k * np.array([
            h_alpha_norm(ev._wrap(k, col), cfg.alpha)
            for col in ev.collide(k + 1, ev.term_batch(k + 1, N - k, grid))[0].T])
            for k in range(1, N + 1)))
        assert abs(rep.constants["cauchy_D"][str(N)] - ref) <= 1e-13 * ref


@pytest.mark.parametrize("average", [
    lambda st: decay_profile(st, 1, 0.1, "independant", 1),
    lambda st: cauchy_diagnostic(st, [1], 0.1, "independant"),
    lambda st: solution_time_modulus(st, 2, [0.0], (1e-2,), "independant"),
    lambda st: omega_l2_h_alpha(lambda modes: [1.0] * len(modes), "independant",
                                st.lattice, [2]),
], ids=["decay_profile", "cauchy_diagnostic", "solution_time_modulus",
        "omega_l2_h_alpha"])
def test_unknown_variant_is_refused(lat, average):
    # a misspelt variant is an error, not the deterministic average
    st = random_state(lat, 2, 3, level_norms=[1.0, 1.0])
    with pytest.raises(ValueError, match="'independant'"):
        average(st)


def test_independent_cauchy_pinned():
    # the default independent `gph converge` (N=3 K_max=4), averaged exactly
    # over the fields of levels 2..4; a separate prototype of the class lift
    # gave D(2) = 6.447e-3 and D(3) = 1.132e-3
    rep = run_experiment(ExperimentConfig(kind="converge", mode="independent",
                                          N=3, K_max=4))
    D = rep.constants["cauchy_D"]
    assert D["2"] == pytest.approx(6.447080487250879e-3, rel=1e-12)
    assert D["3"] == pytest.approx(1.1317703533654407e-3, rel=1e-12)


def test_cauchy_increment_identity(lat):
    st = random_state(lat, 4, 15, alpha=1.0,
                      level_norms=[0.5**k for k in range(1, 5)])
    mode = HierarchyMode.dependent(sample_field(lat, 16))
    quad = QuadratureSpec(q=8)
    ev = DuhamelEvaluator(st, [mode], quad)
    N, k, t = 2, 1, 0.1
    lhs = ev.solution_batch(N + 1, k, [t])[0, :, 0] \
        - ev.solution_batch(N, k, [t])[0, :, 0]
    rhs = ev.term_batch(k, N + 1 - k, [t])[0, :, 0]
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_cauchy_diagnostic_decreasing(lat):
    st = random_state(lat, 5, 17, alpha=1.0,
                      level_norms=[0.5**k for k in range(1, 6)])
    quad = QuadratureSpec(q=4)
    D = cauchy_diagnostic(st, [2, 3, 4], 0.1, "dependent", quad, alpha=1.0, xi=0.5,
                          grid_times=(0.0, 0.1))
    assert D[1] < D[0] and D[2] < D[1]
    assert D[1] / D[0] < 1.0


def test_solution_time_modulus_decreases(lat):
    st = random_state(lat, 2, 19, alpha=2.0, level_norms=[1.0, 1.0])
    quad = QuadratureSpec(q=8)
    ratios = solution_time_modulus(st, 2, [0.0, 0.05], (1e-2, 1e-3), "independent",
                                   quad, alpha=1.0, xi=0.5)
    assert ratios[1e-3] <= ratios[1e-2] * (1 + 1e-9)


def test_solution_time_modulus_keeps_nan(lat, monkeypatch):
    # a NaN level norm must reach the ratio, not vanish in a max() fold
    st = random_state(lat, 2, 19, alpha=2.0, level_norms=[1.0, 1.0])
    monkeypatch.setattr(duhamel, "h_alpha_norm", lambda gamma, alpha: math.nan)
    ratios = solution_time_modulus(st, 2, [0.0, 0.05], (1e-2, 1e-3), "deterministic",
                                   QuadratureSpec(q=4))
    assert all(math.isnan(v) for v in ratios.values())


def _enumerated_modulus(st, N, base_times, deltas, variant, quad, alpha, xi):
    """`solution_time_modulus` by enumeration, the oracle of its class split:
    every joint sign field of levels 2..N (the shared field, if
    dependent), averaged by `omega_l2_h_alpha`.  The level-k solution
    reads the fields of levels k+1..N, so it is built and normed once per
    distinct path of them, in one evaluator batch."""
    base_times, deltas = np.asarray(base_times), np.asarray(deltas)
    times = np.concatenate([base_times] + [base_times + d for d in deltas])
    nb = base_times.size

    def norms(modes):
        """[mode, di, ti, k-1]: level-k norm of Gamma_N(t_i + d_di) - Gamma_N(t_i)."""
        out = np.zeros((len(modes), deltas.size, nb, N))
        for k in range(1, N + 1):
            paths, index = _distinct_paths(modes, range(k + 1, N + 1))
            ev = DuhamelEvaluator(st, paths, quad)

            def increments(sol, k=k):
                return [[h_alpha_norm(ev._wrap(k, sol[:, (di + 1) * nb + ti]
                                               - sol[:, ti]), alpha)
                         for ti in range(nb)] for di in range(deltas.size)]

            out[..., k - 1] = _per_mode(ev.solution_batch(N, k, times),
                                        increments)[index]
        return out

    rms = omega_l2_h_alpha(norms, variant, st.lattice, range(2, N + 1)).value
    weighted = sum(xi**k * rms[:, :, k - 1] for k in range(1, N + 1))
    return {float(d): s / np.sqrt(d) for d, s in zip(deltas, np.max(weighted, axis=1))}


@pytest.mark.parametrize("M, N", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("variant", ["deterministic", "dependent", "independent"])
@pytest.mark.parametrize("storage", ["dense", "coo"])
@settings(max_examples=2, deadline=None, database=None)
@given(t=hst.floats(0.01, 0.3), seed=hst.integers(0, 2**16))
def test_solution_modulus_matches_field_enumeration(M, N, variant, storage, t, seed):
    # the class split of a sum of depths against the enumeration of every
    # joint field (up to 2^10 at M=2, N=3).  The sparse data has no level 1, so
    # the depths at level 1 start at 1.  At delta = 1e-4 the increments
    # cancel to about 5e-13 relative in both routes, so the deltas stop at
    # 1e-3.  With no field both routes add the same terms in the same order
    lat = FrequencyLattice(1, M)
    st = random_state(lat, N, seed, alpha=2.0, level_norms=[1.0] * N) \
        if storage == "dense" else project(_sparse_state(lat, N, seed), 1, "gt")
    quad = QuadratureSpec(q=4)
    args = (st, N, [0.0, t], (1e-2, 1e-3), variant, quad, 1.0, 0.5)
    ref, got = _enumerated_modulus(*args), solution_time_modulus(*args)
    assert got.keys() == ref.keys()
    for d in ref:
        assert abs(got[d] - ref[d]) <= 1e-12 * ref[d]
        assert variant != "deterministic" or got[d] == ref[d]


def test_continuity_draws_no_field(monkeypatch):
    # criterion 6/7's run takes its exact averages by one class split per
    # level: no field is enumerated, and no evaluator holds a mode
    def no_enumeration(lattice):
        raise AssertionError("enumerate_fields was called")

    batches = []
    init = DuhamelEvaluator.__init__

    def counted_init(self, state0, modes=(), quad=None):
        modes = list(modes)
        batches.append(len(modes))
        init(self, state0, modes, quad)

    monkeypatch.setattr(randomization, "enumerate_fields", no_enumeration)
    monkeypatch.setattr(DuhamelEvaluator, "__init__", counted_init)
    cfg = ExperimentConfig(kind="continuity", M=1, N=3, K_max=3, T=0.1, alpha=1.0,
                           alpha0=2.0, q=10, xi=0.5, xi_prime=1.0, seed=108)
    assert run_experiment(cfg).passed
    assert batches and set(batches) == {0}
