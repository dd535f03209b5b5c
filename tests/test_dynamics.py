import contextlib
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz, csr_matvecs
from hypothesis import given, settings, strategies as st

from gphier import dynamics, nls, tensor
from gphier.lattice import FrequencyLattice
from gphier.tensor import (
    DensityMatrix,
    HierarchyState,
    MemoryGuardError,
    factorized,
    h_alpha_norm,
    random_density_matrix,
    random_state,
)
from gphier.dynamics import (
    HierarchyMode,
    collision,
    collision_matrix,
    continuity_defect,
    evolve_truncated,
    free_evolve,
    full_collision,
    full_collision_matrix,
    phase_inequality_scan,
    power_collision,
    real_matmul,
    sign_vector,
)
from gphier.duhamel import DuhamelEvaluator
from gphier.randomization import (SignField, all_plus,
                                  collision_omega_operator_norm, sample_field)


@pytest.fixture
def lat():
    return FrequencyLattice(1, 1)


@contextlib.contextmanager
def _gather():
    """MATRIX_DOMAIN_CAP at 1, so every collision takes the gather kernel.

    For tests that put one input through both kernels in turn: the matrix
    outside this context, the gather inside.  The hypothesis tests do so
    for each drawn example rather than take the `kernel` fixture, which
    hypothesis would share across examples.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "MATRIX_DOMAIN_CAP", 1)
        yield


def test_free_evolve_t0(lat):
    g = random_density_matrix(lat, 2, 0)
    assert np.array_equal(free_evolve(g, 0.0).data, g.data)


def test_free_evolve_zero_phase(lat):
    g = DensityMatrix.zeros(lat, 1)
    i = lat.index_of([1])
    g.data[i, i] = 1.0  # |xi|^2 == |xi'|^2
    out = free_evolve(g, 13.7)
    assert out.data[i, i] == 1.0


def test_free_evolve_phase_value(lat):
    g = DensityMatrix.zeros(lat, 1)
    i, j = lat.index_of([1]), lat.index_of([0])
    g.data[i, j] = 1.0
    out = free_evolve(g, np.pi / 2)
    assert out.data[i, j] == pytest.approx(-1j, abs=1e-14)


def test_free_evolve_unitary_and_semigroup(lat):
    g = random_density_matrix(lat, 2, 1)
    for alpha in (0.0, 1.0, 2.3):
        a = h_alpha_norm(free_evolve(g, 0.77), alpha)
        b = h_alpha_norm(g, alpha)
        assert abs(a - b) / b < 1e-13
    comp = free_evolve(free_evolve(g, 0.3), 0.45)
    direct = free_evolve(g, 0.75)
    assert h_alpha_norm(comp - direct, 0.0) / h_alpha_norm(g, 0.0) < 1e-13


def test_free_evolve_sparse_matches_dense(lat):
    g = random_density_matrix(lat, 2, 2)
    coo = free_evolve(g.to_coo(), 0.9).to_dense()
    dense = free_evolve(g, 0.9)
    assert np.max(np.abs(coo.data - dense.data)) < 1e-14


@pytest.mark.parametrize("d, M, k", [(1, 3, 3), (1, 8, 2), (2, 1, 2), (3, 1, 1)])
def test_free_flow_phases_bitwise(d, M, k):
    # a phase taken once per distinct energy and gathered multiplies to the
    # same bits as the phase of every coefficient, in free_evolve and in
    # evolve_truncated's top level alike
    lat = FrequencyLattice(d, M)
    e = lat.energies.astype(np.float64)
    energy = functools.reduce(np.add.outer, [e] * k + [-e] * k).reshape(-1)
    # the split is np.unique's: sorted distinct energies, and their inverse
    assert np.array_equal(dynamics._energy_split(lat, k)[0], np.unique(energy))
    assert np.array_equal(dynamics.level_energy(lat, k), energy)
    g = random_density_matrix(lat, k, 31)
    times = (0.0, 1e-3, 0.37, 1.0, 2.9)
    for t in times:
        ref = g.data * np.exp(-1j * t * energy.reshape(g.data.shape))
        assert np.array_equal(free_evolve(g, t).data, ref)
    traj = evolve_truncated(HierarchyState(lat, k, {k: g}), k, times[-1],
                            HierarchyMode.deterministic(), grid_times=times)
    top = g.data.reshape(-1)
    for t, state in zip(times, traj.states):
        ref = top * np.exp(-1j * t * energy)
        assert np.array_equal(state.level(k).data.reshape(-1), ref)


def test_collision_zero(lat):
    out = collision(DensityMatrix.zeros(lat, 2), 1, 2, "+")
    assert not np.any(out.data)


def test_collision_hand_example(lat):
    # unit at (0,1; 0,1): only the pair (xi_2, xi'_2) = (1, 1) contributes,
    # with combined frequency 0 - 1 + 1 = 0
    g = DensityMatrix.zeros(lat, 2)
    i0, i1 = lat.index_of([0]), lat.index_of([1])
    g.data[i0, i1, i0, i1] = 1.0
    out = collision(g, 1, 2, "+")
    assert out.data[i0, i0] == 1.0
    assert np.count_nonzero(out.data) == 1
    # with signs h(0)=+1, h(1)=-1 the four factors give (+1)(+1)(-1)(-1)
    f = SignField(np.array([1, 1, -1], dtype=np.int8), "hand")
    out2 = collision(g, 1, 2, "+", f)
    assert out2.data[i0, i0] == 1.0


def test_collision_minus_mirrors_conjugate(lat):
    # B-(gamma) equals the conjugate-transpose image of B+ applied to the
    # conjugate-transposed input
    g = random_density_matrix(lat, 2, 3)
    swapped = DensityMatrix(lat, 2, "dense",
                            data=np.conj(np.transpose(g.data, (2, 3, 0, 1))))
    lhs = collision(g, 1, 2, "-").data
    rhs = np.conj(np.transpose(collision(swapped, 1, 2, "+").data, (1, 0)))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_collision_position_errors(lat):
    g = random_density_matrix(lat, 2, 4)
    with pytest.raises(ValueError):
        collision(g, 2, 2, "+")
    with pytest.raises(ValueError):
        collision(g, 1, 3, "+")
    with pytest.raises(ValueError):
        collision(random_density_matrix(lat, 1, 5), 1, 1, "+")


def test_full_collision_single_term(lat):
    g = random_density_matrix(lat, 2, 6)
    f = sample_field(lat, 3)
    direct = collision(g, 1, 2, "+", f) - collision(g, 1, 2, "-", f)
    assert np.max(np.abs(full_collision(g, f).data - direct.data)) < 1e-13


def test_full_collision_all_plus_bitwise(lat, kernel):
    g = random_density_matrix(lat, 3, 7)
    assert np.array_equal(
        full_collision(g, all_plus(lat)).data, full_collision(g).data
    )


def test_collision_linearity(lat, kernel):
    f = sample_field(lat, 11)
    a = random_density_matrix(lat, 2, 8)
    b = random_density_matrix(lat, 2, 9)
    combo = full_collision(1.5 * a + 2j * b, f)
    split = 1.5 * full_collision(a, f) + 2j * full_collision(b, f)
    rel = h_alpha_norm(combo - split, 0.0) / h_alpha_norm(combo, 0.0)
    assert rel < 1e-14


def _signed_product(lat, mat, m, field, x):
    """S_(m-1)(h) mat (S_m(h) x) for the order-m matrix mat under the field
    h, with the signs on the operand and the product; mat @ x if no field."""
    if field is None:
        return mat @ x
    return sign_vector(lat, field, m - 1) * (mat @ (sign_vector(lat, field, m) * x))


def test_matrix_matches_gather(lat):
    g = random_density_matrix(lat, 3, 10)
    f = sample_field(lat, 4)
    mat = full_collision_matrix(lat, 3)
    via = _signed_product(lat, mat, 3, f, g.data.reshape(-1)).reshape((3,) * 4)
    single = collision_matrix(lat, 2, 1, 2, "-")
    g2 = random_density_matrix(lat, 2, 11)
    via2 = _signed_product(lat, single, 2, f, g2.data.reshape(-1)).reshape((3,) * 2)
    with _gather():
        assert np.max(np.abs(via - full_collision(g, f).data)) < 1e-12
        assert np.max(np.abs(via2 - collision(g2, 1, 2, "-", f).data)) < 1e-13


@pytest.mark.parametrize("d, m", [(1, 2), (1, 3), (2, 2), (2, 3)],
                         ids=["2", "3", "d2-2", "d2-3"])
def test_full_collision_gather_matches_matrix(d, m):
    # below the cap full_collision applies the cached matrix; with the cap
    # lowered it takes the pair reduction and shift gathers instead
    lat = FrequencyLattice(d, 1)
    g = random_density_matrix(lat, m, 30 + m)
    f = sample_field(lat, 4)
    assert set(f.values) == {-1, 1}
    via_matrix = full_collision(g, f).data
    with _gather():
        with pytest.raises(MemoryError):
            full_collision_matrix(lat, m)
        via_gather = full_collision(g, f).data
    assert np.max(np.abs(via_gather - via_matrix)) <= 1e-13


@pytest.mark.parametrize("d, M, m", [(1, 2, 3), (1, 3, 3), (2, 1, 3), (1, 1, 4)])
def test_power_collision_bitwise(d, M, m, kernel):
    # the gather kernel reads the streamed power's slabs as the same products
    # the dense power holds, summed in the same order: equal to the last bit
    lat = FrequencyLattice(d, M)
    rng = np.random.default_rng(50 + 10 * d + M)
    phi = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    assert np.array_equal(power_collision(phi, m, lat).data,
                          full_collision(factorized(phi, m, lat)).data)


@pytest.mark.parametrize("d, M, m", [(1, 1, 3), (1, 2, 3), (2, 1, 2)])
@settings(max_examples=8, deadline=None, database=None)
@given(shape=st.sampled_from(["vector", "block", "chain slice"]),
       split=st.booleans(), seed=st.integers(0, 2**16))
def test_real_matmul_is_the_complex_product_bitwise(d, M, m, shape, split, seed):
    # the cached full matrix, or its energy split as the Duhamel climb uses
    # it, against scipy's complex kernel on a vector, a block and a
    # non-contiguous chain slice W[:, :, cols] (with exact zeros among the
    # entries): equal to the last bit, in the shape of the operand
    lat = FrequencyLattice(d, M)
    mat = full_collision_matrix(lat, m)
    if split:
        ev = DuhamelEvaluator(random_state(lat, m, seed),
                              [HierarchyMode.deterministic()])
        mat = ev._split(m, 0, dynamics._energy_split(lat, m)[0].size)
    n = mat.shape[1]
    rng = np.random.default_rng(seed)
    size = {"vector": (n,), "block": (n, 5), "chain slice": (n, 3, 7)}[shape]
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    x[rng.random(size) < 0.2] = 0.0
    if shape == "chain slice":
        x = x[:, :, 2:6]
        assert not x.flags.c_contiguous
    got = real_matmul(mat, x)
    assert got.shape == (mat.shape[0],) + x.shape[1:]
    want = mat @ (x if x.ndim == 1 else x.reshape(n, -1))
    assert np.array_equal(got.reshape(want.shape), want)


def test_real_matmul_refuses_a_complex_matrix(lat):
    # a complex matrix's imaginary part would be dropped on the float64 view
    mat = full_collision_matrix(lat, 2).astype(np.complex128)
    with pytest.raises(TypeError):
        real_matmul(mat, np.ones(mat.shape[1], dtype=np.complex128))


_PHI = st.lists(st.complex_numbers(max_magnitude=4.0, allow_subnormal=False),
                min_size=5, max_size=5).map(np.array)


@settings(max_examples=20, deadline=None, database=None)
@given(phi=_PHI, psi=_PHI,
       c=st.complex_numbers(max_magnitude=4.0, allow_subnormal=False))
def test_power_collision_streams_rank_one(phi, psi, c):
    # gather path, d=1, M=2: the streamed power collides bitwise as the dense
    # one, and the rank-one operand (h, g) is linear in each factor
    lat = FrequencyLattice(1, 2)
    m, terms = 3, dynamics._full_terms(3)
    h1, h2 = (tensor._half_power(v, m, lat) for v in (phi, psi))
    g1, g2 = np.conj(h1), np.conj(h2)

    def coll(h, g):
        return dynamics._collide(lat, m, (h, g), terms)

    with _gather():
        assert np.array_equal(power_collision(phi, m, lat).data,
                              full_collision(factorized(phi, m, lat)).data)
        # an output entry sums at most 2(m-1) F^2 products, each at most
        # (|c| max|h1| + max|h2|) max|h1| in both checks, as |g| = |h|
        count = 2 * (m - 1) * lat.size**2
        prod = (abs(c) * np.abs(h1).max() + np.abs(h2).max()) * np.abs(h1).max()
        for got, want in (
            (coll(c * h1 + h2, g1), c * coll(h1, g1) + coll(h2, g1)),
            (coll(h1, c * g1 + g2), c * coll(h1, g1) + coll(h1, g2)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-13 * count * prod


_ROLES = [(m, ell, n, sign) for m in (2, 3, 4) for n in range(2, m + 1)
          for ell in range(1, n) for sign in "+-"]
_SIGNS = st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3)
_FIELDS = st.none() | _SIGNS.map(
    lambda v: SignField(np.array(v, dtype=np.int8), "drawn"))


@pytest.mark.parametrize("m, ell, n, sign", _ROLES)
@settings(max_examples=8, deadline=None, database=None)
@given(field=_FIELDS, seed=st.integers(0, 2**16))
def test_matrix_matches_gather_every_role(m, ell, n, sign, field, seed):
    lat = FrequencyLattice(1, 1)
    g = random_density_matrix(lat, m, seed)
    mat = collision_matrix(lat, m, ell, n, sign)
    via = _signed_product(lat, mat, m, field, g.data.reshape(-1)).reshape(
        (3,) * (2 * m - 2))
    with _gather():
        ref = collision(g, ell, n, sign, field).data
    assert np.max(np.abs(via - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def _by_definition(gamma, ell, n, sign, field):
    """The (ell, n) collision summed summand by summand over (g, p, q).

    '+' combines xi_ell - xi_n + xi'_n on the unprimed side, '-' combines
    xi'_ell - xi'_n + xi_n on the primed side; a summand whose combination
    leaves the box is dropped.  Each summand is added for all other
    indices at once.  No shift table is involved: an oracle for both.
    """
    lat, m = gamma.lattice, gamma.k
    F = lat.size
    h = np.ones(F) if field is None else field.values.astype(np.float64)
    comb = ell - 1 if sign == "+" else m + ell - 1
    src = np.moveaxis(gamma.data, (comb, n - 1, m + n - 1), (0, 1, 2))
    out = np.zeros((F,) + src.shape[3:], dtype=np.complex128)
    for g, p, q in itertools.product(range(F), repeat=3):
        c = lat.points[g] - lat.points[p] + lat.points[q]
        if not lat.in_box(c):
            continue
        u = lat.index_of(c)
        # p is xi_n for '+' and xi'_n for '-'; a, b are xi_n, xi'_n
        a, b = (p, q) if sign == "+" else (q, p)
        out[g] += h[g] * h[u] * h[p] * h[q] * src[u, a, b]
    return np.moveaxis(out, 0, comb if sign == "+" else comb - 1)


def _mixed_fields(F):
    signs = st.lists(st.sampled_from((1, -1)), min_size=F, max_size=F)
    return st.none() | signs.filter(lambda v: len(set(v)) == 2).map(
        lambda v: SignField(np.array(v, dtype=np.int8), "drawn"))


_ROLES_TO_3 = [r for r in _ROLES if r[0] <= 3]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m, ell, n, sign", _ROLES_TO_3)
@settings(max_examples=4, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_collision_matches_definition(d, m, ell, n, sign, data, seed):
    lat = FrequencyLattice(d, 1)
    field = data.draw(_mixed_fields(lat.size))
    g = random_density_matrix(lat, m, seed)
    ref = _by_definition(g, ell, n, sign, field)
    via_matrix = collision(g, ell, n, sign, field).data
    with _gather():
        via_gather = collision(g, ell, n, sign, field).data
    for got in (via_matrix, via_gather):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=4, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_full_collision_matches_definition(d, m, data, seed):
    lat = FrequencyLattice(d, 1)
    field = data.draw(_mixed_fields(lat.size))
    g = random_density_matrix(lat, m, seed)
    ref = sum(_by_definition(g, j, m, "+", field)
              - _by_definition(g, j, m, "-", field) for j in range(1, m))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(full_collision(g, field).data - ref)) <= 1e-13 * scale
    with _gather():
        got = full_collision(g, field).data
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


_LATTICES = [(1, 1), (1, 2), (2, 1)]
_COEFS = st.complex_numbers(max_magnitude=4.0, allow_subnormal=False)


def _drawn_collision_case(data):
    """A drawn lattice, role (m, ell, n, sign) and field (None, or mixed).

    Orders stay at m <= 3, and at m = 2 on d=2, so that each example runs
    both kernels in a fraction of a second.
    """
    d, M = data.draw(st.sampled_from(_LATTICES))
    lat = FrequencyLattice(d, M)
    role = data.draw(st.sampled_from(
        [r for r in _ROLES_TO_3 if d == 1 or r[0] == 2]))
    return lat, role, data.draw(_mixed_fields(lat.size))


@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data(), seeds=st.tuples(st.integers(0, 2**16),
                                       st.integers(0, 2**16)), c=_COEFS)
def test_collision_linearity_drawn(data, seeds, c):
    # B(c a + b) = c B(a) + B(b) for single and full collisions, on the
    # cached matrix and on the gather kernel
    lat, (m, ell, n, sign), field = _drawn_collision_case(data)
    a, b = (random_density_matrix(lat, m, s) for s in seeds)
    combo = c * a + b
    for ctx in (contextlib.nullcontext, _gather):
        with ctx():
            for op in (lambda g: collision(g, ell, n, sign, field),
                       lambda g: full_collision(g, field)):
                got, want = op(combo).data, c * op(a).data + op(b).data
                # each output entry sums at most 2(m-1) F^2 products
                scale = 2 * (m - 1) * lat.size**2 * (abs(c) + 1) * max(
                    np.abs(a.data).max(), np.abs(b.data).max())
                assert np.max(np.abs(got - want)) <= 1e-14 * scale


@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_all_plus_recovers_deterministic_drawn(data, seed):
    # the all-plus field conjugates by ones, so on each kernel a collision
    # under it is bitwise the deterministic one
    lat, (m, ell, n, sign), _ = _drawn_collision_case(data)
    g = random_density_matrix(lat, m, seed)
    plus = all_plus(lat)
    for ctx in (contextlib.nullcontext, _gather):
        with ctx():
            assert np.array_equal(collision(g, ell, n, sign, plus).data,
                                  collision(g, ell, n, sign).data)
            assert np.array_equal(full_collision(g, plus).data,
                                  full_collision(g).data)


def test_kernel_is_chosen_by_size(lat, kernel, monkeypatch):
    # collision and full_collision both apply the cached matrix at or below
    # MATRIX_DOMAIN_CAP and reach the gather kernel only above it
    calls = []
    collide = dynamics._collide

    def counted(lattice, m, x, terms):
        calls.append(terms)
        return collide(lattice, m, x, terms)

    monkeypatch.setattr(dynamics, "_collide", counted)
    g = random_density_matrix(lat, 3, 42)
    f = sample_field(lat, 43)
    collision(g, 2, 3, "-", f)
    full_collision(g)
    assert calls == ([] if kernel == "matrix"
                     else [((2, 3, "-", 1.0),), dynamics._full_terms(3)])


def test_energy_and_sign_vectors_guard(lat, monkeypatch):
    # level_energy and sign_vector each hold F^(2k) entries; the dense-tensor
    # guard is checked before either is built, cached or not
    dynamics.level_energy(lat, 2)
    monkeypatch.setattr(tensor, "MEMORY_GUARD", lat.size**4 - 1)
    with pytest.raises(MemoryGuardError, match="order-2"):
        dynamics.level_energy(lat, 2)
    with pytest.raises(MemoryGuardError, match="order-2"):
        dynamics.sign_vector(lat, sample_field(lat, 41), 2)
    assert dynamics.sign_vector(lat, sample_field(lat, 41), 1).size == lat.size**2


def test_shift_buffer_guard(lat, monkeypatch):
    # the guard bounds the whole pair-reduced sum, F^(2m-2) (4M+1)^d
    # entries, though the kernel holds one F-th of it at a time; it is
    # checked before any of it is allocated
    g = random_density_matrix(lat, 3, 40)
    need = lat.size**4 * 5
    monkeypatch.setattr(dynamics, "MATRIX_DOMAIN_CAP", 1)
    monkeypatch.setattr(tensor, "MEMORY_GUARD", need - 1)
    with pytest.raises(MemoryGuardError, match="order-3 collision shift buffer"):
        collision(g, 1, 3, "+")
    with pytest.raises(MemoryGuardError, match="order-3 collision shift buffer"):
        full_collision(g)
    monkeypatch.setattr(tensor, "MEMORY_GUARD", need)
    assert full_collision(g).k == 2


def test_gather_kernel_streams_the_shift_buffer(monkeypatch):
    # d=1, M=4: the whole pair-reduced sum of an order-3 collision has
    # 9^4 17 complex entries; the kernel forms it one F-th at a time and
    # never holds half of it
    lat = FrequencyLattice(1, 4)
    rng = np.random.default_rng(60)
    phi = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    monkeypatch.setattr(dynamics, "MATRIX_DOMAIN_CAP", 1)
    power_collision(phi, 3, lat)  # warm the shift table
    buffer_bytes = lat.size**4 * (4 * lat.M + 1) * 16
    tracemalloc.start()
    try:
        power_collision(phi, 3, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * buffer_bytes, peak / buffer_bytes


def _slab_collide(lat, m, x, terms, slab=2**12):
    """The gather kernel as a loop over slabs, the reference for its bits.

    Each chunk D[i0] is summed slab by slab from gamma: row a of the shift
    table is the box a + 2M - [0, 2M]^d reversed, so each a, in increasing
    order, adds the slab v[i0, i..., a, ..., b] into a slice of the chunk,
    whose leading axes are looped over until a slab has at most `slab`
    entries.  A rank-one slab is the outer product of h'[i0, i..., a] with
    g', the pair axis last in both.  The term gathers are the kernel's.
    """
    F, side, d, M = lat.size, lat.side, lat.d, lat.M
    n = terms[0][1]
    roles = [dynamics._roles(lat, m, ell, n, sign)[1:] + (coef,)
             for ell, n, sign, coef in terms]
    if isinstance(x, tuple):
        h, g = (np.moveaxis(f.reshape((F,) * m), n - 1, -1) for f in x)
        slab_at = lambda idx: np.multiply.outer(h[idx], g)
    else:
        v = np.moveaxis(x.reshape((F,) * (2 * m)), (n - 1, m + n - 1),
                        (m - 1, 2 * m - 1))
        slab_at = v.__getitem__
    chunk = np.empty((F,) * (2 * m - 3) + (4 * M + 1,) * d, dtype=np.complex128)
    lead = 0
    while lead < m - 2 and chunk.size > slab * F**lead:
        lead += 1
    boxes = [(Ellipsis,) + tuple(slice(c + 2 * M, c - 1 if c else None, -1)
                                 for c in pt + M) for pt in lat.points]
    by_shift = chunk.reshape(chunk.shape[:2 * m - 3] + (-1,))
    out = np.zeros((F,) * (2 * m - 2), dtype=np.complex128)
    u = np.arange(F)[:, None]
    for i0 in range(F):
        chunk[...] = 0.0
        for i in np.ndindex((F,) * lead):
            for a, box in enumerate(boxes):
                part = slab_at((i0,) + i + (slice(None),) * (m - 2 - lead) + (a,))
                chunk[i][box] += part.reshape(part.shape[:-1] + (side,) * d)
        for out_ax, gather, coef in roles:
            if out_ax == 0:
                ov = np.moveaxis(out, 0, -1)
                ov += coef * by_shift[..., gather[:, i0]]
            else:
                X = np.moveaxis(by_shift, (out_ax - 1, -1), (0, 1))[u, gather.T]
                ov = np.moveaxis(out[i0], out_ax - 1, 0)
                ov += coef * X.sum(axis=0)
    return out.reshape(-1)


@pytest.mark.parametrize("operand", ["flat", "rank-one"])
@pytest.mark.parametrize("d, M, m", [(1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 3),
                                     (1, 3, 3), (2, 1, 2), (2, 1, 3)])
def test_collide_is_the_slab_loop_bitwise(d, M, m, operand):
    # the pair reduction as a 0/1 CSR product adds the same products in the
    # same order as the slab loop, on each single term and on the full set;
    # a NaN and an inf in the operand land on the same entries in both
    lat = FrequencyLattice(d, M)
    F = lat.size
    rng = np.random.default_rng(70 + 10 * d + M + m)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = draw(F ** (2 * m)) if operand == "flat" else (draw(*(F,) * m), draw(*(F,) * m))
    singles = [((ell, n, sign, 1.0),) for n in range(2, m + 1) for ell in range(1, n)
               for sign in "+-"]
    for bad in (False, True):
        if bad:
            parts = [x] if operand == "flat" else list(x)
            parts[0].flat[F + 1] = np.nan
            parts[-1].flat[-F] = np.inf
        for terms in singles + [dynamics._full_terms(m)]:
            with np.errstate(invalid="ignore"):  # inf - inf, inf * 0
                want = _slab_collide(lat, m, x, terms)
                got = dynamics._collide(lat, m, x, terms)
            assert np.array_equal(got, want, equal_nan=True), terms
        assert np.isfinite(want).all() != bad


def test_private_csr_kernels_match_the_public_product():
    # dynamics and duhamel call scipy's private CSR kernels, whose signatures
    # scipy does not promise to keep: each against the public `@`, on the
    # real and complex data the callers hand them
    rng = np.random.default_rng(80)
    A = sp.random(4, 6, density=0.5, format="csr", random_state=rng)
    B = sp.random(6, 3, density=0.5, format="csr", random_state=rng)
    for data in (A.data, A.data + 1j * rng.standard_normal(A.nnz)):
        X = rng.standard_normal((6, 5)) + (1j * rng.standard_normal((6, 5))
                                            if data.dtype.kind == "c" else 0)
        Y = np.zeros((4, 5), dtype=X.dtype)
        csr_matvecs(4, 6, 5, A.indptr, A.indices, data, X.reshape(-1), Y.reshape(-1))
        mat = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
        assert np.array_equal(Y, mat @ X)
    values = B.data + 1j * rng.standard_normal(B.nnz)
    n = csr_matmat_maxnnz(4, 3, A.indptr, A.indices, B.indptr, B.indices)
    assert n >= (A @ B).nnz
    ptr, col, val = np.empty_like(A.indptr), np.empty(n, A.indices.dtype), np.empty(n, complex)
    csr_matmat(4, 3, A.indptr, A.indices, A.data, B.indptr, B.indices, values,
               ptr, col, val)
    got = sp.csr_matrix((val[:ptr[-1]], col[:ptr[-1]], ptr), shape=(4, 3))
    want = A @ sp.csr_matrix((values, B.indices, B.indptr), shape=B.shape)
    assert np.array_equal(got.toarray(), want.toarray())


def test_evolve_missing_independent_field(lat):
    # a field on level 3 only: the order-2 collision finds none
    st = random_state(lat, 2, 15)
    mode = HierarchyMode.independent({3: sample_field(lat, 15, level=3)})
    with pytest.raises(ValueError, match="level 2"):
        evolve_truncated(st, 2, 0.1, mode)


_ONE_FIELD = SignField(np.array([1, -1, 1], dtype=np.int8), "drawn")


@pytest.mark.parametrize("kwargs, problem", [
    (dict(variant="independant"), "unknown variant 'independant'"),
    (dict(variant="dependent"), "dependent mode needs a shared sign field"),
    (dict(variant="independent"), "independent mode needs a mapping"),
    (dict(variant="independent", fields=[_ONE_FIELD]), "got list"),
    (dict(variant="deterministic", field=_ONE_FIELD), "takes no sign field"),
    (dict(variant="deterministic", fields={}), "takes no sign field"),
    (dict(variant="dependent", field=_ONE_FIELD, fields={2: _ONE_FIELD}),
     "dependent mode takes one shared field, not per-level fields"),
    (dict(variant="independent", field=_ONE_FIELD, fields={2: _ONE_FIELD}),
     "independent mode takes per-level fields, not a shared field"),
], ids=["misspelt", "dependent-no-field", "independent-no-fields",
        "independent-list", "deterministic-field", "deterministic-fields",
        "dependent-fields", "independent-field"])
def test_hierarchy_mode_checks_itself(kwargs, problem):
    # a bad mode is refused where it is built, not run as the deterministic
    # hierarchy, nor run with an attribute its variant never reads; an empty
    # mapping is a valid independent mode
    with pytest.raises(ValueError, match=problem):
        HierarchyMode(**kwargs)
    assert HierarchyMode.independent({}).fields == {}


def test_evolve_dispersion_only(lat):
    g = random_density_matrix(lat, 1, 16)
    st = HierarchyState(lat, 1, {1: g})
    grid = (0.0, 0.07, 0.3, 2.9, 3.0)
    traj = evolve_truncated(st, 1, 3.0, HierarchyMode.deterministic(),
                            grid_times=grid)
    for t, state in zip(grid, traj.states):
        ref = free_evolve(g, t)
        assert h_alpha_norm(state.level(1) - ref, 0.0) < 1e-12
    assert np.array_equal(traj.states[0].level(1).data, g.data)


def test_evolve_top_level_is_free_flow(lat):
    st = random_state(lat, 3, 17)
    f = sample_field(lat, 5)
    grid = (0.0, 0.01, 0.25, 0.26, 0.7)
    for N in (2, 3):
        traj = evolve_truncated(st, N, 0.7, HierarchyMode.dependent(f),
                                grid_times=grid)
        for t, state in zip(grid, traj.states):
            ref = free_evolve(st.level(N), t)
            assert np.array_equal(state.level(N).data, ref.data)


def test_evolve_trajectory_mode_collapse_bitwise(lat):
    st = random_state(lat, 3, 19)
    f = sample_field(lat, 6)
    dep = evolve_truncated(st, 3, 0.1, HierarchyMode.dependent(f),
                           grid_times=(0.0, 0.05, 0.1))
    ind = evolve_truncated(st, 3, 0.1, HierarchyMode.independent({2: f, 3: f}),
                           grid_times=(0.0, 0.05, 0.1))
    for s1, s2 in zip(dep.states, ind.states):
        for k in (1, 2, 3):
            assert np.array_equal(s1.level(k).data, s2.level(k).data)


def _arrays(obj, seen=None):
    """Every numpy array reachable from obj through attributes and items,
    leaving out the shared lattice's own tables."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, FrequencyLattice):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
        items = [getattr(obj, n) for n in getattr(obj, "__slots__", ())
                 if hasattr(obj, n)] + list(getattr(obj, "__dict__", {}).values())
    else:
        return []
    return [a for item in items for a in _arrays(item, seen)]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_trajectory_stores_top_level_once(lat, N):
    # the top level is free flow: a trajectory keeps gamma_N(0) and the lower
    # levels at each grid time, and forms level N by free_evolve when read
    st = random_state(lat, 3, 25)
    f = sample_field(lat, 8)
    grid = (0.0, 0.02, 0.1, 0.35, 0.5)
    traj = evolve_truncated(st, N, 0.5, HierarchyMode.dependent(f),
                            grid_times=grid)
    dims = [lat.size ** (2 * k) for k in range(1, N + 1)]
    entries = sum(a.size for a in _arrays(traj))
    assert entries <= dims[-1] + len(grid) * sum(dims[:-1])
    for i, t in enumerate(grid):
        assert np.array_equal(traj.level(i, N).data,
                              free_evolve(st.level(N), t).data)
        # a state shares the stored lower levels
        for k in range(1, N):
            assert traj.states[i].level(k) is traj.level(i, k)
    assert len(traj.states) == len(grid)
    assert np.array_equal(traj.states[-1].level(N).data, traj.level(4, N).data)
    with pytest.raises(IndexError):
        traj.states[len(grid)]
    with pytest.raises(ValueError, match="level 0"):
        traj.level(0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evolve_refuses_nonfinite_top_level(lat, bad):
    # the top level is checked finite once, before the flow, for every grid
    st = random_state(lat, 3, 26)
    top = st.level(3).data.copy()
    top[0, 1, 2, 0, 1, 2] = bad
    st = st.with_levels({1: st.level(1), 2: st.level(2),
                         3: DensityMatrix(lat, 3, "dense", data=top)})
    for grid in ((0.0, 0.1), (0.05, 0.1)):
        with pytest.raises(RuntimeError, match="non-finite"):
            evolve_truncated(st, 3, 0.1, HierarchyMode.deterministic(),
                             grid_times=grid)


@pytest.mark.parametrize("N", [2, 3])
def test_generator_signs_the_top_level_bitwise(lat, N):
    # the top level's feed carries the field's signs on gamma_N(0) and on the
    # rows of B_N @ groups: bitwise the product with the signed matrix
    # S_(N-1)(h) B_N S_N(h), built here entry by entry
    st = random_state(lat, N, 27)
    f = sample_field(lat, 9)
    top0 = st.level(N).data.reshape(-1)
    gen = dynamics._augmented_generator(lat, N, HierarchyMode.dependent(f), top0)
    vals, inv = dynamics._energy_split(lat, N)
    groups = sp.csr_matrix((top0, (np.arange(top0.size), inv)),
                           shape=(top0.size, vals.size))
    B = full_collision_matrix(lat, N).tocoo()
    s_out, s_in = (sign_vector(lat, f, k) for k in (N - 1, N))
    signed = sp.csr_matrix((B.data * s_out[B.row] * s_in[B.col], (B.row, B.col)),
                           shape=B.shape)
    ref = -1j * (signed @ groups).toarray()
    lo = sum(lat.size ** (2 * k) for k in range(1, N - 1))
    hi = lo + lat.size ** (2 * (N - 1))
    assert np.array_equal(gen[lo:hi, hi:].toarray(), ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [1, 2, 3])
def test_evolve_subnormal_interval_is_identity(lat, N):
    # over an interval this short scipy's scaled norm underflows and it takes
    # no step; the state comes out unchanged, and without a warning
    st = random_state(lat, 3, 24)
    for grid, moved in (((5e-324, 0.1), 0), ((0.0, 5e-324), 1)):
        traj = evolve_truncated(st, N, 0.1, HierarchyMode.deterministic(),
                                grid_times=grid)
        for k in range(1, N + 1):
            assert np.array_equal(traj.states[moved].level(k).data,
                                  st.level(k).data)


def test_continuity_defect_examples(lat):
    # zero phase support: lhs = 0
    g = DensityMatrix.zeros(lat, 1)
    i = lat.index_of([1])
    g.data[i, i] = 1.0
    lhs, rhs, r = continuity_defect(g, 0.2, 0.05, 0.5, 2.5)
    assert lhs == 0.0 and r == 1.0
    # generic tensors satisfy lhs <= rhs and lhs <= 2 |sigma|_beta
    s = random_density_matrix(lat, 2, 20)
    for beta0, expect_r in ((1.5, 0.5), (3.6, 1.0)):
        for delta in (1e-1, 1e-2, 1e-3, 10.0):
            lhs, rhs, r = continuity_defect(s, 0.3, delta, 0.5, beta0)
            assert r == expect_r
            assert lhs <= rhs * (1 + 1e-12)
            assert lhs <= 2 * h_alpha_norm(s, 0.5) * (1 + 1e-12)


def test_continuity_defect_unit_coefficient():
    lat = FrequencyLattice(1, 2)
    g = DensityMatrix.zeros(lat, 1)
    i, j = lat.index_of([1]), lat.index_of([0])
    g.data[i, j] = 1.0
    for delta in (1e-1, 1e-2, 1e-3):
        lhs, rhs, r = continuity_defect(g, 0.0, delta, 0.5, 2.5)
        # direct evaluation of both sides for the single coefficient
        assert lhs == pytest.approx(abs(np.exp(-1j * delta) - 1) * 2**0.25,
                                    rel=1e-12)
        assert r == 1.0
        assert lhs <= rhs


def test_continuity_param_validation(lat):
    s = random_density_matrix(lat, 1, 21)
    with pytest.raises(ValueError):
        continuity_defect(s, 0.0, 0.1, -0.5, 1.0)
    with pytest.raises(ValueError):
        continuity_defect(s, 0.0, 0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        continuity_defect(s, 0.0, -0.1, 0.5, 1.5)


def test_phase_inequality_scan_covers_all_slots():
    lat = FrequencyLattice(2, 2)
    v, ratio, covered = phase_inequality_scan(lat, 2, 1.0, 1.5, 1e-2)
    assert v == 0
    assert ratio <= 1.0
    assert covered == lat.size ** 4


def test_blowup_guard(lat):
    with np.errstate(over="ignore", invalid="ignore"):
        huge = random_density_matrix(lat, 1, 22) * 1e308
        st = HierarchyState(
            lat, 2, {1: huge, 2: random_density_matrix(lat, 2, 23) * 1e308}
        )
        with pytest.raises(RuntimeError, match="non-finite"):
            evolve_truncated(st, 2, 1.0, HierarchyMode.deterministic(),
                             grid_times=(0.0, 1.0))


def test_matrix_cache_stays_within_nnz_budget(checked_store):
    # the cache holds deterministic matrices only, one per lattice, order
    # and term; a collision under a sign field applies the cached matrix,
    # the signs on its operand and product, and stores nothing
    sizes = [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (1, 4)]
    # a budget that holds the largest matrix, and not all of them
    budget = max(full_collision_matrix(FrequencyLattice(1, M), m).nnz
                 for M, m in sizes)
    cached = checked_store(dynamics, "_MATRIX_CACHE", budget)
    for M, m in sizes:
        lat = FrequencyLattice(1, M)
        mat = full_collision_matrix(lat, m)
        assert cached.total == sum(c.nnz for c in cached.values()) <= budget
        assert list(cached.values())[-1] is mat
        keys = list(cached.entries)
        f, g = sample_field(lat, 10 * M + m), random_density_matrix(lat, m, M)
        signed = full_collision(g, f)
        assert list(cached.entries) == keys
        assert np.array_equal(signed.data.reshape(-1), _signed_product(
            lat, mat, m, f, g.data.reshape(-1)))
    assert len(cached.entries) < len(sizes)
    # the full matrix is built in one pass: no per-term entries are cached
    assert all(len(key[3]) == 2 * (key[2] - 1) for key in cached.entries)


def test_table_store_stays_within_its_budget(checked_store):
    # every kind of lattice-only table, over three lattices and twice over,
    # through a store whose budget holds the largest table and not all of
    # them: each call returns the table an unbounded store holds
    lattices = [FrequencyLattice(1, 1), FrequencyLattice(1, 2), FrequencyLattice(2, 1)]
    tables = [
        lambda lat: dynamics._energy_split(lat, 2),
        dynamics._shift_table,
        lambda lat: tensor.odd_classes(lat, 2),
        nls._tables,
        lambda lat: collision_omega_operator_norm(lat, 1, 1, 1.0),
    ]
    calls = [(table, lat) for lat in lattices for table in tables]
    want = [table(lat) for table, lat in calls]
    store = checked_store(tensor, "_TABLES", max(map(tensor._seal, want)))

    def parts(value):
        return value if isinstance(value, (tuple, list)) else (value,)

    for _ in range(2):
        for (table, lat), ref in zip(calls, want):
            got = parts(table(lat))
            assert len(got) == len(parts(ref))
            assert all(np.array_equal(a, b) for a, b in zip(got, parts(ref)))
    assert 1 < len(store.entries) < len(store.used)
