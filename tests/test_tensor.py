import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as hst

from gphier.lattice import FrequencyLattice, LatticeError
from gphier.tensor import (
    DensityMatrix,
    HierarchyState,
    MemoryGuardError,
    Store,
    data_classes,
    factorized,
    h_alpha_norm,
    odd_classes,
    project,
    random_density_matrix,
    random_state,
    sobolev_apply,
)


@pytest.fixture
def lat():
    return FrequencyLattice(1, 2)


def unit_at(lat, k, unprimed, primed):
    g = DensityMatrix.zeros(lat, k)
    idx = [int(lat.index_of([c] if np.isscalar(c) else c)) for c in unprimed + primed]
    g.data[tuple(idx)] = 1.0
    return g


def test_sobolev_zero_is_identity(lat):
    g = random_density_matrix(lat, 2, 0)
    out = sobolev_apply(g, 0.0)
    assert np.array_equal(out.data, g.data)


def test_sobolev_unit_coefficient(lat):
    g = unit_at(lat, 1, [1], [2])
    out = sobolev_apply(g, 1.0)
    i, j = lat.index_of([1]), lat.index_of([2])
    assert out.data[i, j] == pytest.approx(np.sqrt(2) * np.sqrt(5))


def test_sobolev_inverse(lat):
    g = random_density_matrix(lat, 2, 1)
    back = sobolev_apply(sobolev_apply(g, 1.3), -1.3)
    rel = h_alpha_norm(back - g, 0.0) / h_alpha_norm(g, 0.0)
    assert rel < 1e-14


def test_h_alpha_norm_values(lat):
    assert h_alpha_norm(DensityMatrix.zeros(lat, 1), 1.0) == 0.0
    g = unit_at(lat, 1, [1], [2])
    assert h_alpha_norm(g, 1.0) == pytest.approx(np.sqrt(10), abs=1e-12)
    # alpha = 0 equals the plain l2 sum, against a direct-summation oracle
    r = random_density_matrix(lat, 2, 2)
    direct = np.sqrt(np.sum(np.abs(r.data) ** 2))
    assert h_alpha_norm(r, 0.0) == pytest.approx(direct, rel=1e-13)


def _tensordot_norm(gamma, alpha):
    """The H^alpha norm by a tensordot per slot: the reference chain."""
    w2 = gamma.lattice.brackets ** (2.0 * alpha)
    acc = np.abs(gamma.data) ** 2
    for _ in range(2 * gamma.k):
        acc = np.tensordot(acc, w2, axes=([acc.ndim - 1], [0]))
    return float(np.sqrt(acc))


@pytest.mark.parametrize("d, M, k_max", [(1, 1, 4), (1, 3, 3), (1, 8, 2), (2, 1, 3)])
def test_h_alpha_norm_is_the_tensordot_chain(d, M, k_max):
    # one matrix-vector product per slot gives the tensordot chain's bits,
    # and a NaN or inf coefficient still gives a non-finite norm
    lat = FrequencyLattice(d, M)
    for k in range(1, k_max + 1):
        g = random_density_matrix(lat, k, 10 * k + M)
        for alpha in (0.0, 0.5, 1.0):
            assert h_alpha_norm(g, alpha) == _tensordot_norm(g, alpha)
        for bad in (np.nan, np.inf):
            data = g.data.copy()
            data.reshape(-1)[data.size // 3] = bad
            assert not np.isfinite(h_alpha_norm(DensityMatrix(lat, k, "dense", data=data), 1.0))


def test_norm_monotone_in_alpha(lat):
    r = random_density_matrix(lat, 2, 3)
    n0, n1, n2 = (h_alpha_norm(r, a) for a in (0.0, 0.7, 1.5))
    assert n0 <= n1 <= n2


def test_project(lat):
    st = random_state(lat, 3, 8)
    none = project(st, 0, "leq")
    assert all(none.level(k) is None for k in (1, 2, 3))
    assert project(st, 5, "leq").levels.keys() == st.levels.keys()
    low, high = project(st, 2, "leq"), project(st, 2, "gt")
    for k in (1, 2, 3):
        got = low.level(k) if k <= 2 else high.level(k)
        assert np.array_equal(got.data, st.level(k).data)
    again = project(project(st, 2, "leq"), 2, "leq")
    assert again.levels.keys() == low.levels.keys()


def test_factorized(lat):
    phi = np.zeros(lat.size, dtype=complex)
    phi[lat.index_of([1])] = 1.0
    g = factorized(phi, 2, lat)
    i = lat.index_of([1])
    assert g.data[i, i, i, i] == 1.0
    assert np.count_nonzero(g.data) == 1
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    n1 = h_alpha_norm(factorized(psi, 1, lat), 0.8)
    n3 = h_alpha_norm(factorized(psi, 3, lat), 0.8)
    assert n3 == pytest.approx(n1**3, rel=1e-12)
    zero = factorized(np.zeros(lat.size), 2, lat)
    assert h_alpha_norm(zero, 0.0) == 0.0


def test_memory_guard(lat, monkeypatch):
    from gphier import tensor

    monkeypatch.setattr(tensor, "MEMORY_GUARD", 10)
    with pytest.raises(MemoryGuardError):
        DensityMatrix.zeros(lat, 4)
    monkeypatch.setattr(tensor, "MEMORY_GUARD", 100)
    with pytest.raises(MemoryGuardError):
        factorized(np.zeros(lat.size), 3, lat)


def test_dense_sparse_roundtrip(lat):
    g = random_density_matrix(lat, 2, 9)
    back = g.to_coo().to_dense()
    assert np.array_equal(back.data, g.data)


@settings(max_examples=40, deadline=None, database=None)
@given(shape=hst.sampled_from([(1, 1, 1), (1, 2, 1), (1, 1, 2), (1, 2, 2),
                               (2, 1, 1)]), data=hst.data())
def test_dense_coo_round_trip_on_sparse_draws(shape, data):
    # a random sparse set of nonzero entries survives COO -> dense -> COO
    # exactly; to_coo lists the entries in row-major order
    d, M, k = shape
    lat = FrequencyLattice(d, M)
    dims = (lat.size,) * (2 * k)
    flat = np.array(data.draw(hst.lists(hst.integers(0, lat.size ** (2 * k) - 1),
                                        max_size=12, unique=True), label="flat"),
                    dtype=np.int64)
    vals = np.array(data.draw(hst.lists(
        hst.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False),
        min_size=flat.size, max_size=flat.size), label="vals"), dtype=np.complex128)
    idx = np.stack(np.unravel_index(flat, dims), axis=1).reshape(-1, 2 * k)
    g = DensityMatrix.from_coo(lat, k, idx, vals)
    dense = g.to_dense()
    assert np.count_nonzero(dense.data) == flat.size
    back = dense.to_coo()
    order = np.argsort(flat)
    assert np.array_equal(back.indices, idx[order])
    assert np.array_equal(back.values, vals[order])
    assert np.array_equal(back.to_dense().data, dense.data)


@pytest.mark.parametrize("d,M,k", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1)])
def test_odd_classes_match_slot_parities(d, M, k):
    # two indices share a class exactly when every lattice point sits in
    # their 2k slots with the same parity
    lat = FrequencyLattice(d, M)
    labels, n = odd_classes(lat, k)
    parity = {}
    for flat, slots in enumerate(itertools.product(range(lat.size),
                                                   repeat=2 * k)):
        odd = frozenset(p for p in slots if slots.count(p) % 2)
        assert parity.setdefault(odd, labels[flat]) == labels[flat]
    assert len(parity) == n and set(parity.values()) == set(range(n))


def test_odd_classes_refuse_wide_lattices():
    # the int64 masks hold 62 points: F = 61 is the widest d=1 lattice
    assert odd_classes(FrequencyLattice(1, 30), 1)[1] == 1 + 61 * 60 // 2
    with pytest.raises(MemoryGuardError, match=r"^M: .*F = \(2M\+1\)\^d = 63"):
        odd_classes(FrequencyLattice(1, 31), 1)
    with pytest.raises(MemoryGuardError, match=r"^d: .*F = \(2M\+1\)\^d = 81"):
        odd_classes(FrequencyLattice(2, 4), 1)


def test_data_classes_hold_the_nonzero_coefficients():
    # the classes of a dense and a COO level are the masks of their nonzero
    # coefficients, sorted and shared across levels; an unread level, an
    # explicit COO zero and a vanishing level add none
    lat = FrequencyLattice(1, 1)
    st = random_state(lat, 3, 21)
    st = st.with_levels({1: st.level(1), 2: st.level(2).to_coo(),
                         3: st.level(3)})

    def mask(row):
        return sum(1 << p for p in set(row) if row.count(p) % 2)

    held = {mask(row.tolist()) for k in (2, 3)
            for row in st.level(k).to_coo().indices}
    got = data_classes(st, [2, 3])
    assert got.dtype == np.int64
    assert got.tolist() == sorted(held) and len(held) == 4
    # level 1 holds class {0, 1} alone; level 2 holds {} and {0, 2}, and
    # {1, 2} only at a stored zero; level 3 vanishes
    sparse = HierarchyState(lat, 3, {
        1: DensityMatrix.from_coo(lat, 1, [[0, 1]], [1.0]),
        2: DensityMatrix.from_coo(lat, 2, [[0, 0, 0, 0], [0, 2, 1, 1],
                                           [1, 2, 0, 0]], [1.0, 2j, 0.0]),
        3: DensityMatrix.zeros(lat, 3)})
    assert data_classes(sparse, [2, 3]).tolist() == [0b000, 0b101]
    assert data_classes(sparse, [1, 2]).tolist() == [0b000, 0b011, 0b101]
    assert data_classes(sparse, [3]).size == 0
    assert data_classes(st.with_levels({1: st.level(1)}), [2, 3]).size == 0


def test_from_coo_rejects_bad_indices(lat):
    ok = DensityMatrix.from_coo(lat, 1, [[1, 0], [0, 1]], [1.0, 2.0j])
    assert ok.to_dense().data[0, 1] == 2.0j
    with pytest.raises(ValueError, match="duplicate"):
        DensityMatrix.from_coo(lat, 1, [[1, 0], [1, 0]], [1.0, 2.0])
    with pytest.raises(LatticeError, match="outside"):
        DensityMatrix.from_coo(lat, 1, [[lat.size, 0]], [1.0])
    with pytest.raises(LatticeError, match="outside"):
        DensityMatrix.from_coo(lat, 1, [[0, -1]], [1.0])


def test_state_level_validation(lat):
    g = random_density_matrix(lat, 2, 13)
    with pytest.raises(ValueError):
        HierarchyState(lat, 3, {1: g})  # order mismatch
    other = FrequencyLattice(1, 1)
    with pytest.raises(ValueError):
        HierarchyState(other, 3, {2: g})  # lattice mismatch


def test_store_keeps_the_most_recent_within_its_budget():
    # stored entries: an array's size, a sparse matrix's nnz, summed over a
    # tuple or list, 1 for a number
    store = Store(10)

    def never():
        raise AssertionError("a hit builds nothing")

    a = store.get("a", lambda: np.zeros(4))
    b = store.get("b", lambda: (np.zeros(3), 2.0))
    assert store.total == 8 and list(store.entries) == ["a", "b"]
    assert store.get("a", never) is a
    assert list(store.entries) == ["b", "a"]
    # 3 more entries exceed the budget: the least recently used goes first
    c = store.get("c", lambda: sp.csr_matrix(np.eye(3)))
    assert list(store.entries) == ["a", "c"] and store.total == 7
    # an entry above the budget alone is kept, never the new one dropped
    big = store.get("big", lambda: [np.zeros(6), np.zeros(6)])
    assert list(store.entries) == ["big"] and store.total == 12
    assert store.get("a", lambda: np.ones(4)).sum() == 4
    assert list(store.entries) == ["a"] and store.total == 4
    for arr in (a, b[0], c.data, c.indices, c.indptr, big[1]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
