import functools

import numpy as np
import pytest

from gphier import randomization
from gphier.lattice import FrequencyLattice
from gphier.tensor import (DensityMatrix, MemoryGuardError, h_alpha_norm,
                           random_density_matrix)
from gphier.dynamics import HierarchyMode, collision, collision_matrix, sign_vector
from gphier.randomization import (
    SignField,
    all_plus,
    collision_omega_operator_norm,
    enumerate_fields,
    omega_l2_h_alpha,
    randomize_function,
    sample_field,
)


@pytest.fixture
def lat():
    return FrequencyLattice(1, 1)


def each(norm):
    """norms() that applies `norm` to every mode of the batch."""
    return lambda modes: [norm(md) for md in modes]


def difference_norm(gamma, field_of):
    """norms() of the (+) - (-) collision of gamma under the field of a mode."""
    return each(lambda md: h_alpha_norm(
        collision(gamma, 1, 2, "+", field_of(md))
        - collision(gamma, 1, 2, "-", field_of(md)), 1.0))


def test_sample_determinism(lat):
    a = sample_field(lat, 42, level=3, sample=5)
    b = sample_field(lat, 42, level=3, sample=5)
    assert np.array_equal(a.values, b.values)
    c = sample_field(lat, 42, level=4, sample=5)
    assert not np.array_equal(a.values, c.values) or lat.size < 4


def test_sample_is_pm_one(lat):
    f = sample_field(lat, 0)
    assert set(np.unique(f.values)) <= {-1, 1}
    with pytest.raises(ValueError):
        SignField(np.array([0, 1, 1], dtype=np.int8), "bad")


def test_empirical_mean_clt():
    lat = FrequencyLattice(1, 2)
    n = 100_000
    total = np.zeros(lat.size)
    for i in range(0, n, 1000):
        block = np.stack([
            sample_field(lat, 7, level=2, sample=i + s).values
            for s in range(1000)
        ])
        total += block.sum(axis=0)
    mean = total / n
    assert np.all(np.abs(mean) <= 4.0 / np.sqrt(n))


def test_all_plus(lat):
    f = all_plus(lat)
    assert np.all(f.values == 1)
    vec = np.arange(lat.size) + 1j
    assert np.array_equal(randomize_function(vec, f), vec)


def test_randomize_norm_and_involution(lat):
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    f = sample_field(lat, 2)
    out = randomize_function(vec, f)
    assert np.linalg.norm(out) == np.linalg.norm(vec)
    assert np.array_equal(randomize_function(out, f), vec)


def test_omega_constant_evaluator(lat):
    g = random_density_matrix(lat, 1, 3)
    est = omega_l2_h_alpha(each(lambda md: h_alpha_norm(g, 1.0)), "independent", lat,
                           [2])
    assert est.value == pytest.approx(h_alpha_norm(g, 1.0), rel=1e-13)
    mc = omega_l2_h_alpha(each(lambda md: h_alpha_norm(g, 1.0)), "independent", lat,
                          [2], mc_samples=16, seed=0)
    assert mc.stderr == pytest.approx(0.0, abs=1e-12)


def test_omega_sign_product_modulus(lat):
    # output c * h(a) h(b) h(c') h(d) on a fixed unit tensor: the averaged
    # norm is |c| because the sign product has modulus one
    base = DensityMatrix.zeros(lat, 1)
    base.data[0, 2] = 1.0
    c = 0.37 - 0.11j

    def norm(md):
        h = md.fields[2].values
        return h_alpha_norm((c * h[0] * h[1] * h[2] * h[0]) * base, 0.0)

    est = omega_l2_h_alpha(each(norm), "independent", lat, [2])
    assert est.value == pytest.approx(abs(c), rel=1e-13)


def test_omega_exact_vs_mc(lat):
    gamma = random_density_matrix(lat, 2, 4, alpha=1.0, norm=1.0)
    norms = difference_norm(gamma, lambda md: md.field)
    exact = omega_l2_h_alpha(norms, "dependent", lat, [0])
    assert exact.samples == 8
    mc = omega_l2_h_alpha(norms, "dependent", lat, [0], mc_samples=10_000, seed=5)
    assert abs(mc.value**2 - exact.value**2) <= 4.0 * mc.stderr


def test_enumeration_cap(lat):
    with pytest.raises(MemoryGuardError, match="cap"):
        omega_l2_h_alpha(each(lambda md: None), "independent", lat,
                         list(range(2, 12)))


def test_monte_carlo_cap(lat, monkeypatch):
    # more Monte Carlo points of Omega than the cap is refused before any
    # field is drawn or any mode built
    def no_draw(*args, **kwargs):
        raise AssertionError("a field was drawn before the guard")

    monkeypatch.setattr(randomization, "sample_field", no_draw)
    with pytest.raises(MemoryGuardError, match="^mc_samples: .* exceeds the cap 1048576"):
        omega_l2_h_alpha(each(lambda md: None), "dependent", lat, [0],
                         mc_samples=2_000_000)


def test_unused_level_seeds_do_not_matter(lat):
    gamma = random_density_matrix(lat, 2, 6)
    # level 3 never read
    norms = difference_norm(gamma, lambda md: md.fields[2])
    a = omega_l2_h_alpha(norms, "independent", lat, [2, 3], mc_samples=64, seed=9)
    b = omega_l2_h_alpha(norms, "independent", lat, [2, 3], mc_samples=64, seed=9)
    assert a.value == b.value


def test_operator_norm_majorizes(lat):
    sigma = collision_omega_operator_norm(lat, 1, 1, 1.0)
    worst = 0.0
    for trial in range(12):
        g = random_density_matrix(lat, 2, 50 + trial)
        est = omega_l2_h_alpha(difference_norm(g, lambda md: md.field),
                               "dependent", lat, [0])
        worst = max(worst, est.value / h_alpha_norm(g, 1.0))
    assert worst <= sigma * (1 + 1e-12)
    assert worst > 0.1 * sigma  # the bound is within reach of random data


@pytest.mark.parametrize("M, k, j, randomized", [
    (1, 1, 1, True), (1, 2, 1, True), (1, 2, 2, True), (1, 2, 1, False),
    (2, 1, 1, True),
], ids=["k1-all", "k2-all", "k2-j2-all", "k2-deterministic", "M2-k1-all"])
def test_operator_norm_matches_stacked_svd(M, k, j, randomized):
    # the largest singular value of the field-stacked map over every sign
    # field (800 x 625 at M=2), materialized here from the collision
    # matrices, each field's S_k(h) B S_(k+1)(h) and the H^alpha weights
    lat = FrequencyLattice(1, M)
    alpha = 0.5
    fields = enumerate_fields(lat) if randomized else [None]
    b = lat.brackets**alpha
    w_in = functools.reduce(np.multiply.outer, [b] * (2 * k + 2)).reshape(-1)
    w_out = functools.reduce(np.multiply.outer, [b] * (2 * k)).reshape(-1)
    pair = (collision_matrix(lat, k + 1, j, k + 1, "+")
            - collision_matrix(lat, k + 1, j, k + 1, "-")).toarray()

    def signs(f, order):
        return np.ones(lat.size ** (2 * order)) if f is None else \
            sign_vector(lat, f, order)

    stacked = np.vstack([
        signs(f, k)[:, None] * pair * signs(f, k + 1)[None, :]
        * w_out[:, None] / w_in[None, :] for f in fields]) / np.sqrt(len(fields))
    ref = np.linalg.svd(stacked, compute_uv=False)[0]
    sigma = collision_omega_operator_norm(lat, k, j, alpha, randomized)
    assert sigma == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("M, k", [(1, 2), (1, 3), (2, 2)])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("randomized", [True, False])
def test_operator_norm_is_slot_symmetric(M, k, alpha, randomized):
    # swapping slots j and 1 permutes the indices, keeping the product
    # H^alpha weights and the odd-multiplicity classes, so `gph decay`
    # takes one norm per order at j = 1.  At k = 1 there is one slot, and
    # d=2 at k = 2 exceeds NORM_DOMAIN_CAP
    lat = FrequencyLattice(1, M)
    norms = [collision_omega_operator_norm(lat, k, j, alpha, randomized)
             for j in range(1, k + 1)]
    assert norms == pytest.approx([norms[0]] * k, rel=1e-13, abs=0.0)


def test_deterministic_norm_bounds_instance(lat):
    g = random_density_matrix(lat, 2, 60)
    s = collision_omega_operator_norm(lat, 1, 1, 1.0, randomized=False)
    out = collision(g, 1, 2, "+") - collision(g, 1, 2, "-")
    assert h_alpha_norm(out, 1.0) <= s * h_alpha_norm(g, 1.0) * (1 + 1e-12)


def test_enumerate_fields_order(lat):
    fields = enumerate_fields(lat)
    assert len(fields) == 8
    assert np.array_equal(fields[0].values, [1, 1, 1])
    assert np.array_equal(fields[-1].values, [-1, -1, -1])


def test_omega_array_norms_match_scalar_averages(lat):
    # an array of norms averages bitwise like each of its entries alone
    gs = [random_density_matrix(lat, 2, seed) for seed in (70, 71, 72)]
    scalar = [difference_norm(g, lambda md: md.field) for g in gs]

    def stacked(modes):
        return np.array([norms(modes) for norms in scalar]).T

    for kw in ({}, {"mc_samples": 24, "seed": 4}):
        whole = omega_l2_h_alpha(stacked, "dependent", lat, [0], **kw)
        parts = [omega_l2_h_alpha(n, "dependent", lat, [0], **kw) for n in scalar]
        assert whole.value.tolist() == [p.value for p in parts]
        if kw:
            assert whole.stderr.tolist() == [p.stderr for p in parts]


def test_omega_redraws_only_random_levels(lat):
    seen = []

    def norms(modes):
        seen.extend(modes)
        return [1.0] * len(modes)

    # no field drawn: the deterministic mode, evaluated once
    assert omega_l2_h_alpha(norms, "deterministic", lat, [2, 3]).value == 1.0
    assert omega_l2_h_alpha(norms, "independent", lat, []).value == 1.0
    assert seen == [HierarchyMode.deterministic()] * 2
    seen.clear()
    # the dependent variant draws its one shared field, however many levels
    omega_l2_h_alpha(norms, "dependent", lat, [2, 3, 4])
    assert [md.field.values.tolist() for md in seen] == \
        [f.values.tolist() for f in enumerate_fields(lat)]
    seen.clear()
    # the independent variant draws a field on the levels given and no
    # other; Monte Carlo sample i draws level lv from sample_field(seed, lv, i)
    omega_l2_h_alpha(norms, "independent", lat, [2], mc_samples=3, seed=8)
    assert [list(md.fields) for md in seen] == [[2]] * 3
    assert [md.fields[2].values.tolist() for md in seen] == \
        [sample_field(lat, 8, level=2, sample=i).values.tolist() for i in range(3)]
