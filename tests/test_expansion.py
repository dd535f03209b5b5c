import itertools

import numpy as np
import pytest

from gphier.lattice import FrequencyLattice
from gphier.tensor import (
    DensityMatrix,
    HierarchyState,
    h_alpha_norm,
    random_density_matrix,
)
from gphier.expansion import (
    OperatorChainSpec,
    direct_composition,
    evaluate_expansion,
    example1_chain,
    expand_chain,
    expand_difference,
    expansion_debug_obj,
    f_bound_constant,
    nonresonant_check,
    nonresonant_sample,
)
from gphier.randomization import enumerate_fields


@pytest.fixture
def lat():
    return FrequencyLattice(1, 1)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        OperatorChainSpec(k=1, steps=((1, 1, "+"),), times=(0.0,))
    with pytest.raises(ValueError):
        # second applied step acts on order k+j = 2, so n <= 2
        OperatorChainSpec(k=1, steps=((1, 2, "+"), (1, 3, "+")),
                          times=(0.0, 0.0))
    with pytest.raises(ValueError):
        OperatorChainSpec(k=1, steps=((1, 2, "x"),), times=(0.0,))
    with pytest.raises(ValueError):
        OperatorChainSpec(k=1, steps=((1, 2, "+"),), times=(0.0, 0.0))


def test_single_collision_expansion(lat):
    # one plus collision: A = {xi_1}, h factors h(xi_1) h(xi_1 - a + b) h(a) h(b)
    spec = OperatorChainSpec(k=1, steps=((1, 2, "+"),), times=(0.0,))
    exp = expand_chain(spec)
    assert exp.A == {1} and exp.B == set()
    assert len(exp.h_factors) == 4
    names = exp.atom_names
    first = {names[i]: c for i, c in enumerate(exp.h_factors[0]) if c}
    comb = {names[i]: c for i, c in enumerate(exp.h_factors[1]) if c}
    assert first == {"u1": 1}
    assert comb == {"u1": 1, "a1": -1, "b1": 1}


def test_example1_bookkeeping():
    exp = expand_chain(example1_chain())
    assert exp.A == {1}
    assert exp.B == {2}
    assert exp.A_decomp[1] == {"eta1": 1, "eta2": 1, "eta3": 1,
                               "etap2": -1, "etap3": -1}
    assert exp.B_decomp[2] == {"eta5": -1, "etap4": 1, "etap5": 1}
    assert len(exp.h_factors) == 10
    diff = expand_difference(example1_chain())
    assert diff.nu == {"eta2": 1}
    assert diff.nu_prime == {"eta3": -1, "etap2": 1, "etap3": 1}


def test_symbol_partition_structure():
    # symbols in the decompositions never appear among untouched outputs
    exp = expand_chain(example1_chain())
    m = exp.k + exp.j + 1
    sym_names = [f"eta{r}" for r in range(1, m + 1)] + \
        [f"etap{r}" for r in range(1, m + 1)]
    untouched = []
    for s, e in zip(sym_names, exp.eta_unprimed + exp.eta_primed):
        nz = [i for i, c in enumerate(e) if c]
        if len(nz) == 1 and abs(e[nz[0]]) == 1 and nz[0] < 2 * exp.k:
            untouched.append(s)
    used = set()
    for dec in list(exp.A_decomp.values()) + list(exp.B_decomp.values()):
        used |= set(dec)
    assert set(untouched).isdisjoint(used)


def test_example1_equals_composition(lat):
    spec = example1_chain(t=0.21)
    exp = expand_chain(spec)
    sigma = random_density_matrix(lat, 5, 0)
    for f in enumerate_fields(lat):
        ev = evaluate_expansion(exp, sigma, f)
        ref = direct_composition(spec, sigma, f)
        rel = h_alpha_norm(ev - ref, 0.0) / h_alpha_norm(ref, 0.0)
        assert rel < 1e-10


def test_difference_equals_composition(lat):
    spec = example1_chain(t=0.21)
    diff = expand_difference(spec)
    sigma = random_density_matrix(lat, 5, 1)
    for f in enumerate_fields(lat):
        for delta in (0.0, 0.1):
            ev = evaluate_expansion(diff, sigma, f, delta=delta)
            ref = direct_composition(spec, sigma, f, delta=delta)
            scale = h_alpha_norm(ref, 0.0) if delta else 1.0
            assert h_alpha_norm(ev - ref, 0.0) / max(scale, 1e-30) < 1e-10


CHAINS = [
    OperatorChainSpec(k=1, steps=((1, 2, "+"),), times=(0.3,)),
    OperatorChainSpec(k=1, steps=((1, 3, "-"), (1, 2, "+")), times=(0.2, 0.05)),
    OperatorChainSpec(k=1, steps=((2, 3, "+"), (1, 2, "-")), times=(0.2, 0.0)),
    OperatorChainSpec(k=2, steps=((1, 4, "+"), (2, 3, "-"), (1, 2, "+")),
                      times=(0.15, 0.1, 0.0)),
    OperatorChainSpec(k=2, steps=((3, 4, "-"), (2, 3, "+"), (1, 2, "-")),
                      times=(0.15, 0.06, 0.01)),
    # repeated slot: the second collision rewrites an already-combined slot
    OperatorChainSpec(k=1, steps=((1, 2, "+"), (1, 2, "+")), times=(0.1, 0.02)),
]


@pytest.mark.parametrize("spec", CHAINS)
def test_expansion_soundness_battery(lat, spec):
    sigma = random_density_matrix(lat, spec.k + spec.j + 1, 7)
    for f in enumerate_fields(lat):
        ev = evaluate_expansion(expand_chain(spec), sigma, f)
        ref = direct_composition(spec, sigma, f)
        rel = h_alpha_norm(ev - ref, 0.0) / max(h_alpha_norm(ref, 0.0), 1e-30)
        assert rel < 1e-10


@pytest.mark.parametrize("spec", [c for c in CHAINS if c.j >= 1])
def test_difference_soundness_battery(lat, spec):
    sigma = random_density_matrix(lat, spec.k + spec.j + 1, 8)
    diff = expand_difference(spec)
    for fi, f in enumerate(enumerate_fields(lat)):
        delta = 0.07
        ev = evaluate_expansion(diff, sigma, f, delta=delta)
        ref = direct_composition(spec, sigma, f, delta=delta)
        rel = h_alpha_norm(ev - ref, 0.0) / max(h_alpha_norm(ref, 0.0), 1e-30)
        assert rel < 1e-10


def test_all_sign_patterns_depth_two(lat):
    sigma = random_density_matrix(lat, 3, 9)
    fields = enumerate_fields(lat)
    for s1, s2 in itertools.product("+-", repeat=2):
        spec = OperatorChainSpec(k=1, steps=((1, 3, s1), (1, 2, s2)),
                                 times=(0.11, 0.04))
        exp = expand_chain(spec)
        for f in fields[:4]:
            ev = evaluate_expansion(exp, sigma, f)
            ref = direct_composition(spec, sigma, f)
            assert h_alpha_norm(ev - ref, 0.0) \
                / max(h_alpha_norm(ref, 0.0), 1e-30) < 1e-10


def test_zero_sigma(lat):
    spec = example1_chain()
    out = evaluate_expansion(expand_chain(spec), DensityMatrix.zeros(lat, 5),
                             enumerate_fields(lat)[3])
    assert not np.any(out.data)


def test_difference_slot_restriction():
    with pytest.raises(ValueError):
        expand_difference(OperatorChainSpec(k=1, steps=((1, 2, "+"),),
                                            times=(0.0,)))


def test_f_bound(lat):
    diff = expand_difference(example1_chain())
    c3, fmax = f_bound_constant(diff, lat)
    assert c3 >= 1.0
    m = diff.k + diff.j + 1
    # spot check: |F| <= C3^(k+j+1) * sum of squared symbol values holds
    assert fmax <= c3**m * (2 * m) * (lat.M**2 * lat.d) + 1e-9


def test_debug_dump_roundtrips_to_json(lat):
    import json

    obj = expansion_debug_obj(expand_difference(example1_chain()))
    text = json.dumps(obj)
    back = json.loads(text)
    assert back["A"] == [1] and back["B"] == [2]
    assert back["nu"] == {"eta2": 1}


def test_nonresonant_check_examples():
    lat = FrequencyLattice(1, 10)
    g = DensityMatrix.from_coo(
        lat, 2,
        np.array([[lat.index_of([5]), lat.index_of([3]),
                   lat.index_of([2]), lat.index_of([1])]]),
        np.array([1.0 + 0j]),
    )
    assert nonresonant_check(HierarchyState(lat, 2, {2: g})).passed
    bad = DensityMatrix.from_coo(
        lat, 2,
        np.array([[lat.index_of([2]), lat.index_of([3]),
                   lat.index_of([1]), lat.index_of([0])]]),
        np.array([1.0 + 0j]),
    )
    res = nonresonant_check(HierarchyState(lat, 2, {2: bad}))
    assert not res.passed
    assert res.witness == ((2,), (3,), (1,), (0,))
    empty = HierarchyState(lat, 3, {})
    assert nonresonant_check(empty).passed


def test_nonresonant_sampler_roundtrip():
    lat = FrequencyLattice(1, 10)
    for seed in range(10):
        st = nonresonant_sample(lat, 3, seed)
        rep = nonresonant_check(st)
        assert rep.passed
        assert rep.c1 <= 1.0


def test_nonresonant_sampler_too_small():
    lat = FrequencyLattice(1, 2)
    with pytest.raises(ValueError, match="shells"):
        nonresonant_sample(lat, 3, 0)


def test_nonresonant_scaling():
    lat = FrequencyLattice(1, 10)
    st = nonresonant_sample(lat, 2, 3)
    scaled = HierarchyState(
        lat, 2, {k: 0.25**k * st.level(k) for k in (1, 2)}
    )
    rep = nonresonant_check(scaled)
    assert rep.passed
    assert rep.c1 <= 0.25 * 1.0 + 1e-12
