import math
import tracemalloc

import numpy as np
import pytest

from gphier.cli import ExperimentConfig, run_experiment
from gphier.dynamics import power_collision
from gphier.lattice import FrequencyLattice
from gphier.tensor import MemoryGuardError
from gphier.nls import (
    factorized_residual,
    mass,
    nls_evolve,
    nls_nonlinearity,
    nls_rhs,
)


# the nonlinearity is checked on every dimension, at d=2 for M = 1 and 2
LATTICES = [(1, 8), (2, 1), (2, 2), (3, 1)]
LATTICE_IDS = [f"d{d}M{M}" for d, M in LATTICES]


@pytest.fixture
def lat():
    return FrequencyLattice(1, 8)


def sobolev_random(lat, seed, decay=2.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    phi = raw / lat.brackets**decay
    return phi / np.sqrt(mass(phi))


@pytest.mark.parametrize("d, M", LATTICES, ids=LATTICE_IDS)
def test_nonlinearity_direct_sum(d, M):
    lat = FrequencyLattice(d, M)
    phi = sobolev_random(lat, 0)
    out = nls_nonlinearity(phi, lat)
    # brute-force triple sum over a - b + c = xi, everything in the box
    brute = np.zeros(lat.size, dtype=complex)
    pts = lat.points
    for ia, a in enumerate(pts):
        for ib, b in enumerate(pts):
            for ic, c in enumerate(pts):
                out_freq = a - b + c
                if np.all(np.abs(out_freq) <= lat.M):
                    io = lat.index_of(out_freq)
                    brute[io] += phi[ia] * np.conj(phi[ib]) * phi[ic]
    assert np.max(np.abs(out - brute)) < 1e-13


def bincount_nonlinearity(phi, lat):
    """The convolution as two weighted bincounts over the flat pairs."""
    F = lat.size
    side = 4 * lat.M + 1
    sstrides = side ** np.arange(lat.d - 1, -1, -1)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(F), np.arange(F),
                                           indexing="ij"))
    pair_shift = (lat.points[a] - lat.points[b] + 2 * lat.M) @ sstrides
    prod = np.outer(phi, np.conj(phi)).ravel()
    nshift = side**lat.d
    w = np.bincount(pair_shift, weights=prod.real, minlength=nshift) \
        + 1j * np.bincount(pair_shift, weights=prod.imag, minlength=nshift)
    vals = w[pair_shift] * phi[b]
    return np.bincount(a, weights=vals.real, minlength=F) \
        + 1j * np.bincount(a, weights=vals.imag, minlength=F)


@pytest.mark.parametrize("d, M", LATTICES, ids=LATTICE_IDS)
def test_nonlinearity_bitwise_matches_bincount(d, M):
    # the gather tables add in the order of the bincount formula, so the
    # two agree to the last bit, not just to roundoff
    lat = FrequencyLattice(d, M)
    rng = np.random.default_rng(17)
    for _ in range(20):
        phi = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
        assert np.array_equal(nls_nonlinearity(phi, lat),
                              bincount_nonlinearity(phi, lat))


def test_zero_stays_zero(lat):
    traj = nls_evolve(np.zeros(lat.size), 0.1, 1e-3, lattice=lat)
    assert not np.any(traj.ip_coeffs)


def test_single_mode_closed_form(lat):
    phi = np.zeros(lat.size, dtype=complex)
    zidx = lat.index_of([3])
    phi[zidx] = 1.0
    traj = nls_evolve(phi, 1.0, 1e-3, lattice=lat)
    final = traj.phi_at(len(traj.times) - 1)
    exact = np.exp(-1j * (9.0 + 1.0) * 1.0)
    assert abs(final[zidx] - exact) < 1e-8
    assert np.max(np.abs(np.delete(final, zidx))) == 0.0


def test_mass_conservation(lat):
    phi = sobolev_random(lat, 1, decay=0.0)  # rough data, mass 1
    traj = nls_evolve(phi, 1.0, 1e-3, lattice=lat)
    drift = abs(mass(traj.phi_at(len(traj.times) - 1)) - 1.0)
    assert drift < 1e-8


def test_rk4_order(lat):
    phi = sobolev_random(lat, 2)
    T = 0.25
    ref = nls_evolve(phi, T, 1e-3 / 8, lattice=lat)
    refT = ref.phi_at(len(ref.times) - 1)

    def err(dt):
        tr = nls_evolve(phi, T, dt, lattice=lat)
        return np.linalg.norm(tr.phi_at(len(tr.times) - 1) - refT)

    ratio = err(1e-3) / err(5e-4)
    assert 12 < ratio < 20


@pytest.mark.parametrize("bad_call, step", [(1, 0), (10, 2)])
def test_evolve_refuses_non_finite(lat, monkeypatch, bad_call, step):
    # the nonlinearity turns inf from its bad_call-th call on, which falls in
    # RK4 step `step`; the error names the time that step ends at
    from gphier import nls

    calls = []
    real = nls.nls_nonlinearity

    def turning(phi_hat, lattice):
        calls.append(1)
        if len(calls) >= bad_call:
            return np.full(lattice.size, np.inf, dtype=np.complex128)
        return real(phi_hat, lattice)

    monkeypatch.setattr(nls, "nls_nonlinearity", turning)
    dt = 1e-3
    t_bad = step * dt + dt
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(RuntimeError,
                           match=rf"non-finite NLS coefficient at t={t_bad};"):
            nls_evolve(sobolev_random(lat, 12), 0.01, dt, lattice=lat)


def test_algebraic_residual(lat):
    phi = sobolev_random(lat, 3)
    traj = nls_evolve(phi, 0.2, 1e-3, lattice=lat)
    for k in (1, 2):
        r = factorized_residual(traj, k, [0.05, 0.15], alpha=1.0)[0]
        assert r < 1e-10


def test_single_mode_residual(lat):
    phi = np.zeros(lat.size, dtype=complex)
    phi[lat.index_of([2])] = 1.0
    traj = nls_evolve(phi, 0.2, 1e-3, lattice=lat)
    r = factorized_residual(traj, 1, [0.1], alpha=1.0)[0]
    assert r < 1e-10


def test_fd_residual(lat):
    phi = sobolev_random(lat, 4)
    traj = nls_evolve(phi, 0.5, 1e-3, lattice=lat)
    for k in (1, 2):
        r = factorized_residual(traj, k, [0.1, 0.25, 0.4], alpha=1.0)[1]
        assert r < 1e-6


def test_fd_requires_interior_step(lat):
    phi = sobolev_random(lat, 5)
    traj = nls_evolve(phi, 0.01, 1e-3, lattice=lat)
    with pytest.raises(ValueError, match="stencil"):
        factorized_residual(traj, 1, [0.0])


def test_fd_refuses_empty_grid(lat):
    # a residual over no grid time would be a vacuous (0.0, 0.0)
    traj = nls_evolve(sobolev_random(lat, 5), 0.01, 1e-3, lattice=lat)
    with pytest.raises(ValueError, match="grid_times is empty"):
        factorized_residual(traj, 1, [])


def test_negative_end_time_names_T(lat):
    with pytest.raises(ValueError, match="^T must be >= 0"):
        nls_evolve(sobolev_random(lat, 5), -0.01, 1e-3, lattice=lat)


def test_rhs_matches_single_mode_ode(lat):
    # i a' - |z|^2 a = |a|^2 a for a single occupied mode
    phi = np.zeros(lat.size, dtype=complex)
    i = lat.index_of([-4])
    phi[i] = 0.3 + 0.4j
    out = nls_rhs(phi, lat)
    expected = -1j * (16.0 * phi[i] + abs(phi[i]) ** 2 * phi[i])
    assert out[i] == pytest.approx(expected, rel=1e-14)
    assert np.max(np.abs(np.delete(out, i))) == 0.0


def test_time_grid_alignment(lat):
    phi = sobolev_random(lat, 6)
    traj = nls_evolve(phi, 0.1, 1e-3, lattice=lat)
    with pytest.raises(ValueError, match="step grid"):
        traj.step_of(0.0505)
    assert traj.step_of(0.05) == 50


def test_factorized_residual_keeps_nan(lat, monkeypatch):
    # a NaN residual norm must reach the result, not vanish in a max() fold
    from gphier import nls

    traj = nls_evolve(sobolev_random(lat, 8), 0.01, 1e-3, lattice=lat)
    monkeypatch.setattr(nls, "h_alpha_norm", lambda gamma, alpha: math.nan)
    alg, fd = factorized_residual(traj, 1, [0.005])
    assert math.isnan(alg) and math.isnan(fd)


def test_product_rule_rate_checks_guard(lat, monkeypatch):
    # the 2k dense order-k terms are refused before any is built
    from gphier import nls, tensor

    phi = sobolev_random(lat, 11)
    monkeypatch.setattr(tensor, "MEMORY_GUARD", lat.size**4 - 1)
    with pytest.raises(MemoryGuardError, match="order-2"):
        nls._product_rule_rate(phi, phi, 2, lat)


def test_factorized_residual_one_collision_per_time(lat, monkeypatch):
    # both derivatives are measured against one collision of the order-(k+1)
    # tensor power per grid time
    from gphier import nls

    calls = []

    def counting(phi, m, lattice):
        calls.append(m)
        return power_collision(phi, m, lattice)

    monkeypatch.setattr(nls, "power_collision", counting)
    traj = nls_evolve(sobolev_random(lat, 9), 0.05, 1e-3, lattice=lat)
    times = [0.01, 0.02, 0.03, 0.04]
    for k in (1, 2):
        calls.clear()
        factorized_residual(traj, k, times)
        assert calls == [k + 1] * len(times)


def test_factorized_residual_never_holds_top_tensor(monkeypatch):
    # on the gather path the order-3 tensor power is streamed into the
    # collision from its two half-power factors: peak traced memory stays
    # well below one order-3 tensor (the whole shift buffer would be 13/49
    # of one, and the kernel holds one F-th of it at a time)
    from gphier import dynamics

    small = FrequencyLattice(1, 3)
    traj = nls_evolve(sobolev_random(small, 10), 0.02, 1e-3, lattice=small)
    times = [0.005, 0.01, 0.015]
    monkeypatch.setattr(dynamics, "MATRIX_DOMAIN_CAP", 1)
    factorized_residual(traj, 2, times)  # warm the index and energy tables
    top_bytes = small.size**6 * 16
    tracemalloc.start()
    try:
        factorized_residual(traj, 2, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * top_bytes, peak / top_bytes


def test_fd_residual_k2_seed_102095334():
    # the nls-factorized job of seed 102095334: criterion 10's config at
    # that seed.  Differenced on the dt trajectory, RK4's O(dt^4) error put
    # its k=2 finite-difference residual at 1.2693e-6; on the dt/2
    # trajectory stored every dt it passes the same 1e-6 threshold
    rep = run_experiment(ExperimentConfig(kind="nls", M=8, T=0.5, dt=1e-3,
                                          seed=102095334))
    (check,) = [c for c in rep.checks if c["name"] == "nls.fd_residual_k2"]
    assert check["threshold"] == 1e-6
    assert check["passed"], check["measured"]
    assert rep.passed
