"""Galerkin cubic defocusing NLS on the lattice, and factorized-state checks.

The nonlinearity is the lattice-truncated double convolution: the
coefficient at xi sums phi(a) conj(phi(b)) phi(c) over a - b + c = xi
with a, b, c, xi all inside the box, the same in-box rule the hierarchy
collision sums use.  Pure tensor powers of an NLS solution then solve
the deterministic hierarchy exactly, level by level.

The convolution is table driven.  `_tables` lists, for each shift s,
the flat pairs (a, b) with a - b = s, padded with a zero slot, and the
shift out - in of each (in, out) pair.  One call gathers phi(a) conj(phi(b))
by the first table and sums over its rows into w(s), then gathers
w(out - in) phi(in) by the second and sums over in.  Each sum runs over
axis 0 in increasing pair order, so it adds in the same order as a
weighted bincount over the flat pairs would.

`_tables` builds the same shift table as `dynamics._shift_table` and
stays separate on purpose: the NLS side is the independent half of the
factorized check, so it shares no collision code with the hierarchy it
is checked against.

`factorized_residual` checks that: at each grid time it applies the
hierarchy's generic full collision to the order-(k+1) tensor power once
(`dynamics.power_collision`, which above the matrix cap streams the power
from its two half-power factors instead of building it), and measures the
defect against two time derivatives of the order-k power, one by the
product rule and one by finite differences.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor
from .dynamics import free_evolve, level_energy, power_collision
from .tensor import DensityMatrix, _check_guard, factorized, h_alpha_norm

__all__ = [
    "NlsTrajectory",
    "nls_nonlinearity",
    "nls_rhs",
    "nls_evolve",
    "mass",
    "factorized_residual",
]


def _tables(lattice):
    """Gather tables of the in-box double convolution.

    Pair (a, b) is flattened as a F + b and has the shift a - b, indexed
    on the box of side 4M+1.  Returns:

    - pair_at (P, S): column s lists the flat pairs with shift s in
      increasing order, padded with F^2, the index of a zero slot;
    - shift_in_out (F, F): row in, column out holds the shift out - in.
    """
    def build():
        F = lattice.size
        side = 4 * lattice.M + 1
        sstrides = side ** np.arange(lattice.d - 1, -1, -1, dtype=np.int64)
        pts = lattice.points
        shift = (pts[:, None, :] - pts[None, :, :] + 2 * lattice.M) @ sstrides
        pair_shift = shift.ravel()
        order = np.argsort(pair_shift, kind="stable")
        counts = np.bincount(pair_shift, minlength=side**lattice.d)
        starts = np.cumsum(counts) - counts
        rank = np.arange(F * F) - np.repeat(starts, counts)
        pair_at = np.full((counts.max(), counts.size), F * F, dtype=np.intp)
        pair_at[rank, pair_shift[order]] = order
        return pair_at, np.ascontiguousarray(shift.T)

    return tensor._TABLES.get(("nls", lattice.d, lattice.M), build)


def nls_nonlinearity(phi_hat, lattice):
    """Coefficients of |phi|^2 phi under the in-box truncation."""
    pair_at, shift_in_out = _tables(lattice)
    F = lattice.size
    prod = np.empty(F * F + 1, dtype=np.complex128)
    np.multiply.outer(phi_hat, np.conj(phi_hat), out=prod[:-1].reshape(F, F))
    prod[-1] = 0.0
    w = np.add.reduce(prod[pair_at], axis=0)
    return np.add.reduce(w[shift_in_out] * phi_hat[:, None], axis=0)


def nls_rhs(phi_hat, lattice):
    """d phi / dt from i phi' + Laplacian phi = |phi|^2 phi.

    The coupling is 1: only then do the pure tensor powers of a solution
    solve the hierarchy, whose collision carries no coupling constant.
    """
    return -1j * (lattice.energies * phi_hat + nls_nonlinearity(phi_hat, lattice))


@dataclass
class NlsTrajectory:
    """Full step history; ip_coeffs holds the interaction-picture variables."""

    lattice: object
    times: np.ndarray
    ip_coeffs: np.ndarray  # (n_steps+1, F)
    dt: float

    def phi_at(self, step):
        t = self.times[step]
        return np.exp(-1j * t * self.lattice.energies) * self.ip_coeffs[step]

    def step_of(self, t):
        step = int(round(t / self.dt))
        if not (0 <= step < len(self.times)) or abs(self.times[step] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the step grid")
        return step


def nls_evolve(phi0, T, dt, lattice):
    """RK4 trajectory of `nls_rhs` in the interaction picture, storing every step.

    The dispersion phases are applied exactly; only the nonlinear term
    is stepped, so mass drift is O(dt^4) per unit time.  T must be a
    nonnegative integer multiple of dt.  A non-finite coefficient raises
    RuntimeError naming the end time of the first step that produced one.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    phi0 = np.asarray(phi0, dtype=np.complex128)
    e = lattice.energies.astype(np.float64)
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9:
        raise ValueError("T must be an integer multiple of dt")

    times = np.arange(nsteps + 1) * dt
    t = times[:-1, None]
    # the phases of the stage times t, t + dt/2, t + dt of every step
    ph = np.exp(-1j * np.stack([t, t + 0.5 * dt, t + dt], axis=1) * e)
    back = -1j * np.conj(ph)
    out = np.empty((nsteps + 1, lattice.size), dtype=np.complex128)
    out[0] = phi0
    b = phi0.copy()
    for n in range(nsteps):
        (p1, p2, p4), (c1, c2, c4) = ph[n], back[n]
        k1 = c1 * nls_nonlinearity(p1 * b, lattice)
        k2 = c2 * nls_nonlinearity(p2 * (b + 0.5 * dt * k1), lattice)
        k3 = c2 * nls_nonlinearity(p2 * (b + 0.5 * dt * k2), lattice)
        k4 = c4 * nls_nonlinearity(p4 * (b + dt * k3), lattice)
        b = b + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[n + 1] = b
    bad = ~np.all(np.isfinite(out[1:]), axis=1)
    if bad.any():
        n = int(np.argmax(bad))
        raise RuntimeError(
            f"non-finite NLS coefficient at t={times[n] + dt}; the defocusing "
            "Galerkin system is mass-bounded, so this indicates a bug"
        )
    return NlsTrajectory(lattice, times, out, dt)


def mass(phi_hat):
    return float(np.sum(np.abs(phi_hat) ** 2))


def _product_rule_rate(phi, dphi, k, lattice):
    """d/dt of the order-k pure tensor power, assembled term by term."""
    _check_guard(lattice, k)
    total = None
    for slot in range(2 * k):
        term = np.ones((), dtype=np.complex128)
        for ax in range(2 * k):
            f = dphi if ax == slot else phi
            term = np.multiply.outer(term, f if ax < k else np.conj(f))
        total = term if total is None else total + term
    return total


# 6th-order centered stencil on the interaction-picture tensors
_STENCIL = {-3: -1.0, -2: 9.0, -1: -45.0, 1: 45.0, 2: -9.0, 3: 1.0}


def factorized_residual(traj, k, grid_times, alpha=1.0):
    """Hierarchy defect of the pure tensor powers of an NLS trajectory.

    Measures, at each grid time, the H^alpha norm of
    i d/dt gamma^(k) + (|xi'|^2 - |xi|^2) gamma^(k) - B gamma^(k+1)
    for gamma^(k) the k-fold tensor power of phi(t), with d/dt taken two
    ways against one collision term.  Returns the worst norms over the
    grid as (product_rule, finite_difference).

    The product rule assembles d/dt gamma exactly from the equation's
    right-hand side (an algebraic identity: the residual is pure roundoff
    for any coefficient vector).  The finite difference differences the
    stored interaction-picture trajectory with a seven-point stencil, so
    its residual reflects the time resolution; every grid time must lie
    at least three steps inside the trajectory, and the grid must not be
    empty.

    B gamma^(k+1) is the generic full collision of the tensor power, once
    per grid time (`dynamics.power_collision`): bitwise the collision of
    the dense power, which above the matrix cap is never built, since the
    gather kernel forms its blocks from the two half-power factors.
    """
    if len(grid_times) == 0:
        raise ValueError("grid_times is empty: a residual over no time "
                         "would pass without checking anything")
    lat = traj.lattice
    n = len(traj.times) - 1
    steps = [traj.step_of(t) for t in grid_times]
    for step in steps:
        if not (3 <= step <= n - 3):
            raise ValueError(
                f"seven-point stencil needs 3 <= step <= {n - 3}, got {step}"
            )
    disp = -level_energy(lat, k).reshape((lat.size,) * (2 * k))
    alg, fd = [], []
    for t, step in zip(grid_times, steps):
        phi = traj.phi_at(step)
        coll = power_collision(phi, k + 1, lat).data
        dphi = nls_rhs(phi, lat)
        dgamma = _product_rule_rate(phi, dphi, k, lat)
        gamma = factorized(phi, k, lat)
        resid = 1j * dgamma + disp * gamma.data - coll
        alg.append(h_alpha_norm(DensityMatrix(lat, k, "dense", data=resid), alpha))
        d_ip = None
        for off, c in _STENCIL.items():
            snap = factorized(traj.ip_coeffs[step + off], k, lat).data
            d_ip = c * snap if d_ip is None else d_ip + c * snap
        d_ip = d_ip / (60.0 * traj.dt)
        d_ip_dm = DensityMatrix(lat, k, "dense", data=d_ip)
        resid = 1j * free_evolve(d_ip_dm, t).data - coll
        fd.append(h_alpha_norm(DensityMatrix(lat, k, "dense", data=resid), alpha))
    # np.max keeps a NaN that builtin max() would drop
    return (float(np.max(alg, initial=0.0)), float(np.max(fd, initial=0.0)))
