"""Iterated Duhamel terms, explicit truncated solutions, residual checks.

The free flow at level m is diagonal, with few distinct energies against
a large dimension.  With P_e the projection of level m onto its
coefficients of energy e, the depth-j term at level k is

    Duh_j^(k)(s) = (-i)^j sum_chain [P_{e_k} B_{k+1} P_{e_{k+1}} ...
                   B_{k+j} P_{e_{k+j}} gamma0] * I(e_k, ..., e_{k+j}; s)

with I the j-fold simplex integral of the phases.  It is evaluated in two
halves.  The vector half applies each collision matrix once, to a block
whose columns are the energy chains below it.  The scalar half runs the
recursive tensor-product Gauss-Legendre rule (cost q^j) on (time node x
chain suffix) arrays of scalars.  The method uses no generator and no
matrix exponential, so it stays an independent construction from
`dynamics.evolve_truncated`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import full_collision_matrix, level_energy
from .randomization import omega_l2_h_alpha
from .tensor import DensityMatrix, MemoryGuardError, h_alpha_norm

__all__ = [
    "QuadratureSpec",
    "DuhamelEvaluator",
    "integral_residual",
    "simplex_check",
    "decay_profile",
    "cauchy_diagnostic",
    "solution_time_modulus",
]

CHAIN_CAP = 2**22  # complex elements per chain-block or scalar-array chunk

_BUCKETS = {}  # (d, M, m) -> energy buckets of level m; see _buckets


@functools.lru_cache(maxsize=None)
def _leggauss(q):
    x, w = np.polynomial.legendre.leggauss(q)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _buckets(lattice, m):
    """(distinct energies, bucket of each coefficient, rows per bucket)."""
    key = (lattice.d, lattice.M, m)
    if key not in _BUCKETS:
        vals, inv = np.unique(level_energy(lattice, m), return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(vals.size + 1))
        rows = [order[bounds[e]:bounds[e + 1]] for e in range(vals.size)]
        _BUCKETS[key] = (vals, inv, rows)
    return _BUCKETS[key]


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre order per nesting level."""

    q: int = 12

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("quadrature order must be >= 2")

    def nodes(self):
        return _leggauss(self.q)


class DuhamelEvaluator:
    """Energy-chain evaluator of Duhamel terms for one initial state and mode.

    Caches, per hierarchy level m: the flattened initial coefficients,
    the (possibly randomized) full collision matrix B_m, its per-energy
    column slices B_m P_e stacked into one matrix, and the leaf block of
    columns B_m P_e gamma0^(m).  A term of depth j starts from the leaf
    block of level k+j and walks up to level k.  At each level the chain
    block (the vector half) takes one product with the stacked slices,
    and the scalar functions of the chain suffixes (the scalar half) take
    one nested Gauss-Legendre step; the two are contracted row by row at
    level k.  Both are chunked over chain columns, never over times, so
    each array stays within `CHAIN_CAP` complex elements.
    """

    def __init__(self, state0, mode, quad=None):
        self.state = state0
        self.mode = mode
        self.quad = quad if quad is not None else QuadratureSpec()
        self.lattice = state0.lattice
        self._gamma = {}
        self._mats = {}
        self._splits = {}
        self._leaves = {}
        self._gl = self.quad.nodes()

    def _gamma_flat(self, m):
        if m not in self._gamma:
            g = self.state.level(m)
            self._gamma[m] = None if g is None else g.to_dense().data.reshape(-1)
        return self._gamma[m]

    def _mat(self, m):
        if m not in self._mats:
            self._mats[m] = full_collision_matrix(
                self.lattice, m, self.mode.field_for_level(m)
            )
        return self._mats[m]

    def _split(self, m, lo, hi):
        """B_m P_e for the energy buckets lo <= e < hi, stacked row-wise.

        Row r (hi - lo) + (e - lo) is row r of B_m restricted to the columns
        of bucket e, so `(split @ W).reshape(dim_(m-1), -1)` is the chain
        block with e as its new leading chain index.
        """
        vals, inv, _ = _buckets(self.lattice, m)
        full = (lo, hi) == (0, vals.size)
        if full and m in self._splits:
            return self._splits[m]
        B = self._mat(m)
        bucket = inv[B.indices]
        new_row = (hi - lo) * np.repeat(np.arange(B.shape[0]), np.diff(B.indptr)) \
            + bucket - lo
        order = np.argsort(new_row, kind="stable")
        if not full:
            order = order[(bucket[order] >= lo) & (bucket[order] < hi)]
        shape = ((hi - lo) * B.shape[0], B.shape[1])
        indptr = np.searchsorted(new_row[order], np.arange(shape[0] + 1))
        split = sp.csr_matrix((B.data[order], B.indices[order], indptr),
                              shape=shape)
        if full:
            self._splits[m] = split
        return split

    def _leaf(self, m):
        """B_m P_e gamma0^(m) for every energy bucket e of level m.

        A sparse (dim_(m-1), n_e) block, built by one sparse product with
        the bucket split of gamma0^(m), which is as sparse as the data.
        """
        if m not in self._leaves:
            g = self._gamma_flat(m)
            vals, inv, _ = _buckets(self.lattice, m)
            cols = sp.csr_matrix((g, (np.arange(g.size), inv)),
                                 shape=(g.size, vals.size))
            self._leaves[m] = (self._mat(m) @ cols).tocsc()
        return self._leaves[m]

    def _phases(self, m, gaps):
        """exp(-i * gap * E_m) as a (dim_m, len(gaps)) array."""
        vals, inv, _ = _buckets(self.lattice, m)
        table = np.exp(-1j * np.outer(vals, gaps))
        return table[inv, :]

    def _free(self, m, times):
        """(dim_m, n) free evolutions of gamma0^(m)."""
        g = self._gamma_flat(m)
        return self._phases(m, np.asarray(times)) * g[:, None]

    def term_batch(self, k, j, times):
        """Duh_j at level k for a batch of times; (dim_k, n) array."""
        if j < 0:
            raise ValueError(f"depth {j} is negative")
        if k + j > self.state.K_max:
            raise ValueError(f"level {k}+depth {j} exceeds K_max={self.state.K_max}")
        times = np.asarray(times, dtype=np.float64)
        F = self.lattice.size
        dim_k = F ** (2 * k)
        if self._gamma_flat(k + j) is None:
            return np.zeros((dim_k, times.size), dtype=np.complex128)
        if j == 0:
            return self._free(k, times)
        return self._chain_term(k, j, times)

    def _chain_term(self, k, j, times):
        """Duh_j at level k (j >= 1) by energy chains; see the module docstring."""
        self._check_chain(k, j, times.size)
        x, _ = self._gl
        # nodes[i]: the Gauss-Legendre tree's time nodes at level k + i
        nodes = [times]
        for _ in range(j):
            nodes.append((0.5 * nodes[-1][:, None] * (x + 1.0)).reshape(-1))
        out = np.zeros((self.lattice.size ** (2 * k), times.size),
                       dtype=np.complex128)
        # the leaf: one chain column per energy e of level k + j, with the
        # block B P_e gamma0 and the scalar e^(-ieu) at the deepest nodes
        leaf = self._leaf(k + j)
        vals = _buckets(self.lattice, k + j)[0]
        step = max(1, CHAIN_CAP // max(leaf.shape[0], nodes[j].size))
        for lo in range(0, vals.size, step):
            hi = min(lo + step, vals.size)
            f = np.exp(-1j * np.outer(nodes[j], vals[lo:hi]))
            self._climb(k, k + j - 1, leaf[:, lo:hi].toarray(), f, nodes, out)
        out *= (-1j) ** j
        return out

    def _check_chain(self, k, j, n_times):
        """Raise before allocating if one chain column cannot fit the cap."""
        F = self.lattice.size
        n_nodes = n_times * self.quad.q ** j
        dim = F ** (2 * (k + j - 1))
        if dim > CHAIN_CAP:
            name = "d" if self.lattice.d > 1 else "M"
            raise MemoryGuardError(
                f"{name}: a depth-{j} Duhamel chain block at level {k + j - 1} "
                f"has F^{2 * (k + j - 1)} = {dim} rows per chain column, F = "
                f"{F}; that exceeds the cap {CHAIN_CAP}")
        if n_nodes > CHAIN_CAP:
            raise MemoryGuardError(
                f"q: the depth-{j} Gauss-Legendre tree over {n_times} times "
                f"has {n_nodes} nodes at q={self.quad.q}; that exceeds the "
                f"cap {CHAIN_CAP}")

    def _climb(self, k, level, W, f, nodes, out):
        """Carry one chunk of chains from `level` up to level k into `out`.

        W is the chain block at `level` (dim_level x c); f holds the scalar
        functions of the same c chain suffixes at the time nodes of level
        + 1.  One step prepends the energy e of `level` to every suffix:
        the scalar half computes
        f'(e, suffix; s) = sum_r wu_r e^(-ie(s - u_r)) f(suffix; u_r)
        and, above level k, the vector half applies B_level P_e.  At level
        k the scalars are contracted with each row of W at that row's
        energy.
        """
        vals, _, rows = _buckets(self.lattice, level)
        x, w = self._gl
        s = nodes[level - k]
        wu = 0.5 * s[:, None] * w
        gap = 0.5 * s[:, None] * (1.0 - x)     # s - u_r
        c = W.shape[1]
        dim_next = W.shape[0] if level == k else \
            self.lattice.size ** (2 * (level - 1))
        # one chunk of (energies x suffixes) columns stays within the cap
        per_col = max(dim_next, s.size)
        n_e = min(vals.size, max(1, CHAIN_CAP // max(per_col, s.size * x.size)))
        n_c = max(1, CHAIN_CAP // (per_col * n_e))
        for lo in range(0, vals.size, n_e):
            hi = min(lo + n_e, vals.size)
            E = wu[:, None, :] * np.exp(
                -1j * vals[None, lo:hi, None] * gap[:, None, :])
            split = None if level == k else self._split(level, lo, hi)
            for c0 in range(0, c, n_c):
                cols = slice(c0, min(c0 + n_c, c))
                fn = E @ f[:, cols].reshape(s.size, x.size, -1)
                if split is None:
                    for e in range(lo, hi):
                        out[rows[e]] += W[rows[e], cols] @ fn[:, e - lo, :].T
                    continue
                Wn = split @ W[:, cols]
                self._climb(k, level - 1, Wn.reshape(dim_next, -1),
                            fn.reshape(s.size, -1), nodes, out)

    def solution_batch(self, N, k, times):
        """Truncated-hierarchy solution at level k; sum of Duh_0..Duh_(N-k)."""
        if k > N:
            raise ValueError("level k must be <= truncation N")
        times = np.asarray(times, dtype=np.float64)
        F = self.lattice.size
        acc = np.zeros((F ** (2 * k), times.size), dtype=np.complex128)
        for j in range(0, N - k + 1):
            if k + j > self.state.K_max:
                break
            acc += self.term_batch(k, j, times)
        return acc

    def _wrap(self, k, col):
        F = self.lattice.size
        return DensityMatrix(
            self.lattice, k, "dense", data=col.reshape((F,) * (2 * k)).copy()
        )

    def term(self, k, j, t):
        """Duh_j at level k and time t as a DensityMatrix.

        Depth 0 is the free evolution of gamma0^(k); depth j >= 1 is the
        j-fold nested integral with the (-i)^j prefactor, alternating free
        evolution and full collisions with the mode's per-level fields.
        """
        return self._wrap(k, self.term_batch(k, j, [t])[:, 0])

    def solution(self, N, k, t):
        """Explicit solution of the depth-N truncated hierarchy at level k."""
        return self._wrap(k, self.solution_batch(N, k, [t])[:, 0])


def integral_residual(ev, N, k, t, alpha=1.0):
    """H^alpha norm of the integral-equation defect of the truncated solution.

    Measures gamma^(k)(t) - U(t) gamma0^(k) + i * int_0^t U(t-s)
    [B^(k+1)] gamma^(k+1)(s) ds with gamma the truncated solution built by
    the evaluator `ev`; for k <= N-1 this vanishes up to quadrature error.
    """
    if k > N - 1:
        raise ValueError("residual is defined for levels k <= N-1")
    x, w = ev._gl
    nodes = 0.5 * t * (x + 1.0)
    weights = 0.5 * t * w
    sol_k = ev.solution_batch(N, k, [t])[:, 0]
    free_k = ev._free(k, [t])[:, 0] if ev._gamma_flat(k) is not None \
        else np.zeros_like(sol_k)
    resid = sol_k - free_k
    if t > 0:
        upper = ev.solution_batch(N, k + 1, nodes)
        integrand = ev._mat(k + 1) @ upper
        integrand *= ev._phases(k, t - nodes)
        resid = resid + 1j * (integrand @ weights)
    return h_alpha_norm(ev._wrap(k, resid), alpha)


def simplex_check(j, t, quad=None):
    """Nested quadrature of the constant 1 against the exact t^j / j!."""
    if j < 1:
        raise ValueError("depth must be >= 1")
    quad = quad if quad is not None else QuadratureSpec()
    x, w = quad.nodes()

    def nested(s, depth):
        if depth == 0:
            return 1.0
        u = 0.5 * s * (x + 1.0)
        wu = 0.5 * s * w
        return float(sum(wi * nested(ui, depth - 1) for ui, wi in zip(u, wu)))

    return nested(t, j), t**j / math.factorial(j)


def decay_profile(state0, k, t, mode, j_max, quad=None, alpha=1.0,
                  mc_samples=0, seed=0):
    """Norms of Duh_j for j = 0..j_max plus factorial-normalized diagnostics.

    Each norm is the H^alpha norm of Duh_j averaged in L^2(Omega) by
    `omega_l2_h_alpha` over the sign fields on the levels k+1..k+j the
    term uses: exact enumeration, or Monte Carlo when mc_samples > 0.  A
    deterministic mode is evaluated once, a plain H^alpha norm.  The
    normalized value is a_j = |Duh_j| * j! / (t^j * prod_{i<j}(k+i)).
    """
    norms = []
    for j in range(0, j_max + 1):
        est = omega_l2_h_alpha(
            lambda md, j=j: h_alpha_norm(
                DuhamelEvaluator(state0, md, quad).term(k, j, t), alpha),
            mode, state0.lattice, range(k + 1, k + j + 1),
            mc_samples=mc_samples, seed=seed,
        )
        norms.append(est.value)
    normalized = []
    for j, nj in enumerate(norms):
        scale = t**j / math.factorial(j) if t > 0 or j == 0 else 0.0
        growth = math.prod(range(k, k + j)) if j > 0 else 1.0
        normalized.append(nj / (scale * growth) if scale > 0 else np.nan)
    return np.array(norms), np.array(normalized)


def solution_time_modulus(state0, N, base_times, deltas, mode, quad=None,
                          alpha=1.0, xi=0.5):
    """Measured time-modulus ratios of the truncated solution.

    For each delta, returns the sup over base times of
    |Gamma_N(t + delta) - Gamma_N(t)| in the field-averaged xi-weighted
    norm, divided by sqrt(delta).  Each level norm is averaged exactly
    over the mode's sign fields on levels 2..N (none when deterministic).
    A NaN norm makes its ratio NaN.
    """
    base_times = np.asarray(base_times, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    times = np.concatenate([base_times] +
                           [base_times + d for d in deltas])
    nb = base_times.size

    def norms(md):
        """[di, ti, k-1]: level-k norm of Gamma_N(t_i + delta_di) - Gamma_N(t_i)."""
        ev = DuhamelEvaluator(state0, md, quad)
        out = np.zeros((deltas.size, nb, N))
        for k in range(1, N + 1):
            sol = ev.solution_batch(N, k, times)
            for di in range(deltas.size):
                seg = sol[:, (di + 1) * nb:(di + 2) * nb] - sol[:, :nb]
                for ti in range(nb):
                    out[di, ti, k - 1] = h_alpha_norm(ev._wrap(k, seg[:, ti]), alpha)
        return out

    rms = omega_l2_h_alpha(norms, mode, state0.lattice, range(2, N + 1)).value
    weighted = sum(xi**k * rms[:, :, k - 1] for k in range(1, N + 1))
    sup = np.max(weighted, axis=1)
    return {float(d): s / np.sqrt(d) for d, s in zip(deltas, sup)}


def cauchy_diagnostic(state0, Ns, T, mode, quad=None, alpha=1.0, xi=0.5,
                      grid_times=(0.0, 0.05, 0.1)):
    """Collision-weighted size of consecutive truncation increments.

    For each N, computes D(N): the sup over the grid of the xi-weighted
    sum over k of the averaged H^alpha norms of [B^(k+1)] applied to
    (Gamma_(N+1) - Gamma_N) at level k+1.  The increment identity
    Gamma_(N+1)^(m) - Gamma_N^(m) = Duh_(N+1-m) is used directly.
    Averaging is exact over the shared field for the dependent mode and
    pointwise otherwise.
    """
    for N in Ns:
        if N + 1 > state0.K_max:
            raise ValueError(f"need K_max >= {N + 1}")
    grid = np.asarray(grid_times, dtype=np.float64)
    pairs = [(N, k) for N in Ns for k in range(1, N + 1)]

    def norms(md):
        """[pair, ti]: H^alpha norm of the level-k collision of Duh_(N-k)."""
        ev = DuhamelEvaluator(state0, md, quad)
        out = np.zeros((len(pairs), grid.size))
        for p, (N, k) in enumerate(pairs):
            cols = ev._mat(k + 1) @ ev.term_batch(k + 1, N - k, grid)
            for i in range(grid.size):
                out[p, i] = h_alpha_norm(ev._wrap(k, cols[:, i]), alpha)
        return out

    levels = range(2, max(Ns) + 2) if mode.variant == "dependent" else ()
    rms = omega_l2_h_alpha(norms, mode, state0.lattice, levels).value
    out = []
    for N in Ns:
        per_time = np.zeros(grid.size)
        for k in range(1, N + 1):
            per_time += xi**k * rms[pairs.index((N, k))]
        out.append(float(np.max(per_time)))
    return np.array(out)
