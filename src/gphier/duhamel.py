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

A `DuhamelEvaluator` holds a batch of modes: the list of redrawn modes
that `randomization.omega_l2_h_alpha` passes to its `norms` callable, in
enumeration or sample order; a single mode is a batch of one.  Its
results are `ModeValues`, one array per distinct path of sign fields and
each mode's row, so every `norms` here computes a norm once per row and
returns one per mode, in the order of its batch.  The scalar half is
computed once per level and chunk for the whole batch; the vector half
walks the distinct fields depth first, so modes that share the deeper
fields share their products.  A field h conjugates the deterministic
collision, B_m^h = S_(m-1)(h) B_m S_m(h), and S_m commutes with every
P_e, so all fields share one split per level (`dynamics.conjugate`).
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .dynamics import _energy_split, conjugate, full_collision_matrix, sign_vector
from .randomization import omega_l2_h_alpha
from .tensor import DensityMatrix, MemoryGuardError, h_alpha_norm

__all__ = [
    "QuadratureSpec",
    "ModeValues",
    "DuhamelEvaluator",
    "integral_residual",
    "simplex_check",
    "decay_profile",
    "cauchy_diagnostic",
    "solution_time_modulus",
]

CHAIN_CAP = 2**22  # complex elements per chain-block or scalar-array chunk

_BUCKETS = {}  # (d, M, m) -> coefficient rows per energy of level m; see _buckets


@functools.lru_cache(maxsize=None)
def _leggauss(q):
    x, w = np.polynomial.legendre.leggauss(q)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _buckets(lattice, m):
    """The coefficient rows of each energy bucket of level m, in increasing order.

    Bucket e holds the coefficients at the e-th distinct energy of the
    shared split (`dynamics._energy_split`).
    """
    key = (lattice.d, lattice.M, m)
    if key not in _BUCKETS:
        vals, inv = _energy_split(lattice, m)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(vals.size + 1))
        _BUCKETS[key] = [order[bounds[e]:bounds[e + 1]] for e in range(vals.size)]
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


class ModeValues(NamedTuple):
    """One array per mode of a batch, each distinct array stored once.

    Mode i's array is values[index[i]]; modes whose result depends on the
    same sign fields share one row of `values`.
    """

    values: np.ndarray
    index: np.ndarray

    def of(self, i):
        """The array of mode i."""
        return self.values[self.index[i]]

    def per_mode(self, fn):
        """fn of each mode's array, stacked over modes; fn runs once per row."""
        return np.array([fn(v) for v in self.values])[self.index]


def _join(*indexes):
    """Distinct combinations of per-mode indexes, and each mode's combination."""
    rows, index = np.unique(np.stack(indexes, axis=1), axis=0,
                            return_inverse=True)
    return rows, index.reshape(-1)


def _branches(paths, sub, col):
    """(field id, paths of `sub` with that id in column col), for each id."""
    ids = paths[sub, col]
    return [(fid, sub[ids == fid]) for fid in np.unique(ids)]


class DuhamelEvaluator:
    """Energy-chain evaluator of Duhamel terms for one state and a batch of modes.

    The energy buckets of every level are those of the free flow: the
    distinct energies and each coefficient's bucket come from the cached
    split `dynamics._energy_split`, and the rows of each bucket, built
    only for the levels a term ends at, from `_buckets`.

    Caches the flattened initial coefficients of each level m, per level
    m the per-energy column slices B_m P_e of the deterministic collision
    matrix stacked into one matrix, per level m and sign field the leaf
    block of columns B_m^h P_e gamma0^(m), and per sign field and order m
    the sign vector S_m(h) that conjugates the collisions.  A term of
    depth j starts from the leaf block of level k+j and walks up to level
    k.  At each level the chain block (the vector half) takes one product
    with the stacked slices, and the scalar functions of the chain
    suffixes (the scalar half) take one nested Gauss-Legendre step; the
    two are contracted row by row at level k.  Both are chunked over chain
    columns, never over times, so each array stays within `CHAIN_CAP`
    complex elements.

    The scalar half does not depend on the fields: it is computed once
    per level and chunk for the whole batch.  The vector half walks a
    depth-first tree whose branches at each level are the distinct fields
    among the modes that share the deeper path, so every mode with the
    same fields on the levels a term climbs through gets the same array,
    computed once, and only one path's chain blocks are resident at a
    time.
    """

    def __init__(self, state0, modes, quad=None):
        self.state = state0
        self.modes = list(modes)
        self.quad = quad if quad is not None else QuadratureSpec()
        self.lattice = state0.lattice
        self._gamma = {}
        self._fields = {}
        self._blocks = {}
        self._stored = 0
        self._gl = self.quad.nodes()

    def _gamma_flat(self, m):
        if m not in self._gamma:
            g = self.state.level(m)
            self._gamma[m] = None if g is None else g.to_dense().data.reshape(-1)
        return self._gamma[m]

    def _field_ids(self, m):
        """(field id of each mode at level m, the sign field of each id).

        Fields are told apart by fingerprint; None stands for no field.
        """
        if m not in self._fields:
            ids, fields, seen = [], [], {}
            for md in self.modes:
                f = md.field_for_level(m)
                key = None if f is None else f.fingerprint()
                if key not in seen:
                    seen[key] = len(fields)
                    fields.append(f)
                ids.append(seen[key])
            self._fields[m] = (np.array(ids, dtype=np.intp), fields)
        return self._fields[m]

    def _block(self, key, build):
        """A leaf block, full split or sign vector from the cache, built on a miss.

        The most recently used blocks are kept within CHAIN_CAP stored
        entries (a sparse block's nnz, a vector's size): the small blocks
        of an enumerated product set are built once per (level, field) or
        (field, order), and a batch of large per-field blocks holds about
        what the evaluator of one mode holds.
        """
        block = self._blocks.pop(key, None)
        if block is None:
            block = build()
            self._stored += block.size
        self._blocks[key] = block
        while self._stored > CHAIN_CAP and len(self._blocks) > 1:
            self._stored -= self._blocks.pop(next(iter(self._blocks))).size
        return block

    def _signs(self, m, fid):
        """(S_(m-1)(h), S_m(h)) for the level-m field h of id fid; None if no field."""
        field = self._field_ids(m)[1][fid]
        if field is None:
            return None
        return tuple(self._block(("signs", field.fingerprint(), order),
                                 functools.partial(sign_vector, self.lattice,
                                                   field, order))
                     for order in (m - 1, m))

    def _split(self, m, lo, hi):
        """B_m P_e for the energy buckets lo <= e < hi, stacked row-wise.

        Row r (hi - lo) + (e - lo) is row r of B_m restricted to the columns
        of bucket e, so `(split @ W).reshape(dim_(m-1), -1)` is the chain
        block with e as its new leading chain index.  The split over all n
        buckets is cached; a chunk of them selects its rows r n + e.
        """
        vals, inv = _energy_split(self.lattice, m)
        n = vals.size

        def build():
            B = full_collision_matrix(self.lattice, m)
            new_row = n * np.repeat(np.arange(B.shape[0]),
                                    np.diff(B.indptr)) + inv[B.indices]
            order = np.argsort(new_row, kind="stable")
            indptr = np.searchsorted(new_row[order], np.arange(n * B.shape[0] + 1))
            return sp.csr_matrix((B.data[order], B.indices[order], indptr),
                                 shape=(n * B.shape[0], B.shape[1]))

        split = self._block(("split", m), build)
        if (lo, hi) == (0, n):
            return split
        return split[np.arange(split.shape[0]).reshape(-1, n)[:, lo:hi].ravel()]

    def _leaf(self, m, fid):
        """B_m^h P_e gamma0^(m) for every energy bucket e of level m.

        A sparse (dim_(m-1), n_e) block, built by one sparse product with
        the bucket split of S_m(h) gamma0^(m), which stores only the
        nonzero coefficients, so the block is as sparse as the data.
        """
        def build():
            signs = self._signs(m, fid)
            g = self._gamma_flat(m)
            if signs is not None:
                g = signs[1] * g
            vals, inv = _energy_split(self.lattice, m)
            nz = np.flatnonzero(g)
            cols = sp.csr_matrix((g[nz], (nz, inv[nz])),
                                 shape=(g.size, vals.size))
            leaf = (full_collision_matrix(self.lattice, m) @ cols).tocsc()
            if signs is not None:
                leaf.data *= signs[0][leaf.indices]
            return leaf

        return self._block(("leaf", m, fid), build)

    def _phases(self, m, gaps):
        """exp(-i * gap * E_m) as a (dim_m, len(gaps)) array."""
        vals, inv = _energy_split(self.lattice, m)
        table = np.exp(-1j * np.outer(vals, gaps))
        return table[inv, :]

    def _free(self, m, times):
        """(dim_m, n) free evolutions of gamma0^(m)."""
        g = self._gamma_flat(m)
        return self._phases(m, np.asarray(times)) * g[:, None]

    def term_batch(self, k, j, times):
        """Duh_j at level k for a batch of times; ModeValues of (dim_k, n) arrays.

        Modes with the same fields on levels k+1..k+j share one array.
        """
        if j < 0:
            raise ValueError(f"depth {j} is negative")
        if k + j > self.state.K_max:
            raise ValueError(f"level {k}+depth {j} exceeds K_max={self.state.K_max}")
        times = np.asarray(times, dtype=np.float64)
        dim_k = self.lattice.size ** (2 * k)
        one = np.zeros(len(self.modes), dtype=np.intp)
        if self._gamma_flat(k + j) is None:
            return ModeValues(np.zeros((1, dim_k, times.size),
                                       dtype=np.complex128), one)
        if j == 0:
            return ModeValues(self._free(k, times)[None], one)
        paths, index = _join(*(self._field_ids(m)[0]
                               for m in range(k + 1, k + j + 1)))
        return ModeValues(self._chain_term(k, j, times, paths), index)

    def _chain_term(self, k, j, times, paths):
        """Duh_j at level k (j >= 1) by energy chains; see the module docstring.

        paths[p] holds the field ids of path p on levels k+1..k+j; returns
        the (len(paths), dim_k, n) terms.
        """
        self._check_chain(k, j, times.size, len(paths))
        x, _ = self._gl
        # nodes[i]: the Gauss-Legendre tree's time nodes at level k + i
        nodes = [times]
        for _ in range(j):
            nodes.append((0.5 * nodes[-1][:, None] * (x + 1.0)).reshape(-1))
        out = np.zeros((len(paths), self.lattice.size ** (2 * k), times.size),
                       dtype=np.complex128)
        # the leaf: one chain column per energy e of level k + j, with the
        # block B P_e gamma0 and the scalar e^(-ieu) at the deepest nodes
        vals = _energy_split(self.lattice, k + j)[0]
        dim_leaf = self.lattice.size ** (2 * (k + j - 1))
        step = max(1, CHAIN_CAP // max(dim_leaf, nodes[j].size))
        branches = _branches(paths, np.arange(len(paths)), j - 1)
        for lo in range(0, vals.size, step):
            hi = min(lo + step, vals.size)
            f = np.exp(-1j * np.outer(nodes[j], vals[lo:hi]))
            # the levels below share their scalars across these branches
            memo = {} if len(branches) > 1 else None
            for fid, sub in branches:
                W = self._leaf(k + j, fid)[:, lo:hi].toarray()
                self._climb(k, k + j - 1, W, f, nodes, out, paths, sub, memo)
        out *= (-1j) ** j
        return out

    def _check_chain(self, k, j, n_times, n_paths):
        """Raise before allocating if a chain column or the batch exceeds the cap."""
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
        # one path alone is what a single mode needs; more must fit the cap
        size = n_paths * F ** (2 * k) * n_times
        if n_paths > 1 and size > CHAIN_CAP:
            raise MemoryGuardError(
                f"mc_samples: a batch of {len(self.modes)} modes takes "
                f"{n_paths} distinct sign-field paths through levels "
                f"{k + 1}..{k + j}; their depth-{j} terms at level {k} over "
                f"{n_times} times hold {size} entries, F = {F}; that exceeds "
                f"the cap {CHAIN_CAP}")

    def _climb(self, k, level, W, f, nodes, out, paths, sub, memo):
        """Carry one chunk of chains from `level` up to level k into `out`.

        W is the chain block at `level` (dim_level x c) of the paths `sub`,
        which share their fields below `level`; f holds the scalar
        functions of the same c chain suffixes at the time nodes of level
        + 1.  One step prepends the energy e of `level` to every suffix:
        the scalar half computes
        f'(e, suffix; s) = sum_r wu_r e^(-ie(s - u_r)) f(suffix; u_r)
        and, above level k, the vector half applies B_level P_e under each
        distinct field of `level` among `sub`.  At level k, where `sub` is
        one path, the scalars are contracted with each row of W at that
        row's energy.  `memo`, when not None, keeps the scalars of this
        call's chunks (and of the levels below) for the sibling branches
        that make the same call with another W.
        """
        vals = _energy_split(self.lattice, level)[0]
        x, w = self._gl
        s = nodes[level - k]
        c = W.shape[1]
        dim_next = W.shape[0] if level == k else \
            self.lattice.size ** (2 * (level - 1))
        # one chunk of (energies x suffixes) columns stays within the cap
        per_col = max(dim_next, s.size)
        n_e = min(vals.size, max(1, CHAIN_CAP // max(per_col, s.size * x.size)))
        n_c = max(1, CHAIN_CAP // (per_col * n_e))
        branches = None if level == k else _branches(paths, sub, level - k - 1)
        # the levels below share their scalars across sibling calls
        shared = branches is not None and (memo is not None or len(branches) > 1)
        for lo in range(0, vals.size, n_e):
            hi = min(lo + n_e, vals.size)
            E = None
            split = None
            for c0 in range(0, c, n_c):
                cols = slice(c0, min(c0 + n_c, c))
                entry = None if memo is None else memo.get((lo, c0))
                if entry is None:
                    if E is None:
                        wu = 0.5 * s[:, None] * w
                        gap = 0.5 * s[:, None] * (1.0 - x)     # s - u_r
                        E = wu[:, None, :] * np.exp(
                            -1j * vals[None, lo:hi, None] * gap[:, None, :])
                    entry = (E @ f[:, cols].reshape(s.size, x.size, -1),
                             {} if shared else None)
                    if memo is not None:
                        memo[(lo, c0)] = entry
                fn, below = entry
                if branches is None:
                    (p,) = sub
                    rows = _buckets(self.lattice, k)
                    for e in range(lo, hi):
                        out[p][rows[e]] += W[rows[e], cols] @ fn[:, e - lo, :].T
                    continue
                if split is None:
                    split = self._split(level, lo, hi)
                for fid, grp in branches:
                    Wn = conjugate(lambda X: (split @ X).reshape(dim_next, -1),
                                   W[:, cols], self._signs(level, fid))
                    self._climb(k, level - 1, Wn, fn.reshape(s.size, -1), nodes,
                                out, paths, grp, below)

    def collide(self, m, batch):
        """B_m under each mode's level-m field, applied to that mode's array.

        `batch` holds (dim_m, n) arrays; returns ModeValues of
        (dim_(m-1), n) arrays.
        """
        B = full_collision_matrix(self.lattice, m)
        rows, index = _join(batch.index, self._field_ids(m)[0])
        return ModeValues(np.stack([conjugate(B.__matmul__, batch.values[b],
                                              self._signs(m, fid))
                                    for b, fid in rows]), index)

    def solution_batch(self, N, k, times):
        """Truncated-hierarchy solution at level k; sum of Duh_0..Duh_(N-k).

        ModeValues of (dim_k, n) arrays, one per distinct combination of
        the terms' arrays.
        """
        if k > N:
            raise ValueError("level k must be <= truncation N")
        times = np.asarray(times, dtype=np.float64)
        parts = [self.term_batch(k, j, times) for j in range(0, N - k + 1)
                 if k + j <= self.state.K_max]
        rows, index = _join(*(part.index for part in parts))
        acc = np.zeros((len(rows), self.lattice.size ** (2 * k), times.size),
                       dtype=np.complex128)
        for r, row in enumerate(rows):
            for part, i in zip(parts, row):
                acc[r] += part.values[i]
        return ModeValues(acc, index)

    def _wrap(self, k, col):
        shape = (self.lattice.size,) * (2 * k)
        return DensityMatrix(self.lattice, k, "dense", data=col.reshape(shape).copy())

    def term(self, k, j, t):
        """Duh_j at level k and time t, one DensityMatrix per mode.

        Depth 0 is the free evolution of gamma0^(k); depth j >= 1 is the
        j-fold nested integral with the (-i)^j prefactor, alternating free
        evolution and full collisions with each mode's per-level fields.
        """
        batch = self.term_batch(k, j, [t])
        return [self._wrap(k, batch.of(i)[:, 0]) for i in range(len(self.modes))]

    def solution(self, N, k, t):
        """Explicit depth-N truncated solution at level k, one per mode."""
        batch = self.solution_batch(N, k, [t])
        return [self._wrap(k, batch.of(i)[:, 0]) for i in range(len(self.modes))]


def integral_residual(ev, N, k, t, alpha=1.0):
    """H^alpha norms of the integral-equation defect of the truncated solution.

    Measures gamma^(k)(t) - U(t) gamma0^(k) + i * int_0^t U(t-s)
    [B^(k+1)] gamma^(k+1)(s) ds with gamma the truncated solution built by
    the evaluator `ev`, one norm per mode of `ev`; for k <= N-1 this
    vanishes up to quadrature error.
    """
    if k > N - 1:
        raise ValueError("residual is defined for levels k <= N-1")
    x, w = ev._gl
    nodes = 0.5 * t * (x + 1.0)
    weights = 0.5 * t * w
    sol = ev.solution_batch(N, k, [t])
    free_k = ev._free(k, [t])[:, 0] if ev._gamma_flat(k) is not None \
        else np.zeros(sol.values.shape[1], dtype=np.complex128)
    parts = [sol]
    if t > 0:
        integrand = ev.collide(k + 1, ev.solution_batch(N, k + 1, nodes))
        phases = ev._phases(k, t - nodes)
        for row in integrand.values:
            row *= phases
        lifted = [1j * (row @ weights) for row in integrand.values]
        parts.append(integrand)
    rows, index = _join(*(part.index for part in parts))
    out = []
    for row in rows:
        resid = sol.values[row[0]][:, 0] - free_k
        if t > 0:
            resid = resid + lifted[row[1]]
        out.append(h_alpha_norm(ev._wrap(k, resid), alpha))
    return np.array(out)[index]


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

    The H^alpha norms of Duh_0..Duh_j_max are averaged in L^2(Omega) by one
    `omega_l2_h_alpha` call over the sign fields on levels k+1..k+j_max
    (depth j reads levels k+1..k+j): exact enumeration, or Monte Carlo when
    mc_samples > 0; a deterministic mode is evaluated once.  The
    normalized value is a_j = |Duh_j| * j! / (t^j * prod_{i<j}(k+i)).
    """
    def depth_norms(modes):
        """[mode, j]: the H^alpha norm of Duh_j under the mode's fields."""
        ev = DuhamelEvaluator(state0, modes, quad)
        return np.stack([ev.term_batch(k, j, [t]).per_mode(
            lambda term: h_alpha_norm(ev._wrap(k, term[:, 0]), alpha))
            for j in range(j_max + 1)], axis=1)

    norms = omega_l2_h_alpha(depth_norms, mode, state0.lattice,
                             range(k + 1, k + j_max + 1),
                             mc_samples=mc_samples, seed=seed).value
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

    def norms(modes):
        """[mode, di, ti, k-1]: level-k norm of Gamma_N(t_i + d_di) - Gamma_N(t_i)."""
        ev = DuhamelEvaluator(state0, modes, quad)
        out = np.zeros((len(modes), deltas.size, nb, N))
        for k in range(1, N + 1):
            def increments(sol, k=k):
                per = np.zeros((deltas.size, nb))
                for di in range(deltas.size):
                    seg = sol[:, (di + 1) * nb:(di + 2) * nb] - sol[:, :nb]
                    for ti in range(nb):
                        per[di, ti] = h_alpha_norm(ev._wrap(k, seg[:, ti]), alpha)
                return per

            out[..., k - 1] = ev.solution_batch(N, k, times).per_mode(increments)
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

    def norms(modes):
        """[mode, pair, ti]: H^alpha norm of the level-k collision of Duh_(N-k)."""
        ev = DuhamelEvaluator(state0, modes, quad)
        out = np.zeros((len(modes), len(pairs), grid.size))
        for p, (N, k) in enumerate(pairs):
            cols = ev.collide(k + 1, ev.term_batch(k + 1, N - k, grid))
            out[:, p] = cols.per_mode(lambda col, k=k: [
                h_alpha_norm(ev._wrap(k, col[:, i]), alpha)
                for i in range(grid.size)])
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
