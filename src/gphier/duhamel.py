"""Iterated Duhamel terms, explicit truncated solutions, residual checks.

The free flow at level m is diagonal, with few distinct energies against
a large dimension.  With P_e the projection of level m onto its
coefficients of energy e, the depth-j term at level k is

    Duh_j^(k)(s) = (-i)^j sum_chain [P_{e_k} B_{k+1} P_{e_{k+1}} ...
                   B_{k+j} P_{e_{k+j}} gamma0] * I(e_k, ..., e_{k+j}; s)

with I the j-fold simplex integral of the phases.  It is evaluated in two
halves.  The vector half applies each collision matrix once per level
to a block of the nonzero chain columns below it, in real arithmetic on
the block's float64 view (`dynamics.real_matmul`).  The scalar half runs
the recursive tensor-product Gauss-Legendre rule (cost q^j) on (time
node x chain suffix) arrays of scalars.  Both sum in sparse products,
never in BLAS, so no bit depends on the thread count.  The method uses
no generator and no matrix exponential, so it stays independent of
`dynamics.evolve_truncated`.  The integral residual collides the solution
one level up at the quadrature nodes; when that is the top level, plain
free flow, it is formed one node at a time (`integral_residual`), so no
top-level block over the nodes exists.

A `DuhamelEvaluator` holds one state and a batch of modes; a field h
enters as the conjugation B_m^h = S_(m-1)(h) B_m S_m(h), its signs on the
operand and on the product of the deterministic matrix.  Each mode climbs
from its own leaf block, and the modes share the scalar half.  Exact
averages take a variant (`dynamics.VARIANTS`) and draw no field: one
climb takes the input of some collisions per odd-multiplicity class,
each column of the split carries one Walsh character of the fields, and
the columns of equal character, over the depths of a solution too, add
before the classes add in squares (`DuhamelEvaluator._class_terms`).
`cauchy_diagnostic` collides such a split once more, its rows lifted by
the classes of the input level where the collision's own field splits
that input (`dynamics._lift`), so every variant of `converge` is exact
too.  Enumerating modes with fixed fields stays as the test oracle.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dynamics, tensor
from .dynamics import (_check_matrix, _check_variant, _energy_split, _lift, conjugate,
                       full_collision_matrix, real_matmul, sign_vector)
from .tensor import (DensityMatrix, Store, _odd_masks, check_size, data_classes,
                     h_alpha_norm, lattice_field, odd_classes)

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


def _nonzero_columns(block):
    """(the columns of the 2-d `block` with an entry other than 0, their
    indices); a NaN is not 0, so it is kept."""
    keep = np.flatnonzero(block.any(axis=0))
    return (block if keep.size == block.shape[1] else block[:, keep]), keep


def _block_diagonal(blocks):
    """The CSR matrix with the (n, a, b) `blocks` on its diagonal."""
    n, a, b = blocks.shape
    cols = np.arange(n * b).reshape(n, 1, b)
    return sp.csr_matrix((blocks.reshape(-1), np.broadcast_to(cols, blocks.shape).reshape(-1),
                          np.arange(0, blocks.size + 1, b)), shape=(n * a, n * b))


def _contract(out, rows, W, cols, path, suffix, energy, fn):
    """out[rows] += the columns `cols` of W times their scalars, per path:
    out[r, path[i], t] gains W[r, i] fn[t, energy, suffix[i]] for r in
    `rows`, energy the index in fn of each row's energy.

    One sparse product, not BLAS, does every sum: its matrix has a row
    per (row r, path) and holds each nonzero W[r, i] (a NaN too) at column
    (energy, suffix[i]) of the scalars, whose rows are fn's (energy,
    suffix) pairs.
    """
    cols = cols[np.argsort(path[cols], kind="stable")]
    paths, slot = np.unique(path[cols], return_inverse=True)
    whole = rows.size == W.shape[0] and np.array_equal(cols, np.arange(W.shape[1]))
    part = (W if whole else W[np.ix_(rows, cols)]).reshape(-1)
    nz = np.flatnonzero(part != 0)
    r, i = np.divmod(nz, cols.size)
    n_t, n_e, c = fn.shape
    counts = np.bincount(r * paths.size + slot[i], minlength=rows.size * paths.size)
    mat = sp.csr_matrix((part[nz], energy[r] * c + suffix[cols[i]],
                         np.r_[0, np.cumsum(counts)]),
                        shape=(rows.size * paths.size, n_e * c))
    sums = mat @ fn.transpose(1, 2, 0).reshape(-1, n_t)
    out[np.ix_(rows, paths)] += sums.reshape(rows.size, paths.size, n_t)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre order per nesting level."""

    q: int = 12

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("quadrature order must be >= 2")

    def nodes(self):
        return tensor._TABLES.get(("leggauss", self.q),
                                  lambda: np.polynomial.legendre.leggauss(self.q))


def _field(mode, m):
    """The level-m sign field of `mode`; None for no field, or no mode."""
    return None if mode is None else mode.field_for_level(m)


def _class_energy_split(lattice, m, classes):
    """The full split of B_m by column label, as `DuhamelEvaluator._split`
    describes it: row r n n_c + label of B_m's column, the label being
    the column's energy bucket e (n buckets), or with `classes` e n_c + c,
    c its odd-multiplicity class among the n_c of level m
    (`tensor.odd_classes`)."""
    vals, inv = _energy_split(lattice, m)
    cls, n_c = odd_classes(lattice, m) if classes else (0, 1)
    return _lift(full_collision_matrix(lattice, m), inv * n_c + cls, vals.size * n_c)


def _root_sum_squares(terms):
    """Per row of (dim, P) class-split terms, the root sum of squares; the
    column itself when P = 1, so an unsplit term keeps its bits."""
    return terms[:, 0] if terms.shape[1] == 1 else np.linalg.norm(terms, axis=1)


class DuhamelEvaluator:
    """Energy-chain evaluator of Duhamel terms for one state and a batch of modes.

    The energy buckets of every level are those of the free flow: the
    distinct energies and each coefficient's bucket come from the cached
    split `dynamics._energy_split`.

    Caches what depends on the state or a field: the flattened initial
    coefficients of each level m, per level m and sign field the leaf
    block of columns B_m^h P_e gamma0^(m), and per sign field and order m
    the sign vector S_m(h) that conjugates the collisions on their operand
    and product (`dynamics.conjugate`), the blocks the most recently used
    within CHAIN_CAP stored entries.  What depends on the lattice alone is
    built once per process and shared by every evaluator: per level m the
    per-energy column slices B_m P_e of the deterministic collision matrix
    stacked into one matrix (`_split`, in `dynamics._MATRIX_CACHE`) and
    the odd-multiplicity classes (`tensor.odd_classes`).

    A term of depth j walks from the leaf block of level k+j up to level
    k.  A chain block is a dense (dim, n) array of its nonzero columns
    only, with each column's class path and suffix (the column of the
    scalar half it goes with).  At each level the block (the vector half)
    takes one product with the stacked slices, whose vanishing columns
    are dropped, and the scalar functions of the chain suffixes (the
    scalar half) take one nested Gauss-Legendre step; at level k the two
    meet row by row and add per class path (`_contract`).  Both are
    chunked over energies and suffixes, never over times, so each array
    stays within `CHAIN_CAP` complex elements.

    The scalar half does not depend on the fields: it is computed once
    per level and chunk for the whole batch and kept for the modes that
    climb after the first.  The vector half climbs one mode at a time,
    depth-first from that mode's leaf block, so only one mode's chain
    blocks are resident at a time.  A term that reads no field (depth 0,
    or vanishing data) is one read-only array for every mode.  Class-split
    climbs (`omega_norm`, `_class_terms`) take a variant and read neither
    the modes nor a field: splits and leaf blocks go per (energy, class),
    and each column's path names its classes.
    """

    def __init__(self, state0, modes=(), quad=None):
        self.state = state0
        self.modes = list(modes)
        self.quad = quad if quad is not None else QuadratureSpec()
        self.lattice = state0.lattice
        self._gamma = {}
        self._blocks = Store(CHAIN_CAP)
        self._present = {}
        self._gl = self.quad.nodes()

    def _gamma_flat(self, m):
        """The flat level-m coefficients; None when they all vanish."""
        if m not in self._gamma:
            g = self.state.level(m)
            g = None if g is None else g.to_dense().data.reshape(-1)
            self._gamma[m] = g if g is not None and g.any() else None
        return self._gamma[m]

    def _data_classes(self, m):
        """(flat indices of the nonzero level-m coefficients, the class of
        each among the n of the data there (`tensor.data_classes`), n)."""
        if m not in self._present:
            nz = np.flatnonzero(self._gamma_flat(m))
            present = data_classes(self.state, [m])
            self._present[m] = (nz, np.searchsorted(
                present, _odd_masks(self.lattice, m)[nz]), present.size)
        return self._present[m]

    def _signs(self, m, field):
        """(S_(m-1)(h), S_m(h)) for the level-m field h; None if no field."""
        if field is None:
            return None
        return tuple(self._blocks.get(("signs", field.fingerprint(), order),
                                      functools.partial(sign_vector, self.lattice,
                                                        field, order))
                     for order in (m - 1, m))

    def _class_count(self, m, classes):
        """n_c, the odd-multiplicity classes of level m with `classes`, else 1."""
        return odd_classes(self.lattice, m)[1] if classes else 1

    def _split(self, m, lo, hi, classes=False):
        """B_m P_e for the energy buckets lo <= e < hi, stacked row-wise.

        Row r (hi - lo) + (e - lo) is row r of B_m restricted to the columns
        of bucket e, so `(split @ W).reshape(dim_(m-1), -1)` has a column
        per (e, column of W), e slowest.  With `classes` the
        columns are split by energy and class: B_m P_e P_c is row
        (r (hi - lo) + (e - lo)) n_c + c (`_class_energy_split`).  The
        split over all n buckets, and each chunk of them, depend on the
        lattice alone, so they live in `dynamics._MATRIX_CACHE`, after the
        size guards of the split's ingredients.
        """
        n = _energy_split(self.lattice, m)[0].size
        n_c = self._class_count(m, classes)
        _check_matrix(self.lattice, m)
        key = ("split", self.lattice.d, self.lattice.M, m, classes)
        split = dynamics._MATRIX_CACHE.get(key, functools.partial(
            _class_energy_split, self.lattice, m, classes))
        if (lo, hi) == (0, n):
            return split

        def chunk():
            rows = np.arange(split.shape[0]).reshape(-1, n * n_c)
            return split[rows[:, lo * n_c:hi * n_c].ravel()]

        return dynamics._MATRIX_CACHE.get(key + (lo, hi), chunk)

    def _leaf(self, m, field, classes=False):
        """B_m^h P_e gamma0^(m) for every energy bucket e of level m, h = field.

        A sparse (dim_(m-1), n_e) CSR block, built by one sparse product with
        the bucket split of S_m(h) gamma0^(m), which stores only the
        nonzero coefficients, so the block is as sparse as the data.  With
        `classes` (and no field) the block has one column
        B_m P_e P_c gamma0^(m) per energy e and class c of the data
        (`_data_classes`), column e n_c + c.
        """
        def build():
            signs = self._signs(m, field)
            g = self._gamma_flat(m)
            if signs is not None:
                g = signs[1] * g
            nz, cls, n_c = self._data_classes(m) if classes else \
                (np.flatnonzero(g), 0, 1)
            vals, inv = _energy_split(self.lattice, m)
            # one stored entry per nonzero coefficient, built as CSR directly
            indptr = np.zeros(g.size + 1, dtype=np.int64)
            indptr[nz + 1] = 1
            cols = sp.csr_matrix((g[nz], inv[nz] * n_c + cls, np.cumsum(indptr)),
                                 shape=(g.size, vals.size * n_c))
            leaf = full_collision_matrix(self.lattice, m) @ cols
            if signs is not None:
                leaf.data *= np.repeat(signs[0], np.diff(leaf.indptr))
            return leaf

        key = None if field is None else field.fingerprint()
        return self._blocks.get(("leaf", m, key, classes), build)

    def _phases(self, m, gaps):
        """exp(-i * gap * E_m) as a (dim_m, len(gaps)) array."""
        vals, inv = _energy_split(self.lattice, m)
        table = np.exp(-1j * np.outer(vals, gaps))
        return table[inv, :]

    def _free(self, m, times):
        """(dim_m, n) free evolutions of gamma0^(m), in the gathered phase table."""
        table = self._phases(m, np.asarray(times))
        table *= self._gamma_flat(m)[:, None]
        return table

    def term_batch(self, k, j, times):
        """Duh_j at level k for a batch of times: an (n_modes, dim_k, n) array.

        A term that reads no field (depth 0, or vanishing data) is one
        read-only array broadcast over the modes.
        """
        self._check_depth(k, j)
        times = np.asarray(times, dtype=np.float64)
        shape = (len(self.modes), self.lattice.size ** (2 * k), times.size)
        if self._gamma_flat(k + j) is None:
            return np.broadcast_to(np.zeros(shape[1:], dtype=np.complex128), shape)
        if j == 0:
            return np.broadcast_to(self._free(k, times), shape)
        return self._chain_term(k, j, times, self.modes)[:, :, 0]

    def _check_depth(self, k, j):
        if j < 0:
            raise ValueError(f"depth {j} is negative")
        if k + j > self.state.K_max:
            raise ValueError(f"level {k}+depth {j} exceeds K_max={self.state.K_max}")

    def omega_norm(self, k, j, t, variant, alpha=1.0):
        """Exact L^2(Omega) H^alpha norm of Duh_j at level k and time t over
        `variant`'s fields: the root sum of squares of its class split."""
        self._check_depth(k, j)
        terms = self._class_terms(k, [j], [t], variant)[:, :, 0]
        return h_alpha_norm(self._wrap(k, _root_sum_squares(terms)), alpha)

    def _class_terms(self, k, depths, times, variant):
        """The sum of Duh_j at level k over `depths`, split for its exact
        average over the fields of `variant`: a (dim_k, P, n) array whose P
        columns, squared and added, give the average of |sum_j Duh_j|^2 per
        coefficient.  A field h enters as S_(m-1)(h) B_m S_m(h): the output
        sign is +-1 on each class of level m - 1, absorbed by the split
        there (or the H^alpha weights, at level k), and the input sign
        splits the square into class projections P_c by Walsh
        orthogonality.  Independent fields split the input of every B_m,
        m = k+1..k+j, by the classes of level m (`tensor.odd_classes`).  A
        shared h gives Duh_j^h gamma0 = S_k(h) Duh_j(S_(k+j)(h) gamma0): only
        the data at level k+j is split, by its classes (`_data_classes`).
        No field, or depth 0, takes none.  Depths add their columns of equal
        Walsh character (`_characters`) in order, refused above the cap.
        """
        _check_variant(variant)
        times = np.asarray(times, dtype=np.float64)
        dim = self.lattice.size ** (2 * k)
        depths = [j for j in depths if self._gamma_flat(k + j) is not None] \
            or list(depths)[:1]
        if len(depths) > 1:
            keys = [self._characters(k, j, variant, max(depths)) for j in depths]
            paths, index = np.unique(np.concatenate(keys), axis=0, return_inverse=True)
            self._check_chain(k, 0, times.size, [], 1, len(paths))
            out = np.zeros((dim, len(paths), times.size), dtype=np.complex128)
            # one depth's characters are distinct, so no column repeats
            for j, cols in zip(depths, np.split(index.reshape(-1), np.cumsum(
                    [len(key) for key in keys])[:-1])):
                part = self._class_terms(k, [j], times, variant)
                if j == 0:
                    rows = np.flatnonzero(self._gamma_flat(k))
                    out[rows, cols] += part[rows, 0]
                    continue
                # column by column: out[:, c] is a view, so the add gathers
                # and scatters no copy of the split
                for i, c in enumerate(cols):
                    out[:, c] += part[:, i]
            return out
        (j,) = depths
        if self._gamma_flat(k + j) is None:
            return np.zeros((dim, 1, times.size), dtype=np.complex128)
        if j == 0:
            return self._free(k, times)[:, None]
        by_class = {"independent": range(k + 1, k + j + 1),
                    "dependent": (k + j,)}.get(variant, ())
        return self._chain_term(k, j, times, [None], by_class)[0]

    def _characters(self, k, j, variant, length):
        """Each column's Walsh character prod_m chi_(c_(m-1) xor c_m)(h_m) in
        the depth-j split at level k, c_m the input class of B_m and c_k the
        coefficient's, as class masks (`tensor._odd_masks`): c_(k+1)..c_(k+j)
        then c_(k+j) to `length` levels if independent, c_(k+j) if dependent,
        else none.  Depth 0 has a row per nonzero coefficient, its class c_(k+j)."""
        nz = np.flatnonzero(self._gamma_flat(k)) if j == 0 else [0]
        width = {"independent": length, "dependent": 1}.get(variant, 0)
        if not width:
            return np.zeros((len(nz), 0), dtype=np.int64)
        last = _odd_masks(self.lattice, k)[nz] if j == 0 else \
            data_classes(self.state, [k + j])
        # a split's columns run over the class paths with c_(k+1) slowest
        grid = [g.reshape(-1) for g in np.meshgrid(*(
            np.unique(_odd_masks(self.lattice, m)) for m in range(k + 1, k + j)
            if width > 1), last, indexing="ij")]
        return np.stack(grid[:-1] + grid[-1:] * (width - len(grid) + 1), axis=1)

    def _chain_term(self, k, j, times, modes, by_class=()):
        """Duh_j at level k (j >= 1) by energy chains; see the module docstring.

        Returns the (len(modes), dim_k, P, n) terms, each mode's under its
        fields on levels k+1..k+j (none for a mode None).  With `by_class`
        (modes [None]) its levels take the input of their collision per
        class, the leaf's per class of the data, and P counts the class
        paths; without it P = 1.  Each mode climbs from the nonzero columns
        of its leaf block, column e n_top + c on path c and suffix e, and
        the modes share their scalars.
        """
        n_top = self._data_classes(k + j)[2] if k + j in by_class else 1
        n_cls = [self._class_count(m, m in by_class) for m in range(k + 1, k + j)]
        self._check_chain(k, j, times.size, n_cls + [n_top], len(modes),
                          math.prod(n_cls) * n_top)
        x, _ = self._gl
        # nodes[i]: the Gauss-Legendre tree's time nodes at level k + i
        nodes = [times]
        for _ in range(j):
            nodes.append((0.5 * nodes[-1][:, None] * (x + 1.0)).reshape(-1))
        out = np.zeros((len(modes), self.lattice.size ** (2 * k),
                        math.prod(n_cls) * n_top, times.size), dtype=np.complex128)
        # the leaf: one chain column per energy e of level k + j (and class
        # c), with the block B P_e gamma0 and the scalar e^(-ieu) at the
        # deepest nodes
        vals = _energy_split(self.lattice, k + j)[0]
        dim_leaf = self.lattice.size ** (2 * (k + j - 1))
        step = max(1, CHAIN_CAP // max(dim_leaf * n_top, nodes[j].size))
        for lo in range(0, vals.size, step):
            hi = min(lo + step, vals.size)
            f = np.exp(-1j * np.outer(nodes[j], vals[lo:hi]))
            # the levels below share their scalars across the modes
            memo = {} if len(modes) > 1 else None
            for mode, term in zip(modes, out):
                leaf = self._leaf(k + j, _field(mode, k + j), k + j in by_class)
                if step < vals.size:
                    leaf = leaf[:, lo * n_top:hi * n_top]
                W, keep = _nonzero_columns(leaf.toarray())
                self._climb(k, k + j - 1, W, keep % n_top, keep // n_top, n_top, f,
                            nodes, term, mode, memo, by_class)
        out *= (-1j) ** j
        return out

    def _check_chain(self, k, j, n_times, n_cls, n_modes, n_out):
        """Raise before allocating if a chain column or the terms exceed the cap.

        n_cls[i] is the class count a chain block carries for level k+1+i
        (1 without classes), n_out the class paths of each of the n_modes
        terms."""
        F = self.lattice.size
        name = lattice_field(self.lattice.d)
        n_nodes = n_times * self.quad.q ** j
        # a chain column at level m carries the class paths of levels
        # m+1..k+j; the top level has the most rows when there are none
        for m in range(k + j - 1, k - 1, -1):
            dim, width = F ** (2 * m), math.prod(n_cls[m - k:])
            levels = f"level {m + 1}" if m + 1 == k + j else \
                f"levels {m + 1}..{k + j}"
            per = "" if width == 1 else \
                f" for each of {width} class paths of {levels}"
            check_size(name, f"a depth-{j} Duhamel chain block at level {m} "
                       f"has F^{2 * m} = {dim} rows per chain column{per}, F = "
                       f"{F}", dim * width, CHAIN_CAP)
        check_size("q", f"the depth-{j} Gauss-Legendre tree over {n_times} "
                   f"times has {n_nodes} nodes at q={self.quad.q}", n_nodes,
                   CHAIN_CAP)
        # one unsplit term is what a single mode needs; more must fit the cap
        size = n_modes * n_out * F ** (2 * k) * n_times
        if n_modes * n_out > 1:
            check_size(name, f"the Duhamel terms at level {k} over {n_times} "
                       f"times hold {size} entries for {n_out} class paths x "
                       f"{n_modes} modes, F = {F}", size, CHAIN_CAP)

    def _climb(self, k, level, W, path, suffix, P, f, nodes, out, mode, memo,
               by_class=()):
        """Carry one chunk of chains from `level` up to level k into `out`.

        W (dim_level x n) holds the nonzero columns of one mode's chain
        block at `level`, column i on class path path[i] of P (0 of 1
        without `by_class`) and on suffix suffix[i], a column of f: the
        scalar functions of the chain suffixes at the time nodes of level
        + 1.  One step prepends the energy e of `level` to every suffix,
        new suffix e c + suffix for f's c suffixes: the scalar half computes
        f'(e, suffix; s) = sum_r wu_r e^(-ie(s - u_r)) f(suffix; u_r),
        and above level k the vector half applies B_level P_e under the
        mode's field of `level` (none for a mode None), and B_level P_e P_c
        for every class c of `level` if `by_class` holds `level`, new path
        c P + path, in one product that drops its vanishing columns (a NaN
        does not vanish).  At level k the columns add per class path into
        the mode's (dim_k, P, n) `out` (`_contract`).  `memo`, when not
        None, keeps the scalars of this call's chunks (and of the levels
        below) for the other climbs that make the same call with another W.
        """
        vals, inv = _energy_split(self.lattice, level)
        x, w = self._gl
        s = nodes[level - k]
        c = f.shape[1]
        n_cls = self._class_count(level, level in by_class)
        dim_next = self.lattice.size ** (2 * (level - 1)) if level > k else 0
        # a chunk of (energies x suffixes) scalars, and of product columns:
        # each of its columns has one per energy, class and column of W,
        # and at most `most` columns of W share a suffix
        most = max(1, np.bincount(suffix, minlength=1).max())
        per_col = max(dim_next * n_cls * most, s.size)
        n_e = min(vals.size, max(1, CHAIN_CAP // max(per_col, s.size * x.size)))
        n_c = max(1, CHAIN_CAP // (per_col * n_e))
        for lo in range(0, vals.size, n_e):
            hi = min(lo + n_e, vals.size)
            E = None
            split = None
            for c0 in range(0, c, n_c):
                c1 = min(c0 + n_c, c)
                sel = np.flatnonzero((suffix >= c0) & (suffix < c1))
                if not sel.size:
                    continue
                key = (lo, hi, c0, c1)
                entry = None if memo is None else memo.get(key)
                if entry is None:
                    if E is None:
                        wu = 0.5 * s[:, None] * w
                        gap = 0.5 * s[:, None] * (1.0 - x)     # s - u_r
                        E = _block_diagonal(wu[:, None, :] * np.exp(
                            -1j * vals[None, lo:hi, None] * gap[:, None, :]))
                    # a sparse product, not BLAS, so no bit depends on the
                    # thread count
                    entry = ((E @ f[:, c0:c1]).reshape(s.size, hi - lo, -1),
                             None if memo is None else {})
                    if memo is not None:
                        memo[key] = entry
                fn, below = entry
                if level == k:
                    rows = np.flatnonzero((inv >= lo) & (inv < hi))
                    _contract(out, rows, W, sel, path, suffix - c0, inv[rows] - lo, fn)
                    continue
                if split is None:
                    split = self._split(level, lo, hi, level in by_class)
                Wn, keep = _nonzero_columns(conjugate(
                    lambda X: real_matmul(split, X).reshape(dim_next, -1),
                    W if sel.size == W.shape[1] else W[:, sel],
                    self._signs(level, _field(mode, level))))
                e, cls, i = np.unravel_index(keep, (hi - lo, n_cls, sel.size))
                self._climb(k, level - 1, Wn, cls * P + path[sel[i]],
                            e * (c1 - c0) + suffix[sel[i]] - c0, n_cls * P,
                            fn.reshape(s.size, -1), nodes, out, mode, below, by_class)

    def collide(self, m, batch):
        """B_m under each mode's level-m field, applied to that mode's array.

        `batch` is (n_modes, dim_m, n); returns (n_modes, dim_(m-1), n),
        each mode's S_(m-1)(h) B_m (S_m(h) x) with the deterministic matrix
        and the cached signs on the array (`conjugate`).
        """
        apply = functools.partial(real_matmul, full_collision_matrix(self.lattice, m))
        return np.stack([conjugate(apply, x, self._signs(m, _field(mode, m)))
                         for mode, x in zip(self.modes, batch)])

    def solution_batch(self, N, k, times):
        """Truncated-hierarchy solution at level k; sum of Duh_0..Duh_(N-k).

        An (n_modes, dim_k, n) array, read-only and broadcast over the
        modes when it is a single term that reads no field.
        """
        if k > N:
            raise ValueError("level k must be <= truncation N")
        times = np.asarray(times, dtype=np.float64)
        parts = [self.term_batch(k, j, times) for j in range(0, N - k + 1)
                 if k + j <= self.state.K_max]
        if len(parts) == 1:
            return parts[0]
        acc = np.zeros(parts[0].shape, dtype=np.complex128)
        for part in parts:
            acc += part
        return acc

    def _wrap(self, k, col):
        shape = (self.lattice.size,) * (2 * k)
        return DensityMatrix(self.lattice, k, "dense", data=col.reshape(shape).copy())

    def term(self, k, j, t):
        """Duh_j at level k and time t, one DensityMatrix per mode.

        Depth 0 is the free evolution of gamma0^(k); depth j >= 1 is the
        j-fold nested integral with the (-i)^j prefactor, alternating free
        evolution and full collisions with each mode's per-level fields.
        """
        return [self._wrap(k, term[:, 0]) for term in self.term_batch(k, j, [t])]

    def solution(self, N, k, t):
        """Explicit depth-N truncated solution at level k, one per mode."""
        return [self._wrap(k, sol[:, 0]) for sol in self.solution_batch(N, k, [t])]


def integral_residual(ev, N, k, t, alpha=1.0):
    """H^alpha norms of the integral-equation defect of the truncated solution.

    Measures gamma^(k)(t) - U(t) gamma0^(k) + i * int_0^t U(t-s)
    [B^(k+1)] gamma^(k+1)(s) ds with gamma the truncated solution built by
    the evaluator `ev`, one norm per mode of `ev`; for k <= N-1 this
    vanishes up to quadrature error.  The integrand collides the level-(k+1)
    solution at the quadrature nodes (`collide`); it never reuses the leaf
    blocks B P_e gamma0 that the solutions are built from, since a residual
    assembled from the same blocks as the solution would vanish by
    construction and check nothing.  Below the top level the solution is
    formed at all nodes at once.  At k = N-1 it is the top level's free
    flow, the same for every mode, which is formed and collided one node
    at a time, so no top-level block over the nodes exists; per node and
    per column the products are those of the batch, so the norms are its
    bits.
    """
    if k > N - 1:
        raise ValueError("residual is defined for levels k <= N-1")
    x, w = ev._gl
    nodes = 0.5 * t * (x + 1.0)
    weights = 0.5 * t * w
    sol = ev.solution_batch(N, k, [t])[:, :, 0]
    free_k = ev._free(k, [t])[:, 0] if ev._gamma_flat(k) is not None \
        else np.zeros(sol.shape[1], dtype=np.complex128)
    if t > 0:
        if k < N - 1:
            integrand = ev.collide(k + 1, ev.solution_batch(N, k + 1, nodes))
        else:
            ev._check_depth(N, 0)
            integrand = np.zeros(sol.shape + nodes.shape, dtype=np.complex128)
            if ev._gamma_flat(N) is not None:
                for i, s in enumerate(nodes):
                    free = ev._free(N, [s])
                    integrand[:, :, i] = ev.collide(N, np.broadcast_to(
                        free, (len(ev.modes),) + free.shape))[:, :, 0]
        integrand *= ev._phases(k, t - nodes)
    out = []
    for i, row in enumerate(sol):
        resid = row - free_k
        if t > 0:
            resid = resid + 1j * (integrand[i] @ weights)
        out.append(h_alpha_norm(ev._wrap(k, resid), alpha))
    return np.array(out)


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


def decay_profile(state0, k, t, variant, j_max, quad=None, alpha=1.0):
    """Norms of Duh_j for j = 0..j_max plus factorial-normalized diagnostics.

    The H^alpha norms of Duh_0..Duh_j_max are averaged in L^2(Omega) over
    the sign fields of `variant` exactly, with no field drawn, by one
    class-split climb per depth (`DuhamelEvaluator.omega_norm`).  The
    normalized value is a_j = |Duh_j| * j! / (t^j * prod_{i<j}(k+i)).
    """
    ev = DuhamelEvaluator(state0, quad=quad)
    norms = [ev.omega_norm(k, j, t, variant, alpha) for j in range(j_max + 1)]
    normalized = []
    for j, nj in enumerate(norms):
        scale = t**j / math.factorial(j) if t > 0 or j == 0 else 0.0
        growth = math.prod(range(k, k + j)) if j > 0 else 1.0
        normalized.append(nj / (scale * growth) if scale > 0 else np.nan)
    return np.array(norms), np.array(normalized)


def solution_time_modulus(state0, N, base_times, deltas, variant, quad=None,
                          alpha=1.0, xi=0.5):
    """Measured time-modulus ratios of the truncated solution.

    For each delta, returns the sup over base times of
    |Gamma_N(t + delta) - Gamma_N(t)| in the field-averaged xi-weighted
    norm, divided by sqrt(delta).  Each level norm is averaged exactly
    over the sign fields of `variant` on levels 2..N by one class split
    (`DuhamelEvaluator._class_terms`).  A NaN norm makes its ratio NaN.
    """
    base_times = np.asarray(base_times, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    times = np.concatenate([base_times] +
                           [base_times + d for d in deltas])
    nb = base_times.size
    ev = DuhamelEvaluator(state0, quad=quad)
    weighted = np.zeros((deltas.size, nb))
    for k in range(1, N + 1):
        sol = ev._class_terms(k, range(N - k + 1), times, variant)
        dg = sol[:, :, nb:].reshape(*sol.shape[:2], -1, nb) - sol[:, :, None, :nb]
        weighted += xi**k * np.array([[h_alpha_norm(ev._wrap(k, _root_sum_squares(
            dg[:, :, di, ti])), alpha) for ti in range(nb)] for di in range(len(deltas))])
    return {float(d): s / np.sqrt(d) for d, s in zip(deltas, np.max(weighted, axis=1))}


def cauchy_diagnostic(state0, Ns, T, variant, quad=None, alpha=1.0, xi=0.5,
                      grid_times=(0.0, 0.05, 0.1)):
    """Collision-weighted size of consecutive truncation increments.

    For each N, computes D(N): the sup over the grid of the xi-weighted
    sum over k of the averaged H^alpha norms of [B^(k+1)] applied to
    (Gamma_(N+1) - Gamma_N) at level k+1.  The increment identity
    Gamma_(N+1)^(m) - Gamma_N^(m) = Duh_(N+1-m) is used directly.  The
    average over the fields of `variant` is exact, with no field drawn:
    B_(k+1) takes the class-split terms of `_class_terms`, lifted by the
    classes of level k+1 (`dynamics._lift`) where its own field splits its
    input.  That is every level if independent, and if dependent only the
    free term at N = k, since at depth >= 1 the shared field's
    S_(k+1)(h)^2 = 1 cancels it.  At one BLAS thread on a 2-core host,
    independent d=1 M=1 N=5 takes about 0.8 s and 320 MiB resident (250
    MiB traced).
    """
    if max(Ns) + 1 > state0.K_max:
        raise ValueError(f"need K_max >= {max(Ns) + 1}")
    grid = np.asarray(grid_times, dtype=np.float64)
    lat = state0.lattice
    ev = DuhamelEvaluator(state0, quad=quad)

    def norms(N, k):
        """[ti]: averaged H^alpha norm of the level-k collision of Duh_(N-k)."""
        C = full_collision_matrix(lat, k + 1)
        if variant == "independent" or (variant == "dependent" and N == k):
            C = _lift(C, *odd_classes(lat, k + 1))
        terms = ev._class_terms(k + 1, [N - k], grid, variant)
        cols = real_matmul(C, terms).reshape(lat.size ** (2 * k), -1, grid.size)
        return np.array([h_alpha_norm(ev._wrap(k, _root_sum_squares(cols[:, :, i])),
                                      alpha) for i in range(grid.size)])

    return np.array([np.max(sum(xi**k * norms(N, k) for k in range(1, N + 1)))
                     for N in Ns])
