"""Free evolution, collision operators, truncated-hierarchy evolution.

A collision summand reads its contracted pair (a, b) only through the
shift s = a - b, so every collision factors through one shift table
(`_roles`).  Joined with the pairs, the table gives the triplets of the
cached scipy.sparse matrices; above MATRIX_DOMAIN_CAP, the gather kernel
(`_collide`) sums gamma over the pairs of each shift once and gathers
every term from that shift buffer, which it forms one index of its first
axis at a time, so the whole buffer never exists (memory-lean, any
size).  It sums with no BLAS call, so its bits do not depend on the BLAS
thread count.  One switch picks between the two by F^(2m) alone
(`_apply`), for `collision`, `full_collision` and `power_collision`.
The pair reduction reads gamma only slab by slab, so it also takes a
rank-one gamma = h (x) g as its two factors and forms each slab as it is
read: `power_collision` hands the switch a pure tensor power as that
pair, which only the matrix side multiplies out, so above the cap the
power costs the memory of one chunk of the shift buffer, not its own.

Every kernel and collision matrix is deterministic.  A sign field h
enters only as the diagonal S_k(h) of h over all 2k slots (`sign_vector`):
the summand h(g) h(u) h(a) h(b) of an order-m collision is, entry by
entry, B^h = S_(m-1)(h) B S_m(h), since untouched slots meet as h^2 = 1.
The signs go on the operand and on the product (`conjugate`); only the
generator's blocks below the top, which `expm_multiply` needs as matrices,
are signed copies (`_signed`).

The free flow is diagonal, and its phase depends on a coefficient only
through the level energy, which takes few distinct values (55 against
7^6 = 117,649 coefficients at d = 1, M = 3, order 3).  One cached energy
split per (lattice, order), `_energy_split`, gives the distinct energies
and each coefficient's index into them; `level_energy` gathers from it,
and every free-flow phase here and in `duhamel` is taken once per
distinct energy and gathered to the coefficients.

The collision matrices are real (coefficients +-1), so each product with
complex data runs on the data's float64 view (`real_matmul`): the same
products, summed in the same order, as the complex kernel, without a
complex copy of the matrix and with half the arithmetic.
"""

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import tensor
from .tensor import (DensityMatrix, HierarchyState, check_size, h_alpha_norm,
                     lattice_field)

__all__ = [
    "HierarchyMode",
    "Trajectory",
    "free_evolve",
    "collision",
    "full_collision",
    "power_collision",
    "collision_matrix",
    "full_collision_matrix",
    "evolve_truncated",
    "continuity_defect",
    "phase_inequality_scan",
    "level_energy",
    "sign_vector",
    "conjugate",
    "real_matmul",
]

# above this dense-domain size, collision matrices are not materialized
MATRIX_DOMAIN_CAP = 2**21

# the three hierarchies, by how their collisions share sign fields
VARIANTS = ("deterministic", "dependent", "independent")


def _check_variant(variant):
    """A ValueError naming `variant` unless it is one of VARIANTS."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class HierarchyMode:
    """Randomization mode: deterministic, one shared field, or per-level fields.

    Levels are indexed by the order of the collision input, i.e. the
    field for level m randomizes the collision gamma^(m) -> gamma^(m-1).
    """

    variant: str
    field: object = None
    fields: object = None

    def __post_init__(self):
        _check_variant(self.variant)
        if self.variant == "dependent" and self.field is None:
            raise ValueError("dependent mode needs a shared sign field")
        if self.variant == "independent" and not isinstance(self.fields, Mapping):
            raise ValueError("independent mode needs a mapping of levels to sign "
                             f"fields, got {type(self.fields).__name__}")
        given = self.field is not None or self.fields is not None
        if self.variant == "deterministic" and given:
            raise ValueError("deterministic mode takes no sign field")
        if self.variant == "dependent" and self.fields is not None:
            raise ValueError("dependent mode takes one shared field, not per-level fields")
        if self.variant == "independent" and self.field is not None:
            raise ValueError("independent mode takes per-level fields, not a shared field")

    @classmethod
    def deterministic(cls):
        return cls("deterministic")

    @classmethod
    def dependent(cls, field):
        return cls("dependent", field=field)

    @classmethod
    def independent(cls, fields):
        return cls("independent", fields=dict(fields))

    def field_for_level(self, level):
        if self.variant != "independent":
            return self.field  # None when deterministic
        if level not in self.fields:
            raise ValueError(f"independent mode is missing a sign field for level "
                             f"{level}")
        return self.fields[level]


@dataclass
class Trajectory:
    """The truncated hierarchy sampled at grid times, its top level stored once.

    `lower[i]` holds levels 1..N-1 at `times[i]`.  The top level N is free
    flow, so only gamma_N(0) is stored (`top`) and `level(i, N)` forms it at
    times[i] by `free_evolve` on each call: a trajectory holds
    dim_N + len(times) sum_(k<N) dim_k coefficients.
    """

    times: tuple
    lower: list
    top: DensityMatrix

    def level(self, i, k):
        """Level k at times[i]; the stored matrix below the top level."""
        if not 1 <= k <= self.top.k:
            raise ValueError(f"level {k} outside 1..{self.top.k}")
        if k == self.top.k:
            return free_evolve(self.top, self.times[i])
        return self.lower[i][k - 1]

    @property
    def states(self):
        """The HierarchyState at each grid time, built when it is indexed.

        A state shares the stored lower levels and forms its own top level.
        """
        return _States(self)


class _States(Sequence):
    """A trajectory's states, each built when it is indexed."""

    def __init__(self, traj):
        self._traj = traj

    def __len__(self):
        return len(self._traj.times)

    def __getitem__(self, i):
        i = range(len(self))[i]
        traj = self._traj
        N = traj.top.k
        return HierarchyState(traj.top.lattice, N, {k: traj.level(i, k)
                                                    for k in range(1, N + 1)})


# --- free evolution ---------------------------------------------------------

def _energy_split(lattice, k):
    """(distinct energies, index of each coefficient's energy) of level k.

    The level energies are `vals[inv]`, so a phase f(vals)[inv] is f of
    every coefficient's energy, from vals.size evaluations of f.
    """
    tensor._check_guard(lattice, k)

    def build():
        e = lattice.energies
        # the energies are integers, so each one less the lowest is a bin, and
        # a bin's rank among the occupied bins is the index np.unique would
        # give; counting needs no sort, whose temporaries raise peak memory
        low = -k * int(e.max())
        bins = functools.reduce(np.add.outer, [e] * k + [-e] * k).reshape(-1)
        bins -= low
        occupied = np.bincount(bins) > 0
        vals = (np.flatnonzero(occupied) + low).astype(np.float64)
        return vals, (np.cumsum(occupied) - 1)[bins]

    return tensor._TABLES.get(("energies", lattice.d, lattice.M, k), build)


def level_energy(lattice, k):
    """Flat array of |xi_vec|^2 - |xi'_vec|^2 over the order-k index space."""
    vals, inv = _energy_split(lattice, k)
    return vals[inv]


def free_evolve(gamma, t):
    """Multiply the coefficient at (xi; xi') by exp(-it(|xi|^2 - |xi'|^2)).

    The phase uses the total energy difference, so coefficients with
    |xi|^2 = |xi'|^2 are exactly unchanged.  It is taken once per distinct
    energy and gathered (`_energy_split`).
    """
    lat = gamma.lattice
    if gamma.storage == "coo":
        e = lat.energies
        k = gamma.k
        tot = e[gamma.indices[:, :k]].sum(axis=1) - e[gamma.indices[:, k:]].sum(axis=1)
        vals = gamma.values * np.exp(-1j * t * tot)
        return DensityMatrix(lat, k, "coo", indices=gamma.indices.copy(), values=vals)
    vals, inv = _energy_split(lat, gamma.k)
    # the gathered phase stays a fresh temporary on the right of `*`, so numpy
    # multiplies into it in place, as for data * exp(-1j t energy): a reshaped
    # view of it takes the out-of-place loop, which can round differently
    flat = gamma.data.reshape(-1) * np.exp(-1j * t * vals)[inv]
    return DensityMatrix(lat, gamma.k, "dense", data=flat.reshape(gamma.data.shape))


# --- collision: pair reduction and shift gather, streamed --------------------

# shift-buffer entries per slab of the pair reduction, kept small and in cache
_SLAB = 2**12


def _shift_table(lattice):
    """F x F flat indices of the shifts x - y, lexicographic in [-2M, 2M]^d."""
    def build():
        pts, M = lattice.points, lattice.M
        strides = (4 * M + 1) ** np.arange(lattice.d - 1, -1, -1)
        return (pts[:, None] - pts[None] + 2 * M) @ strides

    return tensor._TABLES.get(("shifts", lattice.d, lattice.M), build)


def _roles(lattice, m, ell, n, sign):
    """Axis layout and gather table of the (ell, n) collision at order m.

    Returns the input axes (combined slot, unprimed pair slot, primed pair
    slot), the output axis and the shift s of each (g, u): the combined
    frequency is u = g - s ('+') or u = g + s ('-'), s = a - b for the
    values a, b at the unprimed and primed pair slots (`_shift_table`).
    """
    if not (1 <= ell < n <= m):
        raise ValueError(f"positions must satisfy 1 <= ell < n <= m, got "
                         f"ell={ell}, n={n}, m={m}")
    if sign == "+":
        comb, out_ax = ell - 1, ell - 1
    elif sign == "-":
        comb, out_ax = m + ell - 1, (m - 1) + (ell - 1)
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    shift = _shift_table(lattice)
    return (comb, n - 1, m + n - 1), out_ax, shift if sign == "+" else shift.T


def _collide(lat, m, x, terms):
    """Sum of coef times the (ell, n) collision over terms (ell, n, sign, coef).

    x is gamma of order m, flat or as a rank-one pair (h, g) with
    gamma = h (x) g, h and g of shape (F,)*m; the result is a flat tensor
    of order m-1.  The terms share n, so they share the pair reduction
    D[rest, s]: the sum of gamma over the pairs (a, b) at the slots (n, n')
    with shift s = a - b, rest being gamma's other axes in order, the
    output axes of every term.  D is formed one index i0 of its first axis
    at a time, and each term gathers from that chunk at once:
    out[..g..] += coef sum_u D[..u.., s(g, u)] at its output axis.  The
    first axis is the output axis only of (1, n, '+'), for which u = i0
    and every g reads the chunk; every other term writes only out[i0].
    The sums over u run in a fixed order with no BLAS call, so the result
    does not depend on the BLAS thread count.

    A chunk is built slab by slab from gamma, v[i0, i..., a] with v = gamma
    as (unprimed rest, a, primed rest, b): row a of the shift table is the
    box a + 2M - [0, 2M]^d reversed, so each a adds a slab into a slice,
    and the chunk's own leading axes are looped over until a slab is
    small.  A rank-one gamma's slab is the outer product of h'[i0, i..., a]
    with g', h' and g' being h and g with the pair axis last, formed when
    the loop reads it, so gamma never exists.
    """
    F, side, d, M = lat.size, lat.side, lat.d, lat.M
    # the guard bounds the whole pair-reduced sum, though one F-th of it is
    # held at a time
    entries = F ** (2 * m - 2) * (4 * M + 1) ** d
    check_size(lattice_field(d), f"the order-{m} collision shift buffer has "
               f"F^{2 * m - 2} (4M+1)^d = {entries} entries, F = {F}", entries,
               tensor.MEMORY_GUARD)
    n = terms[0][1]
    roles = [_roles(lat, m, ell, n, sign)[1:] + (coef,)
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
    while lead < m - 2 and chunk.size > _SLAB * F**lead:
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
                slab = slab_at((i0,) + i + (slice(None),) * (m - 2 - lead) + (a,))
                chunk[i][box] += slab.reshape(slab.shape[:-1] + (side,) * d)
        for out_ax, gather, coef in roles:
            if out_ax == 0:
                # u = i0 for every g: (other output axes, g)
                ov = np.moveaxis(out, 0, -1)
                ov += coef * by_shift[..., gather[:, i0]]
            else:
                # (u, g, other output axes), summed over u row by row
                X = np.moveaxis(by_shift, (out_ax - 1, -1), (0, 1))[u, gather.T]
                ov = np.moveaxis(out[i0], out_ax - 1, 0)
                ov += coef * X.sum(axis=0)
    return out.reshape(-1)


def sign_vector(lattice, field, k):
    """S_k(h): the field h multiplied over all 2k slots of order k, flattened."""
    return tensor.slot_product(lattice, field.values.astype(np.float64), k)


def _field_signs(lattice, field, m):
    """(S_(m-1)(h), S_m(h)), which conjugate an order-m collision under the
    field h; None if no field."""
    return None if field is None else (sign_vector(lattice, field, m - 1),
                                       sign_vector(lattice, field, m))


def conjugate(apply, x, signs):
    """s_out apply(s_in x) on the leading flat index; apply(x) if signs is None.

    Under a field h, an order-m collision takes signs = (S_(m-1)(h), S_m(h)).
    """
    if signs is None:
        return apply(x)
    s_out, s_in = signs
    tail = (1,) * (x.ndim - 1)
    out = apply(s_in.reshape((-1,) + tail) * x)
    return s_out.reshape((-1,) + tail) * out


def real_matmul(mat, x):
    """mat @ x for a real sparse mat and complex x, in real arithmetic.

    The real and imaginary parts of x are adjacent float64 columns of its
    view, so one real product gives both parts of every entry, each summed
    in the order of scipy's complex kernel; only the sign of an exact zero
    can differ.  x may be any array whose leading axis is mat's columns.
    """
    if mat.dtype.kind == "c":
        raise TypeError(f"real_matmul needs a real matrix, got {mat.dtype}")
    flat = np.ascontiguousarray(x, dtype=np.complex128).reshape(x.shape[0], -1)
    out = mat @ flat.view(np.float64)
    return out.view(np.complex128).reshape((mat.shape[0],) + x.shape[1:])


def _apply(lat, m, x, terms, field=None):
    """Sum of coef times the (ell, n, sign) collisions of gamma under the field.

    x is gamma of order m, flat or as a rank-one pair (h, g), gamma = h (x) g
    (no field).  The one kernel switch: at or below MATRIX_DOMAIN_CAP the
    cached matrix applies the terms (to a pair's outer product); above it
    `_collide` shares one pair reduction among them, reading a pair as is.
    """
    if m < 2:
        raise ValueError("collision input must have order >= 2")
    if lat.size ** (2 * m) <= MATRIX_DOMAIN_CAP:
        apply = functools.partial(real_matmul, _matrix(lat, m, terms))
        if isinstance(x, tuple):
            x = np.multiply.outer(*x).reshape(-1)
    else:
        apply = functools.partial(_collide, lat, m, terms=terms)
    flat = conjugate(apply, x, _field_signs(lat, field, m))
    return DensityMatrix(lat, m - 1, "dense",
                         data=flat.reshape((lat.size,) * (2 * m - 2)))


def collision(gamma, ell, n, sign, field=None):
    """One collision operator: contract the pair at position n into slot ell.

    '+' substitutes the combined frequency g - a + b on the unprimed side and
    sums over the contracted pairs (a, b) whose combination stays in the box;
    '-' mirrors on the primed side.  With a sign field, each summand carries
    the four factors h(slot) h(combined) h(pair unprimed) h(pair primed).
    """
    return _apply(gamma.lattice, gamma.k, gamma.to_dense().data.reshape(-1),
                  ((ell, n, sign, 1.0),), field)


def _full_terms(m):
    """The (ell, n, sign, coef) terms of the full collision at order m."""
    return tuple((j, m, sign, coef) for j in range(1, m)
                 for sign, coef in (("+", 1.0), ("-", -1.0)))


def full_collision(gamma, field=None):
    """Sum over j of the (j, m) plus-minus collision pairs (order m -> m-1).

    All 2(m-1) terms are one cached matrix, or share one pair reduction.
    """
    return _apply(gamma.lattice, gamma.k, gamma.to_dense().data.reshape(-1),
                  _full_terms(gamma.k), field)


def power_collision(phi, m, lattice):
    """full_collision(tensor.factorized(phi, m, lattice)), bitwise.

    The power h (x) conj(h), h the left-folded half power of phi, goes to
    `_apply` as a rank-one pair, whose outer product is the factorized
    power.  The gather kernel forms each slab from the two factors, with
    the same products as the power's entries, summed in the same order,
    so above the cap the F^(2m) power is never built.
    """
    half = tensor._half_power(phi, m, lattice)
    return _apply(lattice, m, (half, np.conj(half)), _full_terms(m))


# the lattice-only sparse matrices: the deterministic collisions and
# `duhamel`'s class-energy splits, within 2^22 nnz in all
_MATRIX_CACHE = tensor.Store(2**22)


def _check_matrix(lattice, m):
    """Raise before a matrix on the order-m domain above MATRIX_DOMAIN_CAP."""
    F = lattice.size
    check_size(lattice_field(lattice.d), f"the order-{m} collision matrix has "
               f"a domain of F^{2 * m} = {F ** (2 * m)} coefficients, F = {F}",
               F ** (2 * m), MATRIX_DOMAIN_CAP)


def _collision_triplets(lattice, m, ell, n, sign):
    """(rows, cols) of the unit summands of the (ell, n) collision, flattened.

    The join of the shift table with the term's gather table: every (g, u)
    meets every pair (a, b) of its shift.  Entry (e, rest) of the flat input
    indices at (u, a, b) is the column summand e reads, entry (e, rest) of
    the flat output indices at g the row it writes.
    """
    F = lattice.size
    in_axes, out_ax, gather = _roles(lattice, m, ell, n, sign)
    # F^4 <= F^(2m) <= MATRIX_DOMAIN_CAP: the comparison stays small
    e, pair = np.nonzero(gather.reshape(-1, 1) == _shift_table(lattice).reshape(1, -1))
    (g, u), (a, b) = np.divmod(e, F), np.divmod(pair, F)
    flat_in = np.arange(F ** (2 * m), dtype=np.int64).reshape((F,) * (2 * m))
    flat_out = np.arange(F ** (2 * m - 2), dtype=np.int64)
    cols = np.moveaxis(flat_in, in_axes, (0, 1, 2))[u, a, b]
    rows = np.moveaxis(flat_out.reshape((F,) * (2 * m - 2)), out_ax, 0)[g]
    return rows.reshape(-1), cols.reshape(-1)


def _signed(mat, signs):
    """s_out mat s_in for signs = (s_out, s_in), exact on a copy of mat's
    pattern: entry (r, c) times s_out[r] s_in[c]; mat if signs is None."""
    if signs is None:
        return mat
    s_out, s_in = signs
    data = mat.data * np.repeat(s_out, np.diff(mat.indptr)) * s_in[mat.indices]
    return sp.csr_matrix((data, mat.indices.copy(), mat.indptr.copy()),
                         shape=mat.shape)


def _lift(mat, labels, n):
    """The CSR matrix mat with entry (r, x) moved to row r n + labels[x],
    labels in 0..n-1: n times the rows, each new row in mat's order."""
    new_row = n * np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)) \
        + labels[mat.indices]
    order = np.argsort(new_row, kind="stable")
    indptr = np.searchsorted(new_row[order], np.arange(n * mat.shape[0] + 1))
    return sp.csr_matrix((mat.data[order], mat.indices[order], indptr),
                         shape=(n * mat.shape[0], mat.shape[1]))


def _matrix(lattice, m, terms):
    """Sum of coef times the (ell, n, sign) term matrices, cached, built in one pass."""
    _check_matrix(lattice, m)

    def build():
        rows, cols, vals = [], [], []
        for ell, n, sign, coef in terms:
            r, c = _collision_triplets(lattice, m, ell, n, sign)
            rows.append(r)
            cols.append(c)
            vals.append(np.full(r.size, coef))
        F = lattice.size
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(F ** (2 * (m - 1)), F ** (2 * m))).tocsr()
        mat.eliminate_zeros()
        # summing duplicates leaves the arrays as views into the triplet-sized
        # buffers (up to twice nnz); the cache keeps a compact copy instead
        return mat.copy()

    return _MATRIX_CACHE.get((lattice.d, lattice.M, m, terms), build)


def collision_matrix(lattice, m, ell, n, sign):
    """The deterministic (ell, n) collision matrix on flattened tensors."""
    return _matrix(lattice, m, ((ell, n, sign, 1.0),))


def full_collision_matrix(lattice, m):
    """Matrix of the deterministic full collision at order m, '-' terms negated."""
    return _matrix(lattice, m, _full_terms(m))


# --- time evolution ---------------------------------------------------------


def _augmented_generator(lattice, N, mode, top0):
    """Generator of levels 1..N-1 plus one scalar state per top energy.

    The top level N is fed by nothing, so gamma_N(t) = sum_e exp(-ite) g_e
    with g_e the part of gamma_N(0) at energy value e.  Its feed into
    level N-1 is therefore sum_e w_e(t) B g_e, with B the order-N
    collision matrix and w_e' = -i e w_e, w_e(0) = 1.  The extra states
    make the system autonomous (Van Loan, IEEE TAC 23, 1978) without
    carrying level N itself.  Under a field h, B g_e is S_(N-1)(h) B_N
    (S_N(h) g_e): the signs go on gamma_N(0) and on the rows of the
    product, so no signed copy of B_N is made.  Returns -i (diag E +
    coupling) on the augmented state.
    """
    top_vals, top_inv = _energy_split(lattice, N)
    blocks = [[None] * N for _ in range(N)]
    for k in range(1, N):
        blocks[k - 1][k - 1] = sp.diags(level_energy(lattice, k))
        if k < N - 1:
            # expm_multiply needs the matrix itself: the one signed copy
            signs = _field_signs(lattice, mode.field_for_level(k + 1), k + 1)
            blocks[k - 1][k] = _signed(full_collision_matrix(lattice, k + 1), signs)
    if N > 1:
        signs = _field_signs(lattice, mode.field_for_level(N), N)
        if signs is not None:
            top0 = signs[1] * top0
        groups = sp.csr_matrix((top0, (np.arange(top0.size), top_inv)),
                               shape=(top0.size, top_vals.size))
        coupling = full_collision_matrix(lattice, N) @ groups
        if signs is not None:
            # a negation commutes with rounding: bitwise the signed matrix's
            coupling.data *= np.repeat(signs[0], np.diff(coupling.indptr))
        blocks[N - 2][N - 1] = coupling
    blocks[N - 1][N - 1] = sp.diags(top_vals)
    return -1j * sp.bmat(blocks, format="csr")


def _check_finite(ys, t):
    for y in ys:
        if not np.all(np.isfinite(y)):
            raise RuntimeError(
                f"non-finite coefficient at t={t}; the truncated system is "
                "linear, so this indicates overflowing or corrupt data"
            )


def evolve_truncated(state0, N, T, mode=None, grid_times=None, *, dt=1e-3):
    """Exact trajectory of the truncated hierarchy, sampled at grid_times.

    The top level is free flow.  Levels 1..N-1, augmented by one state per
    distinct top-level energy (see `_augmented_generator`), are advanced
    across each grid interval by one `expm_multiply` call (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 2011), so grids may be non-uniform.
    Levels 1..N-1 are recorded at grid_times (default: 0 and T) and checked
    finite at each of them.  The top level is stored once, as gamma_N(0),
    and checked finite once, since the free flow only multiplies it by unit
    phases; the `Trajectory` forms it at a grid time when it is read.  `dt`
    is accepted for call compatibility and ignored: the exponential takes
    no step size.
    """
    # scipy.sparse.linalg costs ~10 MiB to import; runs that never evolve
    # the hierarchy do not pay it
    from scipy.sparse.linalg import expm_multiply

    if mode is None:
        mode = HierarchyMode.deterministic()
    lat = state0.lattice
    if grid_times is None:
        grid_times = (0.0, T)
    grid_times = tuple(float(t) for t in grid_times)
    if any(t < 0 or t > T + 1e-12 for t in grid_times):
        raise ValueError("grid times must lie in [0, T]")

    F = lat.size
    ys = [np.zeros(F ** (2 * k), dtype=np.complex128) if state0.level(k) is None
          else state0.level(k).to_dense().data.reshape(-1) for k in range(1, N + 1)]
    top = ys.pop()
    _check_finite([top], 0.0)
    dims = [y.size for y in ys]
    gen = _augmented_generator(lat, N, mode, top)
    z = np.concatenate(ys + [np.ones(gen.shape[0] - sum(dims), dtype=np.complex128)])
    offsets = np.cumsum(dims, dtype=np.int64)

    lower, times = [], []
    t = 0.0
    for gt in grid_times:
        if gt != t:
            # an interval short enough that scipy's scaled norm underflows
            # makes it pick zero steps and form an unused 0/0; the state is
            # then unchanged, and _check_finite still sees every output
            with np.errstate(invalid="ignore"):
                z = expm_multiply((gt - t) * gen, z)
        t = gt
        flats = [y.copy() for y in np.split(z, offsets)[: N - 1]]
        _check_finite(flats, t)
        times.append(t)
        lower.append(tuple(
            DensityMatrix(lat, k, "dense", data=flat.reshape((F,) * (2 * k)))
            for k, flat in enumerate(flats, start=1)))
    top = DensityMatrix(lat, N, "dense", data=top.reshape((F,) * (2 * N)).copy())
    return Trajectory(tuple(times), lower, top)


# --- time-continuity defect (free flow) --------------------------------------


def modulus_exponent(beta, beta0):
    """Holder exponent of the free-flow time modulus between H^beta0 and H^beta."""
    if beta <= 0 or beta0 <= beta:
        raise ValueError("need beta0 > beta > 0")
    return min(1.0, (beta0 - beta) / 2.0)


def continuity_defect(sigma, t, delta, beta, beta0):
    """Both sides of the free-flow modulus bound; lhs <= rhs is guaranteed.

    lhs is the H^beta norm of the free-flow increment between t and
    t + delta; rhs is 2^(1-r) delta^r times the H^beta0 norm, with
    r = (beta0-beta)/2 capped at 1.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    r = modulus_exponent(beta, beta0)
    diff = free_evolve(sigma, t + delta) - free_evolve(sigma, t)
    lhs = h_alpha_norm(diff, beta)
    rhs = 2.0 ** (1.0 - r) * delta**r * h_alpha_norm(sigma, beta0)
    return lhs, rhs, r


def phase_inequality_scan(lattice, k, beta, beta0, delta):
    """Per-coefficient modulus bound, exhaustively over energy patterns.

    Every coefficient slot of an order-k tensor realizes some tuple of
    per-axis energies; the bound |exp(-i delta E) - 1| <=
    2^(1-r) delta^r W^r with W the product of squared brackets depends
    only on that tuple, so scanning distinct tuples covers all slots.
    Returns (number of violations, worst lhs/rhs ratio, slots covered).
    """
    r = modulus_exponent(beta, beta0)
    evals, counts = np.unique(lattice.energies, return_counts=True)
    nd = 2 * k
    grids = np.meshgrid(*[evals.astype(np.float64)] * nd, indexing="ij")
    cgrids = np.meshgrid(*[counts.astype(np.int64)] * nd, indexing="ij")
    E = sum(g if ax < k else -g for ax, g in enumerate(grids))
    W = np.prod([1.0 + g for g in grids], axis=0)
    lhs = np.abs(np.exp(-1j * delta * E) - 1.0)
    rhs = 2.0 ** (1.0 - r) * delta**r * W**r
    violations = int(np.sum(lhs > rhs * (1 + 1e-12)))
    ratio = float(np.max(lhs / rhs))
    covered = int(np.sum(np.prod(np.array(cgrids, dtype=np.float64), axis=0)))
    return violations, ratio, covered
