"""Free evolution, collision operators, truncated-hierarchy evolution.

A collision summand reads its contracted pair (a, b) only through the
shift s = a - b, so every collision factors through one shift table
(`_roles`).  Joined with the pairs, the table gives the triplets of the
cached scipy.sparse matrices; above MATRIX_DOMAIN_CAP, the gather kernel
sums gamma over the pairs of each shift once (`_pair_reduce`), then
gathers each term from that buffer (memory-lean, any size).  `collision`
and `full_collision` pick between the two by F^(2m) alone (`_apply`).

Every kernel and cached matrix is deterministic.  A sign field h enters
only as the diagonal S_k(h) of h over all 2k slots (`sign_vector`): the
summand h(g) h(u) h(a) h(b) of an order-m collision is, entry by entry,
B^h = S_(m-1)(h) B S_m(h), since untouched slots meet as h^2 = 1.

The free flow is diagonal, and its phase depends on a coefficient only
through the level energy, which takes few distinct values (55 against
7^6 = 117,649 coefficients at d = 1, M = 3, order 3).  One cached energy
split per (lattice, order), `_energy_split`, gives the distinct energies
and each coefficient's index into them; `level_energy` gathers from it,
and every free-flow phase here and in `duhamel` is taken once per
distinct energy and gathered to the coefficients.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import tensor
from .tensor import DensityMatrix, HierarchyState, MemoryGuardError, h_alpha_norm

__all__ = [
    "HierarchyMode",
    "Trajectory",
    "free_evolve",
    "collision",
    "full_collision",
    "collision_matrix",
    "full_collision_matrix",
    "evolve_truncated",
    "continuity_defect",
    "phase_inequality_scan",
    "level_energy",
    "sign_vector",
    "conjugate",
    "conjugate_matrix",
]

# above this dense-domain size, collision matrices are not materialized
MATRIX_DOMAIN_CAP = 2**21


@dataclass(frozen=True)
class HierarchyMode:
    """Randomization mode: deterministic, one shared field, or per-level fields.

    Levels are indexed by the order of the collision input, i.e. the
    field for level m randomizes the collision gamma^(m) -> gamma^(m-1).
    """

    variant: str
    field: object = None
    fields: object = None

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
        try:
            return self.fields[level]
        except (KeyError, TypeError):
            raise ValueError(
                f"independent mode is missing a sign field for level {level}"
            ) from None


@dataclass
class Trajectory:
    """States sampled at grid times."""

    times: tuple
    states: list


# --- free evolution ---------------------------------------------------------

_SPLIT_CACHE = {}


def _energy_split(lattice, k):
    """(distinct energies, index of each coefficient's energy) of level k.

    The level energies are `vals[inv]`, so a phase f(vals)[inv] is f of
    every coefficient's energy, from vals.size evaluations of f.
    """
    tensor._check_guard(lattice, k)
    key = (lattice.d, lattice.M, k)
    if key not in _SPLIT_CACHE:
        e = lattice.energies
        # the energies are integers, so each one less the lowest is a bin, and
        # a bin's rank among the occupied bins is the index np.unique would
        # give; counting needs no sort, whose temporaries raise peak memory
        low = -k * int(e.max())
        bins = functools.reduce(np.add.outer, [e] * k + [-e] * k).reshape(-1)
        bins -= low
        occupied = np.bincount(bins) > 0
        vals = (np.flatnonzero(occupied) + low).astype(np.float64)
        _SPLIT_CACHE[key] = vals, (np.cumsum(occupied) - 1)[bins]
    return _SPLIT_CACHE[key]


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


# --- collision: pair reduction, then shift gather ---------------------------

_SHIFT_CACHE = {}
# shift-buffer entries per slab of the pair reduction, kept small and in cache
_SLAB = 2**12


def _shift_table(lattice):
    """F x F flat indices of the shifts x - y, lexicographic in [-2M, 2M]^d."""
    key = (lattice.d, lattice.M)
    if key not in _SHIFT_CACHE:
        pts, M = lattice.points, lattice.M
        strides = (4 * M + 1) ** np.arange(lattice.d - 1, -1, -1)
        _SHIFT_CACHE[key] = (pts[:, None] - pts[None] + 2 * M) @ strides
    return _SHIFT_CACHE[key]


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


def _pair_reduce(lat, m, x, n):
    """D[rest, s]: the sum of gamma = x (flat, order m) over the pairs of shift s.

    a and b sit at the pair slots (n, n'); rest are gamma's other axes in
    order, the output axes of every (ell, n) collision.  Row a of the shift
    table is the box a + 2M - [0, 2M]^d reversed, so each a adds a slab of
    gamma into a slice; leading axes are looped over until a slab is small.
    """
    F, side, d, M = lat.size, lat.side, lat.d, lat.M
    entries = F ** (2 * m - 2) * (4 * M + 1) ** d
    if entries > tensor.MEMORY_GUARD:
        raise MemoryGuardError(f"order-{m} collision shift buffer needs {entries} "
                               f"entries (> guard {tensor.MEMORY_GUARD})")
    # gamma as (unprimed rest, a, primed rest, b)
    v = np.moveaxis(x.reshape((F,) * (2 * m)), (n - 1, m + n - 1), (m - 1, 2 * m - 1))
    D = np.zeros(v.shape[:m - 1] + v.shape[m:-1] + (4 * M + 1,) * d,
                 dtype=np.complex128)
    lead = 0
    while lead < m - 1 and D.size > _SLAB * F**lead:
        lead += 1
    boxes = [(Ellipsis,) + tuple(slice(c + 2 * M, c - 1 if c else None, -1)
                                 for c in pt + M) for pt in lat.points]
    for i in np.ndindex(v.shape[:lead]):
        for a, box in enumerate(boxes):
            slab = v[i + (slice(None),) * (m - 1 - lead) + (a,)]
            D[i][box] += slab.reshape(slab.shape[:-1] + (side,) * d)
    return D.reshape(D.shape[:2 * m - 2] + (-1,))


def _collide(lat, m, x, terms):
    """Sum of coef times the (ell, n) collision over terms (ell, n, sign, coef).

    x and the result are flat tensors of orders m and m-1.  The terms share
    n, so one pair reduction serves them all; each term then gathers
    out[..g..] += coef sum_u D[..u.., s(g, u)] at its output axis.
    """
    roles = [_roles(lat, m, ell, n, sign)[1:] + (coef,)
             for ell, n, sign, coef in terms]
    D = _pair_reduce(lat, m, x, terms[0][1])
    out = np.zeros((lat.size,) * (2 * m - 2), dtype=np.complex128)
    u = np.arange(lat.size)
    for out_ax, gather, coef in roles:
        Dv = np.moveaxis(D, (out_ax, -1), (0, 1))  # (u, s, other output axes)
        ov = np.moveaxis(out, out_ax, 0)           # (g, other output axes)
        w = coef * np.ones(u.size)
        for g in range(u.size):
            ov[g] += (w @ Dv[u, gather[g]].reshape(u.size, -1)).reshape(ov.shape[1:])
    return out.reshape(-1)


def sign_vector(lattice, field, k):
    """S_k(h): the field h multiplied over all 2k slots of order k, flattened."""
    return tensor.slot_product(lattice, field.values.astype(np.float64), k)


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


def _apply(gamma, terms, field):
    """Sum of coef times the (ell, n, sign) collisions of gamma under the field.

    At or below MATRIX_DOMAIN_CAP the cached deterministic matrix applies
    the terms; above it `_collide` shares one pair reduction among them.
    """
    lat, m = gamma.lattice, gamma.k
    if m < 2:
        raise ValueError("collision input must have order >= 2")
    apply = (_matrix(lat, m, terms, None).__matmul__
             if lat.size ** (2 * m) <= MATRIX_DOMAIN_CAP
             else functools.partial(_collide, lat, m, terms=terms))
    signs = None if field is None else (sign_vector(lat, field, m - 1),
                                        sign_vector(lat, field, m))
    flat = conjugate(apply, gamma.to_dense().data.reshape(-1), signs)
    return DensityMatrix(lat, m - 1, "dense",
                         data=flat.reshape((lat.size,) * (2 * m - 2)))


def collision(gamma, ell, n, sign, field=None):
    """One collision operator: contract the pair at position n into slot ell.

    '+' substitutes the combined frequency g - a + b on the unprimed side and
    sums over the contracted pairs (a, b) whose combination stays in the box;
    '-' mirrors on the primed side.  With a sign field, each summand carries
    the four factors h(slot) h(combined) h(pair unprimed) h(pair primed).
    """
    return _apply(gamma, ((ell, n, sign, 1.0),), field)


def _full_terms(m):
    """The (ell, n, sign, coef) terms of the full collision at order m."""
    return tuple((j, m, sign, coef) for j in range(1, m)
                 for sign, coef in (("+", 1.0), ("-", -1.0)))


def full_collision(gamma, field=None):
    """Sum over j of the (j, m) plus-minus collision pairs (order m -> m-1).

    All 2(m-1) terms are one cached matrix, or share one pair reduction.
    """
    return _apply(gamma, _full_terms(gamma.k), field)


_MATRIX_CACHE = {}
# total nnz the cache may hold.  It holds deterministic matrices only, but
# one process sees many lattices and orders (a test run, a sweep over M), so
# an entry count alone would not bound memory; the oldest go first.
_MATRIX_CACHE_NNZ = 2**22


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


def conjugate_matrix(mat, lattice, field, m):
    """S_(m-1)(h) mat S_m(h), exact on a copy of mat's pattern; mat if no field."""
    if field is None:
        return mat
    rows = np.repeat(sign_vector(lattice, field, m - 1), np.diff(mat.indptr))
    data = mat.data * rows * sign_vector(lattice, field, m)[mat.indices]
    return sp.csr_matrix((data, mat.indices.copy(), mat.indptr.copy()),
                         shape=mat.shape)


def _matrix(lattice, m, terms, field):
    """Sum of coef times the (ell, n, sign) term matrices, built in one pass.

    Only the deterministic matrix is cached; a field reweights it.
    """
    F = lattice.size
    if F ** (2 * m) > MATRIX_DOMAIN_CAP:
        raise MemoryGuardError(f"order-{m} collision matrix domain "
                               f"{F ** (2 * m)} exceeds the cap {MATRIX_DOMAIN_CAP}")
    key = (lattice.d, lattice.M, m, terms)
    mat = _MATRIX_CACHE.get(key)
    if mat is None:
        rows, cols, vals = [], [], []
        for ell, n, sign, coef in terms:
            r, c = _collision_triplets(lattice, m, ell, n, sign)
            rows.append(r)
            cols.append(c)
            vals.append(np.full(r.size, coef))
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(F ** (2 * (m - 1)), F ** (2 * m))).tocsr()
        mat.eliminate_zeros()
        # summing duplicates leaves the arrays as views into the triplet-sized
        # buffers (up to twice nnz); the cache keeps a compact copy instead
        _MATRIX_CACHE[key] = mat = mat.copy()
        total = sum(c.nnz for c in _MATRIX_CACHE.values())
        for old in list(_MATRIX_CACHE)[:-1]:
            if total <= _MATRIX_CACHE_NNZ:
                break
            total -= _MATRIX_CACHE.pop(old).nnz
    return conjugate_matrix(mat, lattice, field, m)


def collision_matrix(lattice, m, ell, n, sign, field=None):
    """The (ell, n) collision as a sparse matrix on flattened tensors."""
    return _matrix(lattice, m, ((ell, n, sign, 1.0),), field)


def full_collision_matrix(lattice, m, field=None):
    """Matrix of the full collision operator at order m, '-' terms negated."""
    return _matrix(lattice, m, _full_terms(m), field)


# --- time evolution ---------------------------------------------------------


def _augmented_generator(lattice, N, mode, top0):
    """Generator of levels 1..N-1 plus one scalar state per top energy.

    The top level N is fed by nothing, so gamma_N(t) = sum_e exp(-ite) g_e
    with g_e the part of gamma_N(0) at energy value e.  Its feed into
    level N-1 is therefore sum_e w_e(t) B g_e, with B the order-N
    collision matrix and w_e' = -i e w_e, w_e(0) = 1.  The extra states
    make the system autonomous (Van Loan, IEEE TAC 23, 1978) without
    carrying level N itself.  Returns -i (diag E + coupling) on the
    augmented state.
    """
    top_vals, top_inv = _energy_split(lattice, N)
    groups = sp.csr_matrix(
        (top0, (np.arange(top0.size), top_inv)), shape=(top0.size, top_vals.size)
    )
    blocks = [[None] * N for _ in range(N)]
    for k in range(1, N):
        blocks[k - 1][k - 1] = sp.diags(level_energy(lattice, k))
        coupling = full_collision_matrix(lattice, k + 1, mode.field_for_level(k + 1))
        blocks[k - 1][k] = coupling @ groups if k == N - 1 else coupling
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
    The top level's phase at each grid time is taken once per distinct
    top energy and gathered to the coefficients through the cached energy
    split (`_energy_split`) that also groups the augmented states.
    States are recorded at grid_times (default: 0 and T); every level is
    checked finite at each of them.  `dt` is accepted for call
    compatibility and ignored: the exponential takes no step size.
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
    dims = [y.size for y in ys[: N - 1]]
    gen = _augmented_generator(lat, N, mode, ys[N - 1])
    z = np.concatenate(ys[: N - 1]
                       + [np.ones(gen.shape[0] - sum(dims), dtype=np.complex128)])
    offsets = np.cumsum(dims, dtype=np.int64)
    top_vals, top_inv = _energy_split(lat, N)

    states, times = [], []
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
        flats.append(ys[N - 1] * np.exp(-1j * t * top_vals)[top_inv])
        _check_finite(flats, t)
        times.append(t)
        states.append(HierarchyState(lat, N, {
            k: DensityMatrix(lat, k, "dense", data=flat.reshape((F,) * (2 * k)))
            for k, flat in enumerate(flats, start=1)
        }))
    return Trajectory(tuple(times), states)


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
