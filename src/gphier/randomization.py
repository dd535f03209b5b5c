"""Bernoulli sign fields and averaged-norm estimation over them.

A sign field assigns +1/-1 to every lattice point and stands in for one
point of the Bernoulli probability space.  `omega_l2_h_alpha` is the one
routine that turns a hierarchy variant into its sample space Omega of
drawn fields and averages squared H^alpha norms over it, either exactly
(enumerating all 2^F sign assignments per drawn field) or by Monte Carlo
with counter-based, reproducible per-level streams.  It hands the whole
sample space to `norms` in one call: norms(modes) takes one mode per
point of Omega and returns one norm, or one array of norms, per mode in
the same order, so a caller can run them as one batch (one
`duhamel.DuhamelEvaluator`, whose modes share the scalar half of each
climb and its cached leaf blocks and sign vectors).  It is the
field-drawing side of `random.opnorm_majorizes_ratios` (`gph
estimate-c0`) and the test oracle of the exact averages that draw no
field.  Those split a uniform field's average into odd-multiplicity
classes by Walsh orthogonality (`tensor.odd_classes`): the Duhamel
averages of `duhamel`, and `collision_omega_operator_norm`, the norm of
one class-lifted matrix L by plain numpy Lanczos on L^T L, whose bits no
BLAS thread count moves, the same for every collision slot.  That norm
reads the lattice alone, so it is memoized per process, like the class
labels it is built from.
"""

from dataclasses import dataclass
import hashlib
import itertools
import struct

import numpy as np
import scipy.sparse as sp

from . import tensor
from .dynamics import HierarchyMode, _check_variant, _lift, collision_matrix
from .tensor import check_size, lattice_field, odd_classes, slot_product

__all__ = [
    "SignField",
    "all_plus",
    "sample_field",
    "randomize_function",
    "OmegaNormEstimate",
    "omega_l2_h_alpha",
    "enumerate_fields",
    "collision_omega_operator_norm",
]

# points of Omega an average holds at once, exact or Monte Carlo
ENUMERATION_CAP = 2**20
# largest domain (order-(k+1) coefficients) an operator norm is taken on
NORM_DOMAIN_CAP = 2**16


@dataclass(frozen=True)
class SignField:
    """Total +-1 assignment on the lattice with its seed provenance."""

    values: np.ndarray  # int8, shape (F,)
    provenance: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int8)
        if not np.all(np.abs(vals) == 1):
            raise ValueError("sign field values must be +1 or -1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def fingerprint(self):
        return self.values.tobytes()


def all_plus(lattice):
    """The constant +1 field (recovers the deterministic operators)."""
    return SignField(np.ones(lattice.size, dtype=np.int8), "all_plus")


def _philox_key(seed, level, sample):
    raw = struct.pack("<qqq", int(seed), int(level), int(sample))
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    return int.from_bytes(digest, "little")


def sample_field(lattice, seed, level=0, sample=0):
    """Independent +-1 per point from a counter-based generator.

    The Philox key is derived from (seed, level, sample), so per-level
    streams are disjoint and reproducible with no shared state.
    """
    bitgen = np.random.Philox(key=_philox_key(seed, level, sample))
    bits = np.random.Generator(bitgen).integers(0, 2, size=lattice.size)
    values = (2 * bits - 1).astype(np.int8)
    return SignField(values, f"philox(seed={seed},level={level},sample={sample})")


def randomize_function(f, field):
    """Multiply the coefficient at zeta by field(zeta) (sign randomization)."""
    f = np.asarray(f, dtype=np.complex128)
    return f * field.values


def enumerate_fields(lattice):
    """All 2^F sign fields in a fixed (lexicographic-bits) order."""
    return [SignField(np.array(bits, dtype=np.int8), "enumerated")
            for bits in itertools.product((1, -1), repeat=lattice.size)]


@dataclass(frozen=True)
class OmegaNormEstimate:
    """sqrt of the field-averaged squared H^alpha norm (a float or an array).

    For a Monte Carlo estimate, stderr is the standard error of the
    squared-norm mean (the pre-sqrt estimate); exact estimates carry
    stderr None.
    """

    value: object
    samples: int = 0
    stderr: object = None


def _squares(values):
    """Squares of one norm or an array of norms, each squared as a Python float.

    float ** 2 goes through libm pow, which differs from numpy's x * x in
    the last bit for about one value in 1,200; squaring every entry the
    same way keeps an array average bitwise equal to its scalar averages.
    """
    arr = np.asarray(values, dtype=np.float64)
    return np.array([v**2 for v in arr.ravel().tolist()]).reshape(arr.shape)


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def omega_l2_h_alpha(norms, variant, lattice, levels, mc_samples=0, seed=0):
    """L^2(Omega) average of the H^alpha norms `norms(modes)` over the sign fields.

    Each point of Omega draws the fields of `variant` (`dynamics.VARIANTS`):
    the shared field (keyed as level 0) if "dependent", one field per
    level of `levels` if "independent".  With mc_samples == 0 the average
    is exact over every joint assignment, in `enumerate_fields` order;
    otherwise sample i draws sample_field(lattice, seed, level=lv,
    sample=i).  norms is called once, with the list of the mode of every
    point in that order, and returns one H^alpha norm or one array of
    them per mode; the squares are folded in the same order, and the
    estimate holds the root mean square of each.  "deterministic", or
    empty `levels`, evaluates the deterministic mode once, a batch of one.
    More than ENUMERATION_CAP points, exact or sampled, is a MemoryGuardError
    before any field is drawn.
    """
    _check_variant(variant)
    if variant == "deterministic" or not levels:
        return OmegaNormEstimate(_scalar(norms([HierarchyMode.deterministic()])[0]))
    keys = [0] if variant == "dependent" else sorted(levels)

    def redrawn(fields):
        if variant == "dependent":
            return HierarchyMode.dependent(fields[0])
        return HierarchyMode.independent(dict(zip(keys, fields)))

    if not mc_samples:
        total = (2**lattice.size) ** len(keys)
        check_size(lattice_field(lattice.d), f"an exact average over every "
                   f"sign field on {len(keys)} levels has (2^F)^{len(keys)} = "
                   f"{total} assignments, F = {lattice.size}", total,
                   ENUMERATION_CAP)
        modes = [redrawn(combo) for combo in
                 itertools.product(enumerate_fields(lattice), repeat=len(keys))]
        acc = 0.0
        for value in norms(modes):
            acc = acc + _squares(value)
        return OmegaNormEstimate(_scalar(np.sqrt(acc / total)), total)
    if mc_samples < 2:
        raise ValueError("mc needs at least 2 samples")
    check_size("mc_samples", f"a Monte Carlo average holds the modes of its "
               f"{mc_samples} samples at once", mc_samples, ENUMERATION_CAP)
    modes = [redrawn([sample_field(lattice, seed, level=lv, sample=i)
                      for lv in keys])
             for i in range(mc_samples)]
    sq = np.stack([_squares(value) for value in norms(modes)], axis=-1)
    mean = np.mean(sq, axis=-1)
    stderr = np.std(sq, ddof=1, axis=-1) / np.sqrt(mc_samples)
    return OmegaNormEstimate(_scalar(np.sqrt(mean)), mc_samples, _scalar(stderr))


def collision_omega_operator_norm(lattice, k, j, alpha, randomized=True):
    """Exact operator norm of the (randomized) (j, k+1) collision on H^alpha.

    The map is gamma -> [B]^omega gamma into L^2(Omega; H^alpha) over all
    2^F sign fields, or the deterministic map if not `randomized`.  With W
    the weighted deterministic collision, field h gives S_k(h) W
    S_(k+1)(h), and E_h[S(h)_x S(h)_y] is 1 when inputs x and y hold the
    same lattice points an odd number of times among their 2(k+1) slots
    (one class), else 0.  So the averaged normal operator is L^T L, with L
    the matrix W with entry (r, x) moved to row r n + class(x) (n classes,
    `dynamics._lift`; one class, L = W, when deterministic).  Returns the
    largest singular value of L, by Lanczos on L^T L, with L^T taken once
    before the iteration.  No field is drawn, so this bound is independent
    of the enumerated averages it majorizes.  The norm depends on the
    lattice alone: it is computed once per (d, M, k, j, alpha, randomized)
    and process, after the size guard, and kept in `tensor._TABLES`.

    The norm does not depend on the slot j: swapping slots j and 1 of
    both index sides is a permutation of the coefficients that maps
    B_(j,k+1) to B_(1,k+1), keeps the product H^alpha weights (one bracket
    per slot) and keeps each input's multiset of lattice points, so its
    class.  `gph decay` therefore takes one norm per order, at j = 1.
    """
    F = lattice.size
    dom = F ** (2 * (k + 1))
    check_size(lattice_field(lattice.d), f"the order-{k + 1} operator norm has "
               f"a domain of F^{2 * k + 2} = {dom} coefficients, F = {F}", dom,
               NORM_DOMAIN_CAP)
    return tensor._TABLES.get(
        ("norm", lattice.d, lattice.M, k, j, alpha, randomized),
        lambda: _lanczos_norm(lattice, k, j, alpha, randomized))


def _lanczos_norm(lattice, k, j, alpha, randomized):
    """The norm of `collision_omega_operator_norm`, computed: the top
    singular value of the class-lifted matrix L, by Lanczos on L^T L."""
    dom = lattice.size ** (2 * (k + 1))
    w_in = slot_product(lattice, lattice.brackets**alpha, k + 1)
    w_out = slot_product(lattice, lattice.brackets**alpha, k)
    W = (sp.diags(w_out) @ (collision_matrix(lattice, k + 1, j, k + 1, "+")
                            - collision_matrix(lattice, k + 1, j, k + 1, "-"))
         @ sp.diags(1.0 / w_in))
    cls, n = odd_classes(lattice, k + 1) if randomized \
        else (np.zeros(dom, dtype=np.intp), 1)
    L = _lift(W, cls, n)
    Lt = L.T
    # Lanczos on L^T L from a seeded random start (a structured vector can be
    # orthogonal to the top eigenspace by symmetry); no reorthogonalization,
    # which only repeats converged Ritz values.  No BLAS reduction sets the
    # bits: np.add.reduce products, eigh of the small tridiagonal matrix.
    # Stop at residual beta |s_m| <= 4e-16 theta for the top Ritz pair
    # (theta, s), s_m its last entry, or after dom steps
    q = np.random.default_rng(2024).standard_normal(dom)
    q, q_prev, beta, alphas, betas = q / np.sqrt(np.add.reduce(q * q)), 0, 0, [], []
    for _ in range(dom):
        w = Lt @ (L @ q)
        alphas.append(np.add.reduce(q * w))
        w = w - alphas[-1] * q - beta * q_prev
        beta = np.sqrt(np.add.reduce(w * w))
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                  + np.diag(betas, -1))
        if beta * abs(s[-1, -1]) <= 4e-16 * theta[-1]:
            break
        betas.append(beta)
        q_prev, q = q, w / beta
    return float(np.sqrt(max(theta[-1], 0.0)))
