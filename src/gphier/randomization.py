"""Bernoulli sign fields and averaged-norm estimation over them.

A sign field assigns +1/-1 to every lattice point and stands in for one
point of the Bernoulli probability space.  `omega_l2_h_alpha` is the one
routine that turns a hierarchy mode into its sample space Omega and
averages squared H^alpha norms over it, either exactly (enumerating all
2^F sign assignments per redrawn field) or by Monte Carlo with
counter-based, reproducible per-level streams.  It hands the whole
sample space to its `norms` callable in one call: norms(modes) takes
the list of redrawn modes and returns one norm, or one array of norms,
per mode in the same order, so a caller can share work between modes
(`duhamel.DuhamelEvaluator` evaluates the batch in one climb).

`collision_omega_operator_norm` keeps its own field list on purpose: it
stacks one operator block per field instead of averaging norms, and it
is the independent cross-check that bounds the averages from above.
"""

from dataclasses import dataclass
import hashlib
import itertools
import struct

import numpy as np
import scipy.sparse as sp

from .dynamics import HierarchyMode, collision_matrix, conjugate_matrix, sign_vector
from .tensor import MemoryGuardError, slot_product

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

ENUMERATION_CAP = 2**20
# largest domain (order-(k+1) coefficients) an operator norm is taken on
NORM_DOMAIN_CAP = 2**16
# stacked operators up to this many entries take a dense SVD; larger ones
# iterate on the normal operator
DENSE_SVD_CAP = 12 * 2**20


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


def omega_l2_h_alpha(norms, mode, lattice, levels, mc_samples=0, seed=0):
    """L^2(Omega) average of the H^alpha norms `norms(modes)` over the sign fields.

    Each point of Omega redraws the mode's fields on `levels`: one field
    per level for an independent mode, the shared field (keyed as level
    0) for a dependent one.  With mc_samples == 0 the average is exact
    over every joint assignment, in `enumerate_fields` order; otherwise
    sample i draws sample_field(lattice, seed, level=lv, sample=i).
    norms is called once, with the list of every redrawn mode in that
    order, and returns one H^alpha norm or one array of them per mode;
    the squares are folded in the same order, and the estimate holds the
    root mean square of each.  A deterministic mode, or empty `levels`,
    is evaluated once as given, a batch of one.
    """
    levels = sorted(levels)
    if mode.variant == "deterministic" or not levels:
        return OmegaNormEstimate(_scalar(norms([mode])[0]))
    keys = [0] if mode.variant == "dependent" else levels

    def redrawn(fields):
        if mode.variant == "dependent":
            return HierarchyMode.dependent(fields[0])
        return HierarchyMode.independent({**mode.fields, **dict(zip(keys, fields))})

    if not mc_samples:
        total = (2**lattice.size) ** len(keys)
        if total > ENUMERATION_CAP:
            raise ValueError(
                f"exact enumeration needs {total} assignments "
                f"(> cap {ENUMERATION_CAP})"
            )
        modes = [redrawn(combo) for combo in
                 itertools.product(enumerate_fields(lattice), repeat=len(keys))]
        acc = 0.0
        for value in norms(modes):
            acc = acc + _squares(value)
        return OmegaNormEstimate(_scalar(np.sqrt(acc / total)), total)
    if mc_samples < 2:
        raise ValueError("mc needs at least 2 samples")
    modes = [redrawn([sample_field(lattice, seed, level=lv, sample=i)
                      for lv in keys])
             for i in range(mc_samples)]
    sq = np.stack([_squares(value) for value in norms(modes)], axis=-1)
    mean = np.mean(sq, axis=-1)
    stderr = np.std(sq, ddof=1, axis=-1) / np.sqrt(mc_samples)
    return OmegaNormEstimate(_scalar(np.sqrt(mean)), mc_samples, _scalar(stderr))


def collision_omega_operator_norm(lattice, k, j, alpha, fields=None):
    """Exact operator norm of the (randomized) (j, k+1) collision on H^alpha.

    The linear map gamma -> [B]^omega gamma is taken from the
    order-(k+1) H^alpha space into the stacked (field x space) H^alpha
    codomain, each field block weighted by 1/sqrt(#fields) so that the
    codomain norm is the L^2(Omega) average over `fields` (default: all
    2^F sign fields); fields=[None] gives the deterministic norm.
    Returns (sigma, stacked): stacked operators up to DENSE_SVD_CAP
    entries are materialized and take a dense SVD; larger ones iterate on
    the normal operator and return None for the matrix.  Each field's
    block is the deterministic operator conjugated by the field's signs.

    The field list is built here, not through `omega_l2_h_alpha`, on
    purpose: this stacks an operator rather than averaging norms, and it
    is the independent cross-check behind `random.opnorm_majorizes_ratios`.
    """
    import scipy.sparse.linalg as spla

    F = lattice.size
    dom = F ** (2 * (k + 1))
    if dom > NORM_DOMAIN_CAP:
        raise MemoryGuardError(
            f"operator-norm domain dimension {dom} exceeds the cap "
            f"{NORM_DOMAIN_CAP}"
        )
    if fields is None:
        fields = enumerate_fields(lattice)
    w_in = slot_product(lattice, lattice.brackets**alpha, k + 1)
    w_out = slot_product(lattice, lattice.brackets**alpha, k)
    base = (collision_matrix(lattice, k + 1, j, k + 1, "+")
            - collision_matrix(lattice, k + 1, j, k + 1, "-"))
    scale = 1.0 / np.sqrt(len(fields))
    if dom * base.shape[0] * len(fields) <= DENSE_SVD_CAP:
        blocks = (conjugate_matrix(base, lattice, f, k + 1).toarray() for f in fields)
        stacked = np.vstack([scale * (w_out[:, None] * b) / w_in[None, :]
                             for b in blocks])
        sigma = float(np.linalg.svd(stacked, compute_uv=False)[0])
        return sigma, stacked
    # largest eigenvalue of the normal operator: field f's block S_k W S_(k+1)
    # of the weighted deterministic W adds S_(k+1) W^T W S_(k+1) (S_k S_k = 1)
    base = scale * sp.diags(w_out) @ base @ sp.diags(1.0 / w_in)
    base_t = base.T
    signs = [np.ones(dom) if f is None else sign_vector(lattice, f, k + 1)
             for f in fields]

    def normal_apply(x):
        acc = np.zeros(dom, dtype=np.float64)
        for s in signs:
            acc += s * (base_t @ (base @ (s * x)))
        return acc

    op = spla.LinearOperator((dom, dom), matvec=normal_apply, dtype=np.float64)
    # seeded random start: a structured vector can be exactly orthogonal to
    # the dominant eigenspace by symmetry
    v0 = np.random.default_rng(2024).standard_normal(dom)
    lam = spla.eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)
    return float(np.sqrt(max(lam[0], 0.0))), None
