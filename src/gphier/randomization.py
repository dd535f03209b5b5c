"""Bernoulli sign fields and averaged-norm estimation over them.

A sign field assigns +1/-1 to every lattice point and stands in for one
point of the Bernoulli probability space.  Averages over the random
parameter are computed either exactly (enumerating all 2^F sign
assignments per level) or by Monte Carlo with counter-based, reproducible
per-level streams.
"""

from dataclasses import dataclass
import hashlib
import itertools
import struct

import numpy as np
import scipy.sparse as sp

from .tensor import MemoryGuardError, h_alpha_norm

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

    def __call__(self, point_index):
        return self.values[point_index]

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
    F = lattice.size
    out = []
    for bits in itertools.product((1, -1), repeat=F):
        out.append(SignField(np.array(bits, dtype=np.int8), "enumerated"))
    return out


@dataclass(frozen=True)
class OmegaNormEstimate:
    """sqrt of the field-averaged squared H^alpha norm.

    For the Monte Carlo method, stderr is the standard error of the
    squared-norm mean (the pre-sqrt estimate); exact estimates carry
    stderr None.
    """

    value: float
    method: str
    samples: int = 0
    stderr: float = None

    def agrees_with(self, other_value, nsigma=4.0):
        """Compare on the squared scale against an exact value."""
        if self.method != "mc":
            return abs(self.value - other_value) < 1e-12
        return abs(self.value**2 - other_value**2) <= nsigma * self.stderr


def omega_l2_h_alpha(evaluator, lattice, levels, alpha, method="exact",
                     mc_samples=0, seed=0):
    """L^2-in-the-random-parameter average of H^alpha norms.

    evaluator maps a dict {level: SignField} to a DensityMatrix; the
    squared H^alpha norm of its output is averaged over sign assignments
    on the given levels (exactly, or by Monte Carlo), and the square
    root of the mean is returned.
    """
    levels = sorted(levels)
    if method == "exact":
        total = 1
        for _ in levels:
            total *= 2**lattice.size
        if total > ENUMERATION_CAP:
            raise ValueError(
                f"exact enumeration needs {total} assignments "
                f"(> cap {ENUMERATION_CAP})"
            )
        per_level = enumerate_fields(lattice)
        acc = 0.0
        count = 0
        for combo in itertools.product(per_level, repeat=len(levels)):
            fields = dict(zip(levels, combo))
            acc += h_alpha_norm(evaluator(fields), alpha) ** 2
            count += 1
        if count == 0:  # no random levels: evaluator is constant
            return OmegaNormEstimate(
                h_alpha_norm(evaluator({}), alpha), "exact", 0, None
            )
        return OmegaNormEstimate(float(np.sqrt(acc / count)), "exact", count, None)
    if method == "mc":
        if mc_samples < 2:
            raise ValueError("mc needs at least 2 samples")
        sq = np.empty(mc_samples)
        for i in range(mc_samples):
            fields = {
                lv: sample_field(lattice, seed, level=lv, sample=i) for lv in levels
            }
            sq[i] = h_alpha_norm(evaluator(fields), alpha) ** 2
        mean = float(np.mean(sq))
        stderr = float(np.std(sq, ddof=1) / np.sqrt(mc_samples))
        return OmegaNormEstimate(float(np.sqrt(mean)), "mc", mc_samples, stderr)
    raise ValueError(f"unknown method {method!r}")


def collision_omega_operator_norm(lattice, k, j, alpha, fields=None):
    """Exact operator norm of the (randomized) (j, k+1) collision on H^alpha.

    The linear map gamma -> [B]^omega gamma is taken from the
    order-(k+1) H^alpha space into the stacked (field x space) H^alpha
    codomain, each field block weighted by 1/sqrt(#fields) so that the
    codomain norm is the L^2(Omega) average over `fields` (default: all
    2^F sign fields); fields=[None] gives the deterministic norm.
    Returns (sigma, stacked): stacked operators up to DENSE_SVD_CAP
    entries are materialized and take a dense SVD; larger ones iterate on
    the normal operator and return None for the matrix.
    """
    import scipy.sparse.linalg as spla

    from .dynamics import collision_matrix

    F = lattice.size
    dom = F ** (2 * (k + 1))
    if dom > NORM_DOMAIN_CAP:
        raise MemoryGuardError(
            f"operator-norm domain dimension {dom} exceeds the cap "
            f"{NORM_DOMAIN_CAP}"
        )
    if fields is None:
        fields = enumerate_fields(lattice)
    w_in = _weight_vector(lattice, k + 1, alpha)
    w_out = _weight_vector(lattice, k, alpha)
    mats = [
        collision_matrix(lattice, k + 1, j, k + 1, "+", f)
        - collision_matrix(lattice, k + 1, j, k + 1, "-", f)
        for f in fields
    ]
    scale = 1.0 / np.sqrt(len(fields))
    rng_dim = mats[0].shape[0]
    if dom * rng_dim * len(fields) <= DENSE_SVD_CAP:
        blocks = [scale * (w_out[:, None] * m.toarray()) / w_in[None, :]
                  for m in mats]
        stacked = np.vstack(blocks)
        sigma = float(np.linalg.svd(stacked, compute_uv=False)[0])
        return sigma, stacked
    # largest eigenvalue of the normal operator
    weighted = [scale * sp.diags(w_out) @ m @ sp.diags(1.0 / w_in) for m in mats]

    def normal_apply(x):
        acc = np.zeros(dom, dtype=np.float64)
        for wmat in weighted:
            acc += wmat.T @ (wmat @ x)
        return acc

    op = spla.LinearOperator((dom, dom), matvec=normal_apply, dtype=np.float64)
    # seeded random start: a structured vector can be exactly orthogonal to
    # the dominant eigenspace by symmetry
    v0 = np.random.default_rng(2024).standard_normal(dom)
    lam = spla.eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)
    return float(np.sqrt(max(lam[0], 0.0))), None


def _weight_vector(lattice, k, alpha):
    w = lattice.brackets**alpha
    out = np.ones(1)
    for _ in range(2 * k):
        out = np.multiply.outer(out, w).reshape(-1)
    return out
