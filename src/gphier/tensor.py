"""Density matrices as Fourier-coefficient tensors over the lattice.

A density matrix of order k is stored purely through its coefficients on
(lattice)^k x (lattice)^k, either as a dense complex tensor of shape
F^(2k) (row-major over (xi_1..xi_k, xi'_1..xi'_k)) or as a sparse COO
list.  All norms are defined directly on coefficient space with
Plancherel constant 1 (volume-one torus convention).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .lattice import FrequencyLattice, LatticeError

__all__ = [
    "MEMORY_GUARD",
    "MemoryGuardError",
    "DensityMatrix",
    "HierarchyState",
    "sobolev_apply",
    "slot_product",
    "h_alpha_norm",
    "project",
    "factorized",
    "random_density_matrix",
    "random_state",
]

# hard cap on dense tensor entries; exceeding it raises, never truncates
MEMORY_GUARD = 2**28


class MemoryGuardError(MemoryError):
    """Dense tensor would exceed the entry guard."""


def _check_guard(lattice, k):
    """Raise before a dense order-k tensor of more than MEMORY_GUARD entries.

    The guard is read at call time, so a test can lower it.
    """
    entries = lattice.size ** (2 * k)
    if entries > MEMORY_GUARD:
        raise MemoryGuardError(
            f"dense order-{k} tensor needs {entries} entries "
            f"(> guard {MEMORY_GUARD}); use sparse storage"
        )


class DensityMatrix:
    """Order-k coefficient tensor, dense or sparse COO.

    Dense data has shape (F,)*2k with the unprimed indices first.  COO
    data is a pair (indices, values): indices has shape (nnz, 2k) and
    holds codec point indices, values is complex.  Instances are treated
    as immutable; operations return new objects.
    """

    __slots__ = ("lattice", "k", "storage", "data", "indices", "values")

    def __init__(self, lattice, k, storage, data=None, indices=None, values=None):
        self.lattice = lattice
        self.k = int(k)
        self.storage = storage
        self.data = data
        self.indices = indices
        self.values = values

    @classmethod
    def zeros(cls, lattice, k):
        _check_guard(lattice, k)
        shape = (lattice.size,) * (2 * k)
        return cls(lattice, k, "dense", data=np.zeros(shape, dtype=np.complex128))

    @classmethod
    def from_coo(cls, lattice, k, indices, values):
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, 2 * k)
        values = np.asarray(values, dtype=np.complex128).reshape(-1)
        if indices.shape[0] != values.shape[0]:
            raise ValueError("COO indices/values length mismatch")
        if indices.size and (
            indices.min() < 0 or indices.max() >= lattice.size
        ):
            raise LatticeError("COO index outside the lattice")
        if indices.shape[0] != len({tuple(row) for row in indices}):
            raise ValueError("duplicate COO index tuple")
        return cls(lattice, k, "coo", indices=indices, values=values)

    def to_dense(self):
        if self.storage == "dense":
            return self
        _check_guard(self.lattice, self.k)
        shape = (self.lattice.size,) * (2 * self.k)
        data = np.zeros(shape, dtype=np.complex128)
        if self.values.size:
            data[tuple(self.indices.T)] = self.values
        return DensityMatrix(self.lattice, self.k, "dense", data=data)

    def to_coo(self):
        if self.storage == "coo":
            return self
        mask = np.abs(self.data) > 0
        idx = np.argwhere(mask).astype(np.int64)
        vals = self.data[mask]
        return DensityMatrix(self.lattice, self.k, "coo", indices=idx, values=vals)

    def _binary(self, other, op):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        if other.lattice != self.lattice or other.k != self.k:
            raise ValueError("operands live on different spaces")
        a = self.to_dense() if self.storage == "coo" else self
        b = other.to_dense() if other.storage == "coo" else other
        return DensityMatrix(self.lattice, self.k, "dense", data=op(a.data, b.data))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if self.storage == "dense":
            return DensityMatrix(self.lattice, self.k, "dense", data=self.data * scalar)
        return DensityMatrix(
            self.lattice, self.k, "coo",
            indices=self.indices.copy(), values=self.values * scalar,
        )

    __rmul__ = __mul__


@dataclass
class HierarchyState:
    """Finite sequence (gamma^(1), ..., gamma^(K_max)); absent levels are zero."""

    lattice: FrequencyLattice
    K_max: int
    levels: dict = field(default_factory=dict)

    def __post_init__(self):
        for k, g in self.levels.items():
            if g is None:
                continue
            if g.lattice != self.lattice:
                raise ValueError(f"level {k} lives on a different lattice")
            if g.k != k:
                raise ValueError(f"level {k} entry has order {g.k}")
            if not (1 <= k <= self.K_max):
                raise ValueError(f"level {k} outside 1..{self.K_max}")

    def level(self, k):
        """Level-k density matrix or None (meaning zero)."""
        return self.levels.get(k)

    def with_levels(self, levels):
        return HierarchyState(self.lattice, self.K_max, dict(levels))


def sobolev_apply(gamma, alpha):
    """Multiply the coefficient at (xi; xi') by prod <xi_j>^a prod <xi'_j>^a."""
    lat = gamma.lattice
    w = lat.brackets**alpha
    if gamma.storage == "coo":
        vals = gamma.values * np.prod(w[gamma.indices], axis=1)
        return DensityMatrix(lat, gamma.k, "coo", indices=gamma.indices.copy(), values=vals)
    out = gamma.data.copy()
    nd = 2 * gamma.k
    for ax in range(nd):
        shape = (1,) * ax + (lat.size,) + (1,) * (nd - ax - 1)
        out *= w.reshape(shape)
    return DensityMatrix(lat, gamma.k, "dense", data=out)


def slot_product(lattice, w, k):
    """w (one value per lattice point) multiplied over the 2k slots, flat order k."""
    _check_guard(lattice, k)
    return functools.reduce(np.multiply.outer, [w] * (2 * k)).reshape(-1)


def h_alpha_norm(gamma, alpha):
    """l^2 norm of the alpha-weighted coefficient tensor (H^alpha norm)."""
    w2 = gamma.lattice.brackets ** (2.0 * alpha)
    if gamma.storage == "coo":
        if gamma.values.size == 0:
            return 0.0
        weights = np.prod(w2[gamma.indices], axis=1)
        return float(np.sqrt(np.sum(weights * np.abs(gamma.values) ** 2)))
    acc = np.abs(gamma.data) ** 2
    for _ in range(2 * gamma.k):
        acc = np.tensordot(acc, w2, axes=([acc.ndim - 1], [0]))
    return float(np.sqrt(acc))


def project(state, N, side):
    """Keep levels <= N ('leq') or levels > N ('gt'); the two sum to the input."""
    if N < 0:
        raise ValueError("projection level must be >= 0")
    if side not in ("leq", "gt"):
        raise ValueError("side must be 'leq' or 'gt'")
    if side == "leq":
        kept = {k: g for k, g in state.levels.items() if k <= N}
    else:
        kept = {k: g for k, g in state.levels.items() if k > N}
    return state.with_levels(kept)


def factorized(phi, k, lattice):
    """Pure tensor power: coefficient prod_j phi(xi_j) * prod_j conj(phi(xi'_j))."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (lattice.size,):
        raise ValueError(f"phi must have length F={lattice.size}")
    _check_guard(lattice, k)
    out = np.ones((), dtype=np.complex128)
    for _ in range(k):
        out = np.multiply.outer(out, phi)
    for _ in range(k):
        out = np.multiply.outer(out, np.conj(phi))
    return DensityMatrix(lattice, k, "dense", data=out)


def random_density_matrix(lattice, k, seed, alpha=None, norm=None):
    """Dense tensor with iid complex Gaussian entries, optionally normalized.

    When norm is given, the tensor is scaled so its H^alpha norm equals
    norm (alpha defaults to 0 for the scaling).
    """
    _check_guard(lattice, k)
    rng = np.random.default_rng(seed)
    shape = (lattice.size,) * (2 * k)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = DensityMatrix(lattice, k, "dense", data=data)
    if norm is not None:
        cur = h_alpha_norm(g, 0.0 if alpha is None else alpha)
        g = g * (norm / cur)
    return g


def random_state(lattice, K_max, seed, alpha=0.0, level_norms=None):
    """Hierarchy of random dense levels with prescribed H^alpha level norms."""
    levels = {}
    for k in range(1, K_max + 1):
        target = 1.0 if level_norms is None else level_norms[k - 1]
        levels[k] = random_density_matrix(
            lattice, k, seed + 1000 * k, alpha=alpha, norm=target
        )
    return HierarchyState(lattice, K_max, levels)
