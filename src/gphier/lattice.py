"""Truncated integer-frequency lattice with a bijective index codec.

Every collision sum in the package ranges over this finite frequency box;
combined frequencies that fall outside the box are dropped (Galerkin
projection), which makes all structural operator identities exact on the
finite system.
"""

import numpy as np

__all__ = ["LatticeError", "FrequencyLattice"]


class LatticeError(ValueError):
    """Invalid lattice parameters or out-of-range frequency queries."""


class FrequencyLattice:
    """The frequency box Z^d ∩ [-M, M]^d, enumerated lexicographically.

    The codec is the bijection between lattice points and indices
    0..F-1 with F = (2M+1)^d.  Index 0 is (-M, ..., -M), index F-1 is
    (M, ..., M), and enumeration order is lexicographic on coordinates.

    Instances are immutable after construction and safe to share
    read-only across threads.
    """

    def __init__(self, d, M):
        if not (1 <= int(d) <= 3):
            raise LatticeError(f"dimension d must be in 1..3, got {d}")
        if int(M) < 1:
            raise LatticeError(f"cutoff M must be >= 1, got {M}")
        self.d = int(d)
        self.M = int(M)
        self.side = 2 * self.M + 1
        self.size = self.side**self.d
        grids = np.meshgrid(
            *[np.arange(-self.M, self.M + 1)] * self.d, indexing="ij"
        )
        self.points = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
        # dispersion energy |zeta|^2 and Japanese bracket <zeta> per point
        self.energies = np.sum(self.points**2, axis=1).astype(np.int64)
        self.brackets = np.sqrt(1.0 + self.energies)
        self._strides = self.side ** np.arange(self.d - 1, -1, -1, dtype=np.int64)

    def __repr__(self):
        return f"FrequencyLattice(d={self.d}, M={self.M})"

    def __eq__(self, other):
        return (
            isinstance(other, FrequencyLattice)
            and self.d == other.d
            and self.M == other.M
        )

    def __hash__(self):
        return hash((self.d, self.M))

    def in_box(self, coords):
        """Componentwise membership test; works on (..., d) arrays."""
        coords = np.asarray(coords)
        return np.all(np.abs(coords) <= self.M, axis=-1)

    def index_of(self, coords):
        """Codec index of a lattice point (or array of points)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape[-1] != self.d:
            raise LatticeError(
                f"expected {self.d} coordinates, got {coords.shape[-1]}"
            )
        if not np.all(self.in_box(coords)):
            raise LatticeError(f"frequency outside the box [-{self.M}, {self.M}]^d")
        return (coords + self.M) @ self._strides

    def freq_of(self, index):
        """Lattice point for a codec index (or array of indices)."""
        index = np.asarray(index)
        if np.any(index < 0) or np.any(index >= self.size):
            raise LatticeError(f"index out of range 0..{self.size - 1}")
        return self.points[index]
