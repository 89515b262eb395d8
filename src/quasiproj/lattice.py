"""Dilation-matrix algebra and lattice geometry.

A dilation matrix is a real d x d matrix whose eigenvalues all exceed one in
modulus; its positive powers refine the integer lattice.  Everything downstream
(generators, coefficients, moduli) works relative to such a matrix.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .errors import NotExpansive, Singular

MAX_DIM = 3
_ISO_RTOL = 1e-10


@dataclass(frozen=True)
class DilationMatrix:
    """A validated expansive matrix with cached determinant and isotropy flag.

    Immutable after construction; safe to share across threads.
    """

    entries: np.ndarray
    dim: int
    det_abs: float
    isotropic: bool

    def power(self, j: int) -> np.ndarray:
        """Matrix power M^j; j may be negative, power(0) is the identity."""
        return np.linalg.matrix_power(self.entries, j)

    def adjoint_power(self, j: int) -> np.ndarray:
        return np.linalg.matrix_power(self.entries.T, j)

    def is_diagonal(self) -> bool:
        off = self.entries - np.diag(np.diag(self.entries))
        return bool(np.all(off == 0.0))


def make_dilation(entries) -> DilationMatrix:
    """Validate `entries` as a dilation matrix.

    Raises Singular if det = 0 and NotExpansive if any eigenvalue has
    modulus <= 1.  Dimensions above 3 are rejected; the catalog never
    needs them and keeping d small keeps every grid loop cheap.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim == 1 and a.size == 1:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise Singular(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if d > MAX_DIM:
        raise Singular(f"dimension {d} > {MAX_DIM} not supported")
    det = np.linalg.det(a)
    if det == 0.0 or not np.isfinite(det):
        raise Singular("matrix is singular")
    inv = np.linalg.inv(a)
    if not np.all(np.isfinite(inv)):  # denormal determinants overflow here
        raise Singular("matrix is numerically singular")
    moduli = np.abs(np.linalg.eigvals(a)).tolist()  # plain floats for the message
    # Expansivity is equivalent to spectral radius of M^{-1} below 1.
    if np.max(np.abs(np.linalg.eigvals(inv))) >= 1.0:
        raise NotExpansive(f"eigenvalue moduli {sorted(moduli)} must all exceed 1")
    iso = bool(np.max(moduli) - np.min(moduli) <= _ISO_RTOL * np.max(moduli))
    return DilationMatrix(entries=a.copy(), dim=d, det_abs=float(abs(det)),
                          isotropic=iso)


def map_box(A, box):
    """Bounding box of the image of a (d, 2) box under x -> A x: its corners
    mapped through A, then the per-axis min and max."""
    mapped = np.array(list(itertools.product(*box))) @ A.T
    return np.stack([mapped.min(axis=0), mapped.max(axis=0)], axis=1)
