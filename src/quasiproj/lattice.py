"""Dilation-matrix algebra and lattice geometry.

A dilation matrix is a real d x d matrix whose eigenvalues all exceed one in
modulus; its positive powers refine the integer lattice.  Everything downstream
(generators, coefficients, moduli) works relative to such a matrix.  Its
algebra calls no LAPACK routine; eigenvalues are computed only for a
`NotExpansive` message and for `isotropic`, which also decides exactly, in
Fraction arithmetic, whether the matrix is diagonalizable.
"""

from functools import cached_property
import itertools
import math

import numpy as np

from .errors import NotExpansive, Singular
from .records import Frozen, Record

MAX_DIM = 3
_ISO_RTOL = 1e-10


class DilationMatrix(Record, Frozen):
    """A validated expansive matrix with its determinant modulus and inverse.

    Immutable after construction; safe to share across threads.  Equal to a
    DilationMatrix with the same values.
    """

    def __init__(self, entries: np.ndarray, dim: int, det_abs: float,
                 inverse: np.ndarray):
        vars(self).update(entries=entries, dim=dim, det_abs=det_abs,
                          inverse=inverse)

    def _key(self):
        return self.entries, self.dim, self.det_abs, self.inverse

    def power(self, j: int) -> np.ndarray:
        """Matrix power M^j; j may be negative, power(0) is the identity."""
        return np.linalg.matrix_power(
            self.entries if j >= 0 else self.inverse, abs(j))

    def adjoint_power(self, j: int) -> np.ndarray:
        return np.linalg.matrix_power(
            (self.entries if j >= 0 else self.inverse).T, abs(j))

    def is_diagonal(self) -> bool:
        off = self.entries - np.diag(np.diag(self.entries))
        return bool(np.all(off == 0.0))

    @cached_property
    def isotropic(self) -> bool:
        """All eigenvalues have one modulus (to a relative 1e-10) and M is
        diagonalizable, so ||M^j|| grows like that modulus to the j."""
        moduli = np.abs(np.linalg.eigvals(self.entries))
        if np.max(moduli) - np.min(moduli) > _ISO_RTOL * np.max(moduli):
            return False
        return _diagonalizable(self.entries)


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
    c, det, inv = _invert(a)
    if not _expansive(c):
        moduli = np.abs(np.linalg.eigvals(a)).tolist()  # plain floats
        raise NotExpansive(f"eigenvalue moduli {sorted(moduli)} must all "
                           f"exceed 1")
    return DilationMatrix(entries=a.copy(), dim=d, det_abs=abs(det),
                          inverse=inv)


def inverse(a) -> np.ndarray:
    """The inverse of a square matrix, as its adjugate over its determinant;
    Singular if the determinant is 0 or not finite."""
    return _invert(np.asarray(a, dtype=float))[2]


def _invert(a):
    """(characteristic coefficients, determinant, inverse) of a square a."""
    c, adj = _faddeev(a)
    det = float((-1) ** len(a) * c[-1])
    if det == 0.0 or not np.isfinite(det):
        raise Singular("matrix is singular")
    with np.errstate(over="ignore"):
        inv = adj / det
    if not np.all(np.isfinite(inv)):  # denormal determinants overflow here
        raise Singular("matrix is numerically singular")
    return c, det, inv


def _faddeev(a, scalar=float):
    """Faddeev-LeVerrier: the coefficients [1, c_1, ..., c_d] of
    det(lambda I - a) = lambda^d + c_1 lambda^(d-1) + ... + c_d, and adj(a).

    N_k = a N_{k-1} + c_{k-1} I and c_k = -tr(a N_k) / k from N_0 = 0; then
    adj(a) = (-1)^(d+1) N_d.  d steps of a matmul and a trace; on an integer
    matrix every step is exact integer arithmetic, and on an object array of
    Fractions, with scalar=Fraction, every step is exact."""
    d = len(a)
    c = [scalar(1)]
    n = np.zeros_like(a)
    for k in range(1, d + 1):
        n = a @ n + c[-1] * np.eye(d, dtype=a.dtype)
        c.append(-scalar(np.trace(a @ n)) / k)
    return c, (-1) ** (d + 1) * n


def _diagonalizable(a):
    """Whether a is diagonalizable over C, decided exactly on its entries
    read as Fractions: the square-free part p / gcd(p, p') of its
    characteristic polynomial p annihilates a."""
    from fractions import Fraction
    a = np.frompyfunc(Fraction, 1, 1)(a)
    p = _faddeev(a, Fraction)[0]
    g, r = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]  # p'
    while r:  # Euclid: g ends as gcd(p, p')
        g, r = r, _poly_divmod(g, r)[1]
    acc = np.zeros_like(a)
    for c in _poly_divmod(p, g)[0]:  # Horner
        acc = acc @ a + c * np.eye(len(a), dtype=object)
    return not acc.any()


def _poly_divmod(u, v):
    """Quotient and remainder of u / v, coefficient lists with the leading
    coefficient first (v's nonzero); the remainder has no leading zeros."""
    q = []
    while len(u) >= len(v):
        q.append(u[0] / v[0])
        u = [x - q[-1] * y for x, y in zip(u[1:], v[1:] + [0] * len(u))]
    while u and u[0] == 0:
        u = u[1:]
    return q, u


def _expansive(c):
    """Every root of lambda^d + c_1 lambda^(d-1) + ... + c_d exceeds 1 in
    modulus: the Schur-Cohn-Jury test on the reversed polynomial
    b(z) = 1 + c_1 z + ... + c_d z^d, whose roots are the reciprocals.

    b of degree n has every root in the open unit disk iff |b_0| < |b_n| and
    (b_n b(z) - b_0 z^n b(1/z)) / z, of degree n - 1, has too (Rouche on the
    unit circle).  Each step rescales by a power of two, which is exact."""
    b = list(c)
    while len(b) > 1:
        if not abs(b[0]) < abs(b[-1]):  # also False on nan
            return False
        b = [b[-1] * b[i + 1] - b[0] * b[-2 - i] for i in range(len(b) - 1)]
        top = max(abs(x) for x in b)
        if 0.0 < top < math.inf:
            b = [math.ldexp(x, -math.frexp(top)[1]) for x in b]
    return True


def map_box(A, box):
    """Bounding box of the image of a (d, 2) box under x -> A x: its corners
    mapped through A, then the per-axis min and max."""
    mapped = np.array(list(itertools.product(*box))) @ A.T
    return np.stack([mapped.min(axis=0), mapped.max(axis=0)], axis=1)
