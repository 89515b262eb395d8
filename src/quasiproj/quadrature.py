"""Deterministic quadrature and grid helpers used across the package.

All rules are tensor Gauss-Legendre or uniform grids; nothing is randomized,
so repeated runs are bit-identical.  Every adaptive rule goes through one
doubling check, `converge`, whose orders depend only on its arguments, so a
value never depends on earlier calls; the package's rules converge to
PROFILE_TOL under ORDER_CAPS.

`transform` is the one inverse Fourier transform of a profile: Gauss rules
on cells of its support, summed by `fourier_sum` at arbitrary points or by
`grid_fourier_sum` onto a midpoint grid (`GridSpec`), axis by axis.
"""

from functools import cached_property, lru_cache, reduce
import itertools
import math
import numbers

import numpy as np

from .errors import InvalidParams, QuadratureFailure
from .records import Frozen

# largest rows x nodes block a vectorized sum builds at once
MAX_BLOCK = 4_000_000
# the largest Gauss order per axis of a rule in 1, 2 and >= 3 dimensions
ORDER_CAPS = (4096, 256, 128)
# absolute tolerance of every adaptive rule in the package
PROFILE_TOL = 1e-12


# typed: 2.0 or True must not hit the cached rule of 2 or 1
@lru_cache(maxsize=64, typed=True)
def leggauss(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Hale & Townsend (SIAM J. Sci. Comput. 35, 2013): the roots in [0, 1)
    start from Tricomi's guess and take three Newton steps on P_n(cos theta),
    quadratic from about 1e-3; the weights are the Christoffel-Darboux sums
    w = 2 / sum_{j<n} (2j+1) P_j(x)^2, free of the 1 - x^2 cancellation.
    The roots are mirrored, so x == -x[::-1] exactly, and the weights scaled
    to sum to 2.  O(n^2) work against O(n^3) for the eigenvalue method.
    """
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) \
            or order < 1:
        raise InvalidParams(f"Gauss order must be an integer >= 1, "
                            f"got {order!r}")
    n = int(order)
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    theta += (n - 1) / (8.0 * n ** 3) / np.tan(theta)
    for _ in range(3):
        x = np.cos(theta)
        p_prev, p = _legendre(x, n)
        theta += p * np.sin(theta) / (n * (p_prev - x * p))
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    w = 2.0 / _legendre(x, n, sums=True)
    mid = n // 2  # roots in (0, 1): the one at 0 is not mirrored
    x = np.concatenate([-x[:mid], x[::-1]])
    w = np.concatenate([w[:mid], w[::-1]])
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre(x, n, sums=False):
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence, or with sums the
    Christoffel-Darboux sum sum_{j<n} (2j+1) P_j(x)^2."""
    p_prev, p = np.ones_like(x), x
    s = np.ones_like(x) if sums else None
    for j in range(1, n):
        if sums:
            s += (2 * j + 1) * p * p
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return s if sums else (p_prev, p)


def gauss_nodes_box(box, order: int):
    """Tensor Gauss-Legendre nodes/weights on an axis-aligned box.

    box: array-like of shape (d, 2).  Returns (nodes (n, d), weights (n,)).
    """
    axes, weights = _gauss_axes(box, order)
    return _tensor_points(axes), weights


def _gauss_axes(box, order: int):
    """The Gauss-Legendre coordinates per axis of a box (d, 2) and the
    tensor weights (order^d,), in row-major order."""
    x, w = leggauss(order)
    axes, wts = [], []
    for lo, hi in np.asarray(box, dtype=float):
        axes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * w)
    return axes, reduce(np.multiply.outer, wts).ravel()


def converge(evaluate, start, cap, tol, what):
    """The doubling check every adaptive rule goes through.

    Evaluates `evaluate(order)` at orders start, 2 start, ... and returns the
    first value whose largest absolute change from the previous order is
    within `tol`; the orders depend only on the arguments.  At the cap it
    raises QuadratureFailure naming `what` instead of degrading silently.
    A start that is no integer >= 1, or a cap below it, is InvalidParams.
    """
    if isinstance(start, bool) or not isinstance(start, numbers.Integral) \
            or start < 1 or cap < start:
        raise InvalidParams(f"{what}: orders must start at an integer >= 1 "
                            f"and at most the cap, got start={start!r}, "
                            f"cap={cap!r}")
    prev = None
    order = start
    while order <= cap:
        val = evaluate(order)
        if prev is not None and np.max(np.abs(val - prev)) <= tol:
            return val
        prev = val
        order *= 2
    raise QuadratureFailure(f"{what} did not reach tol={tol} at order {cap}")


def transform(profile, cells, target, tol, what):
    """The sum over the boxes `cells` of integral profile(xi) exp(2 pi i x.xi)
    dxi at the rows x of target (n, d), or row-major at the points of a
    `GridSpec` target.

    Each order takes a tensor Gauss rule per cell; `converge` doubles it from
    64 to within tol, up to ORDER_CAPS, and names `what` at the cap.  Onto
    points the sum is `fourier_sum`.  Onto a grid each cell is first split
    evenly per axis into parts that span at most 16 turns of the phase over
    the grid's box, and the sum is `grid_fourier_sum`."""
    on_grid = isinstance(target, GridSpec)
    if on_grid:
        reach = np.max(np.abs(target.box), axis=1)
        cells = [part for cell in cells for part in split_box(cell, [
            np.linspace(lo, hi, math.ceil((hi - lo) * r / 16) + 1)[1:-1]
            for (lo, hi), r in zip(cell, reach)])]

    def at(order):
        vals = 0.0
        for cell in cells:
            axes, w = _gauss_axes(cell, order)
            nodes = _tensor_points(axes)
            w = np.asarray(profile(nodes), dtype=complex) * w
            vals = vals + (grid_fourier_sum(target, axes, w) if on_grid
                           else fourier_sum(target, nodes, w))
        return vals

    return converge(at, 64, ORDER_CAPS[min(len(cells[0]), 3) - 1], tol, what)


def split_box(box, cuts):
    """Tensor cells of a box cut, per axis, at the points of cuts[axis] that
    lie strictly inside it; cells are (d, 2) arrays in row-major order (last
    axis fastest)."""
    edges = []
    for (lo, hi), c in zip(box, cuts):
        c = np.asarray(c, dtype=float)
        # not np.unique, whose first call imports numpy.ma (about 8 ms)
        pts = np.array(sorted({lo, hi, *c[(c > lo) & (c < hi)]}))
        edges.append(list(zip(pts[:-1], pts[1:])))
    return [np.array(cell) for cell in itertools.product(*edges)]


def fourier_sum(pts, nodes, weights):
    """sum_n weights_n exp(2 pi i x . nodes_n) for each row x of pts (n, d),
    built in row blocks of at most MAX_BLOCK rows x nodes entries.  weights
    is (N,) or (N, R); the result is (n,) or (n, R)."""
    out = np.empty(pts.shape[:1] + weights.shape[1:], dtype=complex)
    step = max(1, int(MAX_BLOCK / max(1, nodes.shape[0])))
    for i in range(0, pts.shape[0], step):
        out[i:i + step] = np.exp(2j * np.pi * (pts[i:i + step] @ nodes.T)) @ weights
    return out


class GridSpec(Frozen):
    """Midpoint grid over a box (d, 2): `grid` cells on every axis, or one
    count per axis; each count must be an integer >= 1.  Immutable; equal
    only to itself."""

    def __init__(self, box, grid):
        box = np.array(box, dtype=float)
        box.setflags(write=False)
        counts = (tuple(grid) if isinstance(grid, (tuple, list, np.ndarray))
                  else (grid,) * len(box))
        if len(counts) != len(box) or not all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool)
                and n >= 1 for n in counts):
            raise InvalidParams(f"grid counts must be integers >= 1, one or "
                                f"one per axis of {len(box)}, got {grid!r}")
        vars(self).update(box=box, counts=tuple(int(n) for n in counts))

    @cached_property
    def steps(self):
        """Cell width per axis."""
        return [(hi - lo) / n for (lo, hi), n in zip(self.box, self.counts)]

    @cached_property
    def axes(self):
        """Midpoint coordinates per axis."""
        return [lo + h * (np.arange(n) + 0.5)
                for (lo, _), h, n in zip(self.box, self.steps, self.counts)]

    @cached_property
    def points(self):
        """All grid points, (prod(counts), d), in row-major order."""
        return _tensor_points(self.axes)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.steps)


def grid_fourier_sum(grid: GridSpec, axes, weights):
    """`fourier_sum(grid.points, nodes, weights)` for the tensor nodes over
    the per-axis coordinates `axes` and weights (N,) on them in row-major
    order, as a product of one sum per axis.

    An axis whose points x0 + h m and nodes xi0 + dxi n are exact arithmetic
    progressions with h dxi = P / K exactly, K a power of two at most
    MAX_BLOCK and no fewer than the nodes, is a sum of FFTs:
    exp(2 pi i P m n / K) depends only on P m mod K, and the remaining
    phases are reduced to turns exactly (`_turns`).  Any other axis is a
    dense `fourier_sum`."""
    if len(grid.axes) != len(axes):
        raise ValueError(f"grid has {len(grid.axes)} axes, nodes {len(axes)}")
    w = np.asarray(weights, dtype=complex).reshape([len(xi) for xi in axes])
    for k, (x, xi) in enumerate(zip(grid.axes, axes)):
        w = np.moveaxis(w, k, 0)
        rest = w.shape[1:]
        w = _axis_sum(x, xi, w.reshape(len(xi), -1) if rest else w)
        w = np.moveaxis(w.reshape((len(x),) + rest), 0, k)
    return w.ravel()


def _axis_sum(x, xi, w):
    """sum_n w[n] exp(2 pi i x_m xi_n) along the first axis of w (N,) or
    (N, R), for coordinates x (M,) and xi (N,).

    On the FFT route (see `grid_fourier_sum`) the nodes split by residue,
    n = L q + r: each r is a length-K/L FFT over q, read at rows
    -P m mod K/L and turned by the exact twiddle
    exp(2 pi i (P m r mod K) / K), formed in integers.  L doubles while K/L
    still holds the N nodes and the L M twiddles cost no more than one FFT
    (L M <= K/L).  More than K nodes, a window wider than 1 / h, take the
    dense sum."""
    px, pxi = _progression(x), _progression(xi)
    ratio = None
    if px is not None and pxi is not None:
        step, err = _two_product(px[1], pxi[1])
        if err == 0.0:
            ratio = float(step).as_integer_ratio()
    if ratio is None or ratio[1] > MAX_BLOCK or len(xi) > ratio[1]:
        return fourier_sum(x[:, None], xi[:, None], w)
    (x0, h), (xi0, dxi), (P, K) = px, pxi, ratio
    M, N = len(x), len(xi)
    m, n = np.arange(M, dtype=float), np.arange(N, dtype=float)
    pre = np.exp(2j * np.pi * _turns(x0, dxi, n))
    post = np.exp(2j * np.pi * (_turns(x0, xi0, 1.0) + _turns(h, xi0, m)))
    L = 1
    while K // (2 * L) >= N and 2 * L * M <= K // (2 * L):
        L *= 2
    Kr = K // L
    pm = (P % K) * np.arange(M) % K  # P m mod K, exact in integers
    rows = -pm % Kr
    twiddle = np.exp(2j * np.pi / K * (pm * np.arange(L)[:, None] % K))
    w2 = w.reshape(N, -1)
    out = np.empty((M, w2.shape[1]), dtype=complex)
    cols = max(1, MAX_BLOCK // K)
    for j in range(0, w2.shape[1], cols):
        a = w2[:, j:j + cols] * pre[:, None]
        acc = np.fft.fft(a[::L], n=Kr, axis=0)[rows]
        for r in range(1, L):
            acc += np.fft.fft(a[r::L], n=Kr, axis=0)[rows] * twiddle[r, :, None]
        out[:, j:j + cols] = acc * post[:, None]
    return out.reshape((M,) + w.shape[1:])


def _progression(c):
    """(c0, step) when the coordinates c are exactly c0 + step m, else None."""
    c0 = float(c[0])
    step = float(c[1] - c[0]) if len(c) > 1 else 0.0
    m = np.arange(len(c), dtype=float)
    hm, err = _two_product(step, m)
    s = c0 + hm
    z = s - c0
    exact = (err == 0.0) & (s == c) & ((c0 - (s - z)) + (hm - z) == 0.0)
    return (c0, step) if np.all(exact) else None


def _two_product(a, b):
    """Dekker's TwoProduct: (p, e) with p = fl(a b) and p + e = a b exactly,
    through Veltkamp's split (no overflow assumed)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _turns(a, b, n):
    """a b n modulo 1, for a scalar b and integer-valued n: the product a b
    is split exactly (TwoProduct), its high part times n again, and the
    whole-turn part dropped exactly with fmod before rounding to a float."""
    ab, ab_lo = _two_product(a, b)
    p, p_lo = _two_product(ab, n)
    return np.fmod(p, 1.0) + (p_lo + ab_lo * n)


def _tensor_points(axes):
    """All points of the tensor grid over per-axis coordinates, (n, d), in
    row-major order (last axis fastest)."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def grid_lp_norm(values, cell_volume: float, p) -> float:
    """Riemann-sum L_p norm from sampled |values| on a uniform grid, for p a
    number >= 1, np.inf or "inf"; any other p is InvalidParams.  The largest
    |value| is factored out, so a ** p neither underflows nor overflows."""
    a = np.abs(np.asarray(values))
    top = float(a.max()) if a.size else 0.0
    if p == np.inf or p == "inf":
        return top
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not p >= 1:
        raise InvalidParams(f'p must be a number >= 1, np.inf or "inf", '
                            f'got {p!r}')
    if not 0.0 < top < np.inf:  # 0, inf or nan: the norm is that value
        return top
    p = float(p)
    return float(top * (np.sum((a / top) ** p) * cell_volume) ** (1.0 / p))


def as_points(x, dim: int):
    """Normalize point input to shape (..., d), a point per row; in 1-D a
    scalar or a vector of points too.  Returns (points, scalar_flag); a last
    axis of any other length than d is a ValueError."""
    a = np.asarray(x, dtype=float)
    if dim == 1 and a.ndim < 2:
        return a.reshape(-1, 1), a.ndim == 0
    coords = a.shape[-1] if a.ndim else 1
    if coords != dim:
        raise ValueError(f"point has {coords} coords, expected {dim}")
    if a.ndim == 1:
        return a.reshape(1, dim), True
    return a, False
