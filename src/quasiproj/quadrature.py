"""Deterministic quadrature and grid helpers used across the package.

All rules are tensor Gauss-Legendre or uniform grids; nothing is randomized,
so repeated runs are bit-identical.  Every adaptive rule goes through one
doubling check, `converge`, whose orders depend only on its arguments, so a
value never depends on earlier calls.
"""

from functools import lru_cache, reduce
import itertools

import numpy as np

from .errors import QuadratureFailure

# largest rows x nodes block a vectorized sum builds at once
MAX_BLOCK = 4_000_000


@lru_cache(maxsize=64)
def leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_nodes_box(box, order: int):
    """Tensor Gauss-Legendre nodes/weights on an axis-aligned box.

    box: array-like of shape (d, 2).  Returns (nodes (n, d), weights (n,)).
    """
    box = np.asarray(box, dtype=float)
    x, w = leggauss(order)
    axes, wts = [], []
    for lo, hi in box:
        axes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * w)
    weights = reduce(np.multiply.outer, wts).ravel()
    return _tensor_points(axes), weights


def converge(evaluate, start, cap, tol, what):
    """The doubling check every adaptive rule goes through.

    Evaluates `evaluate(order)` at orders start, 2 start, ... and returns the
    first value whose largest absolute change from the previous order is
    within `tol`; the orders depend only on the arguments.  At the cap it
    raises QuadratureFailure naming `what` instead of degrading silently.
    """
    prev = None
    order = start
    while order <= cap:
        val = evaluate(order)
        if prev is not None and np.max(np.abs(val - prev)) <= tol:
            return val
        prev = val
        order *= 2
    raise QuadratureFailure(f"{what} did not reach tol={tol} at order {cap}")


def integrate_box(func, box, tol=1e-10, start_order=16, max_order=1024):
    """Adaptive tensor Gauss-Legendre integral of `func` over a box.

    `func` takes points of shape (n, d) and returns shape (n,).
    """

    def at(order):
        nodes, weights = gauss_nodes_box(box, order)
        return np.dot(func(nodes), weights)

    return converge(at, start_order, max_order, tol, "box integral")


def inverse_fourier(profile, boxes, pts, tol, start, cap):
    """Inverse Fourier transform of `profile` at the rows x of pts (n, d):
    the sum over `boxes` of integral profile(xi) exp(2 pi i x . xi) dxi.

    Each order takes one tensor Gauss rule per box, summed by `fourier_sum`;
    orders double from `start` to `cap` through `converge`."""

    def at(order):
        vals = 0.0
        for box in boxes:
            nodes, w = gauss_nodes_box(box, order)
            vals = vals + fourier_sum(
                pts, nodes, np.asarray(profile(nodes), dtype=complex) * w)
        return vals

    return converge(at, start, cap, tol, "inverse Fourier quadrature")


def split_box(box, cuts):
    """Tensor cells of a box cut, per axis, at the points of cuts[axis] that
    lie strictly inside it; cells are (d, 2) arrays in row-major order (last
    axis fastest)."""
    edges = []
    for (lo, hi), c in zip(box, cuts):
        c = np.asarray(c, dtype=float)
        pts = np.unique(np.concatenate([[lo], c[(c > lo) & (c < hi)], [hi]]))
        edges.append(list(zip(pts[:-1], pts[1:])))
    return [np.array(cell) for cell in itertools.product(*edges)]


def fourier_sum(pts, nodes, weights):
    """sum_n weights_n exp(2 pi i x . nodes_n) for each row x of pts (n, d),
    built in row blocks of at most MAX_BLOCK rows x nodes entries."""
    out = np.empty(pts.shape[0], dtype=complex)
    step = max(1, int(MAX_BLOCK / max(1, nodes.shape[0])))
    for i in range(0, pts.shape[0], step):
        out[i:i + step] = np.exp(2j * np.pi * (pts[i:i + step] @ nodes.T)) @ weights
    return out


def grid_points(box, grid: int):
    """Midpoint grid over a box: (grid^d, d) points plus the cell volume."""
    box = np.asarray(box, dtype=float)
    axes = []
    vol = 1.0
    for lo, hi in box:
        h = (hi - lo) / grid
        axes.append(lo + h * (np.arange(grid) + 0.5))
        vol *= h
    return _tensor_points(axes), vol


def _tensor_points(axes):
    """All points of the tensor grid over per-axis coordinates, (n, d), in
    row-major order (last axis fastest)."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def grid_lp_norm(values, cell_volume: float, p) -> float:
    """Riemann-sum L_p norm from sampled |values| on a uniform grid."""
    a = np.abs(np.asarray(values))
    if p == np.inf or p == "inf":
        return float(a.max()) if a.size else 0.0
    p = float(p)
    return float((np.sum(a ** p) * cell_volume) ** (1.0 / p))


def as_points(x, dim: int):
    """Normalize point input to shape (n, d); returns (points, scalar_flag)."""
    a = np.asarray(x, dtype=float)
    if dim == 1:
        if a.ndim == 0:
            return a.reshape(1, 1), True
        if a.ndim == 1:
            return a.reshape(-1, 1), False
        return a, False
    if a.ndim == 1:
        if a.shape[0] != dim:
            raise ValueError(f"point has {a.shape[0]} coords, expected {dim}")
        return a.reshape(1, dim), True
    return a, False
