"""Approximation-theoretic metrics: anisotropic moduli of smoothness, best
approximations and the fractional Laplacian.

The sup over difference steps in the modulus is sampled on a deterministic
direction/radius net, so reported values are lower estimates of the exact
sup; rate and ratio experiments only ever compare them across levels, which
is insensitive to the uniform sampling bias.

An integer-order difference is the binomial stencil `difference`; a
fractional one is the multiplier (1 - e^{2 pi i h.xi})^s on the signal's
profile (`fractional_difference`), so no series is cut.
"""

import math

import numpy as np

from .errors import InvalidParams, UnsupportedInput
from .functions import TestFunction, from_profile
from . import quadrature
from .lattice import inverse, map_box
from .quadrature import (ORDER_CAPS, PROFILE_TOL, GridSpec, converge,
                         gauss_nodes_box, grid_lp_norm, norm_grid, split_box,
                         transform)
from .records import Frozen, Record

DIRECTIONS = 16          # angular directions of the step net in 2-D
RADII = 6                # radius ladder 1 - 2^-i, i = 1..RADII


class ModulusSpec(Record, Frozen):
    """The order, step matrix and exponent p of a modulus of smoothness."""

    def __init__(self, order: float, matrix: np.ndarray, p: float):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if isinstance(order, bool) or not 0 < order < math.inf:
            raise InvalidParams(f"modulus order must be a finite number > 0, "
                                f"got {order!r}")
        if not np.all(np.isfinite(matrix)):
            raise InvalidParams(f"step matrix must be finite, got "
                                f"{matrix.tolist()}")
        vars(self).update(order=order, matrix=matrix, p=p)

    def _key(self):
        return self.order, self.matrix, self.p


class ModulusResult(Record, Frozen):
    """A modulus value and the number of steps it took the sup over."""

    def __init__(self, value: float, net_size: int):
        vars(self).update(value=value, net_size=net_size)

    def _key(self):
        return self.value, self.net_size


def difference(fn, x, h, s):
    """Order-s difference sum_nu (-1)^nu binom(s, nu) fn(x + nu h) at the rows
    of x (n, d), for an integer s >= 0: (n,) for one step h (d,), (m, n) for
    a stack of steps h (m, d), real where fn's values are.

    The nu = 0 term is one fn call at x; the other stencil points go in
    blocks of whole steps (of row slices, if one step alone passes
    MAX_BLOCK) of at most MAX_BLOCK points, one fn call a block.  Each value
    accumulates its terms in the order nu = 0..s."""
    if not (float(s).is_integer() and s >= 0):
        raise InvalidParams(f"the stencil needs an integer order >= 0, got {s}")
    s = int(s)
    steps = np.asarray(h, dtype=float)
    single = steps.ndim == 1
    steps = np.atleast_2d(steps)
    n = x.shape[0]
    base = np.asarray(fn(x))
    acc = np.zeros((len(steps), n), dtype=np.result_type(base, float))
    acc += base
    if s == 0:
        return acc[0] if single else acc
    nu = np.arange(1, s + 1)
    coef = [(-1) ** v * math.comb(s, v) for v in range(1, s + 1)]
    rows = max(1, min(n, quadrature.MAX_BLOCK // s))
    width = max(1, quadrature.MAX_BLOCK // (s * rows))
    for i in range(0, len(steps), width):
        moves = nu[:, None] * steps[i:i + width, None]  # (b, s, d)
        for r in range(0, n, rows):
            pts = x[None, None, r:r + rows] + moves[:, :, None]
            terms = np.asarray(fn(pts.reshape(-1, x.shape[1]))
                               ).reshape(pts.shape[:3])
            for v in range(s):
                acc[i:i + width, r:r + rows] += coef[v] * terms[:, v]
    return acc[0] if single else acc


def fractional_difference(f: TestFunction, h, s: float, x):
    """Order-s difference of a 1-D signal with a compact Fourier profile, with
    step h, at the rows of x: the signal whose profile is the multiplier
    (1 - e^{2 pi i h xi})^s times f^, evaluated by `from_profile` with the
    support cut at the multiplier's branch points xi = k / h."""
    if f.dim != 1:
        raise UnsupportedInput(f"a fractional difference is the 1-D multiplier "
                               f"route; {f.name} is {f.dim}-D")
    if f.fourier is None or f.fourier_support is None:
        raise UnsupportedInput(f"a fractional difference needs a compact "
                               f"Fourier profile, which {f.name} lacks")
    h = float(np.ravel(h)[0])
    lo, hi = sorted(h * f.fourier_support[0])
    branch = np.arange(math.ceil(lo), math.floor(hi) + 1) / h

    def profile(xi):
        mult = (1.0 - np.exp(2j * np.pi * h * xi[:, 0])) ** s
        return mult * np.asarray(f.fourier(xi), dtype=complex)

    return from_profile(f"diff({f.name})", 1, profile, f.fourier_support,
                        cuts=[branch]).spatial(x)


def step_net(spec: ModulusSpec):
    """Deterministic net of steps h = A (r u): angular directions times the
    radius ladder {1 - 2^-i}; shared with test oracles by contract."""
    d = spec.matrix.shape[0]
    if d == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    elif d == 2:
        angles = 2.0 * np.pi * np.arange(DIRECTIONS) / DIRECTIONS
        dirs = [np.array([np.cos(t), np.sin(t)]) for t in angles]
    else:
        dirs = [e * s for e in np.eye(d) for s in (1.0, -1.0)]
    radii = [1.0 - 2.0 ** (-i) for i in range(1, RADII + 1)]
    return [spec.matrix @ (r * u) for u in dirs for r in radii]


def modulus(f: TestFunction, spec: ModulusSpec, box, grid: int) -> ModulusResult:
    """Sampled anisotropic modulus: max over the step net of the grid L_p
    norm of the order-s difference.  A lower estimate of the exact sup."""
    g = _check_inputs(f, spec.matrix, box, grid)
    net = step_net(spec)
    s = spec.order
    if float(s).is_integer():
        diffs = difference(f.spatial, g.points, np.array(net), s)
    else:
        diffs = (fractional_difference(f, h, s, g.points) for h in net)
    value = float(np.max([grid_lp_norm(d, g.cell_volume, spec.p)
                          for d in diffs]))
    return ModulusResult(value=value, net_size=len(net))


# -- best approximation -----------------------------------------------------

def smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    b = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return a / (a + b)


def eta_profile(xi):
    """Tensor C-infinity cutoff: 1 on the unit torus box, 0 outside twice it."""
    xi = np.asarray(xi, dtype=float)
    u = np.abs(xi)
    factors = np.where(u <= 0.5, 1.0,
                       np.where(u >= 1.0, 0.0, smoothstep(2.0 * (1.0 - u))))
    return np.prod(factors, axis=-1)


def best_approx(f: TestFunction, A, p, box, grid: int) -> float:
    """Distance from f to signals band-limited to A* applied to the torus.

    p = 2: the Parseval route, the root of the mass of |f^|^2 outside the box
    A* T^d (its bounding box under a non-diagonal A, so a lower estimate): a
    Gauss rule on each cell of the support cut at that box's edges, doubled
    from order 32 by `converge` to within PROFILE_TOL on the root, up to
    ORDER_CAPS.
    Other p: the upper bound ||f - N_A f||_p(box), N_A a de la Vallee Poussin
    type smoothing within an absolute constant of the infimum: the residual
    profile (1 - eta(A*^{-1} xi)) f^(xi) over the support, transformed onto
    GridSpec(box, grid) by `transform` to within PROFILE_TOL, on the
    support cut per axis at the ends of A* [-1/2, 1/2]^d and A* [-1, 1]^d.
    A cell that A*^{-1} maps into [-1/2, 1/2]^d, where eta is 1, adds
    exactly 0 and is dropped.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    target = _check_inputs(f, A, box, grid)
    if f.fourier is None or f.fourier_support is None:
        raise UnsupportedInput(
            f"{f.name} needs a Fourier profile for best approximation")
    Astar_inv = inverse(A.T)  # Singular at every p
    d = A.shape[0]
    band = map_box(A.T, [[-0.5, 0.5]] * d)  # A* T^d, A* = A transpose
    if p == 2:
        tail = [cell for cell in split_box(f.fourier_support, band)
                if np.any((cell[:, 0] < band[:, 0]) | (cell[:, 1] > band[:, 1]))]

        def root(order):
            mass = 0.0
            for cell in tail:
                nodes, w = gauss_nodes_box(cell, order)
                mass += float(np.dot(np.abs(f.fourier(nodes)) ** 2, w))
            return math.sqrt(mass)

        return converge(root, 32, ORDER_CAPS[min(d, 3) - 1], PROFILE_TOL,
                        "best approximation")

    def resid(xi):
        return (1.0 - eta_profile(xi @ Astar_inv.T)) * \
            np.asarray(f.fourier(xi), dtype=complex)

    cells = [cell for cell in split_box(
        f.fourier_support, np.hstack([band, map_box(A.T, [[-1.0, 1.0]] * d)]))
        if np.any(np.abs(map_box(Astar_inv, cell)) > 0.5)]
    if not cells:  # the residual is 0 everywhere; grid_lp_norm checks p
        return grid_lp_norm([0.0], target.cell_volume, p)
    vals = transform(resid, cells, target, PROFILE_TOL, "best approximation")
    return grid_lp_norm(vals, target.cell_volume, p)


def _check_inputs(f: TestFunction, matrix, box, grid) -> GridSpec:
    """`norm_grid(box, grid)`, as `error_lp` takes it, for a finite d x d
    matrix and a (d, 2) box, d the signal's dimension; InvalidParams
    otherwise."""
    d = f.dim
    if matrix.shape != (d, d):
        raise InvalidParams(f"matrix of shape {matrix.shape} does not fit the "
                            f"{d}-D signal {f.name}: expected {(d, d)}")
    if not np.all(np.isfinite(matrix)):
        raise InvalidParams(f"matrix must be finite, got {matrix.tolist()}")
    if np.shape(box) != (d, 2):
        raise InvalidParams(f"box of shape {np.shape(box)} does not fit the "
                            f"{d}-D signal {f.name}: expected {(d, 2)}")
    return norm_grid(box, grid)


def fractional_laplacian(P: TestFunction, s: float) -> TestFunction:
    """(-Laplace)^{s/2} P for band-limited P: profile (2 pi |xi|)^s P^(xi)."""
    if s <= 0:
        raise InvalidParams(f"order must be > 0, got {s}")
    if P.fourier is None or P.fourier_support is None:
        raise UnsupportedInput(f"{P.name} lacks a compact Fourier profile")

    def profile(pts):
        r = 2.0 * np.pi * np.sqrt(np.sum(pts ** 2, axis=-1))
        return r ** s * np.asarray(P.fourier(pts), dtype=complex)

    return from_profile(f"laplacian^{s / 2:g}({P.name})", P.dim, profile,
                        P.fourier_support, cuts=[[0.0]] * P.dim)
