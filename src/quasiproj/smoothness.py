"""Approximation-theoretic metrics: anisotropic moduli of smoothness, best
approximations, the fractional Laplacian, and Besov-type partial norms.

The sup over difference steps in the modulus is sampled on a deterministic
direction/radius net, so reported values are lower estimates of the exact
sup; rate and ratio experiments only ever compare them across levels, which
is insensitive to the uniform sampling bias.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import InvalidParams, UnsupportedInput
from .functions import TestFunction, from_profile
from .lattice import map_box
from .quadrature import fourier_sum, gauss_nodes_box, grid_lp_norm, grid_points

DEFAULT_SERIES_CAP = 64


@dataclass(frozen=True)
class ModulusSpec:
    order: float
    matrix: np.ndarray
    p: float
    direction_samples: int = 16
    radius_samples: int = 6
    series_cap: int = DEFAULT_SERIES_CAP

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        if self.order <= 0:
            raise InvalidParams(f"modulus order must be > 0, got {self.order}")


@dataclass(frozen=True)
class ModulusResult:
    value: float
    step: np.ndarray
    grid_spacing: float
    net_size: int


@dataclass(frozen=True)
class BestApproxResult:
    value: float
    exact: bool          # True: Parseval tail mass (p=2); False: near-best upper bound
    method: str


def fractional_binomials(s: float, cap: int):
    """binom(s, nu) for nu = 0..cap via the stable downward recurrence."""
    out = np.empty(cap + 1)
    out[0] = 1.0
    for nu in range(cap):
        out[nu + 1] = out[nu] * (s - nu) / (nu + 1)
    return out


def _difference_weights(s: float, cap: int):
    if float(s).is_integer():
        n = int(round(s))
        b = fractional_binomials(float(n), n)
        return np.array([(-1) ** nu * b[nu] for nu in range(n + 1)])
    b = fractional_binomials(s, cap)
    return np.array([(-1) ** nu * b[nu] for nu in range(cap + 1)])


def fractional_difference(f: TestFunction, h, s: float, x, cap: int = DEFAULT_SERIES_CAP):
    """Value of the order-s difference of f with step h at x, plus a crude
    truncation bound for fractional s (exact series for integer s)."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = _difference_weights(s, cap)
    pts = x[None, :] + np.arange(len(w))[:, None] * h[None, :]
    vals = np.asarray(f.spatial(pts), dtype=complex)
    total = complex(np.dot(w, vals))
    if float(s).is_integer():
        return total, 0.0
    # |binom(s,nu)| ~ C nu^{-s-1}; bound the tail by the last computed weight
    probe = np.abs(np.asarray(f.spatial(
        x[None, :] + (cap + np.arange(1, 9))[:, None] * h[None, :]))).max()
    tail = abs(w[-1]) * cap / s * probe
    return total, float(tail)


def step_net(spec: ModulusSpec):
    """Deterministic net of steps h = A (r u): angular directions times the
    radius ladder {1 - 2^-i}; shared with test oracles by contract."""
    d = spec.matrix.shape[0]
    if d == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        n = max(2, spec.direction_samples)
        angles = 2.0 * np.pi * np.arange(n) / n
        if d == 2:
            dirs = [np.array([np.cos(t), np.sin(t)]) for t in angles]
        else:
            dirs = [e * s for e in np.eye(d) for s in (1.0, -1.0)]
    radii = [1.0 - 2.0 ** (-i) for i in range(1, spec.radius_samples + 1)]
    return [spec.matrix @ (r * u) for u in dirs for r in radii]


def _difference_grid_norm(f, h, s, cap, box, grid, p):
    w = _difference_weights(s, cap)
    pts, vol = grid_points(box, grid)
    acc = np.zeros(pts.shape[0], dtype=complex)
    for nu, wt in enumerate(w):
        acc += wt * np.asarray(f.spatial(pts + nu * h), dtype=complex)
    return grid_lp_norm(acc, vol, p)


def modulus(f: TestFunction, spec: ModulusSpec, box, grid: int) -> ModulusResult:
    """Sampled anisotropic modulus: max over the step net of the grid L_p
    norm of the order-s difference.  A lower estimate of the exact sup."""
    box = np.asarray(box, dtype=float)
    net = step_net(spec)
    best, best_h = 0.0, net[0]
    for h in net:
        val = _difference_grid_norm(f, h, spec.order, spec.series_cap,
                                    box, grid, spec.p)
        if val > best:
            best, best_h = val, h
    spacing = float(np.max((box[:, 1] - box[:, 0]) / grid))
    return ModulusResult(value=best, step=best_h, grid_spacing=spacing,
                         net_size=len(net))


# -- best approximation -----------------------------------------------------

def _complement_boxes(outer, inner):
    """Axis-aligned decomposition of outer minus inner into disjoint boxes."""
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    if np.any(inner[:, 1] <= outer[:, 0]) or np.any(inner[:, 0] >= outer[:, 1]):
        return [outer]
    boxes = []
    lo, hi = outer[0]
    ilo, ihi = max(lo, inner[0, 0]), min(hi, inner[0, 1])
    rest = outer[1:]
    if lo < ilo:
        boxes.append(np.vstack([[lo, ilo], rest]))
    if ihi < hi:
        boxes.append(np.vstack([[ihi, hi], rest]))
    if len(outer) > 1:
        for sub in _complement_boxes(outer[1:], inner[1:]):
            boxes.append(np.vstack([[ilo, ihi], sub]))
    return [b for b in boxes if np.all(b[:, 1] > b[:, 0])]


def _gl_integral(func, box, order):
    nodes, w = gauss_nodes_box(box, order)
    return float(np.dot(np.asarray(func(nodes), dtype=float), w))


def spectrum_tail_mass(f: TestFunction, band_box) -> float:
    """integral of |f^|^2 outside band_box (within the declared support)."""
    if f.fourier is None or f.fourier_support is None:
        raise UnsupportedInput(f"{f.name} lacks a compact Fourier profile")

    def density(pts):
        return np.abs(np.asarray(f.fourier(pts))) ** 2

    total = 0.0
    for b in _complement_boxes(f.fourier_support, band_box):
        total += _gl_integral(density, b, 192)
    return total


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


def best_approx(f: TestFunction, A, p, box, grid: int) -> BestApproxResult:
    """Distance from f to signals band-limited to A* applied to the torus.

    p = 2: exact Parseval route (tail mass of the profile outside A* T^d).
    Other p: upper bound ||f - N_A f||_p with the de la Vallee Poussin-type
    smoothing N_A, within an absolute constant of the infimum; flagged so.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if f.fourier is None or f.fourier_support is None:
        raise UnsupportedInput(
            f"{f.name} needs a Fourier profile for best approximation")
    band = map_box(A.T, [[-0.5, 0.5]] * A.shape[0])  # A* T^d, A* = A transpose
    if p == 2:
        return BestApproxResult(value=math.sqrt(max(spectrum_tail_mass(f, band), 0.0)),
                                exact=True, method="parseval-tail")
    Astar_inv = np.linalg.inv(A.T)
    supp = f.fourier_support
    nodes, w = gauss_nodes_box(supp, 192 if A.shape[0] == 1 else 64)
    # residual profile (1 - eta(A*^{-1} xi)) f^(xi), supported off the band
    resid = (1.0 - eta_profile(nodes @ Astar_inv.T)) * \
        np.asarray(f.fourier(nodes), dtype=complex) * w
    pts, vol = grid_points(np.asarray(box, dtype=float), grid)
    vals = fourier_sum(pts, nodes, resid)
    return BestApproxResult(value=grid_lp_norm(vals, vol, p),
                            exact=False, method="near-best-vallee-poussin")


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
                        P.fourier_support, split_origin=True)


def besov_partial_norm(f: TestFunction, M, alpha, p, nu_max: int,
                       box, grid: int):
    """Partial Besov-type norm: ||f||_p plus the weighted best-approximation
    series truncated at nu_max.  Returns (total, term list) so callers can
    check summability empirically."""
    if nu_max < 1:
        raise InvalidParams(f"nu_max must be >= 1, got {nu_max}")
    ent = M.entries if hasattr(M, "entries") else np.atleast_2d(np.asarray(M, float))
    det = abs(float(np.linalg.det(ent)))
    pts, vol = grid_points(np.asarray(box, dtype=float), grid)
    base = grid_lp_norm(np.asarray(f.spatial(pts)), vol, p)
    terms = []
    for nu in range(1, nu_max + 1):
        Anu = np.linalg.matrix_power(ent, nu)
        e = best_approx(f, Anu, p, box, grid).value
        weight = 1.0 if p == np.inf else det ** (nu / p)
        terms.append(weight * alpha(Anu) * e)
    return base + float(np.sum(terms)), terms
