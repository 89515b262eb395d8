"""Analysis functionals and the generalized inner products they induce.

The coefficient of a signal f at dilation level j and lattice site k is the
pairing of f with the rescaled functional, normalized so that the operator
sum uses synthesis atoms m^{j/2} phi(M^j x + k).

`analyze` is the one coefficient primitive.  It takes a single site or an
(n, d) array of sites.  Point, average, mixed and kernel kinds pair in space.
Dirac and BoxAverage are the uniform cases of MixedTensor, whose per-axis
tags `make_analyzer` sets, so one branch serves all three: point kinds make
one signal call over all sites, and integral kinds share one tensor Gauss
rule per order and cell and one convergence test across the sites and, for
KernelL1, its knot cells.  The derivative kinds are distributions, paired
through the signal's spectrum: one `quadrature.transform` onto the site box
serves every site, under any dilation matrix.
"""

import numpy as np

from .errors import InvalidParams, UnsupportedInput, UnsupportedMatrix
from .generators import as_int
from .lattice import DilationMatrix, map_box
from .quadrature import (MAX_BLOCK, ORDER_CAPS, PROFILE_TOL, GridSpec,
                         as_points, converge, gauss_nodes_box, split_box,
                         transform)
from .functions import TestFunction
from .records import Frozen, Record

KINDS = ("Dirac", "DiracDerivative", "BoxAverage", "MixedTensor", "KernelL1",
         "DiracPlusDerivative")


class AnalysisFunctional(Record, Frozen):
    """Tagged catalog variant of the analysis distribution/function.

    `beta` is the derivative multi-index.  `axes` holds the per-axis
    Dirac/BoxAverage tags: MixedTensor's own, and one tag on every axis for
    its uniform cases Dirac and BoxAverage.  Equality ignores `kernel`."""

    def __init__(self, kind: str, dim: int, beta: tuple | None = None,
                 axes: tuple | None = None,
                 kernel: TestFunction | None = None):
        vars(self).update(kind=kind, dim=dim, beta=beta, axes=axes,
                          kernel=kernel)

    def _key(self):
        return self.kind, self.dim, self.beta, self.axes


def make_analyzer(kind: str, dim: int = 1, beta=None, axes=None,
                  kernel: TestFunction | None = None) -> AnalysisFunctional:
    if kind not in KINDS:
        raise InvalidParams(f"unknown analyzer kind {kind!r}; choose from {KINDS}")
    if kind in ("DiracDerivative", "DiracPlusDerivative"):
        if beta is None:
            raise InvalidParams(f"{kind} needs a multi-index beta")
        try:
            beta = tuple(as_int(b) for b in np.atleast_1d(beta).tolist())
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"{kind} beta: {exc}") from None
        if len(beta) != dim or any(b < 0 for b in beta):
            raise InvalidParams(f"beta {beta} incompatible with dim {dim}")
    if kind in ("Dirac", "BoxAverage"):
        axes = (kind,) * dim
    if kind == "MixedTensor":
        axes = tuple(axes or ())
        if len(axes) != dim or any(a not in ("Dirac", "BoxAverage") for a in axes):
            raise InvalidParams(f"MixedTensor axes {axes} must be Dirac/BoxAverage per axis")
    if kind == "KernelL1":
        if not (isinstance(kernel, TestFunction) and kernel.dim == dim
                and kernel.spatial_support is not None):
            raise InvalidParams(f"KernelL1 needs a {dim}-D kernel TestFunction "
                                f"with compact spatial support, got {kernel!r}")
    return AnalysisFunctional(kind=kind, dim=dim, beta=beta, axes=axes, kernel=kernel)


def fourier_symbol(a: AnalysisFunctional, xi):
    """The transform of the analysis functional, vectorized over points."""
    pts, scalar = as_points(xi, a.dim)
    if a.kind == "DiracDerivative":
        vals = _monomial(pts, a.beta)
    elif a.kind == "DiracPlusDerivative":
        vals = 1.0 + _monomial(pts, a.beta)
    elif a.kind == "KernelL1":
        vals = np.asarray(a.kernel.fourier(pts), dtype=complex)
    else:  # Dirac, BoxAverage and MixedTensor
        vals = np.ones(pts.shape[0], dtype=complex)
        for ax, tag in enumerate(a.axes):
            if tag == "BoxAverage":
                vals = vals * np.sinc(pts[:, ax])
    return complex(vals[0]) if scalar else vals


def _monomial(pts, beta):
    vals = np.ones(pts.shape[0], dtype=complex)
    for ax, b in enumerate(beta):
        if b:
            vals = vals * (2j * np.pi * pts[:, ax]) ** b
    return vals


def alpha_bound(a: AnalysisFunctional, M: DilationMatrix) -> float:
    """Growth factor alpha(M) entering the admissibility inequality.

    Identically 1 for the bounded kinds; for derivative kinds it is the
    product of diagonal entries to the multi-index powers (diagonal M) or
    m^{[beta]/d} for isotropic M.
    """
    if a.kind in ("Dirac", "BoxAverage", "KernelL1", "MixedTensor"):
        return 1.0
    beta = a.beta
    if M.is_diagonal():
        diag = np.abs(np.diag(M.entries))
        return float(np.prod(diag ** np.asarray(beta, dtype=float)))
    if M.isotropic:
        return float(M.det_abs ** (sum(beta) / M.dim))
    raise UnsupportedMatrix(
        "derivative analyzers support only diagonal or isotropic dilations")


def analyze(f: TestFunction, a: AnalysisFunctional, M: DilationMatrix,
            j: int, k):
    """Coefficients of f at level j on lattice sites k.

    k is one site, shape (d,) (a scalar in 1-D), giving a complex, or an
    (n, d) site array, giving an (n,) array; one site is a batch of one.
    Normalization: the operator is sum_k analyze(f,...,j,k) m^{j/2} phi(M^j x + k).
    """
    k = np.asarray(k, dtype=float)
    single = k.ndim <= 1
    sites = np.atleast_1d(k)[None, :] if single else k
    if sites.ndim != 2 or sites.shape[1] != a.dim:
        raise InvalidParams(
            f"lattice sites of shape {k.shape} incompatible with dim {a.dim}")
    vals = M.det_abs ** (-j / 2.0) * _pairings(f, a, M, j, sites)
    return complex(vals[0]) if single else vals


def _pairings(f, a, M, j, sites):
    """Unscaled pairings <f(M^{-j} .), phi~(. + k)> for the rows k of sites."""
    if a.kind in ("DiracDerivative", "DiracPlusDerivative"):
        return M.det_abs ** j * _spectral_pairings(f, a, M, j, sites)
    Minv_j = M.power(-j)
    if a.kind == "KernelL1":
        # one integral over half-integer knot cells: spline-type kernels are
        # smooth on each cell, so the doubling rule converges there
        supp = a.kernel.spatial_support
        knots = [np.arange(np.ceil(2 * lo), np.floor(2 * hi) + 1) / 2.0
                 for lo, hi in supp]
        return _adaptive_box(f, Minv_j, sites, split_box(supp, knots),
                             list(range(a.dim)), a.kernel)
    # Dirac, BoxAverage and MixedTensor: average over the BoxAverage axes
    avg = [i for i, tag in enumerate(a.axes) if tag == "BoxAverage"]
    if not avg:  # the sample points -M^{-j} k
        return np.asarray(f.spatial(-(sites @ Minv_j.T)), dtype=complex)
    return _adaptive_box(f, Minv_j, sites, [np.array([[-0.5, 0.5]] * len(avg))],
                         avg)


def _spectral_pairings(f, a, M, j, sites):
    """integral of f^(M*^j eta) conj(phi~^(eta)) exp(-2 pi i k . eta) over
    the bounding box of M*^{-j} supp f^, for the rows k of sites: one
    `transform` onto the unit-step grid of the points -k over the sites'
    bounding box, each site read from it."""
    if f.fourier is None or f.fourier_support is None:
        raise UnsupportedInput(f"{a.kind} coefficients are a transform of the "
                               f"signal's compact Fourier profile, which "
                               f"{f.name} lacks")
    if not np.array_equal(sites, np.round(sites)):
        raise InvalidParams(f"{a.kind} coefficients need integer lattice sites")
    lo, hi = sites.min(axis=0), sites.max(axis=0)
    target = GridSpec(np.column_stack([-hi - 0.5, 0.5 - lo]),
                      tuple(int(n) for n in hi - lo + 1))
    Mj = M.adjoint_power(j)

    def profile(eta):
        return (np.asarray(f.fourier(eta @ Mj.T), dtype=complex)
                * np.conj(fourier_symbol(a, eta)))

    vals = transform(profile, [map_box(M.adjoint_power(-j), f.fourier_support)],
                     target, PROFILE_TOL, "coefficient transform")
    return vals[np.ravel_multi_index((hi - sites).astype(int).T,
                                     target.counts)]


def _adaptive_box(f, Minv_j, sites, cells, axes, kernel=None):
    """Integrals over t in the boxes `cells` of f(M^{-j} (t - k)), times
    conj(kernel(t)) when a kernel is given, one per site k (the rows of
    sites); t spans the listed axes and is 0 in the others.

    Each order takes a tensor Gauss rule per cell; `converge` doubles it from
    8 to within PROFILE_TOL on the sums over the cells, up to ORDER_CAPS.
    Each rule evaluates f on sites x nodes in blocks of at most MAX_BLOCK.
    """

    def at(order):
        total = np.zeros(sites.shape[0], dtype=complex)
        for cell in cells:
            t, w = gauss_nodes_box(cell, order)
            if len(axes) < sites.shape[1]:  # t is 0 on the other axes
                full = np.zeros((w.shape[0], sites.shape[1]))
                full[:, axes] = t
                t = full  # one copy of the nodes stays alive
            kw = 1.0 if kernel is None else np.conj(
                np.asarray(kernel.spatial(t), dtype=complex))
            step = max(1, MAX_BLOCK // w.shape[0])
            for i in range(0, sites.shape[0], step):
                pts = (t[None, :, :] - sites[i:i + step, None, :]) @ Minv_j.T
                vals = np.asarray(f.spatial(pts.reshape(-1, t.shape[1])))
                total[i:i + step] += vals.reshape(len(pts), -1) * kw @ w
        return total

    return converge(at, 8, ORDER_CAPS[min(len(axes), 3) - 1], PROFILE_TOL,
                    "analyzer box integral")
