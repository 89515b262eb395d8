"""Evaluation of the quasi-projection operator and L_p error norms.

The spatial route is `evaluate_spatial`: each point y = M^j x of a batch
sums c_k m^{j/2} phi(y + k) over a window of atoms about floor(-y), masked
by the generator's support, with the coefficients from one batched
`analyze` call over the site box that covers every window;
`evaluate_grid_compact` is that sum, for compactly supported generators,
over a window that holds every atom reaching the point.  The spectral route
handles band-limited data exactly: the transform of the operator output is
assembled in one pass from finitely many lattice aliases of the signal's
profile: the nodes of its support box that a shifted signal box reaches
are cut once, and each shift adds its term over them.  Its callable
evaluates either at arbitrary points or, handed a `GridSpec`, on that grid
axis by axis.
"""

import math
import numbers

import numpy as np

from .analyzers import AnalysisFunctional, analyze, fourier_symbol
from .errors import InvalidParams, UnsupportedInput
from .functions import TestFunction
from .lattice import DilationMatrix, map_box
from . import quadrature
from .quadrature import (GridSpec, as_points, fourier_sum, grid_fourier_sum,
                         grid_lp_norm)
from .records import Frozen, Record


class OperatorSpec(Record, Frozen):
    """The operator Q_j: generator, analyzer, dilation and level j."""

    def __init__(self, generator: TestFunction, analyzer: AnalysisFunctional,
                 dilation: DilationMatrix, level: int = 0):
        dims = {generator.dim, analyzer.dim, dilation.dim}
        if len(dims) != 1:
            raise InvalidParams(f"dimension mismatch: {dims}")
        if level < 0:
            raise InvalidParams(f"level must be >= 0, got {level}")
        vars(self).update(generator=generator, analyzer=analyzer,
                          dilation=dilation, level=level)

    def _key(self):
        return self.generator, self.analyzer, self.dilation, self.level

    @property
    def dim(self):
        return self.dilation.dim


def evaluate_spatial(spec: OperatorSpec, f: TestFunction, pts, radius):
    """Partial sums of the operator series at a batch of points (n, d).

    Each point y = M^j x sums the atoms k with ||k - floor(-y)||_inf <=
    radius, masked by the generator's support when it has one.  The
    coefficients come from one `analyze` call over the site box that covers
    every window, cut to the atoms whose support reaches a point.  The sum is
    one vectorized pass over points x window offsets in blocks of at most
    MAX_BLOCK entries, one generator call a block.  Returns the (n,) complex
    values; for a sequence of radii, the (len(radius), n) sums at each, from
    the coefficients and generator values of the largest.
    """
    radii = tuple(radius) if np.ndim(radius) else (radius,)
    if not radii or not all(isinstance(r, numbers.Integral) and
                            not isinstance(r, bool) and r >= 0 for r in radii):
        raise InvalidParams(f"radius must be an integer >= 0, got {radius!r}")
    top = max(radii)
    pts, _ = as_points(pts, spec.dim)
    y = pts @ spec.dilation.power(spec.level).T
    base = np.floor(-y).astype(int)
    lo = base.min(axis=0) - top
    hi = base.max(axis=0) + top
    supp = spec.generator.spatial_support
    if supp is not None:
        half = np.max(np.abs(supp))
        lo = np.maximum(lo, np.floor(-y.max(axis=0) - half).astype(int))
        hi = np.minimum(hi, np.ceil(-y.min(axis=0) + half).astype(int))
    shape = tuple(hi - lo + 1)
    coeffs = analyze(f, spec.analyzer, spec.dilation, spec.level,
                     _site_box(lo, shape))
    amp = spec.dilation.det_abs ** (spec.level / 2.0)
    offsets = _site_box(np.full(spec.dim, -top), (2 * top + 1,) * spec.dim)
    out = np.zeros((len(radii), y.shape[0]), dtype=complex)
    # blocks of whole windows (of window slices, if one window alone passes
    # MAX_BLOCK); np.add.at keeps each point's sum in offset order
    width = min(len(offsets), quadrature.MAX_BLOCK)
    rows = quadrature.MAX_BLOCK // width
    for o in range(0, len(offsets), width):
        for i in range(0, y.shape[0], rows):
            ks = base[i:i + rows, None] + offsets[o:o + width]
            args = y[i:i + rows, None] + ks
            keep = np.ones(ks.shape[:2], dtype=bool)
            if supp is not None:
                keep = np.all((args >= supp[:, 0]) & (args <= supp[:, 1]),
                              axis=2)
            row, off = np.nonzero(keep)
            phi = np.asarray(spec.generator.spatial(args[row, off]),
                             dtype=complex)
            cs = coeffs[np.ravel_multi_index((ks[row, off] - lo).T, shape)]
            terms = amp * cs * phi
            for acc, r in zip(out, radii):
                inner = (slice(None) if r == top else
                         np.max(np.abs(offsets[o + off]), axis=1) <= r)
                np.add.at(acc, i + row[inner], terms[inner])
    return out if np.ndim(radius) else out[0]


def evaluate_grid_compact(spec: OperatorSpec, f: TestFunction, pts):
    """Operator values on a batch of points for generators with compact
    spatial support: `evaluate_spatial` with the window of every atom that
    can reach a point, radius ceil(max |supp phi|) + 1."""
    supp = spec.generator.spatial_support
    if supp is None:
        raise UnsupportedInput("generator lacks compact spatial support")
    return evaluate_spatial(spec, f, pts, int(np.ceil(np.max(np.abs(supp)))) + 1)


def _site_box(lo, shape):
    """The integer sites lo + [0, shape) as an (n, d) array, in row-major
    order (last axis fastest), so coefficients reshape to the box."""
    return np.indices(shape).reshape(len(shape), -1).T + lo


# -- spectral route ---------------------------------------------------------

def spectrum_support(spec: OperatorSpec):
    """Bounding box of the transform of Q_j f: M*^j applied to supp phi^."""
    if spec.generator.fourier_support is None:
        raise UnsupportedInput("generator is not band-limited")
    return map_box(spec.dilation.adjoint_power(spec.level),
                   spec.generator.fourier_support)


def alias_shifts(spec: OperatorSpec, f: TestFunction):
    """Integer lattice shifts that can contribute to the alias sum.

    k contributes iff xi + M*^j k hits supp f^ for some xi in the output
    spectrum box S, that is iff M*^j k lies in the box supp f^ - S (to a
    slack of 1e-12).  The candidates are the integer points of the bounding
    box of M*^{-j} (supp f^ - S); under a non-diagonal M some of them miss.
    """
    if f.fourier_support is None:
        raise UnsupportedInput(f"{f.name} lacks a compactly supported profile")
    S = spectrum_support(spec)
    diff = np.stack([f.fourier_support[:, 0] - S[:, 1],
                     f.fourier_support[:, 1] - S[:, 0]], axis=1)
    Aj = spec.dilation.adjoint_power(spec.level)
    back = map_box(spec.dilation.adjoint_power(-spec.level), diff)
    lo = np.ceil(back[:, 0] - 1e-12).astype(int)
    hi = np.floor(back[:, 1] + 1e-12).astype(int)
    ks = _site_box(lo, np.maximum(hi - lo + 1, 0))  # (0, d) if one is empty
    moved = ks @ Aj.T
    keep = np.all((moved >= diff[:, 0] - 1e-12)
                  & (moved <= diff[:, 1] + 1e-12), axis=1)
    return list(ks[keep])


def spectral_evaluator(spec: OperatorSpec, f: TestFunction):
    """Spatial evaluator for Q_j f by quadrature of its spectrum, in one pass.

    The spectrum is sampled on the cells of a midpoint grid over its support
    box S that some shifted box supp f^ - M*^j k reaches; elsewhere the grid
    would sample f^ only beyond its declared box.  Each shift adds its term
    over those nodes, in `alias_shifts` order.  The returned callable
    takes a `GridSpec`, summed per axis by `grid_fourier_sum`, or points
    (n, d), summed by the blocked `fourier_sum`, and returns the complex
    values (row-major on a grid).  With no alias shift it returns zeros.
    """
    S = spectrum_support(spec)
    width = float(np.max(S[:, 1] - S[:, 0]))
    if spec.dim == 1:
        nodes_per_axis = int(min(32768, max(4096, 512 * width)))
    else:
        nodes_per_axis = int(min(512, max(128, 16 * width)))
    shifts = np.array(alias_shifts(spec, f), dtype=int).reshape(-1, spec.dim)
    Aj = spec.dilation.adjoint_power(spec.level)
    Aj_inv = spec.dilation.adjoint_power(-spec.level)
    moved = shifts @ Aj.T
    nodes = None
    if len(shifts):
        # per axis the hull of the shifted boxes (a shift does not rotate
        # them) cut to S, in whole cells, so the midpoints are the grid's
        h = (S[:, 1] - S[:, 0]) / nodes_per_axis
        lo = np.maximum(f.fourier_support[:, 0] - moved.max(axis=0), S[:, 0])
        hi = np.minimum(f.fourier_support[:, 1] - moved.min(axis=0), S[:, 1])
        first = np.clip(np.floor((lo - S[:, 0]) / h), 0, nodes_per_axis)
        last = np.clip(np.ceil((hi - S[:, 0]) / h), 0, nodes_per_axis)
        if np.all(last > first):
            nodes = GridSpec(S[:, :1] + np.column_stack([first, last])
                             * h[:, None], tuple((last - first).astype(int)))
    if nodes is not None:
        pts = nodes.points
        base = pts @ Aj_inv.T
        acc = np.zeros(len(pts), dtype=complex)
        for k, m in zip(shifts, moved):
            fhat = np.asarray(f.fourier(pts + m), dtype=complex)
            sym = np.asarray(fourier_symbol(spec.analyzer, base + k),
                             dtype=complex)
            acc += fhat * np.conj(sym)
        weights = (np.asarray(spec.generator.fourier(base), dtype=complex)
                   * acc * nodes.cell_volume)

    def evaluator(x):
        if isinstance(x, GridSpec):
            if nodes is None:
                return np.zeros(math.prod(x.counts), dtype=complex)
            return grid_fourier_sum(x, nodes.axes, weights)
        pts, scalar = as_points(x, spec.dim)
        out = (np.zeros(pts.shape[0], dtype=complex) if nodes is None
               else fourier_sum(pts, nodes.points, weights))
        return complex(out[0]) if scalar else out

    return evaluator


# -- error norms ------------------------------------------------------------

def error_lp(f, approx, p, box, grid: int) -> float:
    """Riemann-sum L_p(box) norm of f - approx on a uniform midpoint grid.

    f takes the grid points (n, d); approx takes the `GridSpec` and returns
    its values at the same points, in row-major order."""
    if grid < 2:
        raise InvalidParams(f"grid must be >= 2 per axis, got {grid}")
    g = GridSpec(box, grid)
    diff = (np.asarray(f(g.points)).astype(complex)
            - np.asarray(approx(g)).astype(complex))
    return grid_lp_norm(diff, g.cell_volume, p)
