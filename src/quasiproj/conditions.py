"""Structural condition checkers for generator/analyzer pairs.

All checks are numerical: vanishing orders are detected through central
finite differences of the relevant Fourier profiles near the origin (the
binomial stencil `smoothness.difference` that the moduli use), with a
two-level Richardson sweep and a fixed zero threshold, so the reported
orders are certificates of observed behavior rather than symbolic proofs.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .analyzers import AnalysisFunctional, fourier_symbol
from .errors import InvalidParams
from .generators import Generator
from .quadrature import GridSpec
from .smoothness import difference

ZERO_TOL = 1e-7
MAX_ORDER = 8
DIFF_STEPS = (1e-2, 5e-3, 2.5e-3)
STRICT_TOL = 1e-9     # strict compatibility: largest |defect| on a box
STRICT_GRID = 64      # midpoints per axis on each dyadic box
MIKHLIN_GRID = 48     # points per axis on each annulus' bounding box


def _central_difference(fn, x, order, h, axis):
    """Order-th symmetric difference of fn with step h along one axis, centred
    at the rows of x (n, d)."""
    e = np.zeros(x.shape[1])
    e[axis] = h
    return difference(fn, x + 0.5 * order * e, -e, order)


def _defect(g: Generator, a: AnalysisFunctional):
    """The compatibility defect 1 - phi^ conj(symbol) as a function of points."""

    def defect(pts):
        return 1.0 - np.asarray(g.fourier(pts), dtype=complex) * \
            np.conj(np.asarray(fourier_symbol(a, pts), dtype=complex))

    return defect


def _richardson_scan(fn, dim, axis):
    """Smallest derivative order at the origin with a nonzero (extrapolated)
    symmetric difference quotient, up to MAX_ORDER."""
    for order in range(1, MAX_ORDER + 1):
        vals, raws = [], []
        for h in DIFF_STEPS:
            d = _central_difference(fn, np.zeros((1, dim)), order, h, axis)[0]
            raws.append(abs(d))
            vals.append(abs(d) / h ** order)
        # two Richardson levels: cancels the next two even-order error terms
        r1a = (4 * vals[1] - vals[0]) / 3.0
        r1b = (4 * vals[2] - vals[1]) / 3.0
        r2 = (16 * r1b - r1a) / 15.0
        # the raw-difference floor keeps 1e-16 cancellation noise from being
        # amplified into a fake derivative by the 1/h^order factor
        if abs(r2) > ZERO_TOL and max(raws) > 1e-13:
            return order
    return MAX_ORDER + 1


def strang_fix_order(g: Generator) -> int:
    """Largest n with phi^(0) = 1 and every derivative of phi^ up to order
    n-1 vanishing at the nonzero integer points (per axis, symmetric scan).

    Returns 0 when the normalization phi^(0) = 1 fails or some nonzero
    integer has phi^ itself nonzero.
    """
    origin = np.asarray(g.fourier(np.zeros((1, g.dim))))[0]
    if abs(origin - 1.0) > ZERO_TOL:
        return 0
    best = MAX_ORDER + 1
    for axis in range(g.dim):
        for ell in (-1, 1):
            center = np.zeros(g.dim)
            center[axis] = ell
            if abs(np.asarray(g.fourier(center[None, :]))[0]) > ZERO_TOL:
                return 0

            def shifted(pts, _c=center):
                return g.fourier(pts + _c)

            best = min(best, _richardson_scan(shifted, g.dim, axis))
    return int(best)


def weak_compat_order(g: Generator, a: AnalysisFunctional) -> int:
    """Vanishing order of 1 - phi^ conj(symbol) at the origin (0 if the
    normalization itself fails there)."""
    if g.dim != a.dim:
        raise InvalidParams(f"dimension mismatch: {g.dim} vs {a.dim}")
    defect = _defect(g, a)
    if abs(defect(np.zeros((1, g.dim)))[0]) > ZERO_TOL:
        return 0
    return int(min(_richardson_scan(defect, g.dim, axis)
                   for axis in range(g.dim)))


def strict_compat_radius(g: Generator, a: AnalysisFunctional) -> float:
    """Largest dyadic delta in {1, 1/2, ..., 2^-8} with
    conj(phi^) symbol = 1 throughout delta times the torus box (grid check
    on interior midpoints).  Returns 0.0 when even the smallest box fails.
    """
    if g.dim != a.dim:
        raise InvalidParams(f"dimension mismatch: {g.dim} vs {a.dim}")
    defect = _defect(g, a)
    for i in range(0, 9):
        delta = 2.0 ** (-i)
        box = np.array([[-0.5 * delta, 0.5 * delta]] * g.dim)
        pts = GridSpec(box, STRICT_GRID).points  # midpoints: strictly inside
        if np.max(np.abs(defect(pts))) <= STRICT_TOL:
            return delta
    return 0.0


def mikhlin_constant(g: Generator, a: AnalysisFunctional) -> float:
    """Diagnostic multiplier bound for the defect 1 - phi^ conj(symbol):
    max over dyadic annuli 2^-6 <= |xi| <= 2^6 of |xi|^[gamma] |D^gamma g|
    for derivative orders up to ceil(d/2)+1, via central differences.

    A sampled maximum, so a lower estimate of the true constant.
    """
    d = g.dim
    order = d // 2 + 1
    defect = _defect(g, a)
    best = 0.0
    for e in range(-6, 7):
        r = 2.0 ** e
        box = np.array([[-2 * r, 2 * r]] * d)
        pts = GridSpec(box, MIKHLIN_GRID).points
        rad = np.sqrt(np.sum(pts ** 2, axis=-1))
        mask = (rad >= r) & (rad <= 2 * r)
        if not np.any(mask):
            continue
        sel = pts[mask]
        best = max(best, float(np.max(np.abs(defect(sel)))))
        h = 1e-3 * r
        for gamma in range(1, order + 1):
            for axis in range(d):
                deriv = np.abs(_central_difference(defect, sel, gamma, h,
                                                   axis)) / h ** gamma
                best = max(best, float(np.max(rad[mask] ** gamma * deriv)))
    return best


@dataclass(frozen=True)
class ConditionReport:
    """The condition certificates of one generator/analyzer pair."""

    strang_fix: int
    weak_compat: int
    strict_delta: float
    mikhlin: float
    caveats: tuple

    def to_dict(self):
        return {**asdict(self), "caveats": list(self.caveats)}


def condition_report(g: Generator, a: AnalysisFunctional) -> ConditionReport:
    """All finite-difference certificates for one generator/analyzer pair."""
    caveats = ["orders are finite-difference certificates at threshold "
               f"{ZERO_TOL:g}, not symbolic proofs"]
    if not g.band_limited:
        caveats.append("generator is not band-limited; spectral checks use "
                       "its closed-form profile")
    return ConditionReport(strang_fix=strang_fix_order(g),
                           weak_compat=weak_compat_order(g, a),
                           strict_delta=strict_compat_radius(g, a),
                           mikhlin=mikhlin_constant(g, a),
                           caveats=tuple(caveats))
