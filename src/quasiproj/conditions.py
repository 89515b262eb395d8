"""Structural condition checkers for generator/analyzer pairs.

All checks are numerical certificates of observed behavior, not symbolic
proofs: a vanishing order is a settled log-log slope of profile values on a
ladder of radii, an identity radius a grid check on dyadic boxes.
"""

import numpy as np

from .analyzers import AnalysisFunctional, fourier_symbol
from .errors import InvalidParams, QuadratureFailure
from .generators import Generator
from .quadrature import GridSpec
from .records import Frozen, Record
from .smoothness import difference

ZERO_TOL = 1e-7
MAX_ORDER = 8
SLOPE_TOL = 0.05      # a slope settles when three in a row lie this close
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


def _vanishing_order(fn, centre, what):
    """Vanishing order of |fn| at `centre`, least over the rays centre +- r
    e_axis and capped at MAX_ORDER + 1.

    Each ray is evaluated once on r = q^i / 2, q = 2^-1/4, i < 45, and read up
    to its first rung at or below the 1e-13 floor.  Two Richardson levels
    cancel the O(r) and O(r^2) terms of the log-ratio slopes; the last three
    in a row within SLOPE_TOL settle the slope s, read as floor(s + SLOPE_TOL).
    A ray that stays at the floor from some rung on vanishes if it drops there
    by more than q^(MAX_ORDER + 1) in one rung or unsettled; any other
    unsettled ray (one with a NaN, too) raises QuadratureFailure.
    """
    q = 2.0 ** -0.25
    r = 0.5 * q ** np.arange(45)
    order = MAX_ORDER + 1
    for step in np.vstack([np.eye(centre.size), -np.eye(centre.size)]):
        vals = np.abs(fn(centre + r[:, None] * step))
        n = np.append(vals > 1e-13, False).argmin()  # rungs above the floor
        floored = n < r.size and np.all(vals[n:] <= 1e-13)  # NaN is not
        if floored and (n == 0 or vals[n - 1] * q ** (MAX_ORDER + 1) > 1e-13):
            continue  # a drop steeper than order MAX_ORDER + 1: it vanishes
        slope = np.diff(np.log(vals[:n])) / np.log(q)
        for k in (1, 2):
            slope = (slope[1:] - q ** k * slope[:-1]) / (1 - q ** k)
        runs = [np.mean(slope[i:i + 3]) for i in range(slope.size - 2)
                if np.ptp(slope[i:i + 3]) <= SLOPE_TOL]
        if runs and (floored or n == r.size):
            order = min(order, int(np.floor(runs[-1] + SLOPE_TOL)))
        elif not floored:
            raise QuadratureFailure(f"{what} at {centre.tolist()}: slopes "
                                    f"did not settle within {SLOPE_TOL}")
    return order


def strang_fix_order(g: Generator) -> int:
    """Largest n <= MAX_ORDER + 1 with phi^ vanishing to order n at each of
    the integer points +-e_axis; 0 when phi^(0) != 1 or phi^ is nonzero at
    one of them."""
    if abs(g.fourier(np.zeros((1, g.dim)))[0] - 1.0) > ZERO_TOL:
        return 0
    centres = np.vstack([np.eye(g.dim), -np.eye(g.dim)])
    if np.max(np.abs(g.fourier(centres))) > ZERO_TOL:
        return 0
    return min(_vanishing_order(g.fourier, c, "strang_fix") for c in centres)


def weak_compat_order(g: Generator, a: AnalysisFunctional) -> int:
    """Vanishing order of 1 - phi^ conj(symbol) at the origin (0 if the
    normalization itself fails there)."""
    if g.dim != a.dim:
        raise InvalidParams(f"dimension mismatch: {g.dim} vs {a.dim}")
    defect = _defect(g, a)
    if abs(defect(np.zeros((1, g.dim)))[0]) > ZERO_TOL:
        return 0
    return _vanishing_order(defect, np.zeros(g.dim), "weak_compat")


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


class ConditionReport(Record, Frozen):
    """The condition certificates of one generator/analyzer pair."""

    def __init__(self, strang_fix: int, weak_compat: int,
                 strict_delta: float, mikhlin: float, caveats: tuple):
        vars(self).update(strang_fix=strang_fix, weak_compat=weak_compat,
                          strict_delta=strict_delta, mikhlin=mikhlin,
                          caveats=caveats)

    def _key(self):
        return (self.strang_fix, self.weak_compat, self.strict_delta,
                self.mikhlin, self.caveats)

    def to_dict(self):
        return {**vars(self), "caveats": list(self.caveats)}


def condition_report(g: Generator, a: AnalysisFunctional) -> ConditionReport:
    """All condition certificates for one generator/analyzer pair."""
    caveats = ["orders are value slopes on a ladder of radii, settled to "
               f"{SLOPE_TOL:g}, not symbolic proofs"]
    if not g.band_limited:
        caveats.append("generator is not band-limited; spectral checks use "
                       "its closed-form profile")
    return ConditionReport(strang_fix=strang_fix_order(g),
                           weak_compat=weak_compat_order(g, a),
                           strict_delta=strict_compat_radius(g, a),
                           mikhlin=mikhlin_constant(g, a),
                           caveats=tuple(caveats))
