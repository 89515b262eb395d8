"""Analytic test signals with exact spatial evaluation.

Each entry carries an exact spatial evaluator and (when available) an exact
Fourier profile with a declared support box.  The box is what the spectral
paths, derivative coefficients and best-approximation integrals rely on, so
profiles without genuine compact support (the Gaussian) declare a truncation
box whose discarded mass is below 1e-30.
Signals built from a profile alone evaluate by `quadrature.transform` onto
the points asked for, whose orders depend only on those points, so a value
does not depend on earlier calls.
"""

import numbers

import numpy as np

from .errors import InvalidParams
from .quadrature import PROFILE_TOL, as_points, split_box, transform
from .records import Record


class TestFunction(Record):
    """A test signal: spatial values and, if known, its Fourier transform and
    spectrum box.  Mutable: a caller may wrap `spatial`."""

    __test__ = False  # keep pytest from collecting this as a test class
    __hash__ = None

    def __init__(self, name: str, dim: int, spatial, fourier=None,
                 fourier_support: np.ndarray | None = None):
        self.name = name
        self.dim = dim
        self.spatial = spatial
        self.fourier = fourier
        self.fourier_support = fourier_support

    def _key(self):
        return (self.name, self.dim, self.spatial, self.fourier,
                self.fourier_support)

    def __call__(self, x):
        pts, scalar = as_points(x, self.dim)
        vals = self.spatial(pts)
        return complex(vals[0]) if scalar else np.asarray(vals)


def from_profile(name, dim, profile, support, cuts=None):
    """Build a TestFunction from a compactly supported Fourier profile.

    The spatial evaluator is `transform` of the profile over its support
    box, cut per axis at the kinks cuts[axis] (`split_box`), where cutting
    restores spectral convergence (a radial power |xi|^s at 0, say).
    """
    support = np.asarray(support, dtype=float)
    boxes = [support] if cuts is None else split_box(support, cuts)

    def spatial(pts):
        return transform(profile, boxes, pts, PROFILE_TOL,
                         "inverse Fourier quadrature")

    return TestFunction(name=name, dim=dim, spatial=spatial, fourier=profile,
                        fourier_support=support)


# -- catalog ----------------------------------------------------------------

def gaussian(dim: int = 1) -> TestFunction:
    """f(x) = exp(-pi |x|^2); self-dual under the transform convention here."""

    def spatial(pts):
        return np.exp(-np.pi * np.sum(pts ** 2, axis=-1))

    # The wide truncation box keeps tail integrals of |f^|^2 meaningful down
    # to the denormal range; discarded mass is below exp(-2*pi*81).
    support = np.array([[-9.0, 9.0]] * dim)
    return TestFunction(name="gaussian", dim=dim, spatial=spatial,
                        fourier=spatial, fourier_support=support)


def band_bump(rho: float = 0.4, dim: int = 1) -> TestFunction:
    """Band-limited bump: inverse transform of a C-infinity profile on [-rho, rho]^d."""
    if isinstance(rho, bool) or not (isinstance(rho, numbers.Real) and rho > 0):
        raise InvalidParams(f"band_bump needs a number rho > 0, got {rho!r}")

    def profile(pts):
        u = pts / rho
        inside = np.abs(u) < 1.0
        out = np.zeros(pts.shape, dtype=float)
        z = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - z ** 2))
        return np.prod(out, axis=-1)

    support = np.array([[-rho, rho]] * dim)
    return from_profile(f"band_bump({rho:g})", dim, profile, support)


def hat_tensor(dim: int = 1) -> TestFunction:
    """Tensor hat function (finite C^0 smoothness); transform is prod sinc^2."""

    def spatial(pts):
        return np.prod(np.maximum(0.0, 1.0 - np.abs(pts)), axis=-1)

    def fourier(pts):
        return np.prod(np.sinc(pts) ** 2, axis=-1)

    return TestFunction(name="hat", dim=dim, spatial=spatial, fourier=fourier,
                        fourier_support=None)


def sinc_tensor(dim: int = 1) -> TestFunction:
    """Tensor sinc; transform is the indicator of the (closed) unit torus box."""

    def spatial(pts):
        return np.prod(np.sinc(pts), axis=-1)

    def fourier(pts):
        return np.where(np.all(np.abs(pts) <= 0.5, axis=-1), 1.0, 0.0)

    support = np.array([[-0.5, 0.5]] * dim)
    return TestFunction(name="sinc", dim=dim, spatial=spatial, fourier=fourier,
                        fourier_support=support)


# the test signals the experiment configs name: name -> (builder taking the
# dimension and the parameters, the parameter names it takes)
SIGNALS = {
    "gaussian": (gaussian, ()),
    "band_bump": (lambda dim, rho=0.4: band_bump(rho, dim), ("rho",)),
    "hat": (hat_tensor, ()),
    "sinc": (sinc_tensor, ()),
}


def get(name: str, dim: int = 1, **params) -> TestFunction:
    """Catalog lookup used by the experiment configs."""
    if name not in SIGNALS:
        raise InvalidParams(f"unknown test function {name!r}; choose from "
                            f"{tuple(SIGNALS)}")
    build, names = SIGNALS[name]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise InvalidParams(f"{name} takes no parameter {unknown}; it takes "
                            f"{list(names)}")
    return build(dim, **params)

