"""Catalog of synthesis functions with spatial and Fourier evaluation.

Every entry is described primarily by its Fourier profile; the profile is
normalized so its value at the origin is 1.  Conventions used throughout:

* Fourier transform  f^(xi) = integral f(x) exp(-2 pi i x.xi) dx,
* sinc x = sin(pi x) / (pi x), whose transform is the indicator of
  [-1/2, 1/2],
* the torus is identified with the box [-1/2, 1/2)^d.
"""

import math

import numpy as np

from .errors import InvalidParams, QuadratureFailure
from .quadrature import as_points, inverse_fourier

# kind -> its parameters and their defaults; a numeric default also sets the
# type a value is cast to (an int one takes only integral values), None takes
# the value as given
PARAMS = {
    "TensorSincPower": {"n": 1, "a": 1.0},
    "BSplineTensor": {"n": 1},
    "BochnerRiesz": {"s": 2.0, "gamma": 1.0},
    "RationalBandlimited": {},
    "FourierProfile": {"profile": None, "support": None, "decay": None},
}
KINDS = tuple(PARAMS)

SPATIAL_TOL = 1e-10


def bspline(n: int, t):
    """Centered cardinal B-spline of order n (n=1 is the box, n=2 the hat).

    Divided-difference form: B_n(t) = sum_k (-1)^k C(n,k) (t + n/2 - k)_+^{n-1} / (n-1)!.
    Its Fourier transform is sinc^n.
    """
    t = np.asarray(t, dtype=float)
    u = t + 0.5 * n
    acc = np.zeros_like(u)
    for k in range(n + 1):
        term = np.where(u > k, np.maximum(u - k, 0.0) ** (n - 1), 0.0)
        acc += (-1) ** k * math.comb(n, k) * term
    if n == 1:  # (..)^0 must not resurrect the region below the support
        return np.where(np.abs(t) < 0.5, 1.0, np.where(np.abs(t) == 0.5, 0.5, 0.0))
    # outside [-n/2, n/2] the alternating sum telescopes to 0; enforce exactly
    return np.where(np.abs(t) < 0.5 * n, acc / math.factorial(n - 1), 0.0)


class Generator:
    """A synthesis function phi with closed-form Fourier profile.

    Spatial evaluation is closed-form where one exists (sinc powers,
    B-splines) and adaptive inverse-Fourier quadrature otherwise, whose
    orders depend only on the points asked for.  A generator holds no
    mutable state, so its values do not depend on earlier calls and
    evaluation is freely concurrent.
    """

    def __init__(self, kind, params, dim, fourier_support, spatial_support,
                 decay_rate):
        self.kind = kind
        self.params = dict(params)
        self.dim = dim
        self.fourier_support = fourier_support
        self.spatial_support = spatial_support
        self.decay_rate = decay_rate

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())
                       if not callable(v))
        return f"Generator({self.kind}({ps}), d={self.dim})"

    @property
    def band_limited(self) -> bool:
        return self.fourier_support is not None

    # -- Fourier side -------------------------------------------------------

    def fourier(self, xi):
        """Profile value phi^(xi); vectorized over leading axes of xi."""
        pts, scalar = as_points(xi, self.dim)
        vals = self._fourier_pts(pts)
        return complex(vals[0]) if scalar else vals

    def _fourier_pts(self, pts):
        k = self.kind
        if k == "TensorSincPower":
            n, a = self.params["n"], self.params["a"]
            b0 = bspline(n, 0.0)
            return np.prod(bspline(n, a * pts) / b0, axis=-1).astype(complex)
        if k == "BSplineTensor":
            n = self.params["n"]
            return np.prod(np.sinc(pts) ** n, axis=-1).astype(complex)
        if k == "BochnerRiesz":
            s, gamma = self.params["s"], self.params["gamma"]
            r = 3.0 * np.sqrt(np.sum(pts ** 2, axis=-1))
            return (np.maximum(1.0 - r ** s, 0.0) ** gamma).astype(complex)
        if k == "RationalBandlimited":
            inside = np.all(np.abs(pts) <= 0.5, axis=-1)
            denom = np.prod(np.sinc(pts), axis=-1)
            out = np.zeros(pts.shape[:-1], dtype=complex)
            out[inside] = 1.0 / denom[inside]
            return out
        profile = self.params["profile"]
        return np.asarray(profile(pts), dtype=complex)

    # -- spatial side -------------------------------------------------------

    def spatial(self, x):
        """phi(x); closed form if available, else inverse-Fourier quadrature."""
        pts, scalar = as_points(x, self.dim)
        k = self.kind
        if k == "TensorSincPower":
            n, a = self.params["n"], self.params["a"]
            c = (a * bspline(n, 0.0)) ** (-self.dim)
            vals = (c * np.prod(np.sinc(pts / a) ** n, axis=-1)).astype(complex)
        elif k == "BSplineTensor":
            n = self.params["n"]
            vals = np.prod(bspline(n, pts), axis=-1).astype(complex)
        else:
            vals = self._spatial_quadrature(pts)
        return complex(vals[0]) if scalar else vals

    def _spatial_quadrature(self, pts):
        if self.fourier_support is None:
            raise QuadratureFailure(
                f"{self.kind} has no Fourier support box to integrate over")
        return inverse_fourier(self._fourier_pts, [self.fourier_support], pts,
                               SPATIAL_TOL, 32)


def make_generator(kind: str, params=None, dim: int = 1) -> Generator:
    """Build a catalog entry, validating its parameters.

    Catalog:
      TensorSincPower(n, a): phi = c prod sinc^n(x_v/a), c fixed by phi^(0)=1;
      BSplineTensor(n): tensor centered cardinal B-spline of order n;
      BochnerRiesz(s, gamma): phi^ = (1 - |3 xi|^s)_+^gamma;
      RationalBandlimited: phi^ = indicator of the torus / prod sinc;
      FourierProfile: user profile with a declared support box or decay rate.
    """
    if kind not in PARAMS:
        raise InvalidParams(f"unknown generator kind {kind!r}; choose from {KINDS}")
    params = _parameters(kind, dict(params or {}))
    if kind == "TensorSincPower":
        n, a = params["n"], params["a"]
        if n < 1 or a <= 0:
            raise InvalidParams(f"TensorSincPower needs n >= 1, a > 0, got n={n}, a={a}")
        half = n / (2.0 * a)
        box = np.array([[-half, half]] * dim)
        return Generator(kind, {"n": n, "a": a}, dim, box, None, float(n))
    if kind == "BSplineTensor":
        n = params["n"]
        if n < 1:
            raise InvalidParams(f"BSplineTensor needs n >= 1, got {n}")
        supp = np.array([[-n / 2.0, n / 2.0]] * dim)
        return Generator(kind, {"n": n}, dim, None, supp, None)
    if kind == "BochnerRiesz":
        s, gamma = params["s"], params["gamma"]
        if s <= 0:
            raise InvalidParams(f"BochnerRiesz needs s > 0, got {s}")
        if gamma <= (dim - 1) / 2.0:
            raise InvalidParams(
                f"BochnerRiesz needs gamma > (d-1)/2 = {(dim - 1) / 2}, got {gamma}")
        box = np.array([[-1.0 / 3.0, 1.0 / 3.0]] * dim)
        return Generator(kind, {"s": s, "gamma": gamma}, dim, box, None,
                         gamma + (dim + 1) / 2.0)
    if kind == "RationalBandlimited":
        box = np.array([[-0.5, 0.5]] * dim)
        return Generator(kind, {}, dim, box, None, 1.0)
    profile = params["profile"]  # FourierProfile
    if not callable(profile):
        raise InvalidParams("FourierProfile needs a callable 'profile'")
    support = params["support"]
    box = None if support is None else np.asarray(support, dtype=float)
    return Generator(kind, {"profile": profile}, dim, box, None,
                     params["decay"])


def as_int(value) -> int:
    """value as an int; a bool or a non-integral number is a ValueError, where
    int() would take True as 1 and truncate 2.7 to 2."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _parameters(kind, params):
    """params checked against PARAMS[kind]: known names only, and numbers
    cast to the type of their default."""
    defaults = PARAMS[kind]
    if set(params) - set(defaults):
        raise InvalidParams(f"bad {kind} parameters {params}; it takes "
                            f"{list(defaults)}")
    cast = {int: as_int, float: float}
    try:
        return {k: params.get(k) if d is None else cast[type(d)](params.get(k, d))
                for k, d in defaults.items()}
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"bad {kind} parameters {params}: {exc}") from None

