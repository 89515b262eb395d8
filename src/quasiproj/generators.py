"""Catalog of synthesis functions with spatial and Fourier evaluation.

Every entry is described primarily by its Fourier profile; the profile is
normalized so its value at the origin is 1.  Conventions used throughout:

* Fourier transform  f^(xi) = integral f(x) exp(-2 pi i x.xi) dx,
* sinc x = sin(pi x) / (pi x), whose transform is the indicator of
  [-1/2, 1/2],
* the torus is identified with the box [-1/2, 1/2)^d.

`make_generator` branches on the kind once and builds both evaluators:
closed forms for the sinc powers and B-splines, and for the profile-only
kinds the test signals' inverse-Fourier evaluator `functions.from_profile`.
"""

import math

import numpy as np

from .errors import InvalidParams, QuadratureFailure
from .functions import from_profile
from .quadrature import as_points

# kind -> its parameters and their defaults; a numeric default also sets the
# type a value is cast to (an int one takes only integral values), None takes
# the value as given
PARAMS = {
    "TensorSincPower": {"n": 1, "a": 1.0},
    "BSplineTensor": {"n": 1},
    "BochnerRiesz": {"s": 2.0, "gamma": 1.0},
    "RationalBandlimited": {},
    "FourierProfile": {"profile": None, "support": None},
}
KINDS = tuple(PARAMS)


def bspline(n: int, t):
    """Centered cardinal B-spline of order n (n=1 is the box, n=2 the hat).

    Divided-difference form: B_n(t) = sum_k (-1)^k C(n,k) (t + n/2 - k)_+^{n-1} / (n-1)!.
    Its Fourier transform is sinc^n.
    """
    t = np.asarray(t, dtype=float)
    if n == 1:  # the box, half at its edges; (..)^0 would not vanish below it
        return np.where(np.abs(t) < 0.5, 1.0, np.where(np.abs(t) == 0.5, 0.5, 0.0))
    u = t + 0.5 * n
    acc = np.zeros_like(u)
    for k in range(n + 1):
        term = np.where(u > k, np.maximum(u - k, 0.0) ** (n - 1), 0.0)
        acc += (-1) ** k * math.comb(n, k) * term
    # outside [-n/2, n/2] the alternating sum telescopes to 0; enforce exactly
    return np.where(np.abs(t) < 0.5 * n, acc / math.factorial(n - 1), 0.0)


class Generator:
    """A synthesis function phi with closed-form Fourier profile.

    `make_generator` fixes the profile and the spatial evaluator once, as
    callables on (n, d) point arrays.  A generator holds no mutable state,
    so its values do not depend on earlier calls and evaluation is freely
    concurrent.
    """

    def __init__(self, kind, params, dim, fourier_support, spatial_support,
                 profile, spatial):
        self.kind = kind
        self.params = dict(params)
        self.dim = dim
        self.fourier_support = fourier_support
        self.spatial_support = spatial_support
        self._profile = profile
        self._spatial = spatial

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())
                       if not callable(v))
        return f"Generator({self.kind}({ps}), d={self.dim})"

    @property
    def band_limited(self) -> bool:
        return self.fourier_support is not None

    def fourier(self, xi):
        """Profile value phi^(xi); vectorized over leading axes of xi."""
        pts, scalar = as_points(xi, self.dim)
        vals = np.asarray(self._profile(pts), dtype=complex)
        return complex(vals[0]) if scalar else vals

    def spatial(self, x):
        """phi(x); vectorized over leading axes of x."""
        pts, scalar = as_points(x, self.dim)
        vals = np.asarray(self._spatial(pts), dtype=complex)
        return complex(vals[0]) if scalar else vals


def make_generator(kind: str, params=None, dim: int = 1) -> Generator:
    """Build a catalog entry, validating its parameters.

    Catalog:
      TensorSincPower(n, a): phi = c prod sinc^n(x_v/a), c fixed by phi^(0)=1;
      BSplineTensor(n): tensor centered cardinal B-spline of order n;
      BochnerRiesz(s, gamma): phi^ = (1 - |3 xi|^s)_+^gamma;
      RationalBandlimited: phi^ = indicator of the torus / prod sinc;
      FourierProfile: user profile with an optional support box (dim finite
        rows [lo, hi], lo < hi).
    """
    if kind not in PARAMS:
        raise InvalidParams(f"unknown generator kind {kind!r}; choose from {KINDS}")
    params = _parameters(kind, dict(params or {}))
    if kind == "TensorSincPower":
        n, a = params["n"], params["a"]
        if n < 1 or a <= 0:
            raise InvalidParams(f"TensorSincPower needs n >= 1, a > 0, got n={n}, a={a}")
        b0 = bspline(n, 0.0)
        c = (a * b0) ** (-dim)
        half = n / (2.0 * a)
        return Generator(
            kind, params, dim, np.array([[-half, half]] * dim), None,
            lambda xi: np.prod(bspline(n, a * xi) / b0, axis=-1),
            lambda x: c * np.prod(np.sinc(x / a) ** n, axis=-1))
    if kind == "BSplineTensor":
        n = params["n"]
        if n < 1:
            raise InvalidParams(f"BSplineTensor needs n >= 1, got {n}")
        return Generator(kind, params, dim, None,
                         np.array([[-n / 2.0, n / 2.0]] * dim),
                         lambda xi: np.prod(np.sinc(xi) ** n, axis=-1),
                         lambda x: np.prod(bspline(n, x), axis=-1))
    if kind == "BochnerRiesz":
        s, gamma = params["s"], params["gamma"]
        if s <= 0:
            raise InvalidParams(f"BochnerRiesz needs s > 0, got {s}")
        if gamma <= (dim - 1) / 2.0:
            raise InvalidParams(
                f"BochnerRiesz needs gamma > (d-1)/2 = {(dim - 1) / 2}, got {gamma}")

        def profile(xi):
            r = 3.0 * np.sqrt(np.sum(xi ** 2, axis=-1))
            return np.maximum(1.0 - r ** s, 0.0) ** gamma

        return _profiled(kind, params, dim, profile,
                         np.array([[-1.0 / 3.0, 1.0 / 3.0]] * dim))
    if kind == "RationalBandlimited":

        def profile(xi):
            inside = np.all(np.abs(xi) <= 0.5, axis=-1)
            denom = np.prod(np.sinc(xi), axis=-1)
            out = np.zeros(xi.shape[:-1], dtype=complex)
            out[inside] = 1.0 / denom[inside]
            return out

        return _profiled(kind, params, dim, profile,
                         np.array([[-0.5, 0.5]] * dim))
    profile, support = params["profile"], params["support"]
    if not callable(profile):
        raise InvalidParams("FourierProfile needs a callable 'profile'")
    try:
        box = None if support is None else as_box(support, dim)
    except ValueError as exc:
        raise InvalidParams(f"FourierProfile support {exc}") from None
    return _profiled(kind, {"profile": profile}, dim, profile, box)


def _profiled(kind, params, dim, profile, box):
    """A profile-only Generator: phi is `from_profile`'s inverse transform of
    the profile over its support box, which a FourierProfile may lack."""
    if box is None:
        def spatial(pts):
            raise QuadratureFailure(
                f"{kind} has no Fourier support box to integrate over")
    else:
        spatial = from_profile(kind, dim, profile, box).spatial
    return Generator(kind, params, dim, box, None, profile, spatial)


def as_box(value, dim):
    """value as a (dim, 2) float array of finite rows [lo, hi] with lo < hi;
    anything else is a ValueError."""
    try:
        box = np.array(value, dtype=float)
    except (TypeError, ValueError):
        box = None
    if (box is None or box.shape != (dim, 2) or not np.all(np.isfinite(box))
            or not np.all(box[:, 0] < box[:, 1])):
        raise ValueError(f"must be {dim} rows of finite [lo, hi] with "
                         f"lo < hi, got {value!r}")
    return box


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
        if any(isinstance(params.get(k), bool) for k, d in defaults.items()
               if isinstance(d, float)):  # float(True) would be 1.0
            raise ValueError("a bool is no number")
        return {k: params.get(k) if d is None else cast[type(d)](params.get(k, d))
                for k, d in defaults.items()}
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"bad {kind} parameters {params}: {exc}") from None

