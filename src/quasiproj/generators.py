"""Catalog of synthesis functions with spatial and Fourier evaluation.

Every entry is described primarily by its Fourier profile; the profile is
normalized so its value at the origin is 1.  Conventions used throughout:

* Fourier transform  f^(xi) = integral f(x) exp(-2 pi i x.xi) dx,
* sinc x = sin(pi x) / (pi x), whose transform is the indicator of
  [-1/2, 1/2],
* the torus is identified with the box [-1/2, 1/2)^d.

`make_generator` branches on the kind once and builds the function record
the test signals use, `functions.TestFunction`: closed forms for the sinc
powers and B-splines, and for the profile-only kinds the signals'
inverse-Fourier evaluator `functions.from_profile`.
"""

import math

import numpy as np

from .errors import InvalidParams, QuadratureFailure
from .functions import TestFunction, from_profile
from .quadrature import as_box

# kind -> its parameters and their defaults; a numeric default also sets the
# type a value is cast to (an int one takes only integral values, a float one
# only finite ones), None takes the value as given
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


def make_generator(kind: str, params=None, dim: int = 1) -> TestFunction:
    """Build a catalog entry, validating its parameters: a `TestFunction`
    named by its kind, whose `spatial` and `fourier` take (n, d) points.

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
        return TestFunction(
            kind, dim, lambda x: c * np.prod(np.sinc(x / a) ** n, axis=-1),
            lambda xi: np.prod(bspline(n, a * xi) / b0, axis=-1),
            np.array([[-half, half]] * dim))
    if kind == "BSplineTensor":
        n = params["n"]
        if n < 1:
            raise InvalidParams(f"BSplineTensor needs n >= 1, got {n}")
        return TestFunction(
            kind, dim, lambda x: np.prod(bspline(n, x), axis=-1),
            lambda xi: np.prod(np.sinc(xi) ** n, axis=-1),
            spatial_support=np.array([[-n / 2.0, n / 2.0]] * dim))
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

        return from_profile(kind, dim, profile,
                            np.array([[-1.0 / 3.0, 1.0 / 3.0]] * dim))
    if kind == "RationalBandlimited":

        def profile(xi):
            inside = np.all(np.abs(xi) <= 0.5, axis=-1)
            denom = np.prod(np.sinc(xi), axis=-1)
            out = np.zeros(xi.shape[:-1], dtype=complex)
            out[inside] = 1.0 / denom[inside]
            return out

        return from_profile(kind, dim, profile, np.array([[-0.5, 0.5]] * dim))
    profile, support = params["profile"], params["support"]
    if not callable(profile):
        raise InvalidParams("FourierProfile needs a callable 'profile'")
    if support is None:  # phi is the transform over a box it lacks
        def spatial(pts):
            raise QuadratureFailure(
                f"{kind} has no Fourier support box to integrate over")
        return TestFunction(kind, dim, spatial, profile)
    return from_profile(kind, dim, profile,
                        as_box(support, dim, "FourierProfile support"))


def as_int(value) -> int:
    """value as an int; a bool or a non-integral number is a ValueError, where
    int() would take True as 1 and truncate 2.7 to 2."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _finite(value) -> float:
    """value as a finite float; a bool (float(True) is 1.0), NaN or +-inf is
    a ValueError."""
    x = float(value)
    if isinstance(value, bool) or not np.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _parameters(kind, params):
    """params checked against PARAMS[kind]: known names only, and numbers
    cast to the type of their default."""
    defaults = PARAMS[kind]
    if set(params) - set(defaults):
        raise InvalidParams(f"bad {kind} parameters {params}; it takes "
                            f"{list(defaults)}")
    cast = {int: as_int, float: _finite}
    try:
        return {k: params.get(k) if d is None else cast[type(d)](params.get(k, d))
                for k, d in defaults.items()}
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"bad {kind} parameters {params}: {exc}") from None
