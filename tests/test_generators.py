import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasiproj.errors import InvalidParams, QuadratureFailure
from quasiproj.functions import from_profile
from quasiproj.generators import bspline, make_generator
from quasiproj.quadrature import GridSpec

from helpers import integrate_box


def test_bspline_values_at_zero():
    assert bspline(1, 0.0) == pytest.approx(1.0)
    assert bspline(2, 0.0) == pytest.approx(1.0)
    assert bspline(3, 0.0) == pytest.approx(0.75)
    assert bspline(4, 0.0) == pytest.approx(2.0 / 3.0)


def test_bspline_hat_shape():
    t = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    np.testing.assert_allclose(bspline(2, t), [0, 0, 0.5, 1.0, 0.5, 0, 0],
                               atol=1e-14)


def test_bspline_partition_of_unity():
    t = np.linspace(-0.49, 0.49, 7)
    for n in (2, 3, 4):
        total = sum(bspline(n, t + k) for k in range(-4, 5))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_bspline_vanishes_outside_support():
    for n in (1, 2, 3, 4):
        t = np.array([-n / 2 - 1e-9, n / 2 + 1e-9, n, -n, 100.0])
        np.testing.assert_array_equal(bspline(n, t), 0.0)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=-4.0, max_value=4.0))
def test_bspline_even(n, t):
    assert bspline(n, t) == pytest.approx(bspline(n, -t), abs=1e-12)


def test_bspline_integral_one():
    # integrate knot interval by knot interval: the integrand is a
    # polynomial on each piece, so the quadrature is exact there
    for n in (2, 3, 4):
        knots = np.arange(-n / 2.0, n / 2.0 + 0.5)
        val = sum(integrate_box(lambda p, _n=n: bspline(_n, p[:, 0]),
                                [[a, b]], tol=1e-13)
                  for a, b in zip(knots[:-1], knots[1:]))
        assert val == pytest.approx(1.0, abs=1e-12)


def test_sinc_cube_entry():
    g = make_generator("TensorSincPower", {"n": 3, "a": 4.0}, 2)
    np.testing.assert_allclose(g.fourier_support,
                               [[-3 / 8, 3 / 8], [-3 / 8, 3 / 8]])
    assert g.fourier(np.zeros((1, 2)))[0] == pytest.approx(1.0)
    # peak value is the normalizing constant (4 * 3/4)^-2 = 1/9
    assert g.spatial(np.zeros((1, 2)))[0] == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_sinc_power_profile_is_rescaled_bspline():
    g = make_generator("TensorSincPower", {"n": 2, "a": 3.0}, 1)
    xi = np.linspace(-0.4, 0.4, 9)
    np.testing.assert_allclose(g.fourier(xi[:, None]), bspline(2, 3.0 * xi),
                               atol=1e-13)


def test_plain_sinc_matches_numpy():
    g = make_generator("TensorSincPower", {"n": 1, "a": 1.0}, 1)
    x = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(g.spatial(x[:, None]), np.sinc(x), atol=1e-13)


def test_bspline_tensor_fourier_and_support():
    g = make_generator("BSplineTensor", {"n": 3}, 1)
    assert g.fourier(np.array([[0.2]]))[0] == pytest.approx(np.sinc(0.2) ** 3,
                                                           rel=1e-13)
    np.testing.assert_allclose(g.spatial_support, [[-1.5, 1.5]])
    assert g.fourier_support is None


def test_bochner_riesz_profile():
    g = make_generator("BochnerRiesz", {"s": 2.0, "gamma": 1.0}, 1)
    zero, edge, out, mid = g.fourier(np.array([[0.0], [1 / 3], [0.5], [1 / 6]]))
    assert zero == pytest.approx(1.0)
    assert edge == pytest.approx(0.0, abs=1e-15)
    assert out == 0.0
    assert mid == pytest.approx(0.75, rel=1e-13)


def test_bochner_riesz_gamma_validation():
    with pytest.raises(InvalidParams):
        make_generator("BochnerRiesz", {"s": 2.0, "gamma": 0.5}, 2)
    make_generator("BochnerRiesz", {"s": 2.0, "gamma": 0.75}, 2)


def test_rational_bandlimited_profile():
    g = make_generator("RationalBandlimited", {}, 1)
    zero, quarter, out = g.fourier(np.array([[0.0], [0.25], [0.75]]))
    assert zero == pytest.approx(1.0)
    # 1/sinc(1/4) = (pi/4)/sin(pi/4)
    want = (math.pi / 4) / math.sin(math.pi / 4)
    assert quarter == pytest.approx(want, rel=1e-13)
    assert out == 0.0


def test_rational_bandlimited_spatial_quadrature_is_stable():
    g = make_generator("RationalBandlimited", {}, 1)
    x = np.linspace(-2.0, 2.0, 33)[:, None]
    first = g.spatial(x)
    second = g.spatial(x)
    np.testing.assert_array_equal(first, second)
    # value at 0 is the integral of the profile over the torus box
    val = integrate_box(lambda p: np.real(g.fourier(p)), [[-0.5, 0.5]],
                        tol=1e-12)
    assert g.spatial(np.zeros((1, 1)))[0] == pytest.approx(val, rel=1e-9)


def test_fourier_profile_custom():
    g = make_generator("FourierProfile",
                       {"profile": lambda p: np.prod(np.cos(np.pi * p) ** 2, axis=-1),
                        "support": [[-0.5, 0.5]]}, 1)
    assert g.fourier_support is not None
    assert g.fourier(np.zeros((1, 1)))[0] == pytest.approx(1.0)
    with pytest.raises(InvalidParams):
        make_generator("FourierProfile", {}, 1)


@pytest.mark.parametrize("kind, params", [
    ("TensorSincPower", {"a": True}),
    ("BochnerRiesz", {"s": True}),
    ("BochnerRiesz", {"gamma": True}),
])
def test_float_parameters_reject_a_bool(kind, params):
    with pytest.raises(InvalidParams, match="True"):
        make_generator(kind, params, 1)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParams):
        make_generator("NoSuchThing", {}, 1)
    with pytest.raises(InvalidParams):
        make_generator("TensorSincPower", {"n": 0}, 1)


@pytest.mark.parametrize("kind, params", [
    ("RationalBandlimited", {}),
    ("BochnerRiesz", {"s": 2.0, "gamma": 1.0}),
])
def test_quadrature_values_do_not_depend_on_call_history(kind, params):
    g = make_generator(kind, params, 1)
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    first = g.spatial(x)
    g.spatial(np.array([[200.0]]))  # converges only at a higher order
    assert np.array_equal(g.spatial(x), first)


def _points(dim):
    """A few points in (n, dim), off and on the knots of the closed forms."""
    t = np.linspace(-3.0, 3.0, 13)
    return t[:, None] if dim == 1 else np.column_stack([t, 0.5 - t])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n, a", [(1, 1.0), (1, 4.0), (3, 1.0), (3, 4.0)])
def test_sinc_power_closed_forms(n, a, dim):
    g = make_generator("TensorSincPower", {"n": n, "a": a}, dim)
    x, xi = _points(dim), _points(dim) / 4
    b0 = bspline(n, 0.0)
    fourier = np.prod(bspline(n, a * xi) / b0, axis=-1).astype(complex)
    spatial = ((a * b0) ** (-dim)
               * np.prod(np.sinc(x / a) ** n, axis=-1)).astype(complex)
    assert np.array_equal(g.fourier(xi), fourier)
    assert np.array_equal(g.spatial(x), spatial)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bspline_tensor_closed_forms(n, dim):
    g = make_generator("BSplineTensor", {"n": n}, dim)
    x = _points(dim)
    assert np.array_equal(g.fourier(x),
                          np.prod(np.sinc(x) ** n, axis=-1).astype(complex))
    assert np.array_equal(g.spatial(x),
                          np.prod(bspline(n, x), axis=-1).astype(complex))


def _rational(xi):
    inside = np.all(np.abs(xi) <= 0.5, axis=-1)
    out = np.zeros(xi.shape[:-1], dtype=complex)
    out[inside] = 1.0 / np.prod(np.sinc(xi), axis=-1)[inside]
    return out


def _riesz(xi):  # s = 2, gamma = 1
    r = 3.0 * np.sqrt(np.sum(xi ** 2, axis=-1))
    return np.maximum(1.0 - r ** 2.0, 0.0) ** 1.0


def _cos2(xi):
    return np.prod(np.cos(np.pi * xi) ** 2, axis=-1)


@pytest.mark.parametrize("kind, params, dim, profile, half", [
    ("RationalBandlimited", {}, 1, _rational, 0.5),
    ("RationalBandlimited", {}, 2, _rational, 0.5),
    ("BochnerRiesz", {"s": 2.0, "gamma": 1.0}, 1, _riesz, 1.0 / 3.0),
    ("FourierProfile", {"profile": _cos2, "support": [[-0.5, 0.5]]}, 1,
     _cos2, 0.5),
], ids=["rational-1d", "rational-2d", "riesz-1d", "profile-1d"])
def test_profile_only_kinds_evaluate_through_from_profile(kind, params, dim,
                                                          profile, half):
    g = make_generator(kind, params, dim)
    x = GridSpec([[-6.0, 6.0]] * dim, 64 if dim == 1 else 12).points
    want = from_profile(kind, dim, profile,
                        np.array([[-half, half]] * dim)).spatial(x)
    assert np.array_equal(g.spatial(x), want)


def test_bochner_riesz_2d_quadrature_fails_by_name():
    # the radial kink on |xi| = 1/3 cuts through the tensor Gauss cells,
    # so no order up to the 2-D cap meets the tolerance
    g = make_generator("BochnerRiesz", {"s": 2.0, "gamma": 1.0}, 2)
    with pytest.raises(QuadratureFailure, match="inverse Fourier quadrature"):
        g.spatial(GridSpec([[-6.0, 6.0]] * 2, 12).points)


@pytest.mark.parametrize("dim, params", [
    (1, {"support": [[0.5, -0.5]]}),         # reversed: flips phi's sign
    (1, {"support": [-0.5, 0.5]}),           # a flat list, not rows
    (1, {"support": [[-0.5, np.inf]]}),      # not finite
    (2, {"support": [[-0.5, 0.5]]}),         # one row for two axes
    (1, {"decay": "x"}),                     # decay is no parameter
    (1, {"decay": True}),
    (1, {"decay": 2.0}),
], ids=["reversed", "flat", "infinite", "short", "decay-str", "decay-bool",
        "decay-number"])
def test_fourier_profile_inputs_checked(dim, params):
    name = "support" if "support" in params else "decay"
    with pytest.raises(InvalidParams, match=name):
        make_generator("FourierProfile", {"profile": _cos2, **params}, dim)


def test_bspline_box_values_at_and_around_its_edges():
    # n = 1 returns the box at once: 1 inside, 1/2 on the edges, 0 outside,
    # through the spatial B-spline and the sinc generator's profile alike
    t = np.array([0.0, 0.5, -0.5, 1.0, -1.0,
                  np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0),
                  np.nextafter(-0.5, -1.0), np.nextafter(-0.5, 0.0)])
    box = np.where(np.abs(t) < 0.5, 1.0, np.where(np.abs(t) == 0.5, 0.5, 0.0))
    assert np.array_equal(bspline(1, t), box)
    spline = make_generator("BSplineTensor", {"n": 1}, 1)
    sinc = make_generator("TensorSincPower", {"n": 1, "a": 1.0}, 1)
    assert np.array_equal(spline.spatial(t[:, None]), box)
    assert np.array_equal(sinc.fourier(t[:, None]), box)
