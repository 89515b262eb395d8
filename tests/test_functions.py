import math

import numpy as np
import pytest

from quasiproj.errors import InvalidParams
from quasiproj.functions import (band_bump, gaussian, get, hat_tensor,
                                 sinc_tensor)
from quasiproj.quadrature import transform
from quasiproj.smoothness import fractional_laplacian

from helpers import integrate_box, translate


def _assert_matches_profile(f):
    """The spatial evaluator against the inverse transform of the profile
    over its support box, at fixed probe points."""
    pts = np.linspace(-2.0, 2.0, 21)[:, None]
    want = transform(f.fourier, [f.fourier_support], pts, 1e-10,
                     "reference")
    assert np.max(np.abs(f.spatial(pts) - want)) <= 1e-8


def test_gaussian_values():
    f = gaussian(1)
    assert f(0.0) == pytest.approx(1.0)
    assert f(1.0) == pytest.approx(math.exp(-math.pi))
    g2 = gaussian(2)
    assert g2(np.array([1.0, 1.0])) == pytest.approx(math.exp(-2 * math.pi))


def test_gaussian_self_dual_consistency():
    _assert_matches_profile(gaussian(1))


def test_band_bump_spectrum_box():
    f = band_bump(0.4, 1)
    np.testing.assert_allclose(f.fourier_support, [[-0.4, 0.4]])
    assert f.fourier(np.array([[0.0]]))[0] == pytest.approx(1.0)
    assert f.fourier(np.array([[0.4]]))[0] == 0.0
    assert abs(f.fourier(np.array([[0.39]]))[0]) > 0


def test_band_bump_value_is_profile_integral():
    f = band_bump(0.4, 1)
    want = integrate_box(lambda p: np.exp(1 - 1 / (1 - (p[:, 0] / 0.4) ** 2)),
                         [[-0.4 + 1e-12, 0.4 - 1e-12]], tol=1e-12)
    assert complex(f(0.0)).real == pytest.approx(want, rel=1e-9)


def test_band_bump_2d_far_field_is_tensor_product():
    # the profile is a tensor product, so f2(x, 0) = f1(x) f1(0); at x = 16
    # and 24 the 2-D transform needs order 256 per axis
    f1, f2 = band_bump(0.4, 1), band_bump(0.4, 2)
    x = np.array([16.0, 24.0])
    want = f1.spatial(x[:, None]) * f1.spatial(np.zeros((1, 1)))
    got = f2.spatial(np.column_stack([x, np.zeros(2)]))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_hat_tensor_values_and_transform():
    f = hat_tensor(1)
    assert f(0.0) == pytest.approx(1.0)
    assert f(0.5) == pytest.approx(0.5)
    assert f(1.5) == 0.0
    assert f.fourier(np.array([[0.3]]))[0] == pytest.approx(np.sinc(0.3) ** 2,
                                                            rel=1e-13)


def test_sinc_tensor_consistency():
    f = sinc_tensor(1)
    assert f(0.0) == pytest.approx(1.0)
    assert f(1.0) == pytest.approx(0.0, abs=1e-15)
    _assert_matches_profile(f)


def test_translate_shifts_values_and_phase():
    f = gaussian(1)
    g = translate(f, 0.5)
    assert complex(g(0.5)) == pytest.approx(complex(f(0.0)))
    want = math.exp(-math.pi * 0.25) * np.exp(-2j * np.pi * 0.5 * 0.5)
    got = complex(g.fourier(np.array([[0.5]]))[0])
    assert got == pytest.approx(want, rel=1e-13)
    _assert_matches_profile(g)


def test_catalog_lookup():
    assert get("gaussian", 1).name == "gaussian"
    assert get("band_bump", 1, rho=0.3).fourier_support[0, 1] == pytest.approx(0.3)
    with pytest.raises(InvalidParams):
        get("nope", 1)
    with pytest.raises(InvalidParams, match="rho"):
        get("band_bump", 1, rho=True)


@pytest.mark.parametrize("make, far", [
    (lambda: band_bump(0.4, 1), 60.0),
    (lambda: translate(band_bump(0.4, 1), 0.3), 60.0),
    (lambda: fractional_laplacian(band_bump(0.4, 1), 1.5), 500.0),
], ids=["band_bump", "translate", "fractional_laplacian"])
def test_profile_values_do_not_depend_on_call_history(make, far):
    # the far field converges only at a higher order; a value must not
    # depend on whether such a call came first
    f = make()
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    first = f.spatial(x)
    f.spatial(np.array([[far]]))
    assert np.array_equal(f.spatial(x), first)
