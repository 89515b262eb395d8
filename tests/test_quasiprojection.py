import numpy as np
import pytest

from quasiproj.analyzers import analyze, make_analyzer
from quasiproj.errors import InvalidParams
from quasiproj.functions import band_bump, gaussian, hat_tensor
from quasiproj.generators import make_generator
from quasiproj import quadrature
from quasiproj.lattice import make_dilation
from quasiproj.quadrature import grid_points
from quasiproj.quasiprojection import (OperatorSpec, alias_shifts, error_lp,
                                       evaluate_grid_compact,
                                       evaluate_spatial, spectral_evaluator,
                                       spectrum_support)


def _spec(gen_kind, gen_params, ana_kind, level=0, dim=1, **ana_kw):
    return OperatorSpec(
        generator=make_generator(gen_kind, gen_params, dim),
        analyzer=make_analyzer(ana_kind, dim, **ana_kw),
        dilation=make_dilation(np.diag([2.0] * dim)),
        level=level)


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidParams):
        OperatorSpec(generator=make_generator("BSplineTensor", {"n": 2}, 2),
                     analyzer=make_analyzer("Dirac", 1),
                     dilation=make_dilation([2.0]))


def test_coefficients_index_set():
    spec = _spec("BSplineTensor", {"n": 2}, "Dirac")
    sites = np.arange(-3, 4)[:, None]
    co = analyze(gaussian(1), spec.analyzer, spec.dilation, spec.level, sites)
    assert co.shape == (7,)
    # level 0 point samples: c_k = f(-k)
    np.testing.assert_allclose(co, np.exp(-np.pi * sites[:, 0] ** 2),
                               rtol=1e-15)
    assert co[3] == pytest.approx(1.0)


def _brute_force(spec, f, pts, radius):
    """sum_k c_k m^{j/2} phi(M^j x + k) over the whole site cube
    ||k||_inf <= radius, one generator call per point."""
    d = spec.dim
    sites = np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius
    coeffs = analyze(f, spec.analyzer, spec.dilation, spec.level, sites)
    amp = spec.dilation.det_abs ** (spec.level / 2.0)
    y = np.asarray(pts, dtype=float) @ spec.dilation.power(spec.level).T
    return np.array([amp * np.sum(coeffs * spec.generator.spatial(yi + sites))
                     for yi in y])


def test_hat_interpolates_itself():
    # the hat has unit samples only at the origin, so the level-0 expansion
    # with point sampling reproduces it exactly
    spec = _spec("BSplineTensor", {"n": 2}, "Dirac")
    f = hat_tensor(1)
    for x in (0.25, -0.6, 0.0):
        val = evaluate_spatial(spec, f, x, 4)[0]
        assert val == pytest.approx(complex(f(x)), abs=1e-14)


def test_compact_grid_route_matches_pointwise_route():
    spec = _spec("BSplineTensor", {"n": 3}, "BoxAverage", level=1)
    f = gaussian(1)
    pts = np.array([[-0.7], [0.1], [1.3]])
    batch = evaluate_grid_compact(spec, f, pts)
    # the atoms that reach these points have |k| <= 2 |x| + 1.5 < 6
    brute = _brute_force(spec, f, pts, 6)
    for i in range(len(pts)):
        assert batch[i] == pytest.approx(brute[i], rel=1e-12)


@pytest.mark.parametrize("ana_kind, ana_kw", [
    ("BoxAverage", {}),
    ("MixedTensor", {"axes": ("Dirac", "BoxAverage")}),
])
def test_compact_route_under_quincunx(ana_kind, ana_kw):
    spec = OperatorSpec(generator=make_generator("BSplineTensor", {"n": 2}, 2),
                        analyzer=make_analyzer(ana_kind, 2, **ana_kw),
                        dilation=make_dilation([[1.0, 1.0], [1.0, -1.0]]),
                        level=3)
    f = gaussian(2)
    pts = np.array([[0.3, -0.2], [-1.1, 0.7], [0.05, 1.4]])
    batch = evaluate_grid_compact(spec, f, pts)
    # ||M^3 x||_2 = 2^{3/2} ||x||_2 < 4 here, so the atoms that reach these
    # points have ||k||_inf < 5
    brute = _brute_force(spec, f, pts, 6)
    for i in range(len(pts)):
        assert abs(batch[i] - brute[i]) <= 1e-12


def test_window_follows_the_point_beyond_the_radius():
    # M^3 x = 24 lies beyond radius 12: the window about floor(-M^3 x) still
    # holds every atom that reaches the point, as evaluate_grid_compact's does
    spec = _spec("BSplineTensor", {"n": 2}, "BoxAverage", level=3)
    f = gaussian(1)
    pts = np.array([[3.0], [-2.6], [1.9]])
    compact = evaluate_grid_compact(spec, f, pts)
    assert np.all(np.abs(compact) > 0)
    assert np.array_equal(evaluate_spatial(spec, f, pts, 12), compact)


@pytest.mark.parametrize("block", [10, 120])
def test_window_sum_blocks_stay_within_max_block(monkeypatch, block):
    spec = OperatorSpec(generator=make_generator("BSplineTensor", {"n": 2}, 2),
                        analyzer=make_analyzer("BoxAverage", 2),
                        dilation=make_dilation([[1.0, 1.0], [1.0, -1.0]]),
                        level=3)
    f = gaussian(2)
    pts = np.array([[0.3, -0.2], [-1.1, 0.7], [0.05, 1.4], [2.2, -0.9]])
    want = evaluate_spatial(spec, f, pts, 3)
    calls = []
    spatial = spec.generator.spatial

    def spy(x):
        calls.append(len(x))
        return spatial(x)

    # 4 points x 49 offsets: in blocks of 10 each window is split, in blocks
    # of 120 each holds two whole windows
    monkeypatch.setattr(quadrature, "MAX_BLOCK", block)
    monkeypatch.setattr(spec.generator, "spatial", spy)
    got = evaluate_spatial(spec, f, pts, 3)
    assert len(calls) > 1 and max(calls) <= block
    assert np.array_equal(got, want)


def test_spectrum_support_scales_with_level():
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", level=3)
    np.testing.assert_allclose(spectrum_support(spec), [[-4.0, 4.0]])


def test_alias_shifts_single_when_band_fits():
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac")
    shifts = alias_shifts(spec, band_bump(0.4, 1))
    assert [tuple(s) for s in shifts] == [(0,)]


def test_spectral_matches_truncated_spatial_sum():
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac")
    f = band_bump(0.4, 1)
    ev = spectral_evaluator(spec, f)
    # the truncated sum still carries ~1e-9 of dropped-tail mass at this
    # radius, so the spectral value is compared at that accuracy
    for x in (0.3, -1.1, 2.5):
        direct = evaluate_spatial(spec, f, x, 40)[0]
        assert complex(ev(x)) == pytest.approx(direct, abs=1e-7)


def test_gaussian_l2_norm_oracle():
    # ||exp(-pi x^2)||_2 = 2^{-1/4}
    f = gaussian(1)
    zero = lambda g: np.zeros(g.points.shape[0])
    norm = error_lp(f, zero, 2, np.array([[-8.0, 8.0]]), 4096)
    assert norm == pytest.approx(2.0 ** -0.25, rel=1e-6)


def test_error_lp_sup_norm():
    f = gaussian(1)
    shifted = lambda g: np.exp(-np.pi * np.sum(g.points ** 2, axis=-1)) - 0.25
    err = error_lp(f, shifted, np.inf, np.array([[-2.0, 2.0]]), 512)
    assert err == pytest.approx(0.25, rel=1e-12)


def test_spectral_evaluator_2d():
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", dim=2)
    f = band_bump(0.3, 2)
    ev = spectral_evaluator(spec, f)
    pts, _ = grid_points(np.array([[-2.0, 2.0], [-2.0, 2.0]]), 16)
    err = np.max(np.abs(ev(pts) - np.asarray(f.spatial(pts), dtype=complex)))
    assert err < 1e-8
