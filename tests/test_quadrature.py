import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from quasiproj import quadrature
from quasiproj.analyzers import make_analyzer
from quasiproj.errors import InvalidParams, QuadratureFailure
from quasiproj.functions import gaussian
from quasiproj.generators import make_generator
from quasiproj.lattice import make_dilation
from quasiproj.quadrature import (GridSpec, as_points, converge, fourier_sum,
                                  gauss_nodes_box, grid_fourier_sum,
                                  grid_lp_norm, split_box)
from quasiproj.quasiprojection import (OperatorSpec, error_lp,
                                       spectral_evaluator)

from helpers import integrate_box


def test_gauss_constant_weight_sum():
    x, wx = quadrature.leggauss(8)
    for box, volume in (([[-1.0, 3.0]], 4.0),
                        ([[-1.0, 3.0], [0.0, 2.0]], 8.0),
                        ([[-1.0, 3.0], [0.0, 2.0], [0.5, 0.75]], 2.0)):
        nodes, w = gauss_nodes_box(box, 8)
        assert np.sum(w) == pytest.approx(volume, rel=1e-13)
        # bit-identical to the itertools-built tensor rule
        axes = [0.5 * (hi - lo) * x + 0.5 * (hi + lo) for lo, hi in box]
        wts = [0.5 * (hi - lo) * wx for lo, hi in box]
        assert np.array_equal(nodes, np.array(list(itertools.product(*axes))))
        assert np.array_equal(
            w, np.array([np.prod(t) for t in itertools.product(*wts)]))


RULE_ORDERS = [*range(1, 41), 64, 192, 512]


def test_leggauss_closed_forms():
    r3 = math.sqrt(0.6)
    for n, nodes, weights in ((1, [0.0], [2.0]),
                              (2, [-1 / math.sqrt(3), 1 / math.sqrt(3)], [1.0, 1.0]),
                              (3, [-r3, 0.0, r3], [5 / 9, 8 / 9, 5 / 9])):
        x, w = quadrature.leggauss(n)
        np.testing.assert_allclose(x, nodes, rtol=0, atol=2.3e-16)
        np.testing.assert_allclose(w, weights, rtol=0, atol=4.5e-16)


@pytest.mark.parametrize("n", RULE_ORDERS)
def test_leggauss_moments_and_shape(n):
    x, w = quadrature.leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert not x.flags.writeable and not w.flags.writeable
    # the rule is exact for degree 2n - 1: even moments 2 / (2k + 1), k < n
    k = np.arange(n)
    moments = (x[None, :] ** (2 * k[:, None])) @ w
    np.testing.assert_allclose(moments, 2.0 / (2 * k + 1), rtol=0, atol=2e-15)


def test_leggauss_nodes_match_eigenvalue_method():
    for n in RULE_ORDERS:
        want, _ = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(quadrature.leggauss(n)[0], want,
                                   rtol=0, atol=2.3e-16)


@pytest.mark.parametrize("order", [0, -1, 2.5, True])
def test_leggauss_rejects_invalid_order(order):
    with pytest.raises(InvalidParams, match="Gauss order"):
        quadrature.leggauss(order)


def test_rates_run_does_not_import_numpy_polynomial():
    # the rule is computed in the package: a cold rates run on the compact
    # route (Gauss box coefficients) loads no numpy.polynomial module
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = """
import json, sys
import numpy
before = set(sys.modules)
preloaded = any(m.startswith("numpy.polynomial") for m in before)
from quasiproj.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig.from_file(sys.argv[1]))
added = sorted(m for m in set(sys.modules) - before
               if m.startswith("numpy.polynomial"))
print(json.dumps({"preloaded": preloaded, "added": added}))
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code,
         os.path.join(root, "scripts", "configs", "rates_spline_box.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    if got["preloaded"]:
        pytest.skip("this numpy loads numpy.polynomial on import")
    assert got["added"] == []


def test_integrate_polynomial_exact():
    val = integrate_box(lambda t: t[:, 0] ** 4, [[0.0, 1.0]])
    assert val == pytest.approx(0.2, rel=1e-12)


def test_integrate_gaussian_2d():
    val = integrate_box(lambda t: np.exp(-np.pi * np.sum(t ** 2, axis=-1)),
                        [[-5.0, 5.0], [-5.0, 5.0]])
    assert val == pytest.approx(1.0, rel=1e-10)


def test_integrate_raises_at_cap():
    # indicator of an interval is too rough for the doubling rule; the
    # message names the stage that failed and its cap
    with pytest.raises(QuadratureFailure, match="box integral .* order 64"):
        integrate_box(lambda t: (t[:, 0] > 1 / 3).astype(float),
                      [[0.0, 1.0]], tol=1e-14, max_order=64)
    with pytest.raises(QuadratureFailure, match="stage X"):
        converge(lambda n: 1.0 / n, 4, 16, 1e-3, "stage X")


def test_converge_doubles_from_start():
    orders = []

    def evaluate(n):
        orders.append(n)
        return np.array([1.0 / n, 0.0])

    # changes 1/8, 1/16, 1/32: the first within 0.05 is at order 32
    assert converge(evaluate, 4, 64, 0.05, "test")[0] == 1.0 / 32
    assert orders == [4, 8, 16, 32]


@pytest.mark.parametrize("start, cap", [(0, 16), (-1, 16), (2.5, 16),
                                        (True, 16), (32, 16)])
def test_converge_rejects_unusable_orders(start, cap):
    calls = []

    def evaluate(n):
        calls.append(n)
        if len(calls) > 50:  # a start that never reaches the cap
            raise RuntimeError("converge kept doubling")
        return 0.0

    with pytest.raises(InvalidParams, match="stage Y"):
        converge(evaluate, start, cap, 1e-3, "stage Y")
    assert calls == []


def test_integrate_box_rejects_order_zero():
    with pytest.raises(InvalidParams):
        integrate_box(lambda t: t[:, 0], [[0.0, 1.0]], start_order=0)


def _split_reference(box, cuts):
    edges = []
    for (lo, hi), c in zip(box, cuts):
        pts = [lo] + sorted(t for t in c if lo < t < hi) + [hi]
        edges.append([(a, b) for a, b in zip(pts[:-1], pts[1:])])
    return [np.array(cell) for cell in itertools.product(*edges)]


@pytest.mark.parametrize("box, cuts", [
    ([[-1.5, 1.5]], [[-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]]),  # edge cuts
    ([[-0.4, 0.4]], [[0.0]]),
    ([[0.0, 0.4]], [[0.0]]),                                     # cut on lo
    ([[-1.0, 1.0], [-0.5, 0.25]], [[-1.0, 0.0, 0.5], [0.0, 0.25, 3.0]]),
    ([[-9.0, 9.0], [0.0, 1.0]], [[0.0], [0.0]]),
])
def test_split_box_matches_itertools(box, cuts):
    got = split_box(np.array(box), cuts)
    want = _split_reference(box, cuts)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_grid_points_midpoints():
    g = GridSpec([[0.0, 1.0]], 4)
    np.testing.assert_allclose(g.points[:, 0], [0.125, 0.375, 0.625, 0.875])
    assert g.cell_volume == pytest.approx(0.25)
    for box in ([[0.0, 1.0], [-2.0, 2.0]],
                [[0.0, 1.0], [-2.0, 2.0], [3.0, 3.5]]):
        g = GridSpec(box, 5)
        axes = [lo + (hi - lo) / 5 * (np.arange(5) + 0.5) for lo, hi in box]
        assert np.array_equal(g.points,
                              np.array(list(itertools.product(*axes))))
        assert g.cell_volume == pytest.approx(
            np.prod([(hi - lo) / 5 for lo, hi in box]))


def test_grid_spec_per_axis_counts():
    box = [[0.0, 1.0], [-2.0, 2.0], [3.0, 3.5]]
    g = GridSpec(box, (4, 3, 2))
    axes = [lo + (hi - lo) / n * (np.arange(n) + 0.5)
            for (lo, hi), n in zip(box, (4, 3, 2))]
    grids = np.meshgrid(*axes, indexing="ij")
    assert g.counts == (4, 3, 2)
    assert np.array_equal(g.points, np.stack([a.ravel() for a in grids], -1))
    assert g.cell_volume == pytest.approx(0.25 * 4 / 3 * 0.25)
    # an int is that count on every axis, a numpy integer too
    assert GridSpec(box, np.int64(3)).counts == (3, 3, 3)


@pytest.mark.parametrize("grid", [True, 2.5, 0, -3, (4, 0), (4, 2.5),
                                  (4, True), (4,), (4, 4, 4)])
def test_grid_spec_rejects_invalid_counts(grid):
    # GridSpec(box, 0) used to give no points and an infinite cell volume,
    # -3 a negative volume and 2.5 three points with step 0.4
    with pytest.raises(InvalidParams, match="grid counts"):
        GridSpec([[0.0, 1.0], [-2.0, 2.0]], grid)


def test_fourier_sum_blocks_rows(monkeypatch):
    pts = GridSpec([[-3.0, 3.0], [-1.0, 2.0]], 9).points
    nodes, w = gauss_nodes_box([[-0.5, 0.5], [-0.25, 0.5]], 6)
    dense = np.exp(2j * np.pi * (pts @ nodes.T)) @ w
    blocks = []
    exp = np.exp

    def spy(z):
        blocks.append(np.shape(z))
        return exp(z)

    monkeypatch.setattr(quadrature, "MAX_BLOCK", 5 * nodes.shape[0])
    monkeypatch.setattr(np, "exp", spy)
    got = fourier_sum(pts, nodes, w)
    assert blocks == [(5, 36)] * 16 + [(1, 36)]
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-14)
    assert fourier_sum(pts[:0], nodes, w).shape == (0,)


def _fft_lengths(monkeypatch):
    """Record the transform length and column count of every FFT call."""
    calls = []
    fft = np.fft.fft

    def spy(a, n=None, axis=-1):
        calls.append((n, a.shape[1] if a.ndim > 1 else 1))
        return fft(a, n=n, axis=axis)

    monkeypatch.setattr(np.fft, "fft", spy)
    return calls


def _gaussian_weights(nodes):
    xi = nodes.points
    return (np.exp(-np.pi * np.sum(xi ** 2, axis=-1)) * (1 + 0.5j * xi[:, 0])
            * nodes.cell_volume)


def test_grid_fourier_sum_dirichlet_kernel():
    # unit weights on N symmetric midpoints, spacing d, sum to the Dirichlet
    # kernel sin(pi N d x) / sin(pi d x), per axis in a tensor grid
    for grid, nodes in ((GridSpec([[-3.0, 3.0]], 64), GridSpec([[-2.0, 2.0]], 128)),
                        (GridSpec([[-3.0, 3.0], [-1.0, 1.0]], 16),
                         GridSpec([[-2.0, 2.0], [-0.5, 0.5]], 32))):
        got = grid_fourier_sum(grid, nodes.axes, np.ones(nodes.points.shape[0]))
        want = 1.0
        for x, (lo, hi) in zip(grid.points.T, nodes.box):
            n = nodes.counts[0]
            d = (hi - lo) / n
            want = want * np.sin(np.pi * n * d * x) / np.sin(np.pi * d * x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid, nodes, lengths", [
    # h dxi = 1/256: P = 1, N = 64 padded to K = 256
    (([[-8.0, 8.0]], 256), ([[-2.0, 2.0]], 64), [256]),
    # box width 12: h dxi = (3/16)(1/32) = 3/512; N = 128 splits into two
    # residues of length 256 (2 x 64 twiddles <= 256)
    (([[-6.0, 6.0]], 64), ([[-2.0, 2.0]], 128), [256, 256]),
    # h dxi = 1/64 with N = 256 > K: a window wider than 1 / h, dense sum
    (([[-8.0, 8.0]], 32), ([[-4.0, 4.0]], 256), []),
    # h = 1/6 has no short binary ratio, and the midpoints of [-0.3, 0.7]
    # are no exact progression: dense sums
    (([[-4.0, 4.0]], 48), ([[-2.0, 2.0]], 64), []),
    (([[-0.3, 0.7]], 64), ([[-2.0, 2.0]], 64), []),
    # mixed: dense axes (h = 1/6, 1/3) and an FFT axis (h dxi = 1/32, 1/16)
    (([[-4.0, 4.0], [-6.0, 6.0]], 48), ([[-1.0, 1.0], [-2.0, 2.0]], 32), [32]),
    (([[-2.0, 2.0], [-3.0, 3.0], [-1.0, 1.0]], 12),
     ([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]], 16), [16]),
    # per-axis counts: a dense axis (h = 1/6), then h dxi = (3/8)(1/4) = 3/32
    (([[-4.0, 4.0], [-6.0, 6.0]], (48, 32)),
     ([[-1.0, 1.0], [-2.0, 2.0]], (32, 16)), [32]),
])
def test_grid_fourier_sum_matches_fourier_sum(monkeypatch, grid, nodes, lengths):
    grid, nodes = GridSpec(*grid), GridSpec(*nodes)
    w = _gaussian_weights(nodes)
    calls = _fft_lengths(monkeypatch)
    got = grid_fourier_sum(grid, nodes.axes, w)
    assert [n for n, _ in calls] == lengths
    want = fourier_sum(grid.points, nodes.points, w)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))


def test_grid_fourier_sum_blocks(monkeypatch):
    # a dense axis (h = 1/6) then an FFT axis (K = 64), 64 x 64 weights
    grid = GridSpec([[-4.0, 4.0], [-6.0, 6.0]], 48)
    nodes = GridSpec([[-1.0, 1.0], [-2.0, 2.0]], 64)
    w = _gaussian_weights(nodes)
    want = grid_fourier_sum(grid, nodes.axes, w)
    phases = []
    exp = np.exp

    def spy(z):
        phases.append(np.size(z))
        return exp(z)

    monkeypatch.setattr(quadrature, "MAX_BLOCK", 1024)
    monkeypatch.setattr(np, "exp", spy)
    calls = _fft_lengths(monkeypatch)
    got = grid_fourier_sum(grid, nodes.axes, w)
    assert max(phases) == 1024 and calls == [(64, 16)] * 3
    np.testing.assert_array_equal(got, want)
    # h dxi = 1/2048 and K > MAX_BLOCK: that axis is a dense sum too
    monkeypatch.setattr(quadrature, "MAX_BLOCK", 1000)
    del calls[:], phases[:]
    grid = GridSpec([[-0.5, 0.5], [-8.0, 8.0]], 64)
    got = grid_fourier_sum(grid, nodes.axes, w)
    assert {n for n, _ in calls} == {64} and max(phases) <= 1000
    np.testing.assert_allclose(got, fourier_sum(grid.points, nodes.points, w),
                               rtol=0, atol=1e-13 * np.max(np.abs(got)))
    # h dxi = 1/64 with 16 nodes and 16 points: two residues of length 32
    # in each of three column blocks
    monkeypatch.setattr(quadrature, "MAX_BLOCK", 1024)
    del calls[:]
    grid = GridSpec([[-4.0, 4.0], [-8.0, 8.0]], (48, 16))
    nodes = GridSpec([[-1.0, 1.0], [-0.125, 0.125]], (64, 16))
    w = _gaussian_weights(nodes)
    got = grid_fourier_sum(grid, nodes.axes, w)
    assert calls == [(32, 16)] * 6
    np.testing.assert_allclose(got, fourier_sum(grid.points, nodes.points, w),
                               rtol=0, atol=1e-13 * np.max(np.abs(got)))


def test_sinc_sweep_ffts_stay_within_the_node_window(monkeypatch):
    # the shipped rates_sinc_box sweep at grid 1024: each level's 4096 to
    # 9216 nodes split by residue, so no FFT passes 16384 points (it took a
    # 65536-point FFT when the window was padded to K)
    from quasiproj.harness import ExperimentConfig, run_experiment
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scripts", "configs",
                           "rates_sinc_box.json")) as fh:
        raw = json.load(fh)
    raw["experiment"]["grid"] = 1024
    calls = _fft_lengths(monkeypatch)
    run_experiment(ExperimentConfig.from_dict(raw))
    assert calls and max(n for n, _ in calls) <= 16384


def test_error_lp_grid_route_matches_point_route():
    f = gaussian(1)
    box = [[-8.0, 8.0]]
    for level in range(2, 6):
        spec = OperatorSpec(
            make_generator("TensorSincPower", {"n": 1, "a": 1.0}, 1),
            make_analyzer("BoxAverage", 1), make_dilation([[2.0]]), level)
        ev = spectral_evaluator(spec, f)
        grid = error_lp(f, ev, 2, box, 1024)
        points = error_lp(f, lambda g: ev(g.points), 2, box, 1024)
        assert grid == pytest.approx(points, rel=1e-12, abs=0)


def test_grid_lp_norm_matches_closed_form():
    grid_spec = GridSpec([[0.0, 1.0]], 4096)
    pts, vol = grid_spec.points, grid_spec.cell_volume
    vals = pts[:, 0]
    # ||x||_2 on [0,1] is 1/sqrt(3); midpoint rule is second order
    assert grid_lp_norm(vals, vol, 2) == pytest.approx(1 / math.sqrt(3), rel=1e-6)
    assert grid_lp_norm(vals, vol, np.inf) == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("vals, p, want", [
    (np.full(100, 1e-7), 50, 1e-7),  # 1e-7 ** 50 underflows to 0
    (np.full(100, 10.0), 400, 10.0),  # 10 ** 400 overflows to inf
    (np.full(100, 10.0), 1e308, 10.0),
    ([], 2, 0.0),
    ([0.0, 0.0], 2, 0.0),
    ([np.inf, 1.0], 2, np.inf),
])
def test_grid_lp_norm_scales_by_the_largest_value(vals, p, want):
    # 100 cells of volume 0.01: the norm of a constant is that constant
    assert grid_lp_norm(vals, 0.01, p) == want


def test_as_points_shapes():
    pts, scalar = as_points(0.5, 1)
    assert scalar and pts.shape == (1, 1)
    pts, scalar = as_points([1.0, 2.0, 3.0], 1)
    assert not scalar and pts.shape == (3, 1)
    pts, scalar = as_points([1.0, 2.0], 2)
    assert scalar and pts.shape == (1, 2)
    with pytest.raises(ValueError):
        as_points([1.0, 2.0, 3.0], 2)
    # an array of rows must have a last axis of dim, in 1-D too
    for shape, dim in [((2, 3), 2), ((2, 1), 2), ((3, 2), 1), ((4, 2, 3), 2),
                       ((), 2)]:
        with pytest.raises(ValueError, match="coords, expected"):
            as_points(np.zeros(shape), dim)
    pts, scalar = as_points(np.zeros((4, 5, 2)), 2)
    assert not scalar and pts.shape == (4, 5, 2)
    pts, scalar = as_points(np.zeros((3, 1)), 1)
    assert not scalar and pts.shape == (3, 1)
    # a function record's call rejects such arrays instead of misreading them
    g = make_generator("BSplineTensor", {"n": 2}, 2)
    for shape in [(2, 3), (2, 1)]:
        with pytest.raises(ValueError):
            g(np.zeros(shape))
    with pytest.raises(ValueError):
        gaussian(1)(np.zeros((3, 2)))
