import itertools

import numpy as np
import pytest

from quasiproj.analyzers import analyze, fourier_symbol, make_analyzer
from quasiproj.errors import InvalidParams
from quasiproj.functions import (TestFunction, band_bump, gaussian, hat_tensor,
                                 sinc_tensor)
from quasiproj.generators import make_generator
from quasiproj import quadrature
from quasiproj.lattice import make_dilation, map_box
from quasiproj.quadrature import GridSpec, fourier_sum
from quasiproj import quasiprojection
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


@pytest.mark.parametrize("level", [True, 2.5, "2", -1, None])
def test_operator_level_must_be_an_integer_at_least_zero(level):
    with pytest.raises(InvalidParams, match="level must be an integer"):
        _spec("BSplineTensor", {"n": 2}, "Dirac", level=level)


def test_operator_level_takes_numpy_integers():
    spec = _spec("BSplineTensor", {"n": 2}, "Dirac", level=np.int64(2))
    assert spec.level == 2
    assert spec.dilation.power(spec.level).tolist() == [[4.0]]


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


def test_radius_sequence_gives_each_partial_sum():
    # point samples are closed form, so the coefficients do not depend on
    # the site box and each partial sum equals its own call bit for bit
    spec = OperatorSpec(generator=make_generator("TensorSincPower",
                                                 {"n": 1, "a": 1.0}, 2),
                        analyzer=make_analyzer("Dirac", 2),
                        dilation=make_dilation([[1.0, 1.0], [1.0, -1.0]]),
                        level=2)
    f = gaussian(2)
    pts = np.array([[0.3, -0.2], [-1.1, 0.7], [2.05, 1.4]])
    sums = evaluate_spatial(spec, f, pts, (1, 4, 6))
    assert sums.shape == (3, 3)
    for row, radius in zip(sums, (1, 4, 6)):
        assert np.array_equal(row, evaluate_spatial(spec, f, pts, radius))
    for radius in (-1, 2.5, True, (2, -1)):
        with pytest.raises(InvalidParams, match="radius"):
            evaluate_spatial(spec, f, pts, radius)


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


@pytest.mark.parametrize("route, shape", [
    ("Dirac", (0,)), ("BoxAverage", (0,)), ("KernelL1", (0,)),
    ("DiracDerivative", (0,)), ("evaluate_spatial", (0,)),
    ("evaluate_spatial radii", (2, 0)), ("evaluate_grid_compact", (0,)),
    ("spectral_evaluator", (0,)),
])
def test_empty_batches_give_empty_arrays(route, shape):
    f, none = gaussian(2), np.zeros((0, 2))
    M = make_dilation(np.diag([2.0, 2.0]))
    spline = make_generator("BSplineTensor", {"n": 2}, 2)
    spec = OperatorSpec(spline, make_analyzer("Dirac", 2), M, 1)
    if route == "evaluate_spatial":
        got = evaluate_spatial(spec, f, none, 2)
    elif route == "evaluate_spatial radii":
        got = evaluate_spatial(spec, f, none, (1, 2))
    elif route == "evaluate_grid_compact":
        got = evaluate_grid_compact(spec, f, none)
    elif route == "spectral_evaluator":
        sinc = make_generator("TensorSincPower", {"n": 1, "a": 1.0}, 2)
        got = spectral_evaluator(OperatorSpec(sinc, spec.analyzer, M, 1),
                                 f)(none)
    else:
        kw = {"KernelL1": {"kernel": spline},
              "DiracDerivative": {"beta": (1, 0)}}.get(route, {})
        got = analyze(f, make_analyzer(route, 2, **kw), M, 1, none)
    assert got.dtype == complex and got.shape == shape


def test_spectrum_support_scales_with_level():
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", level=3)
    np.testing.assert_allclose(spectrum_support(spec), [[-4.0, 4.0]])


def test_alias_shifts_single_when_band_fits():
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac")
    shifts = alias_shifts(spec, band_bump(0.4, 1))
    assert [tuple(s) for s in shifts] == [(0,)]


_QUINCUNX = [[1.0, 1.0], [1.0, -1.0]]


def _sinc_dirac(dilation, level):
    return OperatorSpec(make_generator("TensorSincPower", {"n": 1, "a": 1.0},
                                       len(dilation)),
                        make_analyzer("Dirac", len(dilation)),
                        make_dilation(dilation), level)


def _box_shifts(spec, f):
    """Every integer shift in the bounding box of M*^{-j} (supp f^ - S),
    including those whose box supp f^ - M*^j k misses S."""
    S = spectrum_support(spec)
    diff = np.stack([f.fourier_support[:, 0] - S[:, 1],
                     f.fourier_support[:, 1] - S[:, 0]], axis=1)
    back = map_box(np.linalg.inv(spec.dilation.adjoint_power(spec.level)),
                   diff)
    lo = np.ceil(back[:, 0] - 1e-12).astype(int)
    hi = np.floor(back[:, 1] + 1e-12).astype(int)
    return [np.array(k) for k in
            itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])]


def test_alias_shifts_drop_shifts_that_miss_the_spectrum_box():
    # the benchmark's sinc_quincunx_2d config: under quincunx the back-mapped
    # box holds 441 shifts at level 1, and 221 of them reach S
    f2 = gaussian(2)
    specs = [_sinc_dirac(_QUINCUNX, level) for level in (1, 2)]
    assert [len(_box_shifts(s, f2)) for s in specs] == [441, 121]
    assert [len(alias_shifts(s, f2)) for s in specs] == [221, 121]
    # the sinc_rates_1d config keeps every shift
    f1 = gaussian(1)
    specs = [_spec("TensorSincPower", {"n": 1, "a": 1.0}, "BoxAverage",
                   level=level) for level in range(2, 7)]
    assert [len(alias_shifts(s, f1)) for s in specs] == [5, 3, 3, 1, 1]
    assert [len(_box_shifts(s, f1)) for s in specs] == [5, 3, 3, 1, 1]


@pytest.mark.parametrize("dilation, level", [
    (_QUINCUNX, 1), (_QUINCUNX, 2), ([[2.0, 0.0], [0.0, 3.0]], 1)])
def test_alias_filter_keeps_evaluator_values(monkeypatch, dilation, level):
    # a dropped shift samples f^ only beyond its declared box
    spec, f = _sinc_dirac(dilation, level), gaussian(2)
    g = GridSpec([[-3.0, 3.0]] * 2, 12)
    got = spectral_evaluator(spec, f)(g)
    monkeypatch.setattr(quasiprojection, "alias_shifts", _box_shifts)
    want = spectral_evaluator(spec, f)(g)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_spectral_matches_truncated_spatial_sum():
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac")
    f = band_bump(0.4, 1)
    ev = spectral_evaluator(spec, f)
    # the truncated sum still carries ~1e-9 of dropped-tail mass at this
    # radius, so the spectral value is compared at that accuracy
    for x in (0.3, -1.1, 2.5):
        direct = evaluate_spatial(spec, f, x, 40)[0]
        assert complex(ev(x)) == pytest.approx(direct, abs=1e-7)


def _windows(monkeypatch):
    """Record the node axes and weights each evaluator hands to
    `grid_fourier_sum`."""
    seen = []
    window_sum = quasiprojection.grid_fourier_sum

    def spy(grid, axes, weights):
        seen.append((axes, weights))
        return window_sum(grid, axes, weights)

    monkeypatch.setattr(quasiprojection, "grid_fourier_sum", spy)
    return seen


def _full_grid(spec, axes):
    """The midpoint grid over S = spectrum_support(spec) with the window's
    node spacing (exact: every spacing here is a power of two)."""
    S = spectrum_support(spec)
    return GridSpec(S, tuple(round((hi - lo) / (ax[1] - ax[0]))
                             for (lo, hi), ax in zip(S, axes)))


def _alias_sum(spec, f, nodes):
    """Reference alias sum phi^(M*^{-j} xi) sum_k f^(xi + M*^j k)
    conj(lambda^(M*^{-j} xi + k)) at the rows of nodes: one profile call and
    one symbol call per shift, in `alias_shifts` order."""
    Aj = spec.dilation.adjoint_power(spec.level)
    base = nodes @ np.linalg.inv(Aj).T
    acc = np.zeros(nodes.shape[0], dtype=complex)
    for k in alias_shifts(spec, f):
        fhat = np.asarray(f.fourier(nodes + Aj @ k), dtype=complex)
        acc += fhat * np.conj(fourier_symbol(spec.analyzer, base + k))
    return np.asarray(spec.generator.fourier(base), dtype=complex) * acc


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_spectral_evaluator_recovers_band_limited_signal(level):
    # sinc with point samples reproduces a signal whose spectrum lies inside
    # the band exactly; the window keeps 3278 of 4096 nodes at level 0 and
    # under a quarter of them from level 2
    spec = _spec("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", level=level)
    f = band_bump(0.4, 1)
    ev = spectral_evaluator(spec, f)
    g = GridSpec([[-8.0, 8.0]], 256)
    want = np.asarray(f.spatial(g.points), dtype=complex)
    assert np.max(np.abs(ev(g) - want)) <= 1e-12
    assert np.max(np.abs(ev(g.points[::7]) - want[::7])) <= 1e-12


@pytest.mark.parametrize("f, dilation, level, counts", [
    # the gaussian's box [-9, 9] meets one alias at levels 5-6
    (gaussian(1), [[2.0]], 5, (9216,)),
    # the sinc spectrum is an indicator: a dropped edge cell moves values ~h
    (sinc_tensor(1), [[2.0]], 3, (512,)),
    # S = [-13.5, 13.5] on 13824 nodes; the shift 0 alone meets it
    (gaussian(1), [[-3.0]], 3, (9216,)),
    # quincunx: M^6 = 8I, so one shift of [-0.5, 0.5]^2 meets S = [-4, 4]^2
    (sinc_tensor(2), [[1.0, 1.0], [1.0, -1.0]], 6, (16, 16)),
    (sinc_tensor(2), [[1.0, 1.0], [1.0, -1.0]], 3, (128, 128)),
    # unequal per-axis windows in S = [-1, 1] x [-1.5, 1.5]
    (sinc_tensor(2), [[2.0, 0.0], [0.0, 3.0]], 1, (64, 44)),
])
def test_node_window_matches_full_grid(monkeypatch, f, dilation, level,
                                       counts):
    dim = f.dim
    spec = OperatorSpec(make_generator("TensorSincPower", {"n": 1, "a": 1.0},
                                       dim),
                        make_analyzer("BoxAverage", dim),
                        make_dilation(dilation), level)
    seen = _windows(monkeypatch)
    ev = spectral_evaluator(spec, f)
    pts = GridSpec([[-3.0, 3.0]] * dim, 48 if dim == 1 else 12)
    got = ev(pts)
    [(axes, _)] = seen
    assert tuple(len(a) for a in axes) == counts
    # the window's nodes are the full grid's midpoints, bit for bit
    full = _full_grid(spec, axes)
    for a, b in zip(axes, full.axes):
        start = np.flatnonzero(b == a[0])
        assert len(start) == 1
        assert np.array_equal(a, b[start[0]:start[0] + len(a)])
    weights = _alias_sum(spec, f, full.points) * full.cell_volume
    want = fourier_sum(pts.points, full.points, weights)
    tol = 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(ev(pts.points) - want)) <= tol


def test_node_window_on_the_sinc_rates_sweep(monkeypatch):
    # the benchmark's sinc_rates_1d config: 9216 nodes at levels 5-6, where
    # the gaussian's box meets one alias, and all of S at levels 2-4
    seen = _windows(monkeypatch)
    specs = [_spec("TensorSincPower", {"n": 1, "a": 1.0}, "BoxAverage",
                   level=level) for level in range(2, 7)]
    for spec in specs:
        spectral_evaluator(spec, gaussian(1))(GridSpec([[-8.0, 8.0]], 8))
    assert [_full_grid(spec, axes).counts
            for spec, (axes, _) in zip(specs, seen)] == [
        (4096,), (4096,), (8192,), (16384,), (32768,)]
    assert [len(axes[0]) for axes, _ in seen] == [4096, 4096, 8192, 9216,
                                                  9216]
    for axes, _ in seen[3:]:
        half = 0.5 * (axes[0][1] - axes[0][0])
        assert (axes[0][0] - half, axes[0][-1] + half) == (-9.0, 9.0)


def test_empty_node_window_gives_zeros(monkeypatch):
    # supp phi^ = [-1/4, 1/4] for a = 2, and no integer shift of [0.3, 0.7]
    # meets it
    spec = _spec("TensorSincPower", {"n": 1, "a": 2.0}, "Dirac")
    f = TestFunction(name="offband", dim=1, spatial=lambda x: x[:, 0] * 0.0,
                     fourier=lambda xi: np.ones(len(xi)),
                     fourier_support=np.array([[0.3, 0.7]]))
    assert alias_shifts(spec, f) == []
    monkeypatch.setattr(quasiprojection, "fourier_symbol", None)
    monkeypatch.setattr(quasiprojection, "grid_fourier_sum", None)
    ev = spectral_evaluator(spec, f)
    g = GridSpec([[-2.0, 2.0]], 16)
    assert np.array_equal(ev(g), np.zeros(16, dtype=complex))
    assert np.array_equal(ev(g.points), np.zeros(16, dtype=complex))
    assert ev(0.5) == 0


@pytest.mark.parametrize("f, dilation, level, analyzer", [
    (gaussian(1), [[2.0]], 2, "BoxAverage"),
    (gaussian(2), _QUINCUNX, 1, "Dirac"),
    (gaussian(2), _QUINCUNX, 2, "Dirac"),
])
def test_spectral_weights_equal_a_per_shift_loop(monkeypatch, f, dilation,
                                                 level, analyzer):
    dim = f.dim
    spec = OperatorSpec(make_generator("TensorSincPower", {"n": 1, "a": 1.0},
                                       dim),
                        make_analyzer(analyzer, dim), make_dilation(dilation),
                        level)
    seen = _windows(monkeypatch)
    g = GridSpec([[-3.0, 3.0]] * dim, 48 if dim == 1 else 12)
    got = spectral_evaluator(spec, f)(g)
    [(axes, weights)] = seen
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
        -1, dim)
    volume = np.prod([ax[1] - ax[0] for ax in axes])  # a power of two
    want = _alias_sum(spec, f, nodes) * volume
    assert np.array_equal(weights, want)
    assert np.array_equal(got, quadrature.grid_fourier_sum(g, axes, want))


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
    pts = GridSpec(np.array([[-2.0, 2.0], [-2.0, 2.0]]), 16).points
    err = np.max(np.abs(ev(pts) - np.asarray(f.spatial(pts), dtype=complex)))
    assert err < 1e-8
