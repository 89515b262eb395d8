import math
import warnings

import numpy as np
import pytest

from quasiproj.errors import (InvalidParams, QuadratureFailure, Singular,
                              UnsupportedInput)
from quasiproj.functions import (PROFILE_TOL, TestFunction, band_bump,
                                 gaussian, hat_tensor)
from quasiproj import quadrature
from quasiproj.quadrature import (GridSpec, fourier_sum, gauss_nodes_box,
                                  grid_lp_norm, split_box, transform)
from quasiproj.quasiprojection import error_lp
from quasiproj import smoothness
from quasiproj.lattice import map_box
from quasiproj.smoothness import (ModulusSpec, best_approx, difference,
                                  eta_profile, fractional_difference,
                                  fractional_laplacian, modulus, step_net)

from helpers import translate

BOX = np.array([[-8.0, 8.0]])


def _poly_square():
    return TestFunction(name="square", dim=1,
                        spatial=lambda pts: pts[:, 0] ** 2)


def test_second_difference_of_square_is_2h2():
    f = _poly_square()
    for h in (0.1, 0.37):
        val = difference(f.spatial, np.array([[0.7]]), np.array([h]), 2)[0]
        assert val == pytest.approx(2 * h * h, rel=1e-12)


@pytest.mark.parametrize("s", [1.5, -1])
def test_difference_needs_integer_order(s):
    with pytest.raises(InvalidParams, match="integer order"):
        difference(_poly_square().spatial, np.zeros((1, 1)), np.array([0.1]), s)


@pytest.mark.parametrize("s", [0, 2])
def test_difference_keeps_the_signal_dtype(s):
    # a real signal gives real differences; a complex one complex
    f = gaussian(1)
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    steps = np.array([[0.25], [-0.5]])
    got = difference(f.spatial, x, steps, s)
    assert got.dtype == np.float64 and got.shape == (2, 7)
    assert np.array_equal(got.real, difference(
        lambda pts: f.spatial(pts).astype(complex), x, steps, s))
    complex_diff = difference(lambda pts: f.spatial(pts) * 1j, x, steps, s)
    assert complex_diff.dtype == np.complex128


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("xi, h", [([0.37], [0.21]),
                                   ([0.37, -1.3], [0.21, 0.05])])
def test_difference_matches_fourier_multiplier(s, xi, h):
    # the order-s difference of a character is the multiplier (1 - e^{2 pi i h.xi})^s
    xi, h = np.array(xi), np.array(h)

    def character(pts):
        return np.exp(2j * np.pi * (pts @ xi))

    x = np.random.default_rng(1).uniform(-3.0, 3.0, size=(7, len(xi)))
    want = (1.0 - np.exp(2j * np.pi * (h @ xi))) ** s * character(x)
    got = difference(character, x, h, s)
    assert got.shape == (7,)
    assert np.max(np.abs(got - want)) <= 1e-13
    # a stack of steps (m, d) gives one row per step, each the one-step value
    steps = np.stack([h, -h, 2.5 * h])
    stacked = difference(character, x, steps, s)
    assert stacked.shape == (3, 7)
    for row, step in zip(stacked, steps):
        assert np.array_equal(row, difference(character, x, step, s))


@pytest.mark.parametrize("s", [1, 2])
def test_fractional_difference_matches_stencil_at_integer_order(s):
    f = band_bump(0.4, 1)
    x = np.linspace(-6.0, 6.0, 25)[:, None]
    for h in (0.3, -3.0):  # -3 puts branch points at 0 and +-1/3
        want = difference(f.spatial, x, np.array([h]), s)
        got = fractional_difference(f, h, s, x)
        assert got.shape == (25,)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_fractional_difference_needs_1d_compact_profile():
    x = np.zeros((1, 1))
    for f in (hat_tensor(1), _poly_square()):
        with pytest.raises(UnsupportedInput, match="compact Fourier profile"):
            fractional_difference(f, 0.2, 1.5, x)
    with pytest.raises(UnsupportedInput, match="2-D"):
        fractional_difference(gaussian(2), np.array([0.2, 0.1]), 1.5,
                              np.zeros((1, 2)))
    with pytest.raises(UnsupportedInput):
        modulus(hat_tensor(1), ModulusSpec(order=1.5, matrix=np.eye(1), p=2),
                BOX, 64)


def test_fractional_modulus_gaussian_parseval_oracle():
    # the order-1.5 difference of exp(-pi x^2) has |profile|^2
    # exp(-2 pi xi^2) |2 sin(pi h xi)|^3, so Parseval gives its L2 norm; the
    # integrand is even and, for |h| < 1/9, smooth on [0, 9]
    spec = ModulusSpec(order=1.5, matrix=np.array([[2.0 ** -6]]), p=2)
    t, w = np.polynomial.legendre.leggauss(400)
    xi, w = 4.5 * (t + 1.0), 4.5 * w
    want = max(math.sqrt(2.0 * np.dot(
        np.exp(-2.0 * np.pi * xi ** 2) * np.abs(2.0 * np.sin(np.pi * h[0] * xi)) ** 3,
        w)) for h in step_net(spec))
    assert want == pytest.approx(4.780575e-3, rel=1e-6)
    got = modulus(gaussian(1), spec, BOX, 1024).value
    assert got == pytest.approx(want, rel=1e-5)


def test_step_net_respects_matrix():
    spec = ModulusSpec(order=2, matrix=np.array([[0.25]]), p=2)
    net = step_net(spec)
    assert max(abs(float(h[0])) for h in net) < 0.25
    assert len(net) == 12


def test_modulus_invalid_order():
    for order in (0, -1, float("nan"), float("inf"), True):
        with pytest.raises(InvalidParams):
            ModulusSpec(order=order, matrix=np.eye(1), p=2)


def test_modulus_translation_invariant():
    f = gaussian(1)
    g = translate(f, 0.5)
    spec = ModulusSpec(order=2, matrix=np.array([[0.25]]), p=2)
    a = modulus(f, spec, BOX, 1024).value
    b = modulus(g, spec, BOX, 1024).value
    assert b == pytest.approx(a, rel=1e-8)


def test_modulus_bounded_by_2s_norm():
    f = gaussian(1)
    spec = ModulusSpec(order=2, matrix=np.array([[0.5]]), p=2)
    m = modulus(f, spec, BOX, 1024).value
    assert m <= 4.0 * 2.0 ** -0.25 * (1 + 1e-9)


def test_modulus_monotone_in_matrix_scale():
    f = gaussian(1)
    small = modulus(f, ModulusSpec(order=2, matrix=np.array([[0.125]]), p=2),
                    BOX, 1024).value
    large = modulus(f, ModulusSpec(order=2, matrix=np.array([[0.5]]), p=2),
                    BOX, 1024).value
    assert small < large


def _step_loop_modulus(f, spec, box, grid):
    """The integer-order modulus one step and one stencil term at a time."""
    grid_spec = GridSpec(np.asarray(box, dtype=float), grid)
    pts, vol = grid_spec.points, grid_spec.cell_volume
    s = int(spec.order)
    norms = []
    for h in step_net(spec):
        acc = np.zeros(len(pts), dtype=complex)
        for nu in range(s + 1):
            term = np.asarray(f.spatial(pts + nu * h), dtype=complex)
            acc += (-1) ** nu * math.comb(s, nu) * term
        norms.append(grid_lp_norm(acc, vol, spec.p))
    return float(np.max(norms))


@pytest.mark.parametrize("dim, grid, order, matrix, steps", [
    (1, 1024, 2, [[0.25]], 12),
    (2, 24, 2, [[0.3, 0.1], [-0.1, 0.2]], 96),
    (3, 8, 3, 0.2 * np.eye(3), 36),
])
def test_batched_modulus_equals_step_loop(monkeypatch, dim, grid, order,
                                          matrix, steps):
    f = gaussian(dim)
    spec = ModulusSpec(order=order, matrix=matrix, p=2)
    box = [[-4.0, 4.0]] * dim
    want = _step_loop_modulus(f, spec, box, grid)
    calls = []

    def spy(x):
        calls.append(len(x))
        return f.spatial(x)

    counted = TestFunction(name="gaussian", dim=dim, spatial=spy)
    n = grid ** dim
    # one block; blocks of 5 whole steps; each step's rows split in two
    for block, blocks in ((quadrature.MAX_BLOCK, 1),
                          (5 * order * n, -(-steps // 5)),
                          (n + n // 2, 2 * steps)):
        monkeypatch.setattr(quadrature, "MAX_BLOCK", block)
        calls.clear()
        res = modulus(counted, spec, box, grid)
        assert res.value == want and res.net_size == steps
        # the nu = 0 term once, then every other stencil point once, in at
        # most MAX_BLOCK points a call: not (order + 1) calls a step
        assert calls[0] == n and len(calls) == blocks + 1
        assert max(calls[1:]) <= block and sum(calls[1:]) == steps * order * n


def test_best_approx_gaussian_tail_oracle():
    f = gaussian(1)
    res = best_approx(f, np.array([[2.0]]), 2, BOX, 512)
    a = 1.0
    want = math.sqrt(2 * (1 / (2 * math.sqrt(2))) * math.erfc(math.sqrt(2 * math.pi) * a))
    assert res == pytest.approx(want, rel=1e-10)


SQRT_2PI = math.sqrt(2 * math.pi)


def _gaussian_mass(a, b):
    """integral of |exp(-pi t^2)^|^2 = exp(-2 pi t^2) over [a, b], 0 <= a <= b,
    through erfc so that far tails keep their relative accuracy."""
    return (math.erfc(SQRT_2PI * a) - math.erfc(SQRT_2PI * b)) / (2 * math.sqrt(2))


@pytest.mark.parametrize("j", [2, 3, 4])
def test_best_approx_gaussian_tail_closed_form(j):
    # band [-2^(j-1), 2^(j-1)] inside the declared support [-9, 9]
    got = best_approx(gaussian(1), np.array([[2.0 ** j]]), 2, BOX, 64)
    want = math.sqrt((math.erfc(SQRT_2PI * 2 ** (j - 1))
                      - math.erfc(9 * SQRT_2PI)) / math.sqrt(2))
    assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_spectrum_tail_mass_2d_gaussian_slab_sum(a):
    # best approximation at p = 2 under 2aI is the root of the mass of
    # |f^|^2 off the band [-a, a]^2 in [-9, 9]^2: the slab with the first
    # axis outside the band, and the one with it inside and the second
    # axis outside
    out, inside, whole = (2 * _gaussian_mass(a, 9.0), 2 * _gaussian_mass(0.0, a),
                          2 * _gaussian_mass(0.0, 9.0))
    want = out * whole + inside * out
    got = best_approx(gaussian(2), 2 * a * np.eye(2), 2, [[-4.0, 4.0]] * 2, 8)
    assert got == pytest.approx(math.sqrt(want), rel=1e-13, abs=0)


def test_best_approx_3d_gaussian_tail_closed_form():
    # off the band [-1, 1]^3 of 2I: the whole mass T^3 less the band's I^3
    whole, inside = 2 * _gaussian_mass(0.0, 9.0), 2 * _gaussian_mass(0.0, 1.0)
    got = best_approx(gaussian(3), 2 * np.eye(3), 2, [[-4.0, 4.0]] * 3, 8)
    assert got == pytest.approx(math.sqrt(whole ** 3 - inside ** 3),
                                rel=1e-13, abs=0)


def _volume(box):
    return float(np.prod(np.maximum(box[:, 1] - box[:, 0], 0.0)))


def _meet(a, b):
    return np.column_stack([np.maximum(a[:, 0], b[:, 0]),
                            np.minimum(a[:, 1], b[:, 1])])


@pytest.mark.parametrize("A, cells", [
    (2 * np.eye(3), 26),
    (np.diag([2.0, 40.0, 2.0]), 8),  # wider than the support on axis 1
    ([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], 26),  # bounding box
], ids=["2I", "wide-axis-1", "non-diagonal"])
def test_best_approx_p2_3d_integrates_tail_cells(monkeypatch, A, cells):
    f = gaussian(3)
    boxes = {}
    rule = quadrature.gauss_nodes_box

    def spy(box, order):
        boxes.setdefault(order, []).append(np.asarray(box, dtype=float))
        return rule(box, 4)  # the boxes are under test, not the rule

    monkeypatch.setattr(smoothness, "gauss_nodes_box", spy)
    best_approx(f, A, 2, [[-4.0, 4.0]] * 3, 8)
    support = f.fourier_support
    inside = _meet(support, map_box(np.transpose(A), [[-0.5, 0.5]] * 3))
    assert list(boxes) == [32, 64]  # order 4 at both: converged at once
    assert all(np.array_equal(a, b) for a, b in zip(boxes[32], boxes[64]))
    assert len(boxes[32]) == cells
    assert sum(map(_volume, boxes[32])) == pytest.approx(
        _volume(support) - _volume(inside), rel=1e-14)
    for i, b in enumerate(boxes[32]):
        assert np.array_equal(_meet(b, support), b)
        assert _volume(_meet(b, inside)) == 0
        assert all(_volume(_meet(b, c)) == 0 for c in boxes[32][:i])


def test_best_approx_p2_jump_in_a_tail_cell_fails_by_name():
    # f^ = 1 on |xi| <= 0.3 within [-0.5, 0.5] jumps inside the tail cells
    # of the band [-0.2, 0.2], so no Gauss order up to the 1-D cap reaches
    # the tolerance (the exact tail is sqrt(0.2))
    f = TestFunction(name="jump", dim=1, spatial=None,
                     fourier=lambda xi: np.where(np.abs(xi[:, 0]) <= 0.3,
                                                 1.0, 0.0),
                     fourier_support=np.array([[-0.5, 0.5]]))
    with pytest.raises(QuadratureFailure, match="best approximation"):
        best_approx(f, [[0.4]], 2, BOX, 64)


def test_best_approx_monotone_in_band():
    f = gaussian(1)
    e2 = best_approx(f, np.array([[2.0]]), 2, BOX, 512)
    e4 = best_approx(f, np.array([[4.0]]), 2, BOX, 512)
    assert e4 < e2


def test_best_approx_bandlimited_signal_is_recovered():
    f = band_bump(0.4, 1)
    # the band [-1, 1] already contains the spectrum box [-0.4, 0.4]
    res = best_approx(f, np.array([[2.0]]), 2, BOX, 512)
    assert res == pytest.approx(0.0, abs=1e-12)


def test_best_approx_sup_norm_is_flagged_upper_bound():
    f = gaussian(1)
    res = best_approx(f, np.array([[2.0]]), np.inf, BOX, 1024)
    assert 0 < res < 1e-2


@pytest.mark.parametrize("A, p, approx", [(4.0, 1, 4.3743e-10),
                                          (4.0, np.inf, 1.7952e-10),
                                          (2.0, np.inf, 4.6610e-4)])
def test_best_approx_off_parseval_matches_cut_cell_reference(A, p, approx):
    # reference: adaptive Gauss on the support cut at the edges of the
    # cutoff's transition band, where the residual profile is not smooth
    f = gaussian(1)
    cells = split_box(f.fourier_support, [[-A, -A / 2, A / 2, A]])

    def resid(xi):
        return (1.0 - eta_profile(xi / A)) * f.fourier(xi)

    grid_spec = GridSpec(BOX, 1024)
    pts, vol = grid_spec.points, grid_spec.cell_volume
    want = grid_lp_norm(transform(resid, cells, pts, 1e-11 * approx,
                                  "reference"), vol, p)
    got = best_approx(f, np.array([[A]]), p, BOX, 1024)
    assert want == pytest.approx(approx, rel=1e-4)
    assert abs(got - want) <= 1e-9 * want


def test_best_approx_2d_off_parseval_matches_tensor_reference():
    # under A = 1.5 I the residual profile is g(xi1) g(xi2) (1 - e(xi1)
    # e(xi2)), with g the 1-D gaussian and e the cutoff's axis factor, so its
    # transform is G(x1) G(x2) - H(x1) H(x2); G and H come from an order-512
    # Gauss rule on the axis cut at the cutoff's switch points
    A = 1.5
    axis = GridSpec([[-4.0, 4.0]], 64)
    cells = split_box([[-9.0, 9.0]], [[-A, -A / 2, A / 2, A]])

    def axis_transform(profile):
        total = 0.0
        for cell in cells:
            nodes, w = gauss_nodes_box(cell, 512)
            total = total + fourier_sum(axis.points, nodes, profile(nodes) * w)
        return total

    G = axis_transform(lambda xi: np.exp(-np.pi * xi[:, 0] ** 2))
    H = axis_transform(lambda xi: eta_profile(xi / A)
                       * np.exp(-np.pi * xi[:, 0] ** 2))
    want = grid_lp_norm(np.outer(G, G) - np.outer(H, H),
                        axis.cell_volume ** 2, 1)
    got = best_approx(gaussian(2), A * np.eye(2), 1, [[-4.0, 4.0]] * 2, 64)
    assert want == pytest.approx(2.2102531e-02, rel=1e-7)
    assert abs(got - want) <= 1e-12 * want


def test_best_approx_p1_2d_builds_bounded_phase_blocks(monkeypatch):
    f = gaussian(2)
    A = np.array([[1.0, 1.0], [1.0, -1.0]])  # quincunx
    box = np.array([[-4.0, 4.0], [-4.0, 4.0]])
    want = best_approx(f, A, 1, box, 16)
    blocks = []
    exp, fft = np.exp, np.fft.fft

    def exp_spy(z):
        if np.iscomplexobj(z) and np.ndim(z) == 2:
            blocks.append(np.size(z))
        return exp(z)

    def fft_spy(a, n=None, axis=-1):
        out = fft(a, n=n, axis=axis)
        blocks.extend([np.size(a), np.size(out)])
        return out

    # the node grids reach 1024^2 and more, far above the patched bound
    monkeypatch.setattr(quadrature, "MAX_BLOCK", 100_000)
    monkeypatch.setattr(np, "exp", exp_spy)
    monkeypatch.setattr(np.fft, "fft", fft_spy)
    res = best_approx(f, A, 1, box, 16)
    assert 0 < max(blocks) <= 100_000
    assert abs(res - want) <= 1e-12 * want


@pytest.mark.parametrize("A", [32.0, 64.0])
@pytest.mark.parametrize("p", [np.inf, 1])
def test_best_approx_inside_the_band_skips_the_transform(monkeypatch, A, p):
    # A* [-1/2, 1/2] covers the gaussian's box [-9, 9], so eta is 1 on it
    monkeypatch.setattr(smoothness, "transform", None)
    assert best_approx(gaussian(1), np.array([[A]]), p, BOX, 256) == 0.0


@pytest.mark.parametrize("A", [4.0, 8.0, 16.0])
@pytest.mark.parametrize("p", [np.inf, 1])
def test_best_approx_dropping_inner_cells_keeps_the_value(A, p):
    # reference: the residual transformed over every cell of the cut support
    f, A = gaussian(1), np.array([[A]])
    target = GridSpec(BOX, 256)

    def resid(xi):
        return (1.0 - eta_profile(xi @ np.linalg.inv(A.T).T)) * \
            np.asarray(f.fourier(xi), dtype=complex)

    cells = split_box(f.fourier_support, np.hstack([
        map_box(A.T, [[-0.5, 0.5]]), map_box(A.T, [[-1.0, 1.0]])]))
    want = grid_lp_norm(transform(resid, cells, target, PROFILE_TOL, "ref"),
                        target.cell_volume, p)
    assert best_approx(f, A, p, BOX, 256) == want


@pytest.mark.parametrize("call, shapes", [
    (lambda: modulus(gaussian(2), ModulusSpec(2, [[0.5]], 2),
                     [[-1.0, 1.0]] * 2, 8), r"\(1, 1\).*\(2, 2\)"),
    (lambda: modulus(gaussian(1), ModulusSpec(2, [[0.5]], 2),
                     [[-1.0, 1.0]] * 2, 8), r"\(2, 2\).*\(1, 2\)"),
    (lambda: best_approx(gaussian(1), np.eye(2), 2, [[-1.0, 1.0]], 8),
     r"\(2, 2\).*\(1, 1\)"),
    (lambda: best_approx(gaussian(2), [[2.0]], 2, [[-1.0, 1.0]] * 2, 8),
     r"\(1, 1\).*\(2, 2\)"),
    (lambda: best_approx(gaussian(2), [[2.0]], 1, [[-1.0, 1.0]] * 2, 8),
     r"\(1, 1\).*\(2, 2\)"),
    (lambda: best_approx(gaussian(2), 2 * np.eye(2), 1, [[-1.0, 1.0]], 8),
     r"\(1, 2\).*\(2, 2\)"),
], ids=["modulus-matrix", "modulus-box", "best-p2-matrix-2x2",
        "best-p2-matrix-1x1", "best-p1-matrix-1x1", "best-p1-box"])
def test_metrics_reject_shapes_that_miss_the_signal(call, shapes):
    with pytest.raises(InvalidParams, match=shapes):
        call()


def _best(matrix, p):
    return best_approx(gaussian(1), matrix, p, BOX, 64)


def _modulus(matrix, p):
    return modulus(gaussian(1), ModulusSpec(2, matrix, p), BOX, 64)


@pytest.mark.parametrize("call, matrix, error, match", [
    (call, matrix, InvalidParams, "must be finite")
    for call in (_best, _modulus) for matrix in ([[math.nan]], [[math.inf]])
] + [(_best, [[0.0]], Singular, "singular")],
    ids=["best-nan", "best-inf", "modulus-nan", "modulus-inf", "best-singular"])
@pytest.mark.parametrize("p", [1, 2])
def test_metrics_check_the_step_matrix(call, matrix, error, match, p):
    # a NaN or infinite matrix gave a silent 0.0 best approximation at
    # p = 2, a NaN or plausible modulus, and a RuntimeWarning before
    # Singular at p = 1; a singular one gave a p = 2 value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=match):
            call(matrix, p)


def _metric(name, p, grid=64, box=BOX, dim=1):
    f = gaussian(dim)
    calls = {
        "error_lp": lambda: error_lp(f.spatial, lambda g: np.zeros(len(g.points)),
                                     p, box, grid),
        "modulus": lambda: modulus(
            f, ModulusSpec(order=2, matrix=0.5 * np.eye(dim), p=p), box, grid),
        "best_approx": lambda: best_approx(f, 2.0 * np.eye(dim), p, box, grid),
    }
    return calls[name]()


@pytest.mark.parametrize("p", [0, -1, 0.5, math.nan])
@pytest.mark.parametrize("metric", ["error_lp", "modulus", "best_approx"])
def test_metrics_reject_invalid_p(metric, p):
    with pytest.raises(InvalidParams, match="p must be"):
        _metric(metric, p)


@pytest.mark.parametrize("metric", ["error_lp", "modulus", "best_approx"])
def test_metrics_take_inf_as_a_string(metric):
    assert _metric(metric, "inf") == _metric(metric, np.inf)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("metric", ["error_lp", "modulus", "best_approx"])
def test_metrics_reject_a_one_point_grid(metric, p):
    # one midpoint is no Riemann sum: every metric refuses it alike
    with pytest.raises(InvalidParams, match="grid must be >= 2 per axis"):
        _metric(metric, p, grid=1)


@pytest.mark.parametrize("box", [[[8.0, -8.0]], [[math.nan, 8.0]],
                                 [[-math.inf, 8.0]]],
                         ids=["reversed", "nan", "-inf"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("metric", ["error_lp", "modulus", "best_approx"])
def test_metrics_reject_a_box_without_finite_ordered_rows(metric, p, box):
    # a reversed box gave a negated p = 2 best approximation, and NaN
    # rows NaN norms, not errors
    with pytest.raises(InvalidParams, match="box must be"):
        _metric(metric, p, box=box)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("metric", ["error_lp", "modulus", "best_approx"])
def test_metrics_take_per_axis_grid_counts(metric, p):
    box = np.array([[-4.0, 4.0]] * 2)
    assert _metric(metric, p, (16, 16), box, 2) == _metric(metric, p, 16, box, 2)
    for grid in ((16, 1), (16,)):
        with pytest.raises(InvalidParams):
            _metric(metric, p, grid, box, 2)


def test_best_approx_needs_profile():
    from quasiproj.functions import hat_tensor
    with pytest.raises(UnsupportedInput):
        best_approx(hat_tensor(1), np.array([[2.0]]), 2, BOX, 256)


def test_fractional_laplacian_s2_is_negative_second_derivative():
    L = fractional_laplacian(gaussian(1), 2.0)
    for x in (0.0, 0.6, -1.3):
        # -f'' for f = exp(-pi x^2)
        want = (2 * math.pi - 4 * math.pi ** 2 * x ** 2) * math.exp(-math.pi * x * x)
        assert complex(L(x)) == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_fractional_laplacian_validation():
    with pytest.raises(InvalidParams):
        fractional_laplacian(band_bump(0.4, 1), 0.0)
    from quasiproj.functions import hat_tensor
    with pytest.raises(UnsupportedInput):
        fractional_laplacian(hat_tensor(1), 1.0)
