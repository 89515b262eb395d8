import math
import tracemalloc

import numpy as np
import pytest

from quasiproj import analyzers
from quasiproj.analyzers import (alpha_bound, analyze, fourier_symbol,
                                 make_analyzer)
from quasiproj.errors import (InvalidParams, QuadratureFailure,
                              UnsupportedInput, UnsupportedMatrix)
from quasiproj.functions import (TestFunction, band_bump, gaussian,
                                 hat_tensor, sinc_tensor)
from quasiproj.generators import make_generator
from quasiproj.lattice import make_dilation
from quasiproj.quadrature import (MAX_BLOCK, ORDER_CAPS, PROFILE_TOL,
                                  converge, gauss_nodes_box, split_box)

from helpers import integrate_box


def test_make_analyzer_validation():
    with pytest.raises(InvalidParams):
        make_analyzer("Mystery", 1)
    with pytest.raises(InvalidParams):
        make_analyzer("DiracDerivative", 2)  # no beta
    with pytest.raises(InvalidParams):
        make_analyzer("MixedTensor", 2, axes=("Dirac",))
    with pytest.raises(InvalidParams):
        make_analyzer("KernelL1", 1)  # no kernel
    # no record, no spatial support, or one of another dimension
    for kernel in ({}, "BSplineTensor", hat_tensor(2),
                   make_generator("BSplineTensor", {"n": 2}, 1)):
        with pytest.raises(InvalidParams, match="KernelL1 needs a 2-D"):
            make_analyzer("KernelL1", 2, kernel=kernel)


def test_fourier_symbols():
    assert fourier_symbol(make_analyzer("Dirac", 1), 0.3) == 1.0
    a = make_analyzer("BoxAverage", 1)
    assert fourier_symbol(a, 0.3) == pytest.approx(np.sinc(0.3))
    d = make_analyzer("DiracDerivative", 1, beta=(1,))
    assert fourier_symbol(d, 0.25) == pytest.approx(2j * np.pi * 0.25)
    pd = make_analyzer("DiracPlusDerivative", 1, beta=(2,))
    assert fourier_symbol(pd, 0.5) == pytest.approx(1.0 + (2j * np.pi * 0.5) ** 2)
    mt = make_analyzer("MixedTensor", 2, axes=("Dirac", "BoxAverage"))
    assert fourier_symbol(mt, np.array([0.3, 0.3])) == pytest.approx(np.sinc(0.3))


def test_alpha_bounds():
    M = make_dilation(np.diag([2.0, 3.0]))
    d10 = make_analyzer("DiracDerivative", 2, beta=(1, 0))
    assert alpha_bound(d10, M) == 2.0
    d01 = make_analyzer("DiracDerivative", 2, beta=(0, 1))
    assert alpha_bound(d01, M) == 3.0
    assert alpha_bound(make_analyzer("Dirac", 2), M) == 1.0
    assert alpha_bound(make_analyzer("BoxAverage", 2), M) == 1.0


def test_alpha_bound_isotropic_rotation():
    M = make_dilation([[1.0, -1.0], [1.0, 1.0]])  # moduli sqrt(2), det 2
    d = make_analyzer("DiracDerivative", 2, beta=(1, 0))
    assert alpha_bound(d, M) == pytest.approx(math.sqrt(2.0))


def test_alpha_bound_unsupported_matrix():
    M = make_dilation([[2.0, 1.0], [0.0, 3.0]])  # anisotropic, not diagonal
    d = make_analyzer("DiracDerivative", 2, beta=(1, 0))
    with pytest.raises(UnsupportedMatrix):
        alpha_bound(d, M)


@pytest.mark.parametrize("entries", [
    [[2.0, 1.0], [0.0, 2.0]],
    [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
])
def test_alpha_bound_rejects_a_jordan_block(entries):
    # one eigenvalue modulus, but ||M^j|| / 2^j grows with j: not isotropic
    M = make_dilation(entries)
    d = make_analyzer("DiracDerivative", M.dim, beta=(1,) + (0,) * (M.dim - 1))
    with pytest.raises(UnsupportedMatrix):
        alpha_bound(d, M)


def test_point_sample_coefficient():
    f = gaussian(1)
    M = make_dilation([2.0])
    c = analyze(f, make_analyzer("Dirac", 1), M, 1, np.array([1]))
    want = 2 ** -0.5 * math.exp(-math.pi * 0.25)
    assert c == pytest.approx(want, rel=1e-13)


def _gauss_mass(a, b):
    """The integral of exp(-pi u^2) over [a, b], as an erfc difference taken
    on the side of 0 where most of [a, b] lies, so neither term cancels."""
    if a + b < 0:
        a, b = -b, -a
    r = math.sqrt(math.pi)
    return 0.5 * (math.erfc(r * a) - math.erfc(r * b))


def test_box_average_coefficient():
    # the gaussian under 2I_d: per axis, 2^{j/2} times its mass over
    # 2^{-j} ([-1/2, 1/2] - k_axis)
    for dim, j, k in ((1, 0, (0,)), (1, 3, (5,)), (2, 2, (1, -2))):
        M = make_dilation(np.diag([2.0] * dim))
        c = analyze(gaussian(dim), make_analyzer("BoxAverage", dim), M, j,
                    np.array(k))
        want = math.prod(2.0 ** (j / 2) * _gauss_mass(2.0 ** -j * (-0.5 - n),
                                                      2.0 ** -j * (0.5 - n))
                         for n in k)
        assert c == pytest.approx(want, rel=1e-13), (dim, j, k)


def test_derivative_coefficient_chain_rule():
    f = gaussian(1)
    M = make_dilation([2.0])
    d = make_analyzer("DiracDerivative", 1, beta=(1,))
    c = analyze(f, d, M, 1, np.array([1]))
    # scale 2^{-1/2}, sign (-1), chain factor 2^{-1}, f'(-1/2)
    fprime = -2 * math.pi * (-0.5) * math.exp(-math.pi * 0.25)
    want = 2 ** -0.5 * (-1.0) * 0.5 * fprime
    assert c == pytest.approx(want, rel=1e-13)


def test_point_plus_derivative_is_sum():
    f = gaussian(1)
    M = make_dilation([2.0])
    k = np.array([1])
    total = analyze(f, make_analyzer("DiracPlusDerivative", 1, beta=(1,)), M, 1, k)
    a = analyze(f, make_analyzer("Dirac", 1), M, 1, k)
    b = analyze(f, make_analyzer("DiracDerivative", 1, beta=(1,)), M, 1, k)
    assert total == pytest.approx(a + b, rel=1e-13)


def test_derivative_needs_compact_profile():
    f = hat_tensor(1)  # no compact Fourier profile
    M = make_dilation([2.0])
    d = make_analyzer("DiracDerivative", 1, beta=(1,))
    with pytest.raises(UnsupportedInput, match="hat"):
        analyze(f, d, M, 0, np.array([0]))


def test_derivative_transform_3d_matches_gaussian_chain_rule():
    # 2I_3, level 1: the coefficient is -(1/2) (d_1 f)(-k/2), times 2^{-3/2}
    M = make_dilation(np.diag([2.0] * 3))
    d = make_analyzer("DiracDerivative", 3, beta=(1, 0, 0))
    sites = _site_cube([2, 2, 2])
    want = -0.5 * _gaussian_partial((1, 0, 0), -sites / 2) * 2 ** -1.5
    _assert_close_to_largest(analyze(gaussian(3), d, M, 1, sites), want)


def _site_cube(radii):
    """The sites k with |k_v| <= radii[v], (n, d) in row-major order."""
    r = np.asarray(radii)
    return (np.indices(2 * r + 1).reshape(len(r), -1).T - r).astype(float)


def _gaussian_axis_derivative(order, t):
    """d^n/dt^n exp(-pi t^2) = (-sqrt(pi))^n H_n(sqrt(pi) t) exp(-pi t^2),
    H_n the physicists' Hermite polynomial (H_{n+1} = 2y H_n - 2n H_{n-1})."""
    y = math.sqrt(math.pi) * t
    h_prev, h = np.zeros_like(y), np.ones_like(y)
    for n in range(order):
        h_prev, h = h, 2 * y * h - 2 * n * h_prev
    return (-math.sqrt(math.pi)) ** order * h * np.exp(-math.pi * t * t)


def _gaussian_partial(beta, x):
    """(D^beta f)(x) for the d-dimensional gaussian at the rows of x."""
    return np.prod([_gaussian_axis_derivative(b, x[:, v])
                    for v, b in enumerate(beta)], axis=0)


def _assert_close_to_largest(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("entries, levels, kind, beta", [
    ([[2.0]], range(4), "DiracDerivative", (1,)),
    ([[2.0]], range(4), "DiracDerivative", (2,)),
    ([[2.0]], range(4), "DiracDerivative", (3,)),
    ([[2.0]], range(4), "DiracPlusDerivative", (2,)),
    (np.diag([2.0, 3.0]), range(3), "DiracDerivative", (1, 0)),
    (np.diag([2.0, 3.0]), range(3), "DiracDerivative", (1, 1)),
])
def test_derivative_coefficients_match_gaussian_chain_rule(entries, levels,
                                                           kind, beta):
    # diagonal M: <f(M^{-j} .), D^beta delta(. + k)> is
    # (-1)^[beta] prod_v (M^{-j})_vv^beta_v (D^beta f)(-M^{-j} k)
    M = make_dilation(entries)
    a = make_analyzer(kind, M.dim, beta=beta)
    for j in levels:
        scale = np.diag(M.power(-j))
        sites = _site_cube(np.round(4 / scale).astype(int) + 2)
        x = -sites * scale
        want = ((-1) ** sum(beta) * np.prod(scale ** np.array(beta))
                * _gaussian_partial(beta, x))
        if kind == "DiracPlusDerivative":
            want = want + _gaussian_partial((0,) * M.dim, x)
        got = analyze(gaussian(M.dim), a, M, j, sites)
        _assert_close_to_largest(got, M.det_abs ** (-j / 2) * want)


@pytest.mark.parametrize("j", [0, 2])
def test_sinc_derivative_coefficients_match_closed_form(j):
    # the profile is the indicator of [-1/2, 1/2]; the coefficient is
    # -2^{-j} sinc'(-2^{-j} k), times 2^{-j/2}
    k = np.arange(-5.0, 6.0)
    x = -k * 2.0 ** -j
    safe = np.where(x == 0, 1.0, x)
    px = np.pi * safe
    sinc_prime = np.where(x == 0, 0.0,
                          (px * np.cos(px) - np.sin(px)) / (px * safe))
    a = make_analyzer("DiracDerivative", 1, beta=(1,))
    got = analyze(sinc_tensor(1), a, make_dilation([2.0]), j, k[:, None])
    want = -(2.0 ** (-1.5 * j)) * sinc_prime
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_derivative_coefficients_under_quincunx():
    # d_1[f(M^{-j} x)] = sum_i (M^{-j})_{i1} (d_i f)(M^{-j} x), at x = -k
    M = make_dilation([[1.0, 1.0], [1.0, -1.0]])
    a = make_analyzer("DiracDerivative", 2, beta=(1, 0))
    sites = _site_cube([12, 12])
    for j in range(1, 5):
        Minv = M.power(-j)
        x = -sites @ Minv.T
        want = -sum(Minv[i, 0] * _gaussian_partial(e, x)
                    for i, e in enumerate([(1, 0), (0, 1)]))
        got = analyze(gaussian(2), a, M, j, sites)
        _assert_close_to_largest(got, M.det_abs ** (-j / 2) * want)


def test_band_bump_2d_derivative_is_tensor_product():
    # the profile is a tensor product, so under 2I the d_1 coefficient at
    # (k1, k2) is the 1-D derivative coefficient at k1 times the 1-D point
    # coefficient at k2
    M1, M2 = make_dilation([2.0]), make_dilation(np.diag([2.0, 2.0]))
    f1, f2 = band_bump(0.4, 1), band_bump(0.4, 2)
    d1 = make_analyzer("DiracDerivative", 1, beta=(1,))
    d2 = make_analyzer("DiracDerivative", 2, beta=(1, 0))
    axis = _site_cube([6])
    for j in range(3):
        want = np.outer(analyze(f1, d1, M1, j, axis),
                        analyze(f1, make_analyzer("Dirac", 1), M1, j, axis))
        got = analyze(f2, d2, M2, j, _site_cube([6, 6]))
        _assert_close_to_largest(got, want.ravel())


def test_mixed_tensor_coefficient():
    f = gaussian(2)
    M = make_dilation(np.diag([2.0, 2.0]))
    mt = make_analyzer("MixedTensor", 2, axes=("Dirac", "BoxAverage"))
    c = analyze(f, mt, M, 0, np.array([1, 2]))
    # f factorizes: e^{-pi} times the average of e^{-pi (t-2)^2} over |t|<1/2
    part = _gauss_mass(-2.5, -1.5)
    assert c == pytest.approx(math.exp(-math.pi) * part, rel=1e-13)


def test_kernel_coefficient_matches_direct_integral():
    f = gaussian(1)
    M = make_dilation([2.0])
    kern = make_generator("BSplineTensor", {"n": 2}, 1)
    a = make_analyzer("KernelL1", 1, kernel=kern)
    c = analyze(f, a, M, 0, np.array([0]))
    # split at the hat's kink so each piece is smooth for the oracle rule
    want = sum(integrate_box(
        lambda t: kern.spatial(t) * np.exp(-np.pi * t[:, 0] ** 2),
        [[a0, b0]], tol=1e-13) for a0, b0 in ((-1.0, 0.0), (0.0, 1.0)))
    assert c == pytest.approx(want, rel=1e-12)


def test_kernel_coefficient_is_one_converged_integral(monkeypatch):
    # the kernel's knot cells share one doubling check, not one each
    checks = []

    def spy(*args):
        checks.append(args[-1])
        return converge(*args)

    monkeypatch.setattr(analyzers, "converge", spy)
    kern = make_generator("BSplineTensor", {"n": 2}, 1)
    analyze(gaussian(1), make_analyzer("KernelL1", 1, kernel=kern),
            make_dilation([2.0]), 0, np.array([0]))
    assert checks == ["analyzer box integral"]


def test_box_integral_fails_at_the_3d_order_cap(monkeypatch):
    # a jump inside the averaging box never converges; in 3-D the rule stops
    # at ORDER_CAPS[2] = 128 per axis (2^21 nodes), never building 256^3
    orders = []

    def spy(box, order):
        if order > 128:
            pytest.fail(f"Gauss order {order} above the 3-D cap")
        orders.append(order)
        return gauss_nodes_box(box, order)

    monkeypatch.setattr(analyzers, "gauss_nodes_box", spy)
    step = TestFunction("step", 3, lambda pts: (pts[:, 0] > 0.1) * 1.0)
    with pytest.raises(QuadratureFailure,
                       match=r"analyzer box integral .*tol=1e-12 at order 128"):
        analyze(step, make_analyzer("BoxAverage", 3),
                make_dilation(np.diag([2.0] * 3)), 0, np.zeros(3))
    assert orders == [8, 16, 32, 64, 128]


def test_box_integral_holds_one_copy_of_the_node_set(monkeypatch):
    # one order-64 rule over the 3-D averaging box of one site: 64^3 nodes,
    # a 6.3 MB node set; the Gauss rule's own copy is the one the sum uses
    monkeypatch.setattr(analyzers, "converge",
                        lambda at, start, cap, tol, what: at(64))
    args = (gaussian(3), make_analyzer("BoxAverage", 3),
            make_dilation(np.diag([2.0] * 3)), 1, np.zeros(3))
    want = analyze(*args)  # builds the cached 1-D rule outside the trace
    tracemalloc.start()
    try:
        got = analyze(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # the sum itself needs about 3.7 node sets; a second copy makes it 4.7
    assert peak < 4.2 * 64 ** 3 * 3 * 8


_KERNEL = make_generator("BSplineTensor", {"n": 2}, 2)


@pytest.mark.parametrize("dim, kind, kw", [
    (1, "Dirac", {}),
    (1, "DiracDerivative", {"beta": (1,)}),
    (1, "DiracPlusDerivative", {"beta": (2,)}),
    (1, "BoxAverage", {}),
    (2, "BoxAverage", {}),
    (2, "MixedTensor", {"axes": ("BoxAverage", "Dirac")}),
    (2, "KernelL1", {"kernel": _KERNEL}),
])
def test_site_array_matches_single_sites(dim, kind, kw):
    f = gaussian(dim)
    M = make_dilation(np.diag([2.0] * dim))
    a = make_analyzer(kind, dim, **kw)
    sites = np.array([[k, 1 - k][:dim] for k in range(-3, 4)], dtype=float)
    batch = analyze(f, a, M, 1, sites)
    assert batch.shape == (sites.shape[0],)
    for k, c in zip(sites, batch):
        assert abs(c - analyze(f, a, M, 1, k)) <= 1e-12


def _pairings_by_subtraction(f, a, M, j, sites):
    """Oracle for the spatial integral kinds: the coefficients from
    f(M^{-j} (t - k)), the Gauss nodes t padded with 0 on the Dirac axes,
    minus each site k, then mapped, under the same doubling check."""
    Minv_j, d = M.power(-j), a.dim
    if a.kind == "KernelL1":
        supp = a.kernel.spatial_support
        cells = split_box(supp, [np.arange(np.ceil(2 * lo),
                                           np.floor(2 * hi) + 1) / 2.0
                                 for lo, hi in supp])
        axes, kernel = list(range(d)), a.kernel
    else:
        axes = [i for i, tag in enumerate(a.axes) if tag == "BoxAverage"]
        cells, kernel = [np.array([[-0.5, 0.5]] * len(axes))], None

    def at(order):
        total = np.zeros(len(sites), dtype=complex)
        for cell in cells:
            t, w = gauss_nodes_box(cell, order)
            full = np.zeros((len(w), d))
            full[:, axes] = t
            kw = 1.0 if kernel is None else np.conj(
                np.asarray(kernel.spatial(full), dtype=complex))
            pts = (full[None, :, :] - sites[:, None, :]) @ Minv_j.T
            vals = np.asarray(f.spatial(pts.reshape(-1, d)))
            total += vals.reshape(len(sites), -1) * kw @ w
        return total

    return M.det_abs ** (-j / 2.0) * converge(
        at, 8, ORDER_CAPS[min(len(axes), 3) - 1], PROFILE_TOL, "oracle")


_QUINCUNX = [[1.0, 1.0], [1.0, -1.0]]
_MIXED = make_analyzer("MixedTensor", 2, axes=("BoxAverage", "Dirac"))
_PAIRING_CASES = {  # analyzer, dilation, level, site radius
    "mixed-quincunx": (_MIXED, _QUINCUNX, 1, 3),
    "mixed-diag23": (_MIXED, np.diag([2.0, 3.0]), 1, 3),
    "kernel-2d": (make_analyzer("KernelL1", 2, kernel=_KERNEL),
                  [[2.0, 1.0], [0.0, 3.0]], 1, 3),  # M^{-j} != M^{-j}T
    "box-3d": (make_analyzer("BoxAverage", 3),  # rates_spline_3d's dilation
               [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 2.0]], 2, 2),
}


@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("case", sorted(_PAIRING_CASES))
def test_pairings_integrate_f_at_x_k_plus_mapped_nodes(case, blocked,
                                                       monkeypatch):
    # f(x_k + M^{-j} t) about x_k = -M^{-j} k is the same integrand as
    # f(M^{-j} (t - k)) up to roundoff, also when the sites are split into
    # blocks (at most 3 * 2^d sites a block at the first order, 8^d nodes)
    a, m, j, r = _PAIRING_CASES[case]
    M, f, sites = make_dilation(m), gaussian(a.dim), _site_cube([r] * a.dim)
    if blocked:
        monkeypatch.setattr(analyzers, "MAX_BLOCK", 3 * 16 ** a.dim)
    got = analyze(f, a, M, j, sites)
    want = _pairings_by_subtraction(f, a, M, j, sites)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("a", [
    make_analyzer("BoxAverage", 1),
    make_analyzer("KernelL1", 1,
                  kernel=make_generator("BSplineTensor", {"n": 3}, 1)),
])
def test_1d_pairings_match_the_subtraction_bit_for_bit(a):
    # under M = 2 both forms scale t - k by a power of two: no roundoff moves
    M, sites = make_dilation([[2.0]]), _site_cube([6])
    np.testing.assert_array_equal(
        analyze(gaussian(1), a, M, 2, sites),
        _pairings_by_subtraction(gaussian(1), a, M, 2, sites))


def test_site_array_shape_checked():
    M = make_dilation(np.diag([2.0, 2.0]))
    with pytest.raises(InvalidParams):
        analyze(gaussian(2), make_analyzer("Dirac", 2), M, 0, np.zeros((3, 1)))
    # the derivative transform reads sites off a unit-step grid
    d = make_analyzer("DiracDerivative", 2, beta=(1, 0))
    with pytest.raises(InvalidParams, match="integer"):
        analyze(gaussian(2), d, M, 0, np.array([[0.0, 0.0], [0.5, 1.0]]))


@pytest.mark.parametrize("kind, sites", [
    # 256 sample points x 128^2 profile nodes would exceed MAX_BLOCK unblocked
    ("BoxAverage", np.array([[0, 0], [1, -1], [2, 3], [-3, 1]], dtype=float)),
    ("Dirac", np.indices((18, 18)).reshape(2, -1).T - 9.0),
])
def test_profile_signal_site_array_2d(monkeypatch, kind, sites):
    # band_bump evaluates by inverse-Fourier quadrature of its profile; the
    # points x nodes phase blocks it builds must stay within MAX_BLOCK
    f = band_bump(0.4, 2)
    M = make_dilation(np.diag([2.0, 2.0]))
    a = make_analyzer(kind, 2)
    blocks = []
    exp = np.exp

    def spy(z):
        if np.iscomplexobj(z) and np.ndim(z) == 2:
            blocks.append(np.size(z))
        return exp(z)

    monkeypatch.setattr(np, "exp", spy)
    batch = analyze(f, a, M, 1, sites)
    assert 0 < max(blocks) <= MAX_BLOCK
    single = np.array([analyze(f, a, M, 1, k) for k in sites])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)



_DILATIONS = {"2": [[2.0]], "2I": np.diag([2.0, 2.0]),
              "quincunx": [[1.0, -1.0], [1.0, 1.0]]}


@pytest.mark.parametrize("dim, dilation", [(1, "2"), (2, "2I"),
                                           (2, "quincunx")])
@pytest.mark.parametrize("tag", ["Dirac", "BoxAverage"])
def test_uniform_kinds_are_mixed_tensor_cases(tag, dim, dilation):
    a = make_analyzer(tag, dim)
    mt = make_analyzer("MixedTensor", dim, axes=(tag,) * dim)
    xi = np.linspace(-1.3, 1.3, 11)[:, None] + 0.1 * np.arange(dim)
    assert np.array_equal(fourier_symbol(a, xi), fourier_symbol(mt, xi))
    M = make_dilation(_DILATIONS[dilation])
    sites = _site_cube([2] * dim)
    assert np.array_equal(analyze(gaussian(dim), a, M, 1, sites),
                          analyze(gaussian(dim), mt, M, 1, sites))
    assert a.axes == mt.axes
