import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasiproj.analyzers import make_analyzer
from quasiproj.errors import NotExpansive, Singular
from quasiproj.generators import make_generator
from quasiproj.lattice import inverse, make_dilation
from quasiproj.quasiprojection import OperatorSpec
from quasiproj.smoothness import ModulusSpec


def test_scalar_input_becomes_1x1():
    M = make_dilation([2.0])
    assert M.dim == 1
    assert M.det_abs == 2.0
    assert M.isotropic


def test_isotropy_flag_diag_2_2():
    M = make_dilation(np.diag([2.0, 2.0]))
    assert M.isotropic


def test_anisotropic_diag_2_3():
    M = make_dilation(np.diag([2.0, 3.0]))
    assert not M.isotropic
    assert M.det_abs == pytest.approx(6.0)
    assert M.is_diagonal()


# 2I, diag(2, 3) and [[1, -1], [1, 1]] are pinned by the tests about them
@pytest.mark.parametrize("entries, iso", [
    ([[2.0, 1.0], [0.0, 2.0]], False),  # Jordan block: ||M^j|| / 2^j grows
    ([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]], False),
    (2.0 * np.eye(3), True),
    ([[1.0, 1.0], [1.0, -1.0]], True),  # quincunx
])
def test_isotropic_needs_one_modulus_and_a_diagonalizable_matrix(entries,
                                                                 iso):
    assert make_dilation(entries).isotropic is iso


def test_rotation_scaled_is_expansive_and_isotropic():
    # sqrt(2) rotation by 45 degrees: eigenvalues 1 +- i, moduli sqrt(2)
    M = make_dilation([[1.0, -1.0], [1.0, 1.0]])
    assert M.isotropic
    assert not M.is_diagonal()
    assert M.det_abs == pytest.approx(2.0)


def test_identity_rejected():
    with pytest.raises(NotExpansive):
        make_dilation(np.eye(2))


def test_unit_eigenvalue_rejected():
    # the message lists plain numbers, not numpy scalar reprs
    with pytest.raises(NotExpansive, match=r"moduli \[1\.0, 2\.0\] must"):
        make_dilation(np.diag([1.0, 2.0]))


def test_singular_rejected():
    with pytest.raises(Singular):
        make_dilation([[1.0, 1.0], [1.0, 1.0]])


def test_large_dim_rejected():
    with pytest.raises(Singular):
        make_dilation(np.diag([2.0] * 4))


def test_power_and_adjoint_power_consistent():
    M = make_dilation([[2.0, 1.0], [0.0, 3.0]])
    np.testing.assert_allclose(M.power(3), M.entries @ M.entries @ M.entries)
    np.testing.assert_allclose(M.adjoint_power(2), (M.entries @ M.entries).T)
    np.testing.assert_allclose(M.power(-1) @ M.entries, np.eye(2), atol=1e-14)


@given(st.floats(min_value=1.1, max_value=50.0),
       st.floats(min_value=1.1, max_value=50.0))
def test_diagonal_expansive_accepted(a, b):
    M = make_dilation(np.diag([a, b]))
    assert M.det_abs == pytest.approx(a * b, rel=1e-12)


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_contractive_direction_rejected(lam):
    with pytest.raises((NotExpansive, Singular)):
        make_dilation(np.diag([lam, 2.0]))


def _jordan3(lam):
    return lam * np.eye(3) + np.diag([1.0, 1.0], 1)


ALGEBRA_TABLE = {
    "1d-2": [[2.0]], "1d-neg3": [[-3.0]], "1d-half": [[0.5]],
    "1d-one": [[1.0]], "1d-zero": [[0.0]], "1d-nan": [[np.nan]],
    "diag22": np.diag([2.0, 2.0]), "diag23": np.diag([2.0, 3.0]),
    "quincunx": [[1.0, 1.0], [1.0, -1.0]],
    "rotation": [[1.0, -1.0], [1.0, 1.0]],
    "jordan2": [[2.0, 1.0], [0.0, 2.0]], "shear": [[1.0, 1.0], [0.0, 1.0]],
    "swap2": [[0.0, 2.0], [1.0, 0.0]], "singular2": [[1.0, 2.0], [2.0, 4.0]],
    "2I3": 2.0 * np.eye(3), "diag234": np.diag([2.0, 3.0, 4.0]),
    "quincunx3": [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 2.0]],
    "jordan3": _jordan3(2.0),
    "companion": [[0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "diag123": np.diag([1.0, 2.0, 3.0]),
}


def _random_table():
    # seeded matrices whose eigenvalue moduli stay 1e-9 or more from 1
    rng = np.random.default_rng(20)
    out = {}
    for d in (2, 3):
        i = 0
        while i < 12:
            a = rng.uniform(-3.0, 3.0, (d, d))
            if np.min(np.abs(np.abs(np.linalg.eigvals(a)) - 1.0)) >= 1e-9:
                out[f"random{d}-{i}"] = a
                i += 1
    return out


ALGEBRA_TABLE.update(_random_table())


@pytest.mark.parametrize("name", sorted(ALGEBRA_TABLE))
def test_dilation_algebra_matches_numpy_linalg(name):
    a = np.asarray(ALGEBRA_TABLE[name], dtype=float)
    with np.errstate(invalid="ignore"):  # the nan entry
        det = np.linalg.det(a)
    if det == 0.0 or not np.isfinite(det):
        with pytest.raises(Singular):
            make_dilation(a)
        with pytest.raises(Singular):
            inverse(a)
        return
    inv = inverse(a)
    np.testing.assert_allclose(inv @ a, np.eye(len(a)), rtol=0, atol=1e-13)
    moduli = np.abs(np.linalg.eigvals(a))
    if np.min(moduli) <= 1.0:
        with pytest.raises(NotExpansive):
            make_dilation(a)
        return
    M = make_dilation(a)
    assert M.det_abs == pytest.approx(abs(det), rel=1e-13)
    np.testing.assert_array_equal(M.inverse, inv)
    np.testing.assert_allclose(M.power(-2) @ M.power(2), np.eye(len(a)),
                               rtol=0, atol=1e-12)
    # isotropic: one modulus, and eigenspaces that span (nullities of
    # a - lambda I summed over the distinct eigenvalues reach d)
    lams = np.linalg.eigvals(a)
    distinct = [lam for i, lam in enumerate(lams)
                if all(abs(lam - mu) > 1e-6 for mu in lams[:i])]
    span = sum(len(a) - np.linalg.matrix_rank(a - lam * np.eye(len(a)),
                                              tol=1e-6) for lam in distinct)
    iso = (np.max(moduli) - np.min(moduli) <= 1e-10 * np.max(moduli)
           and span == len(a))
    assert M.isotropic == iso


def test_inverse_of_integer_matrix_is_adjugate_over_determinant():
    # Faddeev-LeVerrier is exact on integers up to the last division
    a = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]])
    adj = np.array([[12.0, -4.0, 1.0], [1.0, 8.0, -2.0], [-3.0, 1.0, 6.0]])
    np.testing.assert_array_equal(inverse(a), adj / 25.0)
    np.testing.assert_array_equal(inverse(a.T), (adj / 25.0).T)


# one matrix per dimension, and a second one of each dimension that differs
# from it in one entry
RECORD_MATRICES = {
    1: ([[2.0]], [[3.0]]),
    2: ([[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [1.0, 1.0]]),
    3: ([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 2.0]], np.diag([2.0] * 3)),
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_records_holding_arrays_compare_and_hash_by_value(d):
    a, b = RECORD_MATRICES[d]
    g = make_generator("BSplineTensor", {"n": 2}, d)
    box = make_analyzer("BoxAverage", d)

    def records(entries):
        M = make_dilation(entries)
        # a fresh generator would compare unequal: it has identity equality
        return (M, OperatorSpec(g, box, M, 2),
                ModulusSpec(order=2, matrix=M.power(-2), p=2))

    for same, twin, other in zip(records(a), records(np.array(a)), records(b)):
        assert same is not twin
        assert same == twin and not same != twin
        assert hash(same) == hash(twin)
        assert same != other
        assert len({same, twin, other}) == 2
    # -0.0 and 0.0 are equal entries, so they must hash alike
    neg = ModulusSpec(order=2, matrix=-np.zeros((d, d)), p=2)
    pos = ModulusSpec(order=2, matrix=np.zeros((d, d)), p=2)
    assert neg == pos and hash(neg) == hash(pos)
    # a level, an order or a class of its own makes a record unequal
    M, spec, mspec = records(a)
    assert spec != OperatorSpec(g, box, M, 3)
    assert mspec != ModulusSpec(order=3, matrix=mspec.matrix, p=2)
    assert spec != M and M != mspec
