import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasiproj.errors import NotExpansive, Singular
from quasiproj.lattice import make_dilation


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
