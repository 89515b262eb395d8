import numpy as np
import pytest

from quasiproj.analyzers import make_analyzer
from quasiproj.conditions import (condition_report, mikhlin_constant,
                                  strang_fix_order, strict_compat_radius,
                                  weak_compat_order)
from quasiproj.errors import InvalidParams
from quasiproj.generators import make_generator


# the 1-D condition survey (scripts/survey_conditions.py): generator,
# analyzer, Strang-Fix order, compatibility order, identity radius
SURVEY = [
    ("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", 9, 9, 1.0),
    ("TensorSincPower", {"n": 1, "a": 1.0}, "BoxAverage", 9, 2, 0.0),
    ("TensorSincPower", {"n": 3, "a": 4.0}, "Dirac", 9, 2, 0.0),
    ("TensorSincPower", {"n": 3, "a": 4.0}, "BoxAverage", 9, 2, 0.0),
    ("BSplineTensor", {"n": 2}, "Dirac", 2, 2, 0.0),
    ("BSplineTensor", {"n": 2}, "BoxAverage", 2, 2, 0.0),
    ("BSplineTensor", {"n": 3}, "Dirac", 3, 2, 0.0),
    ("BSplineTensor", {"n": 3}, "BoxAverage", 3, 2, 0.0),
    ("BochnerRiesz", {"s": 2.0, "gamma": 1.0}, "Dirac", 9, 2, 0.0),
    ("BochnerRiesz", {"s": 2.0, "gamma": 1.0}, "BoxAverage", 9, 2, 0.0),
    ("RationalBandlimited", {}, "Dirac", 9, 2, 0.0),
    ("RationalBandlimited", {}, "BoxAverage", 9, 9, 1.0),
]


def _sinc():
    return make_generator("TensorSincPower", {"n": 1, "a": 1.0}, 1)


def test_strang_fix_orders_of_bsplines():
    for n in (1, 2, 3):
        g = make_generator("BSplineTensor", {"n": n}, 1)
        assert strang_fix_order(g) == n


def test_strang_fix_zero_without_normalization():
    # profile with value 1/2 at the origin
    g = make_generator("FourierProfile",
                       {"profile": lambda p: 0.5 * np.prod(np.cos(np.pi * p) ** 2, axis=-1),
                        "support": [[-0.5, 0.5]]}, 1)
    assert strang_fix_order(g) == 0


def test_weak_compat_sinc_box_average():
    assert weak_compat_order(_sinc(), make_analyzer("BoxAverage", 1)) == 2


def test_weak_compat_hat_box_average():
    g = make_generator("BSplineTensor", {"n": 2}, 1)
    assert weak_compat_order(g, make_analyzer("BoxAverage", 1)) == 2


def test_weak_compat_exact_pair_has_high_order():
    # sinc with point sampling matches to all tested orders inside the band
    order = weak_compat_order(_sinc(), make_analyzer("Dirac", 1))
    assert order > 8


def test_weak_compat_dimension_mismatch():
    with pytest.raises(InvalidParams):
        weak_compat_order(_sinc(), make_analyzer("Dirac", 2))


def test_strict_radius_values():
    box = make_analyzer("BoxAverage", 1)
    assert strict_compat_radius(_sinc(), make_analyzer("Dirac", 1)) == 1.0
    assert strict_compat_radius(
        make_generator("RationalBandlimited", {}, 1), box) == 1.0
    assert strict_compat_radius(_sinc(), box) == 0.0


def test_mikhlin_constant_finite_and_scales():
    box = make_analyzer("BoxAverage", 1)
    c = mikhlin_constant(_sinc(), box)
    assert np.isfinite(c) and c > 0
    exact = mikhlin_constant(_sinc(), make_analyzer("Dirac", 1))
    # the exact pair has defect 1 outside the band but 0 inside it
    assert exact <= c + 1.5


def test_condition_report_round_trip():
    g = make_generator("BSplineTensor", {"n": 2}, 1)
    rep = condition_report(g, make_analyzer("BoxAverage", 1))
    d = rep.to_dict()
    assert d["strang_fix"] == 2
    assert d["weak_compat"] == 2
    assert d["strict_delta"] == 0.0
    assert isinstance(d["caveats"], list) and d["caveats"]


@pytest.mark.parametrize("gkind, gparams, akind, repro, compat, radius", SURVEY)
def test_condition_survey_1d(gkind, gparams, akind, repro, compat, radius):
    g = make_generator(gkind, gparams, 1)
    a = make_analyzer(akind, 1)
    assert (strang_fix_order(g), weak_compat_order(g, a),
            strict_compat_radius(g, a)) == (repro, compat, radius)
