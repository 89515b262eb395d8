import numpy as np
import pytest

from quasiproj.analyzers import make_analyzer
from quasiproj.conditions import (MAX_ORDER, condition_report,
                                  mikhlin_constant, strang_fix_order,
                                  strict_compat_radius, weak_compat_order)
from quasiproj.errors import InvalidParams, QuadratureFailure
from quasiproj.generators import make_generator
from quasiproj.harness import ExperimentConfig, run_experiment


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
    # sinc^2: the defect's leading term is |xi|, so compatibility order 1
    ("TensorSincPower", {"n": 2, "a": 1.0}, "Dirac", 1, 1, 0.0),
    ("TensorSincPower", {"n": 2, "a": 1.0}, "BoxAverage", 1, 1, 0.0),
    ("BSplineTensor", {"n": 8}, "Dirac", 8, 2, 0.0),
    ("BSplineTensor", {"n": 8}, "BoxAverage", 8, 2, 0.0),
]


def _sinc():
    return make_generator("TensorSincPower", {"n": 1, "a": 1.0}, 1)


def test_strang_fix_orders_of_bsplines():
    # sinc^n vanishes to order n at the nonzero integers; the cap reads
    # MAX_ORDER + 1 for n > MAX_ORDER
    for dim in (1, 2):
        for n in range(1, 11):
            g = make_generator("BSplineTensor", {"n": n}, dim)
            assert strang_fix_order(g) == min(n, MAX_ORDER + 1), (dim, n)


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


def test_weak_compat_non_integer_defect():
    # the defect |3 xi|^1.5 has no second derivative at 0
    g = make_generator("BochnerRiesz", {"s": 1.5, "gamma": 1.0}, 1)
    for akind in ("Dirac", "BoxAverage"):
        assert weak_compat_order(g, make_analyzer(akind, 1)) == 1


def test_unsettled_slope_ladder_raises():
    # the defect xi^2 (2 + sin(2 pi log2|xi| / 3)) has no log-log slope at 0
    def profile(p):
        x = np.abs(p[:, 0])
        return 1.0 - x ** 2 * (2.0 + np.sin(
            2 * np.pi * np.log2(np.where(x > 0, x, 1.0)) / 3))

    g = make_generator("FourierProfile", {"profile": profile}, 1)
    with pytest.raises(QuadratureFailure, match=r"weak_compat at \[0\.0\]"):
        weak_compat_order(g, make_analyzer("Dirac", 1))
    # nor does a defect that reaches the floor at one rung (r = 2^-6) and
    # leaves it again below
    def gap(p):
        x = np.abs(p[:, 0])
        return 1.0 - np.where(np.abs(x - 2.0 ** -6) < 1e-3, 0.0, x ** 2)

    g = make_generator("FourierProfile", {"profile": gap}, 1)
    with pytest.raises(QuadratureFailure):
        weak_compat_order(g, make_analyzer("Dirac", 1))
    # NaN values off the centre do not vanish either
    g = make_generator("FourierProfile", {
        "profile": lambda p: np.where(p[:, 0] == 0, 1.0, np.nan)}, 1)
    with pytest.raises(QuadratureFailure):
        weak_compat_order(g, make_analyzer("Dirac", 1))


@pytest.mark.parametrize("a, akind, want", [
    (3.0, "Dirac", (9, 9, 0.25)),      # the defect is 0 for |xi| < 1/6
    (3.0, "BoxAverage", (9, 2, 0.0)),  # the defect is 1 - sinc there
    (0.55, "Dirac", (9, 9, 1.0)),      # phi^ is 0 within 0.09 of +-1
])
def test_profile_zero_near_the_centre_vanishes(a, akind, want):
    # a profile that is exactly 0 on a neighbourhood of the centre and
    # nonzero beyond it vanishes to every order there
    g = make_generator("TensorSincPower", {"n": 1, "a": a}, 1)
    an = make_analyzer(akind, 1)
    assert (strang_fix_order(g), weak_compat_order(g, an),
            strict_compat_radius(g, an)) == want


@pytest.mark.parametrize("akind", ["Dirac", "BoxAverage"])
def test_compat_order_matches_measured_rate(akind):
    cfg = ExperimentConfig.from_dict({
        "operator": {"generator": "TensorSincPower",
                     "generator_params": {"n": 2, "a": 1.0},
                     "analyzer": akind, "dilation": [[2.0]], "dim": 1},
        "function": {"name": "gaussian"},
        "experiment": {"levels": [1, 2, 3, 4], "p": 2,
                       "box": [[-8.0, 8.0]], "grid": 2048},
        "output": {"format": "json"}})
    rate = run_experiment(cfg).rate
    assert abs(rate + weak_compat_order(cfg.generator, cfg.analyzer)) <= 0.2


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
