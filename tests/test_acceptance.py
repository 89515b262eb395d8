"""End-to-end acceptance gate.

Each test prints one pass/fail line (run pytest with -s to see them all on
success; failures surface the line in the captured output).  Tolerances are
pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from quasiproj.analyzers import alpha_bound, make_analyzer
from quasiproj.conditions import (strang_fix_order, strict_compat_radius,
                                  weak_compat_order)
from quasiproj.functions import band_bump, gaussian
from quasiproj.generators import make_generator
from quasiproj.harness import (ExperimentConfig, emit, rate_fit,
                               run_experiment, two_sided_ratio)
from quasiproj.lattice import make_dilation
from quasiproj.quadrature import GridSpec, grid_lp_norm
from quasiproj.quasiprojection import (OperatorSpec, error_lp,
                                       evaluate_grid_compact,
                                       evaluate_spatial, spectral_evaluator)
from quasiproj.smoothness import (ModulusSpec, best_approx,
                                  fractional_laplacian, modulus, step_net)

BOX8 = np.array([[-8.0, 8.0]])


def _report(index, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{index}/8] {label}: {status} ({detail})")
    assert ok, f"{label}: {detail}"


def _op(gen_kind, gen_params, ana_kind, level, **ana_kw):
    return OperatorSpec(generator=make_generator(gen_kind, gen_params, 1),
                        analyzer=make_analyzer(ana_kind, 1, **ana_kw),
                        dilation=make_dilation([2.0]),
                        level=level)


def test_exact_recovery_point_sampling():
    t0 = time.monotonic()
    f = band_bump(0.4, 1)
    spec = _op("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", 0)
    ev = spectral_evaluator(spec, f)
    pts = GridSpec(BOX8, 4096).points
    err = float(np.max(np.abs(np.asarray(f.spatial(pts), dtype=complex)
                              - ev(pts))))
    dt = time.monotonic() - t0
    _report(1, "exact recovery, cardinal sine with point sampling",
            err <= 1e-8 and dt < 10.0, f"sup err {err:.2e}, {dt:.1f}s")


def test_exact_recovery_rational_profile_with_averages():
    t0 = time.monotonic()
    f = band_bump(0.4, 1)
    spec = _op("RationalBandlimited", {}, "BoxAverage", 1)
    ev = spectral_evaluator(spec, f)
    pts = GridSpec(BOX8, 4096).points
    err = float(np.max(np.abs(np.asarray(f.spatial(pts), dtype=complex)
                              - ev(pts))))
    dt = time.monotonic() - t0
    _report(2, "exact recovery, rational profile with cell averages",
            err <= 1e-8 and dt < 30.0, f"sup err {err:.2e}, {dt:.1f}s")


def test_error_tracks_second_modulus():
    t0 = time.monotonic()
    f = gaussian(1)
    levels = range(2, 7)
    errs, mods = [], []
    for j in levels:
        spec = _op("TensorSincPower", {"n": 1, "a": 1.0}, "BoxAverage", j)
        ev = spectral_evaluator(spec, f)
        errs.append(error_lp(f, ev, 2, BOX8, 2048))
        A = np.linalg.inv(spec.dilation.power(j))
        mods.append(modulus(f, ModulusSpec(order=2, matrix=A, p=2),
                            BOX8, 1024).value)
    lo, hi = two_sided_ratio(errs, mods)
    slope, _ = rate_fit(list(levels), errs)
    dt = time.monotonic() - t0
    ok = hi / lo <= 10.0 and abs(slope + 2.0) <= 0.2 and dt < 60.0
    _report(3, "error matched to the second-order modulus two-sidedly", ok,
            f"ratio spread {hi / lo:.2f}, slope {slope:.3f}, {dt:.1f}s")


def test_error_rate_meets_compatibility_order():
    t0 = time.monotonic()
    f = gaussian(1)
    g = make_generator("BSplineTensor", {"n": 2}, 1)
    order = weak_compat_order(g, make_analyzer("BoxAverage", 1))
    levels = range(2, 7)
    errs = []
    for j in levels:
        spec = _op("BSplineTensor", {"n": 2}, "BoxAverage", j)
        errs.append(error_lp(
            f, lambda g: evaluate_grid_compact(spec, f, g.points), 2,
            np.array([[-6.0, 6.0]]), 1024))
    slope, _ = rate_fit(list(levels), errs)
    dt = time.monotonic() - t0
    ok = slope <= -order + 0.2 and dt < 60.0
    _report(4, "convergence rate reaches the compatibility order", ok,
            f"slope {slope:.3f} vs order {order}, {dt:.1f}s")


def test_condition_checker_certificates():
    t0 = time.monotonic()
    sinc = make_generator("TensorSincPower", {"n": 1, "a": 1.0}, 1)
    rational = make_generator("RationalBandlimited", {}, 1)
    box_avg = make_analyzer("BoxAverage", 1)
    checks = []
    for n in (1, 2, 3):
        got = strang_fix_order(make_generator("BSplineTensor", {"n": n}, 1))
        checks.append((f"polynomial reproduction order of spline {n}", got, n))
    checks.append(("compatibility order, sinc with averages",
                   weak_compat_order(sinc, box_avg), 2))
    checks.append(("identity radius, rational profile with averages",
                   strict_compat_radius(rational, box_avg), 1.0))
    checks.append(("identity radius, sinc with averages",
                   strict_compat_radius(sinc, box_avg), 0.0))
    dt = time.monotonic() - t0
    bad = [(lbl, got, want) for lbl, got, want in checks if got != want]
    _report(5, "structural condition checkers", not bad and dt < 10.0,
            f"{len(checks) - len(bad)}/{len(checks)} certificates, {dt:.1f}s"
            + (f"; wrong: {bad}" if bad else ""))


def test_growth_factor_closed_forms():
    M = make_dilation(np.diag([2.0, 3.0]))
    d = make_analyzer("DiracDerivative", 2, beta=(1, 0))
    a1 = alpha_bound(d, M)
    a2 = alpha_bound(make_analyzer("Dirac", 2), M)
    a3 = alpha_bound(make_analyzer("Dirac", 1), make_dilation([5.0]))
    ok = a1 == 2.0 and a2 == 1.0 and a3 == 1.0
    _report(6, "analyzer growth factors", ok,
            f"derivative {a1}, point {a2}/{a3}")


def test_metric_oracles():
    import math
    t0 = time.monotonic()
    f = gaussian(1)
    details = []
    ok = True
    for nu in range(1, 6):
        a = 2.0 ** (nu - 1)
        got = best_approx(f, np.array([[2.0 ** nu]]), 2, BOX8, 512)
        want = math.sqrt(2 * (1 / (2 * math.sqrt(2)))
                         * math.erfc(math.sqrt(2 * math.pi) * a))
        if want > 1e-300:
            ok = ok and abs(got - want) / want <= 1e-6
        else:
            ok = ok and got <= 1e-300
    details.append("tail oracle ok" if ok else "tail oracle FAILED")

    # sampled modulus vs the multiplier identity on the shared step net
    grid_spec = GridSpec(np.array([[-9.0, 9.0]]), 16384)
    xi, vol = grid_spec.points, grid_spec.cell_volume
    fhat = np.exp(-np.pi * np.sum(xi ** 2, axis=-1))
    mod_ok = True
    for j in range(2, 7):
        mspec = ModulusSpec(order=2, matrix=np.array([[2.0 ** -j]]), p=2)
        got = modulus(f, mspec, BOX8, 2048).value
        want = 0.0
        for h in step_net(mspec):
            mult = np.abs(2 * np.sin(np.pi * (xi @ h))) ** 2
            want = max(want, math.sqrt(float(np.sum((mult * fhat) ** 2) * vol)))
        mod_ok = mod_ok and abs(got - want) / want <= 0.01
    ok = ok and mod_ok
    details.append("multiplier oracle ok" if mod_ok else "multiplier oracle FAILED")

    P = band_bump(0.4, 1)
    grid_spec = GridSpec(BOX8, 1024)
    pts, vol = grid_spec.points, grid_spec.cell_volume
    ratios = []
    for s in (1.0, 1.5, 2.0):
        L = fractional_laplacian(P, s)
        lnorm = grid_lp_norm(np.asarray(L.spatial(pts)), vol, 2)
        m = modulus(P, ModulusSpec(order=s, matrix=np.eye(1), p=2),
                    BOX8, 1024).value
        ratios.append(lnorm / m)
    bracket_ok = all(1 / 20 <= r <= 20 for r in ratios)
    ok = ok and bracket_ok
    details.append(f"smoothness ratios {['%.3f' % r for r in ratios]}")
    dt = time.monotonic() - t0
    _report(7, "metric oracles", ok, "; ".join(details) + f", {dt:.1f}s")


def test_invariant_suite():
    t0 = time.monotonic()
    f = band_bump(0.4, 1)
    spec = _op("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", 2)
    M = spec.dilation

    # dilation covariance: applying the operator at level j equals applying
    # the level-0 operator to the dilated signal at the dilated point
    from quasiproj.functions import TestFunction
    Minv_j = M.power(-2)
    dilated = TestFunction(name="dilated", dim=1,
                           spatial=lambda pts: f.spatial(pts @ Minv_j.T))
    spec0 = _op("TensorSincPower", {"n": 1, "a": 1.0}, "Dirac", 0)
    cov_err = 0.0
    for x in (0.3, -1.1, 2.4):
        lhs = evaluate_spatial(spec, f, x, 24)[0]
        rhs = evaluate_spatial(spec0, dilated, (M.power(2) @ [x])[0], 24)[0]
        cov_err = max(cov_err, abs(lhs - rhs))
    cov_ok = cov_err <= 1e-12

    # relabeling: the interpolation form sum_k f(M^{-j} k) phi(M^j x - k)
    # over the mirrored window -k equals the coefficient sum
    rel_err = 0.0
    for x in (0.3, -1.1, 2.4):
        y = (M.power(2) @ [x])[0]
        ks = -(np.floor(-y) + np.arange(-24, 25))[:, None]
        interp = np.sum(f.spatial(ks @ Minv_j.T)
                        * spec.generator.spatial(y - ks))
        direct = evaluate_spatial(spec, f, x, 24)[0]
        rel_err = max(rel_err, abs(interp - direct))
    rel_ok = rel_err <= 1e-12

    # determinism: identical configs give byte-identical reports
    cfg_dict = {
        "operator": {"generator": "BSplineTensor",
                     "generator_params": {"n": 2},
                     "analyzer": "BoxAverage",
                     "dilation": [[2.0]], "dim": 1},
        "function": {"name": "gaussian"},
        "experiment": {"levels": [2, 3], "p": 2,
                       "box": [[-6.0, 6.0]], "grid": 512},
        "output": {"format": "json"},
    }
    cfg = ExperimentConfig.from_dict(cfg_dict)
    det_ok = emit(run_experiment(cfg), "json") == emit(run_experiment(cfg), "json")

    # refinement stability: doubling the grid moves each error < 5%
    coarse = {r["level"]: r["error"] for r in run_experiment(cfg)["rows"]}
    fine_dict = json.loads(json.dumps(cfg_dict))
    fine_dict["experiment"]["grid"] = 1024
    fine_report = run_experiment(ExperimentConfig.from_dict(fine_dict))
    fine = {r["level"]: r["error"] for r in fine_report["rows"]}
    refine_ok = all(abs(coarse[j] - fine[j]) / fine[j] < 0.05 for j in coarse)

    dt = time.monotonic() - t0
    ok = cov_ok and rel_ok and det_ok and refine_ok
    _report(8, "invariants (covariance, relabeling, determinism, refinement)",
            ok, f"cov {cov_err:.1e}, relabel {rel_err:.1e}, "
                f"deterministic {det_ok}, stable {refine_ok}, {dt:.1f}s")
