from fractions import Fraction
import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from quasiproj import quasiprojection
from quasiproj.errors import (ConfigError, HypothesisViolated,
                              InvalidParams, NonPositiveValue)
from quasiproj.functions import band_bump
from quasiproj.harness import (RADIUS_LADDER, ExperimentConfig, build_function,
                               build_operator, emit, rate_fit,
                               reconstruction_check, run_experiment,
                               two_sided_ratio)
from quasiproj.quasiprojection import evaluate_spatial

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

BASE_CONFIG = {
    "operator": {"generator": "BSplineTensor",
                 "generator_params": {"n": 2},
                 "analyzer": "BoxAverage",
                 "dilation": [[2.0]],
                 "dim": 1},
    "function": {"name": "gaussian"},
    "experiment": {"levels": [1, 2], "p": 2,
                   "box": [[-6.0, 6.0]], "grid": 256},
    "output": {"format": "json"},
}


# the catalog entry a parameter name needs where the base config's lacks it
TAKES = {"beta": ("operator.analyzer", "DiracDerivative"),
         "a": ("operator.generator", "TensorSincPower"),
         "s": ("operator.generator", "BochnerRiesz"),
         "rho": ("function.name", "band_bump"),
         "kernel": ("operator.analyzer", "KernelL1")}


def _cfg(**overrides):
    data = json.loads(json.dumps(BASE_CONFIG))
    for path, value in overrides.items():
        sec, key = path.split(".")
        data[sec][key] = value
    return ExperimentConfig.from_dict(data)


def test_rate_fit_exact_slope():
    slope, resid = rate_fit([1, 2, 3, 4], [2.0 ** (-2 * j) for j in (1, 2, 3, 4)])
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_perturbed_slope():
    vals = [2.0 ** (-2 * j) * (1 + 0.05 * (-1) ** j) for j in (1, 2, 3, 4)]
    slope, resid = rate_fit([1, 2, 3, 4], vals)
    assert slope == pytest.approx(-2.0, abs=0.05)
    assert resid < 0.1


def test_rate_fit_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        rate_fit([1, 2], [1.0, 0.0])
    with pytest.raises(InvalidParams):
        rate_fit([1], [1.0])
    with pytest.raises(InvalidParams, match="distinct"):
        rate_fit([3, 3], [0.1, 0.2])


@pytest.mark.parametrize("n", range(3, 9))
def test_rate_fit_matches_lstsq(n):
    # a sweep's shape: consecutive levels, errors near 2^(-2j)
    rng = np.random.default_rng(n)
    levels = np.arange(2, 2 + n)
    values = 2.0 ** (-2.0 * levels) * rng.uniform(0.5, 2.0, size=n)
    slope, resid = rate_fit(levels.tolist(), values.tolist())
    logs = np.log2(values)
    A = np.stack([levels, np.ones(n)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    assert slope == pytest.approx(coef[0], rel=1e-13, abs=0)
    assert resid == pytest.approx(np.max(np.abs(logs - A @ coef)),
                                  rel=0, abs=1e-14)
    # and the exact least-squares fit of the same float logs
    X = [Fraction(int(j)) for j in levels]
    Y = [Fraction(v) for v in logs.tolist()]
    x = [a - sum(X) / n for a in X]
    y = [b - sum(Y) / n for b in Y]
    exact = sum(a * b for a, b in zip(x, y)) / sum(a * a for a in x)
    assert slope == pytest.approx(float(exact), rel=2e-15, abs=0)
    assert resid == pytest.approx(
        float(max(abs(b - exact * a) for a, b in zip(x, y))), rel=0, abs=5e-15)


def test_two_sided_ratio():
    lo, hi = two_sided_ratio([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert (lo, hi) == (0.5, 1.5)
    with pytest.raises(NonPositiveValue):
        two_sided_ratio([1.0], [0.0])


def test_config_missing_section():
    with pytest.raises(ConfigError, match="operator"):
        ExperimentConfig.from_dict({"function": {"name": "gaussian"}})


def test_config_missing_field():
    data = json.loads(json.dumps(BASE_CONFIG))
    del data["function"]["name"]
    with pytest.raises(ConfigError, match="function.name"):
        ExperimentConfig.from_dict(data)


def test_config_bad_levels():
    with pytest.raises(ConfigError, match="levels"):
        _cfg(**{"experiment.levels": [-1, 2]})


def test_config_boolean_levels_rejected():
    with pytest.raises(ConfigError, match="levels"):
        _cfg(**{"experiment.levels": [True, 2]})


@pytest.mark.parametrize("field, value", [
    ("operator.dim", "two"),
    ("experiment.grid", "big"),
    ("experiment.p", [2]),
    ("experiment.modulus_order", "second"),
    ("experiment.box", [["a", 6.0]]),
    ("experiment.box", [[-4.0]]),
    ("experiment.box", 5),
    ("operator.generator_params", {"n": "x"}),
    ("operator.generator_params", [1]),
    ("operator.analyzer_params", 3),
    ("function.params", 3),
    ("function.params", {"sigma": 2}),
    ("operator.dim", 0),
    ("operator.dim", 4),
    ("operator.dilation", [["a"]]),
    ("operator.dilation", [[2.0], [1.0, 2.0]]),
    ("operator.dilation", [[0.0]]),
    ("operator.dilation", [[0.5]]),
    ("operator.dilation", [[2.0, 0.0], [0.0, 2.0]]),
    ("operator.generator_params", {"n": 2.7}),
    ("operator.generator_params", {"n": True}),
    ("operator.dim", True),
    ("experiment.grid", 256.5),
    ("experiment.p", 0),
    ("experiment.p", -1),
    ("experiment.p", 0.5),
    ("experiment.p", float("nan")),
    ("experiment.p", "two"),
    ("experiment.p", True),
    ("operator.analyzer_params", {"beta": [1.5]}),
    ("operator.analyzer_params", {"beta": [True]}),
    ("experiment.modulus_order", "nan"),
    ("experiment.modulus_order", "inf"),
    ("experiment.modulus_order", float("nan")),
    ("experiment.modulus_order", -1),
    ("experiment.modulus_order", 0),
    ("experiment.modulus_order", True),
    ("experiment.grid", 0),
    ("experiment.grid", 1),
    ("experiment.with_modulus", "false"),
    ("experiment.with_modulus", 1),
    ("experiment.with_best_approx", "true"),
    ("experiment.with_best_approx", None),
    ("experiment.levels", [3, 3]),
    ("experiment.levels", [1, 2, 1]),
    ("operator.generator_params", {"a": True}),
    ("operator.generator_params", {"s": True, "gamma": True}),
    ("function.params", {"rho": True}),
    ("operator.generator_params", {"a": float("nan")}),
    ("operator.generator_params", {"a": float("inf")}),
    ("operator.generator_params", {"a": -float("inf")}),
    ("operator.generator_params", {"s": float("nan")}),
    ("operator.generator_params", {"s": float("inf")}),
    ("operator.generator_params", {"s": 2.0, "gamma": float("nan")}),
    ("function.params", {"rho": float("inf")}),
    ("function.params", {"rho": float("nan")}),
    ("operator.analyzer_params", {"kernel": {}}),
    ("operator.analyzer_params", {"kernel": "BSplineTensor"}),
])
def test_config_non_numeric_field(field, value):
    overrides = {field: value}
    for name in value if isinstance(value, dict) else ():
        if name in TAKES:
            overrides.update([TAKES[name]])
    with pytest.raises(ConfigError, match=field):
        _cfg(**overrides)


@pytest.mark.parametrize("data, message", [
    ([], "config must be"),
    ("x", "config must be"),
    (None, "config must be"),
    ({**BASE_CONFIG, "operator": []}, "section 'operator' must be"),
    ({**BASE_CONFIG, "experiment": "x"}, "section 'experiment' must be"),
])
def test_config_not_an_object(data, message):
    with pytest.raises(ConfigError, match=f"{message} a JSON object"):
        ExperimentConfig.from_dict(data)


def test_config_flags_and_order_load():
    cfg = _cfg(**{"experiment.with_modulus": True,
                  "experiment.with_best_approx": False,
                  "experiment.modulus_order": 1.5})
    assert cfg.with_modulus is True and cfg.with_best_approx is False
    assert cfg.modulus_order == 1.5
    assert _cfg().with_modulus is False and _cfg().modulus_order == 2.0


def test_config_scalar_dilation_is_one_by_one():
    cfg = _cfg(**{"operator.dilation": 2.0})
    assert cfg.dilation.entries.tolist() == [[2.0]]
    assert build_operator(cfg, 3).dilation is cfg.dilation
    assert run_experiment(cfg).rows == run_experiment(_cfg()).rows


@pytest.mark.parametrize("box", [[[-4.0, 4.0]], [[1.0, -1.0], [0.0, 1.0]],
                                 [[-4.0, float("inf")], [0.0, 1.0]]])
def test_config_box_needs_dim_ordered_finite_rows(box):
    with pytest.raises(ConfigError, match="experiment.box"):
        _cfg(**{"operator.dim": 2, "experiment.box": box})


def test_config_bad_format():
    with pytest.raises(ConfigError, match="format"):
        _cfg(**{"output.format": "xml"})


def test_config_infinity_p():
    cfg = _cfg(**{"experiment.p": "inf"})
    assert cfg.p == np.inf
    assert _cfg(**{"experiment.p": 1}).p == 1.0
    assert _cfg(**{"experiment.p": 2.5}).p == 2.5


def test_run_experiment_reports_rate():
    report = run_experiment(_cfg(**{"experiment.levels": [1, 2, 3]}))
    assert len(report.rows) == 3
    assert report.rate is not None and report.rate < -1.5
    assert all(r.error > 0 for r in report.rows)


def test_emit_json_deterministic():
    cfg = _cfg()
    a = emit(run_experiment(cfg), "json")
    b = emit(run_experiment(cfg), "json")
    assert a == b
    parsed = json.loads(a)
    assert parsed["config_digest"] == cfg.digest()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_digest_is_sha256_of_sorted_config(path):
    raw = json.loads(path.read_text())
    want = hashlib.sha256(json.dumps(raw, sort_keys=True).encode())
    assert ExperimentConfig.from_dict(raw).digest() == want.hexdigest()[:16]


def test_rates_run_loads_neither_openssl_nor_csv():
    # the digest takes the interpreter's builtin SHA-256, only CSV reports
    # import csv, the records are plain classes and only check and
    # reconstruct load the condition certificates: a JSON rates process
    # loads none of them
    root = Path(__file__).resolve().parent.parent
    code = """
import json, sys
import numpy
watch = {"_hashlib", "csv", "dataclasses", "quasiproj.conditions"}
before = set(sys.modules)
from quasiproj.cli import main
code = main(["rates", sys.argv[1]])
print(json.dumps({"code": code, "preloaded": sorted(watch & before),
                  "added": sorted(watch & set(sys.modules) - before)}))
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "rates_spline_box.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    if got["preloaded"]:
        pytest.skip(f"this numpy loads {got['preloaded']} on import")
    assert got["code"] == 0 and got["added"] == []


def test_runs_call_no_lapack_routine(tmp_path):
    # the dilation algebra is computed in the package: with the LAPACK
    # entry points patched to raise, every shipped rates sweep, one
    # approximate level, both reconstructions and every check still run
    root = Path(__file__).resolve().parent.parent
    code = """
import sys
import numpy

def refuse(name):
    def call(*args, **kwargs):
        raise RuntimeError(f"numpy.linalg.{name} called")
    return call

for name in ("inv", "det", "eigvals", "solve", "lstsq"):
    for mod in (numpy.linalg, getattr(numpy.linalg, "_linalg", None)):
        if mod is not None and hasattr(mod, name):
            setattr(mod, name, refuse(name))
from quasiproj.cli import main
configs, out = sys.argv[1:-1], sys.argv[-1]
for path in configs:
    name = path.rsplit("/", 1)[-1]
    runs = [["check", path]]
    if name.startswith("rates_"):
        runs.append(["rates", path])
    if name.startswith("reconstruct_"):
        runs.append(["reconstruct", path])
    if name == "rates_spline_box.json":
        runs.append(["approximate", path, "--level", "3"])
    for argv in runs:
        if main(argv + ["--output", out]) != 0:
            sys.exit(f"{argv} failed")
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    configs = [str(p) for p in sorted(CONFIGS.glob("*.json"))]
    out = subprocess.run(
        [sys.executable, "-c", code, *configs, str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr


def test_emit_csv_layout():
    report = run_experiment(_cfg(**{"output.format": "csv"}))
    lines = emit(report, "csv").strip().split("\n")
    assert lines[0] == ("level,error,modulus,best_approx,ratio,rate,"
                        "rate_residual")
    assert len(lines) == 3
    # every row repeats the rate fit; without a fit the columns are empty
    fit = [repr(report.rate), repr(report.rate_residual)]
    assert all(line.split(",")[-2:] == fit for line in lines[1:])
    single = emit(run_experiment(_cfg(**{"experiment.levels": [1]})), "csv")
    assert single.strip().split("\n")[1].split(",")[-2:] == ["", ""]


def test_reconstruction_check_flags_incompatible_pair():
    cfg_dict = json.loads(json.dumps(BASE_CONFIG))
    cfg_dict["operator"].update({"generator": "TensorSincPower",
                                 "generator_params": {"n": 1, "a": 1.0},
                                 "analyzer": "BoxAverage"})
    cfg = ExperimentConfig.from_dict(cfg_dict)
    spec = build_operator(cfg, 0)
    with pytest.raises(HypothesisViolated):
        reconstruction_check(spec, band_bump(0.4, 1),
                             np.array([[-4.0, 4.0]]), 128)


def test_reconstruction_check_flags_wide_spectrum():
    cfg_dict = json.loads(json.dumps(BASE_CONFIG))
    cfg_dict["operator"].update({"generator": "TensorSincPower",
                                 "generator_params": {"n": 1, "a": 1.0},
                                 "analyzer": "Dirac"})
    cfg = ExperimentConfig.from_dict(cfg_dict)
    spec = build_operator(cfg, 0)
    with pytest.raises(HypothesisViolated):
        reconstruction_check(spec, band_bump(0.7, 1),
                             np.array([[-4.0, 4.0]]), 128)


@pytest.mark.parametrize("level", [2, 3])
def test_reconstruction_ladder_is_exact_off_the_origin(level):
    # the reconstruct_sinc setup above level 0: the probe x = 4 sits at
    # M^j x = 16 and 32, beyond the smaller radii, so only a window about
    # the point sums the atoms that reach it
    cfg = ExperimentConfig.from_file(str(CONFIGS / "reconstruct_sinc.json"))
    result = reconstruction_check(build_operator(cfg, level), cfg.function,
                                  np.asarray(cfg.box), cfg.grid)
    errors = [rung["error"] for rung in result["truncation"]]
    assert len(errors) == 3 and max(errors) <= 1e-15


def test_reconstruction_ladder_analyzes_once(monkeypatch):
    # the radius-32 site box holds the radius-8 and radius-16 ones, so one
    # analyze call gives all three partial sums
    cfg = ExperimentConfig.from_file(str(CONFIGS /
                                         "reconstruct_sinc_level3.json"))
    spec = build_operator(cfg, cfg.levels[0])
    box = np.asarray(cfg.box)
    probe = 0.25 * (box[:, 0] + 3 * box[:, 1])[None, :]
    exact = complex(np.asarray(cfg.function.spatial(probe))[0])
    per_radius = [abs(evaluate_spatial(spec, cfg.function, probe, r)[0] - exact)
                  for r in RADIUS_LADDER]
    calls = []
    analyze = quasiprojection.analyze

    def counted(*args):
        calls.append(len(args[-1]))
        return analyze(*args)

    monkeypatch.setattr(quasiprojection, "analyze", counted)
    result = reconstruction_check(spec, cfg.function, box, cfg.grid)
    assert calls == [(2 * max(RADIUS_LADDER) + 1) ** spec.dim]
    ladder = [rung["error"] for rung in result["truncation"]]
    assert [rung["radius"] for rung in result["truncation"]] == \
        list(RADIUS_LADDER)
    assert np.max(np.abs(np.subtract(ladder, per_radius))) <= 1e-12
    assert max(ladder) <= 1e-12


def test_build_function_uses_params():
    cfg = _cfg(**{"function.name": "band_bump",
                  "function.params": {"rho": 0.3}})
    f = build_function(cfg)
    assert f.fourier_support[0, 1] == pytest.approx(0.3)
