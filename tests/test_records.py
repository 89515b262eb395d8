"""The package surface: exported names, record immutability and equality,
and what `import quasiproj` loads."""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import quasiproj
from quasiproj.analyzers import make_analyzer
from quasiproj.conditions import ConditionReport
from quasiproj.functions import gaussian
from quasiproj.generators import make_generator
from quasiproj.harness import ExperimentConfig, ExperimentReport, LevelResult
from quasiproj.lattice import make_dilation
from quasiproj.quadrature import GridSpec
from quasiproj.quasiprojection import OperatorSpec
from quasiproj.smoothness import ModulusResult, ModulusSpec

# the names the package exports; the five condition functions resolve
# through the package's module __getattr__
EXPORTS = (
    "AnalysisFunctional", "alpha_bound", "analyze", "make_analyzer",
    "condition_report", "mikhlin_constant", "strang_fix_order",
    "strict_compat_radius", "weak_compat_order",
    "ConfigError", "HypothesisViolated", "InvalidParams", "NotExpansive",
    "QuasiprojError", "UnsupportedMatrix",
    "TestFunction", "band_bump", "gaussian", "hat_tensor", "sinc_tensor",
    "Generator", "make_generator",
    "ExperimentConfig", "ExperimentReport", "emit", "rate_fit",
    "reconstruction_check", "run_experiment", "two_sided_ratio",
    "DilationMatrix", "make_dilation",
    "OperatorSpec", "error_lp", "evaluate_spatial", "spectral_evaluator",
    "ModulusSpec", "best_approx", "fractional_difference",
    "fractional_laplacian", "modulus",
    "__version__",
)

CONFIG = {
    "operator": {"generator": "BSplineTensor", "generator_params": {"n": 2},
                 "analyzer": "BoxAverage", "dilation": [[2.0]], "dim": 1},
    "function": {"name": "gaussian"},
    "experiment": {"levels": [1, 2], "box": [[-6.0, 6.0]], "grid": 64},
    "output": {},
}


@pytest.mark.parametrize("name", EXPORTS)
def test_every_exported_name_imports(name):
    namespace = {}
    exec(f"from quasiproj import {name}", namespace)
    assert namespace[name] is getattr(quasiproj, name)


def test_unknown_package_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        quasiproj.nonesuch  # noqa: B018
    assert not hasattr(quasiproj, "nonesuch")


def _frozen_records():
    g = make_generator("BSplineTensor", {"n": 2}, 2)
    a = make_analyzer("BoxAverage", 2)
    M = make_dilation([[1.0, 1.0], [1.0, -1.0]])
    return [
        (a, ("kind", "dim", "beta", "axes", "kernel")),
        (ConditionReport(2, 2, 0.0, 1.0, ("c",)),
         ("strang_fix", "weak_compat", "strict_delta", "mikhlin", "caveats")),
        (ExperimentConfig.from_dict(CONFIG),
         ("generator", "analyzer", "dilation", "function", "levels", "p",
          "box", "grid", "modulus_order", "with_modulus", "with_best_approx",
          "output_format", "raw")),
        (M, ("entries", "dim", "det_abs", "inverse")),
        (GridSpec([[-1.0, 1.0]] * 2, 4), ("box", "counts")),
        (OperatorSpec(g, a, M, 1), ("generator", "analyzer", "dilation",
                                    "level")),
        (ModulusSpec(order=2, matrix=M.inverse, p=2), ("order", "matrix", "p")),
        (ModulusResult(0.5, 7), ("value", "net_size")),
    ]


FROZEN = _frozen_records()


@pytest.mark.parametrize("record, fields", FROZEN,
                         ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_record_refuses_assignment(record, fields):
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


def test_mutable_records_take_assignment():
    f = gaussian(1)
    spatial = f.spatial
    f.spatial = lambda pts: 2 * spatial(pts)
    assert f(0.0) == 2.0
    row = LevelResult(level=1, error=0.5)
    row.modulus = 0.25
    assert row.to_dict() == {"level": 1, "error": 0.5, "modulus": 0.25,
                             "best_approx": None, "ratio": None}


def test_equality_of_the_other_records():
    kernel = make_generator("BSplineTensor", {"n": 2}, 1)
    other = make_generator("BSplineTensor", {"n": 3}, 1)
    # an analyzer compares without its kernel
    assert (make_analyzer("KernelL1", 1, kernel=kernel)
            == make_analyzer("KernelL1", 1, kernel=other))
    assert make_analyzer("Dirac", 1) != make_analyzer("BoxAverage", 1)
    assert len({make_analyzer("Dirac", 2), make_analyzer("Dirac", 2)}) == 1
    # grids and configs are equal only to themselves, and hash as objects
    grid = GridSpec([[-1.0, 1.0]], 4)
    assert grid == grid and grid != GridSpec([[-1.0, 1.0]], 4)
    cfg = ExperimentConfig.from_dict(CONFIG)
    assert cfg == cfg and cfg != ExperimentConfig.from_dict(CONFIG)
    assert len({grid, cfg, cfg}) == 2
    # value records compare field by field; the mutable ones do not hash
    assert ModulusResult(0.5, 7) == ModulusResult(0.5, 7) != ModulusResult(0.5, 8)
    assert (ConditionReport(2, 2, 0.0, 1.0, ("c",))
            == ConditionReport(2, 2, 0.0, 1.0, ("c",)))
    rows = [LevelResult(1, 0.5), LevelResult(2, 0.25, ratio=1.0)]
    report = ExperimentReport("d", [1, 2], rows, -1.0, 0.0, {"grid": 64})
    assert report == ExperimentReport("d", [1, 2], [LevelResult(1, 0.5),
                                                    LevelResult(2, 0.25,
                                                                ratio=1.0)],
                                      -1.0, 0.0, {"grid": 64})
    assert rows[0] != rows[1]
    f = gaussian(2)
    assert f == f and f != gaussian(2)  # each build has its own spatial
    for value in (f, rows[0], report):
        with pytest.raises(TypeError):
            hash(value)


def test_report_to_dict_is_plain_data():
    rows = [LevelResult(1, 0.5, modulus=0.25, ratio=2.0)]
    report = ExperimentReport("abc", [1], rows, None, None,
                              {"grid": 64, "box": [[-1.0, 1.0]], "p": 2.0})
    d = report.to_dict()
    assert d == {"config_digest": "abc", "levels": [1],
                 "rows": [{"level": 1, "error": 0.5, "modulus": 0.25,
                           "best_approx": None, "ratio": 2.0}],
                 "rate": None, "rate_residual": None,
                 "provenance": {"grid": 64, "box": [[-1.0, 1.0]], "p": 2.0}}
    d["rows"][0]["error"] = 1.0
    d["levels"].append(2)
    assert rows[0].error == 0.5 and report.levels == [1]


def test_package_import_defers_conditions_and_cli():
    # a rates process needs neither the condition certificates nor the
    # command line, and no record class generates code at import
    root = Path(__file__).resolve().parent.parent
    code = """
import json, sys
import quasiproj, quasiproj.harness
watch = ("dataclasses", "quasiproj.conditions", "quasiproj.cli")
loaded = [m for m in watch if m in sys.modules]
need = ("quasiproj.quasiprojection", "quasiproj.analyzers",
        "quasiproj.quadrature", "quasiproj.smoothness", "quasiproj.harness")
missing = [m for m in need if m not in sys.modules]
quasiproj.strang_fix_order
print(json.dumps({"loaded": loaded, "missing": missing,
                  "conditions": "quasiproj.conditions" in sys.modules}))
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"loaded": [], "missing": [], "conditions": True}
