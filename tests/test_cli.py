import json

from quasiproj.cli import main

GOOD = {
    "operator": {"generator": "BSplineTensor",
                 "generator_params": {"n": 2},
                 "analyzer": "BoxAverage",
                 "dilation": [[2.0]],
                 "dim": 1},
    "function": {"name": "gaussian"},
    "experiment": {"levels": [1, 2], "p": 2,
                   "box": [[-6.0, 6.0]], "grid": 128},
    "output": {"format": "json"},
}

RECONSTRUCT = {
    "operator": {"generator": "TensorSincPower",
                 "generator_params": {"n": 1, "a": 1.0},
                 "analyzer": "Dirac",
                 "dilation": [[2.0]],
                 "dim": 1},
    "function": {"name": "band_bump", "params": {"rho": 0.4}},
    "experiment": {"levels": [0], "p": 2,
                   "box": [[-4.0, 4.0]], "grid": 256},
    "output": {"format": "json"},
}


# the catalog entry a parameter name needs where GOOD's lacks it
TAKES = {"beta": ("operator", "analyzer", "DiracDerivative"),
         "a": ("operator", "generator", "TensorSincPower"),
         "s": ("operator", "generator", "BochnerRiesz"),
         "rho": ("function", "name", "band_bump")}


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_catalog_exits_zero(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "BSplineTensor" in out and "BoxAverage" in out


def test_check_command(tmp_path, capsys):
    assert main(["check", _write(tmp_path, GOOD)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["strang_fix"] == 2
    assert data["weak_compat"] == 2


def test_rates_command_writes_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["rates", _write(tmp_path, GOOD), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 2
    assert report["rate"] < -1.5


def test_approximate_level_override(tmp_path, capsys):
    assert main(["approximate", _write(tmp_path, GOOD), "--level", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["levels"] == [3]


def test_csv_output(tmp_path, capsys):
    data = json.loads(json.dumps(GOOD))
    data["output"]["format"] = "csv"
    assert main(["approximate", _write(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("level,error,")


def test_reconstruct_success(tmp_path, capsys):
    assert main(["reconstruct", _write(tmp_path, RECONSTRUCT)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["sup_error"] < 1e-8


def test_reconstruct_takes_one_level_exit_1(tmp_path, capsys):
    data = json.loads(json.dumps(RECONSTRUCT))
    data["experiment"]["levels"] = [0, 2]
    assert main(["reconstruct", _write(tmp_path, data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (captured.err.startswith("error:")
            and "experiment.levels" in captured.err)


def test_reconstruct_hypothesis_violation_exit_2(tmp_path):
    data = json.loads(json.dumps(RECONSTRUCT))
    data["function"]["params"]["rho"] = 0.7  # spectrum exceeds the band
    assert main(["reconstruct", _write(tmp_path, data)]) == 2


def test_bad_config_exit_1(tmp_path):
    assert main(["check", _write(tmp_path, {"operator": {}})]) == 1
    assert main(["check", str(tmp_path / "missing.json")]) == 1


def test_config_not_an_object_exit_1(tmp_path, capsys):
    for data, where in (([], "config"), ("x", "config"),
                        ({**GOOD, "operator": []}, "section 'operator'")):
        assert main(["rates", _write(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and \
            f"{where} must be a JSON object" in err


def test_malformed_config_values_exit_1(tmp_path, capsys):
    for sec, key, value, dim in (("experiment", "grid", "big", 1),
                                 ("experiment", "levels", [True, 2], 1),
                                 ("experiment", "box", [["a", 6.0]], 1),
                                 ("experiment", "box", [[-4.0]], 1),
                                 ("experiment", "box", 5, 1),
                                 ("experiment", "box", [[-4.0, 4.0]], 2),
                                 ("operator", "generator_params", {"n": "x"}, 1),
                                 ("operator", "generator_params", [1], 1),
                                 ("operator", "analyzer_params", 3, 1),
                                 ("function", "params", 3, 1),
                                 ("function", "params", {"sigma": 2}, 1),
                                 ("operator", "dim", 0, 0),
                                 ("operator", "dim", 4, 4),
                                 ("operator", "dilation", [["a"]], 1),
                                 ("operator", "dilation", [[2.0], [1.0, 2.0]], 1),
                                 ("operator", "dilation", [[0.0]], 1),
                                 ("operator", "dilation", [[0.5]], 1),
                                 ("operator", "dilation",
                                  [[2.0, 0.0], [0.0, 2.0]], 1),
                                 ("operator", "generator_params", {"n": 2.7}, 1),
                                 ("operator", "generator_params", {"n": True}, 1),
                                 ("operator", "dim", True, True),
                                 ("experiment", "grid", 256.5, 1),
                                 ("experiment", "p", 0, 1),
                                 ("experiment", "p", -1, 1),
                                 ("experiment", "p", 0.5, 1),
                                 ("experiment", "p", float("nan"), 1),
                                 ("experiment", "p", "two", 1),
                                 ("experiment", "p", True, 1),
                                 ("operator", "analyzer_params",
                                  {"beta": [1.5]}, 1),
                                 ("operator", "analyzer_params",
                                  {"beta": [True]}, 1),
                                 ("experiment", "modulus_order", "nan", 1),
                                 ("experiment", "modulus_order", "inf", 1),
                                 ("experiment", "modulus_order", -1, 1),
                                 ("experiment", "grid", 0, 1),
                                 ("experiment", "grid", 1, 1),
                                 ("experiment", "with_modulus", "false", 1),
                                 ("experiment", "with_best_approx", 1, 1),
                                 ("experiment", "levels", [3, 3], 1),
                                 ("operator", "generator_params",
                                  {"a": True}, 1),
                                 ("operator", "generator_params",
                                  {"s": True, "gamma": True}, 1),
                                 ("function", "params", {"rho": True}, 1)):
        data = json.loads(json.dumps(GOOD))
        data[sec][key] = value
        data["operator"]["dim"] = dim
        for name in value if isinstance(value, dict) else ():
            if name in TAKES:
                where, field, entry = TAKES[name]
                data[where][field] = entry
        assert main(["rates", _write(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{sec}.{key}" in err
