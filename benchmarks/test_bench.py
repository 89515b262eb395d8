"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest benchmarks/test_bench.py
"""

import json
import os

import pytest

import run
import spans


def _span(sid, parent, layer, start, end, counts=None):
    return [sid, parent, layer, start, end, 0, counts]


def test_self_time_subtracts_child_durations():
    # run [0, 10] > error_lp [1, 9] > grid_transform [2, 5] > signal_eval [3, 4]
    #                               > signal_eval [5.5, 7]
    tree = [
        _span(3, 2, "signal_eval", 3.0, 4.0, {"points": 5}),
        _span(2, 1, "grid_transform", 2.0, 5.0, {"points": 7}),
        _span(4, 1, "signal_eval", 5.5, 7.0, {"points": 2}),
        _span(1, 0, "error_lp", 1.0, 9.0),
        _span(0, None, "run", 0.0, 10.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 2.0, 1: 3.5, 2: 2.0, 3: 1.0, 4: 1.5})
    totals = spans.layer_totals(tree)
    assert totals["signal_eval"] == pytest.approx(
        {"self_s": 2.5, "wall_s": 2.5, "calls": 2, "points": 7})
    assert totals["error_lp"]["wall_s"] == pytest.approx(8.0)
    assert totals["grid_transform"]["points"] == 7
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def _report(rows):
    return {"rows": rows}


ROWS = [
    {"level": 2, "error": 1.2e-2, "modulus": 0.25, "best_approx": 9.7e-7,
     "ratio": 0.046},
    {"level": 3, "error": 3.0e-3, "modulus": 0.068, "best_approx": 6.7e-89,
     "ratio": 0.044},
]
INVARIANTS = {"slope": [-2.2, -1.8], "max_ratio_spread": 10.0}


def _failed(report, refs=ROWS):
    return [c for c, ok in run.check_report(report, refs, INVARIANTS,
                                            1e-7, 1e-12) if not ok]


def test_reference_report_passes_every_check():
    checks = run.check_report(_report(ROWS), ROWS, INVARIANTS, 1e-7, 1e-12)
    assert len(checks) == 2 * len(run.QUANTITIES) + 3
    assert all(ok for _, ok in checks)


def test_perturbed_value_is_counted_as_a_failure():
    rows = json.loads(json.dumps(ROWS))
    rows[1]["modulus"] *= 1 + 1e-5
    assert _failed(_report(rows)) == ["L3.modulus"]


def test_absolute_floor_covers_vanishing_best_approximations():
    rows = json.loads(json.dumps(ROWS))
    rows[1]["best_approx"] = 0.0          # reference is 6.7e-89
    assert _failed(_report(rows)) == []
    rows[1]["best_approx"] = 1e-9         # above the floor
    assert _failed(_report(rows)) == ["L3.best_approx"]


def test_missing_level_and_invariants_fail():
    assert "L3.error" in _failed(_report(ROWS[:1]))
    rows = json.loads(json.dumps(ROWS))
    rows[1]["error"] = rows[0]["error"]   # no decay: slope 0
    assert {"L3.error", "rate_slope"} <= set(_failed(_report(rows)))
    rows[1]["error"] = float("nan")
    assert "errors_positive" in _failed(_report(rows))


def test_malformed_values_fail_without_crashing():
    rows = json.loads(json.dumps(ROWS))
    rows[0]["error"] = "nan"
    rows[1]["ratio"] = None
    assert {"L2.error", "L3.ratio", "errors_positive", "rate_slope",
            "ratio_spread"} <= set(_failed(_report(rows)))
    assert len(_failed(_report([]))) == len(
        run.check_report(_report(ROWS), ROWS, INVARIANTS, 1e-7, 1e-12))


def test_failed_run_counts_every_check():
    assert run.failed_run_checks(ROWS, INVARIANTS) == len(
        run.check_report(_report(ROWS), ROWS, INVARIANTS, 1e-7, 1e-12))


def test_jitter_depends_on_seed_only():
    spec = run.load_json(os.path.join(run.HERE, "workloads.json"))
    for name in spec["workloads"]:
        v0, base = run.make_config(spec, name, 0)
        assert v0 == 0 and base == spec["workloads"][name]["config"]
        a = run.make_config(spec, name, 3)
        assert a == run.make_config(spec, name, 3 + spec["variants"])
        assert a[1]["experiment"]["grid"] == base["experiment"]["grid"]
        width = [hi - lo for lo, hi in a[1]["experiment"]["box"]]
        assert width == [hi - lo for lo, hi in base["experiment"]["box"]]


def test_references_cover_every_variant():
    spec = run.load_json(os.path.join(run.HERE, "workloads.json"))
    refs = run.load_json(run.REFERENCES)
    for name, wl in spec["workloads"].items():
        levels = wl["config"]["experiment"]["levels"]
        for v in range(spec["variants"]):
            assert [r["level"] for r in refs[name][str(v)]] == levels


def test_benchmark_json_matches_run_py():
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    spec = run.load_json(os.path.join(run.HERE, "workloads.json"))
    assert {w["name"] for w in bench["workloads"]} <= set(spec["workloads"])
    assert [m["name"] for m in bench["end_to_end"]] == [
        k for k, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        run.per_layer_metrics()
