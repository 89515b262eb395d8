"""quasiproj benchmark: closed-loop level sweeps, one fresh process per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --make-references [--workload NAME]

Each workload in workloads.json is an experiment config.  The seed picks one
of a few jittered variants of it (box centre, and rho for band_bump) that do
the same work.  One client runs the variant over and over, each run a new
`python3 child.py` process that imports numpy and quasiproj from ``src/``,
loads the config, calls `harness.run_experiment` and `harness.emit`.  A run
is started only while it is expected to end within ``--seconds``.

With ``--trace 0`` the end-to-end metrics are medians over the runs:
``run_s`` (config load to emitted report), ``cpu_s`` and ``peak_rss_mb`` of
the run process, and ``setup_s`` (process start until imports, config and
operators are done).  With ``--trace 1`` runs alternate between untraced
and traced, and the per-layer metrics are medians over the traced runs of
each layer's self time and counts (see spans.py), plus ``trace.overhead_s``.

Every reported error, modulus, best approximation and ratio is compared with
references.json, and the error-rate slope, ratio spread and error signs with
the workload's invariants.  Each comparison is one check; ``failed_frac`` is
failed checks over attempted ones, and a run that raises fails all its
checks.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics.  A full record of the invocation is
written to ``benchmarks/results/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")
REFERENCES = os.path.join(HERE, "references.json")

DEADLINE_S = 170.0      # one invocation must end within 180 s
QUANTITIES = ("error", "modulus", "best_approx", "ratio")
END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for layer, counts in spans.COUNTS.items():
        out.append((f"{layer}.self_s", "s"))
        out.extend((f"{layer}.{c}", "count") for c in counts)
    out.append(("trace.overhead_s", "s"))
    return out


# -- inputs ----------------------------------------------------------------

def make_config(spec, name, seed):
    """(variant, config) for a seed; variant 0 is the unjittered config."""
    wl = spec["workloads"][name]
    variant = seed % spec["variants"]
    cfg = json.loads(json.dumps(wl["config"]))
    if variant:
        rng = random.Random(f"{name}:{variant}")
        # whole steps of box_step keep the work the same: on the compact
        # route a step maps lattice sites onto lattice sites
        step = wl["jitter"]["box_step"]
        n = round(wl["jitter"]["box_shift"] / step)
        cfg["experiment"]["box"] = [
            [lo + d, hi + d] for (lo, hi), d in
            zip(cfg["experiment"]["box"],
                [step * rng.randint(-n, n) for _ in cfg["experiment"]["box"]])]
        if "rho" in wl["jitter"]:
            r = wl["jitter"]["rho"]
            cfg["function"]["params"]["rho"] = round(
                cfg["function"]["params"]["rho"] + rng.uniform(-r, r), 6)
    return variant, cfg


def thread_env():
    # One BLAS thread: a second one mostly spins (cpu_s was 1.7x run_s with
    # two), and it ties the wall time of the dense mat-vecs to whether a
    # second core of a shared host happens to be free.
    nproc = len(os.sched_getaffinity(0))
    caps = {"QUASIPROJ_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env = dict(os.environ, PYTHONHASHSEED="0", **caps)
    env.pop("PYTHONPATH", None)
    return nproc, caps, env


def spawn(config_path, mode, run_id, env, deadline):
    """Run child.py once; returns (t_start, parsed output)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run could start")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, SRC, config_path, mode, str(run_id)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run {run_id} did not end within the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"run process exited with code {proc.returncode}")
    try:
        return t0, json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise BenchError(f"run process printed no result: {exc}") from exc


# -- correctness -----------------------------------------------------------

def finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and \
        math.isfinite(x)


def close(got, ref, rtol, atol):
    if ref is None or got is None:
        return got is None and ref is None
    return finite(got) and abs(got - ref) <= rtol * abs(ref) + atol


def fit_slope(levels, values):
    """Least-squares slope of log2(value) against level."""
    xs = [float(j) for j in levels]
    ys = [math.log2(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_report(report, ref_rows, invariants, rtol, atol):
    """[(check name, passed)] for one emitted report."""
    rows = {r["level"]: r for r in report["rows"]}
    out = []
    for ref in ref_rows or ():
        got = rows.get(ref["level"], {})
        for q in QUANTITIES:
            out.append((f"L{ref['level']}.{q}",
                        ref["level"] in rows and
                        close(got.get(q), ref[q], rtol, atol)))
    levels = sorted(rows)
    errs = [rows[j].get("error") for j in levels]
    positive = bool(errs) and all(finite(e) and e > 0 for e in errs)
    out.append(("errors_positive", positive))
    lo, hi = invariants["slope"]
    out.append(("rate_slope",
                positive and len(levels) >= 2 and
                lo <= fit_slope(levels, errs) <= hi))
    if "max_ratio_spread" in invariants:
        ratios = [rows[j].get("ratio") for j in levels]
        out.append(("ratio_spread",
                    bool(ratios) and all(finite(r) and r > 0 for r in ratios)
                    and max(ratios) / min(ratios)
                    <= invariants["max_ratio_spread"]))
    return out


def failed_run_checks(ref_rows, invariants):
    """Check count of a run that raised: all of them fail."""
    return len(ref_rows or ()) * len(QUANTITIES) + 2 + (
        "max_ratio_spread" in invariants)


# -- record ----------------------------------------------------------------

def src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_record(seed, variant, nproc, caps, versions):
    return {"commit": commit(), "src_digest": src_digest(), "seed": seed,
            "variant": variant, "nproc": nproc,
            "python": platform.python_version(), **versions,
            "thread_caps": caps}


# -- measurement -----------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "quasiproj", "harness.py")):
        raise BenchError(f"no quasiproj source under {SRC}")
    spec = load_json(os.path.join(HERE, "workloads.json"))
    if name not in spec["workloads"]:
        raise BenchError(f"unknown workload {name!r}")
    wl = spec["workloads"][name]
    variant, cfg = make_config(spec, name, seed)
    refs = load_json(REFERENCES) if os.path.isfile(REFERENCES) else {}
    ref_rows = refs.get(name, {}).get(str(variant))
    os.makedirs(WORK, exist_ok=True)
    config_path = os.path.join(WORK, f"{name}-v{variant}.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    nproc, caps, env = thread_env()

    start = time.monotonic()
    deadline = start + DEADLINE_S
    samples = {"run": [], "trace": []}
    e2e = {k: [] for k, _ in END_TO_END}
    layer_runs, all_spans, failures, versions = [], [], [], {}
    attempted = failed = 0
    last = 0.0
    while True:
        i = len(samples["run"]) + len(samples["trace"])
        if i >= (2 if trace else 1) and \
                time.monotonic() - start + last > seconds:
            break
        mode = ("run", "trace")[i % 2] if trace else "run"
        t0, out = spawn(config_path, mode, i, env, deadline)
        versions = out["versions"]
        run_s = out["t_end"] - out["t_config"]
        samples[mode].append(run_s)
        e2e["run_s"].append(run_s)
        e2e["cpu_s"].append(out["cpu_s"])
        e2e["setup_s"].append(out["t_setup"] - t0)
        e2e["peak_rss_mb"].append(out["maxrss_kb"] / 1024.0)
        try:
            checks = check_report(json.loads(out["report"]), ref_rows,
                                  wl["invariants"], spec["rtol"], spec["atol"])
        except (KeyError, TypeError, ValueError, AttributeError):
            # the run raised, or emitted something that is not a report
            n = failed_run_checks(ref_rows, wl["invariants"])
            attempted += n
            failed += n
            error = out.get("error") or "malformed report"
            failures.append({"run": i, "error": error})
            print(error, file=sys.stderr)
        else:
            attempted += len(checks)
            bad = [c for c, ok in checks if not ok]
            failed += len(bad)
            if bad:
                failures.append({"run": i, "checks": bad})
        if mode == "trace":
            layer_runs.append(spans.layer_totals(out["spans"]))
            all_spans.extend(out["spans"])
        last = time.monotonic() - t0

    if trace:
        metrics, notes = layer_metrics(name, wl, layer_runs, samples)
    else:
        metrics = {k: {"value": statistics.median(e2e[k]), "unit": unit}
                   for k, unit in END_TO_END}
        notes = [f"{name}  {k:<12} {statistics.median(v):.6g} {unit}  "
                 f"(median of {len(v)}; quartiles "
                 f"{quartiles(v)[0]:.6g}..{quartiles(v)[1]:.6g})"
                 for (k, unit), v in ((ku, e2e[ku[0]]) for ku in END_TO_END)]
    notes.append(f"{name}  failed_frac  {failed / max(attempted, 1):.6g} "
                 f"(failed {failed} of {attempted} checks; references "
                 f"{'found' if ref_rows else 'missing'} for variant {variant})")

    record = {"workload": name, "trace": trace, "seconds": seconds,
              "config": cfg, "started": time.time(),
              "record": run_record(seed, variant, nproc, caps, versions),
              "samples": {"run_s_untraced": samples["run"],
                          "run_s_traced": samples["trace"], **e2e},
              "layer_runs": layer_runs, "failures": failures,
              "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "start", "end",
                                  "run", "counts"], "spans": all_spans}, fh)
    for line in notes:
        print(line)
    print(json.dumps({"correct": failed == 0 and ref_rows is not None,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def layer_metrics(name, wl, layer_runs, samples):
    """Per-layer medians over traced runs; fails if an expected layer is idle."""
    idle = [layer for layer in wl["expected_layers"]
            if any(run.get(layer, {}).get("calls", 0) == 0
                   for run in layer_runs)]
    if idle:
        raise BenchError(f"{name}: expected layers recorded no calls: {idle}")
    metrics = {}
    for metric, unit in per_layer_metrics()[:-1]:
        layer, key = metric.rsplit(".", 1)
        values = [run.get(layer, {}).get(key, 0) for run in layer_runs]
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
    overhead = (statistics.median(samples["trace"]) -
                statistics.median(samples["run"]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    traced = statistics.median(samples["trace"])
    ranked = sorted(((metrics[f"{layer}.self_s"]["value"], layer)
                     for layer in spans.COUNTS), reverse=True)
    top, predicted = ranked[0][1], wl["predicted_dominant"]
    verdict = ("confirmed" if top == predicted else
               f"measured {top} in place of {predicted}")
    # spans nest, so a layer that calls the dominant one holds it inside
    inclusive = statistics.median(
        run.get(predicted, {}).get("wall_s", 0.0) for run in layer_runs)
    notes = [f"{name}  {metric:<28} {m['value']:.6g} {m['unit']}"
             for metric, m in metrics.items()]
    notes.append(f"{name}  dominant layer by self time: {verdict}; " +
                 ", ".join(f"{layer} {t / traced:.0%}"
                           for t, layer in ranked[:3]) +
                 f" of traced run_s {traced:.4g} s; {predicted} including "
                 f"its callees {inclusive / traced:.0%} "
                 f"({len(samples['trace'])} traced runs)")
    return metrics, notes


def make_references(only=None):
    """Store every variant's report rows as the reference for later runs;
    with `only`, redo that workload and keep the others' references."""
    spec = load_json(os.path.join(HERE, "workloads.json"))
    if only is not None and only not in spec["workloads"]:
        raise BenchError(f"unknown workload {only!r}")
    _, _, env = thread_env()
    os.makedirs(WORK, exist_ok=True)
    refs = load_json(REFERENCES) if only and os.path.isfile(REFERENCES) else {}
    if refs and refs.get("src_digest") != src_digest():
        raise BenchError("src/ changed since references.json was made; "
                         "rebuild every workload's references")
    for name in [only] if only else spec["workloads"]:
        refs.pop(name, None)
        for variant in range(spec["variants"]):
            _, cfg = make_config(spec, name, variant)
            path = os.path.join(WORK, f"{name}-v{variant}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh, indent=1, sort_keys=True)
            _, out = spawn(path, "run", 0, env, time.monotonic() + 600)
            if "error" in out:
                raise BenchError(f"{name} variant {variant}:\n{out['error']}")
            rows = json.loads(out["report"])["rows"]
            refs.setdefault(name, {})[str(variant)] = rows
            bad = [c for c, ok in check_report({"rows": rows}, rows,
                                               spec["workloads"][name]["invariants"],
                                               spec["rtol"], spec["atol"])
                   if not ok]
            if bad:
                raise BenchError(f"{name} variant {variant} breaks {bad}")
            print(f"{name} variant {variant}: {len(rows)} levels in "
                  f"{out['t_end'] - out['t_config']:.2f} s", flush=True)
    refs["src_digest"] = src_digest()
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-references", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.make_references:
            make_references(args.workload)
        elif args.workload:
            measure(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            ap.error("--workload or --make-references is required")
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
