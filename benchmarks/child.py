"""One benchmark run: a fresh process, as a `quasiproj rates` user pays for.

    python3 child.py SRC CONFIG MODE RUN_ID

SRC is the package source directory, CONFIG a JSON experiment config, MODE
``run`` or ``trace`` (run with layer spans).  Prints one JSON object with monotonic time marks, the emitted
report, CPU seconds, peak RSS and, in trace mode, the spans.  An exception
raised by the program is reported under ``error`` rather than as a crash, so
run.py can count it against the run's checks.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(argv):
    src, config_path, mode, run_id = argv[1], argv[2], argv[3], int(argv[4])
    sys.path.insert(0, src)
    import numpy
    import quasiproj
    from quasiproj import harness

    # never measure an installed copy instead of the checkout's source
    if not os.path.abspath(quasiproj.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise SystemExit(f"quasiproj imported from {quasiproj.__file__}, "
                         f"not from {src}")
    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.Recorder(run_id)
        recorder.install()

    out = {"t_config": time.monotonic()}
    cfg = harness.ExperimentConfig.from_file(config_path)
    harness.build_function(cfg)
    for level in cfg.levels:
        harness.build_operator(cfg, level)
    out["t_setup"] = time.monotonic()
    root = recorder.open(spans.ROOT) if recorder else None
    try:
        report = harness.run_experiment(cfg)
        out["report"] = harness.emit(report, "json")
    except Exception:
        out["error"] = traceback.format_exc()
    if recorder:
        recorder.close(root)
        out["spans"] = recorder.spans
    out["t_end"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["maxrss_kb"] = usage.ru_maxrss
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["versions"] = {"numpy": numpy.__version__,
                       "blas": f"{blas.get('name')} {blas.get('version')}"}
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
