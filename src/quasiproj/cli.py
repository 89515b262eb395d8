"""Command line entry point.

Subcommands:
  check        structural condition certificates for an operator config
  approximate  single-level operator application and error norm
  rates        level sweep with a log2 rate fit
  reconstruct  exact-recovery certificate for band-limited signals
  catalog      list available generators, analyzers, and test signals

Exit codes: 0 on success, 2 when a reconstruction hypothesis is violated,
1 on any other error.
"""

import argparse
import sys

import numpy as np

from . import analyzers, functions, generators
from .errors import ConfigError, HypothesisViolated, QuasiprojError
from .harness import (ExperimentConfig, build_operator, emit,
                      reconstruction_check, run_experiment)


def _add_config_arg(sub):
    sub.add_argument("config", help="path to a JSON experiment config")
    sub.add_argument("--output", "-o", help="write the report here instead of stdout")


def build_parser():
    ap = argparse.ArgumentParser(prog="quasiproj",
                                 description="quasi-projection operator toolkit")
    subs = ap.add_subparsers(dest="command", required=True)

    _add_config_arg(subs.add_parser("check", help="condition certificates"))

    p = subs.add_parser("approximate", help="one-level error computation")
    _add_config_arg(p)
    p.add_argument("--level", type=int, help="override: use only this level")

    _add_config_arg(subs.add_parser("rates", help="level sweep and rate fit"))

    p = subs.add_parser("reconstruct", help="band-limited recovery check")
    _add_config_arg(p)

    subs.add_parser("catalog", help="list catalog entries")
    return ap


def _write(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _catalog_text() -> str:
    lines = ["generators:"]
    lines += [f"  {k}" for k in generators.KINDS]
    lines.append("analyzers:")
    lines += [f"  {k}" for k in analyzers.KINDS]
    lines.append("functions:")
    lines += [f"  {k}" for k in functions.SIGNALS]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            _write(_catalog_text(), None)
            return 0
        cfg = ExperimentConfig.from_file(args.config)
        if args.command == "check":
            from .conditions import condition_report  # loaded on first use
            _write(emit(condition_report(cfg.generator, cfg.analyzer)),
                   args.output)
            return 0
        if args.command in ("approximate", "rates"):
            if getattr(args, "level", None) is not None:
                data = dict(cfg.raw)
                data["experiment"] = dict(data.get("experiment", {}))
                data["experiment"]["levels"] = [args.level]
                cfg = ExperimentConfig.from_dict(data)
            _write(emit(run_experiment(cfg), cfg.output_format), args.output)
            return 0
        if args.command == "reconstruct":
            if len(cfg.levels) != 1:
                raise ConfigError("reconstruct checks one level: "
                                  "experiment.levels must list one, got "
                                  f"{list(cfg.levels)}")
            spec = build_operator(cfg, cfg.levels[0])
            _write(emit(reconstruction_check(
                spec, cfg.function, np.asarray(cfg.box, dtype=float),
                cfg.grid)), args.output)
            return 0
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except (QuasiprojError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
