"""Experiment orchestration: configs, level sweeps, rate fits, and reports.

A report is a dict of plain JSON data, and `emit` serializes every one.
Reports are deterministic by construction (sorted JSON keys, repr floats,
and a config hash in the provenance block), so byte-identical reruns are a
testable invariant rather than an aspiration.
"""

import io
import json

import numpy as np

from . import analyzers, functions, generators
from .analyzers import AnalysisFunctional, make_analyzer
from .errors import (ConfigError, HypothesisViolated, InvalidParams,
                     NonPositiveValue, NotExpansive, Singular)
from .functions import TestFunction
from .generators import as_int, make_generator
from .lattice import MAX_DIM, DilationMatrix, make_dilation, map_box
from .quadrature import as_box
from .quasiprojection import (OperatorSpec, error_lp, evaluate_grid_compact,
                              evaluate_spatial, spectral_evaluator)
from .records import Frozen
from .smoothness import ModulusSpec, best_approx, modulus

# The interpreter's builtin SHA-256, the module hashlib falls back to:
# hashlib itself imports _hashlib, which maps OpenSSL into the process.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


# -- configuration -----------------------------------------------------------

class ExperimentConfig(Frozen):
    """A validated experiment: the catalog objects that fix the operator up
    to its level, built once by `from_dict`, and the sweep to run.
    Immutable; equal only to itself."""

    def __init__(self, generator: TestFunction, analyzer: AnalysisFunctional,
                 dilation: DilationMatrix, function: TestFunction,
                 levels: tuple, p: float, box: tuple, grid: int,
                 modulus_order: float, with_modulus: bool,
                 with_best_approx: bool, output_format: str,
                 raw: dict | None = None):
        vars(self).update(
            generator=generator, analyzer=analyzer, dilation=dilation,
            function=function, levels=levels, p=p, box=box, grid=grid,
            modulus_order=modulus_order, with_modulus=with_modulus,
            with_best_approx=with_best_approx, output_format=output_format,
            raw={} if raw is None else raw)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        def need(section, key, default=None, kind=None):
            if section not in data:
                raise ConfigError(f"missing config section {section!r}")
            sec = data[section]
            if not isinstance(sec, dict):
                raise ConfigError(f"config section {section!r} must be a JSON "
                                  f"object, got {sec!r}")
            if default is None and key not in sec:
                raise ConfigError(f"missing config field {section}.{key}")
            value = sec.get(key, default)
            try:
                return value if kind is None else kind(value)
            except (TypeError, ValueError):
                what = {as_int: "an integer",
                        _exponent: 'a number >= 1 or "inf"',
                        _order: "a finite number > 0",
                        _flag: "true or false"}.get(kind, "a number")
                raise ConfigError(f"config field {section}.{key} must be "
                                  f"{what}, got {value!r}") from None

        def choice(sec, key, kinds):
            value = need(sec, key)
            if value not in tuple(kinds):
                raise ConfigError(f"config field {sec}.{key} must be one of "
                                  f"{tuple(kinds)}, got {value!r}")
            return value

        def build(sec, key, make):
            """The catalog object make builds from a parameter section, which
            must be a JSON object."""
            value = need(sec, key, {})
            if not isinstance(value, dict):
                raise ConfigError(f"config field {sec}.{key} must be a JSON "
                                  f"object, got {value!r}")
            try:
                return make(value)
            # make_analyzer takes its parameters as keywords (an unknown one
            # is a TypeError); a signal may reject a value with a ValueError
            except (InvalidParams, TypeError, ValueError) as exc:
                raise ConfigError(f"config field {sec}.{key}: {exc}") from None

        def expansive(value):
            """operator.dilation as a dim x dim DilationMatrix; a number is
            the 1 x 1 matrix."""
            try:
                M = make_dilation(np.atleast_2d(np.asarray(value, dtype=float)))
            except (NotExpansive, Singular, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"config field operator.dilation: {exc}") from None
            if M.dim != dim:
                raise ConfigError(f"config field operator.dilation must be "
                                  f"{dim} x {dim}, got {value!r}")
            return M

        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
        dim = need("operator", "dim", 1, as_int)
        if not 1 <= dim <= MAX_DIM:
            raise ConfigError(f"config field operator.dim must be in "
                              f"1..{MAX_DIM}, got {dim}")
        gen = choice("operator", "generator", generators.KINDS)
        ana = choice("operator", "analyzer", analyzers.KINDS)
        name = choice("function", "name", functions.SIGNALS)
        dil = need("operator", "dilation")
        levels = need("experiment", "levels")
        if not (isinstance(levels, list) and levels and
                all(isinstance(j, int) and not isinstance(j, bool) and j >= 0
                    for j in levels) and len(set(levels)) == len(levels)):
            raise ConfigError("experiment.levels must be a nonempty list of "
                              f"distinct nonnegative integers, got {levels!r}")
        p = need("experiment", "p", 2, _exponent)
        grid = need("experiment", "grid", 2048 if dim == 1 else 256, as_int)
        if grid < 2:
            raise ConfigError(f"config field experiment.grid must be >= 2, got {grid}")
        fmt = need("output", "format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"output.format must be json or csv, got {fmt!r}")
        return ExperimentConfig(
            generator=build("operator", "generator_params",
                            lambda v: make_generator(gen, v, dim)),
            analyzer=build("operator", "analyzer_params",
                           lambda v: make_analyzer(ana, dim, **v)),
            function=build("function", "params",
                           lambda v: functions.get(name, dim, **v)),
            box=_box(need("experiment", "box", [[-8.0, 8.0]] * dim), dim),
            dilation=expansive(dil),
            levels=tuple(levels),
            p=p,
            grid=grid,
            modulus_order=need("experiment", "modulus_order", 2, _order),
            with_modulus=need("experiment", "with_modulus", False, _flag),
            with_best_approx=need("experiment", "with_best_approx", False, _flag),
            output_format=fmt,
            raw=data,
        )

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(data)

    def digest(self) -> str:
        """The first 16 hex digits of the SHA-256 of the config JSON with
        sorted keys."""
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return sha256(blob).hexdigest()[:16]


def _exponent(value) -> float:
    """experiment.p: "inf" (or "Inf") or a number p >= 1; a bool, NaN or
    p < 1 is a ValueError."""
    if value in ("inf", "Inf"):
        return np.inf
    p = float(value)
    if isinstance(value, bool) or not p >= 1.0:
        raise ValueError(value)
    return p


def _order(value) -> float:
    """experiment.modulus_order: a finite number > 0, not a bool."""
    if isinstance(value, bool) or not 0 < float(value) < np.inf:
        raise ValueError(value)
    return float(value)


def _flag(value) -> bool:
    """A JSON boolean: not the string "false", not 0 or 1."""
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def _box(value, dim):
    """experiment.box as dim rows of finite (lo, hi) with lo < hi."""
    try:
        return tuple(tuple(row) for row in
                     as_box(value, dim, "experiment.box").tolist())
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from None


def build_operator(cfg: ExperimentConfig, level: int) -> OperatorSpec:
    return OperatorSpec(cfg.generator, cfg.analyzer, cfg.dilation, level)


def build_function(cfg: ExperimentConfig):
    return cfg.function


# -- fits and ratio diagnostics ---------------------------------------------

def rate_fit(levels, values):
    """Least-squares slope of log2(value) against the level, with the worst
    residual; rates are only meaningful for strictly positive values.

    With x and y the levels and the log2 values less their means, the slope
    is sum(x y) / sum(x^2) and the residual max |y - slope x|."""
    levels = np.asarray(levels, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(set(levels.tolist())) < 2:
        raise InvalidParams("rate fit needs at least two distinct levels")
    if np.any(values <= 0):
        raise NonPositiveValue("rate fit needs strictly positive values")
    x = levels - levels.mean()
    y = np.log2(values)
    y -= y.mean()
    slope = float(x @ y / (x @ x))
    return slope, float(np.max(np.abs(y - slope * x)))


def two_sided_ratio(errors, references):
    """(min, max) of error/reference across levels; bounded spread is the
    empirical signature of matching upper and lower estimates."""
    e = np.asarray(errors, dtype=float)
    r = np.asarray(references, dtype=float)
    if np.any(r <= 0):
        raise NonPositiveValue("reference values must be positive")
    q = e / r
    return float(np.min(q)), float(np.max(q))


# -- operator application ---------------------------------------------------

def apply_operator(spec: OperatorSpec, f):
    """Pick the evaluation route for one operator/signal pair.

    Compact spatial support takes the direct summation route; band-limited
    generators with profile-backed signals take the spectral route.  The
    callable takes a `GridSpec` (see `error_lp`).
    """
    if spec.generator.spatial_support is not None:
        return lambda g: evaluate_grid_compact(spec, f, g.points)
    if (spec.generator.fourier_support is not None
            and f.fourier_support is not None):
        return spectral_evaluator(spec, f)
    raise InvalidParams(
        "no evaluation route: need compact spatial support or band-limited "
        "generator with a profile-backed signal")


# -- experiment driver -------------------------------------------------------

def _level_row(cfg: ExperimentConfig, level: int) -> dict:
    """One report row: the error at a level, and its modulus, best
    approximation and error/modulus ratio where asked for, else None."""
    f = cfg.function
    spec = build_operator(cfg, level)
    approx = apply_operator(spec, f)
    box = np.asarray(cfg.box, dtype=float)
    err = error_lp(f, approx, cfg.p, box, cfg.grid)
    row = {"level": level, "error": err, "modulus": None, "best_approx": None,
           "ratio": None}
    if cfg.with_modulus:
        mspec = ModulusSpec(order=cfg.modulus_order,
                            matrix=spec.dilation.power(-level), p=cfg.p)
        row["modulus"] = modulus(f, mspec, box, cfg.grid).value
        if row["modulus"] > 0:
            row["ratio"] = err / row["modulus"]
    if cfg.with_best_approx:
        row["best_approx"] = best_approx(
            f, spec.dilation.power(level), cfg.p, box, cfg.grid)
    return row


def run_experiment(cfg: ExperimentConfig) -> dict:
    """The report of a level sweep: its rows, the rate fit of the errors
    (None unless two or more levels all have an error > 0) and provenance."""
    rows = [_level_row(cfg, j) for j in cfg.levels]
    rate = residual = None
    errs = [r["error"] for r in rows]
    if len(rows) >= 2 and all(e > 0 for e in errs):
        rate, residual = rate_fit(list(cfg.levels), errs)
    return {"config_digest": cfg.digest(), "levels": list(cfg.levels),
            "rows": rows, "rate": rate, "rate_residual": residual,
            "provenance": {"grid": cfg.grid,
                           "box": [list(b) for b in cfg.box],
                           "p": "inf" if cfg.p == np.inf else cfg.p}}


# -- band-limited reconstruction check --------------------------------------

RADIUS_LADDER = (8, 16, 32)


def reconstruction_check(spec: OperatorSpec, f, box, grid: int):
    """Exact-recovery certificate for band-limited signals.

    Hypotheses checked before any evaluation: the generator/analyzer pair
    must satisfy the strict compatibility identity on some dyadic box, and
    the dilated box must contain the signal's spectrum.  Violations raise
    HypothesisViolated.  Returns the spectral sup error on the grid
    (`error_lp` at p = inf) and the spatial truncated-sum errors along the
    radius ladder.
    """
    from .conditions import strict_compat_radius
    delta = strict_compat_radius(spec.generator, spec.analyzer)
    if delta == 0.0:
        raise HypothesisViolated(
            "generator/analyzer pair fails the compatibility identity on "
            "every dyadic spectral box")
    if f.fourier_support is None:
        raise HypothesisViolated(f"{f.name} has no declared spectrum box")
    back = map_box(spec.dilation.adjoint_power(-spec.level),
                   f.fourier_support)
    if np.max(np.abs(back)) >= 0.5 * delta:
        raise HypothesisViolated(
            f"signal spectrum exceeds the level-{spec.level} box scaled by "
            f"delta={delta:g}")
    box = np.asarray(box, dtype=float)
    sup_err = error_lp(f, spectral_evaluator(spec, f), np.inf, box, grid)
    probe = 0.25 * (box[:, 0] + 3 * box[:, 1])[None, :]  # off-center probe
    exact = complex(np.asarray(f.spatial(probe), dtype=complex)[0])
    sums = evaluate_spatial(spec, f, probe, RADIUS_LADDER)[:, 0]
    ladder = [{"radius": radius, "error": float(abs(value - exact))}
              for radius, value in zip(RADIUS_LADDER, sums)]
    return {"delta": delta, "sup_error": sup_err, "truncation": ladder}


# -- emission ----------------------------------------------------------------

def _csv_text(report: dict) -> str:
    """A sweep report as CSV: one line a row, each repeating the rate fit."""
    import csv  # only CSV reports pay for loading it
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    head = ["level", "error", "modulus", "best_approx", "ratio", "rate",
            "rate_residual"]
    w.writerow(head)
    for r in report["rows"]:
        r = {**r, "rate": report["rate"],
             "rate_residual": report["rate_residual"]}
        w.writerow(["" if r[k] is None else repr(r[k]) for k in head])
    return buf.getvalue()


def emit(report: dict, fmt: str = "json") -> str:
    """Any report (a sweep, `condition_report` or `reconstruction_check`) as
    sorted-key JSON, a sweep also as CSV; equal reports give equal bytes."""
    if fmt == "csv":
        if "rows" not in report:
            raise InvalidParams("CSV is for sweep reports; emit this report "
                                "as JSON")
        return _csv_text(report)
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    raise InvalidParams(f"unknown output format {fmt!r}")
