"""Quasi-projection operators with matrix dilations.

Numerical toolkit for building sampling-type approximation operators from a
synthesis generator, an analysis functional, and an expansive integer-like
dilation matrix; for measuring approximation error against moduli of
smoothness and best approximations; and for certifying the structural
conditions the error estimates require.
"""

from .analyzers import AnalysisFunctional, alpha_bound, analyze, make_analyzer
from .errors import (ConfigError, HypothesisViolated, InvalidParams,
                     NotExpansive, QuasiprojError, UnsupportedMatrix)
from .functions import TestFunction, band_bump, gaussian, hat_tensor, sinc_tensor
from .generators import make_generator
from .harness import (ExperimentConfig, ExperimentReport, emit, rate_fit,
                      reconstruction_check, run_experiment, two_sided_ratio)
from .lattice import DilationMatrix, make_dilation
from .quasiprojection import (OperatorSpec, error_lp, evaluate_spatial,
                              spectral_evaluator)
from .smoothness import (ModulusSpec, best_approx, fractional_difference,
                         fractional_laplacian, modulus)

__version__ = "0.1.0"

# the condition certificates load on first use (PEP 562): a rates sweep
# never calls them
_CONDITIONS = ("condition_report", "mikhlin_constant", "strang_fix_order",
               "strict_compat_radius", "weak_compat_order")


def __getattr__(name):
    if name in _CONDITIONS:
        from . import conditions
        return getattr(conditions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
