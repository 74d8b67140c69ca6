"""Hypergeometric series engine with jet-valued parameters.

Evaluates pFq series whose parameters carry truncated Taylor jets in a
formal perturbation, builds antiderivatives by parameter augmentation,
and computes definite integrals on [0, 1] and [0, oo) from closed-form
boundary values, all checked against an independent quadrature oracle.
"""

from .hyperize import CoeffStream, hypize, undo
from .hypseries import (
    ConvergenceError,
    DivergentError,
    LimitConditionError,
    PFQSpec,
    PrecisionLossError,
    SeriesError,
    TermOverflowError,
    eval_at_one,
    eval_series,
)
from .integrate import (
    AntiderivativeForm,
    IntegralResult,
    IntegrandSpec,
    antiderivative,
    antiderivative_log,
    definite_0_to_1,
    definite_0_to_inf,
    verify_ftc,
)
from .jets import Jet, as_jet, eps, extract
from .oracle import quad_finite, quad_halfline
from .transforms import catalog, catalog_names, verify_identity
from .verification import group_rows, report_lines, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Jet",
    "as_jet",
    "eps",
    "extract",
    "PFQSpec",
    "eval_series",
    "eval_at_one",
    "SeriesError",
    "DivergentError",
    "ConvergenceError",
    "TermOverflowError",
    "PrecisionLossError",
    "LimitConditionError",
    "CoeffStream",
    "hypize",
    "undo",
    "IntegrandSpec",
    "AntiderivativeForm",
    "IntegralResult",
    "antiderivative",
    "antiderivative_log",
    "definite_0_to_1",
    "definite_0_to_inf",
    "verify_ftc",
    "quad_finite",
    "quad_halfline",
    "catalog",
    "catalog_names",
    "verify_identity",
    "run_suite",
    "group_rows",
    "report_lines",
]
