"""Coverage validation for confidence distributions and c-boxes.

Builds Singh plots (empirical CDFs of the confidence a structure requires
to cover the truth) by Monte Carlo simulation or exact enumeration, and
classifies structures as valid, overconfident, conservative, or favourable
against a distribution-free tolerance band.
"""

from .global_engine import ParameterGrid, global_singh
from .scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
)
from .singh_engine import (
    CoverageReport,
    SinghBand,
    SinghCurve,
    TargetSpec,
    UnsupportedTargetError,
    classify,
    dkw_epsilon,
    eval_curve,
    exact_singh_curve,
    singh_curve,
)
from .special_math import (
    DomainError,
    SeededStream,
    reg_inc_beta,
    student_t_cdf,
)
from .structures import DegenerateDataError, StructureSpec, chebyshev_ucl, evaluate_structure

__version__ = "0.1.0"

__all__ = [
    "CoverageReport",
    "DegenerateDataError",
    "DomainError",
    "ParameterGrid",
    "Scenario",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SeededStream",
    "SinghBand",
    "SinghCurve",
    "StructureSpec",
    "TargetSpec",
    "UnsupportedTargetError",
    "chebyshev_ucl",
    "classify",
    "dkw_epsilon",
    "eval_curve",
    "evaluate_structure",
    "exact_singh_curve",
    "global_singh",
    "parse_scenario",
    "reg_inc_beta",
    "singh_curve",
    "student_t_cdf",
    "__version__",
]
