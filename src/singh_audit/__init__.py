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
    max_coverage_deficit,
    singh_curve,
)
from .special_math import (
    DomainError,
    SeededStream,
    reg_inc_beta,
    sample_bernoulli,
    sample_mixture,
    sample_normal,
    sample_scaled_bernoulli,
    student_t_cdf,
)
from .structures import (
    ConfidenceValue,
    Dataset,
    DegenerateDataError,
    StructureSpec,
    chebyshev_required_confidence,
    chebyshev_ucl,
    clopper_pearson,
    empirical_predictive,
    evaluate_structure,
    jeffreys,
    scaled_cbox,
    student_t_pivot,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageReport",
    "ConfidenceValue",
    "Dataset",
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
    "chebyshev_required_confidence",
    "chebyshev_ucl",
    "classify",
    "clopper_pearson",
    "dkw_epsilon",
    "empirical_predictive",
    "eval_curve",
    "evaluate_structure",
    "exact_singh_curve",
    "global_singh",
    "jeffreys",
    "max_coverage_deficit",
    "parse_scenario",
    "reg_inc_beta",
    "sample_bernoulli",
    "sample_mixture",
    "sample_normal",
    "sample_scaled_bernoulli",
    "scaled_cbox",
    "singh_curve",
    "student_t_cdf",
    "student_t_pivot",
    "__version__",
]
