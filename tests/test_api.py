import singh_audit

PUBLIC_NAMES = [
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


def test_package_exports_are_pinned():
    # Adding or removing a public name should be a deliberate edit here.
    assert singh_audit.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(singh_audit, name) is not None
