from dataclasses import replace
from unittest import mock

import pytest

from singh_audit import global_engine, scenario as scenario_module
from singh_audit.global_engine import ParameterGrid, check_grid_args, global_singh
from singh_audit.presets import PRESETS
from singh_audit.runner import run_preset, run_scenario
from singh_audit.scenario import (
    OUTPUT_KINDS,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
)
from singh_audit.special_math import SeededStream

MINIMAL = """\
structure = clopper_pearson
target = bernoulli
theta0 = 0.4
n = 10
m = 10000
seed = 1
"""


def test_minimal_document():
    s = parse_scenario(MINIMAL)
    assert s.structure.kind == "clopper_pearson"
    assert s.target.family == "bernoulli"
    assert s.target.p == 0.4
    assert (s.n, s.m, s.seed) == (10, 10_000, 1)
    assert s.delta == 0.01
    assert s.outputs == frozenset(OUTPUT_KINDS)
    assert s.name == "scenario"
    assert not s.is_global


def test_defaults_for_optional_keys():
    s = parse_scenario("structure = jeffreys\ntarget = bernoulli\ntheta0 = 0.3\nn = 5\n")
    assert s.m == 10_000
    assert s.seed == 0


def test_comments_and_blank_lines():
    text = (
        "# a leading comment\n"
        "\n"
        "structure = jeffreys\n"
        "target = bernoulli   # trailing comment\n"
        "theta0 = 0.3\n"
        "n = 5\n"
    )
    assert parse_scenario(text).target.family == "bernoulli"


# --- parse errors carry line numbers ---


def test_unknown_key_reports_line():
    text = MINIMAL + "mystery = 1\n"
    with pytest.raises(ScenarioParseError, match="line 7: unknown key 'mystery'"):
        parse_scenario(text)


def test_duplicate_key_reports_line():
    text = MINIMAL + "n = 12\n"
    with pytest.raises(ScenarioParseError, match="line 7: duplicate key 'n'"):
        parse_scenario(text)


def test_missing_separator_reports_line():
    with pytest.raises(ScenarioParseError, match="line 2"):
        parse_scenario("structure = jeffreys\njust words\n")


def test_bad_value_reports_line():
    with pytest.raises(ScenarioParseError, match="line 4: invalid value 'ten'"):
        parse_scenario("structure = jeffreys\ntarget = bernoulli\ntheta0 = 0.3\nn = ten\n")


def test_malformed_list_value():
    text = (
        "structure = empirical_predictive\n"
        "target = gaussian_mixture\n"
        "weights = 0.5,,\n"
        "mus = 4,5\n"
        "sigmas = 3,1.5\n"
        "predict = true\n"
        "n = 10\n"
    )
    with pytest.raises(ScenarioParseError, match="line 3"):
        parse_scenario(text)


# --- validation errors name the violated rule ---


def fields(**overrides):
    base = dict(structure="clopper_pearson", target="bernoulli", theta0="0.4", n="10")
    base.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in base.items() if v is not None)


MIXTURE = dict(target="gaussian_mixture", theta0=None, weights="0.5,0.5", mus="4,5",
               sigmas="3,1.5")


def test_negative_c_message():
    with pytest.raises(ScenarioValidationError, match="c must be positive"):
        parse_scenario(fields(structure="scaled_cbox", c="-1"))


def test_infinite_c_message():
    with pytest.raises(ScenarioValidationError, match="c must be positive and finite"):
        parse_scenario(fields(structure="scaled_cbox", c="inf"))


@pytest.mark.parametrize(
    "doc, message",
    [
        (fields(structure=None), "structure is required"),
        (fields(target=None, theta0=None), "target is required"),
        (fields(n=None), "n is required"),
        (fields(structure="banana"), "unknown structure kind"),
        (fields(target="poisson", theta0=None), "unknown target"),
        (fields(theta0=None), "requires theta0"),
        (fields(mu="3"), "does not apply"),
        (fields(theta0="1.4"), "rate must lie"),
        (fields(n="0"), "needs n >= 1"),
        (fields(structure="chebyshev_ucl", target="scaled_bernoulli",
                theta0=None, p="0.2", mean="2", n="1"), "needs n >= 2"),
        (fields(m="0"), "m must be at least 1"),
        (fields(seed="-3"), "seed must be"),
        (fields(delta="1"), "delta must lie"),
        (fields(outputs="csv,png"), "unknown output kind"),
        (fields(predict="true"), "predict = true applies only"),
        (fields(structure="empirical_predictive"), "requires predict = true"),
        (fields(grid_lo="0", grid_hi="1"), "grid mode requires grid_k"),
        (fields(theta0=None, grid_lo="0", grid_hi="1", grid_k="0"), "grid_k must be"),
        (fields(theta0=None, grid_lo="0.9", grid_hi="0.1", grid_k="5"),
         "grid_lo must not exceed"),
        (fields(theta0=None, grid_lo="-0.5", grid_hi="1", grid_k="5"),
         "rate must lie"),
        (fields(structure="jeffreys", target="normal", theta0=None, mu="0", sigma="1"),
         "requires a bernoulli target"),
        (fields(target="scaled_bernoulli", theta0=None, p="0.2", mean="2"),
         "requires a bernoulli target"),
        (fields(structure="scaled_cbox", c="2", target="gaussian_mixture", theta0=None,
                weights="0.5,0.5", mus="4,5", sigmas="3,1.5"), "requires a bernoulli target"),
        (fields(structure="student_t_pivot", grid_lo="0", grid_hi="1", grid_k="3", **MIXTURE),
         "no truth parameter to sweep"),
    ],
)
def test_validation_messages(doc, message):
    with pytest.raises(ScenarioValidationError, match=message):
        parse_scenario(doc)


T_PIVOT = fields(structure="student_t_pivot", target="normal", theta0=None, mu="4", sigma="3")
BERNOULLI_GRID = fields(theta0=None, grid_lo="0", grid_hi="1", grid_k="5")


@pytest.mark.parametrize(
    "doc, overrides, message",
    [
        (fields(), dict(m=0), "m must be at least 1"),
        (fields(), dict(seed=2**64), "seed must be"),
        (fields(), dict(seed=-5), "seed must be"),
        (T_PIVOT, dict(n=200_001), "beyond the accurate range"),
        (fields(), dict(n=0), "needs n >= 1"),
        (fields(), dict(delta=0.0), "delta must lie"),
        (fields(), dict(outputs=frozenset({"png"})), "unknown output kind"),
        (fields(), dict(outputs=frozenset()), "at least one artifact"),
        (fields(structure="empirical_predictive", predict="true", **MIXTURE),
         dict(grid=ParameterGrid((4.0,))), "cannot use a parameter grid"),
        (fields(structure="student_t_pivot", **MIXTURE),
         dict(grid=ParameterGrid((4.0,))), "no truth parameter to sweep"),
        (BERNOULLI_GRID, dict(grid=ParameterGrid((1.5,))), "rate must lie"),
        (BERNOULLI_GRID, dict(grid=ParameterGrid((float("nan"),))), "rate must lie"),
    ],
    ids=["m", "seed-2^64", "seed-negative", "t-pivot-n", "n", "delta", "outputs-unknown",
         "outputs-empty", "predictive-grid", "mixture-grid", "grid-rate", "grid-nan"],
)
def test_replace_is_validated(doc, overrides, message):
    scenario = parse_scenario(doc)
    with pytest.raises(ScenarioValidationError, match=message):
        replace(scenario, **overrides)


def test_replace_keeps_a_valid_scenario():
    scenario = replace(parse_scenario(fields()), m=37, seed=2**64 - 1, outputs={"csv"})
    assert (scenario.m, scenario.seed) == (37, 2**64 - 1)
    assert scenario.outputs == frozenset({"csv"})


def test_grid_is_judged_by_its_values_not_its_bounds():
    # A one-point grid is its midpoint, a valid rate although grid_lo is not.
    s = parse_scenario(fields(theta0=None, grid_lo="-0.5", grid_hi="0.5", grid_k="1"))
    assert s.grid.thetas == (0.0,)


def test_grid_replaces_truth_key():
    s = parse_scenario(fields(theta0=None, grid_lo="0", grid_hi="1", grid_k="5"))
    assert s.is_global
    assert len(s.grid) == 5
    # truth key alongside a grid is an error
    with pytest.raises(ScenarioValidationError, match="does not apply"):
        parse_scenario(fields(grid_lo="0", grid_hi="1", grid_k="5"))


def test_mixture_cannot_be_swept():
    text = (
        "structure = empirical_predictive\n"
        "target = gaussian_mixture\n"
        "weights = 0.5,0.5\n"
        "mus = 4,5\n"
        "sigmas = 3,1.5\n"
        "predict = true\n"
        "n = 10\n"
        "grid_lo = 0\n"
        "grid_hi = 1\n"
        "grid_k = 5\n"
    )
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)


def test_scaled_bernoulli_grid_must_be_positive():
    text = (
        "structure = chebyshev_ucl\n"
        "target = scaled_bernoulli\n"
        "p = 0.2\n"
        "n = 5\n"
        "grid_lo = 0\n"
        "grid_hi = 2\n"
        "grid_k = 4\n"
    )
    with pytest.raises(ScenarioValidationError, match="must be positive"):
        parse_scenario(text)


def test_outputs_subset():
    s = parse_scenario(fields(outputs="csv,report"))
    assert s.outputs == frozenset({"csv", "report"})
    # blank entries are not silently dropped
    with pytest.raises(ScenarioValidationError, match="unknown output kind"):
        parse_scenario(fields(outputs=" , "))


# --- preset documents ---


def test_every_preset_document_parses():
    for preset in PRESETS.values():
        for doc in preset.documents:
            parse_scenario(doc)


def test_worst_case_sweep_preset_is_global():
    s = parse_scenario(PRESETS["fig8"].documents[0])
    assert s.is_global
    assert len(s.grid) == 100
    assert s.grid.thetas[0] == 0.0
    assert s.grid.thetas[-1] == 1.0
    assert s.m == 1000


def test_a_global_scenario_checks_its_grid_when_built_and_on_every_run(tmp_path):
    # Construction checks the grid and keeps nothing; every run checks it
    # again through global_singh, as any direct call does.
    calls = []

    def counted(*args):
        calls.append(args)
        return check_grid_args(*args)

    doc = fields(theta0=None, grid_lo="0.1", grid_hi="0.9", grid_k="5", m="50", outputs="csv")
    with mock.patch.object(scenario_module, "check_grid_args", counted), \
            mock.patch.object(global_engine, "check_grid_args", counted):
        s = parse_scenario(doc)
        assert len(calls) == 1
        run_scenario(s, tmp_path / "run")
        run_scenario(s, tmp_path / "again")
        assert len(calls) == 3
        global_singh(s.structure, s.target, s.grid, s.n, s.m, SeededStream(s.seed))
        assert len(calls) == 4
        replace(s, n=12)
        assert calls[-1] == (s.structure, s.target, s.grid, 12, s.m)
        calls.clear()
        run_preset("fig8", tmp_path / "fig8")
        assert len(calls) == 2 * len(PRESETS["fig8"].documents)
    assert not hasattr(s, "targets")


def test_mixture_preset_is_predictive():
    s = parse_scenario(PRESETS["fig4"].documents[0])
    assert s.structure.reads_next_draw
    assert s.target.weights == (0.5, 0.5)
    assert s.target.mus == (4.0, 5.0)
    assert s.target.sigmas == (3.0, 1.5)
