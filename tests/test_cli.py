import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singh_audit.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from singh_audit.presets import PRESETS
from singh_audit.runner import run_preset, run_scenario
from singh_audit.scenario import ScenarioValidationError, parse_scenario

DOC = """\
name = demo run
structure = clopper_pearson
target = bernoulli
theta0 = 0.4
n = 10
m = 80
seed = 5
"""


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "demo.singh"
    path.write_text(DOC, encoding="utf-8")
    return path


# --- runner ---


def test_run_scenario_writes_all_artifacts(tmp_path):
    written = run_scenario(parse_scenario(DOC), tmp_path / "out")
    names = sorted(p.name for p in written)
    assert names == ["demo_run.csv", "demo_run.json", "demo_run.svg"]
    assert all(p.exists() for p in written)


def test_run_scenario_format_override_keeps_report(tmp_path):
    written = run_scenario(parse_scenario(DOC), tmp_path, fmt="csv")
    names = sorted(p.name for p in written)
    assert names == ["demo_run.csv", "demo_run.json"]


def test_run_scenario_respects_outputs_key(tmp_path):
    doc = DOC + "outputs = report\n"
    written = run_scenario(parse_scenario(doc), tmp_path)
    assert [p.name for p in written] == ["demo_run.json"]


def test_run_preset_replicate_override(tmp_path):
    written = run_preset("fig2", tmp_path, replicates=60)
    report = json.loads((tmp_path / "fig2.json").read_text())
    assert report["m"] == 60
    assert sorted(p.name for p in written) == ["fig2.csv", "fig2.json", "fig2.svg"]


def test_run_preset_checks_the_override_before_writing(tmp_path):
    with pytest.raises(ScenarioValidationError, match="m must be at least 1"):
        run_preset("fig1", tmp_path / "out", replicates=0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_runs_reduced(tmp_path, name):
    preset = PRESETS[name]
    written = run_preset(name, tmp_path, replicates=150)
    expected = 2 * len(preset.documents) + len(preset.plots)
    assert len(written) == expected
    assert all(p.exists() for p in written)
    for stem, _ in preset.plots:
        assert (tmp_path / f"{stem}.svg").exists()


def test_sweep_preset_plots_one_overlay(tmp_path):
    run_preset("fig7", tmp_path, replicates=100)
    svg = (tmp_path / "fig7.svg").read_text()
    for label in ("fig7_c05", "fig7_c1", "fig7_c3"):
        assert f">{label}</text>" in svg


# --- command line ---


def test_cli_run_ok(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert all((out / line.rsplit("/", 1)[-1]).exists() for line in printed)


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.singh"
    path.write_text("structure clopper_pearson\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_PARSE
    assert "parse error: line 1" in capsys.readouterr().err


def test_cli_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.singh"
    path.write_text(DOC.replace("structure = clopper_pearson", "structure = scaled_cbox\nc = -1"))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "c must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights, mus, sigmas",
    [("0.5,0.5", "4,5,6", "3,1.5"), ("-0.5,1.5", "4,5", "3,1.5"), ("0.5,0.5", "4,5", "3,0")],
)
def test_cli_bad_mixture_is_a_validation_error(tmp_path, capsys, weights, mus, sigmas):
    path = tmp_path / "mix.singh"
    path.write_text(
        "structure = empirical_predictive\ntarget = gaussian_mixture\npredict = true\n"
        f"weights = {weights}\nmus = {mus}\nsigmas = {sigmas}\nn = 10\nm = 20\n"
    )
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("structure, target", [
    ("jeffreys", "normal\nmu = 0\nsigma = 1"),
    ("clopper_pearson", "scaled_bernoulli\np = 0.2\nmean = 2"),
    ("scaled_cbox\nc = 2", "gaussian_mixture\nweights = 0.5,0.5\nmus = 4,5\nsigmas = 3,1.5"),
], ids=["jeffreys_normal", "clopper_pearson_scaled_bernoulli", "scaled_cbox_mixture"])
def test_cli_count_structure_on_other_targets_is_a_validation_error(
    tmp_path, capsys, structure, target
):
    path = tmp_path / "mismatch.singh"
    path.write_text(f"structure = {structure}\ntarget = {target}\nn = 10\nm = 20\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "requires a bernoulli target" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    ("structure = empirical_predictive\ntarget = gaussian_mixture\npredict = true\n"
     "weights = 0.5,0.5\nmus = nan,5\nsigmas = 3,nan", "mus must be finite"),
    ("structure = student_t_pivot\ntarget = normal\nmu = nan\nsigma = 1", "mu must be finite"),
    ("structure = student_t_pivot\ntarget = normal\nsigma = 1\n"
     "grid_lo = 0\ngrid_hi = inf\ngrid_k = 3", "must be finite"),
], ids=["nan_mixture", "nan_mu", "inf_grid_hi"])
def test_cli_non_finite_input_is_a_validation_error(tmp_path, capsys, body, message):
    path = tmp_path / "nonfinite.singh"
    path.write_text(f"{body}\nn = 10\nm = 20\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("body, code, message", [
    ("structure = empirical_predictive\npredict = false", EXIT_VALIDATION,
     "requires predict = true"),
    ("structure = empirical_predictive\npredict = true", EXIT_OK, ""),
    ("structure = student_t_pivot\npredict = true", EXIT_VALIDATION,
     "predict = true applies only"),
], ids=["band-predict-false", "band-predict-true", "t-pivot-predict-true"])
def test_cli_predict_key_restates_the_structure(tmp_path, capsys, body, code, message):
    # The band's truth is the next draw whatever the document says; the
    # key must agree with it, so a contradicting document is refused.
    path = tmp_path / "predict.singh"
    path.write_text(f"{body}\ntarget = normal\nmu = 0\nsigma = 1\nn = 10\nm = 20\n")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == code
    assert message in capsys.readouterr().err


BIG_N = "structure = {kind}\ntarget = {target}\nn = {n}\nm = 20\nseed = 3\noutputs = report\n"


def test_cli_predictive_grid_is_a_validation_error(tmp_path, capsys):
    # The band's truth is the next draw, never a grid value: refused by the
    # same check global_singh runs.
    path = tmp_path / "predictive_grid.singh"
    path.write_text(
        "structure = empirical_predictive\npredict = true\ntarget = normal\nsigma = 1\n"
        "grid_lo = 0\ngrid_hi = 1\ngrid_k = 2\nn = 5\nm = 50\n"
    )
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "predictive scenarios cannot use a parameter grid" in capsys.readouterr().err


@pytest.mark.parametrize("kind, target, n", [
    ("jeffreys", "bernoulli\ntheta0 = 0.3333333333333333", 3_000_000),
    ("jeffreys", "bernoulli\ntheta0 = 0.3333333333333333", 10_000),
    ("clopper_pearson", "bernoulli\ntheta0 = 0.4", 10_000),
    ("student_t_pivot", "normal\nmu = 0\nsigma = 1", 20_002),
], ids=["jeffreys_3e6", "jeffreys_1e4", "clopper_pearson_1e4", "t_pivot_20002"])
def test_cli_rejects_n_beyond_the_accurate_beta_range(tmp_path, capsys, kind, target, n):
    # Shapes above 1e4 (n + 1/2 for Jeffreys, n + 1 for Clopper-Pearson,
    # (n - 1)/2 for the t pivot) fail validation instead of at run time.
    path = tmp_path / "big.singh"
    path.write_text(BIG_N.format(kind=kind, target=target, n=n))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "beyond the accurate range" in capsys.readouterr().err


@pytest.mark.parametrize("kind, target, n", [
    ("jeffreys", "bernoulli\ntheta0 = 0.3333333333333333", 9_999),
    ("student_t_pivot", "normal\nmu = 0\nsigma = 1", 20_001),
], ids=["jeffreys_9999", "t_pivot_20001"])
def test_cli_accepts_n_just_under_the_accurate_beta_range(tmp_path, kind, target, n):
    path = tmp_path / "big.singh"
    path.write_text(BIG_N.format(kind=kind, target=target, n=n))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_OK
    assert json.loads((tmp_path / "scenario.json").read_text())["m"] == 20


def test_cli_missing_file(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "absent.singh"), "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert "cannot read scenario" in capsys.readouterr().err


def test_cli_unwritable_artifact_is_a_runtime_error(scenario_file, tmp_path, capsys):
    # A directory where the CSV belongs cannot be opened for writing; unlike
    # a permission bit, that holds for every user.
    out = tmp_path / "out"
    (out / "demo_run.csv").mkdir(parents=True)
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--replicates", "0"), ("--seed", "-1")])
def test_cli_bad_overrides(scenario_file, tmp_path, capsys, flag, value):
    code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path), flag, value])
    assert code == EXIT_VALIDATION


def test_cli_format_csv_skips_svg(scenario_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out), "--format", "csv"])
    assert (out / "demo_run.csv").exists()
    assert (out / "demo_run.json").exists()
    assert not (out / "demo_run.svg").exists()


def test_cli_replicates_override_lands_in_report(scenario_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out), "--replicates", "37"])
    assert json.loads((out / "demo_run.json").read_text())["m"] == 37


def test_cli_seed_changes_the_draws(scenario_file, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for seed, out in (("1", a), ("2", b), ("1", c)):
        main(["run", "--scenario", str(scenario_file), "--out", str(out), "--seed", seed])
    assert (a / "demo_run.csv").read_bytes() != (b / "demo_run.csv").read_bytes()
    assert (a / "demo_run.csv").read_bytes() == (c / "demo_run.csv").read_bytes()


def test_cli_preset_fig1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["preset", "fig1", "--out", str(out)]) == EXIT_OK
    for name in ("fig1.csv", "fig1.json", "fig1.svg"):
        assert (out / name).exists()


def test_cli_unknown_preset_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["preset", "fig99", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_requires_a_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- python -m singh_audit ---


def _run_module(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "singh_audit", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_module_runs_a_preset(tmp_path):
    out = tmp_path / "out"
    done = _run_module("preset", "fig3", "--out", str(out), cwd=tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert sorted(p.name for p in out.iterdir()) == ["fig3.csv", "fig3.json", "fig3.svg"]


def test_module_exits_2_on_a_malformed_scenario(tmp_path):
    path = tmp_path / "bad.singh"
    path.write_text("structure clopper_pearson\n")
    done = _run_module("run", "--scenario", str(path), "--out", str(tmp_path), cwd=tmp_path)
    assert done.returncode == EXIT_PARSE
    assert "parse error: line 1" in done.stderr
