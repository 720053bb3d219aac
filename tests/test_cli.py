import json

import pytest

from singh_audit.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from singh_audit.presets import PRESETS
from singh_audit.runner import run_preset, run_scenario
from singh_audit.scenario import parse_scenario

DOC = """\
name = demo run
structure = clopper_pearson
target = bernoulli
theta0 = 0.4
n = 10
m = 80
seed = 5
"""


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


def test_cli_missing_file(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "absent.singh"), "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert "cannot read scenario" in capsys.readouterr().err


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
