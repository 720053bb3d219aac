import json

import numpy as np
import pytest

from singh_audit.outputs import emit_csv, emit_report, emit_svg, emit_svg_overlay
from singh_audit.singh_engine import (
    CoverageReport,
    SinghBand,
    SinghCurve,
    TargetSpec,
    classify,
    eval_curve,
    exact_singh_curve,
    singh_curve,
)
from singh_audit.special_math import SeededStream
from singh_audit.structures import StructureSpec


def curve(*values, never=0):
    return SinghCurve(np.asarray(sorted(values) + [np.inf] * never, dtype=np.float64))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[-1].startswith("# never=")
    never = int(lines[-1].partition("=")[2])
    rows = [line.split(",") for line in lines[1:-1]]
    return lines[0], rows, never


# --- CSV ---


def test_csv_single_value_exact_text(tmp_path):
    out = emit_csv(curve(0.5), tmp_path / "c.csv")
    assert out == tmp_path / "c.csv"
    assert out.read_text(encoding="utf-8") == (
        "alpha,coverage\n0,0\n0.5,1\n1,1\n# never=0\n"
    )


def test_csv_repeats_rows_of_equal_values(tmp_path):
    out = emit_csv(curve(0.5, 0.25, 0.5, 0.5, never=1), tmp_path / "c.csv")
    assert out.read_text(encoding="utf-8") == (
        "alpha,coverage\n0,0\n0.25,0.2\n0.5,0.8\n0.5,0.8\n0.5,0.8\n1,0.8\n# never=1\n"
    )


def test_csv_never_only(tmp_path):
    out = emit_csv(curve(never=1), tmp_path / "c.csv")
    assert out.read_text(encoding="utf-8") == (
        "alpha,coverage\n0,0\n1,0\n# never=1\n"
    )


def test_csv_band_exact_text(tmp_path):
    band = SinghBand(curve(0.25, 0.75), curve(0.4, 0.6))
    out = emit_csv(band, tmp_path / "b.csv")
    assert out.read_text(encoding="utf-8") == (
        "alpha,coverage_lower,coverage_upper\n"
        "0,0,0\n"
        "0.25,0.5,0\n"
        "0.4,0.5,0.5\n"
        "0.6,0.5,1\n"
        "0.75,1,1\n"
        "1,1,1\n"
        "# never=0\n"
    )


def test_csv_lists_every_replicate_row(tmp_path):
    c = singh_curve(
        StructureSpec("jeffreys"), TargetSpec.bernoulli(0.37), n=12, m=300,
        stream=SeededStream(7),
    )
    header, rows, never = read_csv(emit_csv(c, tmp_path / "c.csv"))
    assert header == "alpha,coverage"
    assert len(rows) == c.required.size + 2
    assert never == 0


def test_csv_round_trip_monte_carlo_curve(tmp_path):
    # Re-evaluating the curve at the printed alphas reproduces the printed
    # coverage exactly, so the file is self-consistent for downstream readers.
    c = singh_curve(
        StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.2, 2.0),
        n=5, m=300, stream=SeededStream(11),
    )
    assert c.never_count > 0
    _, rows, never = read_csv(emit_csv(c, tmp_path / "c.csv"))
    assert never == c.never_count
    for alpha_s, cov_s in rows:
        assert format(eval_curve(c, float(alpha_s)), ".9g") == cov_s


def test_csv_round_trip_monte_carlo_band(tmp_path):
    band = singh_curve(
        StructureSpec("empirical_predictive"),
        TargetSpec.mixture((0.5, 0.5), (4.0, 5.0), (3.0, 1.5), predictive=True),
        n=10, m=200, stream=SeededStream(13),
    )
    header, rows, _ = read_csv(emit_csv(band, tmp_path / "b.csv"))
    assert header == "alpha,coverage_lower,coverage_upper"
    for alpha_s, lo_s, up_s in rows:
        a = float(alpha_s)
        assert format(eval_curve(band.lower_curve, a), ".9g") == lo_s
        assert format(eval_curve(band.upper_curve, a), ".9g") == up_s


def test_csv_round_trip_exact_weighted_band(tmp_path):
    band = exact_singh_curve(StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), n=5)
    _, rows, _ = read_csv(emit_csv(band, tmp_path / "b.csv"))
    for alpha_s, lo_s, up_s in rows:
        a = float(alpha_s)
        assert format(eval_curve(band.lower_curve, a), ".9g") == lo_s
        assert format(eval_curve(band.upper_curve, a), ".9g") == up_s


# --- JSON report ---


def test_report_exact_text(tmp_path):
    report = CoverageReport(
        classification="valid", max_deficit=0.1, conservatism_area=0.25,
        dkw_epsilon=0.05, m=100, never_count=3,
    )
    out = emit_report(report, tmp_path / "r.json", name="demo")
    assert out.read_text(encoding="utf-8") == (
        "{\n"
        '  "classification": "valid",\n'
        '  "conservatism_area": 0.25,\n'
        '  "dkw_epsilon": 0.05,\n'
        '  "m": 100,\n'
        '  "max_deficit": 0.1,\n'
        '  "name": "demo",\n'
        '  "never_count": 3\n'
        "}\n"
    )


def test_report_round_trips_through_json(tmp_path):
    c = singh_curve(
        StructureSpec("jeffreys"), TargetSpec.bernoulli(0.5), n=10, m=400,
        stream=SeededStream(3),
    )
    report = classify(c)
    payload = json.loads(emit_report(report, tmp_path / "r.json", "x").read_text())
    assert payload["classification"] == report.classification
    assert payload["max_deficit"] == report.max_deficit
    assert payload["dkw_epsilon"] == report.dkw_epsilon
    assert payload["m"] == 400


# --- SVG ---


def svg_for(result, tmp_path, name="demo"):
    out = emit_svg(result, classify(result), tmp_path / "p.svg", name=name)
    return out.read_text(encoding="utf-8")


def test_svg_precise_layout(tmp_path):
    svg = svg_for(curve(0.5), tmp_path)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert 'viewBox="0 0 520 520"' in svg
    assert svg.count("<path ") == 2
    # dashed diagonal corner to corner, then the solid staircase
    assert 'd="M 64.00 456.00 L 472.00 48.00"' in svg
    assert 'stroke-dasharray="8 5"' in svg
    assert 'd="M 64.00 456.00 H 268.00 V 48.00 H 472.00"' in svg


def test_svg_band_layout(tmp_path):
    svg = svg_for(SinghBand(curve(0.25, 0.75), curve(0.4, 0.6)), tmp_path)
    assert svg.count("<path ") == 3
    assert 'stroke-dasharray="2 5"' in svg  # dotted diagonal
    assert 'stroke-dasharray="8 5"' in svg  # dashed lower bound


def test_svg_title_names_classification(tmp_path):
    result = curve(0.5)
    report = classify(result)
    svg = svg_for(result, tmp_path, name="myrun")
    assert f">myrun: {report.classification}</text>" in svg


def test_svg_axis_furniture(tmp_path):
    svg = svg_for(curve(0.5), tmp_path)
    assert svg.count("<rect ") == 1
    assert ">alpha</text>" in svg
    assert ">coverage</text>" in svg
    for tick in ("0", "0.25", "0.5", "0.75", "1"):
        assert f">{tick}</text>" in svg


def test_svg_overlay_layout(tmp_path):
    items = [("plain", curve(0.5)), ("band", SinghBand(curve(0.25), curve(0.75)))]
    out = emit_svg_overlay(items, tmp_path / "o.svg", title="sweep")
    svg = out.read_text(encoding="utf-8")
    # diagonal + one precise path + two band paths
    assert svg.count("<path ") == 4
    assert ">sweep</text>" in svg
    assert ">plain</text>" in svg
    assert ">band</text>" in svg
    assert 'stroke="#000000" stroke-width="2"' in svg  # first legend key
    assert '"#c0392b"' in svg  # second series color


def test_svg_bytes_deterministic(tmp_path):
    band = singh_curve(
        StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), n=10, m=500,
        stream=SeededStream(21),
    )
    report = classify(band)
    first = emit_svg(band, report, tmp_path / "a.svg", "run").read_bytes()
    second = emit_svg(band, report, tmp_path / "b.svg", "run").read_bytes()
    assert first == second


def test_csv_bytes_deterministic(tmp_path):
    c = singh_curve(
        StructureSpec("student_t_pivot"), TargetSpec.normal(4.0, 3.0), n=10, m=300,
        stream=SeededStream(5),
    )
    first = emit_csv(c, tmp_path / "a.csv").read_bytes()
    second = emit_csv(c, tmp_path / "b.csv").read_bytes()
    assert first == second
    assert b"\r" not in first


def test_csv_rejects_nothing_but_reports_path(tmp_path):
    out = emit_csv(curve(0.1, 0.9), str(tmp_path / "c.csv"))
    assert out.exists()


@pytest.mark.parametrize("value, printed", [(0.5, "0.5"), (1.0, "1"), (0.0, "0")])
def test_nine_digit_format_is_stable(tmp_path, value, printed):
    text = emit_csv(curve(value), tmp_path / "c.csv").read_text()
    assert f"{printed},1" in text
