import json
import os
import re
from dataclasses import replace
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference_outputs as reference
from singh_audit import outputs
from singh_audit.outputs import emit_csv, emit_report, emit_svg, emit_svg_overlay
from singh_audit.runner import run_preset, run_scenario
from singh_audit.scenario import parse_scenario
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


def test_csv_lists_equal_values_once(tmp_path):
    out = emit_csv(curve(0.5, 0.25, 0.5, 0.5, never=1), tmp_path / "c.csv")
    assert out.read_text(encoding="utf-8") == (
        "alpha,coverage\n0,0\n0.25,0.2\n0.5,0.8\n1,0.8\n# never=1\n"
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
        "0.40000000000000002,0.5,0.5\n"
        "0.59999999999999998,0.5,1\n"
        "0.75,1,1\n"
        "1,1,1\n"
        "# never=0\n"
    )


def test_csv_lists_each_distinct_value_once(tmp_path):
    c = singh_curve(
        StructureSpec("jeffreys"), TargetSpec.bernoulli(0.37), n=12, m=300,
        stream=SeededStream(7),
    )
    header, rows, never = read_csv(emit_csv(c, tmp_path / "c.csv"))
    assert header == "alpha,coverage"
    # One row per distinct value, plus the 0 and 1 rows unless stored.
    stored_ends = int(np.isin([0.0, 1.0], c.required).sum())
    assert len(rows) == np.unique(c.required).size + 2 - stored_ends
    alphas = [float(a) for a, _ in rows]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
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
        TargetSpec.mixture((0.5, 0.5), (4.0, 5.0), (3.0, 1.5)),
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


def test_step_path_merges_steps_that_share_a_half_pixel_column():
    # 0.5 and 0.5 + 1/1632 lie a quarter pixel apart, at x = 268.00 and
    # 268.25: one step, the later value's, rises past both.
    path = outputs._step_path(curve(0.5, 0.5 + 0.25 / 408.0, 0.75))
    assert path == "M 64.00 456.00 H 268.25 V 184.00 H 370.00 V 48.00 H 472.00"


def test_step_path_takes_one_step_per_half_pixel_column():
    # Each step is the last distinct value of its half-pixel column, so a
    # curve takes at most 2 * 408 + 1 steps. Each vertex lies on the exact
    # staircase: the coverage at a value drawn at that x. No value's rise
    # is drawn more than half a pixel right of it, and the path starts and
    # ends as the full staircase does.
    values = np.random.default_rng(3).random(10_000)
    c = SinghCurve(np.sort(values))
    path = outputs._step_path(c)
    assert path.startswith(f"M 64.00 {eval_curve(c, 0.0) * -408.0 + 456.0:.2f} H ")
    assert path.endswith(" V 48.00 H 472.00")
    steps = [(float(x), y) for x, y in re.findall(r"H (\S+) V (\S+)", path)]
    assert len(steps) <= 2 * 408 + 1
    distinct = np.unique(values)
    x = 64.0 + distinct * 408.0
    printed = [f"{v:.2f}" for v in x.tolist()]
    rises = [f"{456.0 - cov * 408.0:.2f}" for cov in eval_curve(c, distinct).tolist()]
    on_staircase = set(zip(printed, rises))
    for step_x, step_y in steps:
        assert (f"{step_x:.2f}", step_y) in on_staircase
    step_xs = np.array([step_x for step_x, _ in steps])
    drawn = step_xs[np.searchsorted(step_xs, x - 0.005)]
    assert (drawn <= x + 0.505).all()


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


def test_svg_text_is_escaped_and_reads_back(tmp_path):
    # A name with XML's markup characters still gives a well-formed file
    # whose title and legend label read back as the name itself.
    name = "R&D <x> & y>"
    result = curve(0.5)
    report = classify(result)
    single = ElementTree.parse(emit_svg(result, report, tmp_path / "s.svg", name))
    overlay = ElementTree.parse(emit_svg_overlay([(name, result)], tmp_path / "o.svg", title=name))

    def texts(tree):
        return [t.text for t in tree.iter("{http://www.w3.org/2000/svg}text")]

    assert f"{name}: {report.classification}" in texts(single)
    assert texts(overlay).count(name) == 2  # the title and the legend label


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


@pytest.mark.parametrize("value, printed", [
    (0.5, "0.5"), (1.0, "1"), (0.0, "0"),
    # Values that 9 digits print below themselves: their row must carry
    # their own mass, so the printed alpha has to be the double itself.
    (0.1 + 0.2, "0.30000000000000004"), (0.1234567891, "0.12345678910000001"),
])
def test_alpha_prints_as_its_own_double(tmp_path, value, printed):
    text = emit_csv(curve(value), tmp_path / "c.csv").read_text()
    assert f"{printed},1" in text


# --- the numpy CSV kernel against % ---


def kernel_text(values, p):
    """``values`` printed by the kernel, one cell a line."""
    x = np.asarray(values, dtype=np.float64)
    cell_words = 1 + (p + 3) // 4
    words = np.zeros((x.size, cell_words + 1), dtype=outputs._WORD)
    outputs._cells(x, p, words[:, :cell_words])
    words[:, cell_words] = outputs._NEWLINE
    return words.tobytes().translate(None, b"\0").decode("ascii")


def assert_prints_as_percent(values, p):
    values = np.asarray(values, dtype=np.float64).tolist()
    got, expected = kernel_text(values, p), (f"%.{p}g\n" * len(values)) % tuple(values)
    if got != expected:
        v, g, e = next(t for t in zip(values, got.splitlines(), expected.splitlines()) if t[1] != t[2])
        pytest.fail(f"{v!r}: the kernel printed {g!r}, % prints {e!r}")


# Doubles at the kernel's rounding, exponent and carry steps.
HARD_VALUES = np.concatenate((
    # Ties at digit p + 1: k / 2**18 has 18 decimals, k / 2**10 has 10.
    np.arange(1, 2**18) / 2.0**18,
    np.arange(1, 2**10) / 2.0**10,
    # Each power of ten's double and its two neighbours.
    [np.nextafter(10.0**-k, side) for k in range(1, 9) for side in (0.0, 1.0)],
    10.0 ** -np.arange(1, 9),
    # Values 9 digits round up to 1.
    1.0 - np.arange(1, 4097) * 2.0**-53,
    # 0 and 1 print without digits; the rest go through % one by one.
    [0.0, 1.0, -0.0, 5e-324, 1e-300, 1e-4, np.nextafter(1e-4, 0.0), 9.99999999e-5,
     0.99999999949, 0.9999999995, 2.0, -0.5, np.inf, -np.inf, np.nan],
))


@pytest.mark.parametrize("p", [17, 9])
def test_kernel_prints_a_million_values_as_percent(p):
    rng = np.random.default_rng(28)
    values = np.concatenate((
        rng.random(500_000),
        10.0 ** rng.uniform(-12.0, 0.0, 500_000),
        HARD_VALUES,
    ))
    assert_prints_as_percent(values, p)


@given(values=st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
@seed(28)
def test_kernel_prints_any_double_as_percent(values):
    for p in (17, 9):
        assert_prints_as_percent(values, p)


@pytest.mark.parametrize("rows", [
    outputs._KERNEL_ROWS - 1, outputs._KERNEL_ROWS, outputs._KERNEL_ROWS + 1,
    3 * outputs._CHUNK_ROWS + 5,
])
@pytest.mark.parametrize("band", [False, True])
def test_tables_at_the_cutover_and_across_chunks_print_as_the_reference(tmp_path, rows, band):
    # rows - 2 distinct values strictly inside (0, 1), then the 0 and 1 rows.
    values = np.unique(np.random.default_rng(rows).random(rows + 8))
    values = values[values > 0.0][: rows - 2]
    if band:
        halves = [values[0::2], values[1::2]]
        m = max(h.size for h in halves)
        result = SinghBand(*(curve(*h.tolist(), never=m - h.size) for h in halves))
    else:
        result = curve(*values.tolist())
    with mock.patch.object(outputs, "_kernel_rows", wraps=outputs._kernel_rows) as kernel:
        text = emit_csv(result, tmp_path / "t.csv").read_text(encoding="utf-8")
    assert kernel.called == (rows >= outputs._KERNEL_ROWS)
    assert text.count("\n") == rows + 2
    assert text == reference.csv_text(result)


# --- rewriting an existing artifact in place ---

T_PIVOT = """\
name = rewrite
structure = student_t_pivot
target = normal
mu = 0
sigma = 1
n = 8
m = 2000
seed = 11
"""


def artifact_bytes(written):
    return {p.name: p.read_bytes() for p in written}


def test_a_shrinking_rewrite_equals_a_fresh_run(tmp_path):
    # The second run writes shorter files over longer ones (the four checked
    # below), so an old tail left past the new end would show as a difference.
    scenario = parse_scenario(T_PIVOT)
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    big = artifact_bytes(run_scenario(scenario, reused) + run_preset("fig7", reused, replicates=2000))
    small = replace(scenario, m=200)
    rewritten = artifact_bytes(run_scenario(small, reused) + run_preset("fig7", reused, replicates=200))
    expected = artifact_bytes(run_scenario(small, fresh) + run_preset("fig7", fresh, replicates=200))
    assert sorted(rewritten) == sorted(expected) == [
        "fig7.svg", "fig7_c05.csv", "fig7_c05.json", "fig7_c1.csv", "fig7_c1.json",
        "fig7_c3.csv", "fig7_c3.json", "rewrite.csv", "rewrite.json", "rewrite.svg",
    ]
    for name in ("rewrite.csv", "rewrite.svg", "rewrite.json", "fig7.svg"):
        assert len(rewritten[name]) < len(big[name])
    for name, data in expected.items():
        assert rewritten[name] == data, name


def test_a_rewrite_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old contents, longer than the new ones\n" * 20)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    emit_csv(curve(0.5), link)
    assert link.is_symlink()
    assert target.read_text() == emit_csv(curve(0.5), tmp_path / "fresh.csv").read_text()


def test_a_rewrite_keeps_the_inode_and_mode(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("x" * 1000)
    path.chmod(0o640)
    before = path.stat()
    report = CoverageReport("valid", 0.0, 0.0, 0.05, 10)
    emit_report(report, path, "demo")
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert after.st_mode & 0o777 == 0o640
    assert path.read_bytes() == emit_report(report, tmp_path / "fresh.json", "demo").read_bytes()


def test_a_failed_write_still_cuts_the_file_to_what_was_written(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("a longer old file")
    with pytest.raises(TypeError):
        outputs._write(path, "abc", None)
    assert path.read_bytes() == b"abc"


def test_a_new_artifact_is_created_with_the_umask_mode(tmp_path):
    mask = os.umask(0o022)
    try:
        path = emit_csv(curve(0.5), tmp_path / "new.csv")
    finally:
        os.umask(mask)
    assert path.stat().st_mode & 0o777 == 0o644


# --- bulk emission against the per-row reference ---

# Values that stress printing and ties: the ends, exact binary fractions,
# the smallest subnormal, neighbours that agree to 9 digits, and values
# just below 1 that must keep their own row apart from the 1 row.
SPECIAL_VALUES = [
    0.0, 1.0, 0.5, 0.25, 1 / 3, 5e-324, 1e-10,
    0.1234567891, 0.1234567892, 0.99999999949, 0.9999999999, np.nextafter(1.0, 0.0),
]
VALUES = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.floats(0.0, 1.0),
    st.integers(0, 20).map(lambda i: i / 20),
)


@st.composite
def curves(draw, m=None):
    """A sorted curve with ties, +inf tails and, half the time, weights."""
    if m is None:
        finite = draw(st.lists(VALUES, max_size=30))
        never = draw(st.integers(0 if finite else 1, 4))
    else:
        finite = draw(st.lists(VALUES, max_size=m))
        never = m - len(finite)
    values = sorted(finite) + [np.inf] * never
    weights = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(values), max_size=len(values))))
        scale = draw(st.sampled_from([1.0, 0.5]))
        weights = raw / raw.sum() * scale if raw.sum() > 0.0 else raw
    return SinghCurve(np.array(values, dtype=np.float64), weights=weights)


@st.composite
def bands(draw):
    lower = draw(curves())
    return SinghBand(lower, draw(curves(m=lower.m)))


RESULTS = st.one_of(curves(), bands())


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emission")


@given(result=curves(), alphas=st.lists(VALUES, max_size=10))
@settings(max_examples=300, deadline=None)
def test_eval_curve_matches_reference(result, alphas):
    # The coverage the curve carries equals the sums the reference redoes.
    probes = np.concatenate((result.required[np.isfinite(result.required)], alphas, [0.0, 1.0]))
    assert eval_curve(result, probes).tobytes() == reference.eval_curve(result, probes).tobytes()
    for a in probes.tolist():
        assert eval_curve(result, a).hex() == reference.eval_curve(result, a).hex()


@given(result=curves())
@settings(max_examples=300, deadline=None)
def test_step_path_matches_reference(result):
    assert outputs._step_path(result) == reference.step_path(result)


@given(result=RESULTS)
@settings(max_examples=300, deadline=None)
def test_emit_csv_matches_reference(out_dir, result):
    text = emit_csv(result, out_dir / "c.csv").read_text(encoding="utf-8")
    assert text == reference.csv_text(result)


@given(items=st.lists(st.tuples(st.sampled_from(["a", "b"]), RESULTS), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_emit_svg_overlay_matches_reference(out_dir, items):
    bulk = emit_svg_overlay(items, out_dir / "bulk.svg", "t").read_text(encoding="utf-8")
    with mock.patch.object(outputs, "_step_path", reference.step_path):
        per_step = emit_svg_overlay(items, out_dir / "ref.svg", "t").read_text(encoding="utf-8")
    assert bulk == per_step


def test_engine_results_emit_as_the_reference(tmp_path):
    stream = SeededStream(17)
    band_values = np.sort(np.random.default_rng(17).random(2000))
    results = [
        singh_curve(StructureSpec("student_t_pivot"), TargetSpec.normal(4.0, 3.0), 10, 2000, stream),
        singh_curve(StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.2, 2.0), 5, 500, stream),
        singh_curve(StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), 10, 3000, stream),
        exact_singh_curve(StructureSpec("scaled_cbox", c=3.0), TargetSpec.bernoulli(0.3), 40),
        exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.0), 12),
        curve(0.5),
        curve(never=3),
        curve(0.0, 0.0, 1.0, never=1),
        # Above the kernel's row cutover: a t-pivot curve of 10^4 replicates,
        singh_curve(StructureSpec("student_t_pivot"), TargetSpec.normal(4.0, 3.0), 10, 10_000, stream),
        # a band whose two columns each hold 2000 distinct values,
        SinghBand(SinghCurve(band_values * 0.5), SinghCurve(band_values)),
        # and an exact curve whose early coverage is below 1e-4, printed by %.
        exact_singh_curve(StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.3), 1000),
    ]
    assert all(c.required.size > outputs._KERNEL_ROWS for r in results[-3:] for c in r.curves)
    coverage = [row.split(",")[1] for row in reference.csv_text(results[-1]).splitlines()[1:-1]]
    assert sum("e-" in cell for cell in coverage) > 100
    for i, result in enumerate(results):
        assert emit_csv(result, tmp_path / f"{i}.csv").read_text() == reference.csv_text(result)
        for c in result.curves:
            assert outputs._step_path(c) == reference.step_path(c)
