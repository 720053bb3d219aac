"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises the public pipeline (scenario documents, engines,
artifact emission) at full replicate budgets and asserts the guarantee at
its stated tolerance, so `pytest -v` prints one pass/fail line per
guarantee.
"""

import functools
import hashlib
import time
from xml.etree import ElementTree

import numpy as np
from scipy import special

from reference_global import expanded
from singh_audit.presets import PRESETS
from singh_audit.runner import run_analysis, run_preset
from singh_audit.scenario import parse_scenario
from singh_audit.singh_engine import (
    SinghBand,
    TargetSpec,
    classify,
    dkw_epsilon,
    eval_curve,
    exact_singh_curve,
    singh_curve,
)
from singh_audit.special_math import SeededStream
from singh_audit.structures import StructureSpec

GRID = np.linspace(0.0, 1.0, 1001)
EPS_10K = dkw_epsilon(10_000)


@functools.cache
def analysis(doc: str):
    return run_analysis(parse_scenario(doc))


def preset_doc(preset: str, name: str | None = None) -> str:
    docs = {parse_scenario(d).name: d for d in PRESETS[preset].documents}
    return docs[name or preset]


def ks_distance(curve, cdf=lambda alpha: alpha) -> float:
    # Exact sup distance between the empirical CDF and a CDF on [0, 1]
    # (the diagonal by default) that is continuous but for an atom at 0:
    # read at every replicate from both sides, where the CDF's left limit
    # at 0 is 0. A counted curve is read as its expanded sorted column.
    s = expanded(curve)
    ranks = np.arange(1, s.size + 1, dtype=np.float64)
    c = cdf(s)
    c_left = np.where(s > 0.0, c, 0.0)
    return float(max((ranks / curve.m - c).max(), (c_left - (ranks - 1.0) / curve.m).max()))


def straddle_margins(band: SinghBand, eps: float) -> tuple[float, float]:
    lo = eval_curve(band.lower_curve, GRID)
    up = eval_curve(band.upper_curve, GRID)
    return float((lo - (GRID - eps)).min()), float(((GRID + eps) - up).min())


def test_01_t_pivot_curve_is_uniform_favourable_and_fast():
    started = time.perf_counter()
    result, report = run_analysis(parse_scenario(preset_doc("fig1")))
    elapsed = time.perf_counter() - started
    assert ks_distance(result) <= 0.0165
    assert report.classification == "favourable"
    assert elapsed < 5.0


def test_02_monte_carlo_agrees_with_exact_enumeration():
    structures = (
        (StructureSpec("jeffreys"), "bernoulli"),
        (StructureSpec("clopper_pearson"), "bernoulli"),
        (StructureSpec("scaled_cbox", 0.5), "bernoulli"),
        (StructureSpec("scaled_cbox", 1.0), "bernoulli"),
        (StructureSpec("scaled_cbox", 3.0), "bernoulli"),
        (StructureSpec("chebyshev_ucl"), "scaled_bernoulli"),
    )
    failures = 0
    combos = 0
    for structure, family in structures:
        for n in (5, 10, 20, 30):
            for rate in (0.05, 0.2, 0.4, 0.5):
                if family == "bernoulli":
                    target = TargetSpec.bernoulli(rate)
                else:
                    target = TargetSpec.scaled_bernoulli(rate, 2.0)
                exact = exact_singh_curve(structure, target, n)
                mc = singh_curve(structure, target, n, 10_000, SeededStream(20_000 + combos))
                worst = max(
                    float(np.abs(eval_curve(e, GRID) - eval_curve(s, GRID)).max())
                    for e, s in zip(exact.curves, mc.curves)
                )
                failures += worst > EPS_10K
                combos += 1
    assert combos == 96
    assert failures / combos <= 0.02


def test_03_posterior_used_as_confidence_undercovers_by_pinned_margins():
    # Exact-enumeration deficits, frozen before the Monte Carlo path existed.
    pins = {
        0.1: 0.20667805,
        0.2: 0.14881041,
        0.3: 0.12961068,
        0.4: 0.12410336,
        0.5: 0.12204698,
    }
    deficits = []
    for k, (theta, pin) in enumerate(sorted(pins.items())):
        curve = singh_curve(
            StructureSpec("jeffreys"), TargetSpec.bernoulli(theta), 10, 10_000,
            SeededStream(3101 + k),
        )
        deficit = classify(curve).max_deficit
        assert abs(deficit - pin) <= 0.015
        deficits.append(deficit)
    assert max(deficits) >= 0.05


def test_04_binomial_cbox_straddles_without_crossing():
    local, _ = analysis(preset_doc("fig3"))
    lo_margin, up_margin = straddle_margins(local, EPS_10K)
    assert lo_margin >= 0.0
    assert up_margin >= 0.0
    swept, _ = analysis(preset_doc("fig8"))
    lo_margin, up_margin = straddle_margins(swept, dkw_epsilon(1000))
    assert lo_margin >= 0.0
    assert up_margin >= 0.0


def test_05_imprecision_scale_orders_the_classifications():
    reports = {}
    for name in ("fig7_c05", "fig7_c1", "fig7_c3"):
        _, report = analysis(preset_doc("fig7", name))
        reports[name] = report
    assert reports["fig7_c05"].classification == "overconfident"
    assert reports["fig7_c1"].classification == "valid"
    assert reports["fig7_c3"].classification == "conservative"
    assert reports["fig7_c3"].conservatism_area > reports["fig7_c1"].conservatism_area > 0.0


def test_06_next_draw_band_straddles_and_steps_on_the_data_grid():
    band, _ = analysis(preset_doc("fig4"))
    lo_margin, up_margin = straddle_margins(band, EPS_10K)
    assert lo_margin >= 0.0
    assert up_margin >= 0.0
    # Every stored value is an exact multiple of 1/(n+1) with n = 10.
    levels = {k / 11.0 for k in range(12)}
    stored = np.concatenate((band.lower_curve.required, band.upper_curve.required))
    assert all(value in levels for value in stored)


def test_07_moment_bound_coverage_case_study():
    curve, _ = analysis(preset_doc("fig9", "fig9_n5_p020"))
    assert abs(eval_curve(curve, 0.95) - 0.67232) <= 0.015

    skewed, report = analysis(preset_doc("fig9", "fig9_n30_p005"))
    assert report.classification == "overconfident"
    assert 0.95 - eval_curve(skewed, 0.95) >= 0.16463861 - 0.015

    symmetric, _ = analysis(preset_doc("fig9", "fig9_n30_p050"))
    head = GRID[GRID <= 0.95]
    assert float((head - eval_curve(symmetric, head)).max()) <= EPS_10K


def test_08_band_area_shrinks_with_sample_size():
    areas = []
    for name in ("fig5_n10", "fig5_n50", "fig5_n250"):
        _, report = analysis(preset_doc("fig5", name))
        areas.append(report.conservatism_area)
    assert areas[0] > areas[1] > areas[2]


def _assert_csv_matches_result(path, result) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    band = isinstance(result, SinghBand)
    assert lines[0] == ("alpha,coverage_lower,coverage_upper" if band else "alpha,coverage")
    assert lines[-1] == f"# never={result.curves[0].never_count}"
    # Each alpha reads back as 0, 1 or a value some curve stores.
    stored = np.concatenate([[0.0, 1.0], *(c.required for c in result.curves)])
    alphas = []
    for row in lines[1:-1]:
        cells = row.split(",")
        alpha = float(cells[0])
        alphas.append(alpha)
        assert [format(eval_curve(c, alpha), ".9g") for c in result.curves] == cells[1:]
    assert alphas[0] == 0.0 and alphas[-1] == 1.0
    assert np.isin(alphas, stored).all()
    assert (np.diff(alphas) > 0.0).all()


# sha256 of each preset's artifacts at its full budget (see
# artifacts_digest). A change to any CSV, JSON or SVG byte shows here.
# fig2, fig3 and fig5..fig9 are pinned under stream layout v4, whose count
# runs draw one histogram per block; fig1 under v5, whose normal moment
# runs draw each replicate's mean and sd, with the t CDF's finite sum at
# nu = 9; fig4 draws rows, as v3 did. The
# SVG staircases take one step per half-pixel column.
PRESET_DIGESTS = {
    "fig1": "37d33d5844be945d960763c6491358839e7740390a6090d4e221c10e2862432e",
    "fig2": "c8d1e7eb3fb954070e4ca64d3bc33d98d6126e5b0b9f80be1681512b403565ba",
    "fig3": "f792d66779b8888903222378a33801dabb72cef47d8aff5eaef380509c5174e6",
    "fig4": "248bb58590b475dc539452150402e8af75de61f0c71f4b27322a7307150c1328",
    "fig5": "b89afe967d52219f6216bb906f3c84a055d183860a2d218354a2798b01787f61",
    "fig6": "cdd0ef1e68abc4abbfe1d7ff24a1eb85a9e22129e812bd988fa86171d2f9e51f",
    "fig7": "5dba9f18ed71d18a818926a42f2629d87bac9198e24a4174e324403dd0f60a6c",
    "fig8": "cd348b31e68eda902ca7634fb2cf8ea8aaa117087bf675c01d47b6009862c496",
    "fig9": "038d47e43870c35549adfc75c4f36fdc5e5e312f9cc13595ebf0b5c0a3f7509a",
}


def artifacts_digest(paths) -> str:
    """sha256 over "<file name> <sha256 of its bytes>" lines, sorted by name."""
    digest = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        digest.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def test_09_preset_artifacts_are_deterministic_and_self_consistent(tmp_path):
    assert sorted(PRESETS) == sorted(PRESET_DIGESTS)
    for preset_name, preset in sorted(PRESETS.items()):
        first = run_preset(preset_name, tmp_path / "a" / preset_name)
        second = run_preset(preset_name, tmp_path / "b" / preset_name)
        assert [p.name for p in first] == [p.name for p in second]
        for one, two in zip(first, second):
            assert one.read_bytes() == two.read_bytes(), one.name
        assert artifacts_digest(first) == PRESET_DIGESTS[preset_name], preset_name
        for path in first:
            if path.suffix == ".svg":
                ElementTree.parse(path)  # every pinned plot is well-formed XML
        for doc in preset.documents:
            scenario = parse_scenario(doc)
            result, _ = analysis(doc)
            _assert_csv_matches_result(
                tmp_path / "a" / preset_name / f"{scenario.name}.csv", result
            )


def test_10_chebyshev_on_a_normal_agrees_with_its_closed_form_curve():
    # Chebyshev's required confidence is z^2 / (z^2 + 1) with z = sqrt(n)
    # (mu - mean) / sd, and 0 where z <= 0; on a normal target z is
    # t-distributed with n - 1 degrees of freedom. So the exact curve is
    # C(alpha) = F(sqrt(alpha / (1 - alpha))), F the t CDF (scipy's stdtr,
    # a test-only oracle), with mass 1/2 at alpha = 0.
    m = 100_000
    for n in (5, 30):
        curve = singh_curve(
            StructureSpec("chebyshev_ucl"), TargetSpec.normal(4.0, 3.0), n, m, SeededStream(20_200 + n)
        )
        assert curve.never_count == 0

        def exact(alpha, nu=n - 1):
            return special.stdtr(nu, np.sqrt(alpha / (1.0 - alpha)))

        assert ks_distance(curve, exact) <= dkw_epsilon(m, 1e-3)
