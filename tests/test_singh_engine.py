import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from singh_audit.singh_engine import (
    BLOCK,
    EXACT_TOLERANCE,
    CoverageReport,
    SinghBand,
    SinghCurve,
    TargetSpec,
    UnsupportedTargetError,
    _binomial_weights,
    classify,
    dkw_epsilon,
    eval_curve,
    exact_singh_curve,
    max_coverage_deficit,
    singh_curve,
)
from singh_audit.special_math import DomainError, SeededStream
from singh_audit.structures import (
    Dataset,
    DegenerateDataError,
    StructureSpec,
    evaluate_structure,
)

GRID = np.linspace(0.0, 1.0, 1001)


def curve_of(*values, never=0, weights=None):
    vals = np.sort(np.asarray(values, dtype=np.float64))
    return SinghCurve(np.concatenate((vals, np.full(never, np.inf))), weights=weights)


# --- target specs ---


def test_target_validation():
    with pytest.raises(DomainError):
        TargetSpec(family="poisson")
    with pytest.raises(DomainError):
        TargetSpec.normal(0.0, 0.0)
    with pytest.raises(DomainError):
        TargetSpec.bernoulli(1.5)
    with pytest.raises(DomainError):
        TargetSpec.scaled_bernoulli(0.0, 2.0)
    with pytest.raises(DomainError):
        TargetSpec.scaled_bernoulli(0.2, -2.0)
    with pytest.raises(DomainError):
        TargetSpec.mixture([0.7, 0.7], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        TargetSpec(family="normal", mu=1.0)


def test_target_truth_parameter():
    assert TargetSpec.normal(4.0, 3.0).theta0 == 4.0
    assert TargetSpec.bernoulli(0.4).theta0 == 0.4
    assert TargetSpec.scaled_bernoulli(0.2, 2.0).theta0 == 2.0
    assert TargetSpec.mixture([0.5, 0.5], [4.0, 5.0], [3.0, 1.5]).theta0 == 4.5


def test_target_with_truth():
    assert TargetSpec.normal(4.0, 3.0).with_truth(1.0).mu == 1.0
    assert TargetSpec.bernoulli(0.4).with_truth(0.2).p == 0.2
    assert TargetSpec.scaled_bernoulli(0.2, 2.0).with_truth(5.0).mean == 5.0
    with pytest.raises(UnsupportedTargetError):
        TargetSpec.mixture([0.5, 0.5], [4.0, 5.0], [3.0, 1.5]).with_truth(1.0)


# --- result containers ---


def test_curve_validation():
    with pytest.raises(DomainError):
        SinghCurve(np.array([0.4, 0.2]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([0.2, 1.4]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([0.2, 1.4, np.inf]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([np.inf, 0.2]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([0.2, np.nan]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([-np.inf, 0.2]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([0.2]), weights=np.array([0.5, 0.5]))
    # trailing +inf, +inf must pass the sort check without a RuntimeWarning
    c = curve_of(0.1, never=2)
    assert (c.m, c.never_count) == (3, 2)
    assert c.never_fraction == pytest.approx(2 / 3)


def test_weighted_never_fraction_is_probability_mass():
    c = curve_of(0.2, 0.6, never=1, weights=np.array([0.5, 0.3, 0.2]))
    assert c.never_count == 1
    assert c.never_fraction == pytest.approx(0.2)


def test_band_requires_matching_m():
    with pytest.raises(DomainError):
        SinghBand(curve_of(0.1, 0.2), curve_of(0.3))


# --- eval_curve ---


def test_eval_curve_counts():
    c = curve_of(0.2, 0.4, 0.6, 0.8)
    assert eval_curve(c, 0.5) == 0.5
    assert eval_curve(c, 0.0) == 0.0
    assert eval_curve(c, 1.0) == 1.0
    # ties count via weak inequality
    assert eval_curve(c, 0.4) == 0.5
    assert np.array_equal(eval_curve(c, np.array([0.1, 0.25, 0.9])), [0.0, 0.25, 1.0])


def test_eval_curve_excludes_never_even_at_one():
    c = curve_of(0.3, never=1)
    assert eval_curve(c, 1.0) == 0.5
    assert eval_curve(c, 0.2) == 0.0


def test_eval_curve_weighted():
    c = curve_of(0.2, 0.6, weights=np.array([0.3, 0.7]))
    assert eval_curve(c, 0.1) == 0.0
    assert eval_curve(c, 0.2) == pytest.approx(0.3)
    assert eval_curve(c, 1.0) == pytest.approx(1.0)


def test_eval_curve_rejects_bad_alpha():
    with pytest.raises(DomainError):
        eval_curve(curve_of(0.2), 1.5)


# --- dkw epsilon ---


def test_dkw_epsilon_reference_value():
    assert dkw_epsilon(10_000) == pytest.approx(0.016276236307187292, abs=1e-15)


def test_dkw_epsilon_shrinks_with_m():
    assert dkw_epsilon(100) > dkw_epsilon(10_000) > dkw_epsilon(1_000_000)


def test_dkw_epsilon_validation():
    with pytest.raises(DomainError):
        dkw_epsilon(0)
    with pytest.raises(DomainError):
        dkw_epsilon(100, 1.0)


# --- Monte Carlo engine ---


def test_singh_curve_is_deterministic():
    spec = StructureSpec("jeffreys")
    target = TargetSpec.bernoulli(0.4)
    a = singh_curve(spec, target, 8, 300, SeededStream(21))
    b = singh_curve(spec, target, 8, 300, SeededStream(21))
    assert np.array_equal(a.required, b.required)
    assert a.m == b.m == 300


def test_bernoulli_replicates_replay_binomial_counts_per_block():
    # Layout v2: block b draws one Binomial(n, p) count per replicate from
    # substream(b); each replicate's value is the structure at that count.
    spec = StructureSpec("clopper_pearson")
    target = TargetSpec.bernoulli(0.3)
    stream = SeededStream(22)
    n, m = 7, BLOCK + 200
    result = singh_curve(spec, target, n, m, stream)
    counts = np.concatenate((
        stream.substream(0).generator().binomial(n, 0.3, BLOCK),
        stream.substream(1).generator().binomial(n, 0.3, m - BLOCK),
    ))
    lowers, uppers = [], []
    for k in counts.tolist():
        data = Dataset(np.concatenate((np.ones(k), np.zeros(n - k))))
        cv = evaluate_structure(spec, target.theta0, data)
        lowers.append(cv.lower)
        uppers.append(cv.upper)
    assert np.array_equal(result.lower_curve.required, np.sort(lowers))
    assert np.array_equal(result.upper_curve.required, np.sort(uppers))


def test_normal_replicates_replay_rows_of_their_block():
    # Layout v2: replicate i of block b is the i-th row drawn from
    # substream(b)'s generator; the last block is short.
    spec = StructureSpec("student_t_pivot")
    target = TargetSpec.normal(4.0, 3.0)
    stream = SeededStream(27)
    n, m = 6, BLOCK + 3
    result = singh_curve(spec, target, n, m, stream)
    values = []
    for b, size in ((0, BLOCK), (1, 3)):
        rng = stream.substream(b).generator()
        for _ in range(size):
            x = 4.0 + 3.0 * rng.standard_normal(n)
            values.append(evaluate_structure(spec, 4.0, Dataset(x)).lower)
    assert np.array_equal(result.required, np.sort(values))


def test_one_generator_per_block_and_one_evaluation_per_drawn_count(monkeypatch):
    # Entry points are looked up at call time, so wrappers patched onto the
    # module (as the benchmark's tracer does) see every call.
    from singh_audit import singh_engine

    calls = {"generator": 0, "evaluate": 0}
    generator, evaluate = SeededStream.generator, singh_engine.evaluate_structure

    def counting_generator(self):
        calls["generator"] += 1
        return generator(self)

    def counting_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    monkeypatch.setattr(SeededStream, "generator", counting_generator)
    monkeypatch.setattr(singh_engine, "evaluate_structure", counting_evaluate)
    curve = singh_curve(
        StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), 12, 2 * BLOCK + 1, SeededStream(29)
    )
    assert calls["generator"] == 3
    assert calls["evaluate"] == np.unique(curve.required).size <= 13


def test_t_pivot_on_bernoulli_raises_only_for_drawn_degenerate_counts():
    spec = StructureSpec("student_t_pivot")
    # p = 0.5, n = 30: k = 0 or 30 has probability 2e-9, so no draw is
    # degenerate and the run succeeds.
    curve = singh_curve(spec, TargetSpec.bernoulli(0.5), 30, 500, SeededStream(28))
    assert curve.m == 500
    # p = 0.05, n = 5: k = 0 (probability 0.77) is drawn, zero spread.
    with pytest.raises(DegenerateDataError):
        singh_curve(spec, TargetSpec.bernoulli(0.05), 5, 50, SeededStream(28))


def test_band_ordering_is_exact():
    band = singh_curve(
        StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), 10, 500,
        SeededStream(23),
    )
    assert (eval_curve(band.lower_curve, GRID) >= eval_curve(band.upper_curve, GRID)).all()


def test_predictive_uses_last_draw():
    band = singh_curve(
        StructureSpec("empirical_predictive"),
        TargetSpec.normal(0.0, 1.0, predictive=True),
        9, 50, SeededStream(24),
    )
    grid = {k / 10.0 for k in range(11)}
    assert set(band.lower_curve.required) <= grid
    assert set(band.upper_curve.required) <= grid


def test_run_argument_validation():
    stream = SeededStream(25)
    with pytest.raises(DomainError):
        singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), 5, 0, stream)
    with pytest.raises(DomainError):
        singh_curve(
            StructureSpec("student_t_pivot"), TargetSpec.normal(0.0, 1.0), 1, 10, stream
        )
    with pytest.raises(DomainError):
        singh_curve(StructureSpec("jeffreys"), TargetSpec.normal(0.0, 1.0), 5, 10, stream)
    with pytest.raises(DomainError):
        singh_curve(
            StructureSpec("empirical_predictive"), TargetSpec.normal(0.0, 1.0), 5, 10,
            stream,
        )
    with pytest.raises(DomainError):
        singh_curve(
            StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4, predictive=True), 5, 10,
            stream,
        )


def test_chebyshev_run_records_never():
    # p=0.2, n=5: all-zero datasets (prob 0.32768) can never reach the mean
    curve = singh_curve(
        StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.2, 2.0), 5, 2000,
        SeededStream(26),
    )
    assert curve.required.size == curve.m == 2000
    assert np.isinf(curve.required).sum() == curve.never_count > 0


# --- exact enumeration ---


def test_exact_requires_two_point_target():
    with pytest.raises(UnsupportedTargetError):
        exact_singh_curve(StructureSpec("student_t_pivot"), TargetSpec.normal(0.0, 1.0), 5)
    with pytest.raises(UnsupportedTargetError):
        exact_singh_curve(
            StructureSpec("empirical_predictive"),
            TargetSpec.bernoulli(0.4, predictive=True),
            5,
        )


def test_exact_jeffreys_single_draw_pair():
    curve = exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.5), 1)
    assert np.array_equal(curve.weights, [0.5, 0.5])
    lo, hi = curve.required
    assert lo + hi == pytest.approx(1.0, abs=1e-13)
    assert lo == pytest.approx(sp.betainc(1.5, 0.5, 0.5), abs=1e-13)


def test_exact_chebyshev_case_study_step():
    curve = exact_singh_curve(
        StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.2, 2.0), 5
    )
    # every dataset with a success sits at required confidence 0; the
    # all-zero dataset (mass 0.8^5) is never covered: one +inf atom
    assert curve.never_count == 1
    assert curve.m == 6
    (inf_idx,) = np.nonzero(np.isinf(curve.required))
    assert inf_idx.tolist() == [5]
    assert curve.weights[5] == pytest.approx(0.8**5, abs=1e-15)
    assert (curve.required[:5] == 0.0).all()
    assert eval_curve(curve, 0.95) == pytest.approx(1.0 - 0.8**5, abs=1e-12)
    assert curve.never_fraction == pytest.approx(0.8**5, abs=1e-12)


@pytest.mark.parametrize("theta0, endpoint", [(0.0, 0.0), (1.0, 1.0)])
def test_exact_clopper_pearson_degenerate_rates(theta0, endpoint):
    # the single dataset with probability 1 yields an interval containing
    # the degenerate truth
    band = exact_singh_curve(
        StructureSpec("clopper_pearson"), TargetSpec.bernoulli(theta0), 6
    )
    (lo_idx,) = np.nonzero(band.lower_curve.weights == 1.0)
    (up_idx,) = np.nonzero(band.upper_curve.weights == 1.0)
    assert band.lower_curve.required[lo_idx[0]] <= endpoint
    assert band.upper_curve.required[up_idx[0]] >= endpoint


def test_exact_matches_binomial_mixture_of_values():
    # cross-check the weighted curve against an independent enumeration
    n, theta0 = 9, 0.35
    curve = exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(theta0), n)
    pmf = stats.binom.pmf(np.arange(n + 1), n, theta0)
    vals = np.array([sp.betainc(k + 0.5, n - k + 0.5, theta0) for k in range(n + 1)])
    order = np.argsort(vals)
    assert np.allclose(curve.required, vals[order], atol=1e-12)
    assert np.allclose(curve.weights, pmf[order], atol=1e-12)
    for alpha in (0.1, 0.45, 0.8):
        assert eval_curve(curve, alpha) == pytest.approx(
            pmf[vals <= alpha].sum(), abs=1e-12
        )


def test_binomial_weights_match_scipy_at_large_n():
    # math.comb(n, k) cannot convert to float from n = 1030 on
    n = 2000
    for p in (0.01, 0.3, 0.5, 0.999):
        ref = stats.binom.pmf(np.arange(n + 1), n, p)
        assert np.abs(_binomial_weights(n, p) - ref).max() <= 1e-12
    assert np.array_equal(_binomial_weights(4, 0.0), [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(_binomial_weights(4, 1.0), [0.0, 0.0, 0.0, 0.0, 1.0])


def test_exact_runs_at_large_n():
    curve = exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.3), 2000)
    assert curve.m == 2001
    assert curve.weights.sum() == pytest.approx(1.0, abs=1e-9)


# --- metrics and classification ---


def test_max_deficit_reference_points():
    covered = curve_of(0.0, 0.0, 0.0)
    assert max_coverage_deficit(covered) == 0.0
    never_only = curve_of(never=2)
    assert max_coverage_deficit(never_only) == 1.0
    with pytest.raises(DomainError):
        max_coverage_deficit(covered, grid=1)


def test_max_deficit_of_exact_clopper_pearson_is_nonpositive():
    band = exact_singh_curve(
        StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), 10
    )
    assert max_coverage_deficit(band) <= 1e-12


def test_classify_labels():
    m, seed = 2000, 31
    favourable = classify(
        singh_curve(
            StructureSpec("student_t_pivot"), TargetSpec.normal(4.0, 3.0), 10, m,
            SeededStream(seed),
        )
    )
    assert favourable.classification == "favourable"

    overconfident = classify(
        singh_curve(
            StructureSpec("jeffreys"), TargetSpec.bernoulli(0.5), 10, m,
            SeededStream(seed),
        )
    )
    assert overconfident.classification == "overconfident"
    assert overconfident.max_deficit > 0.05

    conservative = classify(
        singh_curve(
            StructureSpec("scaled_cbox", c=3.0), TargetSpec.bernoulli(0.4), 20, m,
            SeededStream(seed),
        )
    )
    assert conservative.classification == "conservative"
    assert conservative.conservatism_area > 0.0

    valid = classify(
        singh_curve(
            StructureSpec("scaled_cbox", c=1.0), TargetSpec.bernoulli(0.4), 20, m,
            SeededStream(seed),
        )
    )
    assert valid.classification == "valid"


def test_classify_report_fields():
    curve = singh_curve(
        StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), 10, 500, SeededStream(32)
    )
    report = classify(curve, delta=0.05)
    assert isinstance(report, CoverageReport)
    assert report.m == 500
    assert report.dkw_epsilon == pytest.approx(dkw_epsilon(500, 0.05))
    assert -1.0 <= report.max_deficit <= 1.0
    assert report.conservatism_area == 0.0  # precise structures have no band


def test_classify_exact_curve_uses_rounding_tolerance():
    # An exact curve has no sampling noise: exact Jeffreys at n = 30 dips
    # 0.071 below the diagonal, which a DKW tube with m = n + 1 atoms
    # (epsilon 0.29) would have passed as favourable.
    curve = exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.5), 30)
    report = classify(curve)
    assert report.classification == "overconfident"
    assert report.dkw_epsilon == EXACT_TOLERANCE
    assert report.max_deficit == pytest.approx(0.071, abs=0.001)
    assert report.m == 31


def test_classify_exact_clopper_pearson_band_forgives_rounding_only():
    # Its lower curve touches the diagonal to within rounding (a max deficit
    # of ~1e-15 here), which the tolerance forgives, and clears it between.
    band = exact_singh_curve(StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), 10)
    report = classify(band)
    assert report.max_deficit <= 1e-12
    assert report.classification == "conservative"
    assert report.dkw_epsilon == EXACT_TOLERANCE


def test_conservatism_area_monotone_in_c():
    areas = []
    for c in (0.5, 1.0, 2.0, 4.0):
        band = singh_curve(
            StructureSpec("scaled_cbox", c=c), TargetSpec.bernoulli(0.4), 20, 2000,
            SeededStream(33),
        )
        areas.append(classify(band).conservatism_area)
    assert all(a <= b + 1e-12 for a, b in zip(areas, areas[1:]))
    assert all(a >= 0.0 for a in areas)
