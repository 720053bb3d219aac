import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

import reference_structures as reference
from reference_global import expanded
from singh_audit.global_engine import ParameterGrid, global_singh
from singh_audit.singh_engine import (
    BLOCK,
    CHUNK_ELEMENTS,
    EXACT_TOLERANCE,
    CoverageReport,
    SinghBand,
    SinghCurve,
    TargetSpec,
    UnsupportedTargetError,
    _atom_columns,
    _binomial_weights,
    _fold,
    _success_value,
    classify,
    dkw_epsilon,
    eval_curve,
    exact_singh_curve,
    singh_curve,
)
from singh_audit.special_math import DomainError, SeededStream
from singh_audit.structures import DegenerateDataError, StructureSpec, evaluate_counts

GRID = np.linspace(0.0, 1.0, 1001)
# A few KB: a count run whose m is small beside n holds O(m), not O(n).
# Chebyshev at n = 10**12 peaks at 3.5 KB for m = 1 and 11 KB for m = 50.
PEAK_BOUND = 32 * 1024
# fig4's target. A moment kind on a mixture still draws its datasets as rows.
MIXTURE = TargetSpec.mixture([0.5, 0.5], [4.0, 5.0], [3.0, 1.5])


def curve_of(*values, never=0, weights=None):
    """A curve of the sorted values and ``never`` +inf atoms, each of count 1 unless weighted."""
    vals = np.concatenate((np.sort(np.asarray(values, dtype=np.float64)), np.full(never, np.inf)))
    return ones(vals) if weights is None else SinghCurve(vals, weights=weights)


def ones(values):
    """A counted curve of these values as given, each of count 1."""
    return SinghCurve(values, counts=np.ones(np.size(values), np.int64))


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
    with pytest.raises(DomainError, match="sigmas must be positive"):
        TargetSpec.mixture([0.5, 0.5], [0.0, 1.0], [1.0, -1.0])
    with pytest.raises(DomainError, match="non-negative"):
        TargetSpec.mixture([-0.5, 1.5], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="equal-length"):
        TargetSpec.mixture([0.5, 0.5], [0.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="at least one component"):
        TargetSpec.mixture([], [], [])
    # NaN passes the range checks above, and +inf some of them.
    for build, message in [
        (lambda: TargetSpec.normal(math.nan, 1.0), "mu must be finite"),
        (lambda: TargetSpec.normal(-math.inf, 1.0), "mu must be finite"),
        (lambda: TargetSpec.normal(0.0, math.inf), "sigma must be finite"),
        (lambda: TargetSpec.scaled_bernoulli(0.2, math.inf), "mean must be finite"),
        (lambda: TargetSpec.scaled_bernoulli(1e-310, 2.0), "mean / p must be finite"),
        (lambda: TargetSpec.mixture([0.5, math.nan], [0, 1], [1, 1]), "weights must be finite"),
        (lambda: TargetSpec.mixture([0.5, 0.5], [math.nan, 5], [3, 1]), "mus must be finite"),
        (lambda: TargetSpec.mixture([0.5, 0.5], [0, math.inf], [1, 1]), "mus must be finite"),
        (lambda: TargetSpec.mixture([0.5, 0.5], [0, 1], [1, math.nan]), "sigmas must be finite"),
    ]:
        with pytest.raises(DomainError, match=message):
            build()


def test_target_truth_parameter():
    assert TargetSpec.normal(4.0, 3.0).theta0 == 4.0
    assert TargetSpec.bernoulli(0.4).theta0 == 0.4
    assert TargetSpec.scaled_bernoulli(0.2, 2.0).theta0 == 2.0
    assert TargetSpec.mixture([0.5, 0.5], [4.0, 5.0], [3.0, 1.5]).theta0 == 4.5


def test_target_with_truth():
    # with_truth builds the point's target from its family's fields alone;
    # it must be the dataclasses.replace of the truth field, as a float.
    for target, truth, thetas in (
        (TargetSpec.normal(4.0, 3.0), "mu", (-2.5, 0, 1e6)),
        (TargetSpec.bernoulli(0.4), "p", (0, 0.2, 1)),
        (TargetSpec.scaled_bernoulli(0.2, 2.0), "mean", (1e-3, 5, 7.5)),
    ):
        for theta in thetas:
            point = target.with_truth(theta)
            assert point == dataclasses.replace(target, **{truth: float(theta)})
            assert type(getattr(point, truth)) is float
        with pytest.raises(DomainError):
            target.with_truth(math.nan)
    with pytest.raises(UnsupportedTargetError):
        TargetSpec.mixture([0.5, 0.5], [4.0, 5.0], [3.0, 1.5]).with_truth(1.0)


# --- drawing replicates ---


def draw(target, seed, count, rows=1):
    return target.draw(SeededStream(seed).generator(), rows, count)


def test_normal_draw_is_affine_in_location_scale():
    shifted = draw(TargetSpec.normal(4.0, 3.0), 3, 256)
    standard = draw(TargetSpec.normal(0.0, 1.0), 3, 256)
    assert np.array_equal(shifted, 4.0 + 3.0 * standard)


def test_normal_draw_moments():
    x = draw(TargetSpec.normal(2.0, 5.0), 4, 200_000)
    n = x.size
    assert abs(x.mean() - 2.0) < 5 * 5.0 / math.sqrt(n)
    assert abs(x.std(ddof=1) - 5.0) < 5 * 5.0 / math.sqrt(2 * n)


def test_bernoulli_draw_support_and_mean():
    x = draw(TargetSpec.bernoulli(0.3), 5, 100_000)
    assert set(np.unique(x)) <= {0.0, 1.0}
    se = math.sqrt(0.3 * 0.7 / x.size)
    assert abs(x.mean() - 0.3) < 5 * se


def test_bernoulli_draw_degenerate_rates():
    assert not draw(TargetSpec.bernoulli(0.0), 6, 1000).any()
    assert draw(TargetSpec.bernoulli(1.0), 6, 1000).all()


def test_scaled_bernoulli_draw_support_and_mean():
    p, target = 0.2, 2.0
    x = draw(TargetSpec.scaled_bernoulli(p, target), 7, 1_000_000)
    assert set(np.unique(x)) <= {0.0, target / p}
    se = target * math.sqrt((1 - p) / p) / math.sqrt(x.size)
    assert abs(x.mean() - target) < 5 * se


@pytest.mark.parametrize("target", [TargetSpec.bernoulli(0.3), TargetSpec.scaled_bernoulli(0.2, 2.0)])
def test_count_family_rows_are_the_success_value_times_the_uniform_test(target):
    # Rows are written over their uniforms, bit for bit value * (u < p).
    x = draw(target, 12, 64, rows=3)
    u = SeededStream(12).generator().random(3 * 64)
    assert x.tobytes() == (_success_value(target) * (u < target.p)).reshape(3, 64).tobytes()


# fig4's chunk: CHUNK_ELEMENTS // 11 = 2,978 rows of n + 1 = 11 draws.
CHUNK_ROWS, CHUNK_WIDTH = CHUNK_ELEMENTS // 11, 11


@pytest.mark.parametrize(
    "target, arrays",
    [
        (TargetSpec.normal(4.0, 3.0), 1.0),
        (TargetSpec.bernoulli(0.3), 1.2),
        (TargetSpec.scaled_bernoulli(0.2, 2.0), 1.2),
        (MIXTURE, 3.0),
        (TargetSpec.mixture([0.25, 0.0, 0.75], [-2.0, 0.0, 3.0], [1.0, 5.0, 0.5]), 3.0),
    ],
    ids=["normal", "bernoulli", "scaled_bernoulli", "mixture", "mixture_zero_weight"],
)
def test_draw_peak_in_block_sized_arrays(target, arrays):
    # A block is built in the buffer it was drawn into: a mixture holds its
    # picks, its normals and one gathered component parameter at most, a
    # normal only its normals, a count family its uniforms and the cast
    # buffers of the test written over them. 4 KB covers the array headers.
    block = CHUNK_ROWS * CHUNK_WIDTH * 8
    rng, normals = SeededStream(13).generator(), SeededStream(13).generator(child=0)
    target.draw(rng, CHUNK_ROWS, CHUNK_WIDTH, normals)
    tracemalloc.start()
    try:
        target.draw(rng, CHUNK_ROWS, CHUNK_WIDTH, normals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * block + 4096


def test_single_component_mixture_draw_matches_normal():
    mixed = draw(TargetSpec.mixture([1.0], [4.0], [3.0]), 8, 64, rows=2)
    assert np.array_equal(mixed, draw(TargetSpec.normal(4.0, 3.0), 8, 64, rows=2))


class _Edges:
    """A stand-in for a generator whose ``random`` hands out ``values`` cyclically."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        return np.resize(self.values, size)


@given(
    parts=st.lists(st.integers(0, 5), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 4),
)
@settings(max_examples=120, deadline=None)
def test_mixture_picks_equal_the_inverse_cdf_search(parts, seed, rows):
    # Dyadic weights summing to exactly 1, zero weights among them, so the
    # CDF's edges repeat and are exact: a block must equal the picks of
    # cdf.searchsorted(u, "right") from the same uniforms and normals. The
    # stand-in generator hits every edge, and its neighbours, exactly.
    parts = list(parts)
    total = sum(parts)
    parts[seed % len(parts)] += (1 << max(total - 1, 0).bit_length()) - total
    weights = np.array(parts, dtype=np.float64) / sum(parts)
    mus = np.arange(len(parts), dtype=np.float64) * 3.0
    sigmas = 1.0 + np.arange(len(parts), dtype=np.float64) / 8.0
    target = TargetSpec.mixture(weights, mus, sigmas)
    cdf = np.cumsum(weights)
    assert cdf[-1] == 1.0
    edges = np.concatenate((cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0), [0.0]))
    # Every row holds every edge and its neighbours.
    count = edges.size
    stream = SeededStream(seed)
    for uniforms in (stream.generator(), _Edges(edges[edges < 1.0])):
        x = target.draw(uniforms, rows, count, stream.generator(child=0))
        u = (uniforms if isinstance(uniforms, _Edges) else stream.generator()).random(rows * count)
        pick = cdf.searchsorted(u, "right")
        expected = mus[pick] + sigmas[pick] * stream.generator(child=0).standard_normal(rows * count)
        assert x.tobytes() == expected.reshape(rows, count).tobytes()


def test_mixture_draw_mean():
    x = draw(TargetSpec.mixture([0.5, 0.5], [4.0, 5.0], [3.0, 1.5]), 9, 200_000)
    sd = math.sqrt(0.5 * (3.0**2 + 4.0**2) + 0.5 * (1.5**2 + 5.0**2) - 4.5**2)
    assert abs(x.mean() - 4.5) < 5 * sd / math.sqrt(x.size)


# --- result containers ---


def test_curve_validation():
    with pytest.raises(DomainError, match="sorted ascending"):
        ones(np.array([0.4, 0.2]))
    with pytest.raises(DomainError, match=r"lie in \[0, 1\]"):
        ones(np.array([0.2, 1.4]))
    with pytest.raises(DomainError, match=r"lie in \[0, 1\]"):
        ones(np.array([0.2, 1.4, np.inf]))
    with pytest.raises(DomainError, match="sorted ascending"):
        ones(np.array([np.inf, 0.2]))
    with pytest.raises(DomainError, match="must not be NaN"):
        ones(np.array([0.2, np.nan]))
    with pytest.raises(DomainError, match=r"lie in \[0, 1\]"):
        ones(np.array([-np.inf, 0.2]))
    with pytest.raises(DomainError, match="non-empty"):
        ones(np.array([]))
    with pytest.raises(DomainError):
        SinghCurve(np.array([0.2]), weights=np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match="weights must not be NaN"):
        SinghCurve(np.array([0.1, 0.2]), weights=np.array([np.nan, 0.5]))
    # counts: positive integers, one per value, and never beside weights
    for counts in ([1.5, 2.0], [2.0, 3.0], [True, True], [0, 3], [-1, 3], [3], [[1, 2]]):
        with pytest.raises(DomainError, match="counts must be positive integers"):
            SinghCurve(np.array([0.1, 0.2]), counts=np.array(counts))
    # exactly one mass: neither and both are refused
    with pytest.raises(DomainError, match="counts or weights, exactly one"):
        SinghCurve(np.array([0.1, 0.2]), weights=np.array([0.5, 0.5]), counts=np.array([1, 1]))
    with pytest.raises(DomainError, match="counts or weights, exactly one"):
        SinghCurve(np.array([0.1, 0.2]))
    # trailing +inf, +inf must pass the sort check without a RuntimeWarning
    c = curve_of(0.1, never=2)
    assert (c.m, c.never_count) == (3, 2)
    assert type(c.never_count) is int
    assert c.never_fraction == 2 / 3


def test_weighted_never_fraction_is_probability_mass():
    # An exact curve has no m, and its never count is the mass at +inf.
    c = curve_of(0.2, 0.6, never=1, weights=np.array([0.5, 0.3, 0.2]))
    assert c.m is None
    assert c.never_count == c.never_fraction == 0.2
    assert type(c.never_count) is float


def test_band_requires_matching_m():
    with pytest.raises(DomainError, match="share the replicate count"):
        SinghBand(curve_of(0.1, 0.2), curve_of(0.3))
    # A folded exact band, the exact envelope over two grid points: every
    # count of each point with its binomial weight, folded. Its curves
    # differ in atom count, and neither has an m.
    n, thetas = 10, [0.3, 0.5]
    targets = [TargetSpec.bernoulli(theta) for theta in thetas]
    point, counts = np.repeat([0, 1], n + 1), np.tile(np.arange(n + 1), 2)
    mass = _binomial_weights(n, thetas).ravel()
    columns = _atom_columns(StructureSpec("clopper_pearson"), targets, n, point, counts, mass)
    lower, upper = (SinghCurve(atoms, weights=weights) for atoms, weights in (_fold(*c) for c in columns))
    band = SinghBand(lower, upper)
    assert lower.weights is not None and upper.weights is not None
    assert lower.required.size != upper.required.size
    assert band.m is None
    # A counted curve pairs with neither side of it, nor with a counted curve of another m.
    for exact in (lower, upper):
        for pair in ((curve_of(0.1, 0.2), exact), (exact, curve_of(0.1, 0.2))):
            with pytest.raises(DomainError, match="share the replicate count"):
                SinghBand(*pair)
    with pytest.raises(DomainError, match="share the replicate count"):
        SinghBand(SinghCurve([0.1, 0.2], counts=[2, 1]), SinghCurve([0.3], counts=[2]))


def test_results_list_their_curves_coverage_side_first():
    c = curve_of(0.1, 0.5)
    band = SinghBand(curve_of(0.1, 0.2), curve_of(0.3, 0.4))
    assert c.curves == (c,)
    assert band.curves == (band.lower_curve, band.upper_curve)


def test_results_compare_and_hash_by_identity():
    c = ones([0.1, 0.5])
    band = SinghBand(c, ones([0.2, 0.6]))
    assert c == c
    assert c != ones([0.1, 0.5])
    assert band == band
    assert hash(c) == hash(c)
    assert {c, band, c} == {c, band}


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
    for alpha in (math.nan, np.array([0.3, math.nan]), -0.1, np.array([0.5, -1e-300])):
        with pytest.raises(DomainError, match=r"alpha must lie in \[0, 1\]"):
            eval_curve(curve_of(0.1, 0.5), alpha)


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
    for m in (True, 10.5, 100.0):
        with pytest.raises(DomainError, match="m must be an integer"):
            dkw_epsilon(m)
    assert dkw_epsilon(np.int64(10_000)) == dkw_epsilon(10_000)


# --- Monte Carlo engine ---


def test_singh_curve_is_deterministic():
    spec = StructureSpec("jeffreys")
    target = TargetSpec.bernoulli(0.4)
    a = singh_curve(spec, target, 8, 300, SeededStream(21))
    b = singh_curve(spec, target, 8, 300, SeededStream(21))
    assert expanded(a).tobytes() == expanded(b).tobytes()
    assert a.m == b.m == 300


def _count_run_replay(spec, target, n, m, seed):
    # Stream layout v4 from numpy alone: block b's generator is spawn key
    # (b,). When 8 (n + 1) <= m each block draws the histogram of its
    # counts over k = 0..n, one multinomial with the Binomial(n, p)
    # weights, and the run's histogram is their sum; otherwise each block
    # draws one Binomial(n, p) count per replicate, as v3 did. Each drawn
    # count is evaluated on its own, and a sorted column repeats its value
    # by the count's multiplicity: a count curve's atoms expanded by their
    # counts.
    sizes = [min(BLOCK, m - start) for start in range(0, m, BLOCK)]
    generators = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))) for b in range(len(sizes))
    ]
    if 8 * (n + 1) <= m:
        weights = _binomial_weights(n, target.p)
        histogram = sum(rng.multinomial(size, weights) for rng, size in zip(generators, sizes))
        counts = np.flatnonzero(histogram)
        mult = histogram[counts]
    else:
        drawn = np.concatenate([rng.binomial(n, target.p, size) for rng, size in zip(generators, sizes)])
        counts, mult = np.unique(drawn, return_counts=True)
    success = 1.0 if target.family == "bernoulli" else target.mean / target.p
    alone = [evaluate_counts(spec, target.theta0, n, [k], success) for k in counts.tolist()]
    columns = [
        np.sort(np.repeat([bounds[j][0] for bounds in alone], mult))
        for j in range(1 if spec.is_precise else 2)
    ]
    return counts, mult, columns


@pytest.mark.parametrize("n, p, histogram", [
    (7, 0.3, True),
    (7, 0.0, True),
    (7, 1.0, True),
    (600, 0.3, False),
    (600, 0.0, False),
    (600, 1.0, False),
])
def test_bernoulli_replicates_replay_binomial_counts_per_block(n, p, histogram):
    # m = BLOCK + 200 spans two blocks, at least 8 (n + 1) at n = 7 and
    # below it at n = 600. The sorted columns equal, byte for byte, the
    # run rebuilt from numpy alone and evaluate_counts, and lie within
    # rounding of the scalar reference at each count.
    spec = StructureSpec("clopper_pearson")
    target = TargetSpec.bernoulli(p)
    m = BLOCK + 200
    assert (8 * (n + 1) <= m) == histogram
    result = singh_curve(spec, target, n, m, SeededStream(22))
    counts, mult, columns = _count_run_replay(spec, target, n, m, 22)
    assert mult.sum() == m
    for curve, column in zip(result.curves, columns):
        assert expanded(curve).tobytes() == column.tobytes()
    ref_lowers, ref_uppers = zip(*(
        reference.clopper_pearson(target.theta0, np.concatenate((np.ones(k), np.zeros(n - k))))
        for k in counts.tolist()
    ))
    for curve, ref in zip(result.curves, (ref_lowers, ref_uppers)):
        expected = np.sort(np.repeat(ref, mult))
        np.testing.assert_allclose(expanded(curve), expected, rtol=0, atol=1e-14)


def _moment_run_replay(spec, target, n, m, seed):
    # Stream layout v5 from numpy alone: block b's generator is spawn key
    # (b,), as in _count_run_replay. It draws the block's size standard
    # normals z, then as many chi-squares q with n - 1 degrees of freedom;
    # replicate i of the block has the mean mu + sigma z[i] / sqrt(n) and
    # the sd sigma sqrt(q[i] / (n - 1)), which the scalar reference reads
    # one replicate at a time.
    of_moments = {
        "student_t_pivot": reference.student_t_pivot_of_moments,
        "chebyshev_ucl": reference.chebyshev_of_moments,
    }[spec.kind]
    values = []
    for b, start in enumerate(range(0, m, BLOCK)):
        size = min(BLOCK, m - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        z = rng.standard_normal(size)
        q = rng.chisquare(n - 1, size)
        means = target.mu + target.sigma * z / math.sqrt(n)
        sds = target.sigma * np.sqrt(q / (n - 1))
        values += [of_moments(target.mu, n, mean, sd)[0] for mean, sd in zip(means.tolist(), sds.tolist())]
    return np.sort(values)


@pytest.mark.parametrize("kind, n", [
    ("student_t_pivot", 6), ("chebyshev_ucl", 6), ("chebyshev_ucl", 10**9),
])
def test_normal_moment_replicates_replay_from_numpy_alone(kind, n):
    # m = BLOCK + 3 spans two blocks, the last one short. A moment kind on
    # a normal target draws each replicate's mean and sd, not its n draws,
    # so n = 10**9 costs what n = 6 does.
    spec = StructureSpec(kind)
    target = TargetSpec.normal(4.0, 3.0)
    m = BLOCK + 3
    result = singh_curve(spec, target, n, m, SeededStream(27))
    assert result.counts is not None
    assert expanded(result).tobytes() == _moment_run_replay(spec, target, n, m, 27).tobytes()


def _mixture_replay(weights, mus, sigmas, seed, n, m):
    # Stream layout v3 from numpy alone: block b's component picks are
    # uniforms from spawn key (b,) and its normals standard normals from
    # spawn key (b, 0); row i of a block takes the i-th n + 1 of each, and
    # a row's last draw is the next draw the band predicts.
    cdf, mus, sigmas = np.cumsum(weights), np.asarray(mus), np.asarray(sigmas)
    lowers, uppers = [], []
    for b, start in enumerate(range(0, m, BLOCK)):
        picks, normals = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
            for key in ((b,), (b, 0))
        )
        for _ in range(min(BLOCK, m - start)):
            component = np.searchsorted(cdf, picks.random(n + 1), side="right")
            x = mus[component] + sigmas[component] * normals.standard_normal(n + 1)
            lower, upper = reference.empirical_predictive(float(x[n]), x[:n])
            lowers.append(lower)
            uppers.append(upper)
    return np.sort(lowers), np.sort(uppers)


def test_mixture_predictive_replicates_replay_rows_across_chunks():
    # n + 1 = 41 draws per row: a chunk holds CHUNK_ELEMENTS // 41 = 799
    # rows, so the first block spans six chunks. Rows replayed one at a
    # time by the scalar kernel equal the chunk-wide draws.
    weights, mus, sigmas = [0.5, 0.5], [4.0, 5.0], [3.0, 1.5]
    target = TargetSpec.mixture(weights, mus, sigmas)
    n, m = 40, BLOCK + 3
    assert BLOCK > 5 * (CHUNK_ELEMENTS // (n + 1))
    band = singh_curve(StructureSpec("empirical_predictive"), target, n, m, SeededStream(30))
    lowers, uppers = _mixture_replay(weights, mus, sigmas, 30, n, m)
    assert all(curve.counts is not None for curve in band.curves)
    assert np.array_equal(expanded(band.lower_curve), lowers)
    assert np.array_equal(expanded(band.upper_curve), uppers)


@pytest.mark.parametrize("n, m", [(1, BLOCK + 2), (10, BLOCK + 2), (1000, 40)])
def test_band_rank_counts_equal_a_per_row_count_on_tied_data(n, m):
    # Bernoulli rows are all ties. Each run crosses a chunk boundary: at
    # n = 1 the block's, at n = 10 and 1000 one inside the first block.
    assert min(BLOCK, CHUNK_ELEMENTS // (n + 1)) < m
    target = TargetSpec.bernoulli(0.4)
    band = singh_curve(StructureSpec("empirical_predictive"), target, n, m, SeededStream(41))
    lowers, uppers = [], []
    for b, start in enumerate(range(0, m, BLOCK)):
        rows = target.draw(SeededStream(41).substream(b).generator(), min(BLOCK, m - start), n + 1)
        for *data, x_next in rows.tolist():
            below = sum(v <= x_next for v in data) / (n + 1)
            above = (n + 1 - sum(v >= x_next for v in data)) / (n + 1)
            lowers.append(min(below, above))
            uppers.append(max(below, above))
    assert expanded(band.lower_curve).tobytes() == np.sort(lowers).tobytes()
    assert expanded(band.upper_curve).tobytes() == np.sort(uppers).tobytes()


def test_fig4_sized_band_peak():
    # fig4's run (n = 10, m = 10^4) holds at most three chunk-sized arrays
    # while it draws, beside its two columns of m bounds, sorted in place.
    # A first run loads what numpy loads lazily, outside the trace.
    band = StructureSpec("empirical_predictive")
    singh_curve(band, MIXTURE, 10, 100, SeededStream(104))
    tracemalloc.start()
    try:
        singh_curve(band, MIXTURE, 10, 10_000, SeededStream(104))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_100_000


# fig4's band at m = BLOCK + 5 under stream layout v3.
FIG4_DIGEST = "5599031047642c83d77c286d0d6ee4ce71b62d0f7be766f09c45babf5da7ab7a"


def test_fig4_digest_replays_from_numpy_alone():
    lowers, uppers = _mixture_replay([0.5, 0.5], [4.0, 5.0], [3.0, 1.5], 104, 10, BLOCK + 5)
    assert hashlib.sha256(lowers.tobytes() + uppers.tobytes()).hexdigest() == FIG4_DIGEST


def _required_digest(result) -> str:
    digest = hashlib.sha256()
    for curve in result.curves:
        digest.update(expanded(curve).tobytes())
    return digest.hexdigest()


# fig1's t pivot and Chebyshev on fig1's target at n = 30, at m = BLOCK + 5
# under stream layout v5.
FIG1_DIGEST = "46ce0a6c317173f2a6fe15139f43dfdec78fb5c1575e67d1d1e6ee95917b9ac6"
CHEBYSHEV_NORMAL_DIGEST = "de4e05d7924243fc320a350d3de24ed1167e631d45351a7c72bc9f13cbe205a9"


@pytest.mark.parametrize("kind, n, seed, expected", [
    ("student_t_pivot", 10, 101, FIG1_DIGEST),
    ("chebyshev_ucl", 30, 7, CHEBYSHEV_NORMAL_DIGEST),
], ids=["fig1", "chebyshev_normal"])
def test_moment_digests_replay_from_numpy_alone(kind, n, seed, expected):
    values = _moment_run_replay(StructureSpec(kind), TargetSpec.normal(4.0, 3.0), n, BLOCK + 5, seed)
    assert hashlib.sha256(values.tobytes()).hexdigest() == expected


@pytest.mark.parametrize("structure, target, n, seed, expected", [
    (StructureSpec("student_t_pivot"), TargetSpec.normal(4.0, 3.0), 10, 101, FIG1_DIGEST),
    (StructureSpec("empirical_predictive"), MIXTURE, 10, 104, FIG4_DIGEST),
    (StructureSpec("chebyshev_ucl"), TargetSpec.normal(4.0, 3.0), 30, 7, CHEBYSHEV_NORMAL_DIGEST),
], ids=["fig1", "fig4", "chebyshev_normal"])
def test_required_values_are_frozen(structure, target, n, seed, expected):
    # sha256 of the float64 bytes of the expanded `required` (lower then
    # upper curve for a band) at m = BLOCK + 5. fig1 and Chebyshev are
    # pinned under stream layout v5, which draws each replicate's mean and
    # sd, and fig1 by the t CDF's finite sum at nu = 9; fig4 is pinned
    # under v3. The tests above rebuild all three from numpy alone.
    # Any change to a kernel's bits, the draws or the layout shows here.
    result = singh_curve(structure, target, n, BLOCK + 5, SeededStream(seed))
    assert _required_digest(result) == expected


@pytest.mark.parametrize("structure, target, n, m, seed, grid, chunks", [
    (StructureSpec("student_t_pivot"), MIXTURE, 10, BLOCK + 5, 101, None, []),
    (StructureSpec("chebyshev_ucl"), MIXTURE, 30, BLOCK + 5, 7, None, []),
    (StructureSpec("empirical_predictive"), MIXTURE, 10, BLOCK + 5, 104, None, []),
    # 64 // max(m, 8 (n + 1)) = 2 points per chunk: seven points take four.
    (StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.5), 3, 20, 108,
     ParameterGrid.uniform(0.0, 1.0, 7), [2, 2, 2, 1]),
    (StructureSpec("student_t_pivot"), TargetSpec.normal(0.0, 2.0), 10, BLOCK + 5, 101,
     ParameterGrid.uniform(-1.0, 1.0, 3), []),
], ids=["t_pivot_mixture", "chebyshev_mixture", "fig4", "clopper_pearson_grid", "t_pivot_normal_grid"])
def test_chunk_size_changes_no_value(monkeypatch, structure, target, n, m, seed, grid, chunks):
    # CHUNK_ELEMENTS is a memory setting, not a layout constant: 64-element
    # chunks (a few rows each, or a few points of a count grid) give the
    # same values as the default, local and global runs alike.
    from singh_audit import singh_engine

    def run():
        if grid is None:
            return singh_curve(structure, target, n, m, SeededStream(seed))
        return global_singh(structure, target, grid, n, m, SeededStream(seed))

    expected = run()
    drawn, sizes = singh_engine._drawn_count_values, []

    def counting_drawn(structure, draws, *args):
        sizes.append(len(draws))
        return drawn(structure, draws, *args)

    monkeypatch.setattr(singh_engine, "_drawn_count_values", counting_drawn)
    monkeypatch.setattr(singh_engine, "CHUNK_ELEMENTS", 64)
    result = run()
    assert sizes == chunks
    assert _required_digest(result) == _required_digest(expected)


def test_one_generator_per_block_and_one_chain_per_count_target(monkeypatch):
    # Entry points are looked up at call time, so wrappers patched onto the
    # modules (as the benchmark's tracer does) see every call.
    from singh_audit import singh_engine, structures

    calls = {"generator": 0, "evaluate": 0, "beta": 0, "t_cdf": 0}
    lanes = []
    generator = SeededStream.generator
    evaluate, beta = singh_engine.evaluate_structure, structures.reg_inc_beta
    t_cdf = structures.student_t_cdf_array

    def counting_generator(self, child=None):
        calls["generator"] += 1
        return generator(self, child)

    def counting_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    def counting_beta(*args):
        calls["beta"] += 1
        return beta(*args)

    def counting_t_cdf(t, nu):
        calls["t_cdf"] += 1
        lanes.append(np.size(t))
        return t_cdf(t, nu)

    monkeypatch.setattr(SeededStream, "generator", counting_generator)
    monkeypatch.setattr(singh_engine, "evaluate_structure", counting_evaluate)
    monkeypatch.setattr(structures, "reg_inc_beta", counting_beta)
    monkeypatch.setattr(structures, "student_t_cdf_array", counting_t_cdf)
    m = 2 * BLOCK + 1

    # A count-reading structure: one chain over every count, whose two ends
    # are the only scalar reg_inc_beta calls, and no dataset rows at all.
    singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), 12, m, SeededStream(29))
    assert calls == {"generator": 3, "evaluate": 0, "beta": 2, "t_cdf": 0}

    # A moment kind on a normal target: each block draws its replicates'
    # means and sds (stream layout v5), and the t pivot's CDF runs once over
    # all m replicates.
    calls.update(generator=0, evaluate=0, beta=0)
    singh_curve(StructureSpec("student_t_pivot"), TargetSpec.normal(0.0, 1.0), 10, m, SeededStream(29))
    assert calls == {"generator": 3, "evaluate": 0, "beta": 0, "t_cdf": 1}
    assert lanes == [m]

    # On a mixture the rows are drawn in chunks (n = 10 gives 3,276 rows,
    # so each full block takes two and the last one), and a chunk only
    # keeps each row's mean and sd: still one t CDF call over m lanes. A
    # mixture block takes a second generator for its normals.
    calls.update(generator=0, t_cdf=0)
    lanes.clear()
    singh_curve(StructureSpec("student_t_pivot"), MIXTURE, 10, m, SeededStream(29))
    assert CHUNK_ELEMENTS // 10 == 3276
    assert calls == {"generator": 6, "evaluate": 0, "beta": 0, "t_cdf": 1}
    assert lanes == [m]

    # A moment structure on a count target reads each count's mean and
    # standard deviation in closed form: no rows either.
    calls.update(generator=0, t_cdf=0)
    singh_curve(
        StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.2, 2.0), 30, m, SeededStream(29)
    )
    assert calls == {"generator": 3, "evaluate": 0, "beta": 0, "t_cdf": 0}

    # empirical_predictive still evaluates each chunk: its bounds are rank
    # counts per element. n + 1 = 11 gives chunks of 2,978 rows.
    target = TargetSpec.normal(0.0, 1.0)
    singh_curve(StructureSpec("empirical_predictive"), target, 10, m, SeededStream(29))
    assert CHUNK_ELEMENTS // 11 == 2978
    assert calls["evaluate"] == 5


class _RecordingGenerator:
    """A block's generator that records each count draw: (method, size, drawn)."""

    def __init__(self, rng, record):
        self._rng, self._record = rng, record

    def binomial(self, n, p, size):
        drawn = self._rng.binomial(n, p, size)
        self._record.append(("binomial", size, drawn))
        return drawn

    def multinomial(self, size, pvals):
        drawn = self._rng.multinomial(size, pvals)
        self._record.append(("multinomial", size, drawn))
        return drawn

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def count_draws(monkeypatch):
    record = []
    generator = SeededStream.generator
    monkeypatch.setattr(
        SeededStream, "generator",
        lambda self, child=None: _RecordingGenerator(generator(self, child), record),
    )
    return record


def test_count_runs_sort_atoms_not_replicates(monkeypatch, count_draws):
    # A count run evaluates its at most n + 1 distinct counts once each,
    # and orders and repeats each value by its multiplicity: no np.unique
    # with an inverse index to gather m values with, and no sort of m
    # values. From 8 (n + 1) <= m on, a block draws the histogram of its
    # counts, n + 1 entries, and nothing of length m is drawn or sorted;
    # below that it draws one count per replicate, which it sorts in place
    # and splits into atoms in one run-start pass.
    from singh_audit import singh_engine

    seen = {"unique": [], "sort": [], "argsort": [], "lexsort": [], "counts": []}
    unique, sort, argsort, lexsort = np.unique, np.sort, np.argsort, np.lexsort
    evaluate = singh_engine.evaluate_counts

    def recording_unique(ar, *args, **kwargs):
        seen["unique"].append(np.size(ar))
        return unique(ar, *args, **kwargs)

    def recording_sort(a, *args, **kwargs):
        seen["sort"].append(np.size(a))
        return sort(a, *args, **kwargs)

    def recording_argsort(a, *args, **kwargs):
        seen["argsort"].append(np.size(a))
        return argsort(a, *args, **kwargs)

    def recording_lexsort(keys, *args, **kwargs):
        seen["lexsort"].append(np.size(keys[0]))
        return lexsort(keys, *args, **kwargs)

    def recording_evaluate(spec, truth, n, counts, success=1.0):
        seen["counts"].append(np.size(counts))
        return evaluate(spec, truth, n, counts, success)

    monkeypatch.setattr(np, "unique", recording_unique)
    monkeypatch.setattr(np, "sort", recording_sort)
    monkeypatch.setattr(np, "argsort", recording_argsort)
    monkeypatch.setattr(np, "lexsort", recording_lexsort)
    monkeypatch.setattr(singh_engine, "evaluate_counts", recording_evaluate)
    m = 2 * BLOCK + 1
    cases = [
        (StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), 12, m, 1),
        (StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), 12, m, 2),
        (StructureSpec("student_t_pivot"), TargetSpec.bernoulli(0.5), 30, m, 1),
        # 8 (n + 1) > m: one count per replicate.
        (StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), 1100, m, 2),
        # Chebyshev has no Beta shape, so n is unbounded: three replicates
        # must not cost O(n) memory.
        (StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.3, 2.0), 10**12, 3, 1),
    ]
    for spec, target, n, runs, columns in cases:
        for record in (*seen.values(), count_draws):
            record.clear()
        assert singh_curve(spec, target, n, runs, SeededStream(30)).m == runs
        atoms = seen["counts"]
        assert len(atoms) == 1 and atoms[0] <= min(n + 1, runs)
        assert seen["unique"] == seen["sort"] == seen["argsort"] == []
        assert seen["lexsort"] == atoms * columns
        sizes = [min(BLOCK, runs - start) for start in range(0, runs, BLOCK)]
        if 8 * (n + 1) <= runs:
            assert [(method, size) for method, size, _ in count_draws] == [
                ("multinomial", size) for size in sizes
            ]
            assert all(drawn.shape == (n + 1,) for _, _, drawn in count_draws)
        else:
            assert [(method, size) for method, size, _ in count_draws] == [
                ("binomial", size) for size in sizes
            ]


@pytest.mark.parametrize("n", [10, 200])
def test_count_run_draws_a_histogram_from_8_n_plus_1_replicates(count_draws, n):
    # The rule is 8 (n + 1) <= m exactly: one replicate short of it each
    # block draws its counts, at it each block draws their histogram.
    spec, target = StructureSpec("jeffreys"), TargetSpec.bernoulli(0.3)
    for m, method in ((8 * (n + 1) - 1, "binomial"), (8 * (n + 1), "multinomial")):
        count_draws.clear()
        curve = singh_curve(spec, target, n, m, SeededStream(35))
        assert {drawn for drawn, _, _ in count_draws} == {method}
        _, _, columns = _count_run_replay(spec, target, n, m, 35)
        assert expanded(curve).tobytes() == columns[0].tobytes()


@pytest.mark.parametrize("m", [1, 50])
def test_large_n_count_run_draws_counts_in_constant_memory(count_draws, m):
    # Chebyshev has no Beta shape, so n = 10**12 is in range: no histogram
    # of n + 1 counts can be held, and a run of m replicates draws m counts
    # in a few KB, whatever n is.
    spec, target, n = StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.3, 2.0), 10**12
    curve = singh_curve(spec, target, n, m, SeededStream(36))
    assert curve.m == m
    assert [(method, size) for method, size, _ in count_draws] == [("binomial", m)]
    count_draws.clear()
    tracemalloc.start()
    try:
        again = singh_curve(spec, target, n, m, SeededStream(36))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expanded(again).tobytes() == expanded(curve).tobytes()
    assert peak < PEAK_BOUND


def _traced_run(spec, n, m, seed):
    tracemalloc.start()
    try:
        curve = singh_curve(spec, TargetSpec.normal(4.0, 3.0), n, m, SeededStream(seed))
        return curve, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normal_moment_runs_hold_constant_memory_in_n():
    # Stream layout v5 draws a normal replicate's mean and sd, never its n
    # draws: Chebyshev, which has no bound on n, peaks at n = 10**8 within
    # twice its peak at n = 30, and so does the t pivot at its largest
    # accepted n, 20,001, whose curve stays uniform within DKW at 1e-3.
    m = 5000
    for spec, n in ((StructureSpec("chebyshev_ucl"), 10**8), (StructureSpec("student_t_pivot"), 20_001)):
        _, small = _traced_run(spec, 30, m, 38)
        curve, large = _traced_run(spec, n, m, 38)
        assert curve.m == m
        assert large <= 2 * small
    # The t pivot's curve at n = 20,001 against the diagonal, read exactly.
    ranks = np.arange(1, m + 1) / m
    column = expanded(curve)
    ks = max((ranks - column).max(), (column - (ranks - 1.0 / m)).max())
    assert ks <= dkw_epsilon(m, 1e-3)


@pytest.mark.parametrize("n, p", [
    (10, 0.5), (30, 0.05), (250, 0.01), (250, 0.5), (250, 0.99), (1000, 0.3),
])
def test_histogram_counts_follow_the_binomial_cdf(count_draws, n, p):
    # The histograms are drawn with _binomial_weights, the exact oracle's
    # weights, so they are held to scipy's Binomial CDF instead: each
    # block's histogram holds its size, and the run's count CDF stays
    # within the DKW band at delta = 1e-3.
    m = 3 * BLOCK + 5
    singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(p), n, m, SeededStream(37))
    assert [(method, size) for method, size, _ in count_draws] == [
        ("multinomial", size) for size in (BLOCK, BLOCK, BLOCK, 5)
    ]
    for _, size, histogram in count_draws:
        assert histogram.shape == (n + 1,) and (histogram >= 0).all() and histogram.sum() == size
    cdf = np.cumsum(sum(histogram for _, _, histogram in count_draws)) / m
    gap = np.abs(cdf - stats.binom.cdf(np.arange(n + 1), n, p)).max()
    assert gap <= dkw_epsilon(m, 1e-3)


def test_row_chunks_stay_within_the_element_budget(monkeypatch):
    # No (BLOCK, n) matrix: every drawn chunk holds at most CHUNK_ELEMENTS
    # samples, or a single row when one row is larger, and the chunks'
    # rows add up to m.
    shapes = []
    draw = TargetSpec.draw

    def recording_draw(self, rng, rows, count, normals=None):
        x = draw(self, rng, rows, count, normals)
        shapes.append(x.shape)
        return x

    monkeypatch.setattr(TargetSpec, "draw", recording_draw)
    # Chebyshev evaluates no Beta CDF, so n = 200,000 is inside its range.
    spec, target = StructureSpec("chebyshev_ucl"), TargetSpec.mixture([0.5, 0.5], [0.0, 3.0], [1.0, 1.0])
    curve = singh_curve(spec, target, 200_000, 3, SeededStream(34))
    assert curve.m == 3
    assert shapes == [(1, 200_000)] * 3
    # A moment kind on a normal target draws no rows at all (layout v5).
    shapes.clear()
    assert singh_curve(spec, TargetSpec.normal(0.0, 1.0), 200_000, 3, SeededStream(34)).m == 3
    assert shapes == []
    runs = [
        (spec, target, 30, BLOCK),
        (StructureSpec("student_t_pivot"), target, 10, 2 * BLOCK + 1),
        (StructureSpec("empirical_predictive"), target, 40, BLOCK + 7),
    ]
    for spec, target, n, m in runs:
        shapes.clear()
        assert singh_curve(spec, target, n, m, SeededStream(34)).m == m
        assert len(shapes) > 1
        assert sum(rows for rows, _ in shapes) == m
        assert all(rows * width <= CHUNK_ELEMENTS for rows, width in shapes)


COUNT_READERS = (
    StructureSpec("jeffreys"),
    StructureSpec("clopper_pearson"),
    StructureSpec("scaled_cbox", c=0.5),
    StructureSpec("scaled_cbox", c=3.0),
    StructureSpec("student_t_pivot"),
    StructureSpec("chebyshev_ucl"),
)


@given(
    spec=st.sampled_from(COUNT_READERS),
    n=st.one_of(st.integers(1, 60), st.sampled_from([600, 1100])),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    mean=st.sampled_from([None, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_count_columns_equal_sorted_per_replicate_bounds(spec, n, p, mean, seed, data):
    # Each sorted column of a count run holds, byte for byte, the bounds of
    # every drawn count evaluated on its own, sorted, as the run rebuilt
    # from numpy alone has them on either side of 8 (n + 1) <= m; a count
    # kind reads a bernoulli target, a moment kind either two-point family.
    # n = 600 and 1100 draw counts one by one across blocks.
    n = max(n, spec.min_n)
    m = data.draw(st.one_of(
        st.integers(1, 2 * BLOCK + 7), st.sampled_from([8 * (n + 1) - 1, 8 * (n + 1)])
    ))
    if mean is None or spec.reads_count or p == 0.0:
        target = TargetSpec.bernoulli(p)
    elif not math.isfinite(mean / p):
        with pytest.raises(DomainError, match="mean / p must be finite"):
            TargetSpec.scaled_bernoulli(p, mean)
        return
    else:
        target = TargetSpec.scaled_bernoulli(p, mean)
    stream = SeededStream(seed)
    try:
        _, _, columns = _count_run_replay(spec, target, n, m, seed)
    except DegenerateDataError:
        # A drawn zero-spread count refuses the t pivot's whole run.
        with pytest.raises(DegenerateDataError):
            singh_curve(spec, target, n, m, stream)
        return
    result = singh_curve(spec, target, n, m, stream)
    assert len(result.curves) == len(columns)
    for curve, column in zip(result.curves, columns):
        assert expanded(curve).tobytes() == column.tobytes()
        assert curve.never_count == np.isinf(column).sum()


@given(
    spec=st.sampled_from([s for s in COUNT_READERS if s.kind != "student_t_pivot"]),
    n=st.integers(1, 40),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    histogram=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_count_curve_evaluates_as_its_expanded_column(spec, n, p, histogram, seed, data):
    # A count curve holds its distinct atoms and their counts. Read at the
    # 1001-point alpha grid and at every finite atom, it gives the coverage
    # of its expanded column of m values, bit for bit, on the histogram
    # side (8 (n + 1) <= m) and the per-replicate side alike; so do m and
    # the never count.
    n = max(n, spec.min_n)
    side = st.integers(8 * (n + 1), 8 * (n + 1) + BLOCK) if histogram else st.integers(1, 8 * (n + 1) - 1)
    m = data.draw(side)
    target = TargetSpec.bernoulli(p) if spec.reads_count else TargetSpec.scaled_bernoulli(max(p, 0.1), 2.0)
    for curve in singh_curve(spec, target, n, m, SeededStream(seed)).curves:
        assert curve.counts is not None and (curve.required[1:] > curve.required[:-1]).all()
        column = ones(expanded(curve))
        alphas = np.concatenate((GRID, curve.required[np.isfinite(curve.required)]))
        assert eval_curve(curve, alphas).tobytes() == eval_curve(column, alphas).tobytes()
        assert (curve.m, curve.never_count) == (column.m, column.never_count)
        assert curve.m == m


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
        TargetSpec.normal(0.0, 1.0),
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
    # The structure, not the target, says that the truth is the next draw.
    band = singh_curve(
        StructureSpec("empirical_predictive"), TargetSpec.normal(0.0, 1.0), 5, 10, stream
    )
    assert band.m == 10
    # n and m are counts: a float or a bool is refused before any draw.
    for n, m in ((10.5, 10), (10, 100.5), (True, 10), (10, True), (10.0, 10)):
        with pytest.raises(DomainError, match="must be an integer"):
            singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), n, m, stream)
    curve = singh_curve(
        StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), np.int64(10), np.int32(20), stream
    )
    assert curve.m == 20
    with pytest.raises(DomainError, match="n must be an integer"):
        exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), 10.5)
    # The t pivot at n = 200,000 needs I_x(99999.5, 1/2) and exact Jeffreys
    # at n = 20,000 needs Beta(20000.5, 0.5): both past MAX_ACCURATE_SHAPE.
    with pytest.raises(DomainError, match="beyond the accurate range"):
        singh_curve(
            StructureSpec("student_t_pivot"), TargetSpec.normal(0.0, 1.0), 200_000, 3, stream
        )
    with pytest.raises(DomainError, match="beyond the accurate range"):
        exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.3), 20_000)


def test_chebyshev_run_records_never():
    # p=0.2, n=5: all-zero datasets (prob 0.32768) can never reach the mean
    curve = singh_curve(
        StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.2, 2.0), 5, 2000,
        SeededStream(26),
    )
    assert expanded(curve).size == curve.m == 2000
    assert np.isinf(expanded(curve)).sum() == curve.never_count > 0


# --- exact enumeration ---


def test_exact_requires_two_point_target():
    with pytest.raises(UnsupportedTargetError):
        exact_singh_curve(StructureSpec("student_t_pivot"), TargetSpec.normal(0.0, 1.0), 5)
    # The predictive band reads a next draw, which no count enumerates.
    for target in (TargetSpec.normal(0.0, 1.0), TargetSpec.bernoulli(0.4)):
        with pytest.raises(UnsupportedTargetError):
            exact_singh_curve(StructureSpec("empirical_predictive"), target, 5)


@pytest.mark.parametrize(
    "target",
    [TargetSpec.bernoulli(0.5), TargetSpec.bernoulli(0.0), TargetSpec.scaled_bernoulli(0.3, 2.0)],
    ids=["bernoulli_half", "bernoulli_zero", "scaled_bernoulli"],
)
def test_exact_refuses_the_t_pivot_up_front(target):
    # Every enumeration holds k = 0 and k = n, where the t pivot has zero
    # spread, so the pairing is refused before any count is evaluated,
    # even where those counts carry almost no mass (1.9e-9 at p = 0.5).
    with pytest.raises(UnsupportedTargetError, match="zero spread"):
        exact_singh_curve(StructureSpec("student_t_pivot"), target, 30)


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
    # all-zero dataset (mass 0.8^5) is never covered: one +inf atom, whose
    # weight is the curve's never count, read directly
    assert curve.m is None
    assert curve.weights.size == 6
    (inf_idx,) = np.nonzero(np.isinf(curve.required))
    assert inf_idx.tolist() == [5]
    assert curve.weights[5] == pytest.approx(0.8**5, abs=1e-15)
    assert curve.never_count == curve.weights[5] == 0.32768
    assert type(curve.never_count) is float
    assert (curve.required[:5] == 0.0).all()
    assert eval_curve(curve, 0.95) == pytest.approx(1.0 - 0.8**5, abs=1e-12)
    assert curve.never_fraction == curve.never_count


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
    # Past the exact oracle's n = 1000; the weights once came from
    # math.comb(n, k), which no longer converts to a float from n = 1030.
    n = 2000
    for p in (0.01, 0.3, 0.5, 0.999):
        ref = stats.binom.pmf(np.arange(n + 1), n, p)
        assert np.abs(_binomial_weights(n, p) - ref).max() <= 1e-12
    assert np.array_equal(_binomial_weights(4, 0.0), [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(_binomial_weights(4, 1.0), [0.0, 0.0, 0.0, 0.0, 1.0])


@given(
    n=st.one_of(st.integers(min_value=1, max_value=60), st.sampled_from([250, 1000])),
    rates=st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1e-310]), st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=150, deadline=None)
def test_binomial_weight_rows_equal_one_rate_at_a_time(n, rates):
    # One call weighs every rate of a chunk; each row must be the bytes its
    # rate gives alone, on both sides of the saddle-point size 40.
    rows = _binomial_weights(n, rates)
    assert rows.shape == (len(rates), n + 1)
    for row, p in zip(rows, rates):
        assert row.tobytes() == _binomial_weights(n, p).tobytes()


@pytest.mark.parametrize("n", [1000, 9999])
def test_binomial_weights_are_accurate_and_sum_to_one(n):
    # Loader's saddle-point form: each weight within 5e-12 relative of
    # scipy wherever it exceeds 1e-300, and their exact sum within 1e-14
    # of 1 (three lgammas per weight missed both: 2.6e-11 and 3.1e-12).
    k = np.arange(n + 1)
    for p in (0.01, 0.3, 0.5, 0.97):
        weights = _binomial_weights(n, p)
        ref = stats.binom.pmf(k, n, p)
        live = ref > 1e-300
        assert (np.abs(weights[live] - ref[live]) / ref[live]).max() <= 5e-12
        assert abs(math.fsum(weights) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_binomial_weights_match_scipy_up_to_a_million(n):
    # Anchored recurrence between saddle-point terms every 32 counts: each
    # weight within 1e-11 relative of scipy wherever it exceeds 1e-280, and
    # the running sum of the differences, the gap between the two CDFs,
    # within 1e-14 (8.5e-12 and 5.9e-15 at most at n = 10**6).
    k = np.arange(n + 1)
    for p in (1e-6, 0.01, 0.3, 0.5, 0.97):
        weights = _binomial_weights(n, p)
        ref = stats.binom.pmf(k, n, p)
        live = ref > 1e-280
        assert (np.abs(weights[live] - ref[live]) / ref[live]).max() <= 1e-11
        assert np.abs(np.cumsum(weights - ref)).max() <= 1e-14


def test_exact_runs_at_large_n():
    curve = exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.3), 2000)
    assert curve.m is None
    assert curve.weights.size == 2001
    assert curve.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_exact_runs_at_the_largest_n():
    # n = 1e4 is the largest enumeration: only a moment kind reaches it,
    # as a count kind's Beta shapes pass 1e4 first.
    n, p = 10**4, 0.3
    weights = _binomial_weights(n, p)
    assert np.abs(weights - stats.binom.pmf(np.arange(n + 1), n, p)).max() <= 1e-12
    curve = exact_singh_curve(StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(p, 2.0), n)
    assert curve.m is None
    assert curve.weights.size == n + 1
    assert np.array_equal(np.sort(curve.weights), np.sort(weights))


@pytest.mark.parametrize("n", [10**4 + 1, 10**9])
def test_exact_refuses_an_enumeration_it_cannot_hold(n):
    # Chebyshev has no Beta shape to bound n, but n + 1 weights at n = 1e9
    # would take 8 GB: the refusal comes before any of them is formed.
    spec, target = StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.3, 2.0)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exact enumeration needs n <= 10000"):
            exact_singh_curve(spec, target, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- metrics and classification ---


def test_max_deficit_reference_points():
    covered = curve_of(0.0, 0.0, 0.0)
    assert classify(covered).max_deficit == 0.0
    never_only = curve_of(never=2)
    assert classify(never_only).max_deficit == 1.0


def test_max_deficit_of_exact_clopper_pearson_is_nonpositive():
    band = exact_singh_curve(
        StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), 10
    )
    assert classify(band).max_deficit <= 1e-12


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


@pytest.mark.parametrize("exact", [False, True])
def test_classify_refuses_a_delta_outside_the_unit_interval(exact):
    # An exact curve has no DKW tube, but its delta is checked all the same.
    spec, target = StructureSpec("jeffreys"), TargetSpec.bernoulli(0.3)
    if exact:
        result = exact_singh_curve(spec, target, 10)
    else:
        result = singh_curve(spec, target, 10, 200, SeededStream(33))
    for delta in (5.0, -1.0, math.nan, 0.0, 1.0):
        with pytest.raises(DomainError, match="delta must lie in"):
            classify(result, delta)
    assert classify(result, 0.5).m == result.m


def test_classify_exact_curve_uses_rounding_tolerance():
    # An exact curve has no sampling noise: exact Jeffreys at n = 30 dips
    # 0.071 below the diagonal, which a DKW tube with m = n + 1 atoms
    # (epsilon 0.29) would have passed as favourable. It has no m.
    curve = exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.5), 30)
    report = classify(curve)
    assert report.classification == "overconfident"
    assert report.dkw_epsilon == EXACT_TOLERANCE
    assert report.max_deficit == pytest.approx(0.071, abs=0.001)
    assert report.m is None
    assert curve.weights.size == 31


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
