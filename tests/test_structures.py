import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

import reference_structures as reference
from singh_audit import structures
from singh_audit.special_math import DomainError, reg_inc_beta
from singh_audit.structures import (
    STRUCTURE_KINDS,
    DegenerateDataError,
    StructureSpec,
    chebyshev_ucl,
    evaluate_counts,
    evaluate_structure,
)

THETAS = np.linspace(0.0, 1.0, 101)
T_PIVOT = StructureSpec("student_t_pivot")
JEFFREYS = StructureSpec("jeffreys")
CLOPPER_PEARSON = StructureSpec("clopper_pearson")
PREDICTIVE = StructureSpec("empirical_predictive")
CHEBYSHEV = StructureSpec("chebyshev_ucl")


def binary(k, n):
    return np.concatenate((np.ones(k), np.zeros(n - k)))


def one(spec, truth, samples):
    """(lower, upper) of ``spec`` on a single dataset, through the batched kernel."""
    lower, upper = evaluate_structure(spec, truth, np.asarray(samples, dtype=np.float64)[None, :])
    return float(lower[0]), float(upper[0])


# --- structure specs ---


def test_structure_spec_validation():
    with pytest.raises(DomainError):
        StructureSpec("mystery")
    with pytest.raises(DomainError, match="c must be positive"):
        StructureSpec("scaled_cbox")
    with pytest.raises(DomainError, match="c must be positive"):
        StructureSpec("scaled_cbox", c=-1.0)
    with pytest.raises(DomainError):
        StructureSpec("jeffreys", c=2.0)


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_only_the_predictive_band_reads_a_next_draw(kind):
    spec = StructureSpec(kind, c=1.5 if kind == "scaled_cbox" else None)
    assert spec.reads_next_draw == (kind == "empirical_predictive")


def test_structure_spec_shape():
    assert StructureSpec("student_t_pivot").min_n == 2
    assert StructureSpec("chebyshev_ucl").min_n == 2
    assert StructureSpec("jeffreys").min_n == 1
    assert StructureSpec("jeffreys").is_precise
    assert not StructureSpec("clopper_pearson").is_precise


# --- student_t_pivot ---


def test_t_pivot_at_sample_mean_is_half():
    assert one(T_PIVOT, 2.0, [1.0, 2.0, 3.0]) == (0.5, 0.5)


def test_t_pivot_known_value():
    # {0, 2}: mean 1, sd sqrt(2), so t = 1 on 1 df (Cauchy): 3/4.
    lower, upper = one(T_PIVOT, 2.0, [0.0, 2.0])
    assert lower == upper == pytest.approx(0.75, abs=1e-13)


def test_t_pivot_degenerate_data():
    with pytest.raises(DegenerateDataError):
        one(T_PIVOT, 0.0, [1.0])
    with pytest.raises(DegenerateDataError):
        one(T_PIVOT, 0.0, [2.0, 2.0, 2.0])


# --- binomial-count structures ---


def test_binary_data_required():
    d = [0.0, 0.5, 1.0]
    for spec in (JEFFREYS, CLOPPER_PEARSON, StructureSpec("scaled_cbox", c=1.0)):
        with pytest.raises(DomainError):
            one(spec, 0.4, d)


def test_jeffreys_matches_posterior_cdf():
    for n in (1, 4, 10):
        for k in range(n + 1):
            for theta in (0.1, 0.4, 0.5, 0.9):
                lower, upper = one(JEFFREYS, theta, binary(k, n))
                assert lower == upper == pytest.approx(
                    sp.betainc(k + 0.5, n - k + 0.5, theta), abs=1e-12
                )


def test_clopper_pearson_no_successes():
    lower, upper = one(CLOPPER_PEARSON, 0.1, binary(0, 10))
    assert lower == pytest.approx(1.0 - 0.9**10, abs=1e-12)
    assert upper == 1.0


def test_clopper_pearson_all_successes():
    lower, upper = one(CLOPPER_PEARSON, 0.4, binary(3, 3))
    assert lower == 0.0
    assert upper == pytest.approx(0.4**3, abs=1e-15)


@pytest.mark.parametrize("spec", [CLOPPER_PEARSON, StructureSpec("scaled_cbox", 0.5),
                                  StructureSpec("scaled_cbox", 3.0)])
def test_cbox_point_masses_mirror_at_both_ends(spec):
    # theta = 0 yields k = 0 and theta = 1 yields k = n; the degenerate bound
    # is a point mass there, so both ends read exactly (0, 1)
    for n in (1, 2, 10, 1000):
        for theta, k in ((0.0, 0), (1.0, n)):
            lower, upper = evaluate_counts(spec, theta, n, [k])
            assert (lower.tolist(), upper.tolist()) == ([0.0], [1.0])
            assert one(spec, theta, binary(k, n)) == (0.0, 1.0)


@pytest.mark.parametrize("n", range(1, 13))
def test_clopper_pearson_band_dominance_exhaustive(n):
    for k in range(n + 1):
        lowers, uppers = evaluate_counts(CLOPPER_PEARSON, THETAS, n, np.full(THETAS.size, k))
        assert (uppers >= lowers).all()
        # both bound curves rise from 0 to 1 monotonically in theta
        assert (np.diff(lowers) >= -1e-15).all()
        assert (np.diff(uppers) >= -1e-15).all()
        assert lowers[0] == 0.0 and uppers[-1] == 1.0


def test_scaled_cbox_width_monotone_in_c():
    for k, n in ((0, 8), (3, 8), (8, 8)):
        for theta in (0.2, 0.5, 0.8):
            bounds = [one(StructureSpec("scaled_cbox", c), theta, binary(k, n))
                      for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
            widths = [upper - lower for lower, upper in bounds]
            assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))


def test_scaled_cbox_c_one_is_clopper_pearson():
    d = binary(4, 9)
    for theta in (0.1, 0.5, 0.9):
        assert one(StructureSpec("scaled_cbox", 1.0), theta, d) == one(CLOPPER_PEARSON, theta, d)


def test_scaled_cbox_rejects_bad_c():
    for c in (0.0, math.inf):
        with pytest.raises(DomainError, match="c must be positive"):
            StructureSpec("scaled_cbox", c)


# --- empirical_predictive ---


def test_predictive_counts():
    d = [1.0, 2.0, 3.0]
    assert one(PREDICTIVE, 2.5, d) == (0.5, 0.75)
    assert one(PREDICTIVE, 0.0, d) == (0.0, 0.25)
    assert one(PREDICTIVE, 9.0, d) == (0.75, 1.0)


def test_predictive_tie_collapses_width():
    assert one(PREDICTIVE, 2.0, [1.0, 2.0, 3.0]) == (0.5, 0.5)


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=30,
        unique=True,
    ),
    x=st.floats(min_value=-2e6, max_value=2e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_predictive_width_off_sample_points(values, x):
    if x in values:
        return
    n = len(values)
    lower, upper = one(PREDICTIVE, x, values)
    assert upper - lower == pytest.approx(1.0 / (n + 1), abs=1e-15)


def test_predictive_values_are_grid_fractions():
    d = [4.0, 1.0, 3.0, 2.0]
    grid = {k / 5.0 for k in range(6)}
    for x in (-1.0, 1.0, 2.5, 3.0, 10.0):
        assert set(one(PREDICTIVE, x, d)) <= grid


# --- chebyshev ---


def test_chebyshev_ucl_known_value():
    # alpha = 0.2 gives multiplier sqrt(1/0.8 - 1) = 1/2.
    d = np.array([0.0, 2.0])
    assert chebyshev_ucl(0.2, d) == pytest.approx(1.5, abs=1e-12)
    assert chebyshev_ucl(0.0, d) == pytest.approx(1.0, abs=1e-12)


def test_chebyshev_ucl_validation():
    d = np.array([0.0, 2.0])
    with pytest.raises(DomainError):
        chebyshev_ucl(1.0, d)
    with pytest.raises(DomainError):
        chebyshev_ucl(-0.1, d)
    with pytest.raises(DomainError):
        chebyshev_ucl(0.5, np.array([1.0]))
    with pytest.raises(DomainError):
        chebyshev_ucl(0.5, np.array([[0.0, 2.0]]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="samples must be finite"):
            chebyshev_ucl(0.5, [1.0, bad])


def test_chebyshev_inversion_known_value():
    lower, upper = one(CHEBYSHEV, 2.0, [0.0, 2.0])
    assert lower == upper == pytest.approx(0.5, abs=1e-12)


def test_chebyshev_covered_at_zero_confidence():
    assert one(CHEBYSHEV, 0.5, [0.0, 2.0]) == (0.0, 0.0)


def test_chebyshev_never_covered_requires_inf():
    assert one(CHEBYSHEV, 3.0, [2.0, 2.0]) == (math.inf, math.inf)
    # at or below the degenerate mean is still covered for free
    assert one(CHEBYSHEV, 2.0, [2.0, 2.0]) == (0.0, 0.0)


@given(
    values=st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=20,
    ),
    bump=st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_chebyshev_round_trip(values, bump):
    d = np.array(values)
    if d.std(ddof=1) == 0.0:
        return
    mu = float(d.mean()) + bump
    alpha, _ = one(CHEBYSHEV, mu, d)
    # Near alpha = 1 the inverse map 1/(1 - alpha) sheds precision faster
    # than the 1e-9 round-trip budget, so the guarantee is scoped away from
    # the boundary.
    if alpha > 1.0 - 1e-5:
        return
    assert chebyshev_ucl(alpha, d) == pytest.approx(mu, abs=1e-9)


# --- batched evaluation against the scalar reference ---


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_rows_match_scalar(spec, truths, samples):
    """Batched bounds equal the scalar reference row for row, or both raise.

    Count kinds are held to the reference within 1e-14 instead (see below).
    """
    try:
        refs = [reference.structure(spec, t, row) for t, row in zip(truths, samples)]
    except DegenerateDataError:
        truth = truths if spec.kind == "empirical_predictive" else truths[0]
        with pytest.raises(DegenerateDataError):
            evaluate_structure(spec, truth, samples)
        return
    truth = np.array(truths) if spec.kind == "empirical_predictive" else truths[0]
    lower, upper = evaluate_structure(spec, truth, samples)
    if spec.reads_count:
        # A count kind sums a chain of binomial terms instead of calling
        # reg_inc_beta per count: each row equals its count evaluated
        # alone, bit for bit, and the scalar reference to rounding.
        counts = samples.sum(axis=1).astype(np.int64)
        alone = [evaluate_counts(spec, truth, samples.shape[1], [k]) for k in counts]
        assert bits(lower) == bits([lo[0] for lo, _ in alone])
        assert bits(upper) == bits([up[0] for _, up in alone])
        assert np.abs(lower - [ref[0] for ref in refs]).max() <= 1e-14
        assert np.abs(upper - [ref[1] for ref in refs]).max() <= 1e-14
        return
    assert bits(lower) == bits([ref[0] for ref in refs])
    assert bits(upper) == bits([ref[1] for ref in refs])


# Few distinct values, so rows tie with each other and with the truth.
TIED = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.25])
REALS = st.one_of(TIED, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
PROBS_OR_ENDS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)
ALL_SPECS = [
    StructureSpec("student_t_pivot"),
    StructureSpec("jeffreys"),
    StructureSpec("clopper_pearson"),
    StructureSpec("scaled_cbox", c=0.5),
    StructureSpec("scaled_cbox", c=3.0),
    StructureSpec("empirical_predictive"),
    StructureSpec("chebyshev_ucl"),
]


@given(spec=st.sampled_from(ALL_SPECS), data=st.data())
@settings(max_examples=400, deadline=None)
def test_batched_rows_equal_scalar_structure(spec, data):
    n = data.draw(st.integers(min_value=2, max_value=12), label="n")
    rows = data.draw(st.integers(min_value=1, max_value=8), label="rows")
    values = st.sampled_from([0.0, 1.0]) if spec.reads_count else REALS
    samples = np.array(
        data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=rows, max_size=rows))
    )
    if data.draw(st.booleans(), label="zero-spread row"):
        samples[data.draw(st.integers(0, rows - 1))] = samples[0, 0]
    if spec.kind == "empirical_predictive":
        truths = data.draw(st.lists(REALS, min_size=rows, max_size=rows))
    elif spec.reads_count:
        truths = [data.draw(PROBS_OR_ENDS)] * rows
    else:
        truths = [data.draw(REALS)] * rows
    assert_rows_match_scalar(spec, truths, samples)


def test_batched_zero_spread_rows():
    samples = np.array([[1.0, 2.0, 4.0], [3.0, 3.0, 3.0]])
    # The t pivot has no value on a zero-spread row, so the whole call raises.
    with pytest.raises(DegenerateDataError):
        evaluate_structure(StructureSpec("student_t_pivot"), 3.5, samples)
    # Chebyshev: a constant row below the truth never covers it.
    lower, upper = evaluate_structure(StructureSpec("chebyshev_ucl"), 3.5, samples)
    assert lower[1] == upper[1] == math.inf
    assert lower[0] == reference.chebyshev_required_confidence(3.5, samples[0])[0]
    assert evaluate_structure(StructureSpec("chebyshev_ucl"), 3.0, samples)[0][1] == 0.0


def test_batched_predictive_ties_land_in_both_counts():
    samples = np.array([[1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 2.0, 2.0]])
    lower, upper = evaluate_structure(StructureSpec("empirical_predictive"), [2.0, 2.0], samples)
    # n + 1 = 5: row one has 3 values <= 2 and 3 values >= 2, row two 4 and 4.
    assert lower.tolist() == [2 / 5, 1 / 5]
    assert upper.tolist() == [3 / 5, 4 / 5]
    assert_rows_match_scalar(StructureSpec("empirical_predictive"), [2.0, 2.0], samples)


COUNT_SPECS = [spec for spec in ALL_SPECS if spec.reads_count]
# Every count kind's chain layout: one half-integer chain, one integer
# chain whose two CDFs share it, and two chains for a non-integer c, one
# of whose anchors then has both shapes at least 20.
CHAIN_SPECS = [JEFFREYS, CLOPPER_PEARSON] + [StructureSpec("scaled_cbox", c=c) for c in (0.5, 3.0, 20.5)]
# Truths that take their own branches: the ends, which read 0 and 1; the
# median, where equal shapes read exactly 1/2; a subnormal rate, whose
# saddle-point means underflow.
TRUTHS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1e-310]), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)
# Binomial terms of size below 40 take three lgammas, larger ones Loader's
# saddle-point form.
SIZES = st.one_of(st.integers(min_value=1, max_value=60), st.sampled_from([250, 1000]))


def test_counts_refuse_other_kinds_and_bad_counts():
    # Only the predictive band, which reads a next draw, has no count form,
    # and a count kind needs binary data, a success value of 1.
    with pytest.raises(DomainError):
        evaluate_counts(StructureSpec("empirical_predictive"), 0.4, 7, np.arange(8))
    for spec in COUNT_SPECS:
        with pytest.raises(DomainError):
            evaluate_counts(spec, 0.4, 7, np.arange(8), success=2.5)
    for spec in ALL_SPECS:
        if spec.kind == "empirical_predictive":
            continue
        # Out of range, non-integral (no truncation to 2) or non-finite.
        for counts in ([-1], [8], [2.5], [math.nan], [math.inf]):
            with pytest.raises(DomainError):
                evaluate_counts(spec, 0.4, 7, counts)
    for spec in COUNT_SPECS:
        # Also beside a truth at an end, whose chain reads no Beta function.
        for theta in (-0.1, 1.5, [0.0, 1.5], [1.0, -0.1]):
            with pytest.raises(DomainError):
                evaluate_counts(spec, theta, 7, [3, 4])
    for spec in ALL_SPECS:
        if spec.kind == "empirical_predictive":
            continue
        for theta in (math.nan, math.inf, [0.4, math.nan]):
            with pytest.raises(DomainError, match="truth must be finite"):
                evaluate_counts(spec, theta, 7, [3, 4])
    with pytest.raises(DomainError, match="success must be finite"):
        evaluate_counts(CHEBYSHEV, 0.4, 7, [3], success=math.nan)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: f"{spec.kind}-{spec.c}")
def test_rows_refuse_non_finite_samples_and_truths(spec):
    # NaN would otherwise pass as a nan bound, a draw that is neither below
    # nor above the next one, or a probability outside [0, 1].
    rows = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    for bad in (math.nan, math.inf, -math.inf):
        samples = rows.copy()
        samples[1, 2] = bad
        with pytest.raises(DomainError, match="samples must be finite"):
            evaluate_structure(spec, 0.4, samples)
        with pytest.raises(DomainError, match="truth must be finite"):
            evaluate_structure(spec, bad, rows)
        with pytest.raises(DomainError, match="truth must be finite"):
            evaluate_structure(spec, [0.4, bad], rows)


MOMENT_NS = (2, 5, 30, 250, 1000)
MOMENT_PS = (0.05, 0.2, 0.3, 0.5, 0.9)


def two_point_cases():
    """(n, p, mean) of a scaled Bernoulli of mean 2 and of a plain Bernoulli (mean p)."""
    for n in MOMENT_NS:
        for p in MOMENT_PS:
            for mean in (2.0, p):
                yield n, p, mean


def test_chebyshev_counts_match_exact_fractions():
    # Mean, variance and z^2 of the two-point dataset in exact rationals
    # from the float mean, p and n; then z^2 / (z^2 + 1) is exact.
    too_far = []
    for n, p, mean in two_point_cases():
        v = Fraction(mean) / Fraction(p)
        ks = np.arange(1, n)
        ours, _ = evaluate_counts(CHEBYSHEV, mean, n, ks, success=mean / p)
        for k, value in zip(ks.tolist(), ours.tolist()):
            xbar = k * v / n
            if Fraction(mean) <= xbar:
                exact = Fraction(0)
            else:
                var = v * v * k * (n - k) / (n * (n - 1))
                z2 = (Fraction(mean) - xbar) ** 2 * n / var
                exact = z2 / (z2 + 1)
            if abs(Fraction(value) - exact) > Fraction(1, 10**14):
                too_far.append((n, p, mean, k, value))
    assert not too_far


@pytest.mark.parametrize("spec", [T_PIVOT, CHEBYSHEV], ids=lambda spec: spec.kind)
def test_moment_counts_match_two_point_rows(spec):
    # The closed-form moments of k successes against the row kernel on the
    # dataset of k values v followed by n - k zeros. Both paths round the
    # mean just below the truth (mean 2, p = 0.9, k near 0.9 n), where the
    # cancellation in truth - mean costs each up to about 1e-14 against
    # high-precision values at n = 1000; they differ by at most 1.9e-14.
    for n, p, mean in two_point_cases():
        v = mean / p
        ks = np.arange(1, n)
        rows = np.where(np.arange(n) < ks[:, None], v, 0.0)
        lower, upper = evaluate_counts(spec, mean, n, ks, success=v)
        row_lower, row_upper = evaluate_structure(spec, mean, rows)
        assert np.abs(lower - row_lower).max() <= 2.5e-14
        assert np.abs(upper - row_upper).max() <= 2.5e-14


def test_moment_counts_at_the_ends():
    # No spread at k = 0 or n: Chebyshev needs +inf below the truth and
    # nothing above it, and the t pivot has no information.
    for n, p, mean in two_point_cases():
        lower, upper = evaluate_counts(CHEBYSHEV, mean, n, [0, n], success=mean / p)
        assert lower.tolist() == upper.tolist() == [math.inf, 0.0]
        for k in (0, n):
            with pytest.raises(DegenerateDataError):
                evaluate_counts(T_PIVOT, mean, n, [k], success=mean / p)
    # At p = 1 every draw equals the truth, so Chebyshev covers at level 0.
    # Five copies of this value sum to a mean one ulp below it (and 5 v / 5
    # rounds the same way); the count n reads v itself.
    mean = 1.8230225674428036
    assert 5 * mean / 5 < mean
    assert evaluate_counts(CHEBYSHEV, mean, 5, [5], success=mean)[0].tolist() == [0.0]


def exact_upper_tails(theta, total):
    """P(Bin(total - 1, theta) >= a) for a = 1..total-1, exactly at the float theta.

    That is I_theta(a, total - a) for integer shapes. Returned as integer
    numerators, index a - 1, over the common denominator it also returns.
    """
    num, den = theta.as_integer_ratio()
    size = total - 1
    tails, acc = [], 0
    for j in range(size, 0, -1):
        acc += math.comb(size, j) * num**j * (den - num) ** (size - j)
        tails.append(acc)
    return tails[::-1], den**size


@pytest.mark.parametrize("spec, c", [(CLOPPER_PEARSON, 1), (StructureSpec("scaled_cbox", c=3.0), 3)],
                         ids=["clopper_pearson", "cbox_c3"])
def test_integer_shape_counts_match_exact_fractions(spec, c):
    # With integer shapes every bound is a binomial upper tail, exact in
    # integer arithmetic at the float theta. Absolute error at most 1e-14
    # everywhere, relative error at most 1e-12 wherever the tail exceeds
    # 1e-300 (the deep tails, where the old scalar loop was itself ~7e3 ulp
    # off). For a value p / q against the exact tail t / den the error is
    # |p den - t q| / (q den).
    too_far = []
    for n in (1, 7, 30, 39, 40, 200):
        for theta in (1e-3, 0.05, 0.4, 0.5, 0.68, 0.92, 0.999):
            lower, upper = evaluate_counts(spec, theta, n, np.arange(n + 1))
            tails, den = exact_upper_tails(theta, n + c)
            for k in range(n + 1):
                first = 0 if k == n else tails[k + c - 1]
                second = den if k == 0 else tails[k - 1]
                for ours, exact in ((lower[k], min(first, second)), (upper[k], max(first, second))):
                    p, q = float(ours).as_integer_ratio()
                    gap = abs(p * den - exact * q)
                    if gap * 10**14 > q * den or (exact * 10**300 > den and gap * 10**12 > exact * q):
                        too_far.append((n, theta, k, float(ours)))
    assert not too_far


# A non-integer c >= 20 is the one engine path into reg_inc_beta's front
# factor for two shapes of at least 20: c = 20.5 reaches it once n >= 20.
@pytest.mark.parametrize("spec", COUNT_SPECS + [StructureSpec("scaled_cbox", c=20.5)],
                         ids=lambda spec: f"{spec.kind}-{spec.c}")
def test_counts_match_scipy_up_to_shape_1e4(spec):
    c = {"jeffreys": 0.5, "clopper_pearson": 1.0}.get(spec.kind, spec.c)
    # The largest n keeps the shapes n + c within 1e4.
    for n in (10, 250, 1000, min(9997, math.floor(1e4 - c))):
        k = np.arange(n + 1)
        for theta in (1e-3, 0.05, 0.4, 0.5, 0.92, 0.999):
            lower, upper = evaluate_counts(spec, theta, n, k)
            if spec.kind == "jeffreys":
                ref_lower = ref_upper = sp.betainc(k + 0.5, n - k + 0.5, theta)
            else:
                first = np.where(k == n, 0.0, sp.betainc(k + c, np.maximum(n - k, 1), theta))
                second = np.where(k == 0, 1.0, sp.betainc(np.maximum(k, 1), n - k + c, theta))
                ref_lower, ref_upper = np.minimum(first, second), np.maximum(first, second)
            assert np.abs(lower - ref_lower).max() <= 1e-12
            assert np.abs(upper - ref_upper).max() <= 1e-12


@pytest.mark.parametrize("spec", COUNT_SPECS, ids=lambda spec: f"{spec.kind}-{spec.c}")
def test_count_bounds_do_not_depend_on_the_other_counts(spec):
    # Each theta evaluates the whole chain k = 0..n and indexes it, so a
    # count alone, within 0..n, or next to another theta reads the same bits.
    n = 30
    for theta in (0.0, 0.05, 0.4, 0.5, 0.68, 1.0):
        lower, upper = evaluate_counts(spec, theta, n, np.arange(n + 1))
        for k in range(n + 1):
            alone = evaluate_counts(spec, theta, n, [k])
            assert bits(alone[0]) == bits(lower[k:k + 1])
            assert bits(alone[1]) == bits(upper[k:k + 1])
        mixed = evaluate_counts(spec, [0.9, theta], n, [3, n // 2])
        assert bits(mixed[0][1:]) == bits(lower[n // 2:n // 2 + 1])
        assert bits(mixed[1][1:]) == bits(upper[n // 2:n // 2 + 1])


@given(spec=st.sampled_from(CHAIN_SPECS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_counts_under_many_truths_equal_one_truth_at_a_time(spec, data):
    # One call chains all its distinct truths at once; each truth's bounds
    # at every count must be the bytes a call with that truth alone gives.
    n = data.draw(SIZES, label="n")
    truths = data.draw(st.lists(TRUTHS, min_size=1, max_size=6), label="truths")
    counts = np.arange(n + 1)
    lower, upper = evaluate_counts(spec, np.repeat(truths, n + 1), n, np.tile(counts, len(truths)))
    for theta, row_lower, row_upper in zip(truths, lower.reshape(-1, n + 1), upper.reshape(-1, n + 1)):
        alone = evaluate_counts(spec, theta, n, counts)
        assert bits(row_lower) == bits(alone[0])
        assert bits(row_upper) == bits(alone[1])


@pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
def test_integer_c_upper_bound_is_the_lower_bound_c_counts_down(c):
    # One chain holds both CDFs: Beta(k, n - k + c) at k is Beta(k' + c,
    # n - k') at k' = k - c, the same array element.
    spec = CLOPPER_PEARSON if c == 1.0 else StructureSpec("scaled_cbox", c=c)
    shift = int(c)
    for n in (5, 30, 1000):
        for theta in (1e-3, 0.3, 0.5, 0.92):
            lower, upper = evaluate_counts(spec, theta, n, np.arange(n + 1))
            assert bits(upper[shift:]) == bits(lower[:n + 1 - shift])


@pytest.mark.parametrize("spec", COUNT_SPECS, ids=lambda spec: f"{spec.kind}-{spec.c}")
def test_count_bounds_lie_in_the_unit_interval(spec):
    for n in (1, 30, 1000):
        for theta in (0.0, 1e-3, 0.68, 0.92, 1.0):
            lower, upper = evaluate_counts(spec, theta, n, np.arange(n + 1))
            assert (lower >= 0.0).all() and (upper <= 1.0).all()
            assert (lower <= upper).all()


@pytest.mark.parametrize("spec, chains", [(JEFFREYS, 1), (CLOPPER_PEARSON, 1),
                                          (StructureSpec("scaled_cbox", c=3.0), 1),
                                          (StructureSpec("scaled_cbox", c=0.5), 2)],
                         ids=["jeffreys", "clopper_pearson", "cbox_c3", "cbox_c05"])
def test_counts_call_reg_inc_beta_at_most_twice_per_chain(monkeypatch, spec, chains):
    # Only the two ends of a chain are scalar reg_inc_beta anchors; the
    # counts between them are cumulative sums of binomial terms.
    calls = []

    def counting(x, a, b):
        calls.append((x, a, b))
        return reg_inc_beta(x, a, b)

    monkeypatch.setattr(structures, "reg_inc_beta", counting)
    for n in (1, 50, 1000):
        calls.clear()
        evaluate_counts(spec, 0.3, n, np.arange(n + 1))
        assert len(calls) <= 2 * chains


def test_batched_evaluation_validation():
    with pytest.raises(DomainError):
        evaluate_structure(StructureSpec("student_t_pivot"), 0.0, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        evaluate_structure(StructureSpec("jeffreys"), 0.4, np.array([[1.0, 0.5]]))
    with pytest.raises(DegenerateDataError):
        evaluate_structure(StructureSpec("student_t_pivot"), 0.0, np.array([[1.0]]))
    with pytest.raises(DomainError):
        evaluate_structure(StructureSpec("chebyshev_ucl"), 0.0, np.array([[1.0]]))


def test_structure_values_monotone_in_theta():
    # every structure's bounds rise with the candidate value; one row per
    # candidate value exercises per-row truths
    d = binary(2, 6)
    for spec in (
        StructureSpec("jeffreys"),
        StructureSpec("clopper_pearson"),
        StructureSpec("scaled_cbox", c=0.5),
        StructureSpec("scaled_cbox", c=3.0),
    ):
        lower, upper = evaluate_structure(spec, THETAS, np.tile(d, (THETAS.size, 1)))
        assert (np.diff(lower) >= -1e-15).all()
        assert (np.diff(upper) >= -1e-15).all()
    cont = np.array([1.0, 2.0, 4.0])
    xs = np.linspace(-10.0, 10.0, 81)
    for spec in (StructureSpec("student_t_pivot"), StructureSpec("empirical_predictive")):
        lower, upper = evaluate_structure(spec, xs, np.tile(cont, (xs.size, 1)))
        assert (np.diff(lower) >= -1e-15).all()
        assert (np.diff(upper) >= -1e-15).all()
