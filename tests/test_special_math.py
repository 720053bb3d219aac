import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from singh_audit.special_math import (
    DomainError,
    SeededStream,
    _beta_cf_array,
    _each,
    _ln_front,
    binomial_pmf,
    reg_inc_beta,
    student_t_cdf,
    student_t_cdf_array,
)

SHAPES = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
PROBS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# --- regularized incomplete beta ---


def test_beta_matches_reference_on_random_grid():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        a = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e4))))
        b = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e4))))
        x = float(rng.random())
        assert abs(reg_inc_beta(x, a, b) - sp.betainc(a, b, x)) <= 1e-12


def test_beta_matches_reference_near_mean_large_shapes():
    # The delicate region: both shapes huge and x within a few SD of the
    # Beta mean, where naive prefactor arithmetic loses ~1e-11. The mean
    # and its two neighbouring doubles are where x (a + b) - a cancels most.
    rng = np.random.default_rng(12)
    for _ in range(3000):
        a = float(rng.uniform(50.0, 1e4))
        b = float(rng.uniform(50.0, 1e4))
        mean = a / (a + b)
        sd = math.sqrt(mean * (1 - mean) / (a + b + 1))
        near = float(np.clip(rng.normal(mean, 4 * sd), 1e-9, 1 - 1e-9))
        for x in (near, mean, math.nextafter(mean, 0.0), math.nextafter(mean, 1.0)):
            assert abs(reg_inc_beta(x, a, b) - sp.betainc(a, b, x)) <= 1e-12


def test_beta_matches_reference_half_integer_shapes():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        n = int(rng.integers(1, 10_000))
        k = int(rng.integers(0, n + 1))
        a, b = k + 0.5, n - k + 0.5
        x = float(rng.random())
        assert abs(reg_inc_beta(x, a, b) - sp.betainc(a, b, x)) <= 1e-12


@pytest.mark.parametrize("x", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
def test_beta_uniform_case_is_identity(x):
    assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-15)


def test_beta_closed_form_geometric_tail():
    # I_x(1, b) = 1 - (1 - x)^b
    assert reg_inc_beta(0.1, 1.0, 10.0) == pytest.approx(1.0 - 0.9**10, abs=1e-14)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.5, 12.0, 700.0])
def test_beta_symmetric_median_is_exact(a):
    assert reg_inc_beta(0.5, a, a) == 0.5


def test_beta_endpoints():
    assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
def test_beta_degenerate_a_is_point_mass_at_zero(x):
    assert reg_inc_beta(x, 0.0, 5.0) == 1.0


def test_beta_degenerate_b_is_point_mass_at_one():
    assert reg_inc_beta(0.0, 5.0, 0.0) == 0.0
    assert reg_inc_beta(0.999, 5.0, 0.0) == 0.0
    assert reg_inc_beta(1.0, 5.0, 0.0) == 1.0


def test_beta_rejects_bad_shapes():
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, -1.0, 2.0)
    with pytest.raises(DomainError):
        reg_inc_beta(1.5, 2.0, 2.0)
    # Non-finite shapes are refused up front, not run into the continued fraction.
    for a, b in ((math.nan, 2.0), (2.0, math.inf), (math.inf, 2.0)):
        with pytest.raises(DomainError, match="shape parameters"):
            reg_inc_beta(0.3, a, b)


def test_beta_refuses_unconverged_continued_fraction():
    # Beta(1e6, 2e6) near its mean needs more continued-fraction terms than
    # the iteration cap; an error replaces a silently truncated value.
    with pytest.raises(DomainError, match="did not converge"):
        reg_inc_beta(1.0 / 3.0, 1e6, 2e6)


@given(a=SHAPES, b=SHAPES, x1=PROBS, x2=PROBS)
@settings(max_examples=200, deadline=None)
def test_beta_monotone_in_x(a, b, x1, x2):
    lo, hi = sorted((x1, x2))
    assert reg_inc_beta(lo, a, b) <= reg_inc_beta(hi, a, b) + 1e-15


@given(a=SHAPES, b=SHAPES, k=st.integers(min_value=1, max_value=2**20 - 1))
@settings(max_examples=200, deadline=None)
def test_beta_reflection_symmetry(a, b, k):
    # Dyadic x keeps 1 - x exactly representable, so the identity is testable
    # without smuggling in complement-rounding error.
    x = k / 2.0**20
    total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
    assert total == pytest.approx(1.0, abs=5e-13)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# Degrees of freedom on both sides of the shape swap (nu <= 1 puts
# a = nu/2 at or below b = 1/2) and of the front factor's Stirling
# threshold a = 20, up to the t pivot's limit nu = 20,000, plus the shapes
# (nu/2, 1/2) once held to the scalar incomplete beta directly.
T_NUS = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1.0, max_value=39.99),
    st.floats(min_value=40.0, max_value=20_000.0),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([1, 9, 40, 39999]),
)
# Bulk values run both sides of the continued fraction; the wide range
# holds squares that overflow to inf (|t| > 1.3e154) or underflow to 0.
T_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, math.inf, -math.inf]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-1e200, max_value=1e200),
)


@example(ts=[1.0, -1.0, 0.5, 3.0], nu=1)  # the exact median at t = +-1
@example(ts=[0.5, -0.5, 30.0, -30.0], nu=0.5)  # a < b, both branches
@example(ts=[0.5, -0.5, 30.0, -30.0], nu=9.0)  # a > b, both branches
@example(ts=[0.5, -0.5, 3.0, -3.0], nu=19_999.0)  # Stirling front factor
@example(ts=[0.0, 1e-200, 1e200, -1e200, math.inf, -math.inf], nu=40.0)
@given(ts=st.lists(T_VALUES, min_size=1, max_size=30), nu=T_NUS)
@settings(max_examples=300, deadline=None)
def test_t_cdf_array_equals_scalar_bit_for_bit(ts, nu):
    assert _bits(student_t_cdf_array(ts, nu)) == _bits([student_t_cdf(t, nu) for t in ts])


SMALL_SHAPES = st.floats(min_value=1e-3, max_value=19.99)
LARGE_SHAPES = st.floats(min_value=20.0, max_value=1e4)
FRONT_X = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]),
    st.floats(min_value=5e-324, max_value=1.0 - 2.0**-53),
)


@example(xs=[5e-324, 1e-300, 0.5, 1.0 - 2.0**-53], shapes=(2.5, 3.0))
@example(xs=[5e-324, 1e-300, 0.5, 1.0 - 2.0**-53], shapes=(0.5, 9999.5))
@example(xs=[5e-324, 1e-300, 0.5, 1.0 - 2.0**-53], shapes=(9999.5, 0.5))
@example(xs=[5e-324, 1e-300, 0.5, 1.0 - 2.0**-53], shapes=(25.0, 1e4))
@given(
    xs=st.lists(FRONT_X, min_size=1, max_size=20),
    shapes=st.one_of(
        st.tuples(SMALL_SHAPES, SMALL_SHAPES),
        st.tuples(SMALL_SHAPES, LARGE_SHAPES),
        st.tuples(LARGE_SHAPES, SMALL_SHAPES),
        st.tuples(LARGE_SHAPES, LARGE_SHAPES),
    ),
)
@settings(max_examples=300, deadline=None)
def test_front_factor_of_an_array_equals_its_floats_bit_for_bit(xs, shapes):
    # Three branches: three lgammas, Stirling for one large shape, and
    # binomial_pmf's rows for two.
    a, b = shapes
    got = _ln_front(np.array(xs), a, b, _each)
    assert _bits(got) == _bits([_ln_front(x, a, b) for x in xs])


@pytest.mark.parametrize("size", [10.0, 10.5, 1000.0])
@pytest.mark.parametrize("kind", ["integer", "half", "empty"])
def test_binomial_pmf_states_the_point_masses(size, kind):
    # Rows at 0, -0.0 and 1 are exact point masses at count 0 and count
    # size, which may be absent from the counts; the inner rows are what
    # each rate gives alone. The empty count list is the one-value chain.
    counts = {
        "integer": np.arange(math.floor(size) + 1.0),
        "half": np.arange(0.5, size, 1.0),
        "empty": np.empty(0),
    }[kind]
    rates = [0.3, 0.0, 1e-300, -0.0, 0.5, 1.0, 0.99]
    rows = binomial_pmf(rates, size, counts)
    assert rows.shape == (len(rates), counts.size)
    for row, x in zip(rows, rates):
        if x in (0.0, 1.0):
            mass_at = 0.0 if x == 0.0 else size
            assert _bits(row) == _bits(counts == mass_at)
        else:
            assert row.tobytes() == binomial_pmf([x], size, counts)[0].tobytes()


def test_beta_array_refuses_an_unconverged_lane():
    # One lane that cannot converge fails the whole call, like the scalar.
    with pytest.raises(DomainError, match="did not converge"):
        _beta_cf_array(np.array([0.2, 1.0 / 3.0]), 1e6, 2e6)


def test_t_cdf_array_refuses_nan_t():
    with pytest.raises(DomainError, match="x must lie in"):
        student_t_cdf_array([0.5, math.nan], 3.0)
    with pytest.raises(DomainError):
        student_t_cdf(math.nan, 3.0)


# --- Student-t CDF ---


def test_t_cdf_matches_reference():
    for nu in (1.0, 2.0, 5.0, 10.5, 50.0, 200.0, 2000.0):
        for t in np.linspace(-8.0, 8.0, 33):
            assert abs(student_t_cdf(float(t), nu) - stats.t.cdf(t, nu)) <= 1e-12


@pytest.mark.parametrize("nu", [1.0, 3.0, 30.0])
def test_t_cdf_center_is_exact(nu):
    assert student_t_cdf(0.0, nu) == 0.5


def test_t_cdf_cauchy_quartile():
    # nu = 1 is Cauchy: T(1) = 3/4.
    assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-13)


def test_t_cdf_symmetry_is_exact():
    for t in (0.1, 0.7, 1.3, 2.9, 6.0):
        for nu in (1.0, 9.0, 200.0):
            assert student_t_cdf(t, nu) + student_t_cdf(-t, nu) == 1.0


@pytest.mark.parametrize("t", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_t_cdf_normal_limit(t):
    phi = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
    assert abs(student_t_cdf(t, 200.0) - phi) < 0.003


def test_t_cdf_strictly_increasing():
    ts = np.linspace(-6.0, 6.0, 61)
    for nu in (1.0, 4.0, 25.0):
        vals = [student_t_cdf(float(t), nu) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("nu", [0.0, -3.0, math.nan, math.inf, -math.inf])
def test_t_cdf_rejects_bad_nu(nu):
    for t in (0.0, 1.0):
        with pytest.raises(DomainError, match="degrees of freedom"):
            student_t_cdf(t, nu)
    with pytest.raises(DomainError, match="degrees of freedom"):
        student_t_cdf_array([0.0, 1.0], nu)


# --- seeded streams ---


def test_stream_replay_is_identical():
    a = SeededStream(42, 7).generator().standard_normal(64)
    b = SeededStream(42, 7).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = SeededStream(42, 0).generator().standard_normal(64)
    b = SeededStream(42, 1).generator().standard_normal(64)
    assert not np.array_equal(a, b)


def test_substream_offsets_compose():
    s = SeededStream(9)
    assert s.substream(2).substream(3) == s.substream(5)
    assert s.substream(0) == s


def test_stream_validation():
    with pytest.raises(DomainError):
        SeededStream(-1)
    with pytest.raises(DomainError):
        SeededStream(2**64)
    with pytest.raises(DomainError):
        SeededStream(0, -1)
    # Seeds and indices are integers: floats and bools are refused up front,
    # not at the first draw.
    for seed, index in ((1.5, 0), (True, 0), (5.0, 0), (0, 1.5), (0, False)):
        with pytest.raises(DomainError, match="integer"):
            SeededStream(seed, index)
    stream = SeededStream(np.uint64(42), np.int64(7))
    assert np.array_equal(
        stream.generator().standard_normal(8), SeededStream(42, 7).generator().standard_normal(8)
    )
