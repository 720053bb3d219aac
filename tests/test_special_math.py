import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from singh_audit.special_math import (
    DomainError,
    SeededStream,
    reg_inc_beta,
    reg_inc_beta_array,
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
    # Beta mean, where naive prefactor arithmetic loses ~1e-11.
    rng = np.random.default_rng(12)
    for _ in range(3000):
        a = float(rng.uniform(50.0, 1e4))
        b = float(rng.uniform(50.0, 1e4))
        mean = a / (a + b)
        sd = math.sqrt(mean * (1 - mean) / (a + b + 1))
        x = float(np.clip(rng.normal(mean, 4 * sd), 1e-9, 1 - 1e-9))
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


# Shapes spanning both continued-fraction branches and the Stirling front
# factor paths, plus the degenerate point masses at 0 and 1.
ARRAY_SHAPES = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    st.integers(min_value=1, max_value=60).map(lambda k: k / 2.0),
)
ARRAY_XS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), PROBS)


@given(
    points=st.lists(
        st.tuples(ARRAY_XS, ARRAY_SHAPES, ARRAY_SHAPES).filter(lambda p: p[1] or p[2]),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_beta_array_equals_scalar_bit_for_bit(points):
    x, a, b = (list(column) for column in zip(*points))
    scalar = [reg_inc_beta(*p) for p in points]
    assert _bits(reg_inc_beta_array(x, a, b)) == _bits(scalar)


SMALL_SHAPES = st.floats(min_value=1e-3, max_value=19.99, allow_nan=False)
LARGE_SHAPES = st.floats(min_value=20.0, max_value=1e4, allow_nan=False)
# One (a, b) pair per call, from each front-factor branch: both shapes below
# the Stirling threshold 20, one at or above it (either way round), and both
# at or above it; plus the t pivot's (nu/2, 1/2).
SHARED_SHAPES = st.one_of(
    st.tuples(SMALL_SHAPES, SMALL_SHAPES),
    st.tuples(SMALL_SHAPES, LARGE_SHAPES),
    st.tuples(LARGE_SHAPES, SMALL_SHAPES),
    st.tuples(LARGE_SHAPES, LARGE_SHAPES),
    st.sampled_from([1, 9, 40, 39999]).map(lambda nu: (nu / 2.0, 0.5)),
)


@given(shapes=SHARED_SHAPES, data=st.data())
@settings(max_examples=300, deadline=None)
def test_beta_array_with_shared_shapes_equals_scalar_bit_for_bit(shapes, data):
    # Every lane shares (a, b), so the front factor's shape terms are formed
    # once; x is drawn anywhere in [0, 1] and within a few standard
    # deviations of the mean, where large shapes are not saturated.
    a, b = shapes
    mean, sd = a / (a + b), math.sqrt(a * b / (a + b) ** 2 / (a + b + 1.0))
    near = st.floats(min_value=-6.0, max_value=6.0).map(
        lambda z: min(1.0, max(0.0, mean + z * sd))
    )
    xs = data.draw(st.lists(st.one_of(PROBS, near), min_size=1, max_size=40))
    assert _bits(reg_inc_beta_array(xs, a, b)) == _bits([reg_inc_beta(x, a, b) for x in xs])


def test_beta_array_covers_branches_and_conventions():
    # Endpoints, the exact symmetric median, both point masses, and lanes
    # on each side of the branch point (a + 1) / (a + b + 2).
    x = [0.0, 1.0, 0.5, 0.5, 0.3, 1.0, 0.1, 0.9, 0.95]
    a = [2.0, 2.0, 3.0, 0.0, 5.0, 4.0, 2.0, 2.0, 3.0]
    b = [3.0, 3.0, 3.0, 2.0, 0.0, 0.0, 8.0, 2.0, 0.5]
    below = [xi < (ai + 1.0) / (ai + bi + 2.0) for xi, ai, bi in zip(x, a, b)][6:]
    assert below == [True, False, False]
    assert _bits(reg_inc_beta_array(x, a, b)) == _bits([reg_inc_beta(*p) for p in zip(x, a, b)])
    assert reg_inc_beta_array(0.25, 2.0, [1.0, 3.0]).shape == (2,)


def test_beta_array_refuses_an_unconverged_lane():
    # One lane that cannot converge fails the whole call, like the scalar.
    with pytest.raises(DomainError, match="did not converge"):
        reg_inc_beta_array([0.2, 1.0 / 3.0, 0.7], [2.0, 1e6, 3.0], [3.0, 2e6, 1.0])
    with pytest.raises(DomainError):
        reg_inc_beta_array([0.5, 1.5], 2.0, 2.0)
    with pytest.raises(DomainError):
        reg_inc_beta_array([0.5, 0.5], [2.0, -1.0], 2.0)
    with pytest.raises(DomainError):
        reg_inc_beta_array([0.5, 0.5], [2.0, 0.0], [2.0, 0.0])
    for a, b in ((math.nan, 2.0), (2.0, math.inf), (math.inf, 2.0)):
        with pytest.raises(DomainError, match="shape parameters"):
            reg_inc_beta_array([0.5, 0.3], [2.0, a], [2.0, b])


@given(
    ts=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=-1e200, max_value=1e200, allow_nan=False)),
        min_size=1,
        max_size=30,
    ),
    nu=st.one_of(st.integers(min_value=1, max_value=200), SHAPES),
)
@settings(max_examples=200, deadline=None)
def test_t_cdf_array_equals_scalar_bit_for_bit(ts, nu):
    assert _bits(student_t_cdf_array(ts, nu)) == _bits([student_t_cdf(t, nu) for t in ts])


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
