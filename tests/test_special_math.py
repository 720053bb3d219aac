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
    sample_bernoulli,
    sample_mixture,
    sample_normal,
    sample_scaled_bernoulli,
    student_t_cdf,
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


def test_t_cdf_rejects_bad_nu():
    with pytest.raises(DomainError):
        student_t_cdf(0.0, 0.0)
    with pytest.raises(DomainError):
        student_t_cdf(0.0, -3.0)


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


# --- samplers ---


def test_sample_normal_is_affine_in_location_scale():
    s = SeededStream(3)
    shifted = sample_normal(s.generator(), 4.0, 3.0, 256)
    standard = sample_normal(s.generator(), 0.0, 1.0, 256)
    assert np.array_equal(shifted, 4.0 + 3.0 * standard)


def test_sample_normal_moments():
    x = sample_normal(SeededStream(4).generator(), 2.0, 5.0, 200_000)
    n = x.size
    assert abs(x.mean() - 2.0) < 5 * 5.0 / math.sqrt(n)
    assert abs(x.std(ddof=1) - 5.0) < 5 * 5.0 / math.sqrt(2 * n)


def test_sample_bernoulli_support_and_mean():
    x = sample_bernoulli(SeededStream(5).generator(), 0.3, 100_000)
    assert set(np.unique(x)) <= {0.0, 1.0}
    se = math.sqrt(0.3 * 0.7 / x.size)
    assert abs(x.mean() - 0.3) < 5 * se


def test_sample_bernoulli_degenerate_rates():
    assert not sample_bernoulli(SeededStream(6).generator(), 0.0, 1000).any()
    assert sample_bernoulli(SeededStream(6).generator(), 1.0, 1000).all()


def test_sample_scaled_bernoulli_support_and_mean():
    p, target = 0.2, 2.0
    x = sample_scaled_bernoulli(SeededStream(7).generator(), p, target, 1_000_000)
    assert set(np.unique(x)) <= {0.0, target / p}
    se = target * math.sqrt((1 - p) / p) / math.sqrt(x.size)
    assert abs(x.mean() - target) < 5 * se


def test_sample_mixture_single_component_matches_normal():
    s = SeededStream(8)
    mixed = sample_mixture(s.generator(), [1.0], [4.0], [3.0], 128)
    assert np.array_equal(mixed, sample_normal(s.generator(), 4.0, 3.0, 128))


def test_sample_mixture_mean():
    x = sample_mixture(SeededStream(9).generator(), [0.5, 0.5], [4.0, 5.0], [3.0, 1.5], 200_000)
    sd = math.sqrt(0.5 * (3.0**2 + 4.0**2) + 0.5 * (1.5**2 + 5.0**2) - 4.5**2)
    assert abs(x.mean() - 4.5) < 5 * sd / math.sqrt(x.size)


def test_sampler_validation():
    s = SeededStream(10).generator()
    with pytest.raises(DomainError):
        sample_normal(s, 0.0, 0.0, 10)
    with pytest.raises(DomainError):
        sample_normal(s, 0.0, 1.0, 0)
    with pytest.raises(DomainError):
        sample_bernoulli(s, 1.5, 10)
    with pytest.raises(DomainError):
        sample_scaled_bernoulli(s, 0.0, 2.0, 10)
    with pytest.raises(DomainError):
        sample_scaled_bernoulli(s, 0.2, -1.0, 10)
    with pytest.raises(DomainError):
        sample_mixture(s, [0.5, 0.5], [0.0, 1.0], [1.0, -1.0], 10)
    with pytest.raises(DomainError):
        sample_mixture(s, [-0.5, 1.5], [0.0, 1.0], [1.0, 1.0], 10)
