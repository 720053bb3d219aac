import decimal
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

import reference_binomial

from singh_audit.special_math import (
    _T_SUM_MAX_NU,
    DomainError,
    SeededStream,
    _beta_cf_array,
    _count_table,
    _each,
    _ln_front,
    _saddle_point,
    _stirling_corr_array,
    _tabulate,
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


_ONE_BELOW_1 = 1.0 - 2.0**-53

# float.hex of I_x(a, b), pinned so that any change to the scalar path's
# operations or their order shows as a changed bit.
BETA_BITS = [
    # Stated values, in their order of precedence: a = 0 (even at x = 0),
    # then b = 0, x = 0, x = 1 and the median at a = b.
    (0.0, 0.0, 3.0, "0x1.0000000000000p+0"),
    (0.3, 0.0, 3.0, "0x1.0000000000000p+0"),
    (1.0, 0.0, 3.0, "0x1.0000000000000p+0"),
    (0.5, 0.0, 1e-300, "0x1.0000000000000p+0"),
    (0.0, 2.0, 0.0, "0x0.0p+0"),
    (0.5, 2.0, 0.0, "0x0.0p+0"),
    (1.0, 2.0, 0.0, "0x1.0000000000000p+0"),
    (0.5, 0.5, 0.0, "0x0.0p+0"),
    (0.0, 2.5, 2.5, "0x0.0p+0"),
    (1.0, 2.5, 2.5, "0x1.0000000000000p+0"),
    (0.5, 2.5, 2.5, "0x1.0000000000000p-1"),
    (0.5, 30.5, 30.5, "0x1.0000000000000p-1"),
    (0.5, 2.5, 3.5, "0x1.56eb794be5796p-1"),
    # Small shapes, three lgammas and log1p(-x); both sides, and x = 1 -
    # 2^-53, whose complement 2^-53 is not 0.
    (0.2, 2.0, 3.0, "0x1.72474538ef349p-3"),
    (0.7, 2.0, 3.0, "0x1.d525460aa64c3p-1"),
    (5e-324, 0.5, 0.5, "0x1.45f306dc9c8acp-538"),
    (_ONE_BELOW_1, 2.0, 3.0, "0x1.0000000000000p+0"),
    (_ONE_BELOW_1, 0.5, 0.5, "0x1.ffffffc66137bp-1"),
    (1e-5, 1.0, 1.0, "0x1.4f8b588e368eep-17"),
    # One small shape: Stirling, with 1 - x subtracted and corrected.
    (0.01, 0.5, 30.5, "0x1.21042340b8bc1p-1"),
    (0.05, 0.5, 30.5, "0x1.d7ffdb5bd88d3p-1"),
    (0.3, 1.0, 1000.0, "0x1.0000000000000p+0"),
    (1e-4, 1.0, 1000.0, "0x1.85cdf19d22cb6p-4"),
    (0.9995, 1000.5, 0.5, "0x1.44cd53834e010p-2"),
    (0.99, 1000.5, 0.5, "0x1.ebc2774b6622ap-18"),
    (_ONE_BELOW_1, 1000.5, 0.5, "0x1.fffff361fc94dp-1"),
    # Both shapes at least 20: the front factor from binomial_pmf.
    (0.4, 20.5, 30.5, "0x1.fc085de757cbep-2"),
    (0.45, 20.5, 30.5, "0x1.8556160292ff2p-1"),
    (0.3, 250.0, 751.0, "0x1.ffe5f9db74493p-1"),
    (0.26, 250.0, 751.0, "0x1.8ca8e74b5835ap-1"),
    (_ONE_BELOW_1, 9000.5, 1000.5, "0x1.0000000000000p+0"),
]

# float.hex of T(t) for nu degrees of freedom. At integer nu up to 100 the
# finite sum gives T (checked against mpmath: at most 77 ulps, 8.8e-15
# relative, at t = -2.5, nu = 61); elsewhere the front factor reads the
# complement y = t^2 / (nu + t^2) as formed, not 1 - x.
T_BITS = [
    # Stated values: t = 0; x = 0 at t = +-inf and at |t| > 1.3e154, where
    # y is NaN; y = 0 where t^2 underflows; T(+-1) = 3/4 and 1/4 at nu = 1.
    (0.0, 3.0, "0x1.0000000000000p-1"),
    (-0.0, 3.0, "0x1.0000000000000p-1"),
    (math.inf, 3.0, "0x1.0000000000000p+0"),
    (-math.inf, 3.0, "0x0.0p+0"),
    (1e155, 3.0, "0x1.0000000000000p+0"),
    (-1e200, 0.5, "0x0.0p+0"),
    (1e-200, 3.0, "0x1.0000000000000p-1"),
    (1.0, 1.0, "0x1.8000000000000p-1"),
    (-1.0, 1.0, "0x1.0000000000000p-2"),
    # The finite sum's centre, |t| <= 3, odd and even nu.
    (-3.0, 3.0, "0x1.d86c6b37d81f0p-6"),
    (0.4, 3.0, "0x1.48b879479f944p-1"),
    (2.0, 1.0, "0x1.b46feb898833ep-1"),
    (-1e-8, 3.0, "0x1.ffffffc0daddap-2"),
    (1e-8, 3.0, "0x1.0000001f92913p-1"),
    (-1e-160, 3.0, "0x1.0000000000000p-1"),
    (-2.5, 61.0, "0x1.ef95c90a1d300p-8"),
    (0.05, 61.0, "0x1.0a2ab68b38ba0p-1"),
    # Its tail series, |t| > 3; capped at the centre's T(-3) just past it.
    (math.nextafter(-3.0, -4.0), 3.0, "0x1.d86c6b37d81f0p-6"),
    (-10.0, 1.0, "0x1.03e53b7a03527p-5"),
    (-4.0, 9.0, "0x1.97b0a7bd440bfp-10"),
    (-1e150, 2.0, "0x1.56e1fc2f8f359p-998"),
    (-50.0, 100.0, "0x1.474c1a7949940p-240"),
    # The continued fraction. Small shapes, three lgammas; both sides.
    (-0.2, 1.5, "0x1.bafaaa64a87bcp-2"),
    (-3.5, 3.5, "0x1.fa3864a7c987ap-7"),
    (0.4, 3.5, "0x1.49a3c3dacc05ap-1"),
    # One small shape: Stirling; both sides.
    (-2.5, 61.5, "0x1.eed6c07b92fe1p-8"),
    (0.05, 61.5, "0x1.0a2accc7761d8p-1"),
    (1e-9, 20001.0, "0x1.000000036d45cp-1"),
    (-4.0, 20001.0, "0x1.0aa20fe40e1dap-15"),
]


@pytest.mark.parametrize("x, a, b, bits", BETA_BITS)
def test_beta_bits_are_pinned(x, a, b, bits):
    assert reg_inc_beta(x, a, b).hex() == bits


@pytest.mark.parametrize("t, nu, bits", T_BITS)
def test_t_cdf_bits_are_pinned(t, nu, bits):
    assert student_t_cdf(t, nu).hex() == bits


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# Degrees of freedom on both sides of the shape swap (nu <= 1 puts
# a = nu/2 at or below b = 1/2) and of the front factor's Stirling
# threshold a = 20, up to the t pivot's limit nu = 20,000, plus the shapes
# (nu/2, 1/2) once held to the scalar incomplete beta directly. Integers on
# both sides of the finite sum's last nu, 100, and near-integers, which
# take the continued fraction.
T_NUS = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1.0, max_value=39.99),
    st.floats(min_value=40.0, max_value=20_000.0),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([1, 9, 40, 99, 100, 101, 39999, 9.0 - 1e-9, 9.0 + 1e-9]),
)
# Bulk values run both sides of the continued fraction; the wide range
# holds squares that overflow to inf (|t| > 1.3e154) or underflow to 0.
T_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, math.inf, -math.inf]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-1e200, max_value=1e200),
)


@example(ts=[1.0, -1.0, 0.5, 3.0], nu=1)  # T(+-1) = 3/4 and 1/4
@example(ts=[0.5, -0.5, 30.0, -30.0], nu=0.5)  # a < b, both branches
@example(ts=[0.5, -0.5, 30.0, -30.0], nu=9.5)  # a > b, both branches
@example(ts=[0.5, -0.5, 3.0, -3.0], nu=19_999.0)  # Stirling front factor
@example(ts=[0.0, 1e-200, 1e200, -1e200, math.inf, -math.inf], nu=40.0)
@example(ts=[0.0, 1e-200, 1e200, -1e200, math.inf, -math.inf], nu=40.5)
# 4,001 lanes on the continued fraction, which converge at different
# iterations, so finished lanes are dropped from it several times: at
# non-integer nu, and at nu = 101 and 20,000, the t pivot's n = 102 and
# its limit, which send it every value. At an integer nu up to 100 the
# same lanes take the sum's centre and its tail series, which runs every
# lane until the last stops (at nu = 100 they need 11 to 390 terms).
@example(ts=np.linspace(-60.0, 60.0, 4001).tolist(), nu=1.5)
@example(ts=np.linspace(-60.0, 60.0, 4001).tolist(), nu=9.5)
@example(ts=np.linspace(-60.0, 60.0, 4001).tolist(), nu=30.5)
@example(ts=np.linspace(-60.0, 60.0, 4001).tolist(), nu=101)
@example(ts=np.linspace(-60.0, 60.0, 4001).tolist(), nu=20_000)
@example(ts=np.linspace(-60.0, 60.0, 4001).tolist(), nu=9)
@example(ts=np.linspace(-60.0, 60.0, 4001).tolist(), nu=100)
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


def _exact_terms(x: float, size: float, first: float, length: int) -> tuple[list[int], int]:
    """Binomial(size, x) terms at counts first, first + 1, ... as integers t * 2**shift.

    At the float x = a / d, for an integer size with counts from 0, or a
    size n - 1/2 with counts from 1/2 (a Beta chain's call at c = 1/2).
    The first term is (1 - x)^size, or Gamma(n + 1/2) / (Gamma(3/2)
    Gamma(n)) sqrt(x) (1 - x)^(n - 1) with sqrt(x) to 200 bits; each next
    one takes the exact ratio (size - k) / (k + 1) x / (1 - x), rounded down.
    The shift gives the first term 1200 bits, so every term above 1e-300
    keeps at least 200 bits through the roundings.
    """
    a, d = x.as_integer_ratio()
    b = d - a
    if first == 0.0:
        num, den, powers = 1, 1, int(size)
    else:
        n = int(size + 0.5)
        assert first == 0.5 and size == n - 0.5
        num = 2 * math.factorial(2 * n) * math.isqrt((a * d) << 400)
        den = 4**n * math.factorial(n) * math.factorial(n - 1) * (d << 200)
        powers = n - 1
    num, den = num * b**powers, den * d**powers
    shift = 1200 + max(0, den.bit_length() - num.bit_length())
    terms = [(num << shift) // den]
    twice_size, twice_k = round(2 * size), round(2 * first)
    for _ in range(length - 1):
        terms.append(terms[-1] * (twice_size - twice_k) * a // ((twice_k + 2) * b))
        twice_k += 2
    return terms, shift


# Saddle-point sizes: 40 and 41, rows of 191 and 192 counts on either side
# of the recurrence's cutoff, the edges of its eighth block of 32 counts,
# and larger rows; a chain's call at c = 1/2 has size n - 1/2 and counts
# 1/2, ..., n - 3/2 (n = 40 would fall to the lgamma side).
EXACT_CALLS = [(float(n), 0.0, n + 1) for n in (40, 41, 190, 191, 202, 223, 224, 225, 250, 1000)] + [
    (n - 0.5, 0.5, n - 1) for n in (41, 193, 194, 226, 255, 259, 1000)
]


@pytest.mark.parametrize("size, first, length", EXACT_CALLS)
def test_binomial_pmf_matches_exact_terms(size, first, length):
    # Each term is exp of a log whose absolute error grows with |ln t|:
    # they hold 1e-13 relative down to 1e-30 and 4e-13 down to 1e-300 (with
    # the lgamma form of the small Stirling errors, the saddle-point form at
    # every count reached 1.04e-13 and 3.2e-13 here). The exact prefix sums
    # of the terms stay within 5e-15 of the exact ones; recurring across
    # the mode from the shared anchors alone reached 6.1e-15 (n = 255,
    # x = 0.97).
    counts = first + np.arange(length, dtype=np.float64)
    for x in (1e-3, 0.05, 0.3, 0.5, 0.7, 0.97):
        got = binomial_pmf([x], size, counts)[0]
        exact, shift = _exact_terms(x, size, first, length)
        run = worst_sum = 0
        for value, term in zip(got.tolist(), exact):
            p, q = value.as_integer_ratio()
            run += (p << (shift - q.bit_length() + 1)) - term
            worst_sum = max(worst_sum, abs(run))
            t = term / 2**shift
            if t > 1e-300:
                assert abs(value - t) <= (1e-13 if t > 1e-30 else 4e-13) * t, (x, value, t)
        assert worst_sum / 2**shift <= 5e-15, x


def _stirling_error_at_half(twice: int) -> float:
    """Stirling's error ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2) at z = twice / 2.

    To 50 digits with ``decimal``, from the exact Gamma of an integer,
    (z - 1)!, or of a half-integer, (2n)! sqrt(pi) / (4^n n!) at z = n + 1/2.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pi = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582")
        z = decimal.Decimal(twice) / 2
        n = twice // 2
        if twice % 2 == 0:
            ln_gamma = decimal.Decimal(math.factorial(n - 1)).ln()
        else:
            ln_gamma = (decimal.Decimal(math.factorial(2 * n)) / (4**n * math.factorial(n))).ln() + pi.ln() / 2
        return float(ln_gamma - ((z - decimal.Decimal("0.5")) * z.ln() - z + (2 * pi).ln() / 2))


def test_stirling_error_below_twenty_is_exact_to_1e_15():
    # Below z = 20 the Stirling error climbs to 20 by its recurrence; the
    # lgamma form it replaced lost up to 1.1e-14 (at z = 17.5).
    twice = np.arange(1, 46)
    got = _stirling_corr_array(twice / 2.0)
    for value, t in zip(got.tolist(), twice.tolist()):
        assert abs(value - _stirling_error_at_half(t)) <= 1e-15, t / 2


PMF_RATES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]),
    st.floats(min_value=5e-324, max_value=1.0 - 2.0**-53),
)


@example(size=1000.0, first=0.0, rates=[5e-324, 1e-310, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53])
@example(size=999.5, first=0.5, rates=[5e-324, 1e-310, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53])
@example(size=40.0, first=1.0, rates=[0.3, 1e-310])
@given(
    size=st.one_of(st.integers(min_value=40, max_value=3000).map(float), st.floats(min_value=40.0, max_value=3000.0)),
    first=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.integers(min_value=1, max_value=30 * 64).map(lambda i: i / 64)),
    rates=st.lists(PMF_RATES, min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_binomial_pmf_rows_match_one_count_at_a_time(size, first, rates):
    # A full row recurs between anchors; a call at one count is a pure
    # evaluation of the saddle-point form, which _saddle_point makes for
    # every count at once, bit for bit. They agree within 1e-12 relative
    # (down to the smallest normal float), every element is finite, and no
    # floating-point warning is raised. A first count of a few bits keeps
    # every first + j exact, so both evaluate the same counts: rounding
    # first + j moves a count by up to half an ulp, which moved a term at
    # x = 1 - 1e-12 by 1.2e-12, while a row steps by exactly 1.
    counts = first + np.arange(math.floor(size - first) + 1.0)
    rows = binomial_pmf(rates, size, counts)
    alone = _saddle_point(rates, size, _tabulate(size, counts, kept=True))
    for j in (0, counts.size // 2, counts.size - 1):
        assert _bits(alone[:, j]) == _bits(binomial_pmf(rates, size, counts[j:j + 1])[:, 0])
    assert np.isfinite(rows).all()
    assert (np.abs(rows - alone) <= 1e-12 * alone + np.finfo(float).tiny).all()


# --- binomial_pmf's count tables ---


@pytest.fixture
def cleared():
    # Every cache test starts from an empty cache, so test order cannot matter.
    _count_table.cache_clear()
    yield
    _count_table.cache_clear()


TABLE_SIZES = st.one_of(
    st.floats(min_value=0.5, max_value=39.99),
    st.integers(min_value=40, max_value=3000).map(float),
    st.floats(min_value=40.0, max_value=3000.0),
)


@example(size=10.0, first=0.0, share=1.0, rates=[0.3, 0.0, 1.0])
@example(size=250.0, first=0.5, share=1.0, rates=[1e-3, 0.5, 0.97])
@example(size=1000.0, first=0.0, share=1.0, rates=[5e-324, 1e-310, 0.5, 1.0 - 2.0**-53])
@given(
    size=TABLE_SIZES,
    first=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.integers(min_value=1, max_value=30 * 64).map(lambda i: i / 64)),
    share=st.floats(min_value=0.0, max_value=1.0),
    rates=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), PMF_RATES), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_binomial_pmf_equals_the_per_call_algorithm_bit_for_bit(size, first, share, rates):
    # Every side (lgamma, saddle point at every count, recurrence) with its
    # table formed (a miss) and then read from the cache (a hit) gives the
    # bits of the algorithm that formed every term per call.
    _count_table.cache_clear()
    counts = first + np.arange(math.floor(share * max(size - first + 1.0, 0.0)), dtype=np.float64)
    expected = _bits(reference_binomial.binomial_pmf(rates, size, counts))
    assert _bits(binomial_pmf(rates, size, counts)) == expected
    assert _bits(binomial_pmf(rates, size, counts)) == expected


# (size, counts) on every side: lgamma, the saddle point at every count with
# 41 and 191 counts, the recurrence from 192 counts, a one-count front
# factor and the empty counts of a one-value chain.
TABLE_CALLS = {
    "lgamma": (30.5, 0.5 + np.arange(30.0)),
    "saddle_41": (40.0, np.arange(41.0)),
    "saddle_191": (250.0, 1.0 + np.arange(191.0)),
    "recurrence": (1000.0, np.arange(1001.0)),
    "front_factor": (61.5, np.array([30.25])),
    "empty": (250.0, np.empty(0)),
}
TABLE_RATES = [0.0, 1e-310, 0.03, 0.5, 0.97, 1.0]


@pytest.mark.parametrize("call", TABLE_CALLS)
def test_count_table_hit_and_miss_give_the_same_bits(cleared, call):
    size, counts = TABLE_CALLS[call]
    miss = _bits(binomial_pmf(TABLE_RATES, size, counts))
    hit = _bits(binomial_pmf(TABLE_RATES, size, counts))
    _count_table.cache_clear()
    assert _bits(binomial_pmf(TABLE_RATES, size, counts)) == miss == hit
    assert miss == _bits(reference_binomial.binomial_pmf(TABLE_RATES, size, counts))
    # Only rows of two counts or more are cached.
    assert _count_table.cache_info().currsize == (counts.size > 1)


def test_count_tables_interleaved_keep_their_bits(cleared):
    first = {call: _bits(binomial_pmf(TABLE_RATES, *TABLE_CALLS[call])) for call in TABLE_CALLS}
    for _ in range(3):
        for call in reversed(list(TABLE_CALLS)):
            assert _bits(binomial_pmf(TABLE_RATES, *TABLE_CALLS[call])) == first[call], call
    assert _count_table.cache_info().hits == 3 * 4


@pytest.mark.parametrize("call", ["lgamma", "saddle_41", "recurrence"])
def test_count_tables_are_read_only(cleared, call):
    size, counts = TABLE_CALLS[call]
    table = _count_table(size, float(counts[0]), counts.size)
    arrays = [field for field in table if isinstance(field, np.ndarray)]
    assert len(arrays) == {"lgamma": 1, "saddle_41": 5, "recurrence": 8}[call]
    for field in arrays:
        with pytest.raises(ValueError, match="read-only"):
            field[...] = 0.0
    with pytest.raises(TypeError):
        table.lgamma[0] = (0.0, 0.0, 0.0)


def test_count_cache_stays_within_its_bound(cleared):
    limit = _count_table.cache_info().maxsize
    for size in range(40, 40 + 2 * limit):
        binomial_pmf([0.3], float(size), np.arange(size + 1.0))
        assert _count_table.cache_info().currsize <= limit
    assert _count_table.cache_info().currsize == limit


def test_front_factor_calls_do_not_evict_long_rows(cleared):
    # reg_inc_beta at two shapes >= 20 calls binomial_pmf at one real count,
    # a new one on almost every call; none of them is cached.
    rows = [(1000.0, np.arange(1001.0)), (999.5, 0.5 + np.arange(999.0))]
    for size, counts in rows:
        binomial_pmf([0.3], size, counts)
    rng = np.random.default_rng(34)
    for a, b in rng.uniform(20.0, 1e4, size=(200, 2)):
        reg_inc_beta(0.4, a, b)
    info = _count_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for size, counts in rows:
        binomial_pmf([0.7], size, counts)
    assert _count_table.cache_info().hits == 2


def test_rows_beyond_the_accurate_range_are_formed_per_call(cleared):
    # Rows longer than MAX_ACCURATE_SHAPE + 1 counts (Chebyshev's histogram
    # weights at large n) are neither kept nor given every count's columns,
    # and give the per-call algorithm's bits.
    counts = np.arange(12_001.0)
    got = binomial_pmf(TABLE_RATES, 12_000.0, counts)
    assert _bits(got) == _bits(reference_binomial.binomial_pmf(TABLE_RATES, 12_000.0, counts))
    assert _count_table.cache_info().currsize == 0


def test_count_tables_read_only_counts_that_rise_by_one(cleared):
    # Counts that share a key's size, first count and length but not its
    # steps get a table of their own, as they got their own terms before.
    steady = np.arange(41.0)
    skewed = steady.copy()
    skewed[20] = 20.5
    binomial_pmf([0.3], 40.0, steady)
    got = binomial_pmf([0.3, 0.6], 40.0, skewed)
    assert _bits(got) == _bits(reference_binomial.binomial_pmf([0.3, 0.6], 40.0, skewed))


def test_beta_array_refuses_an_unconverged_lane():
    # One lane that cannot converge fails the whole call, like the scalar.
    with pytest.raises(DomainError, match="did not converge"):
        _beta_cf_array(np.array([0.2, 1.0 / 3.0]), 1e6, 2e6)
    # The message names the first lane still unconverged, after finished
    # lanes are dropped. Near the mean of Beta(1e6, 4e6) neither x = 0.2
    # nor x = 0.1999999 converges, while 1e-3 and 0.1 do: one finished lane
    # ahead of the pending ones, then two.
    for lanes in ([1e-3, 0.2, 0.1999999], [1e-3, 0.1, 0.2, 0.1999999]):
        with pytest.raises(DomainError, match=r"did not converge at x=0\.2, a=1000000\.0, b=4000000\.0"):
            _beta_cf_array(np.array(lanes), 1e6, 4e6)


@pytest.mark.parametrize("nu", [3.0, 3.5])
def test_t_cdf_array_refuses_nan_t(nu):
    # On the finite sum (nu = 3) and the continued fraction (nu = 3.5).
    with pytest.raises(DomainError, match="x must lie in"):
        student_t_cdf_array([0.5, math.nan], nu)
    with pytest.raises(DomainError):
        student_t_cdf(math.nan, nu)


# --- Student-t CDF ---


def _t_tail_mpmath(t: float, nu: float) -> mpmath.mpf:
    """T(-|t|) to 30 digits: I_x(nu/2, 1/2) / 2 at the exact x = nu / (nu + t^2)."""
    with mpmath.workdps(30):
        x = mpmath.mpf(nu) / (nu + mpmath.mpf(t) ** 2)
        return mpmath.betainc(mpmath.mpf(nu) / 2, 0.5, 0, x, regularized=True) / 2


def test_t_cdf_matches_reference():
    # nu = 1 is the Cauchy CDF 1/2 + atan(t) / pi: scipy's stdtr is off by
    # up to 8e-11 near t = 0 there. Other integer nu take mpmath.
    for nu in (1.0, 2.0, 5.0, 10.5, 50.0, 200.0, 2000.0):
        for t in np.linspace(-8.0, 8.0, 33).tolist():
            if nu == 1.0:
                with mpmath.workdps(30):
                    exact = float(0.5 + mpmath.atan(t) / mpmath.pi)
            elif nu == 10.5:
                exact = stats.t.cdf(t, nu)
            else:
                tail = _t_tail_mpmath(t, nu)
                exact = float(tail if t < 0.0 else 1 - tail)
            assert abs(student_t_cdf(t, nu) - exact) <= 1e-12


# Every nu of the finite sum, and the first of the continued fraction.
SUM_NUS = range(1, _T_SUM_MAX_NU + 2)


@pytest.mark.parametrize("nu", SUM_NUS)
def test_t_cdf_sum_matches_mpmath(nu):
    # Through the body, on both sides of the centre's edge |t| = 3, and out
    # along the tail series to where the tail reaches 1e-300 or t^2
    # overflows. The sum reads at most 4.1e-16 absolute here (8.1e-16 on a
    # grid of 700 points in (0, 10], up to nu = 100), and is held to 1e-15.
    # The continued fraction at nu = 101 reads 7.8e-16 here but 2.5e-15 on
    # that grid (5.3e-15 at nu = 200), so it is held to 5e-15.
    bound = 1e-15 if nu <= _T_SUM_MAX_NU else 5e-15
    body = np.linspace(0.0, 10.0, 41)[1:].tolist() + [math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0)]
    ts = body + np.geomspace(3.5, 1.3e154, 60).tolist()
    lower = student_t_cdf_array([-t for t in ts], nu)
    upper = student_t_cdf_array(ts, nu)
    assert _bits(lower) == _bits([student_t_cdf(-t, nu) for t in ts])
    for t, low, high in zip(ts, lower.tolist(), upper.tolist()):
        tail = _t_tail_mpmath(t, nu)
        assert abs(low - tail) <= bound and abs(high - (1 - tail)) <= bound, t
        if tail < 1e-300:
            break
        assert abs(low - tail) <= 1e-12 * tail, t


@pytest.mark.parametrize("nu", SUM_NUS)
def test_t_cdf_sum_is_a_cdf(nu):
    # On a dense grid over [-60, 60]: values in [0, 1], never decreasing,
    # and T(t) + T(-t) = 1 exactly.
    half = np.linspace(0.0, 60.0, 6001)
    ts = np.concatenate((-half[::-1], half[1:]))
    values = student_t_cdf_array(ts, nu)
    assert ((values >= 0.0) & (values <= 1.0)).all()
    assert (np.diff(values) >= 0.0).all()
    assert (values + values[::-1] == 1.0).all()
    # No step down across the switch at |t| = 3 between the centre and the
    # tail series, at the edge and its neighbouring floats.
    edge = [math.nextafter(-3.0, -4.0), -3.0, 3.0, math.nextafter(3.0, 4.0)]
    assert (np.diff(student_t_cdf_array(edge, nu)) >= 0.0).all()
    # The stated values, with no floating-point warning where t^2
    # overflows (|t| > 1.3e154).
    stated = [0.0, -0.0, math.inf, -math.inf, 1.5e154, -1.5e154, 1e300, -1e300]
    expected = [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert _bits(student_t_cdf_array(stated, nu)) == _bits(expected)
    assert _bits([student_t_cdf(t, nu) for t in stated]) == _bits(expected)
    if nu == 1:
        assert _bits(student_t_cdf_array([1.0, -1.0], nu)) == _bits([0.75, 0.25])
    with pytest.raises(DomainError, match="x must lie in"):
        student_t_cdf_array([1.0, math.nan], nu)


NEAR_ZERO_T = [5e-324, 3e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e3, 1e8]


@pytest.mark.parametrize("nu", [1.0, 9.0, 1000.0, 20_000.0])
def test_t_cdf_keeps_its_accuracy_near_zero(nu):
    # t^2 / (nu + t^2) is formed directly, so t near 0, where nu / (nu +
    # t^2) rounds to 1, keeps it. nu = 1 is the Cauchy CDF 1/2 + atan(t) /
    # pi, the oracle there, since scipy's stdtr itself is off by up to 8e-11
    # near t = 0 at nu = 1; nu = 20,000 is the t pivot's largest.
    ts = np.array(NEAR_ZERO_T + [-t for t in NEAR_ZERO_T])
    if nu == 1.0:
        exact = 0.5 + np.arctan(ts) / np.pi
    else:
        exact = sp.stdtr(nu, ts)
    assert np.abs(student_t_cdf_array(ts, nu) - exact).max() <= 1e-12
    assert max(abs(student_t_cdf(t, nu) - e) for t, e in zip(ts.tolist(), exact.tolist())) <= 1e-12


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
