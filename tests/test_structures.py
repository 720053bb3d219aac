import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from singh_audit.special_math import DomainError
from singh_audit.structures import (
    ConfidenceValue,
    Dataset,
    DegenerateDataError,
    StructureSpec,
    chebyshev_required_confidence,
    chebyshev_ucl,
    clopper_pearson,
    empirical_predictive,
    evaluate_structure,
    jeffreys,
    scaled_cbox,
    student_t_pivot,
)

THETAS = np.linspace(0.0, 1.0, 101)


def binary(k, n):
    return Dataset(np.concatenate((np.ones(k), np.zeros(n - k))))


# --- core value types ---


def test_dataset_basics():
    d = Dataset([1.0, 2.0, 3.0])
    assert d.n == 3
    assert d.mean() == 2.0
    assert d.sd() == pytest.approx(1.0)
    assert not d.is_binary()
    assert binary(2, 5).is_binary()


def test_dataset_is_immutable():
    d = Dataset([1.0, 2.0])
    with pytest.raises(ValueError):
        d.samples[0] = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.samples = np.zeros(2)


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset([])
    with pytest.raises(DomainError):
        Dataset([[1.0, 2.0]])


def test_confidence_value_orders_bounds():
    cv = ConfidenceValue(0.8, 0.2)
    assert (cv.lower, cv.upper) == (0.2, 0.8)
    assert not cv.is_precise
    assert ConfidenceValue.precise(0.4).is_precise


def test_confidence_value_rejects_out_of_range():
    with pytest.raises(DomainError):
        ConfidenceValue(-0.1, 0.5)
    with pytest.raises(DomainError):
        ConfidenceValue(0.5, 1.1)


def test_structure_spec_validation():
    with pytest.raises(DomainError):
        StructureSpec("mystery")
    with pytest.raises(DomainError, match="c must be positive"):
        StructureSpec("scaled_cbox")
    with pytest.raises(DomainError, match="c must be positive"):
        StructureSpec("scaled_cbox", c=-1.0)
    with pytest.raises(DomainError):
        StructureSpec("jeffreys", c=2.0)


def test_structure_spec_shape():
    assert StructureSpec("student_t_pivot").min_n == 2
    assert StructureSpec("chebyshev_ucl").min_n == 2
    assert StructureSpec("jeffreys").min_n == 1
    assert StructureSpec("jeffreys").is_precise
    assert not StructureSpec("clopper_pearson").is_precise


# --- student_t_pivot ---


def test_t_pivot_at_sample_mean_is_half():
    cv = student_t_pivot(2.0, Dataset([1.0, 2.0, 3.0]))
    assert cv.is_precise
    assert cv.lower == 0.5


def test_t_pivot_known_value():
    # {0, 2}: mean 1, sd sqrt(2), so t = 1 on 1 df (Cauchy): 3/4.
    cv = student_t_pivot(2.0, Dataset([0.0, 2.0]))
    assert cv.lower == pytest.approx(0.75, abs=1e-13)


def test_t_pivot_degenerate_data():
    with pytest.raises(DegenerateDataError):
        student_t_pivot(0.0, Dataset([1.0]))
    with pytest.raises(DegenerateDataError):
        student_t_pivot(0.0, Dataset([2.0, 2.0, 2.0]))


# --- binomial-count structures ---


def test_binary_data_required():
    d = Dataset([0.0, 0.5, 1.0])
    for fn in (jeffreys, clopper_pearson):
        with pytest.raises(DomainError):
            fn(0.4, d)
    with pytest.raises(DomainError):
        scaled_cbox(0.4, d, 1.0)


def test_jeffreys_matches_posterior_cdf():
    for n in (1, 4, 10):
        for k in range(n + 1):
            d = binary(k, n)
            for theta in (0.1, 0.4, 0.5, 0.9):
                cv = jeffreys(theta, d)
                assert cv.is_precise
                assert cv.lower == pytest.approx(
                    sp.betainc(k + 0.5, n - k + 0.5, theta), abs=1e-12
                )


def test_clopper_pearson_no_successes():
    cv = clopper_pearson(0.1, binary(0, 10))
    assert cv.lower == pytest.approx(1.0 - 0.9**10, abs=1e-12)
    assert cv.upper == 1.0


def test_clopper_pearson_all_successes():
    cv = clopper_pearson(0.4, binary(3, 3))
    assert cv.lower == 0.0
    assert cv.upper == pytest.approx(0.4**3, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 13))
def test_clopper_pearson_band_dominance_exhaustive(n):
    for k in range(n + 1):
        d = binary(k, n)
        lowers = []
        uppers = []
        for theta in THETAS:
            cv = clopper_pearson(float(theta), d)
            assert cv.upper >= cv.lower
            lowers.append(cv.lower)
            uppers.append(cv.upper)
        # both bound curves rise from 0 to 1 monotonically in theta
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(uppers, uppers[1:]))
        assert lowers[0] == 0.0 and uppers[-1] == 1.0


def test_scaled_cbox_width_monotone_in_c():
    for k, n in ((0, 8), (3, 8), (8, 8)):
        d = binary(k, n)
        for theta in (0.2, 0.5, 0.8):
            widths = [
                scaled_cbox(theta, d, c).upper - scaled_cbox(theta, d, c).lower
                for c in (0.25, 0.5, 1.0, 2.0, 4.0)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))


def test_scaled_cbox_c_one_is_clopper_pearson():
    d = binary(4, 9)
    for theta in (0.1, 0.5, 0.9):
        assert scaled_cbox(theta, d, 1.0) == clopper_pearson(theta, d)


def test_scaled_cbox_rejects_bad_c():
    with pytest.raises(DomainError, match="c must be positive"):
        scaled_cbox(0.4, binary(1, 4), 0.0)


# --- empirical_predictive ---


def test_predictive_counts():
    d = Dataset([1.0, 2.0, 3.0])
    cv = empirical_predictive(2.5, d)
    assert (cv.lower, cv.upper) == (0.5, 0.75)
    below = empirical_predictive(0.0, d)
    assert (below.lower, below.upper) == (0.0, 0.25)
    above = empirical_predictive(9.0, d)
    assert (above.lower, above.upper) == (0.75, 1.0)


def test_predictive_tie_collapses_width():
    cv = empirical_predictive(2.0, Dataset([1.0, 2.0, 3.0]))
    assert (cv.lower, cv.upper) == (0.5, 0.5)


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
    cv = empirical_predictive(x, Dataset(values))
    assert cv.upper - cv.lower == pytest.approx(1.0 / (n + 1), abs=1e-15)


def test_predictive_values_are_grid_fractions():
    d = Dataset([4.0, 1.0, 3.0, 2.0])
    grid = {k / 5.0 for k in range(6)}
    for x in (-1.0, 1.0, 2.5, 3.0, 10.0):
        cv = empirical_predictive(x, d)
        assert {cv.lower, cv.upper} <= grid


# --- chebyshev ---


def test_chebyshev_ucl_known_value():
    # alpha = 0.2 gives multiplier sqrt(1/0.8 - 1) = 1/2.
    d = Dataset([0.0, 2.0])
    assert chebyshev_ucl(0.2, d) == pytest.approx(1.5, abs=1e-12)
    assert chebyshev_ucl(0.0, d) == pytest.approx(1.0, abs=1e-12)


def test_chebyshev_ucl_validation():
    d = Dataset([0.0, 2.0])
    with pytest.raises(DomainError):
        chebyshev_ucl(1.0, d)
    with pytest.raises(DomainError):
        chebyshev_ucl(-0.1, d)
    with pytest.raises(DomainError):
        chebyshev_ucl(0.5, Dataset([1.0]))


def test_chebyshev_inversion_known_value():
    cv = chebyshev_required_confidence(2.0, Dataset([0.0, 2.0]))
    assert cv.is_precise
    assert cv.lower == pytest.approx(0.5, abs=1e-12)


def test_chebyshev_covered_at_zero_confidence():
    cv = chebyshev_required_confidence(0.5, Dataset([0.0, 2.0]))
    assert cv.lower == 0.0


def test_chebyshev_never_covered_requires_inf():
    cv = chebyshev_required_confidence(3.0, Dataset([2.0, 2.0]))
    assert cv.is_precise and cv.lower == math.inf
    # at or below the degenerate mean is still covered for free
    assert chebyshev_required_confidence(2.0, Dataset([2.0, 2.0])).lower == 0.0


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
    d = Dataset(values)
    if d.sd() == 0.0:
        return
    mu = d.mean() + bump
    cv = chebyshev_required_confidence(mu, d)
    # Near alpha = 1 the inverse map 1/(1 - alpha) sheds precision faster
    # than the 1e-9 round-trip budget, so the guarantee is scoped away from
    # the boundary.
    if cv.lower > 1.0 - 1e-5:
        return
    assert chebyshev_ucl(cv.lower, d) == pytest.approx(mu, abs=1e-9)


# --- dispatcher ---


def test_evaluate_structure_dispatch():
    d = binary(3, 6)
    assert evaluate_structure(StructureSpec("jeffreys"), 0.4, d) == jeffreys(0.4, d)
    assert evaluate_structure(
        StructureSpec("clopper_pearson"), 0.4, d
    ) == clopper_pearson(0.4, d)
    assert evaluate_structure(
        StructureSpec("scaled_cbox", c=2.0), 0.4, d
    ) == scaled_cbox(0.4, d, 2.0)
    cont = Dataset([1.0, 2.0, 4.0])
    assert evaluate_structure(
        StructureSpec("student_t_pivot"), 2.0, cont
    ) == student_t_pivot(2.0, cont)
    assert evaluate_structure(
        StructureSpec("empirical_predictive"), 2.5, cont
    ) == empirical_predictive(2.5, cont)
    assert evaluate_structure(
        StructureSpec("chebyshev_ucl"), 5.0, cont
    ) == chebyshev_required_confidence(5.0, cont)


def test_structure_values_monotone_in_theta():
    # every structure's bounds rise with the candidate value
    d = binary(2, 6)
    for spec in (
        StructureSpec("jeffreys"),
        StructureSpec("clopper_pearson"),
        StructureSpec("scaled_cbox", c=0.5),
        StructureSpec("scaled_cbox", c=3.0),
    ):
        prev = None
        for theta in THETAS:
            cv = evaluate_structure(spec, float(theta), d)
            if prev is not None:
                assert cv.lower >= prev.lower - 1e-15
                assert cv.upper >= prev.upper - 1e-15
            prev = cv
    cont = Dataset([1.0, 2.0, 4.0])
    for spec in (StructureSpec("student_t_pivot"), StructureSpec("empirical_predictive")):
        prev = None
        for x in np.linspace(-10.0, 10.0, 81):
            cv = evaluate_structure(spec, float(x), cont)
            if prev is not None:
                assert cv.lower >= prev.lower - 1e-15
                assert cv.upper >= prev.upper - 1e-15
            prev = cv
