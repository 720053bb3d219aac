"""Scalar reference implementations of every structure kind, for the tests.

Each function takes the candidate value and one dataset as a 1-D array and
returns the ``(lower, upper)`` required confidence as floats (equal for a
precise structure, +inf where no level covers). They are written out
independently of ``singh_audit.structures``: the count kinds call
``reg_inc_beta`` with their Beta shapes spelled out here, so the batched
kernels are held to a second implementation rather than to themselves
(bit for bit, except the count kinds, whose chains of binomial terms are
held to these calls within 1e-14).
"""

import math

import numpy as np

from singh_audit.special_math import DomainError, reg_inc_beta, student_t_cdf
from singh_audit.structures import DegenerateDataError


def _as_data(samples) -> np.ndarray:
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 1 or data.size < 1:
        raise DomainError("a dataset is a non-empty 1-D list of reals")
    return data


def _success_count(samples, kind: str) -> tuple[int, int]:
    data = _as_data(samples)
    if not ((data == 0.0) | (data == 1.0)).all():
        raise DomainError(f"{kind} requires binary {{0,1}} data")
    return int(round(float(data.sum()))), int(data.size)


def student_t_pivot(mu: float, samples) -> tuple[float, float]:
    """T((mu - mean) / (sd / sqrt(n)); n - 1)."""
    data = _as_data(samples)
    n = int(data.size)
    if n < 2:
        raise DegenerateDataError("need at least two samples for a t pivot")
    return student_t_pivot_of_moments(mu, n, float(data.mean()), float(data.std(ddof=1)))


def student_t_pivot_of_moments(mu: float, n: int, mean: float, sd: float) -> tuple[float, float]:
    """The t pivot of a dataset of n draws with this mean and sample sd."""
    if sd == 0.0:
        raise DegenerateDataError("zero sample standard deviation")
    t = (mu - mean) / (sd / math.sqrt(n))
    value = student_t_cdf(t, n - 1)
    return value, value


def jeffreys(theta: float, samples) -> tuple[float, float]:
    """Beta(k + 1/2, n - k + 1/2) posterior CDF at ``theta``."""
    k, n = _success_count(samples, "jeffreys")
    value = reg_inc_beta(float(theta), k + 0.5, n - k + 0.5)
    return value, value


def scaled_cbox(theta: float, samples, c: float) -> tuple[float, float]:
    """Beta(k + c, n - k) and Beta(k, n - k + c) CDFs at ``theta``, sorted.

    At k = n the first bound is a point mass at 1, which reads 0 for every
    theta; at k = 0 the second is a point mass at 0, which reads 1.
    """
    if not c > 0.0:
        raise DomainError("c must be positive")
    k, n = _success_count(samples, "scaled_cbox")
    one = 0.0 if k == n else reg_inc_beta(float(theta), k + c, n - k)
    two = 1.0 if k == 0 else reg_inc_beta(float(theta), k, n - k + c)
    return min(one, two), max(one, two)


def clopper_pearson(theta: float, samples) -> tuple[float, float]:
    """The exact binomial c-box: the scaled c-box at c = 1."""
    return scaled_cbox(theta, samples, 1.0)


def empirical_predictive(x_next: float, samples) -> tuple[float, float]:
    """Counts weakly below and weakly above ``x_next``, over n + 1."""
    data = _as_data(samples)
    n = int(data.size)
    count_le = int((data <= x_next).sum())
    count_ge = int((data >= x_next).sum())
    below, above = count_le / (n + 1), (n + 1 - count_ge) / (n + 1)
    return min(below, above), max(below, above)


def chebyshev_required_confidence(mu: float, samples) -> tuple[float, float]:
    """Smallest alpha whose Chebyshev UCL reaches ``mu``; +inf if none does."""
    data = _as_data(samples)
    n = int(data.size)
    if n < 2:
        raise DomainError("need at least two samples for a Chebyshev bound")
    return chebyshev_of_moments(mu, n, float(data.mean()), float(data.std(ddof=1)))


def chebyshev_of_moments(mu: float, n: int, mean: float, sd: float) -> tuple[float, float]:
    """The Chebyshev required confidence of a dataset of n draws with this mean and sample sd."""
    if mu <= mean:
        return 0.0, 0.0
    if sd == 0.0:
        return math.inf, math.inf
    z = (mu - mean) * math.sqrt(n) / sd
    value = 1.0 - 1.0 / (z * z + 1.0)
    return value, value


def structure(spec, truth: float, samples) -> tuple[float, float]:
    """The reference function of ``spec`` (a ``StructureSpec``) on one dataset."""
    if spec.kind == "scaled_cbox":
        return scaled_cbox(truth, samples, spec.c)
    return {
        "student_t_pivot": student_t_pivot,
        "jeffreys": jeffreys,
        "clopper_pearson": clopper_pearson,
        "empirical_predictive": empirical_predictive,
        "chebyshev_ucl": chebyshev_required_confidence,
    }[spec.kind](truth, samples)
