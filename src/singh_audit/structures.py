"""Confidence structures: maps from (candidate value, dataset) to confidence.

Each structure answers one question: how much one-sided confidence does this
dataset require before the interval [0-quantile, alpha-quantile] of the
structure's distribution covers the candidate value? Precise structures
answer with a single probability; imprecise ones answer with an interval
whose endpoints come from a bounding pair of CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_math import DomainError, reg_inc_beta, student_t_cdf

__all__ = [
    "DegenerateDataError",
    "Dataset",
    "ConfidenceValue",
    "StructureSpec",
    "STRUCTURE_KINDS",
    "PRECISE_KINDS",
    "student_t_pivot",
    "jeffreys",
    "clopper_pearson",
    "scaled_cbox",
    "empirical_predictive",
    "chebyshev_ucl",
    "chebyshev_required_confidence",
    "evaluate_structure",
]

STRUCTURE_KINDS = (
    "student_t_pivot",
    "jeffreys",
    "clopper_pearson",
    "scaled_cbox",
    "empirical_predictive",
    "chebyshev_ucl",
)
PRECISE_KINDS = frozenset({"student_t_pivot", "jeffreys", "chebyshev_ucl"})


class DegenerateDataError(ValueError):
    """The dataset carries no information for the structure (e.g. zero spread)."""


@dataclass(frozen=True)
class Dataset:
    """Immutable sample vector."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("a dataset is a non-empty 1-D list of reals")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def mean(self) -> float:
        return float(self.samples.mean())

    def sd(self) -> float:
        """Sample standard deviation on the n-1 divisor."""
        return float(self.samples.std(ddof=1))

    def is_binary(self) -> bool:
        s = self.samples
        return bool(((s == 0.0) | (s == 1.0)).all())


@dataclass(frozen=True)
class ConfidenceValue:
    """Required-confidence interval [lower, upper]; precise when they agree.

    The two bound evaluations of an imprecise structure can arrive in either
    order, so construction sorts them; downstream code never branches on
    labels. A bound of +inf marks a truth no confidence level covers: it
    sorts above every alpha, so it stays uncovered even at alpha = 1.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lower), float(self.upper)
        if lo > hi:
            lo, hi = hi, lo
        if not (0.0 <= lo and (hi <= 1.0 or hi == math.inf)):
            raise DomainError("confidence bounds must lie in [0, 1] or be +inf")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def precise(cls, value: float) -> "ConfidenceValue":
        return cls(value, value)

    @property
    def is_precise(self) -> bool:
        return self.lower == self.upper


@dataclass(frozen=True)
class StructureSpec:
    """Which structure to run, plus its imprecision width for scaled_cbox."""

    kind: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRUCTURE_KINDS:
            raise DomainError(f"unknown structure kind {self.kind!r}")
        if self.kind == "scaled_cbox":
            if self.c is None or not self.c > 0.0:
                raise DomainError("c must be positive")
        elif self.c is not None:
            raise DomainError(f"structure {self.kind!r} takes no c parameter")

    @property
    def is_precise(self) -> bool:
        return self.kind in PRECISE_KINDS

    @property
    def min_n(self) -> int:
        return 2 if self.kind in ("student_t_pivot", "chebyshev_ucl") else 1


def _require_binary(data: Dataset, kind: str) -> int:
    if not data.is_binary():
        raise DomainError(f"{kind} requires binary {{0,1}} data")
    return int(round(float(data.samples.sum())))


def student_t_pivot(mu: float, data: Dataset) -> ConfidenceValue:
    """Required confidence for ``mu`` under the exact t pivot of a normal mean.

    Returns T((mu - mean) / (sd / sqrt(n)); n - 1). Because the pivot has a
    parameter-free distribution, the required confidence at the true mean is
    exactly uniform on [0, 1].
    """
    if data.n < 2:
        raise DegenerateDataError("need at least two samples for a t pivot")
    sd = data.sd()
    if sd == 0.0:
        raise DegenerateDataError("zero sample standard deviation")
    t = (mu - data.mean()) / (sd / math.sqrt(data.n))
    return ConfidenceValue.precise(student_t_cdf(t, data.n - 1))


def jeffreys(theta: float, data: Dataset) -> ConfidenceValue:
    """Posterior CDF of a binomial rate at ``theta`` under the Jeffreys prior."""
    k = _require_binary(data, "jeffreys")
    theta = float(theta)
    return ConfidenceValue.precise(reg_inc_beta(theta, k + 0.5, data.n - k + 0.5))


def clopper_pearson(theta: float, data: Dataset) -> ConfidenceValue:
    """Exact binomial confidence box evaluated at ``theta``.

    The two bounding CDFs are Beta(k + 1, n - k) and Beta(k, n - k + 1) in
    the success count k; at k = 0 or k = n one bound degenerates to a point
    mass under the conventions of ``reg_inc_beta``.
    """
    return scaled_cbox(theta, data, 1.0)


def scaled_cbox(theta: float, data: Dataset, c: float) -> ConfidenceValue:
    """Binomial confidence box with imprecision width ``c`` (c = 1 is exact).

    Shrinking c below 1 narrows the box until it understates uncertainty;
    growing it widens the box into extra conservatism.
    """
    if not c > 0.0:
        raise DomainError("c must be positive")
    k = _require_binary(data, "scaled_cbox")
    theta = float(theta)
    n = data.n
    one = reg_inc_beta(theta, k + c, n - k)
    other = reg_inc_beta(theta, k, n - k + c)
    return ConfidenceValue(one, other)


def empirical_predictive(x_next: float, data: Dataset) -> ConfidenceValue:
    """Non-parametric required confidence for the next draw to be ``x_next``.

    Counts weakly below and weakly above x_next bound the predictive CDF from
    both sides; ties land in both counts, no jitter is applied.
    """
    s = data.samples
    n = data.n
    count_le = int((s <= x_next).sum())
    count_ge = int((s >= x_next).sum())
    # Integer numerators keep both bounds exact grid fractions k / (n + 1).
    return ConfidenceValue(count_le / (n + 1), (n + 1 - count_ge) / (n + 1))


def chebyshev_ucl(alpha: float, data: Dataset) -> float:
    """Distribution-free upper confidence limit for the mean at level ``alpha``."""
    alpha = _check_alpha_for_ucl(alpha)
    if data.n < 2:
        raise DomainError("need at least two samples for a Chebyshev bound")
    multiplier = math.sqrt(1.0 / (1.0 - alpha) - 1.0)
    return data.mean() + multiplier * data.sd() / math.sqrt(data.n)


def _check_alpha_for_ucl(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")
    return alpha


def chebyshev_required_confidence(mu: float, data: Dataset) -> ConfidenceValue:
    """Smallest ``alpha`` whose Chebyshev UCL reaches ``mu``; +inf if none does.

    Inverts the UCL algebraically: alpha = 1 - (((mu - mean) sqrt(n) / sd)^2
    + 1)^-1 for mu above the sample mean, which round-trips through
    ``chebyshev_ucl`` to 1e-9. A target at or below the mean needs no
    confidence at all; a zero-spread sample below the target can never reach
    it at any level, so it requires +inf.
    """
    if data.n < 2:
        raise DomainError("need at least two samples for a Chebyshev bound")
    mean = data.mean()
    if mu <= mean:
        return ConfidenceValue.precise(0.0)
    sd = data.sd()
    if sd == 0.0:
        return ConfidenceValue.precise(math.inf)
    z = (mu - mean) * math.sqrt(data.n) / sd
    return ConfidenceValue.precise(1.0 - 1.0 / (z * z + 1.0))


def evaluate_structure(spec: StructureSpec, truth: float, data: Dataset) -> ConfidenceValue:
    """Required confidence of ``spec`` for ``truth`` (+inf where no level covers)."""
    if spec.kind == "student_t_pivot":
        return student_t_pivot(truth, data)
    if spec.kind == "jeffreys":
        return jeffreys(truth, data)
    if spec.kind == "clopper_pearson":
        return clopper_pearson(truth, data)
    if spec.kind == "scaled_cbox":
        return scaled_cbox(truth, data, spec.c)
    if spec.kind == "empirical_predictive":
        return empirical_predictive(truth, data)
    if spec.kind == "chebyshev_ucl":
        return chebyshev_required_confidence(truth, data)
    raise DomainError(f"unknown structure kind {spec.kind!r}")
