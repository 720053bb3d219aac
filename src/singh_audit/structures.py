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

from .special_math import DomainError, reg_inc_beta, student_t_cdf, student_t_cdf_array

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
    "evaluate_counts",
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
# Structures that see a binary dataset only through its success count.
COUNT_KINDS = frozenset({"jeffreys", "clopper_pearson", "scaled_cbox"})


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

    def max_beta_shape(self, n: int) -> float:
        """Largest Beta shape ``reg_inc_beta`` sees for a dataset of n draws.

        The t pivot evaluates I_x((n-1)/2, 1/2); the count kinds evaluate
        shapes up to n + c (c = 1/2 for Jeffreys, 1 for Clopper-Pearson, the
        structure's c for scaled_cbox). Kinds without a Beta CDF return 0.
        """
        if self.kind == "student_t_pivot":
            return (n - 1) / 2.0
        if self.kind == "jeffreys":
            return n + 0.5
        if self.kind == "clopper_pearson":
            return n + 1.0
        if self.kind == "scaled_cbox":
            return n + self.c
        return 0.0

    @property
    def reads_count(self) -> bool:
        """True when the structure needs binary data and reads only its success count."""
        return self.kind in COUNT_KINDS


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
    return ConfidenceValue.precise(_jeffreys_at(float(theta), data.n, k))


def _jeffreys_at(theta: float, n: int, k: int) -> float:
    return reg_inc_beta(theta, k + 0.5, n - k + 0.5)


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
    return ConfidenceValue(*_cbox_at(float(theta), data.n, k, c))


def _cbox_at(theta: float, n: int, k: int, c: float) -> tuple[float, float]:
    # The two bounding CDFs, in either order.
    return reg_inc_beta(theta, k + c, n - k), reg_inc_beta(theta, k, n - k + c)


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


def evaluate_counts(spec: StructureSpec, truth, n: int, counts) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of a count-reading structure at each success count of n draws.

    For the kinds in ``COUNT_KINDS`` the success count k stands for every
    binary dataset of size n with k ones, so no dataset is built. ``truth``
    is a scalar or one value per count. Each entry equals the scalar
    structure function on such a dataset, bit for bit; one scalar
    ``reg_inc_beta`` per bound is faster than the array continued fraction
    at the few distinct counts a run evaluates.
    """
    if not spec.reads_count:
        raise DomainError(f"{spec.kind} does not read a success count")
    ks = np.asarray(counts, dtype=np.int64)
    thetas = np.broadcast_to(np.asarray(truth, dtype=np.float64), ks.shape).tolist()
    pairs = zip(thetas, ks.tolist())
    if spec.kind == "jeffreys":
        value = np.array([_jeffreys_at(theta, n, k) for theta, k in pairs], dtype=np.float64)
        return value, value
    c = 1.0 if spec.kind == "clopper_pearson" else spec.c
    bounds = np.array([_cbox_at(theta, n, k, c) for theta, k in pairs], dtype=np.float64)
    bounds = bounds.reshape(-1, 2)
    return bounds.min(axis=1), bounds.max(axis=1)


def evaluate_structure(spec: StructureSpec, truth, samples) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) required confidence of ``spec`` for each row of ``samples``.

    ``samples`` is a (rows, n) matrix holding one dataset per row, and
    ``truth`` is a scalar or one value per row (a predictive target's next
    draw). The bounds are equal for precise structures, and +inf where no
    level covers. Row i equals the scalar structure function on
    ``Dataset(samples[i])`` bit for bit: the moment kernels reduce along
    axis 1, and the t pivot runs ``student_t_cdf_array``. A row the
    structure cannot handle (a zero-spread t pivot, non-binary data for a
    count kind) raises for the whole call.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise DomainError("samples must be a non-empty (rows, n) matrix")
    n = x.shape[1]
    if spec.reads_count:
        if not ((x == 0.0) | (x == 1.0)).all():
            raise DomainError(f"{spec.kind} requires binary {{0,1}} data")
        return evaluate_counts(spec, truth, n, np.rint(x.sum(axis=1)))
    if spec.kind == "empirical_predictive":
        x_next = np.asarray(truth, dtype=np.float64)[..., None]
        below = (x <= x_next).sum(axis=1) / (n + 1)
        above = (n + 1 - (x >= x_next).sum(axis=1)) / (n + 1)
        return np.minimum(below, above), np.maximum(below, above)
    mu = np.asarray(truth, dtype=np.float64)
    if spec.kind == "student_t_pivot":
        if n < 2:
            raise DegenerateDataError("need at least two samples for a t pivot")
        sd = x.std(axis=1, ddof=1)
        if (sd == 0.0).any():
            raise DegenerateDataError("zero sample standard deviation")
        with np.errstate(over="ignore"):
            t = (mu - x.mean(axis=1)) / (sd / math.sqrt(n))
        value = student_t_cdf_array(t, n - 1)
        return value, value
    if spec.kind == "chebyshev_ucl":
        if n < 2:
            raise DomainError("need at least two samples for a Chebyshev bound")
        mean = x.mean(axis=1)
        sd = x.std(axis=1, ddof=1)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            z = (mu - mean) * math.sqrt(n) / sd
            value = 1.0 - 1.0 / (z * z + 1.0)
        value = np.where(mu <= mean, 0.0, np.where(sd == 0.0, np.inf, value))
        return value, value
    raise DomainError(f"unknown structure kind {spec.kind!r}")
