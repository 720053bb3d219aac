"""Confidence structures: maps from (candidate value, dataset) to confidence.

Each structure answers one question: how much one-sided confidence does this
dataset require before the interval [0-quantile, alpha-quantile] of the
structure's distribution covers the candidate value? Precise structures
answer with a single probability; imprecise ones answer with an interval
whose endpoints come from a bounding pair of CDFs.

Every kind has one implementation, shared by the Monte Carlo and exact
engines: ``evaluate_structure`` on a (rows, n) matrix of datasets, and
``evaluate_counts`` on success counts, from which every kind but
``empirical_predictive`` (which reads a next draw) is evaluated: the
moment kinds read a count's mean and standard deviation in closed form.

The count kinds' bounds at k = 0..n are I_theta(a, T - a) over a
unit-spaced run of a with a fixed total T, and one shift of a subtracts a
binomial term (DLMF 8.17.20-21). So ``evaluate_counts`` builds each run, a
chain, from two scalar ``reg_inc_beta`` anchors at its ends plus
cumulative sums of ``special_math.binomial_pmf`` terms, for every count at
once, and the chains of all its distinct truths together: one row per
truth, whose terms come from one ``binomial_pmf`` call and whose sums run
along the rows, so each row holds the bits its truth gives alone.

- ``student_t_pivot``: T((mu - mean) / (sd / sqrt(n)); n - 1), exactly
  uniform at the true normal mean; for n up to 101 the t CDF is its finite
  sum at the integer n - 1, beyond that the incomplete beta.
- ``jeffreys``: the Beta(k + 1/2, n - k + 1/2) posterior CDF at theta.
- ``clopper_pearson`` and ``scaled_cbox``: the Beta(k + c, n - k) and
  Beta(k, n - k + c) CDFs at theta (c = 1 is Clopper-Pearson; smaller c
  understates uncertainty, larger c adds conservatism). Point-mass
  convention: at k = n the Beta(n + c, 0) bound is a point mass at 1,
  whose every quantile above level 0 is 1, so it reads 0 for every theta
  in [0, 1]; at k = 0 the Beta(0, n + c) bound, a point mass at 0, reads
  1. Both values are stated, not evaluated, so theta = 1 mirrors
  theta = 0: (lower, upper) is (0, 1) at both ends.
- ``empirical_predictive``: counts weakly below and weakly above the next
  draw over n + 1; ties land in both counts.
- ``chebyshev_ucl``: the smallest alpha whose ``chebyshev_ucl`` limit
  reaches mu, 1 - 1 / (z^2 + 1) with z = (mu - mean) sqrt(n) / sd; 0 at or
  below the mean, +inf for zero-spread data below mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_math import DomainError, binomial_pmf, reg_inc_beta, student_t_cdf_array

__all__ = [
    "DegenerateDataError",
    "StructureSpec",
    "STRUCTURE_KINDS",
    "PRECISE_KINDS",
    "chebyshev_ucl",
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
class StructureSpec:
    """Which structure to run, plus its imprecision width for scaled_cbox."""

    kind: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRUCTURE_KINDS:
            raise DomainError(f"unknown structure kind {self.kind!r}")
        if self.kind == "scaled_cbox":
            if self.c is None or not 0.0 < self.c < math.inf:
                raise DomainError("c must be positive and finite")
        elif self.c is not None:
            raise DomainError(f"structure {self.kind!r} takes no c parameter")

    @property
    def is_precise(self) -> bool:
        return self.kind in PRECISE_KINDS

    @property
    def min_n(self) -> int:
        return 2 if self.kind in ("student_t_pivot", "chebyshev_ucl") else 1

    def max_beta_shape(self, n: int) -> float:
        """Largest Beta shape a structure evaluates for a dataset of n draws.

        The t pivot evaluates I_x((n-1)/2, 1/2); the count kinds evaluate
        shapes up to n + c (c = 1/2 for Jeffreys, 1 for Clopper-Pearson, the
        structure's c for scaled_cbox). For count kinds only a chain's two
        anchors reach ``reg_inc_beta``; the counts between them are binomial
        terms of size n + c - 1. Kinds without a Beta CDF return 0.
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

    @property
    def reads_next_draw(self) -> bool:
        """True when the truth is each replicate's (n+1)-th draw, not a target parameter."""
        return self.kind == "empirical_predictive"


def _require_finite(name: str, values) -> None:
    if not np.isfinite(values).all():
        raise DomainError(f"{name} must be finite")


def chebyshev_ucl(alpha: float, samples) -> float:
    """Distribution-free (ProUCL Chebyshev) upper confidence limit for the mean.

    ``samples`` is a 1-D array of at least two draws; the limit at level
    ``alpha`` in [0, 1) is mean + sqrt(1 / (1 - alpha) - 1) sd / sqrt(n).
    Non-finite samples raise DomainError. The ``chebyshev_ucl`` structure
    kind is its inverse: the smallest alpha whose limit reaches the truth.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("need at least two samples for a Chebyshev bound")
    _require_finite("samples", x)
    multiplier = math.sqrt(1.0 / (1.0 - alpha) - 1.0)
    return float(x.mean()) + multiplier * float(x.std(ddof=1)) / math.sqrt(x.size)


def _chain(theta: np.ndarray, first: float, length: int, total: float, out: np.ndarray) -> None:
    """Write I_theta[i](a, total - a) at a = first, first + 1, ..., first + length - 1 to out[i].

    One shift a -> a + 1 of the shapes (a, total - a) subtracts a binomial
    term (DLMF 8.17.20-21): I_x(a + 1, b - 1) = I_x(a, b) - t(a), with t(a)
    the Binomial(total - 1, x) probability at the real count a. So a row is
    two ``reg_inc_beta`` anchors, one at each end, plus cumulative sums of
    the terms, each summed from its small tail: the values below 1/2 from
    the last anchor up, and the rest as 1 minus the complement, summed from
    the first anchor on. The anchors are scalar calls, two per theta; the
    terms of every theta come from one ``binomial_pmf`` call and are summed
    along the rows, so a row is what its theta gives alone. At theta = 0
    and 1 the anchors read 0 and 1 and, as no count is 0 or the size, every
    term is 0: the row is all 0 or all 1. A one-value chain reads its
    anchor, from 1/2 up as 1 - (1 - v), which is exact (Sterbenz). Equal
    shapes read exactly 1/2 at theta = 1/2.
    """
    xs = theta.tolist()
    last = first + (length - 1)
    a = first + np.arange(length, dtype=np.float64)
    # Row by row [1 - I(first), t(first), ..., t(last - 1), I(last)]
    terms = np.empty((len(xs), length + 1))
    terms[:, 0] = [1.0 - reg_inc_beta(t, first, total - first) for t in xs]
    terms[:, 1:-1] = binomial_pmf(theta, total - 1.0, a[:-1])
    terms[:, -1] = [reg_inc_beta(t, last, total - last) for t in xs]
    below = terms[:, :0:-1].cumsum(axis=1)[:, ::-1]
    np.subtract(1.0, terms[:, :-1].cumsum(axis=1), out=out)
    np.copyto(out, below, where=below < 0.5)
    if 0.5 in xs:
        out[np.outer(theta == 0.5, a == total - a)] = 0.5


def _count_bounds(spec: StructureSpec, theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # (lower, upper) of a count kind at every k = 0..n, one row per theta.
    if spec.kind == "jeffreys":
        value = np.empty((theta.size, n + 1))
        _chain(theta, 0.5, n + 1, n + 1.0, value)
        return value, value
    c = 1.0 if spec.kind == "clopper_pearson" else spec.c
    # Beta(k + c, n - k) and Beta(k, n - k + c) at k = 0..n. The point
    # masses at k = n and k = 0 take the values the module docstring
    # states, 0 and 1; the two CDFs are then sorted, in either order.
    if float(c).is_integer():
        # I(a) at a = 0..n+c, the chain over 1..n+c-1 between the point
        # masses, holds both: Beta(k + c, n - k) at column k + c and
        # Beta(k, n - k + c) at column k.
        beta = np.empty((theta.size, n + int(c) + 1))
        beta[:, 0], beta[:, -1] = 1.0, 0.0
        _chain(theta, 1.0, n + int(c) - 1, n + c, beta[:, 1:-1])
        first, second = beta[:, int(c):], beta[:, :n + 1]
    else:
        first, second = np.empty((2, theta.size, n + 1))
        first[:, n], second[:, 0] = 0.0, 1.0
        _chain(theta, c, n, n + c, first[:, :n])
        _chain(theta, 1.0, n, n + c, second[:, 1:])
    return np.minimum(first, second), np.maximum(first, second)


def row_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and sample sd, as the moment kinds read a (rows, n) matrix.

    ``moment_bounds`` refuses n < 2 before reading sd; ddof 0 there only
    keeps numpy from warning about a one-draw variance.
    """
    return x.mean(axis=1), x.std(axis=1, ddof=1 if x.shape[1] > 1 else 0)


def moment_bounds(spec: StructureSpec, truth, n: int, mean, sd) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of the t pivot or Chebyshev from each dataset's mean and sample sd.

    Element by element, so one call over many datasets gives each the
    values it gets alone. A zero-spread t pivot raises for the whole call.
    """
    mu = np.asarray(truth, dtype=np.float64)
    if spec.kind == "student_t_pivot":
        if n < 2:
            raise DegenerateDataError("need at least two samples for a t pivot")
        if (sd == 0.0).any():
            raise DegenerateDataError("zero sample standard deviation")
        with np.errstate(over="ignore"):
            t = (mu - mean) / (sd / math.sqrt(n))
        value = student_t_cdf_array(t, n - 1)
        return value, value
    if n < 2:
        raise DomainError("need at least two samples for a Chebyshev bound")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = (mu - mean) * math.sqrt(n) / sd
        value = 1.0 - 1.0 / (z * z + 1.0)
    value = np.where(mu <= mean, 0.0, np.where(sd == 0.0, np.inf, value))
    return value, value


def evaluate_counts(
    spec: StructureSpec, truth, n: int, counts, success=1.0
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of a structure at each success count k of n two-point draws.

    The dataset of k draws equal to ``success`` (v) and n - k zeros stands
    for every dataset with k successes, and every kind but
    ``empirical_predictive``, which reads a next draw, reads it through k
    alone, so no dataset is built. ``truth`` and ``success`` are each a
    scalar or one value per count. The moment kinds read the mean k v / n
    and the sample standard deviation |v| sqrt(k (n - k) / (n (n - 1))).
    The kinds in ``COUNT_KINDS`` need v = 1; they evaluate the whole run of
    k = 0..n as chains (see ``_chain`` and ``_count_bounds``) in one call
    for all distinct truths, a scalar truth being the one-truth case, and
    the requested counts index the rows. So a count's bounds never depend on
    which other counts or truths were asked for. A non-finite truth or
    success value raises DomainError.
    """
    if spec.reads_next_draw:
        raise DomainError(f"{spec.kind} reads a next draw, not a success count")
    if spec.reads_count and np.not_equal(success, 1.0).any():
        raise DomainError(f"{spec.kind} requires binary {{0,1}} data")
    _require_finite("success", success)
    _require_finite("truth", truth)
    k = np.asarray(counts, dtype=np.float64).ravel()
    # Written so that NaN and +-inf fail the check.
    if not ((k >= 0.0) & (k <= n) & (k == np.floor(k))).all():
        raise DomainError(f"success counts must be integers in 0..{n}")
    if not spec.reads_count:
        # k / n first, so the count n reads a mean of exactly v.
        sd = np.abs(success) * np.sqrt(k * (n - k) / (n * max(n - 1, 1)))
        return moment_bounds(spec, truth, n, k / n * success, sd)
    ks = k.astype(np.int64)
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim == 0:
        distinct, which = truth.reshape(1), 0
    else:
        distinct, which = np.unique(np.broadcast_to(truth, ks.shape), return_inverse=True)
    lower, upper = _count_bounds(spec, distinct, n)
    # Both tables are C-ordered (distinct truths, n + 1); one flat index
    # reads both.
    flat = which * (n + 1) + ks
    return lower.ravel()[flat], upper.ravel()[flat]


def evaluate_structure(spec: StructureSpec, truth, samples) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) required confidence of ``spec`` for each row of ``samples``.

    ``samples`` is a (rows, n) matrix holding one dataset per row, and
    ``truth`` is a scalar or one value per row (a predictive target's next
    draw). The bounds are equal for precise structures, and +inf where no
    level covers. The moment kinds reduce each row to its mean and sample
    sd, and binary rows of a count kind go through ``evaluate_counts``. A
    row the structure cannot handle (a zero-spread t pivot, non-binary data
    for a count kind) raises for the whole call, and so does a non-finite
    sample or truth.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise DomainError("samples must be a non-empty (rows, n) matrix")
    _require_finite("samples", x)
    _require_finite("truth", truth)
    n = x.shape[1]
    if spec.reads_count:
        if not ((x == 0.0) | (x == 1.0)).all():
            raise DomainError(f"{spec.kind} requires binary {{0,1}} data")
        return evaluate_counts(spec, truth, n, np.rint(x.sum(axis=1)))
    if spec.reads_next_draw:
        return band_bounds(truth, x)
    # A moment kind.
    return moment_bounds(spec, truth, n, *row_moments(x))


def band_bounds(truth, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of ``empirical_predictive`` for each row of a (rows, n) matrix.

    ``truth`` is each row's next draw. Past ``evaluate_structure``'s checks:
    the engine hands it rows drawn from a validated target, which are
    finite. Each bound's rank counts take one einsum pass over the rows,
    not a sum of short rows; the counts are integers, so no bound moves.
    """
    n = x.shape[1]
    x_next = np.asarray(truth, dtype=np.float64)[..., None]
    below = np.einsum("ij->i", x <= x_next, dtype=np.intp) / (n + 1)
    above = (n + 1 - np.einsum("ij->i", x >= x_next, dtype=np.intp)) / (n + 1)
    return np.minimum(below, above), np.maximum(below, above)
