"""Singh-plot generation and coverage classification.

A Singh plot is the empirical CDF of the minimum confidence a structure
requires before its one-sided interval covers the truth, replicated over
fresh datasets. For an exactly calibrated structure that CDF is the U(0, 1)
diagonal; dips below signal overconfidence, slack above signals
conservatism. Monte Carlo curves come with a distribution-free tolerance
band (the DKW bound), and for Bernoulli-family targets an exact enumeration
over the success count replaces simulation entirely, serving as the oracle
the Monte Carlo path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .special_math import (
    DomainError,
    SeededStream,
    _component_cdf,
    _draw_mixture,
    check_mixture,
    sample_bernoulli,
    sample_normal,
    sample_scaled_bernoulli,
)
from .structures import Dataset, StructureSpec, evaluate_structure

__all__ = [
    "UnsupportedTargetError",
    "TargetSpec",
    "SinghCurve",
    "SinghBand",
    "CoverageReport",
    "dkw_epsilon",
    "singh_curve",
    "exact_singh_curve",
    "eval_curve",
    "classify",
    "max_coverage_deficit",
]

TARGET_FAMILIES = ("normal", "bernoulli", "scaled_bernoulli", "gaussian_mixture")
COUNT_FAMILIES = ("bernoulli", "scaled_bernoulli")

# Replicates per substream in a Monte Carlo run (stream layout v2).
BLOCK = 4096

DEFAULT_GRID_POINTS = 1001
# Conservatism must show across the central α range; at the extreme tails
# every coverage curve converges to the diagonal and the test has no power.
CONSERVATIVE_RANGE = (0.1, 0.9)
# Tolerance tube of an exact (weighted) curve: it has no sampling noise, so
# only rounding in the atom values and weights is forgiven.
EXACT_TOLERANCE = 1e-9


class UnsupportedTargetError(ValueError):
    """The operation cannot handle this target family."""


@dataclass(frozen=True)
class TargetSpec:
    """Sampling distribution plus the true value under audit.

    ``theta0`` is derived from the family parameters (the normal mean, the
    Bernoulli rate, the scaled-Bernoulli mean, the mixture mean); with
    ``predictive`` set the truth is instead the (n+1)-th draw of each
    replicate.
    """

    family: str
    mu: float | None = None
    sigma: float | None = None
    p: float | None = None
    mean: float | None = None
    weights: tuple[float, ...] | None = None
    mus: tuple[float, ...] | None = None
    sigmas: tuple[float, ...] | None = None
    predictive: bool = False

    def __post_init__(self) -> None:
        if self.family not in TARGET_FAMILIES:
            raise DomainError(f"unknown target family {self.family!r}")
        if self.family == "normal":
            self._need(mu=self.mu, sigma=self.sigma)
            if not self.sigma > 0.0:
                raise DomainError("sigma must be positive")
        elif self.family == "bernoulli":
            self._need(p=self.p)
            if not 0.0 <= self.p <= 1.0:
                raise DomainError("rate must lie in [0, 1]")
        elif self.family == "scaled_bernoulli":
            self._need(p=self.p, mean=self.mean)
            if not 0.0 < self.p <= 1.0:
                raise DomainError("p must lie in (0, 1]")
            if not self.mean > 0.0:
                raise DomainError("mean must be positive")
        else:
            self._need(weights=self.weights, mus=self.mus, sigmas=self.sigmas)
            arrays = check_mixture(self.weights, self.mus, self.sigmas)
            for name, arr in zip(("weights", "mus", "sigmas"), arrays):
                object.__setattr__(self, name, tuple(arr.tolist()))
            # Checked once here, so draws skip re-validation.
            weights, mus, sigmas = arrays
            object.__setattr__(self, "_mixture", (_component_cdf(weights), mus, sigmas))

    def _need(self, **fields) -> None:
        for name, value in fields.items():
            if value is None:
                raise DomainError(f"{self.family} target requires {name}")

    @classmethod
    def normal(cls, mu: float, sigma: float, predictive: bool = False) -> "TargetSpec":
        return cls(family="normal", mu=mu, sigma=sigma, predictive=predictive)

    @classmethod
    def bernoulli(cls, theta0: float, predictive: bool = False) -> "TargetSpec":
        return cls(family="bernoulli", p=theta0, predictive=predictive)

    @classmethod
    def scaled_bernoulli(cls, p: float, mean: float, predictive: bool = False) -> "TargetSpec":
        return cls(family="scaled_bernoulli", p=p, mean=mean, predictive=predictive)

    @classmethod
    def mixture(cls, weights, mus, sigmas, predictive: bool = False) -> "TargetSpec":
        return cls(
            family="gaussian_mixture",
            weights=tuple(weights),
            mus=tuple(mus),
            sigmas=tuple(sigmas),
            predictive=predictive,
        )

    @property
    def theta0(self) -> float:
        if self.family == "normal":
            return float(self.mu)
        if self.family == "bernoulli":
            return float(self.p)
        if self.family == "scaled_bernoulli":
            return float(self.mean)
        return float(sum(w * m for w, m in zip(self.weights, self.mus)))

    def with_truth(self, theta: float) -> "TargetSpec":
        """Same family with the inferred-truth parameter replaced."""
        if self.family == "normal":
            return replace(self, mu=float(theta))
        if self.family == "bernoulli":
            return replace(self, p=float(theta))
        if self.family == "scaled_bernoulli":
            return replace(self, mean=float(theta))
        raise UnsupportedTargetError("a mixture has no single truth parameter to sweep")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` draws from the target, continuing ``rng``'s sequence."""
        if self.family == "normal":
            return sample_normal(rng, self.mu, self.sigma, count)
        if self.family == "bernoulli":
            return sample_bernoulli(rng, self.p, count)
        if self.family == "scaled_bernoulli":
            return sample_scaled_bernoulli(rng, self.p, self.mean, count)
        return _draw_mixture(rng, *self._mixture, count)


@dataclass(frozen=True)
class SinghCurve:
    """Sorted required-confidence values, one per replicate or atom.

    A replicate that no confidence level covers holds +inf, which sorts last
    and stays uncovered at every alpha, so ``m`` counts all of them. Monte
    Carlo curves weight every value 1/m; exact enumeration curves carry
    explicit per-value probability weights instead.
    """

    required: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.required, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("required values must be a non-empty 1-D list")
        if np.isnan(arr).any():
            raise DomainError("required values must not be NaN")
        # Compare neighbours directly: a difference of two +inf is NaN.
        if (arr[1:] < arr[:-1]).any():
            raise DomainError("required values must be sorted ascending")
        if arr[0] < 0.0 or ((arr > 1.0) & (arr < np.inf)).any():
            raise DomainError("required values must lie in [0, 1] or be +inf")
        arr.flags.writeable = False
        object.__setattr__(self, "required", arr)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64).copy()
            if w.shape != arr.shape or (w < 0.0).any() or w.sum() > 1.0 + 1e-9:
                raise DomainError("weights must match values and total at most 1")
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return int(self.required.size)

    @property
    def never_count(self) -> int:
        """Replicates (or atoms) that no confidence level covers."""
        return self.m - int(np.searchsorted(self.required, np.inf))

    @property
    def never_fraction(self) -> float:
        """Probability mass left uncovered even at alpha = 1."""
        return 1.0 - eval_curve(self, 1.0)


@dataclass(frozen=True)
class SinghBand:
    """Pair of Singh curves from the two bounds of an imprecise structure.

    ``lower_curve`` collects the lower confidence components, so it is the
    higher-coverage side; ``upper_curve`` is the lower-coverage side.
    """

    lower_curve: SinghCurve
    upper_curve: SinghCurve

    def __post_init__(self) -> None:
        if self.lower_curve.m != self.upper_curve.m:
            raise DomainError("band curves must share the replicate count")

    @property
    def m(self) -> int:
        return self.lower_curve.m


@dataclass(frozen=True)
class CoverageReport:
    """Classification and summary statistics for one Singh result."""

    classification: str
    max_deficit: float
    conservatism_area: float
    dkw_epsilon: float
    m: int
    never_count: int = 0


def dkw_epsilon(m: int, delta: float = 0.01) -> float:
    """Sup-distance tolerance between an m-sample empirical CDF and its source.

    With probability at least 1 - delta the empirical CDF stays within this
    band of the generating CDF, simultaneously at every point.
    """
    if m < 1:
        raise DomainError("m must be at least 1")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))


def _coverage_curve(result) -> SinghCurve:
    """The curve coverage statements are judged on (a band's lower curve)."""
    return result.lower_curve if isinstance(result, SinghBand) else result


def eval_curve(curve: SinghCurve, alpha):
    """Fraction of replicates whose required confidence is at most ``alpha``.

    Replicates requiring +inf are uncovered at every level, including
    alpha = 1. Accepts a scalar or an array of levels.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if (a < 0.0).any() or (a > 1.0).any():
        raise DomainError("alpha must lie in [0, 1]")
    idx = np.searchsorted(curve.required, a, side="right")
    if curve.weights is None:
        cov = idx / curve.m
    else:
        cum = np.concatenate(([0.0], np.cumsum(curve.weights)))
        cov = cum[idx]
    return float(cov) if np.isscalar(alpha) else cov


def _check_run_args(structure: StructureSpec, target: TargetSpec, n: int, m: int) -> None:
    if m < 1:
        raise DomainError("m must be at least 1")
    if n < structure.min_n:
        raise DomainError(f"{structure.kind} needs n >= {structure.min_n}")
    if structure.kind in ("jeffreys", "clopper_pearson", "scaled_cbox") and target.family != "bernoulli":
        raise DomainError(f"{structure.kind} requires a bernoulli target")
    if (structure.kind == "empirical_predictive") != target.predictive:
        raise DomainError("predictive targets pair with empirical_predictive only")


def _blocks(m: int) -> list[tuple[int, int]]:
    """(block index, replicate count) of the BLOCK-sized slices of m replicates."""
    return [(b, min(BLOCK, m - start)) for b, start in enumerate(range(0, m, BLOCK))]


def _count_values(
    structure: StructureSpec, target: TargetSpec, n: int, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Required-confidence bounds of a two-point target at each success count.

    Every structure sees a Bernoulli-family dataset only through its success
    count k, so the dataset of k successes followed by n - k zeros stands
    for all of them. Both engines evaluate structures here.
    """
    value = 1.0 if target.family == "bernoulli" else target.mean / target.p
    truth = target.theta0
    lowers = np.empty(counts.size)
    uppers = np.empty(counts.size)
    for i, k in enumerate(counts.tolist()):
        data = Dataset(np.concatenate((np.full(k, value), np.zeros(n - k))))
        cv = evaluate_structure(structure, truth, data)
        lowers[i] = cv.lower
        uppers[i] = cv.upper
    return lowers, uppers


def _drawn_count_values(
    structure: StructureSpec, target: TargetSpec, n: int, m: int, stream: SeededStream
) -> tuple[np.ndarray, np.ndarray]:
    # One Binomial(n, p) success count per replicate; each distinct count
    # is evaluated once, and only counts actually drawn are evaluated.
    counts = np.concatenate([
        stream.substream(b).generator().binomial(n, target.p, size)
        for b, size in _blocks(m)
    ])
    atoms, index = np.unique(counts, return_inverse=True)
    lowers, uppers = _count_values(structure, target, n, atoms)
    return lowers[index], uppers[index]


def _drawn_row_values(
    structure: StructureSpec, target: TargetSpec, n: int, m: int, stream: SeededStream
) -> tuple[np.ndarray, np.ndarray]:
    # One dataset per replicate, drawn in turn from its block's generator;
    # rows are drawn one at a time so memory stays O(n), not O(BLOCK * n).
    draw_count = n + 1 if target.predictive else n
    truth = None if target.predictive else target.theta0
    lowers = np.empty(m)
    uppers = np.empty(m)
    i = 0
    for b, size in _blocks(m):
        rng = stream.substream(b).generator()
        for _ in range(size):
            x = target.draw(rng, draw_count)
            if target.predictive:
                cv = evaluate_structure(structure, float(x[n]), Dataset(x[:n]))
            else:
                cv = evaluate_structure(structure, truth, Dataset(x))
            lowers[i] = cv.lower
            uppers[i] = cv.upper
            i += 1
    return lowers, uppers


def singh_curve(structure: StructureSpec, target: TargetSpec, n: int, m: int, stream: SeededStream):
    """Monte Carlo Singh result: m replicates of size n in blocks of BLOCK.

    Stream layout v2: block b holds replicates ``b * BLOCK`` onward (the
    last block may be short) and draws them all from one generator,
    ``stream.substream(b).generator()``. A non-predictive Bernoulli-family
    target draws one Binomial(n, p) success count per replicate, in
    replicate order; every other target draws replicate i's dataset as the
    i-th row of its block, and a predictive target's truth is that row's
    (n+1)-th draw. Block boundaries depend only on m, so the result is a
    pure function of (structure, target, n, m, stream). Precise structures
    return a SinghCurve; imprecise ones return a SinghBand built from the
    same replicates.
    """
    _check_run_args(structure, target, n, m)
    if target.family in COUNT_FAMILIES and not target.predictive:
        lowers, uppers = _drawn_count_values(structure, target, n, m, stream)
    else:
        lowers, uppers = _drawn_row_values(structure, target, n, m, stream)
    lower = SinghCurve(np.sort(lowers))
    if structure.is_precise:
        return lower
    return SinghBand(lower, SinghCurve(np.sort(uppers)))


def _binomial_weights(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of k = 0..n.

    Formed in log space: math.comb(n, k) stops converting to float near
    n = 1030, while its logarithm stays small.
    """
    if p == 0.0 or p == 1.0:
        weights = np.zeros(n + 1)
        weights[0 if p == 0.0 else n] = 1.0
        return weights
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    k = np.arange(n + 1, dtype=np.float64)
    log_comb = log_fact[n] - log_fact - log_fact[::-1]
    return np.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))


def _weighted_curve(values: np.ndarray, weights: np.ndarray) -> SinghCurve:
    order = np.argsort(values, kind="stable")
    return SinghCurve(values[order], weights=weights[order])


def exact_singh_curve(structure: StructureSpec, target: TargetSpec, n: int):
    """Exact Singh result by enumerating the success count of a two-point target.

    For Bernoulli-family targets the dataset enters every structure only
    through its success count k, so the full distribution of required
    confidence is the n+1 values at k = 0..n carrying binomial weights. This
    is the zero-noise reference the Monte Carlo path is validated against;
    both evaluate the structure through the same per-count helper.
    """
    if target.family not in COUNT_FAMILIES:
        raise UnsupportedTargetError("exact enumeration needs a bernoulli or scaled_bernoulli target")
    if target.predictive:
        raise UnsupportedTargetError("exact enumeration does not cover predictive targets")
    _check_run_args(structure, target, n, m=1)
    weights = _binomial_weights(n, target.p)
    lowers, uppers = _count_values(structure, target, n, np.arange(n + 1))
    lower = _weighted_curve(lowers, weights)
    if structure.is_precise:
        return lower
    return SinghBand(lower, _weighted_curve(uppers, weights))


def max_coverage_deficit(result, grid: int = DEFAULT_GRID_POINTS) -> float:
    """Worst shortfall of coverage below the nominal level over an alpha grid.

    Uses the coverage-relevant curve (a band's lower curve); negative when
    the curve is conservative everywhere on the grid.
    """
    if grid < 2:
        raise DomainError("grid must have at least 2 points")
    alphas = np.linspace(0.0, 1.0, grid)
    cov = eval_curve(_coverage_curve(result), alphas)
    return float((alphas - cov).max())


def classify(result, delta: float = 0.01) -> CoverageReport:
    """Label a Singh result against its tolerance tube.

    A Monte Carlo curve's tube is its DKW band at ``delta``; an exact
    (weighted) curve has no sampling noise, so its tube is the rounding
    tolerance ``EXACT_TOLERANCE`` and ``delta`` plays no part. The report's
    ``dkw_epsilon`` holds the half-width used.

    overconfident: the coverage-relevant curve dips below alpha - epsilon
    somewhere. favourable: it stays inside the tube everywhere. conservative:
    it clears the tube upward across the whole central range
    ``CONSERVATIVE_RANGE`` (curves meet the diagonal at the extreme tails, so
    only the central range discriminates). valid: everything else.
    """
    curve = _coverage_curve(result)
    eps = dkw_epsilon(curve.m, delta) if curve.weights is None else EXACT_TOLERANCE
    alphas = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    gap = eval_curve(curve, alphas) - alphas
    lo, hi = CONSERVATIVE_RANGE
    central = (alphas >= lo - 1e-12) & (alphas <= hi + 1e-12)
    if (gap < -eps).any():
        label = "overconfident"
    elif (np.abs(gap) <= eps).all():
        label = "favourable"
    elif (gap[central] > eps).all():
        label = "conservative"
    else:
        label = "valid"
    if isinstance(result, SinghBand):
        spread = eval_curve(result.lower_curve, alphas) - eval_curve(result.upper_curve, alphas)
        area = float(np.trapezoid(spread, alphas))
    else:
        area = 0.0
    return CoverageReport(
        classification=label,
        max_deficit=float((-gap).max()),
        conservatism_area=area,
        dkw_epsilon=eps,
        m=curve.m,
        never_count=curve.never_count,
    )
