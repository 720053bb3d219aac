"""Singh-plot generation and coverage classification.

A Singh plot is the empirical CDF of the minimum confidence a structure
requires before its one-sided interval covers the truth, replicated over
fresh datasets. For an exactly calibrated structure that CDF is the U(0, 1)
diagonal; dips below signal overconfidence, slack above signals
conservatism. Monte Carlo curves come with a distribution-free tolerance
band (the DKW bound), and for Bernoulli-family targets an exact enumeration
over the success count replaces simulation entirely, serving as the oracle
the Monte Carlo path is tested against. A local run is the one-point case
of the grid envelope (``_envelope``), which folds grid points as step CDFs
(``_fold``), and the exact and Monte Carlo count paths evaluate and order
their atoms through one kernel (``_atom_columns``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .special_math import MAX_ACCURATE_SHAPE, DomainError, SeededStream, binomial_pmf, is_integer
# evaluate_structure is not called here; it stays importable from this module
# because perfbench's tracer wraps singh_engine.evaluate_structure.
from .structures import (  # noqa: F401
    StructureSpec,
    band_bounds,
    evaluate_counts,
    evaluate_structure,
    moment_bounds,
    row_moments,
)

__all__ = [
    "UnsupportedTargetError",
    "TargetSpec",
    "SinghCurve",
    "SinghBand",
    "CoverageReport",
    "dkw_epsilon",
    "check_run_args",
    "singh_curve",
    "exact_singh_curve",
    "eval_curve",
    "classify",
]

COUNT_FAMILIES = ("bernoulli", "scaled_bernoulli")

# Replicates per substream in a Monte Carlo run (the stream layout of
# ``singh_curve``).
BLOCK = 4096
# A count run draws one histogram of its counts per block, not one count
# per replicate, when its m replicates are at least this many times the
# n + 1 possible counts. Like BLOCK, a layout constant, set where the two
# draws cost about the same: the histogram's Binomial weights, O(n) to
# form, against m counts drawn and sorted.
HISTOGRAM_FACTOR = 8
# Sample elements per drawn chunk: rows are drawn in chunks of at most this
# many elements (at least one row), so a drawn matrix stays
# O(max(n, CHUNK_ELEMENTS)) and never O(BLOCK * n). What a chunk leaves
# behind, its rows' statistics or bounds, is O(m) over the run.
CHUNK_ELEMENTS = 2**15
# A count envelope's chunk evaluates the Beta chains of all its points at
# once: n + 1 values per point, each needing up to about 20 working floats
# at the peak of the saddle-point binomial terms (a point drawn one count
# per replicate has m < HISTOGRAM_FACTOR (n + 1) of them, within the same
# budget). Its fold then holds a (points x atoms) matrix, at most
# min(m, n + 1) atoms per point. So a chunk takes the most points K, at
# least one, with K CHAIN_WEIGHT (n + 1) and K^2 min(m, n + 1) both at most
# CHUNK_ELEMENTS, and stays O(CHUNK_ELEMENTS) floats.
CHAIN_WEIGHT = 8

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
    Bernoulli rate, the scaled-Bernoulli mean, the mixture mean). ``draw``
    draws datasets as rows; ``draw_moments`` draws, for a normal target,
    only each dataset's mean and sample sd, which is all a moment kind
    reads.
    """

    # The fields each family takes, and the one holding its truth; a
    # mixture's truth is its derived mean, so it has no field to sweep.
    FAMILY_FIELDS: ClassVar[dict[str, tuple[tuple[str, ...], str | None]]] = {
        "normal": (("mu", "sigma"), "mu"),
        "bernoulli": (("p",), "p"),
        "scaled_bernoulli": (("p", "mean"), "mean"),
        "gaussian_mixture": (("weights", "mus", "sigmas"), None),
    }

    family: str
    mu: float | None = None
    sigma: float | None = None
    p: float | None = None
    mean: float | None = None
    weights: tuple[float, ...] | None = None
    mus: tuple[float, ...] | None = None
    sigmas: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in self.FAMILY_FIELDS:
            raise DomainError(f"unknown target family {self.family!r}")
        for name in self.FAMILY_FIELDS[self.family][0]:
            if getattr(self, name) is None:
                raise DomainError(f"{self.family} target requires {name}")
        if self.family == "normal":
            if not self.sigma > 0.0:
                raise DomainError("sigma must be positive")
        elif self.family == "bernoulli":
            if not 0.0 <= self.p <= 1.0:
                raise DomainError("rate must lie in [0, 1]")
        elif self.family == "scaled_bernoulli":
            if not 0.0 < self.p <= 1.0:
                raise DomainError("p must lie in (0, 1]")
            if not self.mean > 0.0:
                raise DomainError("mean must be positive")
        else:
            weights, mus, sigmas = (
                np.asarray(v, dtype=np.float64) for v in (self.weights, self.mus, self.sigmas)
            )
            if not weights.shape == mus.shape == sigmas.shape or weights.ndim != 1:
                raise DomainError("weights, mus and sigmas must be equal-length lists")
            if weights.size == 0:
                raise DomainError("mixture needs at least one component")
            if abs(weights.sum() - 1.0) > 1e-9:
                raise DomainError("mixture weights must sum to 1")
            if (weights < 0.0).any():
                raise DomainError("mixture weights must be non-negative")
            if (sigmas <= 0.0).any():
                raise DomainError("sigmas must be positive")
            for name, arr in zip(("weights", "mus", "sigmas"), (weights, mus, sigmas)):
                object.__setattr__(self, name, tuple(arr.tolist()))
            # Checked once here, so draws skip re-validation. The component
            # CDF is normalised to end at exactly 1.
            cdf = weights.cumsum()
            object.__setattr__(self, "_mixture", (cdf / cdf[-1], mus, sigmas))
        # NaN fails every comparison above, and +inf passes some of them.
        for name in self.FAMILY_FIELDS[self.family][0]:
            value = getattr(self, name)
            if not (np.isfinite(value).all() if isinstance(value, tuple) else math.isfinite(value)):
                raise DomainError(f"{name} must be finite")
        # A tiny p overflows the success value that each draw takes.
        if self.family == "scaled_bernoulli" and not math.isfinite(self.mean / self.p):
            raise DomainError("the success value mean / p must be finite")

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "TargetSpec":
        return cls(family="normal", mu=mu, sigma=sigma)

    @classmethod
    def bernoulli(cls, theta0: float) -> "TargetSpec":
        return cls(family="bernoulli", p=theta0)

    @classmethod
    def scaled_bernoulli(cls, p: float, mean: float) -> "TargetSpec":
        return cls(family="scaled_bernoulli", p=p, mean=mean)

    @classmethod
    def mixture(cls, weights, mus, sigmas) -> "TargetSpec":
        return cls(
            family="gaussian_mixture", weights=tuple(weights), mus=tuple(mus), sigmas=tuple(sigmas)
        )

    @property
    def theta0(self) -> float:
        truth = self.FAMILY_FIELDS[self.family][1]
        if truth is None:
            return float(sum(w * m for w, m in zip(self.weights, self.mus)))
        return float(getattr(self, truth))

    def with_truth(self, theta: float) -> "TargetSpec":
        """Same family with the inferred-truth parameter replaced.

        Built from the family's own fields alone, not all of ``TargetSpec``'s.
        """
        fields, truth = self.FAMILY_FIELDS[self.family]
        if truth is None:
            raise UnsupportedTargetError("a mixture has no truth parameter to sweep")
        values = {x: getattr(self, x) for x in fields}
        values[truth] = float(theta)
        return TargetSpec(self.family, **values)

    def draw(
        self,
        rng: np.random.Generator,
        rows: int,
        count: int,
        normals: np.random.Generator | None = None,
    ) -> np.ndarray:
        """A (rows, count) block of draws, continuing ``rng``'s sequence.

        A moment kind's run on a normal target draws no rows but
        ``draw_moments``; the predictive band's rows on a normal target come
        from here. Normal and Bernoulli-family blocks are one generator call
        filled in row-major order, so row i equals the i-th of ``rows``
        successive ``count``-draw calls. A mixture block takes all its
        component picks from one ``rng`` call and all its normals from one call
        on ``normals`` (default ``rng``), both in row-major order. With
        ``normals`` a generator of its own, successive calls therefore continue
        both sequences row by row, whatever their ``rows``. A draw u picks
        component ``cdf.searchsorted(u, "right")`` of the normalised component
        CDF: since u < 1 = ``cdf[-1]``, that is the number of inner edges at or
        below u, counted in K - 1 comparison passes over the block, O(K) per
        draw but no binary search of unsorted keys: cheaper at the few
        components of every preset, dearer at many (README gives the
        crossover). A single component draws no picks.

        Each block is built in the buffer it was drawn into: a normal is
        scaled and shifted where it lies, a count-family row is written over
        its uniform, and a mixture's uniforms are released once its picks
        are formed, so at most three block-sized arrays are live (picks,
        normals and one gathered component parameter). IEEE multiplication
        and addition are commutative, so ``z *= sigma; z += mu`` has the
        bits of ``mu + sigma * z`` and ``u *= v`` on u's 0/1 those of ``v *
        (u < p)``: no draw moves.
        """
        size = rows * count
        if self.family in COUNT_FAMILIES:
            x = rng.random(size)
            np.less(x, self.p, out=x)
            x *= _success_value(self)
            return x.reshape(rows, count)
        if self.family == "normal":
            # Location-scale on standard normals keeps (mu=4, sigma=3) an
            # exact affine image of (mu=0, sigma=1) under the same generator.
            x = rng.standard_normal(size)
            x *= self.sigma
            x += self.mu
            return x.reshape(rows, count)
        cdf, mus, sigmas = self._mixture
        normals = rng if normals is None else normals
        pick = 0
        if cdf.size > 1:
            # The inverse-CDF lookup of rng.choice(size, p=weights), without
            # its per-call validation of the weights.
            u = rng.random(size)
            pick = (u >= cdf[0]).astype(np.intp)
            for edge in cdf[1:-1]:
                pick += u >= edge
            del u
        x = normals.standard_normal(size)
        x *= sigmas.take(pick)
        x += mus.take(pick)
        return x.reshape(rows, count)

    def draw_moments(self, rng: np.random.Generator, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The mean and sample sd of each of ``rows`` normal datasets of n draws.

        Under N(mu, sigma^2) the mean and sample sd of n draws are
        independent, with mean ~ N(mu, sigma^2 / n) and (n - 1) sd^2 /
        sigma^2 ~ chi-square with n - 1 degrees of freedom (Student
        1908; Cochran's theorem), so they are drawn outright and no dataset
        is formed. ``rng`` gives ``z = rng.standard_normal(rows)``, then
        ``q = rng.chisquare(n - 1, rows)``; row i's mean is ``mu + sigma *
        z[i] / sqrt(n)`` and its sd ``sigma * sqrt(q[i] / (n - 1))``, in
        that order of float operations. Memory is O(rows) at any n >= 2.
        The target must be normal; ``_drawn_row_values`` is the one place
        that decides which runs draw this way.
        """
        z = rng.standard_normal(rows)
        q = rng.chisquare(n - 1, rows)
        return self.mu + self.sigma * z / math.sqrt(n), self.sigma * np.sqrt(q / (n - 1))


@dataclass(frozen=True, eq=False)
class SinghCurve:
    """Ascending required-confidence atoms, each with a mass.

    An atom that no confidence level covers holds +inf, which sorts last and
    stays uncovered at every alpha. The mass is exactly one array: integer
    ``counts`` >= 1, the replicates at each atom of a Monte Carlo curve, or
    probability ``weights``, an exact enumeration's. ``m`` is the counts'
    total, None on an exact curve, and ``never_count`` the mass at +inf in
    the curve's own unit: an int of replicates or a float of probability.
    Compared by identity.
    """

    required: np.ndarray
    weights: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.required, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("required values must be a non-empty 1-D list")
        # One proof of every condition below: a NaN fails a comparison (a
        # lone NaN the first), so ascending neighbours and a first value of
        # at least 0 leave no NaN, and the first value past 1 of an
        # ascending array is +inf only if all that follow it are. Only a
        # curve that fails it runs the checks one by one, for their message.
        past_one = arr.searchsorted(1.0, "right")
        if not ((arr[1:] >= arr[:-1]).all() and arr[0] >= 0.0
                and (past_one == arr.size or arr[past_one] == np.inf)):
            if np.isnan(arr).any():
                raise DomainError("required values must not be NaN")
            # Compare neighbours directly: a difference of two +inf is NaN.
            if (arr[1:] < arr[:-1]).any():
                raise DomainError("required values must be sorted ascending")
            if arr[0] < 0.0 or ((arr > 1.0) & (arr < np.inf)).any():
                raise DomainError("required values must lie in [0, 1] or be +inf")
        arr.flags.writeable = False
        object.__setattr__(self, "required", arr)
        if (self.weights is None) == (self.counts is None):
            raise DomainError("a curve takes counts or weights, exactly one of them")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64).copy()
            # The least weight and the total are NaN if any weight is.
            if not (w.shape == arr.shape and w.min() >= 0.0 and w.sum() <= 1.0 + 1e-9):
                if np.isnan(w).any():
                    raise DomainError("weights must not be NaN")
                if w.shape != arr.shape or (w < 0.0).any() or w.sum() > 1.0 + 1e-9:
                    raise DomainError("weights must match values and total at most 1")
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)
        else:
            c = np.array(self.counts)
            if c.dtype.kind not in "iu" or c.shape != arr.shape or (c < 1).any():
                raise DomainError("counts must be positive integers, one per value")
            c.flags.writeable = False
            object.__setattr__(self, "counts", c)

    @cached_property
    def coverage(self) -> np.ndarray:
        """Mass of the first i atoms at index i, over m, computed on first use.

        The curve at alpha is ``coverage[searchsorted(required, alpha,
        "right")]``, and the array is kept for every later evaluation. A
        counted curve divides its integer cumulative count by m, so each
        coverage is the i / m of its i replicates, bit for bit; an exact
        curve divides by 1, which leaves its cumulative weights as they are.
        """
        mass = self.weights if self.counts is None else self.counts
        cov = np.concatenate(([0], np.cumsum(mass))) / (self.m or 1)
        cov.flags.writeable = False
        return cov

    @property
    def m(self) -> int | None:
        return None if self.counts is None else int(self.counts.sum())

    @property
    def curves(self) -> tuple[SinghCurve]:
        """The curves of this result: the curve itself."""
        return (self,)

    @property
    def never_count(self) -> int | float:
        """Mass on the +inf atoms, in the curve's own unit."""
        mass = self.weights if self.counts is None else self.counts
        return mass[np.searchsorted(self.required, np.inf):].sum().item()

    @property
    def never_fraction(self) -> float:
        """Probability mass left uncovered even at alpha = 1."""
        return self.never_count / (self.m or 1)


@dataclass(frozen=True, eq=False)
class SinghBand:
    """Pair of Singh curves from the two bounds of an imprecise structure.

    ``lower_curve`` collects the lower confidence components, so it is the
    higher-coverage side; ``upper_curve`` is the lower-coverage side.
    Compared by identity, like its curves.
    """

    lower_curve: SinghCurve
    upper_curve: SinghCurve

    def __post_init__(self) -> None:
        if self.lower_curve.m != self.upper_curve.m:
            raise DomainError("band curves must both be exact or share the replicate count")

    @property
    def m(self) -> int | None:
        return self.lower_curve.m

    @property
    def curves(self) -> tuple[SinghCurve, SinghCurve]:
        """The curves of this result, the coverage-relevant lower curve first."""
        return (self.lower_curve, self.upper_curve)


@dataclass(frozen=True)
class CoverageReport:
    """Classification and summary statistics for one Singh result."""

    classification: str
    max_deficit: float
    conservatism_area: float
    dkw_epsilon: float
    m: int | None
    never_count: int | float = 0


def dkw_epsilon(m: int, delta: float = 0.01) -> float:
    """Sup-distance tolerance between an m-sample empirical CDF and its source.

    With probability at least 1 - delta the empirical CDF stays within this
    band of the generating CDF, simultaneously at every point.
    """
    if not is_integer(m):
        raise DomainError("m must be an integer")
    if m < 1:
        raise DomainError("m must be at least 1")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))


def eval_curve(curve: SinghCurve, alpha):
    """Fraction of replicates whose required confidence is at most ``alpha``.

    Replicates requiring +inf are uncovered at every level, including
    alpha = 1. Accepts a scalar or an array of levels.
    """
    a = np.asarray(alpha, dtype=np.float64)
    # Written so that NaN fails the check.
    if not ((a >= 0.0) & (a <= 1.0)).all():
        raise DomainError("alpha must lie in [0, 1]")
    cov = _coverage_at(curve, a)
    return float(cov) if np.isscalar(alpha) else cov


def _coverage_at(curve: SinghCurve, alphas: np.ndarray) -> np.ndarray:
    """``eval_curve`` at levels already known to lie in [0, 1]."""
    return curve.coverage.take(np.searchsorted(curve.required, alphas, side="right"))


def check_run_args(structure: StructureSpec, target: TargetSpec, n: int, m: int) -> None:
    """Raise DomainError for a run the engines cannot evaluate, or not accurately.

    The one check of a run's arguments: ``singh_curve``,
    ``exact_singh_curve`` and ``check_grid_args`` (for ``global_singh``)
    call it, and so does every ``Scenario`` when it is constructed, parsed
    or replaced. Beta shapes above ``MAX_ACCURATE_SHAPE`` are refused
    because ``reg_inc_beta`` does not hold its 1e-12 accuracy there.
    """
    for name, value in (("n", n), ("m", m)):
        if not is_integer(value):
            raise DomainError(f"{name} must be an integer")
    if m < 1:
        raise DomainError("m must be at least 1")
    if n < structure.min_n:
        raise DomainError(f"{structure.kind} needs n >= {structure.min_n}")
    shape = structure.max_beta_shape(n)
    if shape > MAX_ACCURATE_SHAPE:
        raise DomainError(
            f"{structure.kind} at n = {n} needs Beta shapes up to {shape:g}, "
            f"beyond the accurate range (at most {MAX_ACCURATE_SHAPE:g})"
        )
    if structure.reads_count and target.family != "bernoulli":
        raise DomainError(f"{structure.kind} requires a bernoulli target")


def _blocks(m: int) -> list[tuple[int, int]]:
    """(block index, replicate count) of the BLOCK-sized slices of m replicates."""
    return [(b, min(BLOCK, m - start)) for b, start in enumerate(range(0, m, BLOCK))]


def _success_value(target: TargetSpec) -> float:
    """The value a success takes in a Bernoulli-family draw."""
    return 1.0 if target.family == "bernoulli" else target.mean / target.p


def _columns(structure: StructureSpec) -> int:
    """Bound columns a result is built from: the lower alone for a precise structure."""
    return 1 if structure.is_precise else 2


def _atom_columns(
    structure: StructureSpec, targets: list[TargetSpec], n: int,
    point: np.ndarray, counts: np.ndarray, mass: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each bound column's (point, value, mass) of every atom, ordered by (value, point).

    Atom i is the success count ``counts[i]`` of ``targets[point[i]]``, of
    mass ``mass[i]``: a count of replicates or a probability. The
    one kernel of the exact and Monte Carlo count paths: one
    ``evaluate_counts`` call evaluates every atom, with a truth and a
    success value per atom (a scaled-Bernoulli mean sweep moves both; one
    target passes scalars), so the chains of all distinct truths are built
    together, once each. Every structure reads a count alone, so the t
    pivot raises only if a degenerate count is an atom, and runs its
    continued fraction on the atoms, not on m lanes.
    """
    if len(targets) == 1:
        truth, success = targets[0].theta0, _success_value(targets[0])
    else:
        truth = np.array([t.theta0 for t in targets])[point]
        success = np.array([_success_value(t) for t in targets])[point]
    columns = evaluate_counts(structure, truth, n, counts, success)[:_columns(structure)]
    orders = [np.lexsort((point, values)) for values in columns]
    return [(point[order], values[order], mass[order]) for values, order in zip(columns, orders)]


def _drawn_count_values(
    structure: StructureSpec, draws: list[tuple[TargetSpec, SeededStream]], n: int, m: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each bound column's envelope over the pairs ``draws``, as (atoms, counts).

    Point j holds the m success counts drawn from ``draws[j]`` by
    ``_count_histograms`` or ``_count_runs``; each distinct count of a
    point, an atom, is evaluated once (``_atom_columns``), and ``_fold``
    takes the least cumulative count over the points: nothing of length m
    is gathered or sorted by value. Working memory is O(K (n + 1)) on the
    histogram side and O(K m) below it, plus the fold's K^2 min(m, n + 1),
    which ``_envelope`` bounds by its chunk size.
    """
    drawn = _count_histograms if HISTOGRAM_FACTOR * (n + 1) <= m else _count_runs
    columns = _atom_columns(structure, [target for target, _ in draws], n, *drawn(draws, n, m))
    return [_fold(*column) for column in columns]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """A mask, True where each run of equal neighbours begins in a sorted array."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def _fold(point: np.ndarray, values: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least cumulative mass over the points, as (atoms, mass) of a step CDF.

    Value i, ascending across every point, carries ``mass[i]`` of point
    ``point[i]``; a point may repeat a value. The fold takes, at each
    distinct value v, the least mass at or below v over the points, and
    keeps the values where that minimum steps up, with the step. Points of
    m replicates each fold to the index-wise maximum of their sorted
    columns, since its count at or below v is the least such count over
    the columns: the pointwise minimum coverage. Integer counts stay
    integers (exact in the float64 sums below 2^53); probability weights
    fold the same way. A (points x distinct values) matrix holds the
    cumulative masses, so the caller bounds the fold's size.
    """
    new = _run_starts(values)
    atoms = values[new]
    cells = point * atoms.size + (np.cumsum(new) - 1)
    cum = np.bincount(cells, mass, (point.max() + 1) * atoms.size).reshape(-1, atoms.size)
    step = np.diff(np.cumsum(cum, axis=1, out=cum).min(axis=0), prepend=0.0)
    keep = step > 0.0
    return atoms[keep], step[keep].astype(mass.dtype)


def _merged(first: tuple, second: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_fold``'s (point, values, mass) of two ascending (values, counts) columns.

    The first column is point 0 and the second point 1.
    """
    values = np.concatenate((first[0], second[0]))
    order = np.argsort(values, kind="stable")
    return (order >= first[0].size).astype(np.int64), values[order], np.concatenate((first[1], second[1]))[order]


def _atoms(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A sorted column's distinct values, ascending, and how often each occurs."""
    starts = np.flatnonzero(_run_starts(values))
    return values[starts], np.diff(starts, append=values.size)


def _count_histograms(
    draws: list[tuple[TargetSpec, SeededStream]], n: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point, count, multiplicity) of every drawn count, from one histogram per block.

    The histogram side of ``singh_curve``'s count-run layout. A point sums
    its blocks' histograms, and one ``_binomial_weights`` call gives every
    point's cell probabilities. A point's atoms are the non-zero entries,
    in ascending count, and their values the multiplicities.
    """
    hist = np.zeros((len(draws), n + 1), dtype=np.int64)
    weights = _binomial_weights(n, [target.p for target, _ in draws])
    for row, p_weights, (_, stream) in zip(hist, weights, draws):
        for b, size in _blocks(m):
            row += stream.substream(b).generator().multinomial(size, p_weights)
    point, counts = np.nonzero(hist)
    return point, counts, hist[point, counts]


def _count_runs(
    draws: list[tuple[TargetSpec, SeededStream]], n: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point, count, multiplicity) of every drawn count, from one count per replicate.

    The per-replicate side of ``singh_curve``'s count-run layout. Each
    point's counts are sorted and one run-start pass finds every point's
    atoms and their multiplicities. No histogram of size n + 1 is formed:
    Chebyshev's n has no Beta-shape bound, and this side holds every run
    whose m is small beside n.
    """
    counts = np.empty((len(draws), m), dtype=np.int64)
    for row, (target, stream) in zip(counts, draws):
        for b, size in _blocks(m):
            rng = stream.substream(b).generator()
            row[b * BLOCK:b * BLOCK + size] = rng.binomial(n, target.p, size)
    counts.sort(axis=1)
    flat = counts.ravel()
    # An atom starts where a row starts or its sorted count changes.
    first = _run_starts(flat)
    first[::m] = True
    first = np.flatnonzero(first)
    return first // m, flat[first], np.diff(first, append=flat.size)


def _drawn_row_values(
    structure: StructureSpec, target: TargetSpec, n: int, m: int, stream: SeededStream
) -> list[np.ndarray]:
    """Sorted bound columns of m replicates on a target other than a count family's.

    Draws as ``singh_curve``'s layout has it: a moment kind on a normal
    target its statistics alone, in O(m) memory at any n, any other run
    its rows, in chunks of at most CHUNK_ELEMENTS elements (one row when a
    row is larger). A chunk only reduces its rows to what the structure
    reads: each row's mean and sample sd for a moment kind, the predictive
    band's rank counts per element (``structures.band_bounds``, without
    ``evaluate_structure``'s finiteness check: a validated target draws
    finite rows). Chunking changes neither the draws nor the values,
    only memory. A moment kind's bounds are evaluated once over all m
    replicates, so the t pivot runs one continued fraction per run. The
    columns are this call's own, so they are sorted in place.
    """
    predictive = structure.reads_next_draw
    moments = target.family == "normal" and not predictive
    width = n + 1 if predictive else n
    step = max(1, CHUNK_ELEMENTS // width)
    # The predictive band's bounds, or else a moment kind's means and sds.
    first = np.empty(m)
    second = np.empty(m)
    mixture = target.family == "gaussian_mixture"
    for b, size in _blocks(m):
        block = stream.substream(b)
        rng = block.generator()
        if moments:
            i = b * BLOCK
            first[i:i + size], second[i:i + size] = target.draw_moments(rng, size, n)
            continue
        normals = block.generator(child=0) if mixture else None
        for start in range(0, size, step):
            rows = min(step, size - start)
            x = target.draw(rng, rows, width, normals)
            i = b * BLOCK + start
            if predictive:
                first[i:i + rows], second[i:i + rows] = band_bounds(x[:, n], x[:, :n])
            else:
                first[i:i + rows], second[i:i + rows] = row_moments(x)
    if not predictive:
        first, second = moment_bounds(structure, target.theta0, n, first, second)
    columns = [first, second][:_columns(structure)]
    for column in columns:
        column.sort()
    return columns


def singh_curve(structure: StructureSpec, target: TargetSpec, n: int, m: int, stream: SeededStream):
    """Monte Carlo Singh result: m replicates of size n in blocks of BLOCK.

    Stream layout v5: block b holds replicates ``b * BLOCK`` onward (the last
    block may be short) and draws them all from one generator,
    ``stream.substream(b).generator()``. On a Bernoulli-family target every
    structure but the predictive band reads a replicate only through its
    Binomial(n, p) success count, so a count run depends on its draws only
    through the histogram of counts: when HISTOGRAM_FACTOR (n + 1) <= m,
    block b draws that histogram outright, ``multinomial(size,
    _binomial_weights(n, p))``, and otherwise one count per replicate,
    ``binomial(n, p, size)``. On a normal target a moment kind (the t pivot,
    Chebyshev) reads a replicate only through its mean and sample sd, which
    are independent there, so block b draws those two statistics outright,
    ``TargetSpec.draw_moments``: ``size`` standard normals, then ``size``
    chi-squares with n - 1 degrees of freedom. Every other run draws
    replicate i's dataset as the i-th row of its block, and the predictive
    band, which reads a next draw, takes that row's (n+1)-th draw as its
    truth. A Gaussian-mixture block is the one exception to a single
    generator: its component picks come from that generator and its normals
    from the block's child stream, ``stream.substream(b).generator(child=0)``,
    each consumed in row order. Block boundaries depend only on m, the
    choice of a count run's draw only on n and m, and the choice of a moment
    draw only on the structure kind and the target family, so the result is
    a pure function of (structure, target, n, m, stream). Precise
    structures return a SinghCurve; imprecise ones return a SinghBand built
    from the same replicates. A local run is the one-point ``_envelope``.
    """
    check_run_args(structure, target, n, m)
    return _envelope(structure, [target], n, m, stream)


def _envelope(structure: StructureSpec, targets: list[TargetSpec], n: int, m: int, stream: SeededStream):
    """Worst-case Singh result over ``targets``, point j drawn from ``stream.substream(j * m)``.

    The one run path of the Monte Carlo engine, local (one point) and
    global alike. Point j lays out its blocks as ``singh_curve`` does, on
    the ceil(m / BLOCK) <= m substreams from ``stream.substream(j * m)`` on,
    so the points' substreams are disjoint and ``stream.substream(0)``
    equals ``stream``. Each curve is the pointwise minimum coverage over the
    points, ``_fold``'s least cumulative count. A count run takes
    min(CHUNK_ELEMENTS // (CHAIN_WEIGHT (n + 1)), isqrt(CHUNK_ELEMENTS //
    min(m, n + 1))) points at a time (at least one), the running envelope
    folded with each next chunk's. Any other run draws one point at a time
    (``_drawn_row_values``), a sorted column of m values per curve, folds
    it into the running envelope as the index-wise maximum of the sorted
    columns, which is what ``_fold``'s atoms and counts expand to, and cuts
    the envelope into counted atoms once, at the end. Working memory is
    O(m + CHUNK_ELEMENTS) samples besides the targets, not O(K m) and not
    O(K n).
    """
    pairs = [(target, stream.substream(j * m)) for j, target in enumerate(targets)]
    if targets[0].family in COUNT_FAMILIES and not structure.reads_next_draw:
        chains = CHUNK_ELEMENTS // (CHAIN_WEIGHT * (n + 1))
        step = max(1, min(chains, math.isqrt(CHUNK_ELEMENTS // min(m, n + 1))))
        starts = range(0, len(pairs), step)
        chunks = (_drawn_count_values(structure, pairs[lo:lo + step], n, m) for lo in starts)
        envelope = next(chunks)
        for columns in chunks:
            envelope = [_fold(*_merged(running, column)) for running, column in zip(envelope, columns)]
        return _result(structure, [SinghCurve(values, counts=counts) for values, counts in envelope])
    columns = (_drawn_row_values(structure, target, n, m, s) for target, s in pairs)
    envelope = next(columns)
    for point in columns:
        envelope = [np.maximum(running, column, out=running) for running, column in zip(envelope, point)]
    return _result(structure, [SinghCurve(atoms, counts=counts) for atoms, counts in map(_atoms, envelope)])


def _result(structure: StructureSpec, curves: list[SinghCurve]):
    """A precise structure's SinghCurve, or an imprecise one's SinghBand, of its curves."""
    return curves[0] if structure.is_precise else SinghBand(*curves)


def _binomial_weights(n: int, p) -> np.ndarray:
    """Binomial(n, p) probabilities of k = 0..n, from ``binomial_pmf``; a row per p.

    A scalar p gives one row of n + 1 weights, an array of K values a (K,
    n + 1) matrix from one ``binomial_pmf`` call, each row what its p gives
    alone; p = 0 and p = 1 take its point masses at k = 0 and k = n. That
    is the helper whose terms step the count kinds' Beta chains.
    ``binomial_pmf`` states the forms that give the terms at each size and
    the relative accuracy each weight holds at any n the engines accept.
    The same weights are the exact enumeration's atom masses and the
    multinomial cell probabilities of a Monte Carlo count run's histograms.
    """
    p = np.asarray(p, dtype=np.float64)
    return binomial_pmf(p.reshape(-1), float(n), np.arange(n + 1.0)).reshape(p.shape + (n + 1,))


@lru_cache(maxsize=1)
def _shared_weights(n: int, p: float) -> np.ndarray:
    """``_binomial_weights(n, p)``, read-only, kept for the next exact audit.

    One entry, at most 80 KB (n <= ``MAX_ACCURATE_SHAPE``): the audits of
    one target, whatever their structures, read one row, and the first
    audit of another target forms its own. Equal keys give equal bits:
    p = -0.0 and 0.0 both take the point mass at k = 0.
    """
    weights = _binomial_weights(n, p)
    weights.flags.writeable = False
    return weights


def exact_singh_curve(structure: StructureSpec, target: TargetSpec, n: int):
    """Exact Singh result by enumerating the success count of a two-point target.

    For Bernoulli-family targets every structure but the predictive band
    reads the dataset only through its success count k, so the full
    distribution of required confidence is the n+1 values at k = 0..n
    carrying binomial weights. This is the zero-noise reference the Monte
    Carlo path is validated against; both evaluate and order the atoms
    through one kernel, ``_atom_columns``. The t pivot is refused: the
    enumeration always holds k = 0 and k = n, whose zero spread leaves the
    pivot undefined, whatever their weight.
    Every kind is held to n <= ``MAX_ACCURATE_SHAPE``, the bound the count
    kinds meet through their Beta shapes, before any weight is formed.
    The weights come from ``_shared_weights``: one read-only entry keyed on
    (n, p), with the bits of ``_binomial_weights``, so the audits of one
    target, Bernoulli or scaled-Bernoulli, form its row once. A sweep that
    loops over targets outermost gains from it; one that loops over
    structures outermost forms a row per audit, as without the entry.
    """
    if target.family not in COUNT_FAMILIES:
        raise UnsupportedTargetError("exact enumeration needs a bernoulli or scaled_bernoulli target")
    if structure.reads_next_draw:
        raise UnsupportedTargetError("exact enumeration does not cover a next-draw truth")
    if structure.kind == "student_t_pivot":
        raise UnsupportedTargetError(
            "exact enumeration cannot evaluate student_t_pivot: it includes the counts "
            "k = 0 and k = n, whose datasets have zero spread"
        )
    check_run_args(structure, target, n, m=1)
    if n > MAX_ACCURATE_SHAPE:
        raise DomainError(f"exact enumeration needs n <= {MAX_ACCURATE_SHAPE:g}, got n = {n}")
    weights = _shared_weights(n, target.p)
    counts = np.arange(n + 1)
    columns = _atom_columns(structure, [target], n, np.zeros_like(counts), counts, weights)
    return _result(structure, [SinghCurve(values, weights=w) for _, values, w in columns])


@cache
def _alpha_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``classify``'s DEFAULT_GRID_POINTS alphas on [0, 1], the mask of
    CONSERVATIVE_RANGE among them and their trapezoid spacing; formed at
    first use, not at import, and shared read-only."""
    alphas = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    lo, hi = CONSERVATIVE_RANGE
    grid = (alphas, (alphas >= lo - 1e-12) & (alphas <= hi + 1e-12), np.diff(alphas))
    for table in grid:
        table.flags.writeable = False
    return grid


def classify(result, delta: float = 0.01) -> CoverageReport:
    """Label a Singh result against its tolerance tube.

    A Monte Carlo curve's tube is its DKW band at ``delta``; an exact
    (weighted) curve has no sampling noise, so its tube is the rounding
    tolerance ``EXACT_TOLERANCE``. Either way ``delta`` must lie in (0, 1).
    The report's ``dkw_epsilon`` holds the half-width used.

    overconfident: the coverage-relevant curve dips below alpha - epsilon
    somewhere. favourable: it stays inside the tube everywhere. conservative:
    it clears the tube upward across the whole central range
    ``CONSERVATIVE_RANGE`` (curves meet the diagonal at the extreme tails, so
    only the central range discriminates). valid: everything else. The
    conservatism area lies between the first and last of ``result.curves``.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    curve = result.curves[0]
    eps = EXACT_TOLERANCE if curve.m is None else dkw_epsilon(curve.m, delta)
    alphas, central, spacing = _alpha_grid()
    covs = [_coverage_at(c, alphas) for c in result.curves]
    gap = covs[0] - alphas
    if (gap < -eps).any():
        label = "overconfident"
    elif (np.abs(gap) <= eps).all():
        label = "favourable"
    elif (gap[central] > eps).all():
        label = "conservative"
    else:
        label = "valid"
    slack = covs[0] - covs[-1]
    return CoverageReport(
        classification=label,
        max_deficit=float((-gap).max()),
        # np.trapezoid(slack, alphas), in its operations and order.
        conservatism_area=float((spacing * (slack[1:] + slack[:-1]) / 2.0).sum()),
        dkw_epsilon=eps,
        m=curve.m,
        never_count=curve.never_count,
    )
