"""Special functions and seeded random streams.

The regularized incomplete beta function is computed with the standard
continued-fraction expansion so results are identical on every platform
and carry no heavyweight dependency. The Student-t CDF has two forms: at
integer degrees of freedom up to 100 a finite trigonometric sum near the
centre and its positive complementary series in the tails
(``_t_centre_tail``, ``_t_far_tail``), and at any other nu the incomplete
beta. Both scalar functions check their arguments; the incomplete beta
then runs one core, ``_reg_inc_beta``, which holds the stated values, the
front factor, the continued-fraction side and the clamp, and the t CDF's
second form hands it the complement y that it forms directly. The Beta
front factor x^a (1-x)^b / B(a, b) has one form, ``_ln_front``, for a
float or an array of x, and ``student_t_cdf_array`` runs either form of
the t CDF on every element at once, so it equals ``student_t_cdf`` bit
for bit; both form x = nu / (nu + t^2) and its complement directly.
``binomial_pmf`` forms binomial terms of real size and count, one row per
probability, with the terms of the counts alone formed once per (size,
counts) into a cached read-only table, and the point masses at
probability 0 and 1 stated: by three lgammas below size 40, and above it
in Loader's saddle-point form, which a row of 192 counts or more takes
only at anchors every 32 counts and at its mode,
filling the counts between with the exact ratio of neighbouring terms,
recurring away from the mode. They weight the exact enumeration and a
count run's histograms, step the count kinds' Beta chains and give the
front factor when both shapes are large. Randomness comes from
``SeededStream``, a splittable handle that derives statistically
independent substreams from a single master seed by index arithmetic and
hands out ``numpy.random.Generator`` objects positioned at their start (or
at the start of a child stream). This module knows the valid seed range;
the replicates themselves are drawn by ``singh_engine.TargetSpec.draw``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "SeededStream",
    "reg_inc_beta",
    "student_t_cdf",
    "student_t_cdf_array",
]

_MAX_SEED = 2**64


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random source identified by (master_seed, stream_index).

    Equal fields replay the exact same draws. Distinct stream indices give
    independent streams, so splitting work is just index arithmetic: block
    ``b`` of a Monte Carlo run rooted at index ``r`` uses index ``r + b``,
    one generator for all the replicates of the block. Callers that split
    are responsible for handing out disjoint index ranges.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not (is_integer(self.master_seed) and 0 <= self.master_seed < _MAX_SEED):
            raise DomainError("master_seed must be a 64-bit unsigned integer")
        if not (is_integer(self.stream_index) and self.stream_index >= 0):
            raise DomainError("stream_index must be a non-negative integer")

    def substream(self, offset: int) -> "SeededStream":
        """The stream ``offset`` places after this one."""
        return SeededStream(self.master_seed, self.stream_index + offset)

    def generator(self, child: int | None = None) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream.

        With ``child`` set it starts the stream's independent child stream
        of that number instead: spawn key ``(stream_index, child)``, the key
        ``SeedSequence.spawn`` gives the stream's children.
        """
        key = (self.stream_index,) if child is None else (self.stream_index, child)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))


def _check_prob(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


_STIRLING_MIN = 20.0


def _stirling_corr(z: float) -> float:
    # Error term of Stirling's approximation: ln G(z) - [(z - 1/2) ln z - z
    # + ln(2 pi)/2]. Five series terms reach full precision for z >= 20.
    r = 1.0 / (z * z)
    return (
        1.0 / (12.0 * z)
        - r / z * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))
    )


def _ln_front(x, a: float, b: float, each=lambda fn, value: fn(value), y=None):
    """log of x^a (1-x)^b / B(a, b) without large-argument cancellation.

    ``x`` is a float, or a 1-D array whose caller passes ``each=_each``.
    ``y``, when given, is 1 - x formed directly by the caller (the pairing
    of BRATIO's x and y, DiDonato & Morris 1992), so the branches with a
    small shape never form 1 - x by subtraction; without it they subtract
    and correct for the rounding of that subtraction.
    Every log of a per-element value runs through ``each`` and so through
    ``math``; the rest is numpy arithmetic, which rounds like Python floats,
    in the float's left-to-right order, so every element equals a float
    call bit for bit. A plain three-lgamma evaluation loses ~1e-11
    absolutely once the shapes reach 1e4, because each lgamma is only
    correct to a few ulp of its own (huge) magnitude. With both shapes at
    least 20 the factor is a b / (a + b) times the Binomial(a + b, x) term
    at the real count a, one ``binomial_pmf`` row per element. With one
    small shape, Stirling's formula for the large one cancels the large
    terms analytically. Either way every computed term stays modest near
    the region where the function is not saturated at 0 or 1.
    """
    if a >= _STIRLING_MIN and b >= _STIRLING_MIN:
        x = np.asarray(x, dtype=np.float64)
        terms = binomial_pmf(x.reshape(-1), a + b, [a]).reshape(x.shape)
        return each(lambda v: math.log(v) if v > 0.0 else -math.inf, a * b / (a + b) * terms)
    if y is None:
        xc = 1.0 - x
        xc_err = (1.0 - xc) - x
    else:
        xc, xc_err = y, 0.0
    if a <= b:
        small, large = a, b
        x_small, x_large = x, xc
        xs_err, xl_err = 0.0, xc_err
    else:
        small, large = b, a
        x_small, x_large = xc, x
        xs_err, xl_err = xc_err, 0.0
    total = small + large
    total_err = small - (total - large)
    if large >= _STIRLING_MIN:
        # One small shape: expand ln G(total) - ln G(large) around large,
        # with first-order residual corrections for the rounded complement.
        return (
            small * each(math.log, x_small * total)
            + small * (xs_err / x_small + total_err / total)
            + large * each(math.log, x_large)
            + large * (xl_err / x_large)
            - math.lgamma(small)
            + (large - 0.5) * math.log1p(small / large)
            - small
            + _stirling_corr(total)
            - _stirling_corr(large)
        )
    return (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * each(math.log, x)
        + b * (each(math.log1p, -x) if y is None else each(math.log, y))
    )


def _each(fn, values: np.ndarray) -> np.ndarray:
    # A ``math`` function at every element, in the array's shape: numpy's
    # log, log1p and exp can differ from math's in the last place. Mapping
    # over the buffer holds one Python float at a time, not a list of them.
    return np.fromiter(map(fn, values.ravel().data), np.float64, values.size).reshape(values.shape)


_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# Below this size a binomial term is three lgammas: at most ~110 in
# magnitude, so they lose nothing that matters and cost least.
_LGAMMA_MAX_SIZE = 40.0
# Counts per block between binomial_pmf's shared anchors: a term recurs at
# most 31 steps from its anchor, a few ulps each, and the anchors cost one
# saddle-point evaluation per 32 counts. A row of fewer than six blocks'
# counts takes the saddle-point form at every count instead: forming one
# row's anchors and runs costs about 90 us with its count table kept, as
# much as ~180 counts do. Several rows per call recur more cheaply than
# that, but the cutoff reads the row length alone, and moving it would
# move the bits of rows of 41-191 counts.
_ANCHOR_STEP = 32
_RECUR_MIN_COUNTS = 6 * _ANCHOR_STEP
# Most count tables binomial_pmf keeps, each of one (size, first count,
# number of counts): the exact audits of one size use six keys.
_COUNT_TABLES = 32


def _stirling_climb(z: np.ndarray) -> np.ndarray:
    # _stirling_corr at each element of a 1-D z in (0, _STIRLING_MIN), where
    # five series terms fall short: z climbs to _STIRLING_MIN by the
    # recurrence delta(y) = delta(y + 1) + (y + 1/2) ln(1 + 1/y) - 1, whose
    # steps are small and positive and are summed smallest first, within
    # ~1e-15. The lgamma form lgamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2
    # cancels terms of up to ~60 and lost up to 1.1e-14 (at z = 17.5).
    climb = np.ceil(_STIRLING_MIN - z)
    lag = np.arange(_STIRLING_MIN)
    y = z[:, None] + lag
    steps = np.where(lag < climb[:, None], (y + 0.5) * _each(math.log1p, 1.0 / y) - 1.0, 0.0)
    return _stirling_corr(z + climb) + steps[:, ::-1].cumsum(axis=1)[:, -1]


def _stirling_corr_array(z: np.ndarray) -> np.ndarray:
    # _stirling_corr at every element of z > 0; below _STIRLING_MIN it is
    # _stirling_climb's.
    out = _stirling_corr(np.maximum(z, _STIRLING_MIN))
    small = z < _STIRLING_MIN
    if small.any():
        out[small] = _stirling_climb(z[small])
    return out


def _deviance(x: np.ndarray, mean: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """x ln(x / mean) + mean - x for x, mean > 0, given ln(x / mean).

    Loader's bd0. Where x is within a factor ~1.2 of mean, |v| < 0.1 for
    v = (x - mean) / (x + mean), and the deviance is the series
    (x - mean) v + 2x (v^3/3 + v^5/5 + ...), which never cancels; eight of
    its terms reach full precision there. Elsewhere the direct form is
    exact enough.
    """
    d = x - mean
    v = d / (x + mean)
    w = v * v
    series = np.full_like(w, 1.0 / 17.0)
    for j in range(15, 1, -2):
        series = 1.0 / j + w * series
    return np.where(np.abs(v) < 0.1, d * v + 2.0 * x * v * w * series, x * log_ratio - d)


class _Counts(NamedTuple):
    """The terms of ``binomial_pmf`` that depend on its size and counts alone.

    ``_tabulate`` forms them; a cached table is read-only. Which fields are
    set depends on the side the size and the number of counts select.
    """

    counts: np.ndarray
    # Below _LGAMMA_MAX_SIZE, a (ln coefficient, k, size - k) triple per
    # count k, the coefficient ln Gamma(size + 1) - ln Gamma(k + 1) -
    # ln Gamma(size - k + 1): a row of Python floats costs less than numpy
    # passes at these sizes.
    lgamma: tuple = ()
    # From _LGAMMA_MAX_SIZE on, _saddle_columns at every count; a row of
    # _RECUR_MIN_COUNTS or more formed for one call alone leaves them out.
    inner: np.ndarray | None = None
    sides: np.ndarray | None = None
    corr: np.ndarray | None = None
    zero: np.ndarray | None = None
    # From _RECUR_MIN_COUNTS counts on, the recurrence's: the anchors, the
    # rising step ratios (size - k) / (k + 1) at all counts but the last
    # two, and the falling ones (k + 1) / (size - k) at the inner counts,
    # last first.
    anchors: np.ndarray | None = None
    rise: np.ndarray | None = None
    fall: np.ndarray | None = None


def _saddle_columns(size: float, k: np.ndarray) -> tuple:
    # _saddle_point's terms of the counts alone, at each count k: whether
    # it is inner (neither 0 nor size), the count and its complement size -
    # k side by side, so each numpy pass (Stirling errors, logs, deviances)
    # serves both, the Stirling errors' delta(size) - delta(k) - delta(size
    # - k), and whether it is 0. The end counts take a stand-in, size, and
    # their terms read size ln(1-x) or size ln x.
    rest = size - k
    inner = (k > 0.0) & (rest > 0.0)
    sides = np.where(inner, np.array((k, rest)), size)
    stirling = _stirling_corr_array(sides)
    return inner, sides, _stirling_corr(size) - stirling[0] - stirling[1], k == 0.0


def _tabulate(size: float, k: np.ndarray, kept: bool = False) -> _Counts:
    # A fresh, writeable table of ``size`` and the counts ``k``. On the
    # recurrence's side only a ``kept`` table forms the columns of every
    # count: one call reads them at its anchors and modes alone.
    if size < _LGAMMA_MAX_SIZE:
        lgamma = math.lgamma
        ln_size = lgamma(size + 1.0)
        return _Counts(k, tuple(
            (ln_size - lgamma(j + 1.0) - lgamma(size - j + 1.0), j, size - j) for j in k.tolist()
        ))
    if k.size < _RECUR_MIN_COUNTS:
        return _Counts(k, (), *_saddle_columns(size, k))
    last = k.size - 1
    return _Counts(
        k, (), *(_saddle_columns(size, k) if kept else [None] * 4),
        anchors=np.append(np.arange(0, last, _ANCHOR_STEP), last),
        rise=(size - k[:-2]) / (k[:-2] + 1.0),
        fall=((k[1:-1] + 1.0) / (size - k[1:-1]))[::-1],
    )


@functools.lru_cache(maxsize=_COUNT_TABLES)
def _count_table(size: float, first: float, length: int) -> _Counts:
    # The shared, read-only table of the counts first, first + 1, ...,
    # first + length - 1.
    table = _tabulate(size, first + np.arange(length, dtype=np.float64), kept=True)
    for field in table:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
    return table


def _table(size: float, k: np.ndarray) -> _Counts:
    # The cached table of a row of two to MAX_ACCURATE_SHAPE + 1 counts that
    # rise by exactly 1 from the first, the rows that repeat. A single count
    # (a front factor's real shape, which rarely repeats), a longer row
    # (only Chebyshev's histogram weights, at 50 bytes a count) or any other
    # row gets a table of its own, which evicts no other.
    if 1 < k.size <= MAX_ACCURATE_SHAPE + 1.0:
        table = _count_table(size, float(k[0]), k.size)
        if table.counts.tobytes() == k.tobytes():
            return table
    return _tabulate(size, k)


def binomial_pmf(x, size: float, counts) -> np.ndarray:
    """Binomial(size, x) probabilities, one row per x and one column per count.

    ``x`` is a 1-D array of probabilities in [0, 1]; size and counts are
    real, and the counts rise by 1 from the first (a row steps from one to
    the next by exactly 1). A row at x = 0 (or -0.0) is the point mass at
    count 0 and a row at x = 1 the point mass at count size: 1 there, 0 at
    every other count. Every other row i holds Gamma(size+1) / (Gamma(k+1)
    Gamma(size-k+1)) x_i^k (1-x_i)^(size-k) at each count 0 <= k <= size;
    it is x^k (1-x)^(size-k) / ((k + 1) B(k + 1, size - k)), the step of
    the Beta shift recurrence.

    A size below 40 takes three lgammas per term, the count-only ones
    formed once per (size, counts): for one row at size 10 about 10 times
    cheaper than the saddle-point form at every count and 20 times cheaper
    than the recurrence below. A larger size takes the saddle-point form of
    Loader (2000), "Fast and accurate computation of binomial
    probabilities": Stirling errors plus two deviances, so no large
    logarithm cancels, and k = 0 and k = size read size ln(1-x) and size
    ln x. A row of fewer than 192 counts takes it at every count; a longer
    one at anchors only: the first count, every 32nd after it and the
    last, shared by every row, and each row's mode. The counts between take
    a running product of the exact ratio t(k + 1) / t(k) = (size - k) /
    (k + 1) x / (1 - x), away from the mode: upward from the nearest anchor
    at or below the count from the mode on, downward from the nearest
    anchor above it below the mode. So an anchor that underflows only ever
    sits on the far tail, and the largest terms come from the mode's own
    anchor, where the saddle-point form is most accurate; each step adds a
    few ulps. One call evaluates every anchor of every row. At the real
    count k = a and size a + b a term is also ``reg_inc_beta``'s front
    factor x^a (1-x)^b / B(a, b), divided by a b / (a + b). Each term holds
    1e-13 relative down to 1e-30 and 4e-13 down to 1e-300: it is exp of a
    log whose absolute error grows with |ln t|.

    The terms of the size and counts alone (the lgammas, the Stirling
    errors of every count and its complement, the step ratios and the
    anchors) form a read-only table, kept in a least-recently-used cache of
    ``_COUNT_TABLES`` (32) tables keyed by (size, first count, number of
    counts), so the calls of a sweep over rates at one size form it once:
    a full row at one rate then costs about 6 us at n = 30, 95 us at 250
    and 115 us at 1000. A table holds 50 bytes a count on the recurrence's
    side, 0.5 MB at the 10,001 counts of n = ``MAX_ACCURATE_SHAPE``, so the
    cache holds at most about 16 MB. A single count (the front factor's
    calls), a row longer than ``MAX_ACCURATE_SHAPE`` + 1 counts and counts
    that do not rise by exactly 1 get a table of the call alone, which
    evicts no kept one and, on the recurrence's side, holds Stirling
    errors only at the anchors and modes the call reads. A call at a new
    key forms its kept table first and costs more than one with a table of
    its own: a few us more below size 40, about the same below 192
    counts, and about 1.6 times as much at n = 250, 1.4 times at 1000
    and 1.5 times at 5000, where a kept table forms the Stirling errors of
    every count, climbing at the ~40 below 20. A single exact audit of the
    CLI pays that once for each of its keys.

    Every element takes only its own row's rate and anchors, and the
    products run along the row, so a row never depends on the other rows.
    Every per-element log and exp runs through ``math`` and the recurrence
    takes only +, *, / and ``cumprod``, so the bits are the same on every
    machine, and a table read from the cache gives the bits a fresh one
    does.
    """
    x = np.asarray(x, dtype=np.float64)
    xs = x.tolist()
    k = np.asarray(counts, dtype=np.float64)
    if 0.0 in xs or 1.0 in xs:
        inner = (x != 0.0) & (x != 1.0)
        out = np.zeros((x.size, k.size))
        out[x == 0.0] = k == 0.0
        out[x == 1.0] = k == size
        out[inner] = binomial_pmf(x[inner], size, k)
        return out
    table = _table(size, k)
    if size < _LGAMMA_MAX_SIZE:
        log, log1p, exp = math.log, math.log1p, math.exp
        terms = [
            exp(c + j * ln_x + r * ln_1mx)
            for ln_x, ln_1mx in [(log(v), log1p(-v)) for v in xs]
            for c, j, r in table.lgamma
        ]
        return np.array(terms).reshape(len(xs), k.size)
    if k.size < _RECUR_MIN_COUNTS:
        return _saddle_point(xs, size, table)
    last = k.size - 1
    anchors = table.anchors
    # Each row's mode, its first count k with k + 1 >= (size + 1) x, where
    # the terms stop rising, is an anchor of its own beside the shared ones:
    # counts from it on recur upward and counts below it downward, each
    # from the nearest anchor on its mode's side. Anchors away from the
    # mode carry the saddle-point form's larger error there (up to ~1e-14),
    # which recurring across the mode would spread over its largest terms.
    mode = np.minimum(np.searchsorted(k + 1.0, (size + 1.0) * x), last)
    columns = np.empty((x.size, anchors.size + 1), dtype=np.intp)
    if table.corr is None:
        # A table of this call alone has no columns; they are formed at its
        # anchors and modes only, the columns one call reads.
        picked = k[np.append(anchors, mode)]
        source = _Counts(picked, (), *_saddle_columns(size, picked))
        columns[:, :-1] = np.arange(anchors.size)
        columns[:, -1] = anchors.size + np.arange(x.size)
    else:
        source = table
        columns[:, :-1] = anchors
        columns[:, -1] = mode
    ends = _saddle_point(xs, size, source, columns)
    at, peak = ends[:, :-1], ends[:, -1]
    # Two runs of blocks of _ANCHOR_STEP slots, block b from anchor b to
    # anchor b + 1, plus a block of 1s. Rising, slot j holds count j's
    # ratio t(k_j) / t(k_j - 1), or the term at an anchor. Falling,
    # mirrored, slot span - j holds t(k_j) / t(k_j + 1), or the term at an
    # anchor, so each block runs from its right end. In the mode's block
    # both restart at the mode, after slots of 1.
    span = (anchors.size - 1) * _ANCHOR_STEP
    run = np.ones((2, x.size, span + _ANCHOR_STEP))
    rise, fall = run
    rise[:, 1:last] = table.rise * (x / (1.0 - x))[:, None]
    rise[:, anchors[:-1]] = at[:, :-1]
    # Only rows with counts below the mode form the inverse ratios. Their
    # rates exceed 1 / (size + 1), so these stay finite; at x = 1e-310, a
    # row whose mode is its first count, they would overflow.
    rows = np.flatnonzero(mode > 0)
    xd = x[rows]
    fall[rows, span - last + 1:span] = table.fall * ((1.0 - xd) / xd)[:, None]
    fall[:, span - anchors[1:]] = at[:, 1:]
    block = np.minimum(mode // _ANCHOR_STEP, anchors.size - 2)
    first = np.array((anchors[block], span - anchors[block + 1]))
    restart = np.array((mode, span - mode))
    slots = first[:, :, None] + np.arange(_ANCHOR_STEP)
    fill = slots < restart[:, :, None]
    which, row, _ = np.nonzero(fill)
    run[which, row, slots[fill]] = 1.0
    run[[[0], [1]], np.arange(x.size), restart] = peak
    # Running products along each block, in slot order, so every row is
    # what it would be alone.
    blocks = run.reshape(2, x.size, span // _ANCHOR_STEP + 1, _ANCHOR_STEP)
    up, down = blocks.cumprod(axis=3).reshape(run.shape)
    out = np.empty((x.size, k.size))
    below = np.arange(1, last) < mode[:, None]
    out[:, 1:last] = np.where(below, down[:, span - 1:span - last:-1], up[:, 1:last])
    out[:, anchors] = at
    return out


def _saddle_point(xs: list, size: float, table: _Counts, columns: np.ndarray | None = None) -> np.ndarray:
    # binomial_pmf's terms at size >= 40 in Loader's saddle-point form, for
    # rates xs strictly inside (0, 1): row i, column j at the table's count
    # columns[i, j] (columns has a row per rate), or without columns at
    # every count. The halves of the table's sides are recombined in the
    # scalar form's order.
    if columns is None:
        corr, sides, inner, zero = table.corr, table.sides[:, None], table.inner, table.zero
    else:
        corr, sides = table.corr[columns], table.sides[:, columns]
        inner, zero = table.inner[columns], table.zero[columns]
    # Per x: size ln(1-x), size ln x, the two sides' means size x and
    # size (1-x), and ln(size x (1-x)).
    per_x = np.array([
        (size * math.log1p(-v), size * math.log(v), size * v, size * (1.0 - v), math.log(size * v * (1.0 - v)))
        for v in xs
    ]).reshape(len(xs), 5)
    means = per_x[:, 2:4].T[:, :, None]
    # A mean below the smallest normal float can overflow a ratio to +inf,
    # whose term then reads exp(-inf) = 0.
    with np.errstate(over="ignore"):
        logs = _each(math.log, sides / means)
    dev = _deviance(sides, means, logs)
    # The saddle-point prefactor ln sqrt(size / (2 pi k r)) from the same
    # two logs: size / (k r) = (mean_k / k) (mean_r / r) / (size x (1-x)).
    ln = np.where(
        inner,
        corr - dev[0] - dev[1] - 0.5 * (logs[0] + logs[1] + per_x[:, 4:5]) - _HALF_LN_2PI,
        np.where(zero, per_x[:, 0:1], per_x[:, 1:2]),
    )
    return _each(math.exp, ln)


# Shapes up to 1e4 converge within about 115 iterations; Beta(1e6, 2e6)
# near its mean would need 542, so it is refused rather than truncated.
_CF_MAX_ITERATIONS = 400
# Largest shape for which reg_inc_beta's absolute error is documented below
# 1e-12; runs that need larger shapes are refused by check_run_args.
MAX_ACCURATE_SHAPE = 1e4


def _beta_cf(x: float, a: float, b: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b),
    # valid (fast-converging) for x < (a + 1) / (a + b + 2). Raises
    # DomainError instead of returning an unconverged value.
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITERATIONS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise DomainError(
        f"incomplete beta continued fraction did not converge at x={x!r}, a={a!r}, b={b!r}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), the Beta(a, b) CDF.

    Degenerate shapes follow the point-mass conventions: a = 0 is a point
    mass at 0 (the CDF is 1 for every x >= 0) and b = 0 is a point mass at 1
    (0 below 1, then 1); positive shapes run ``_reg_inc_beta``, the scalar
    core shared with ``student_t_cdf``. A NaN, infinite or negative shape
    raises DomainError. Absolute error is below 1e-12 for a, b <=
    ``MAX_ACCURATE_SHAPE`` (1e4); where the continued fraction does not
    converge (shapes near 1e6 and beyond) it raises DomainError.
    """
    x = _check_prob(x, "x")
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise DomainError("shape parameters must be finite and non-negative")
    if a == 0.0 and b == 0.0:
        raise DomainError("shape parameters must not both be zero")
    if a == 0.0:
        return 1.0
    if b == 0.0:
        return 1.0 if x == 1.0 else 0.0
    return _reg_inc_beta(x, a, b)


def _reg_inc_beta(x: float, a: float, b: float, y: float | None = None) -> float:
    # I_x(a, b) for positive shapes and x in [0, 1], past the public
    # functions' checks: the stated values, the front factor, the side of
    # the continued fraction and the clamp. ``y``, when given, is 1 - x
    # formed by the caller (BRATIO's pairing of x and y); without it 1 - x
    # is subtracted here and _ln_front corrects that subtraction's
    # rounding. x = 0 decides before y is read.
    if x == 0.0:
        return 0.0
    xc = 1.0 - x if y is None else y
    if xc == 0.0:
        return 1.0
    if x == 0.5 and a == b:
        # Beta(a, a) is symmetric about 1/2; return the exact median so
        # weak-inequality ties at 0.5 resolve consistently.
        return 0.5
    front = math.exp(_ln_front(x, a, b, y=y))
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, front * _beta_cf(x, a, b) / a)
    return max(0.0, 1.0 - front * _beta_cf(xc, b, a) / b)


def _beta_cf_array(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """``_beta_cf`` at every lane of ``x`` for one pair of shapes, bit for bit.

    Each lane runs the scalar's IEEE operations in its order, so it equals
    the scalar result bit for bit. A lane is done at the iteration where
    the scalar would return: its ``h`` is recorded then, through ``lanes``,
    its index in ``x``, and it is dropped from the iteration. Lanes are
    independent, so dropping one changes no other lane. A lane still
    unconverged after ``_CF_MAX_ITERATIONS`` fails the whole call, with
    the first such lane named, as the scalar fails.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    # The scalar clamps d and c, each formed as 1 + v, to tiny where |1 +
    # v| < tiny. That holds just where 1 + v == 0: for v in [-2, -1/2] the
    # sum is exact (Sterbenz), so it is 0 or at least 2^-53 in magnitude,
    # and for any other v it is at least 1/2.
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[d == 0.0] = tiny
    d = 1.0 / d
    h = d
    out = np.empty_like(x)
    lanes = np.arange(x.size)
    # Python floats overflow to inf and make NaN silently; so do these lanes.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, _CF_MAX_ITERATIONS):
            m2 = 2 * m
            aa = m * (b - m) * x / ((qam + m2) * (a + m2))
            d = 1.0 + aa * d
            d[d == 0.0] = tiny
            c = 1.0 + aa / c
            c[c == 0.0] = tiny
            d = 1.0 / d
            h = h * (d * c)
            aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
            d = 1.0 + aa * d
            d[d == 0.0] = tiny
            c = 1.0 + aa / c
            c[c == 0.0] = tiny
            d = 1.0 / d
            delta = d * c
            h = h * delta
            # |delta - 1| < 1e-16 holds just where delta == 1: delta - 1 is
            # exact for delta in [1/2, 2] (Sterbenz), and no other double
            # lies within 1e-16 of 1.
            done = delta == 1.0
            if done.any():
                out[lanes[done]] = h[done]
                if done.all():
                    return out
                keep = ~done
                lanes, x, c, d, h = (v[keep] for v in (lanes, x, c, d, h))
    raise DomainError(
        "incomplete beta continued fraction did not converge at "
        f"x={float(x[0])!r}, a={a!r}, b={b!r}"
    )


# Largest degrees of freedom whose t CDF takes the finite sum. Against
# mpmath the sum holds 1e-15 absolute and 1e-12 relative in the lower tail
# up to nu = 125; its absolute error grows with nu (at most 8.1e-16 up to
# 100, 1.0e-15 at 126), so 100 keeps a margin. The continued fraction
# reads up to 5e-15 absolute over the same range.
_T_SUM_MAX_NU = 100
# The sum's centre, |t| <= 3: there the lower tail is at least P(Z < -3),
# about 1.3e-3, at every nu, so forming it as (1 - A) / 2 keeps 1e-12
# relative; beyond it c^2 < nu / (nu + 9) and the tail series is summed.
_T_CENTRE_T2 = 9.0


def _t_sums(nu: float) -> bool:
    """True when the t CDF at ``nu`` degrees of freedom takes the finite sum."""
    return nu <= _T_SUM_MAX_NU and float(nu).is_integer()


def _t_ratio(j: int, nu: int) -> float:
    # a_j / a_(j-1) of the series in c^2 below: (1/2)_j / j! for even nu,
    # (2j)!! / (2j + 1)!! for odd.
    odd = nu % 2
    return (2 * j - 1 + odd) / (2 * j + odd)


def _t_centre_tail(at, t2, nu: int, each=lambda fn, value: fn(value)):
    """T(-|t|) by the finite sum at integer ``nu``, for 0 <= t^2 <= 9.

    ``at`` is |t| and ``t2`` is t^2, floats or 1-D arrays (whose caller
    passes ``each=_each``). With c^2 = nu / (nu + t^2), s = |t| / sqrt(nu +
    t^2) and a_j the coefficients of ``_t_ratio``, the two-sided mass
    A = P(|T| <= |t|) is s P for even nu and (2 / pi) (atan(|t| / sqrt(nu))
    + s c P) for odd, P = sum_(j < nu // 2) a_j c^(2j) (Abramowitz & Stegun
    26.7.3-4), and the tail is (1 - A) / 2. P is summed by Horner's rule;
    only +, -, *, / and sqrt, plus one ``math.atan`` per element for odd
    nu, so an array equals its floats bit for bit.
    """
    r2 = nu + t2
    c2 = nu / r2
    p = 0.0
    for j in range(nu // 2, 0, -1):
        p = 1.0 + c2 * _t_ratio(j, nu) * p
    if nu % 2 == 0:
        return 0.5 - 0.5 * (at / np.sqrt(r2) * p)
    root = math.sqrt(nu)
    return 0.5 - (each(math.atan, at / root) + at * root / r2 * p) / math.pi


def _t_series(term: float, c2: float, nu: int) -> float:
    # _t_far_tail's sum_(j >= nu // 2) a_j c^(2j), from its first term.
    # Each term is its predecessor times c^2 a_j / a_(j-1) < 1, so the
    # terms fall, and the sum stops at the first term that leaves it
    # unchanged: every later one leaves it unchanged too, as rounding is
    # monotone.
    total, j = term, nu // 2
    while True:
        j += 1
        term = term * (c2 * _t_ratio(j, nu))
        new = total + term
        if new == total:
            return total
        total = new


def _t_series_array(term: np.ndarray, c2: np.ndarray, nu: int) -> np.ndarray:
    # _t_series at every lane, bit for bit: a lane that leaves its sum
    # unchanged keeps it unchanged, as _t_series explains, so every lane
    # iterates until the last one stops. At nu = 1 the first term is the
    # float 1.
    total, j = np.broadcast_to(term, c2.shape), nu // 2
    while True:
        j += 1
        term = term * (c2 * _t_ratio(j, nu))
        new = total + term
        if (new == total).all():
            return total
        total = new


def _t_far_tail(at, t2, nu: int, series=_t_series):
    """T(-|t|) by the tail series at integer ``nu``, for 9 < t^2 < inf.

    The complement of ``_t_centre_tail``'s finite sum, whose terms are all
    positive: since 1 = s sum_(j >= 0) a_j c^(2j) for even nu and
    atan(sqrt(nu) / |t|) = s c sum_(j >= 0) a_j c^(2j) for odd, the tail is
    s / 2 sum_(j >= nu // 2) a_j c^(2j), or s c / pi times the same sum.
    ``at`` and ``t2`` are floats, summed by ``_t_series``, or 1-D arrays,
    whose caller passes ``series=_t_series_array``.

    The series is capped at the centre's tail at its edge |t| = 3, so T
    never steps down across the switch: there (1 - A) / 2 is off by up to
    931 ulps of the tail (at nu = 67; A's rounding), where the series just
    past the edge is within a few, and uncapped the tail rose from |t| = 3
    to its next float at 45 of the 100 nu. The cap holds at most 82 floats
    past the edge (at nu = 100).
    """
    r2 = nu + t2
    c2 = nu / r2
    term = 1.0
    for j in range(1, nu // 2 + 1):
        term = term * (c2 * _t_ratio(j, nu))
    total = series(term, c2, nu)
    if nu % 2 == 0:
        tail = 0.5 * (at / np.sqrt(r2) * total)
    else:
        tail = at * math.sqrt(nu) / r2 * total / math.pi
    return np.minimum(tail, _t_centre_tail(math.sqrt(_T_CENTRE_T2), _T_CENTRE_T2, nu))


def student_t_cdf(t: float, nu: float) -> float:
    """CDF of the Student-t distribution with ``nu`` degrees of freedom.

    The lower tail T(-|t|) has two forms. At integer nu up to
    ``_T_SUM_MAX_NU`` (100) it is a finite trigonometric sum in
    c^2 = nu / (nu + t^2): for |t| <= 3 the closed form of ``_t_centre_tail``
    and beyond it the positive tail series of ``_t_far_tail``. At any other
    nu it is I_x(nu/2, 1/2) / 2 with x = nu / (nu + t^2), and its complement
    y = t^2 / (nu + t^2) is formed directly too, as BRATIO pairs x and y
    (DiDonato & Morris 1992, ACM TOMS 708): a tail on the small-x side is
    read as I_x(nu/2, 1/2), any other as 1 - I_y(1/2, nu/2), so 1 - x is
    never formed by subtraction and t near 0, where x rounds to 1, keeps
    its y. The incomplete beta is ``reg_inc_beta``'s scalar core,
    ``_reg_inc_beta``, handed that y. Either way x = 0 (|t| > 1.3e154, where
    t^2 overflows) gives no tail, and the two tails share one evaluation,
    so T(t) + T(-t) = 1 exactly.
    """
    if not 0.0 < nu < math.inf:
        raise DomainError("degrees of freedom must be positive and finite")
    if t == 0.0:
        return 0.5
    t2 = t * t
    x = _check_prob(nu / (nu + t2), "x")
    if not _t_sums(nu):
        # t^2 = inf makes y NaN; x is 0 there, which decides before y is read.
        tail = 0.5 * _reg_inc_beta(x, 0.5 * nu, 0.5, t2 / (nu + t2))
    elif x == 0.0:
        tail = 0.0
    elif t2 <= _T_CENTRE_T2:
        tail = float(_t_centre_tail(abs(t), t2, int(nu)))
    else:
        tail = float(_t_far_tail(abs(t), t2, int(nu)))
    return tail if t < 0.0 else 1.0 - tail


def student_t_cdf_array(t, nu: float) -> np.ndarray:
    """``student_t_cdf`` at each element of ``t``, bit for bit.

    At integer nu up to ``_T_SUM_MAX_NU`` every lane with |t| <= 3 takes
    the finite sum and every other lane with a finite t^2 the tail series,
    each for all its lanes at once. At any other nu this is the package's
    one array incomplete beta, in the scalar's x/y pairing: every lane's
    tail is I_x(nu/2, 1/2) or 1 - I_y(1/2, nu/2), so the shapes are two
    floats, the front factor's shape terms are formed once, and the
    continued fraction runs on all lanes at once. A NaN ``t``, or a
    continued fraction that does not converge, raises DomainError for the
    whole call.
    """
    if not 0.0 < nu < math.inf:
        raise DomainError("degrees of freedom must be positive and finite")
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        t2 = t * t
        x = nu / (nu + t2)
    inside = (x >= 0.0) & (x <= 1.0)
    if not inside.all():
        raise DomainError(f"x must lie in [0, 1], got {float(x[~inside][0])!r}")
    if _t_sums(nu):
        tail = np.zeros_like(t)
        at, k = np.abs(t), int(nu)
        centre = t2 <= _T_CENTRE_T2
        far = ~centre & (x > 0.0)
        tail[centre] = _t_centre_tail(at[centre], t2[centre], k, _each)
        tail[far] = _t_far_tail(at[far], t2[far], k, _t_series_array)
    else:
        # Only the incomplete beta reads the complement y. t^2 = inf (|t| >
        # 1.3e154) makes it NaN; x is 0 there, a lane whose value is stated
        # in _t_beta_array, so no continued fraction reads that y.
        with np.errstate(over="ignore", invalid="ignore"):
            y = t2 / (nu + t2)
        tail = 0.5 * _t_beta_array(x, y, nu)
    return np.where(t == 0.0, 0.5, np.where(t < 0.0, tail, 1.0 - tail))


def _t_beta_array(x: np.ndarray, y: np.ndarray, nu: float) -> np.ndarray:
    # I_x(nu/2, 1/2) at each lane of x in [0, 1], with y = 1 - x as formed:
    # the scalar _reg_inc_beta's steps, one continued fraction per side.
    a, b = 0.5 * nu, 0.5
    # The scalar's stated values, in its order of precedence: no tail (x =
    # 0) and no t^2 (y = 0). Its third, the median of the symmetric Beta(a,
    # a), needs nu = 1, which takes the sum.
    beta = np.select([x == 0.0, y == 0.0], [0.0, 1.0], np.nan)
    live = np.isnan(beta)
    xs, ys = x[live], y[live]
    front = _each(math.exp, _ln_front(xs, a, b, _each, ys))
    values = np.empty_like(xs)
    # The clamps mirror the scalar min(1.0, v) and max(0.0, v) exactly.
    low = xs < (a + 1.0) / (a + b + 2.0)
    if low.any():
        v = front[low] * _beta_cf_array(xs[low], a, b) / a
        values[low] = np.where(v < 1.0, v, 1.0)
    high = ~low
    if high.any():
        v = 1.0 - front[high] * _beta_cf_array(ys[high], b, a) / b
        values[high] = np.where(v > 0.0, v, 0.0)
    beta[live] = values
    return beta
