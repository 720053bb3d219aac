"""``binomial_pmf`` as it formed every term per call, for the tests.

The count tables of ``singh_audit.special_math`` move the terms that depend
on the size and counts alone out of each call; this is the algorithm before
that move, kept so the tests can hold the tabled one to it bit for bit. It
shares the package's elementwise helpers (Stirling errors, deviances and
``math`` maps), which the tables did not change.
"""

import math

import numpy as np

from singh_audit.special_math import (
    _ANCHOR_STEP,
    _HALF_LN_2PI,
    _LGAMMA_MAX_SIZE,
    _RECUR_MIN_COUNTS,
    _deviance,
    _each,
    _stirling_corr,
    _stirling_corr_array,
)


def binomial_pmf(x, size: float, counts) -> np.ndarray:
    """``special_math.binomial_pmf`` as it stood before its count tables."""
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
    if size < _LGAMMA_MAX_SIZE:
        lgamma, log, log1p, exp = math.lgamma, math.log, math.log1p, math.exp
        ln_size = lgamma(size + 1.0)
        ks = k.tolist()
        ln_coef = [ln_size - lgamma(j + 1.0) - lgamma(size - j + 1.0) for j in ks]
        terms = [
            exp(c + j * ln_x + (size - j) * ln_1mx)
            for ln_x, ln_1mx in [(log(v), log1p(-v)) for v in xs]
            for c, j in zip(ln_coef, ks)
        ]
        return np.array(terms).reshape(len(xs), len(ks))
    if k.size < _RECUR_MIN_COUNTS:
        return _saddle_point(xs, size, k, np.arange(k.size)[None, :])
    last = k.size - 1
    anchors = np.append(np.arange(0, last, _ANCHOR_STEP), last)
    # Each row's mode, its first count k with k + 1 >= (size + 1) x, where
    # the terms stop rising, is an anchor of its own beside the shared ones:
    # counts from it on recur upward and counts below it downward, each
    # from the nearest anchor on its mode's side. Anchors away from the
    # mode carry the saddle-point form's larger error there (up to ~1e-14),
    # which recurring across the mode would spread over its largest terms.
    mode = np.minimum(np.searchsorted(k + 1.0, (size + 1.0) * x), last)
    columns = np.empty((x.size, anchors.size + 1), dtype=np.intp)
    columns[:, :-1] = np.arange(anchors.size)
    columns[:, -1] = anchors.size + np.arange(x.size)
    ends = _saddle_point(xs, size, np.concatenate((k[anchors], k[mode])), columns)
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
    rise[:, 1:last] = ((size - k[:-2]) / (k[:-2] + 1.0)) * (x / (1.0 - x))[:, None]
    rise[:, anchors[:-1]] = at[:, :-1]
    # Only rows with counts below the mode form the inverse ratios. Their
    # rates exceed 1 / (size + 1), so these stay finite; at x = 1e-310, a
    # row whose mode is its first count, they would overflow.
    rows = np.flatnonzero(mode > 0)
    xd = x[rows]
    inverse = ((k[1:-1] + 1.0) / (size - k[1:-1])) * ((1.0 - xd) / xd)[:, None]
    fall[rows, span - last + 1:span] = inverse[:, ::-1]
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


def _saddle_point(xs: list, size: float, counts: np.ndarray, columns: np.ndarray) -> np.ndarray:
    # binomial_pmf's terms at size >= 40 in Loader's saddle-point form, for
    # rates xs strictly inside (0, 1): row i, column j at counts[columns[i, j]]
    # (columns has one row for all rates, or a row per rate). The terms of
    # the counts alone, the Stirling errors, are formed once per count.
    rest = size - counts
    inner = (counts > 0.0) & (rest > 0.0)
    # The inner counts k and their complements size - k, side by side, so
    # each numpy pass below (Stirling errors, logs, deviances) serves both;
    # the end counts take a stand-in, size, and their terms read size ln(1-x)
    # or size ln x. The halves are recombined in the scalar form's order.
    sides = np.where(inner, np.array((counts, rest)), size)
    stirling = _stirling_corr_array(sides)
    corr = (_stirling_corr(size) - stirling[0] - stirling[1])[columns]
    sides, inner, k = sides[:, columns], inner[columns], counts[columns]
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
        np.where(k == 0.0, per_x[:, 0:1], per_x[:, 1:2]),
    )
    return _each(math.exp, ln)
