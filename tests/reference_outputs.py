"""Scalar reference emission, for the tests.

Per-row Python renderings of the Singh staircase path and the CSV text: one
``format`` call per coordinate and one f-string per row, with a curve
evaluation that sums the weights on every call. ``singh_audit.outputs``
prints the same text in bulk from numpy and must match them byte for byte.
"""

import math

import numpy as np

from singh_audit.singh_engine import SinghBand
from singh_audit.special_math import DomainError

_X0, _Y0, _W, _H = 64.0, 48.0, 408.0, 408.0


def eval_curve(curve, alpha):
    """Fraction of replicates (or weight) whose required confidence is at most ``alpha``.

    A counted curve's replicates are its values repeated by their counts.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if (a < 0.0).any() or (a > 1.0).any():
        raise DomainError("alpha must lie in [0, 1]")
    idx = np.searchsorted(curve.required, a, side="right")
    if curve.counts is not None:
        cov = np.concatenate(([0], np.cumsum(curve.counts)))[idx] / curve.m
    elif curve.weights is None:
        cov = idx / curve.m
    else:
        cum = np.concatenate(([0.0], np.cumsum(curve.weights)))
        cov = cum[idx]
    return float(cov) if np.isscalar(alpha) else cov


def _tx(alpha: float) -> float:
    return _X0 + alpha * _W


def _ty(coverage: float) -> float:
    return _Y0 + _H - coverage * _H


def _px(v: float) -> str:
    return format(v, ".2f")


def step_path(curve) -> str:
    """Staircase path of the curve's empirical CDF, one step at a time.

    A distinct value takes a step unless the next one lies in the same
    half-pixel column, floor(2 x).
    """
    values = np.unique(curve.required)
    values = values[(values > 0.0) & np.isfinite(values)].tolist()
    start = eval_curve(curve, 0.0)
    parts = [f"M {_px(_tx(0.0))} {_px(_ty(start))}"]
    for i, v in enumerate(values):
        if i + 1 < len(values) and math.floor(2.0 * _tx(values[i + 1])) == math.floor(2.0 * _tx(v)):
            continue
        parts.append(f"H {_px(_tx(v))} V {_px(_ty(eval_curve(curve, v)))}")
    parts.append(f"H {_px(_tx(1.0))}")
    return " ".join(parts)


def _curve_alphas(values: np.ndarray) -> np.ndarray:
    """0, every distinct value strictly between 0 and 1, then 1."""
    return np.concatenate(([0.0], np.unique(values[(values > 0.0) & (values < 1.0)]), [1.0]))


def csv_text(result) -> str:
    """The CSV file of a Singh curve or band, one formatted row per distinct alpha."""
    if isinstance(result, SinghBand):
        alphas = _curve_alphas(
            np.concatenate((result.lower_curve.required, result.upper_curve.required))
        )
        lower = eval_curve(result.lower_curve, alphas).tolist()
        upper = eval_curve(result.upper_curve, alphas).tolist()
        header = "alpha,coverage_lower,coverage_upper"
        rows = [f"{a:.17g},{lo:.9g},{up:.9g}" for a, lo, up in zip(alphas.tolist(), lower, upper)]
        never = result.lower_curve.never_count
    else:
        alphas = _curve_alphas(result.required)
        coverage = eval_curve(result, alphas).tolist()
        header = "alpha,coverage"
        rows = [f"{a:.17g},{c:.9g}" for a, c in zip(alphas.tolist(), coverage)]
        never = result.never_count
    lines = [header, *rows, f"# never={never}"]
    return "\n".join(lines) + "\n"
