"""Global Singh analysis: worst-case coverage across a parameter grid.

When the true parameter is unknown, a structure is only as good as its worst
coverage over the plausible parameter region. Each grid point gets its own
full Monte Carlo run; the per-point sorted required-confidence columns are
then combined index-wise into envelope curves. Larger required confidence
means less coverage, so the index-wise maximum of sorted columns is the
pointwise minimum coverage over the grid. Every curve of a result, a
precise curve and both sides of a band alike, takes that maximum; a sorted
lower column never exceeds its upper column, so the envelope band keeps its
order. A never-covered replicate is +inf in its column, so it sorts last
and passes through the index-wise maximum unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_math import DomainError, SeededStream, is_integer
from .singh_engine import SinghBand, SinghCurve, StructureSpec, TargetSpec, check_run_args, singh_curve

__all__ = ["ParameterGrid", "global_singh"]


@dataclass(frozen=True)
class ParameterGrid:
    """Ordered parameter values the truth is swept over."""

    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.thetas)
        if len(values) < 1:
            raise DomainError("a parameter grid needs at least one value")
        object.__setattr__(self, "thetas", values)

    @classmethod
    def uniform(cls, lo: float, hi: float, k: int) -> "ParameterGrid":
        """k evenly spaced values on [lo, hi], endpoints included; k = 1 is the midpoint."""
        if not is_integer(k):
            raise DomainError("grid_k must be an integer")
        if k < 1:
            raise DomainError("grid_k must be at least 1")
        if hi < lo:
            raise DomainError("grid_lo must not exceed grid_hi")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("grid_lo and grid_hi must be finite")
        if k == 1:
            return cls((0.5 * (lo + hi),))
        return cls(tuple(np.linspace(lo, hi, k)))

    def __len__(self) -> int:
        return len(self.thetas)


def global_singh(
    structure: StructureSpec,
    family: TargetSpec,
    grid: ParameterGrid,
    n: int,
    m: int,
    stream: SeededStream,
):
    """Worst-case Singh result across ``grid``, one full run per grid point.

    Each curve of the result is the index-wise maximum of that curve's
    sorted ``required`` columns over the grid points: the pointwise minimum
    coverage. Grid point j runs a local ``singh_curve`` rooted at
    ``stream.substream(j * m)``, whose blocks take the ceil(m / BLOCK) <= m
    substreams from there on, so the grid points' substreams are disjoint
    and a one-point grid reproduces the local run bit for bit.
    ``family`` supplies every parameter except the truth, which the grid
    replaces. The run's arguments are checked once, before any grid
    point's substream is formed.
    """
    check_run_args(structure, family, n, m)
    results = [
        singh_curve(structure, family.with_truth(theta), n, m, stream.substream(j * m))
        for j, theta in enumerate(grid.thetas)
    ]
    curves = [
        SinghCurve(np.max([c.required for c in column], axis=0))
        for column in zip(*(r.curves for r in results))
    ]
    return curves[0] if len(curves) == 1 else SinghBand(*curves)
