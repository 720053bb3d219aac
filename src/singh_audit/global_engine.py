"""Global Singh analysis: worst-case coverage across a parameter grid.

When the true parameter is unknown, a structure is only as good as its worst
coverage over the plausible parameter region. Each grid point gets its own
full Monte Carlo run, and the per-point sorted required-confidence columns
are combined index-wise into envelope curves as they are drawn. Larger
required confidence means less coverage, so the index-wise maximum of sorted
columns is the pointwise minimum coverage over the grid. Every curve of a
result, a precise curve and both sides of a band alike, takes that maximum;
a sorted lower column never exceeds its upper column, so the envelope band
keeps its order. A never-covered replicate is +inf in its column, so it
sorts last and passes through the index-wise maximum unchanged.

This module holds the grid and its check. The envelope is the one run path,
``singh_engine._envelope``, of which a local run is the one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_math import DomainError, SeededStream, is_integer
from .singh_engine import (
    StructureSpec,
    TargetSpec,
    _envelope,
    check_run_args,
    singh_curve,  # noqa: F401  (perfbench/spans.py wraps it here by name)
)

__all__ = ["ParameterGrid", "check_grid_args", "global_singh"]


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


def check_grid_args(
    structure: StructureSpec, family: TargetSpec, grid: ParameterGrid, n: int, m: int
) -> list[TargetSpec]:
    """Raise for a global run the engines cannot evaluate; else each grid point's target.

    The one check of a global run: ``global_singh`` and every global
    ``Scenario`` call it. A grid replaces the family's truth parameter, so
    a structure whose truth is each replicate's next draw is refused, and
    every grid value must be a valid truth of ``family``; then the run is
    checked as a local one (``check_run_args``).
    """
    if structure.reads_next_draw:
        raise DomainError("predictive scenarios cannot use a parameter grid")
    targets = [family.with_truth(theta) for theta in grid.thetas]
    check_run_args(structure, family, n, m)
    return targets


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
    coverage. Grid point j draws as a local ``singh_curve`` rooted at
    ``stream.substream(j * m)`` would, so a one-point grid reproduces the
    local run bit for bit: both are ``singh_engine._envelope``, which also
    bounds working memory. ``family`` supplies every parameter except the
    truth, which the grid replaces. The run is checked once
    (``check_grid_args``), before any grid point's substream is formed.
    """
    return _envelope(structure, check_grid_args(structure, family, grid, n, m), n, m, stream)
