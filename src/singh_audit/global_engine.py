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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_math import DomainError, SeededStream, is_integer
from .singh_engine import (
    CHUNK_ELEMENTS,
    COUNT_FAMILIES,
    StructureSpec,
    TargetSpec,
    _drawn_count_values,
    _drawn_row_values,
    _result,
    check_run_args,
    singh_curve,  # noqa: F401  (perfbench/spans.py wraps it here by name)
)

__all__ = ["ParameterGrid", "check_grid_args", "global_singh"]

# A count grid's chunk evaluates the Beta chains of all its points at once:
# n + 1 values per point, each needing up to about 20 working floats at
# the peak of the saddle-point binomial terms, against about 3 per drawn
# replicate (its count and the two sorted columns). So a chunk takes
# CHUNK_ELEMENTS // max(m, CHAIN_WEIGHT (n + 1)) points, and either side
# stays O(CHUNK_ELEMENTS) floats.
CHAIN_WEIGHT = 8


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
    ``stream.substream(j * m)`` would, whose blocks take the
    ceil(m / BLOCK) <= m substreams from there on, so the grid points'
    substreams are disjoint and a one-point grid reproduces the local run
    bit for bit. ``family`` supplies every parameter except the truth,
    which the grid replaces. The run is checked once (``check_grid_args``),
    before any grid point's substream is formed.

    No grid point becomes a local result. On a Bernoulli-family target the
    points are drawn CHUNK_ELEMENTS // max(m, CHAIN_WEIGHT (n + 1)) at a
    time (at least one), and each chunk's counts (one histogram per block
    when 8 (n + 1) <= m, else one count per replicate) are evaluated once
    per distinct count of each point, in one call that builds the Beta
    chains of all the chunk's truths together, expanded into sorted columns
    and reduced into the envelope by ``_drawn_count_values`` and one
    maximum; any other target draws one point at a time
    (``_drawn_row_values``), a normal target each replicate's mean and sd
    outright, a mixture its rows in chunks. So working memory is
    O(m + CHUNK_ELEMENTS) samples besides the K grid targets, not O(K m)
    and not O(K n).
    """
    targets = check_grid_args(structure, family, grid, n, m)
    chunks = _chunk_columns(structure, targets, n, m, stream)
    envelope = next(chunks)
    for columns in chunks:
        for running, column in zip(envelope, columns):
            np.maximum(running, column, out=running)
    return _result(structure, envelope)


def _chunk_columns(
    structure: StructureSpec, targets: list[TargetSpec], n: int, m: int, stream: SeededStream
):
    """Each chunk of grid points' sorted columns, reduced to their index-wise maximum."""
    if targets[0].family in COUNT_FAMILIES:
        step = max(1, CHUNK_ELEMENTS // max(m, CHAIN_WEIGHT * (n + 1)))
        for lo in range(0, len(targets), step):
            draws = [(t, stream.substream(j * m)) for j, t in enumerate(targets[lo:lo + step], lo)]
            yield [c.max(axis=0) for c in _drawn_count_values(structure, draws, n, m)]
    else:
        for j, target in enumerate(targets):
            yield _drawn_row_values(structure, target, n, m, stream.substream(j * m))
