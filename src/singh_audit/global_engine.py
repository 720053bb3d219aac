"""Global Singh analysis: worst-case coverage across a parameter grid.

When the true parameter is unknown, a structure is only as good as its worst
coverage over the plausible parameter region. Each grid point gets its own
full Monte Carlo run; the per-point sorted required-confidence columns are
then combined index-wise into envelope curves. Minimum coverage corresponds
to the per-index maximum of sorted values (larger required confidence means
less coverage), so the combined precise curve and a band's upper curve take
the index-wise maximum while a band's lower curve takes the index-wise
minimum; the resulting band brackets what the structure can guarantee
anywhere on the grid. A never-covered replicate is +inf in its column, so
it sorts last and passes through the index-wise min/max unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special_math import DomainError, SeededStream
from .singh_engine import SinghBand, SinghCurve, StructureSpec, TargetSpec, singh_curve

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
    def uniform(cls, lo: float, hi: float, k: int, inclusive: bool = True) -> "ParameterGrid":
        """k evenly spaced values on [lo, hi] (endpoints included by default)."""
        if k < 1:
            raise DomainError("grid size must be at least 1")
        if hi < lo:
            raise DomainError("grid interval is inverted")
        if k == 1:
            return cls((0.5 * (lo + hi),))
        if inclusive:
            return cls(tuple(np.linspace(lo, hi, k)))
        inner = np.linspace(lo, hi, k + 2)[1:-1]
        return cls(tuple(inner))

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
    """Envelope Singh result across ``grid``, one full run per grid point.

    Grid point j runs a local ``singh_curve`` rooted at
    ``stream.substream(j * m)``, whose blocks take the ceil(m / BLOCK) <= m
    substreams from there on, so the grid points' substreams are disjoint
    and a one-point grid reproduces the local run bit for bit.
    ``family`` supplies every parameter except the truth, which the grid
    replaces.
    """
    results = [
        singh_curve(structure, family.with_truth(theta), n, m, stream.substream(j * m))
        for j, theta in enumerate(grid.thetas)
    ]
    if isinstance(results[0], SinghBand):
        lower = np.min([r.lower_curve.required for r in results], axis=0)
        upper = np.max([r.upper_curve.required for r in results], axis=0)
        return SinghBand(SinghCurve(lower), SinghCurve(upper))
    return SinghCurve(np.max([r.required for r in results], axis=0))
