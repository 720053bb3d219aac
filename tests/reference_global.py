"""Per-point reference of ``global_singh``, for the tests.

A global run written out from its definition: one local ``singh_curve``
per grid point, rooted at ``stream.substream(j * m)``, each curve expanded
to its sorted column of m replicate values, then the index-wise maximum
of each curve's columns over the points. It holds every point's result at
once, so it costs O(K m) memory; ``global_singh`` is held to it bit for
bit, once expanded the same way.
"""

import numpy as np

from singh_audit.singh_engine import SinghBand, SinghCurve, singh_curve


def expanded(curve):
    """A Monte Carlo curve's sorted column: each value repeated by its count."""
    return curve.required if curve.counts is None else np.repeat(curve.required, curve.counts)


def reference_global_singh(structure, family, grid, n, m, stream):
    results = [
        singh_curve(structure, family.with_truth(theta), n, m, stream.substream(j * m))
        for j, theta in enumerate(grid.thetas)
    ]
    curves = [
        SinghCurve(np.max([expanded(c) for c in column], axis=0))
        for column in zip(*(r.curves for r in results))
    ]
    return curves[0] if len(curves) == 1 else SinghBand(*curves)
