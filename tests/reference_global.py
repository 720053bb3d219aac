"""Per-point reference of ``global_singh``, for the tests.

A global run written out from its definition: one local ``singh_curve``
per grid point, rooted at ``stream.substream(j * m)``, then the index-wise
maximum of each curve's sorted columns over the points. It holds every
point's result at once, so it costs O(K m) memory; ``global_singh`` is held
to it bit for bit.
"""

import numpy as np

from singh_audit.singh_engine import SinghBand, SinghCurve, singh_curve


def reference_global_singh(structure, family, grid, n, m, stream):
    results = [
        singh_curve(structure, family.with_truth(theta), n, m, stream.substream(j * m))
        for j, theta in enumerate(grid.thetas)
    ]
    curves = [
        SinghCurve(np.max([c.required for c in column], axis=0))
        for column in zip(*(r.curves for r in results))
    ]
    return curves[0] if len(curves) == 1 else SinghBand(*curves)
