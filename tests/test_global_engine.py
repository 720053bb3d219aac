import math

import numpy as np
import pytest

from singh_audit.global_engine import ParameterGrid, global_singh
from singh_audit.singh_engine import SinghBand, TargetSpec, classify, eval_curve, singh_curve
from singh_audit.special_math import DomainError, SeededStream
from singh_audit.structures import StructureSpec

GRID = np.linspace(0.0, 1.0, 1001)


# --- parameter grids ---


def test_uniform_grid_inclusive():
    g = ParameterGrid.uniform(0.0, 1.0, 5)
    assert g.thetas == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert len(g) == 5


def test_uniform_grid_single_point_is_midpoint():
    assert ParameterGrid.uniform(0.2, 0.6, 1).thetas == (0.4,)


def test_grid_validation():
    with pytest.raises(DomainError):
        ParameterGrid(())
    with pytest.raises(DomainError):
        ParameterGrid.uniform(0.0, 1.0, 0)
    with pytest.raises(DomainError):
        ParameterGrid.uniform(1.0, 0.0, 3)
    for k in (True, 2.5, 3.0, "3"):
        with pytest.raises(DomainError, match="grid_k must be an integer"):
            ParameterGrid.uniform(0.0, 1.0, k)
    assert len(ParameterGrid.uniform(0.0, 1.0, np.int64(3))) == 3
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(DomainError, match="must be finite"):
            ParameterGrid.uniform(lo, hi, 3)


# --- combination semantics ---


def test_singleton_grid_reproduces_local_run():
    spec = StructureSpec("clopper_pearson")
    family = TargetSpec.bernoulli(0.4)
    stream = SeededStream(41)
    local = singh_curve(spec, family, 10, 400, stream)
    combined = global_singh(spec, family, ParameterGrid((0.4,)), 10, 400, stream)
    assert np.array_equal(local.lower_curve.required, combined.lower_curve.required)
    assert np.array_equal(local.upper_curve.required, combined.upper_curve.required)


def test_band_envelope_brackets_every_grid_point():
    # both envelope curves cover at or below every grid point's curve, and
    # the envelope band keeps its order, so its area stays non-negative
    spec = StructureSpec("clopper_pearson")
    family = TargetSpec.bernoulli(0.4)
    grid = ParameterGrid((0.2, 0.4, 0.6))
    n, m = 8, 300
    stream = SeededStream(42)
    combined = global_singh(spec, family, grid, n, m, stream)
    for j, theta in enumerate(grid.thetas):
        point = singh_curve(spec, family.with_truth(theta), n, m, stream.substream(j * m))
        assert (combined.lower_curve.required >= point.lower_curve.required).all()
        assert (combined.upper_curve.required >= point.upper_curve.required).all()
    assert (combined.lower_curve.required <= combined.upper_curve.required).all()
    assert classify(combined).conservatism_area >= 0.0


def test_precise_envelope_is_indexwise_maximum():
    spec = StructureSpec("jeffreys")
    family = TargetSpec.bernoulli(0.5)
    grid = ParameterGrid((0.3, 0.5))
    n, m = 6, 250
    stream = SeededStream(43)
    combined = global_singh(spec, family, grid, n, m, stream)
    cols = [
        singh_curve(spec, family.with_truth(t), n, m, stream.substream(j * m)).required
        for j, t in enumerate(grid.thetas)
    ]
    assert np.array_equal(combined.required, np.maximum(cols[0], cols[1]))


def test_extending_grid_moves_envelopes_outward():
    spec = StructureSpec("clopper_pearson")
    family = TargetSpec.bernoulli(0.4)
    n, m = 8, 200
    stream = SeededStream(44)
    base = global_singh(spec, family, ParameterGrid((0.2, 0.5)), n, m, stream)
    extended = global_singh(spec, family, ParameterGrid((0.2, 0.5, 0.8)), n, m, stream)
    assert (extended.lower_curve.required >= base.lower_curve.required).all()
    assert (extended.upper_curve.required >= base.upper_curve.required).all()


def test_band_envelope_reports_an_overconfident_grid_point():
    # scaled_cbox with c = 0.5 understates uncertainty: locally at theta = 0.4
    # it is overconfident, so a grid containing 0.4 must be too, by at least
    # as much as each of its points and the local run
    spec = StructureSpec("scaled_cbox", 0.5)
    family = TargetSpec.bernoulli(0.4)
    grid = ParameterGrid.uniform(0.3, 0.5, 5)
    n, m = 10, 1000
    stream = SeededStream(108)
    report = classify(global_singh(spec, family, grid, n, m, stream))
    assert report.classification == "overconfident"
    local = classify(singh_curve(spec, family, n, m, stream))
    assert local.classification == "overconfident"
    assert report.max_deficit >= local.max_deficit
    for j, theta in enumerate(grid.thetas):
        point = singh_curve(spec, family.with_truth(theta), n, m, stream.substream(j * m))
        assert report.max_deficit >= classify(point).max_deficit


def test_global_handles_never_columns():
    # sweeping the target mean upward drives low-count replicates to +inf
    spec = StructureSpec("chebyshev_ucl")
    family = TargetSpec.scaled_bernoulli(0.3, 2.0)
    grid = ParameterGrid((0.5, 2.0, 4.0))
    combined = global_singh(spec, family, grid, 5, 200, SeededStream(45))
    assert combined.m == 200
    assert combined.never_count > 0
    assert eval_curve(combined, 1.0) == (200 - combined.never_count) / 200


def test_fig8_style_envelope_with_never_columns_is_indexwise_max():
    # several grid points hold +inf (never-covered) replicates; the envelope
    # is the plain index-wise maximum of the per-point sorted arrays
    spec = StructureSpec("chebyshev_ucl")
    family = TargetSpec.scaled_bernoulli(0.3, 2.0)
    grid = ParameterGrid.uniform(0.5, 4.0, 6)
    n, m = 5, 300
    stream = SeededStream(48)
    combined = global_singh(spec, family, grid, n, m, stream)
    cols = [
        singh_curve(spec, family.with_truth(t), n, m, stream.substream(j * m)).required
        for j, t in enumerate(grid.thetas)
    ]
    assert sum(np.isinf(c).any() for c in cols) >= 2
    assert np.array_equal(combined.required, np.max(cols, axis=0))
    assert combined.never_count == max(int(np.isinf(c).sum()) for c in cols)


def test_global_determinism():
    spec = StructureSpec("jeffreys")
    family = TargetSpec.bernoulli(0.4)
    grid = ParameterGrid.uniform(0.1, 0.9, 4)
    a = global_singh(spec, family, grid, 6, 150, SeededStream(46))
    b = global_singh(spec, family, grid, 6, 150, SeededStream(46))
    assert np.array_equal(a.required, b.required)


def test_global_checks_run_args_before_any_grid_point():
    # The check runs before any grid point forms stream.substream(j * m),
    # so a non-integer m is named as such, not as a bad stream index.
    grid = ParameterGrid.uniform(0.1, 0.9, 3)
    for m in (2.5, 3.0):
        with pytest.raises(DomainError, match="m must be an integer"):
            global_singh(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), grid, 10, m, SeededStream(48))


def test_global_band_straddle_small_run():
    # worst-case Clopper-Pearson coverage still brackets the diagonal
    band = global_singh(
        StructureSpec("clopper_pearson"),
        TargetSpec.bernoulli(0.5),
        ParameterGrid.uniform(0.0, 1.0, 11),
        10, 500, SeededStream(47),
    )
    assert isinstance(band, SinghBand)
    eps = 0.0608  # dkw_epsilon(500)
    assert (eval_curve(band.lower_curve, GRID) >= GRID - eps).all()
    assert (eval_curve(band.upper_curve, GRID) <= GRID + eps).all()
