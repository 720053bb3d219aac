import numpy as np
import pytest

from singh_audit.global_engine import ParameterGrid, global_singh
from singh_audit.singh_engine import SinghBand, TargetSpec, eval_curve, singh_curve
from singh_audit.special_math import DomainError, SeededStream
from singh_audit.structures import StructureSpec

GRID = np.linspace(0.0, 1.0, 1001)


# --- parameter grids ---


def test_uniform_grid_inclusive():
    g = ParameterGrid.uniform(0.0, 1.0, 5)
    assert g.thetas == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert len(g) == 5


def test_uniform_grid_exclusive():
    g = ParameterGrid.uniform(0.0, 1.0, 3, inclusive=False)
    assert g.thetas == (0.25, 0.5, 0.75)


def test_uniform_grid_single_point_is_midpoint():
    assert ParameterGrid.uniform(0.2, 0.6, 1).thetas == (0.4,)


def test_grid_validation():
    with pytest.raises(DomainError):
        ParameterGrid(())
    with pytest.raises(DomainError):
        ParameterGrid.uniform(0.0, 1.0, 0)
    with pytest.raises(DomainError):
        ParameterGrid.uniform(1.0, 0.0, 3)


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
    spec = StructureSpec("clopper_pearson")
    family = TargetSpec.bernoulli(0.4)
    grid = ParameterGrid((0.2, 0.4, 0.6))
    n, m = 8, 300
    stream = SeededStream(42)
    combined = global_singh(spec, family, grid, n, m, stream)
    for j, theta in enumerate(grid.thetas):
        point = singh_curve(spec, family.with_truth(theta), n, m, stream.substream(j * m))
        assert (combined.lower_curve.required <= point.lower_curve.required).all()
        assert (combined.upper_curve.required >= point.upper_curve.required).all()


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
    assert (extended.lower_curve.required <= base.lower_curve.required).all()
    assert (extended.upper_curve.required >= base.upper_curve.required).all()


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
