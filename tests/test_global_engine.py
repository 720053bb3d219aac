import inspect
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_global import expanded, reference_global_singh
from singh_audit import singh_engine
from singh_audit.global_engine import ParameterGrid, global_singh
from singh_audit.singh_engine import (
    BLOCK,
    CHUNK_ELEMENTS,
    SinghBand,
    TargetSpec,
    _atoms,
    _fold,
    _merged,
    classify,
    eval_curve,
    singh_curve,
)
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
    assert expanded(local.lower_curve).tobytes() == expanded(combined.lower_curve).tobytes()
    assert expanded(local.upper_curve).tobytes() == expanded(combined.upper_curve).tobytes()


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
        assert (expanded(combined.lower_curve) >= expanded(point.lower_curve)).all()
        assert (expanded(combined.upper_curve) >= expanded(point.upper_curve)).all()
    assert (expanded(combined.lower_curve) <= expanded(combined.upper_curve)).all()
    assert classify(combined).conservatism_area >= 0.0


def test_precise_envelope_is_indexwise_maximum():
    spec = StructureSpec("jeffreys")
    family = TargetSpec.bernoulli(0.5)
    grid = ParameterGrid((0.3, 0.5))
    n, m = 6, 250
    stream = SeededStream(43)
    combined = global_singh(spec, family, grid, n, m, stream)
    cols = [
        expanded(singh_curve(spec, family.with_truth(t), n, m, stream.substream(j * m)))
        for j, t in enumerate(grid.thetas)
    ]
    assert expanded(combined).tobytes() == np.maximum(cols[0], cols[1]).tobytes()


def test_extending_grid_moves_envelopes_outward():
    spec = StructureSpec("clopper_pearson")
    family = TargetSpec.bernoulli(0.4)
    n, m = 8, 200
    stream = SeededStream(44)
    base = global_singh(spec, family, ParameterGrid((0.2, 0.5)), n, m, stream)
    extended = global_singh(spec, family, ParameterGrid((0.2, 0.5, 0.8)), n, m, stream)
    assert (expanded(extended.lower_curve) >= expanded(base.lower_curve)).all()
    assert (expanded(extended.upper_curve) >= expanded(base.upper_curve)).all()


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
    # several grid points hold +inf (never-covered) replicates; the envelope,
    # expanded by its counts, is the plain index-wise maximum of the
    # per-point sorted arrays
    spec = StructureSpec("chebyshev_ucl")
    family = TargetSpec.scaled_bernoulli(0.3, 2.0)
    grid = ParameterGrid.uniform(0.5, 4.0, 6)
    n, m = 5, 300
    stream = SeededStream(48)
    combined = global_singh(spec, family, grid, n, m, stream)
    cols = [
        expanded(singh_curve(spec, family.with_truth(t), n, m, stream.substream(j * m)))
        for j, t in enumerate(grid.thetas)
    ]
    assert sum(np.isinf(c).any() for c in cols) >= 2
    assert expanded(combined).tobytes() == np.max(cols, axis=0).tobytes()
    assert combined.never_count == max(int(np.isinf(c).sum()) for c in cols)


def test_global_determinism():
    spec = StructureSpec("jeffreys")
    family = TargetSpec.bernoulli(0.4)
    grid = ParameterGrid.uniform(0.1, 0.9, 4)
    a = global_singh(spec, family, grid, 6, 150, SeededStream(46))
    b = global_singh(spec, family, grid, 6, 150, SeededStream(46))
    assert expanded(a).tobytes() == expanded(b).tobytes()


def test_global_checks_run_args_before_any_grid_point():
    # The check runs before any grid point forms stream.substream(j * m),
    # so a non-integer m is named as such, not as a bad stream index.
    grid = ParameterGrid.uniform(0.1, 0.9, 3)
    for m in (2.5, 3.0):
        with pytest.raises(DomainError, match="m must be an integer"):
            global_singh(StructureSpec("jeffreys"), TargetSpec.bernoulli(0.4), grid, 10, m, SeededStream(48))


def test_global_singh_checks_its_arguments_on_every_call():
    # No keyword hands global_singh its grid's targets, so no caller gets
    # round check_grid_args: a Jeffreys structure on a normal family is
    # refused, not run on the moment path, and m = 0 is a DomainError.
    assert list(inspect.signature(global_singh).parameters) == [
        "structure", "family", "grid", "n", "m", "stream",
    ]
    args = (StructureSpec("jeffreys"), TargetSpec.normal(0, 1), ParameterGrid((0.0,)), 10, 100)
    with pytest.raises(TypeError):
        global_singh(*args, SeededStream(1), targets=[TargetSpec.normal(0, 1)])
    with pytest.raises(DomainError, match="jeffreys requires a bernoulli target"):
        global_singh(*args, SeededStream(1))
    with pytest.raises(DomainError, match="m must be at least 1"):
        global_singh(
            StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.3), ParameterGrid((0.3,)),
            10, 0, SeededStream(1),
        )


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


def test_global_refuses_a_next_draw_truth():
    # The band's truth is each replicate's next draw, so a grid value would
    # never be its truth; Scenario refuses the same run with this message.
    with pytest.raises(DomainError, match="predictive scenarios cannot use a parameter grid"):
        global_singh(
            StructureSpec("empirical_predictive"), TargetSpec.normal(0.0, 1.0),
            ParameterGrid((0.0, 1.0)), 5, 50, SeededStream(1),
        )


# --- the per-point reference ---

UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# (structure, family, grid values): every count kind, a scaled-Bernoulli
# mean sweep whose low counts never cover (+inf), and a row-kind grid.
REFERENCE_CASES = {
    "jeffreys": (StructureSpec("jeffreys"), TargetSpec.bernoulli(0.5), UNIT),
    "clopper_pearson": (StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.5), UNIT),
    "scaled_cbox_0.5": (StructureSpec("scaled_cbox", 0.5), TargetSpec.bernoulli(0.5), UNIT),
    "scaled_cbox_3": (StructureSpec("scaled_cbox", 3.0), TargetSpec.bernoulli(0.5), UNIT),
    "scaled_cbox_20.5": (StructureSpec("scaled_cbox", 20.5), TargetSpec.bernoulli(0.5), UNIT),
    "chebyshev_mean_sweep": (
        StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(0.3, 2.0), st.floats(0.1, 4.0)
    ),
    "t_pivot_normal": (
        StructureSpec("student_t_pivot"), TargetSpec.normal(0.0, 2.0), st.floats(-3.0, 3.0)
    ),
}


@given(
    case=st.sampled_from(sorted(REFERENCE_CASES)),
    # m = 3 * BLOCK crosses block boundaries. At m = 200 a count run draws
    # histograms up to n = 24 and counts from n = 25 on. A count chunk's
    # size does not depend on m on the histogram side, so 64-element chunks
    # (one or two points each) make a grid of up to six points span several.
    m=st.sampled_from([1, 5, 200, 300, BLOCK + 3, 3 * BLOCK]),
    n=st.integers(2, 30),
    chunk_elements=st.sampled_from([CHUNK_ELEMENTS, 64]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_global_matches_the_per_point_reference(case, m, n, chunk_elements, seed, data):
    structure, family, values = REFERENCE_CASES[case]
    grid = ParameterGrid(tuple(data.draw(st.lists(values, min_size=1, max_size=6))))
    stream = SeededStream(seed)
    with mock.patch.object(singh_engine, "CHUNK_ELEMENTS", chunk_elements):
        got = global_singh(structure, family, grid, n, m, stream)
    expected = reference_global_singh(structure, family, grid, n, m, stream)
    assert len(got.curves) == len(expected.curves)
    for ours, theirs in zip(got.curves, expected.curves):
        assert expanded(ours).tobytes() == theirs.required.tobytes()
    if len(grid) == 1:
        local = singh_curve(structure, family.with_truth(grid.thetas[0]), n, m, stream)
        for ours, theirs in zip(got.curves, local.curves):
            assert expanded(ours).tobytes() == expanded(theirs).tobytes()


def _counted(rng, column):
    """A sorted column as (values, counts), some values split over several entries.

    A quarter of the time, every value its own entry of count 1.
    """
    if rng.random() < 0.25:
        return column, np.ones(column.size, np.int64)
    cuts = rng.random(column.size) < 0.3
    cuts[0] = True
    cuts[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(cuts)
    return column[starts], np.diff(np.append(starts, column.size))


@given(k=st.integers(1, 20), m=st.integers(1, 30), band=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_fold_is_the_indexwise_maximum_of_the_expanded_columns(k, m, band, seed):
    # Points of m replicates each, given as atoms with integer counts, fold
    # to atoms whose counts expand, bit for bit, to the index-wise maximum
    # of the points' sorted columns: all points in one fold, as a count
    # chunk folds, and one point at a time into a running envelope, as
    # chunks fold. A row-path grid takes that maximum itself and cuts it
    # into atoms once (_atoms), which must equal the fold. Replicates draw
    # from a pool of seven values, so they tie within and across points,
    # with +inf among them. A band replicate's lower value never exceeds its
    # upper one, and the band's two folded curves keep that order.
    rng = np.random.default_rng(seed)
    pool = np.concatenate(([0.0, 0.25, 1.0, np.inf], rng.random(3)))
    pairs = rng.choice(pool, (k, m, 2))
    sides = [pairs.min(axis=2), pairs.max(axis=2)] if band else [pairs[:, :, 0]]
    folded = []
    for side in sides:
        columns = np.sort(side, axis=1)
        expected = columns.max(axis=0).tobytes()
        points = [_counted(rng, c) for c in columns]
        point = np.concatenate([np.full(v.size, j) for j, (v, _) in enumerate(points)])
        values = np.concatenate([v for v, _ in points])
        mass = np.concatenate([np.ones(v.size, np.int64) if c is None else c for v, c in points])
        order = np.lexsort((point, values))
        results = [_fold(point[order], values[order], mass[order])]
        if k > 1:
            running = points[0]
            for column in points[1:]:
                running = _fold(*_merged(running, column))
            results.append(running)
        rowwise = _atoms(np.maximum.reduce(columns))
        assert [v.tobytes() for v in rowwise] == [v.tobytes() for v in results[0]]
        assert rowwise[1].dtype == results[0][1].dtype
        for atoms, counts in results:
            assert (atoms[1:] > atoms[:-1]).all()
            assert counts.dtype.kind == "i" and (counts >= 1).all()
            assert np.repeat(atoms, counts).tobytes() == expected
        folded.append(np.repeat(*results[0]))
    assert (folded[0] <= folded[-1]).all()


def test_global_memory_is_bounded_by_the_chunk_not_the_grid():
    # K = 1000 points of m = 2000: one curve column of every point at once
    # is K m 8 bytes = 16 MB, per curve. The envelope draws a chunk of K'
    # points at a time, whose histograms and chains are K' (n + 1) values
    # and whose fold is a (K' x K' (n + 1)) matrix, K' = 54 at n = 10, so
    # under CHUNK_ELEMENTS 8 bytes (256 KiB) each; the envelope itself is at
    # most m atoms, and the grid's targets are O(K) small objects.
    # K = 2000 points of n = 1000 at m = 2: each point's Beta chain holds
    # n + 1 values, so chunks of CHUNK_ELEMENTS // m points, 16,384 chains
    # evaluated at once, peaked at 66 MB; the chains must size a chunk too.
    # The bound is 8 CHUNK_ELEMENTS 8 bytes (2 MiB), an eighth of one K m
    # column. numpy reports its buffers to tracemalloc.
    spec, family = StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.5)
    for n, m, k in ((10, 2000, 1000), (1000, 2, 2000)):
        grid = ParameterGrid.uniform(0.0, 1.0, k)
        # A first run of the path leaves its one-time allocations behind.
        global_singh(spec, family, ParameterGrid((0.2, 0.4)), n, 50, SeededStream(2))
        tracemalloc.start()
        try:
            band = global_singh(spec, family, grid, n, m, SeededStream(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert band.m == m
        assert peak < 8 * CHUNK_ELEMENTS * 8, (n, m, k)
