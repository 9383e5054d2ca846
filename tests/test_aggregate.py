"""Unit tests for aggregation kernels."""

import itertools
import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import aggregate
from repro.arrays.aggregate import (
    aggregate_dense,
    aggregate_sparse_multi,
    aggregate_sparse_to_dense,
    project_axes,
)
from repro.arrays.dense import DenseArray
from repro.arrays.measures import get_measure
from repro.arrays.sparse import BlockChunk, SparseArray, SparseChunk
from repro.baselines import construct_cube_level_sync, construct_cube_naive_parallel
from repro.cluster.faults import FaultPlan
from repro.core.parallel import construct_cube_parallel
from repro.core.sequential import cube_reference
from repro.tiling import construct_cube_tiled_parallel
from tests.test_sparse import draw_slices, fact_tables


def rand_dense(shape, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=shape)


class TestProjectAxes:
    def test_basic(self):
        assert project_axes((0, 2, 5), (2, 5)) == (1, 2)

    def test_empty_keep(self):
        assert project_axes((0, 1), ()) == ()

    def test_missing_dim(self):
        with pytest.raises(ValueError):
            project_axes((0, 1), (3,))


class TestAggregateDense:
    def test_drop_one_axis(self):
        data = rand_dense((3, 4, 5), 1)
        arr = DenseArray(data, (0, 1, 2))
        out = aggregate_dense(arr, (0, 2))
        assert out.dims == (0, 2)
        assert np.allclose(out.data, data.sum(axis=1))

    def test_drop_all(self):
        data = rand_dense((3, 4), 2)
        arr = DenseArray(data, (0, 1))
        out = aggregate_dense(arr, ())
        assert out.dims == ()
        assert np.isclose(float(out.data), data.sum())

    def test_keep_all_copies(self):
        data = rand_dense((3, 4), 3)
        arr = DenseArray(data, (0, 1))
        out = aggregate_dense(arr, (0, 1))
        assert np.array_equal(out.data, data)
        out.data[0, 0] = 99
        assert arr.data[0, 0] != 99

    def test_on_subset_dims_array(self):
        # Array whose axes are cube dims (1, 3) aggregated onto (3,).
        data = rand_dense((4, 6), 4)
        arr = DenseArray(data, (1, 3))
        out = aggregate_dense(arr, (3,))
        assert out.dims == (3,)
        assert np.allclose(out.data, data.sum(axis=0))

    def test_rejects_non_subset(self):
        arr = DenseArray(rand_dense((3, 4), 5), (0, 1))
        with pytest.raises(ValueError):
            aggregate_dense(arr, (2,))


class TestAggregateSparse:
    @pytest.mark.parametrize("chunk_shape", [None, (3, 2, 4), (2, 2, 2)])
    def test_matches_dense_reference(self, chunk_shape):
        rng = np.random.default_rng(6)
        dense = np.where(rng.uniform(size=(6, 4, 8)) < 0.3, rng.uniform(size=(6, 4, 8)), 0)
        sp = SparseArray.from_dense(dense, chunk_shape=chunk_shape)
        for target in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), ()]:
            out = aggregate_sparse_to_dense(sp, (0, 1, 2), target)
            drop = tuple(i for i in range(3) if i not in target)
            expected = dense.sum(axis=drop) if drop else dense
            assert np.allclose(out.data, expected), target
            assert out.dims == target

    def test_empty_sparse(self):
        sp = SparseArray.from_dense(np.zeros((3, 4)))
        out = aggregate_sparse_to_dense(sp, (0, 1), (1,))
        assert np.array_equal(out.data, np.zeros(4))

    def test_output_sizes_override(self):
        # Local block aggregation: output sized to the block, not global.
        dense = np.ones((2, 3))
        sp = SparseArray.from_dense(dense)
        out = aggregate_sparse_to_dense(sp, (0, 1), (0,), dim_sizes=(2,))
        assert out.shape == (2,)
        assert np.allclose(out.data, [3.0, 3.0])

    @pytest.mark.parametrize("target, sizes", [((0, 1), (2, 2)), ((1,), (2,))])
    def test_output_sizes_below_the_extents_raise(self, target, sizes):
        # Regression: the facts at (0, 2) and (1, 0) of a (2, 3) frame
        # aliased into one cell of a (2, 2) output, and a 2-cell output of
        # axis 1 failed to reshape.
        sp = SparseArray.from_coords((2, 3), np.array([[0, 2], [1, 0]]), np.array([5.0, 7.0]))
        with pytest.raises(ValueError, match="dimension 1 2 cells, fewer than its extent 3"):
            aggregate_sparse_to_dense(sp, (0, 1), target, dim_sizes=sizes)

    def test_subset_dims_identity(self):
        # Sparse array whose axes are cube dims (1, 4).
        dense = np.arange(12.0).reshape(3, 4)
        sp = SparseArray.from_dense(dense)
        out = aggregate_sparse_to_dense(sp, (1, 4), (4,))
        assert out.dims == (4,)
        assert np.allclose(out.data, dense.sum(axis=0))


class TestAggregateSparseMulti:
    def test_matches_individual(self):
        rng = np.random.default_rng(7)
        dense = np.where(rng.uniform(size=(5, 6, 4)) < 0.4, rng.uniform(size=(5, 6, 4)), 0)
        sp = SparseArray.from_dense(dense, chunk_shape=(5, 3, 2))
        targets = [(0, 1), (0, 2), (1, 2)]
        outs = aggregate_sparse_multi(sp, (0, 1, 2), targets)
        for t, out in zip(targets, outs):
            single = aggregate_sparse_to_dense(sp, (0, 1, 2), t)
            assert np.allclose(out.data, single.data)

    def test_scalar_target(self):
        dense = np.ones((2, 2))
        sp = SparseArray.from_dense(dense)
        outs = aggregate_sparse_multi(sp, (0, 1), [()])
        assert float(outs[0].data) == 4.0

    def test_no_targets(self):
        sp = SparseArray.from_dense(np.ones((2, 2)))
        assert aggregate_sparse_multi(sp, (0, 1), []) == []


MEASURE_NAMES = ["sum", "count", "min", "max"]


def int_facts(shape, chunk_shape, density, seed):
    """Integer-valued facts (exact under any summation order), stored sparse."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 100, size=shape).astype(float)
    dense = np.where(rng.uniform(size=shape) < density, values, 0.0)
    return dense, SparseArray.from_dense(dense, chunk_shape=chunk_shape)


def first_level(n):
    return [tuple(d for d in range(n) if d != drop) for drop in range(n)]


class TestSlabbedKernel:
    """The sparse kernel decodes each chunk in slabs of ``_SLAB`` facts."""

    @pytest.mark.parametrize("measure", MEASURE_NAMES)
    def test_many_slabs_match_the_dense_reference(self, monkeypatch, measure):
        # Every cell is a fact, so the dense oracle (which counts and takes
        # extrema over every cell) is the reference for all four measures.
        dense, sp = int_facts((6, 5, 4, 3), (3, 5, 2, 3), 1.0, seed=21)
        targets = first_level(4) + [(0, 2), ()]
        ref = cube_reference(dense, measure=measure, targets=targets)
        monkeypatch.setattr(aggregate, "_SLAB", 7)
        assert max(c.nnz for c in sp.chunks) > 4 * 7
        outs = aggregate_sparse_multi(sp, (0, 1, 2, 3), targets, measure=measure)
        for t, out in zip(targets, outs):
            assert out.dims == t
            assert out.data.tobytes() == ref[t].data.tobytes(), t
        single = aggregate_sparse_to_dense(sp, (0, 1, 2, 3), (0, 2), measure=measure)
        assert single.data.tobytes() == ref[(0, 2)].data.tobytes()

    @pytest.mark.parametrize("measure", MEASURE_NAMES)
    def test_slab_length_does_not_change_the_result(self, monkeypatch, measure):
        # Sparse facts with whole chunks empty: cells no fact reaches keep
        # the measure's identity whatever the slab length.
        dense, sp = int_facts((8, 6, 4), (4, 3, 2), 0.3, seed=22)
        dense[:4] = 0.0
        sp = SparseArray.from_dense(dense, chunk_shape=(4, 3, 2))
        assert any(c.nnz == 0 for c in sp.chunks)
        ref = cube_reference(sp, measure=measure)
        monkeypatch.setattr(aggregate, "_SLAB", 3)
        got = cube_reference(sp, measure=measure)
        for node, arr in ref.items():
            assert got[node].data.tobytes() == arr.data.tobytes(), node
        identity = get_measure(measure).identity
        assert (got[(0,)].data[:4] == identity).all()

    @pytest.mark.parametrize("measure", MEASURE_NAMES)
    @pytest.mark.parametrize("empty", ["no chunks", "empty chunks", "zero-nnz block"])
    def test_targets_no_fact_reaches_are_identity_filled(self, measure, empty):
        shape = (4, 3, 2)
        if empty == "no chunks":
            sp = SparseArray(shape, [])
        elif empty == "empty chunks":
            sp = SparseArray.from_dense(np.zeros(shape), chunk_shape=(2, 3, 1))
        else:
            # A rank block that holds one chunk with no facts in it.
            dense = np.zeros((8, 3, 2))
            dense[4:] = 1.0
            sp = SparseArray.from_dense(dense, chunk_shape=(2, 3, 1)).extract_block(
                (slice(0, 4), slice(0, 3), slice(0, 2))
            )
            assert len(sp.chunks) == 1 and sp.nnz == 0
        targets = first_level(3) + [()]
        outs = aggregate_sparse_multi(sp, (0, 1, 2), targets, measure=measure)
        identity = get_measure(measure).identity
        for t, out in zip(targets, outs):
            assert out.dims == t
            assert out.shape == tuple(shape[d] for d in t)
            assert out.data.dtype == np.float64
            assert (out.data == identity).all()

    def test_temporaries_are_bounded_per_slab(self, monkeypatch):
        # >= 4 slabs per chunk.  A whole-chunk (nnz, ndim) coordinate
        # matrix alone (8 * ndim bytes per fact) would break the bound.
        slab, ndim = 1024, 4
        monkeypatch.setattr(aggregate, "_SLAB", slab)
        for shape in [(16, 16, 16, 8), (16, 16, 16, 16)]:
            _, sp = int_facts(shape, shape, 0.6, seed=23)
            assert sp.nnz >= 4 * slab
            targets = first_level(ndim)
            out_bytes = [8 * math.prod(shape[d] for d in t) for t in targets]
            tracemalloc.start()
            aggregate_sparse_multi(sp, tuple(range(ndim)), targets)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            # Outputs, one target's bincount partial, and the slab's
            # coordinates, remainders and index temporaries.
            bound = sum(out_bytes) + max(out_bytes) + slab * 8 * (ndim + 6)
            assert peak <= bound, (shape, peak, bound)
            assert sp.nnz * 8 * ndim > slab * 8 * (ndim + 6)


def materialised(block):
    return SparseArray(block.shape, [c.materialized() for c in block.chunks])


class TestStreamedBlockKernel:
    """The kernel over a rank block streamed slab by slab matches the kernel
    over the block's materialised arrays byte for byte: same facts, same
    order, same slab cut points."""

    @given(
        table=fact_tables(max_facts=80),
        data=st.data(),
        measure=st.sampled_from(MEASURE_NAMES),
        slab=st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=200, deadline=None)
    def test_streamed_block_is_bit_identical(self, table, data, measure, slab):
        shape, chunk_shape, coords, values = table
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        dims = tuple(range(len(shape)))
        targets = first_level(len(shape)) + [()]
        with mock.patch.object(aggregate, "_SLAB", slab):
            block = arr.extract_block(draw_slices(data, shape))
            got = aggregate_sparse_multi(block, dims, targets, measure=measure)
            want = aggregate_sparse_multi(materialised(block), dims, targets, measure=measure)
        for g, w in zip(got, want):
            assert g.dims == w.dims and g.data.tobytes() == w.data.tobytes(), g.dims

    def test_scanning_a_rank_block_is_bounded_per_slab(self, monkeypatch):
        # Partition and scan of a 4-chunk block: outputs plus a few slabs of
        # temporaries (the fill buffer among them), whatever the block's
        # nnz.  A block copied whole on extraction (16 B per fact) breaks it.
        slab, ndim = 1024, 4
        monkeypatch.setattr(aggregate, "_SLAB", slab)
        for shape in [(16, 16, 16, 8), (16, 16, 16, 16)]:
            chunk_shape = (8, 8) + shape[2:]
            _, sp = int_facts(shape, chunk_shape, 0.6, seed=24)
            assert len(sp.chunks) == 4 and sp.nnz >= 16 * slab
            targets = first_level(ndim)
            out_bytes = [8 * math.prod(shape[d] for d in t) for t in targets]
            tracemalloc.start()
            block = sp.extract_block([slice(0, s) for s in shape])
            aggregate_sparse_multi(block, tuple(range(ndim)), targets)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            bound = sum(out_bytes) + max(out_bytes) + 6 * slab * 16
            assert peak <= bound, (shape, peak, bound)
            assert 16 * sp.nnz > 6 * slab * 16


class TestStreamedBlocksEndToEnd:
    """Every path that partitions facts into rank blocks stays bit-identical
    to the oracle when slabs cut across source chunks and straddle masks
    (integer-valued facts are exact under any combine order)."""

    SHAPE = (12, 10, 8)

    @pytest.fixture
    def facts(self, monkeypatch):
        monkeypatch.setattr(aggregate, "_SLAB", 7)
        _, sp = int_facts(self.SHAPE, (5, 4, 8), 0.5, seed=25)  # chunks straddle every grid
        return sp, cube_reference(sp)

    @staticmethod
    def assert_cube(results, ref):
        assert set(results) >= set(ref)
        for node, arr in ref.items():
            assert results[node].data.tobytes() == arr.data.tobytes(), node

    def test_fig5(self, facts):
        sp, ref = facts
        self.assert_cube(construct_cube_parallel(sp, (1, 1, 1)).results, ref)

    def test_naive_parallel_and_level_sync(self, facts):
        sp, ref = facts
        self.assert_cube(construct_cube_naive_parallel(sp, (1, 1, 0)).results, ref)
        self.assert_cube(construct_cube_level_sync(sp, (1, 1, 0)).results, ref)

    def test_tiling_extracts_blocks_of_blocks(self, facts):
        sp, ref = facts
        res = construct_cube_tiled_parallel(sp, (1, 1, 0), capacity_elements_per_rank=60)
        assert res.plan.num_tiles > 1
        self.assert_cube(res.results, ref)

    def test_fig5_buddy_rescans_a_dead_ranks_block(self, facts):
        sp, ref = facts
        res = construct_cube_parallel(
            sp, (1, 1, 1), checkpoint=True, fault_plan=FaultPlan().crash_at_op(2, 1)
        )
        assert res.fault_stats.crashed_ranks == [2]
        assert any("from its block" in e.detail for e in res.fault_stats.events)
        self.assert_cube(res.results, ref)


def all_targets(n):
    return [t for k in range(n + 1) for t in itertools.combinations(range(n), k)]


@st.composite
def mixed_fact_tables(draw):
    """``fact_tables`` with n = 1-6 (extent-1 axes included) and values
    spread over 16 decades, so a changed fold order changes the bits."""
    shape, chunk_shape, coords, values = draw(fact_tables(max_dim=6, max_extent=4, max_facts=90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return shape, chunk_shape, coords, values * 10.0 ** rng.integers(-8, 9, values.size)


def decoded_reference(arr, dims, targets, measure):
    """Each target through the per-axis decode: a box spanning the whole
    array selects that path and leaves every chunk's slabs as they are."""
    box = [(0, s) for s in arr.shape]
    return [
        aggregate_sparse_to_dense(arr, dims, t, measure=measure, box=box) for t in targets
    ]


@contextmanager
def counting_run_indices():
    """Count the slabs indexed straight from their offsets."""
    calls = []
    real = aggregate._run_indices

    def spy(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(aggregate, "_run_indices", spy):
        yield calls


class TestOffsetRunIndex:
    """A chunk in the output frame indexes each target from its offsets'
    runs of kept axes; the index, and so every fold, is the per-axis
    decode's bit for bit.  Any other chunk still decodes."""

    @given(table=fact_tables(max_dim=6, max_extent=4, max_facts=90), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_run_index_equals_the_per_axis_decode(self, table, data):
        shape, _, coords, values = table
        chunk = SparseArray.from_coords(shape, coords, values).chunks[0]
        n = len(shape)
        dims = tuple(data.draw(st.permutations(range(n))))  # kept axes in any order
        keep = [project_axes(dims, t) for t in all_targets(n)]
        out_shapes = [tuple(shape[a] for a in axes) for axes in keep]
        plans = [aggregate._quotient_plan(shape, axes) for axes in keep]
        buf = np.empty((2, chunk.nnz), dtype=np.int64)
        got = [idx.copy() for idx in aggregate._run_indices(chunk.offsets, plans, buf)]
        origin = np.zeros(n, dtype=np.int64)
        want = list(aggregate._decoded_indices(chunk, origin, keep, out_shapes))
        assert len(got) == len(want) == 2**n
        for axes, g, w in zip(keep, got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), axes

    def test_a_frame_of_2_to_the_50_cells_indexes_exactly(self):
        # Facts near the far corner of a ~2**50-cell frame: every quotient,
        # product and partial sum of every target's index stays in int64.
        shape = (1 << 16, 3, 1 << 15, 5, 1 << 12, 7)
        assert 2**49 < math.prod(shape) < 2**50
        rng = np.random.default_rng(50)
        coords = np.array([[s - 1 - int(rng.integers(0, 3)) for s in shape] for _ in range(8)])
        coords[0] = [s - 1 for s in shape]
        chunk = SparseChunk((0,) * 6, shape, np.ravel_multi_index(coords.T, shape), np.ones(8))
        keep = all_targets(6)
        plans = [aggregate._quotient_plan(shape, axes) for axes in keep]
        buf = np.empty((2, chunk.nnz), dtype=np.int64)
        got = [idx.copy() for idx in aggregate._run_indices(chunk.offsets, plans, buf)]
        for axes, g in zip(keep, got):
            out_shape = tuple(shape[a] for a in axes)
            want = np.ravel_multi_index(coords[:, list(axes)].T, out_shape) if axes else 0
            np.testing.assert_array_equal(g, want, err_msg=str(axes))
        assert got[-1][0] == math.prod(shape) - 1

    def test_a_rank_block_is_indexed_with_no_remainder(self, monkeypatch):
        # Each target's index is a signed sum of floor quotients.
        dense, sp = int_facts((6, 5, 4, 3), None, 0.5, seed=38)
        monkeypatch.setattr(aggregate, "_SLAB", 16)
        block = sp.extract_block([slice(1, 6), slice(0, 5), slice(1, 4), slice(0, 3)])
        targets = all_targets(4)

        def remainder(*args, **kwargs):
            raise AssertionError("np.remainder on the offset-index path")

        with counting_run_indices() as calls, mock.patch.object(np, "remainder", remainder):
            got = aggregate_sparse_multi(block, (0, 1, 2, 3), targets)
        assert len(calls) == -(-block.nnz // 16)
        sub = dense[1:6, 0:5, 1:4, 0:3]
        for t, g in zip(targets, got):
            drop = tuple(a for a in range(4) if a not in t)
            np.testing.assert_array_equal(g.data, sub.sum(axis=drop), err_msg=str(t))

    @given(
        table=mixed_fact_tables(),
        data=st.data(),
        measure=st.sampled_from(MEASURE_NAMES),
        slab=st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_blocks_fold_as_the_decode(self, table, data, measure, slab):
        shape, chunk_shape, coords, values = table
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        dims = tuple(data.draw(st.permutations(range(len(shape)))))
        targets = all_targets(len(shape))
        with mock.patch.object(aggregate, "_SLAB", slab):
            block = arr.extract_block(draw_slices(data, shape))
            with counting_run_indices() as calls:
                got = aggregate_sparse_multi(block, dims, targets, measure=measure)
            want = decoded_reference(block, dims, targets, measure)
        assert len(calls) == -(-block.nnz // slab)  # every slab, no decode
        for g, w in zip(got, want):
            assert g.dims == w.dims and g.data.tobytes() == w.data.tobytes(), g.dims

    @pytest.mark.parametrize("measure", MEASURE_NAMES)
    def test_masked_block_chunk_spanning_slabs(self, monkeypatch, measure):
        rng = np.random.default_rng(26)
        shape = (9, 1, 7, 5)
        coords = np.stack([rng.integers(0, s, 400) for s in shape], axis=1)
        values = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.integers(-8, 9, 400)
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=(4, 1, 3, 5))
        monkeypatch.setattr(aggregate, "_SLAB", 16)
        block = arr.extract_block([slice(1, 8), slice(0, 1), slice(2, 7), slice(0, 5)])
        (chunk,) = block.chunks
        assert isinstance(chunk, BlockChunk) and chunk.nnz > 3 * 16
        assert any(mask is not None for _, _, mask in chunk.parts)
        targets = all_targets(4)
        with counting_run_indices() as calls:
            got = aggregate_sparse_multi(block, (0, 1, 2, 3), targets, measure=measure)
        assert len(calls) == -(-chunk.nnz // 16)
        want = decoded_reference(block, (0, 1, 2, 3), targets, measure)
        for g, w in zip(got, want):
            assert g.data.tobytes() == w.data.tobytes(), g.dims

    @given(
        table=mixed_fact_tables(),
        data=st.data(),
        measure=st.sampled_from(MEASURE_NAMES),
        slab=st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=100, deadline=None)
    def test_multi_chunk_arrays_keep_the_decode(self, table, data, measure, slab):
        shape, chunk_shape, coords, values = table
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        dims = tuple(data.draw(st.permutations(range(len(shape)))))
        targets = all_targets(len(shape))
        with mock.patch.object(aggregate, "_SLAB", slab):
            with counting_run_indices() as calls:
                got = aggregate_sparse_multi(arr, dims, targets, measure=measure)
            want = decoded_reference(arr, dims, targets, measure)
        if len(arr.chunks) > 1:
            assert not calls
        for g, w in zip(got, want):
            assert g.data.tobytes() == w.data.tobytes(), g.dims

    def test_an_output_wider_than_the_frame_decodes(self):
        # A one-chunk array aggregated into larger outputs: the offsets'
        # runs would use the array's strides, so the decode answers.
        sp = SparseArray.from_dense(np.arange(6.0).reshape(2, 3))
        with counting_run_indices() as calls:
            out = aggregate_sparse_to_dense(sp, (0, 1), (0, 1), dim_sizes=(3, 4))
        assert not calls
        want = np.zeros((3, 4))
        want[:2, :3] = np.arange(6.0).reshape(2, 3)
        assert out.data.tobytes() == want.tobytes()
