"""Unit tests for the measure framework (SUM/COUNT/MIN/MAX/AVG)."""

import numpy as np
import pytest

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_to_dense
from repro.arrays.dataset import random_sparse
from repro.arrays.dense import DenseArray
from repro.arrays.measures import (
    COUNT,
    MAX,
    MIN,
    SUM,
    finalize_average,
    get_measure,
)
from repro.arrays.sparse import SparseArray
from repro.core.parallel import construct_cube_parallel
from repro.core.sequential import (
    construct_cube_sequential,
    cube_reference,
    verify_cube,
)


def masked_reference(dense: np.ndarray, target_axes_drop: tuple, measure):
    """Oracle via numpy masked reductions over the *facts* (non-zeros)."""
    mask = dense != 0
    if measure is SUM:
        return dense.sum(axis=target_axes_drop)
    if measure is COUNT:
        return mask.sum(axis=target_axes_drop).astype(float)
    if measure is MIN:
        filled = np.where(mask, dense, np.inf)
        out = filled.min(axis=target_axes_drop) if target_axes_drop else filled
        return out
    if measure is MAX:
        filled = np.where(mask, dense, -np.inf)
        out = filled.max(axis=target_axes_drop) if target_axes_drop else filled
        return out
    raise AssertionError(measure)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_measure("sum") is SUM
        assert get_measure("min") is MIN

    def test_lookup_passthrough(self):
        assert get_measure(MAX) is MAX

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_measure("median")

    def test_rollup(self):
        assert SUM.rollup is SUM
        assert MIN.rollup is MIN
        assert COUNT.rollup is SUM


class TestKernels:
    @pytest.mark.parametrize("measure", [SUM, COUNT, MIN, MAX])
    def test_sparse_kernel_matches_masked_numpy(self, measure):
        data = random_sparse((6, 5, 4), 0.4, seed=1)
        dense = data.to_dense()
        for target, drop in [((0,), (1, 2)), ((1, 2), (0,)), ((), (0, 1, 2))]:
            out = aggregate_sparse_to_dense(
                data, (0, 1, 2), target, measure=measure
            )
            expected = masked_reference(dense, drop, measure)
            assert np.allclose(out.data, expected), (measure.name, target)

    @pytest.mark.parametrize("measure", [SUM, MIN, MAX])
    def test_dense_kernel(self, measure):
        rng = np.random.default_rng(2)
        data = rng.uniform(1, 2, size=(4, 3))
        arr = DenseArray(data, (0, 1))
        out = aggregate_dense(arr, (0,), measure=measure)
        ref = {SUM: data.sum, MIN: data.min, MAX: data.max}[measure](axis=1)
        assert np.allclose(out.data, ref)

    def test_dense_count_counts_cells(self):
        arr = DenseArray(np.zeros((4, 3)), (0, 1))
        out = aggregate_dense(arr, (0,), measure=COUNT)
        assert np.allclose(out.data, 3.0)

    def test_empty_groups_take_identity(self):
        dense = np.zeros((3, 2))
        dense[0, 0] = 5.0
        sp = SparseArray.from_dense(dense)
        out = aggregate_sparse_to_dense(sp, (0, 1), (0,), measure=MIN)
        assert out.data[0] == 5.0
        assert np.isinf(out.data[1]) and np.isinf(out.data[2])


class TestCubeConstruction:
    @pytest.mark.parametrize("measure", [COUNT, MIN, MAX])
    def test_sequential_matches_reference(self, measure):
        data = random_sparse((6, 5, 4), 0.3, seed=3)
        res = construct_cube_sequential(data, measure=measure)
        verify_cube(res.results, data, measure=measure)

    @pytest.mark.parametrize("measure", [COUNT, MIN, MAX])
    @pytest.mark.parametrize("bits", [(1, 1, 0), (2, 0, 0)])
    def test_parallel_matches_reference(self, measure, bits):
        data = random_sparse((8, 6, 4), 0.3, seed=4)
        res = construct_cube_parallel(data, bits, measure=measure)
        verify_cube(res.results, data, measure=measure)

    def test_count_grand_total_is_nnz(self):
        data = random_sparse((8, 8), 0.25, seed=5)
        res = construct_cube_sequential(data, measure=COUNT)
        assert float(res.results[()].data) == data.nnz

    def test_min_max_bracket_sum(self):
        data = random_sparse((6, 6), 0.5, seed=6)
        mins = construct_cube_sequential(data, measure=MIN).results
        maxs = construct_cube_sequential(data, measure=MAX).results
        for node in mins:
            finite = np.isfinite(mins[node].data)
            assert np.all(
                mins[node].data[finite] <= maxs[node].data[finite]
            )

    def test_parallel_min_with_empty_rank_blocks(self):
        # A block with no facts must contribute the identity, not zeros.
        dense = np.zeros((4, 4))
        dense[0, 0] = 3.0  # all facts in one block
        sp = SparseArray.from_dense(dense)
        res = construct_cube_parallel(sp, (1, 1), measure=MIN)
        verify_cube(res.results, sp, measure=MIN)

    def test_partial_cube_with_measure(self):
        from repro.sched import Fig5Scheduler

        data = random_sparse((8, 6, 4), 0.3, seed=7)
        ref = cube_reference(data, measure=COUNT)
        res = construct_cube_parallel(
            data, (1, 1, 0), scheduler=Fig5Scheduler(targets=[(0,), (1, 2)]), measure=COUNT
        )
        for t in [(0,), (1, 2)]:
            assert np.allclose(res.results[t].data, ref[t].data)


class TestAverage:
    def test_finalize_average(self):
        sums = np.array([6.0, 0.0, 5.0])
        counts = np.array([3.0, 0.0, 2.0])
        avg = finalize_average(sums, counts)
        assert avg[0] == 2.0 and avg[2] == 2.5
        assert np.isnan(avg[1])

    def test_avg_cube_from_sum_and_count(self):
        data = random_sparse((6, 5), 0.4, seed=8)
        dense = data.to_dense()
        sums = construct_cube_sequential(data, measure=SUM).results
        counts = construct_cube_sequential(data, measure=COUNT).results
        avg0 = finalize_average(sums[(0,)].data, counts[(0,)].data)
        mask = dense != 0
        expected = np.full(6, np.nan)
        has = mask.sum(axis=1) > 0
        expected[has] = dense.sum(axis=1)[has] / mask.sum(axis=1)[has]
        assert np.allclose(avg0[has], expected[has])
        assert np.all(np.isnan(avg0[~has]))

    def test_custom_empty_fill(self):
        avg = finalize_average(np.array([0.0]), np.array([0.0]), empty=-1.0)
        assert avg[0] == -1.0


class TestOlapMeasures:
    def test_datacube_with_count(self):
        from repro.olap import DataCube, Schema

        schema = Schema.simple(a=6, b=4)
        data = random_sparse(schema.shape, 0.5, seed=9)
        cube = DataCube.build(schema, data, num_processors=2, measure=COUNT)
        assert cube.measure_name == "count"
        assert cube.grand_total == data.nnz

    def test_datacube_partial_with_max(self):
        from repro.olap import DataCube, Schema

        schema = Schema.simple(a=6, b=4, c=4)
        data = random_sparse(schema.shape, 0.5, seed=10)
        cube = DataCube.build_partial(
            schema, data, views=[("a",)], measure=MAX
        )
        dense = data.to_dense()
        filled = np.where(dense != 0, dense, -np.inf)
        assert np.allclose(
            cube.group_by("a").data, filled.max(axis=(1, 2))
        )
