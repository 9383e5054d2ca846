"""Unit tests for the end-to-end planner."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.core.plan import plan_cube
from repro.core.sequential import cube_reference


class TestPlanning:
    def test_orders_by_size(self):
        plan = plan_cube((2, 9, 5), num_processors=4)
        assert plan.order == (1, 2, 0)
        assert plan.ordered_shape == (9, 5, 2)

    def test_partition_bits_sum_to_k(self):
        plan = plan_cube((8, 8, 8), num_processors=16)
        assert sum(plan.bits) == 4
        assert plan.num_processors == 16

    def test_single_processor(self):
        plan = plan_cube((4, 4), num_processors=1)
        assert plan.bits == (0, 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            plan_cube((4, 4), num_processors=6)

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            plan_cube((), num_processors=1)

    def test_describe(self):
        plan = plan_cube((4, 8), num_processors=2)
        assert "CubePlan" in plan.describe()

    def test_bound_properties(self):
        plan = plan_cube((8, 4, 2), num_processors=4)
        assert plan.sequential_memory_bound_elements == 8 + 16 + 32
        assert plan.comm_volume_elements >= 0
        assert plan.parallel_memory_bound_elements <= plan.sequential_memory_bound_elements

    @pytest.mark.parametrize(
        "shape, p", [((8, 4, 2), 4), ((9, 5, 3, 2), 8), ((7,), 2), ((6, 6, 5, 4, 3), 32)]
    )
    def test_default_scheduler_declares_the_theorems(self, shape, p):
        # The default fig5 plan reads its scheduler's declared forms, which
        # are Theorem 3's closed volume and Theorem 4's exact bound.
        from repro.core.comm_model import total_comm_volume
        from repro.core.memory_model import parallel_memory_bound_exact

        plan = plan_cube(shape, num_processors=p)
        assert plan.comm_volume_elements == total_comm_volume(plan.ordered_shape, plan.bits)
        assert plan.parallel_memory_bound_elements == parallel_memory_bound_exact(
            plan.ordered_shape, plan.bits
        )
        assert plan.target_nodes is None


class TestNodeTranslation:
    def test_roundtrip(self):
        plan = plan_cube((2, 9, 5, 7), num_processors=1)
        for node in [(0,), (1, 3), (0, 2), (0, 1, 2, 3), ()]:
            assert plan.to_original_node(plan.to_plan_node(node)) == node

    def test_specific_mapping(self):
        plan = plan_cube((2, 9, 5), num_processors=1)
        # order = (1, 2, 0): plan position 0 is original dim 1.
        assert plan.to_original_node((0,)) == (1,)
        assert plan.to_plan_node((1,)) == (0,)


class TestTransposeInput:
    def test_sparse(self):
        data = random_sparse((3, 6, 4), 0.4, seed=1)
        plan = plan_cube(data.shape, num_processors=1)
        ordered = plan.transpose_input(data)
        assert ordered.shape == plan.ordered_shape
        assert np.allclose(
            ordered.to_dense(), np.transpose(data.to_dense(), plan.order)
        )

    def test_identity_order_returns_the_sparse_input_itself(self):
        data = random_sparse((6, 4, 3), 0.4, seed=5, chunk_shape=(4, 2, 2))
        plan = plan_cube(data.shape, num_processors=4)
        assert plan.order == (0, 1, 2)
        assert plan.transpose_input(data) is data

    def test_sparse_keeps_the_chunk_grid_under_permutation(self):
        data = random_sparse((3, 7, 5), 0.4, seed=6, chunk_shape=(2, 3, 2))
        plan = plan_cube(data.shape, num_processors=2)
        assert plan.order == (1, 2, 0)
        ordered = plan.transpose_input(data)
        assert np.array_equal(
            ordered.to_dense(), np.transpose(data.to_dense(), plan.order)
        )
        # One chunk per block of the permuted (3, 3, 2)-part grid, in
        # row-major order of the permuted origins, each sorted.
        assert len(ordered.chunks) == len(data.chunks) == 3 * 3 * 2
        origins = [c.origin for c in ordered.chunks]
        assert origins == sorted(origins)
        assert sorted(origins) == sorted(
            tuple(c.origin[a] for a in plan.order) for c in data.chunks
        )
        for chunk in ordered.chunks:
            assert (np.diff(chunk.offsets) > 0).all()

    def test_dense(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(3, 6, 4))
        plan = plan_cube(data.shape, num_processors=1)
        ordered = plan.transpose_input(data)
        assert np.allclose(ordered.data, np.transpose(data, plan.order))

    def test_rejects_wrong_shape(self):
        plan = plan_cube((3, 6), num_processors=1)
        with pytest.raises(ValueError):
            plan.transpose_input(random_sparse((6, 3), 0.5, seed=3))


class TestEndToEnd:
    @pytest.mark.parametrize("shape", [(3, 8, 5), (2, 4, 8, 6)])
    @pytest.mark.parametrize("procs", [1, 4, 8])
    def test_parallel_results_keyed_by_original_dims(self, shape, procs):
        data = random_sparse(shape, 0.3, seed=4)
        plan = plan_cube(shape, num_processors=procs)
        run = plan.run_parallel(data)
        ref = cube_reference(data)  # original dimension order
        assert set(run.results) == set(ref)
        for node, arr in ref.items():
            assert np.allclose(run.results[node].data, arr.data), node

    def test_sequential_results_keyed_by_original_dims(self):
        shape = (3, 8, 5)
        data = random_sparse(shape, 0.3, seed=5)
        plan = plan_cube(shape, num_processors=1)
        run = plan.run_sequential(data)
        ref = cube_reference(data)
        for node, arr in ref.items():
            assert np.allclose(run.results[node].data, arr.data), node

    def test_result_axes_sorted_by_original_dim(self):
        shape = (2, 9, 5)
        data = random_sparse(shape, 0.4, seed=6)
        plan = plan_cube(shape, num_processors=2)
        run = plan.run_parallel(data)
        arr = run.results[(0, 1)]
        assert arr.dims == (0, 1)
        assert arr.shape == (2, 9)
