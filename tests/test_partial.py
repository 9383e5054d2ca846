"""Unit tests for partial cube materialization."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.core.lattice import all_nodes
from repro.core.memory_model import sequential_memory_bound
from repro.core.aggregation_tree import (
    AggregationTree,
    ComputeChildren,
    WriteBack,
    tree_schedule,
)
from repro.core.partial import partial_comm_volume, required_closure
from repro.core.comm_model import total_comm_volume
from repro.core.parallel import construct_cube_parallel
from repro.core.sequential import construct_cube_sequential, cube_reference
from repro.sched import Fig5Scheduler


class TestClosure:
    def test_single_target_chain(self):
        # (0,) in 4 dims: parents add the max missing dim repeatedly.
        closure = required_closure([(0,)], 4)
        assert closure == {(0,), (0, 3), (0, 2, 3)}

    def test_first_level_target_is_self(self):
        assert required_closure([(0, 1, 2)], 4) == {(0, 1, 2)}

    def test_all_node(self):
        closure = required_closure([()], 3)
        assert closure == {(), (2,), (1, 2)}

    def test_union_of_targets(self):
        c = required_closure([(0,), (1,)], 3)
        assert c == {(0,), (0, 2), (1,), (1, 2)}

    def test_full_cube_targets_cover_everything(self):
        n = 4
        targets = [nd for nd in all_nodes(n) if len(nd) < n]
        assert required_closure(targets, n) == set(targets)

    def test_rejects_root_target(self):
        with pytest.raises(ValueError):
            required_closure([(0, 1, 2)], 3)

    def test_rejects_empty_target_list(self):
        with pytest.raises(ValueError):
            required_closure([], 3)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            required_closure([(2, 1)], 3)
        with pytest.raises(ValueError):
            required_closure([(5,)], 3)


class TestSequentialPartial:
    def test_targets_match_full_cube(self):
        data = random_sparse((8, 6, 4, 4), 0.3, seed=1)
        ref = cube_reference(data)
        targets = [(0, 1), (2,), ()]
        res = construct_cube_sequential(data, targets=targets)
        assert set(res.results) == set(targets)
        for t in targets:
            assert np.allclose(res.results[t].data, ref[t].data)

    def test_untargeted_ancestors_not_written(self):
        data = random_sparse((6, 4, 4), 0.3, seed=2)
        res = construct_cube_sequential(data, targets=[(0,)])
        # (0,) needs (0, 2) as an intermediate; only (0,) is on disk.
        assert set(res.results) == {(0,)}
        assert res.disk.write_ops == 1

    def test_memory_within_full_bound(self):
        shape = (8, 6, 4)
        data = random_sparse(shape, 0.3, seed=3)
        res = construct_cube_sequential(data, targets=[(0,), (1,)])
        assert res.peak_memory_elements <= sequential_memory_bound(shape)

    def test_fewer_targets_less_compute(self):
        data = random_sparse((8, 8, 8), 0.3, seed=4)
        few = construct_cube_sequential(data, targets=[(0, 1)])
        n = 3
        targets = [nd for nd in all_nodes(n) if len(nd) < n]
        many = construct_cube_sequential(data, targets=targets)
        assert few.compute_element_ops < many.compute_element_ops


    @pytest.mark.parametrize("measure", ["sum", "min", "max", "count"])
    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_targets_match_restricted_reference(self, dense, measure):
        shape = (8, 6, 4, 4)
        data = random_sparse(shape, 0.3, seed=8)
        if dense:
            data = data.to_dense()
        targets = [(0, 1), (1, 3), (2,), ()]
        res = construct_cube_sequential(data, measure=measure, targets=targets)
        ref = cube_reference(data, measure=measure, targets=targets)
        assert res.write_order and set(res.write_order) == set(ref)
        for t in targets:
            # allclose: the oracle sums straight from the input, the tree
            # through intermediate ancestors (float order differs for SUM).
            assert np.allclose(res.results[t].data, ref[t].data), (t, measure)
        assert res.peak_memory_elements <= sequential_memory_bound(shape)

    def test_all_targets_is_the_full_cube_run(self):
        data = random_sparse((8, 6, 4), 0.3, seed=9)
        every = [nd for nd in all_nodes(3) if len(nd) < 3]
        full = construct_cube_sequential(data)
        part = construct_cube_sequential(data, targets=every)
        assert part.write_order == full.write_order
        assert part.peak_memory_elements == full.peak_memory_elements
        assert part.compute_element_ops == full.compute_element_ops
        assert part.disk == full.disk
        for node, arr in full.results.items():
            assert arr.data.tobytes() == part.results[node].data.tobytes()


class TestParallelPartial:
    @pytest.mark.parametrize("bits", [(1, 1, 0, 0), (1, 1, 1, 0), (2, 0, 1, 0)])
    def test_targets_match_full_cube(self, bits):
        shape = (8, 6, 4, 4)
        data = random_sparse(shape, 0.3, seed=5)
        ref = cube_reference(data)
        targets = [(0, 1, 2), (0,), ()]
        res = construct_cube_parallel(data, bits, scheduler=Fig5Scheduler(targets=targets))
        assert set(res.results) == set(targets)
        for t in targets:
            assert np.allclose(res.results[t].data, ref[t].data)

    def test_measured_volume_matches_pruned_closed_form(self):
        shape, bits = (8, 6, 4, 4), (1, 1, 1, 0)
        data = random_sparse(shape, 0.3, seed=6)
        targets = [(0, 1), (3,)]
        res = construct_cube_parallel(
            data, bits, scheduler=Fig5Scheduler(targets=targets), collect_results=False
        )
        assert res.comm_volume_elements == partial_comm_volume(shape, bits, targets)
        assert res.comm_volume_elements == res.expected_comm_volume_elements

    def test_partial_volume_below_full(self):
        shape, bits = (8, 8, 8, 8), (1, 1, 1, 1)
        assert partial_comm_volume(shape, bits, [(0, 1)]) < total_comm_volume(
            shape, bits
        )

    def test_all_targets_equals_full_cube_volume(self):
        shape, bits = (8, 6, 4), (1, 1, 1)
        n = 3
        targets = [nd for nd in all_nodes(n) if len(nd) < n]
        assert partial_comm_volume(shape, bits, targets) == total_comm_volume(
            shape, bits
        )


    def test_targets_over_an_alternative_tree(self):
        # BuildConfig used to refuse tree= together with schedule=; the
        # scheduler that owns both prunes *its* tree to the targets.
        from repro.core.comm_model import tree_comm_volume
        from repro.core.spanning_tree import left_deep_tree

        shape, bits = (8, 6, 4), (1, 1, 0)
        data = random_sparse(shape, 0.3, seed=10)
        tree, targets = left_deep_tree(3), [(2,), ()]
        sched = Fig5Scheduler(tree=tree, targets=targets)
        res = construct_cube_parallel(data, bits, scheduler=sched)
        ref = cube_reference(data, targets=targets)
        assert set(res.results) == set(targets)
        for t in targets:
            assert np.allclose(res.results[t].data, ref[t].data)
        assert (
            res.comm_volume_elements
            == res.expected_comm_volume_elements
            == tree_comm_volume(tree, shape, bits, targets)
        )
        with pytest.raises(ValueError, match="spans 3 dimensions"):
            sched.schedule(4)


class TestPrunedSchedule:
    def test_only_closure_nodes_touched(self):
        n = 4
        targets = [(0,), (1, 2)]
        closure = required_closure(targets, n)
        for step in tree_schedule(AggregationTree(n), targets):
            if isinstance(step, ComputeChildren):
                assert set(step.children) <= closure
            elif isinstance(step, WriteBack):
                assert step.node in closure

    def test_discard_flags(self):
        n = 4
        targets = {(0,)}
        for step in tree_schedule(AggregationTree(n), targets):
            if isinstance(step, WriteBack):
                assert step.discard == (step.node not in targets)
