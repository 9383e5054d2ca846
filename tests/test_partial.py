"""Unit tests for partial cube materialization."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.core.lattice import all_nodes
from repro.core.memory_model import sequential_memory_bound
from repro.core.partial import (
    construct_partial_cube_parallel,
    construct_partial_cube_sequential,
    partial_comm_volume,
    required_closure,
)
from repro.sched import pruned_schedule
from repro.core.comm_model import total_comm_volume
from repro.core.sequential import cube_reference


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
        res = construct_partial_cube_sequential(data, targets)
        assert set(res.results) == set(targets)
        for t in targets:
            assert np.allclose(res.results[t].data, ref[t].data)

    def test_untargeted_ancestors_not_written(self):
        data = random_sparse((6, 4, 4), 0.3, seed=2)
        res = construct_partial_cube_sequential(data, [(0,)])
        # (0,) needs (0, 2) as an intermediate; only (0,) is on disk.
        assert set(res.results) == {(0,)}
        assert res.disk.write_ops == 1

    def test_memory_within_full_bound(self):
        shape = (8, 6, 4)
        data = random_sparse(shape, 0.3, seed=3)
        res = construct_partial_cube_sequential(data, [(0,), (1,)])
        assert res.peak_memory_elements <= sequential_memory_bound(shape)

    def test_fewer_targets_less_compute(self):
        data = random_sparse((8, 8, 8), 0.3, seed=4)
        few = construct_partial_cube_sequential(data, [(0, 1)])
        n = 3
        targets = [nd for nd in all_nodes(n) if len(nd) < n]
        many = construct_partial_cube_sequential(data, targets)
        assert few.compute_element_ops < many.compute_element_ops


class TestParallelPartial:
    @pytest.mark.parametrize("bits", [(1, 1, 0, 0), (1, 1, 1, 0), (2, 0, 1, 0)])
    def test_targets_match_full_cube(self, bits):
        shape = (8, 6, 4, 4)
        data = random_sparse(shape, 0.3, seed=5)
        ref = cube_reference(data)
        targets = [(0, 1, 2), (0,), ()]
        res = construct_partial_cube_parallel(data, bits, targets)
        assert set(res.results) == set(targets)
        for t in targets:
            assert np.allclose(res.results[t].data, ref[t].data)

    def test_measured_volume_matches_pruned_closed_form(self):
        shape, bits = (8, 6, 4, 4), (1, 1, 1, 0)
        data = random_sparse(shape, 0.3, seed=6)
        targets = [(0, 1), (3,)]
        res = construct_partial_cube_parallel(
            data, bits, targets, collect_results=False
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


class TestPrunedSchedule:
    def test_only_closure_nodes_touched(self):
        from repro.sched.steps import PLocalAggregate, PWriteBack

        n = 4
        targets = [(0,), (1, 2)]
        closure = required_closure(targets, n)
        for step in pruned_schedule(n, targets):
            if isinstance(step, PLocalAggregate):
                assert set(step.children) <= closure
            elif isinstance(step, PWriteBack):
                assert step.node in closure

    def test_discard_flags(self):
        from repro.sched.steps import PWriteBack

        n = 4
        targets = {(0,)}
        for step in pruned_schedule(n, targets):
            if isinstance(step, PWriteBack):
                assert step.discard == (step.node not in targets)
