"""Unit tests for the baseline schemes."""

import pytest

from repro.arrays.dataset import random_sparse
from repro.baselines.naive_parallel import (
    construct_cube_naive_parallel,
    naive_comm_volume,
)
from repro.baselines.partitions import (
    all_partition_choices,
    paper_partition_options,
    partition_sweep,
)
from repro.baselines.trees import run_with_tree, tree_choices
from repro.core.comm_model import total_comm_volume, tree_comm_volume
from repro.core.sequential import verify_cube
from repro.core.spanning_tree import SpanningTree


class TestNaiveParallel:
    def test_correct_results(self):
        data = random_sparse((6, 4, 4), 0.3, seed=1)
        res = construct_cube_naive_parallel(data, (1, 1, 0))
        verify_cube(res.results, data)

    def test_measured_volume_matches_closed_form(self):
        shape, bits = (6, 4, 4), (1, 1, 1)
        data = random_sparse(shape, 0.3, seed=2)
        res = construct_cube_naive_parallel(data, bits, collect_results=False)
        assert res.comm_volume_elements == naive_comm_volume(shape, bits)

    def test_naive_volume_exceeds_tree_volume(self):
        shape, bits = (8, 8, 8), (1, 1, 1)
        assert naive_comm_volume(shape, bits) > total_comm_volume(shape, bits)

    def test_naive_slower_than_tree(self):
        shape, bits = (12, 12, 8, 8), (1, 1, 1, 0)
        data = random_sparse(shape, 0.25, seed=3)
        from repro.core.parallel import construct_cube_parallel

        t_tree = construct_cube_parallel(
            data, bits, collect_results=False
        ).simulated_time_s
        t_naive = construct_cube_naive_parallel(
            data, bits, collect_results=False
        ).simulated_time_s
        assert t_naive > t_tree

    def test_single_processor_no_comm(self):
        data = random_sparse((4, 4), 0.5, seed=4)
        res = construct_cube_naive_parallel(data, (0, 0))
        assert res.comm_volume_elements == 0
        verify_cube(res.results, data)


class TestPartitionChoices:
    def test_sorted_by_volume(self):
        choices = all_partition_choices((8, 8, 8, 8), 3)
        vols = [c.comm_volume_elements for c in choices]
        assert vols == sorted(vols)

    def test_best_matches_greedy(self):
        from repro.core.partition import greedy_partition

        shape = (16, 8, 8, 4)
        best = all_partition_choices(shape, 3)[0]
        greedy_vol = total_comm_volume(shape, greedy_partition(shape, 3))
        assert best.comm_volume_elements == greedy_vol

    def test_paper_options_k3(self):
        opts = paper_partition_options(4, 3)
        assert opts == [(1, 1, 1, 0), (2, 1, 0, 0), (3, 0, 0, 0)]

    def test_paper_options_k4(self):
        opts = paper_partition_options(4, 4)
        assert opts == [
            (1, 1, 1, 1),
            (2, 1, 1, 0),
            (2, 2, 0, 0),
            (3, 1, 0, 0),
            (4, 0, 0, 0),
        ]

    def test_sweep_names(self):
        sweep = partition_sweep((8, 8, 8, 8), 3)
        names = [c.name for c in sweep]
        assert names[0].startswith("3-dimensional")
        assert names[-1].startswith("1-dimensional")

    def test_sweep_ranks_more_dims_better_for_equal_extents(self):
        # The paper's headline: more partitioned dimensions -> less volume.
        sweep = partition_sweep((64, 64, 64, 64), 3)
        vols = [c.comm_volume_elements for c in sweep]
        assert vols == sorted(vols)


class TestTreeBaselines:
    def test_choices_present(self):
        trees = tree_choices((8, 4, 2))
        assert set(trees) == {"aggregation", "minimal-parent", "left-deep"}

    def test_all_trees_produce_correct_results(self):
        data = random_sparse((6, 4, 4), 0.3, seed=5)
        for name in ("aggregation", "minimal-parent", "left-deep"):
            res = run_with_tree(data, (1, 1, 0), name)
            verify_cube(res.results, data)

    def test_left_deep_has_higher_volume(self):
        shape, bits = (16, 8, 4), (2, 1, 0)
        trees = tree_choices(shape)
        v_agg = tree_comm_volume(trees["aggregation"], shape, bits)
        v_ld = tree_comm_volume(trees["left-deep"], shape, bits)
        assert v_ld > v_agg

    def test_aggregation_tree_volume_matches_theorem3(self):
        shape, bits = (16, 8, 4), (1, 1, 1)
        tree = SpanningTree.from_aggregation_tree(3)
        assert tree_comm_volume(tree, shape, bits) == total_comm_volume(shape, bits)

    def test_expected_volume_is_the_runs_own_tree(self):
        # Regression: every alternative-tree run reported Theorem 3 of the
        # aggregation tree as its prediction (240 here) whatever it walked.
        shape, bits = (8, 6, 4, 4), (1, 1, 0, 0)
        data = random_sparse(shape, 0.3, seed=7)
        theorem3 = total_comm_volume(shape, bits)
        for name, tree in tree_choices(shape).items():
            res = run_with_tree(data, bits, name, collect_results=False)
            assert (
                res.expected_comm_volume_elements
                == res.comm_volume_elements
                == tree_comm_volume(tree, shape, bits)
            ), name
            assert res.comm_volume_elements >= theorem3  # Theorem 3 is optimal
        assert tree_comm_volume(tree_choices(shape)["left-deep"], shape, bits) == 375
        assert theorem3 == 240
        with pytest.raises(ValueError, match="cannot partition"):
            tree_comm_volume(tree_choices(shape)["left-deep"], shape, (4, 0, 0, 0))

    def test_measured_volume_for_alt_tree(self):
        shape, bits = (8, 6, 4), (1, 1, 0)
        data = random_sparse(shape, 0.3, seed=6)
        tree = tree_choices(shape)["left-deep"]
        res = run_with_tree(data, bits, tree, collect_results=False)
        assert res.comm_volume_elements == tree_comm_volume(tree, shape, bits)
