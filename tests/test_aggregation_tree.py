"""Unit tests for the aggregation tree (Definition 3) and its schedule."""

import pytest

from repro.core.aggregation_tree import (
    AggregationTree,
    ComputeChildren,
    Finalize,
    WriteBack,
)
from repro.core.lattice import all_nodes, node_complement
from repro.core.prefix_tree import PrefixTree


class TestStructure:
    def test_root_is_full_set(self):
        assert AggregationTree(3).root == (0, 1, 2)

    def test_is_complement_of_prefix_tree(self):
        n = 4
        agg = AggregationTree(n)
        pre = PrefixTree(n)
        for pnode in pre.nodes():
            anode = node_complement(pnode, n)
            prefix_kids = pre.children(pnode)
            agg_kids = agg.children(anode)
            assert agg_kids == [node_complement(k, n) for k in prefix_kids]

    def test_paper_fig2_3d(self):
        # With labels A=dim2, B=dim1, C=dim0 (canonical non-increasing order):
        # root ABC has children BC-like complements; the node dropping the
        # *last* dim ({0,1}) has no children; A and B come from AB.
        tree = AggregationTree(3)
        assert tree.children((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]
        assert tree.children((0, 1)) == []          # "BC" written back first
        assert tree.children((0, 2)) == [(0,)]      # "AC" -> "C"
        assert tree.children((1, 2)) == [(2,), (1,)]  # "AB" -> "A","B"
        assert tree.children((2,)) == [()]          # "A" -> all

    def test_parent_adds_max_missing(self):
        tree = AggregationTree(4)
        assert tree.parent((0,)) == (0, 3)
        assert tree.parent((0, 3)) == (0, 2, 3)
        assert tree.parent(()) == (3,)

    def test_parent_child_inverse(self):
        tree = AggregationTree(5)
        for node in tree.nodes():
            for child in tree.children(node):
                assert tree.parent(child) == node

    def test_aggregated_dim(self):
        tree = AggregationTree(4)
        for node in tree.nodes():
            if len(node) == 4:
                continue
            parent = tree.parent(node)
            dim = tree.aggregated_dim(node)
            assert set(parent) - set(node) == {dim}

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            AggregationTree(3).parent((0, 1, 2))

    def test_spans_power_set(self):
        for n in (1, 2, 3, 4, 5):
            tree = AggregationTree(n)
            seen = list(tree.preorder())
            assert sorted(seen) == sorted(all_nodes(n))

    def test_children_left_to_right_by_dropped_dim(self):
        tree = AggregationTree(5)
        for node in tree.nodes():
            kids = tree.children(node)
            dropped = [(set(node) - set(k)).pop() for k in kids]
            assert dropped == sorted(dropped)

    def test_parent_map(self):
        tree = AggregationTree(3)
        pm = tree.parent_map()
        assert len(pm) == 7
        assert pm[()] == (2,)

    def test_to_networkx(self):
        g = AggregationTree(3).to_networkx()
        assert g.number_of_nodes() == 8
        assert g.number_of_edges() == 7


class TestSchedule:
    def test_every_node_computed_once(self):
        tree = AggregationTree(4)
        computed = []
        for step in tree.schedule():
            if isinstance(step, ComputeChildren):
                computed.extend(step.children)
        assert sorted(computed) == sorted(
            nd for nd in all_nodes(4) if len(nd) < 4
        )

    def test_every_node_written_once(self):
        tree = AggregationTree(4)
        written = [
            step.node for step in tree.schedule() if isinstance(step, WriteBack)
        ]
        assert sorted(written) == sorted(
            nd for nd in all_nodes(4) if len(nd) < 4
        )

    def test_root_never_written(self):
        tree = AggregationTree(3)
        for step in tree.schedule():
            if isinstance(step, WriteBack):
                assert step.node != tree.root

    def test_computed_before_written(self):
        tree = AggregationTree(4)
        alive = set()
        for step in tree.schedule():
            if isinstance(step, ComputeChildren):
                alive.update(step.children)
            elif isinstance(step, WriteBack):
                assert step.node in alive
                alive.remove(step.node)
        assert not alive

    def test_parent_alive_when_children_computed(self):
        tree = AggregationTree(5)
        alive = {tree.root}
        for step in tree.schedule():
            if isinstance(step, ComputeChildren):
                assert step.node in alive
                alive.update(step.children)
            elif isinstance(step, WriteBack):
                alive.remove(step.node)

    def test_first_step_is_first_level(self):
        tree = AggregationTree(3)
        first = tree.schedule()[0]
        assert isinstance(first, ComputeChildren)
        assert first.node == tree.root
        assert len(first.children) == 3

    def test_right_to_left_order_3d(self):
        # Paper's walkthrough: BC written first (here node (0,1)), then the
        # AC subtree, then the AB subtree.
        tree = AggregationTree(3)
        writes = [s.node for s in tree.schedule() if isinstance(s, WriteBack)]
        assert writes[0] == (0, 1)
        assert writes.index((0, 2)) < writes.index((1, 2))

    def test_single_dim(self):
        tree = AggregationTree(1)
        steps = tree.schedule()
        assert isinstance(steps[0], ComputeChildren)
        assert steps[0].children == ((),)
        assert steps[1] == Finalize((), 0)
        assert isinstance(steps[2], WriteBack)
