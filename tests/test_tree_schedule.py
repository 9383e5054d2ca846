"""The one linearizer: ``tree_schedule`` pinned, and its invariants.

Step *indices* of the list are message tags in the Fig 5 rank programs, so
the list itself is pinned: ``tests/golden/tree_schedule.json`` holds digests
of what ``fig5_schedule(n)`` / ``pruned_schedule(n, targets)`` returned at
the commit before they were replaced (a class-name-free encoding, so the
pin survives the vocabulary merge).
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation_tree import (
    AggregationTree,
    ComputeChildren,
    Finalize,
    WriteBack,
    scheduled_nodes,
    tree_schedule,
)
from repro.core.lattice import all_nodes
from repro.core.memory_model import sequential_memory_bound
from repro.core.spanning_tree import (
    SpanningTree,
    left_deep_tree,
    minimal_parent_tree,
    simulate_schedule_memory,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "tree_schedule.json").read_text()
)


def _digest(steps):
    encoded = []
    for s in steps:
        if isinstance(s, ComputeChildren):
            encoded.append(("compute", s.node, s.children))
        elif isinstance(s, Finalize):
            encoded.append(("finalize", s.child, s.dim))
        else:
            encoded.append(("writeback", s.node, s.discard))
    return hashlib.sha256(repr(encoded).encode()).hexdigest()


class TestPinned:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_tree_list_is_the_old_fig5_schedule(self, n):
        steps = tree_schedule(AggregationTree(n))
        want = GOLDEN["full_tree"][str(n)]
        assert len(steps) == want["steps"]
        assert _digest(steps) == want["sha256"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_spelling_is_the_same_list(self, n):
        steps = tree_schedule(AggregationTree(n))
        assert AggregationTree(n).schedule() == steps
        assert SpanningTree.from_aggregation_tree(n).schedule() == steps
        every = [nd for nd in all_nodes(n) if len(nd) < n]
        assert tree_schedule(AggregationTree(n), every) == steps

    @pytest.mark.parametrize(
        "case", GOLDEN["pruned"], ids=lambda c: f"n{c['n']}-{len(c['targets'])}t"
    )
    def test_pruned_list_is_the_old_pruned_schedule(self, case):
        targets = [tuple(t) for t in case["targets"]]
        steps = tree_schedule(AggregationTree(case["n"]), targets)
        assert len(steps) == case["steps"]
        assert _digest(steps) == case["sha256"]


@st.composite
def _tree_and_targets(draw):
    n = draw(st.integers(1, 5))
    shape = tuple(draw(st.integers(2, 6)) for _ in range(n))
    tree = draw(
        st.sampled_from(
            [AggregationTree(n), left_deep_tree(n), minimal_parent_tree(shape)]
        )
    )
    proper = [nd for nd in all_nodes(n) if len(nd) < n]
    targets = draw(
        st.none() | st.lists(st.sampled_from(proper), min_size=1, unique=True)
    )
    return tree, shape, targets, draw(st.booleans())


@given(_tree_and_targets())
@settings(max_examples=150, deadline=None)
def test_schedule_invariants(case):
    """Each closure node: computed once under a held parent, finalized
    before any child of it is computed, retired exactly once."""
    tree, _shape, targets, right_to_left = case
    closure = scheduled_nodes(tree, targets)
    wanted = closure if targets is None else set(targets)
    held = {tree.root}
    finalized = {tree.root}
    computed, retired = [], []
    for step in tree_schedule(tree, targets, right_to_left):
        if isinstance(step, ComputeChildren):
            assert step.node in held and step.node in finalized
            for child in step.children:
                assert tree.parent(child) == step.node
            computed.extend(step.children)
            held.update(step.children)
        elif isinstance(step, Finalize):
            assert step.child in held and step.child not in finalized
            assert step.dim == tree.aggregated_dim(step.child)
            finalized.add(step.child)
        else:
            assert isinstance(step, WriteBack)
            assert step.node in finalized
            assert step.discard == (step.node not in wanted)
            held.remove(step.node)
            retired.append(step.node)
    assert held == {tree.root}
    assert sorted(computed) == sorted(retired) == sorted(closure)


@given(_tree_and_targets())
@settings(max_examples=100, deadline=None)
def test_pruned_right_to_left_walk_stays_within_theorem1(case):
    _tree, shape, targets, _ = case
    tree = AggregationTree(len(shape))
    shape = tuple(sorted(shape, reverse=True))
    peak = simulate_schedule_memory(tree_schedule(tree, targets), shape).peak
    assert peak <= sequential_memory_bound(shape)


def test_left_to_right_walk_violates_theorem1():
    shape = (4, 4, 4, 4)
    tree = AggregationTree(4)
    bound = sequential_memory_bound(shape)
    assert simulate_schedule_memory(tree_schedule(tree), shape).peak <= bound
    lr = tree_schedule(tree, right_to_left=False)
    assert simulate_schedule_memory(lr, shape).peak > bound
