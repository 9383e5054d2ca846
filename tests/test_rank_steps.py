"""The per-rank resolver against the reference predicates.

``repro.core.aggregation_tree.rank_steps`` / ``rank_slices`` compute once
per build what the Fig 5 programs, the output arena and
``assemble_results`` used to re-derive per step:
``ProcessorGrid.holds_node`` / ``reduction_group`` and
``BlockPartition.project(...).slices(...)`` stay public exactly so this
file can compare the resolver with them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.chunking import BlockPartition
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import (
    AggregationTree,
    Finalize,
    default_rank_steps,
    default_schedule,
    rank_slices,
    rank_steps,
    targets_key,
    tree_schedule,
)
from repro.core.comm_model import default_tree_comm_volume, tree_comm_volume
from repro.core.lattice import all_nodes
from repro.core.spanning_tree import left_deep_tree


def reference_steps(schedule, grid, rank):
    """The shared list filtered by the predicates the programs used to call."""
    out = []
    for idx, step in enumerate(schedule):
        if isinstance(step, Finalize):
            parent = tuple(sorted(step.child + (step.dim,)))
            group = grid.reduction_group(rank, step.dim)
            if grid.holds_node(rank, parent) and len(group) > 1:
                out.append((idx, step, tuple(group)))
        elif grid.holds_node(rank, step.node):
            out.append((idx, step, ()))
    return tuple(out)


@st.composite
def grids(draw):
    """``(shape, bits, targets)``: n <= 6, extents from 1 up, any split that fits."""
    n = draw(st.integers(1, 6))
    shape, bits = [], []
    for _ in range(n):
        b = draw(st.integers(0, 2))
        # Extent 1 forces an unpartitioned dimension; 3, 5, 7 do not divide.
        shape.append(draw(st.integers(2**b, 2**b + 5)))
        bits.append(b)
    proper = [node for node in all_nodes(n) if len(node) < n]
    targets = draw(
        st.none() | st.lists(st.sampled_from(proper), min_size=1, max_size=6)
    )
    return tuple(shape), tuple(bits), targets


@settings(max_examples=60, deadline=None)
@given(grids())
def test_resolver_equals_the_filtered_shared_list(case):
    shape, bits, targets = case
    n = len(shape)
    grid = ProcessorGrid(bits)
    key = targets_key(targets)
    schedule = default_schedule(n, key)
    assert list(schedule) == tree_schedule(AggregationTree(n), targets)

    resolved = default_rank_steps(n, key, bits)
    assert resolved == rank_steps(schedule, grid)
    slices = rank_slices(bits, shape)
    partition = BlockPartition(shape, grid.parts)
    assert len(resolved) == len(slices) == grid.size
    for rank in grid.ranks():
        assert resolved[rank] == reference_steps(schedule, grid, rank)
        label = grid.label(rank)
        for node in all_nodes(n):
            want = partition.project(node).slices(tuple(label[d] for d in node))
            assert tuple(slices[rank][d] for d in node) == want

    assert default_tree_comm_volume(shape, bits, key) == tree_comm_volume(
        AggregationTree(n), shape, bits, targets
    )


def test_supplied_tree_resolves_like_the_default_path():
    grid = ProcessorGrid((1, 0, 1, 1))
    schedule = tree_schedule(left_deep_tree(4))
    resolved = rank_steps(schedule, grid)
    for rank in grid.ranks():
        assert resolved[rank] == reference_steps(schedule, grid, rank)


def test_memoised_results_are_shared_and_immutable():
    a = default_schedule(4, ((0,), (1, 2)))
    assert default_schedule(4, targets_key([[1, 2], (0,)])) is a
    assert isinstance(a, tuple)
    steps = default_rank_steps(4, None, (1, 1, 0, 0))
    assert default_rank_steps(4, None, (1, 1, 0, 0)) is steps
    assert all(isinstance(per_rank, tuple) for per_rank in steps)
    assert rank_slices((1, 0), (5, 3)) is rank_slices((1, 0), (5, 3))


def test_rank_slices_rejects_a_split_that_does_not_fit():
    with pytest.raises(ValueError):
        rank_slices((2, 0), (3, 4))
