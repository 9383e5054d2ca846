"""Alternative spanning trees, runnable through the parallel constructor.

The aggregation tree is compared against:

- the *minimal-parent* tree for the given shape (identical to the
  aggregation tree under the canonical ordering -- Theorem 7 -- but a
  distinct tree otherwise);
- the *left-deep* tree (parent adds the smallest missing dimension), which
  violates the Theorem 1 memory bound and has worse communication;
- a *right-to-left vs left-to-right* traversal ablation on the aggregation
  tree itself (memory only; communication is traversal-independent).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arrays.dense import DenseArray
from repro.arrays.sparse import SparseArray
from repro.cluster.machine import MachineModel
from repro.core.parallel import ParallelResult, construct_cube_parallel
from repro.core.spanning_tree import (
    SpanningTree,
    left_deep_tree,
    minimal_parent_tree,
)


def tree_choices(shape: Sequence[int]) -> dict[str, SpanningTree]:
    """The named spanning trees compared in the T-seq experiment."""
    n = len(shape)
    return {
        "aggregation": SpanningTree.from_aggregation_tree(n),
        "minimal-parent": minimal_parent_tree(shape),
        "left-deep": left_deep_tree(n),
    }


def run_with_tree(
    array: SparseArray | DenseArray | np.ndarray,
    bits: Sequence[int],
    tree: SpanningTree | str,
    machine: MachineModel | None = None,
    collect_results: bool = True,
) -> ParallelResult:
    """Parallel construction using a named or explicit spanning tree.

    The tree belongs to the scheduler (``Fig5Scheduler(tree=...)``), so the
    run's ``expected_comm_volume_elements`` is the Lemma-1 sum over *that*
    tree's edges (:func:`repro.core.comm_model.tree_comm_volume`).
    """
    from repro.sched import Fig5Scheduler

    if isinstance(tree, str):
        tree = tree_choices(tuple(array.shape))[tree]
    return construct_cube_parallel(
        array,
        bits,
        machine=machine,
        collect_results=collect_results,
        scheduler=Fig5Scheduler(tree=tree),
    )
