"""Level-synchronous parallel cube construction (prior-work baseline).

The paper's related work (Goil & Choudhary [3, 4]) parallelized cube
construction level by level: all m-dimensional aggregates are computed
(each from its minimal parent at level m+1) before any (m-1)-dimensional
one, with a synchronization between levels.  Compared with the aggregation
tree:

- **memory**: two *whole adjacent levels* coexist -- strictly above the
  Theorem-1 bound for n >= 3 (the bound equals just the first level);
- **synchronization**: a barrier per level; no pipelining of independent
  subtrees, so processors idle while stragglers finalize;
- **communication volume**: identical per-edge physics; under the canonical
  ordering the minimal-parent tree *is* the aggregation tree (Theorem 7),
  so volume matches -- the baseline loses on memory and schedule, not
  volume.  (Under a non-canonical ordering its volume differs with the
  tree.)

Implemented on the same simulator substrate with the same instrumentation,
so every comparison in T-seq/T-mem is apples to apples.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_to_dense
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray
from repro.cluster.collectives import reduce_to_lead
from repro.cluster.machine import MachineModel
from repro.cluster.runtime import Op, RankEnv, run_spmd
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node, all_nodes, full_node, node_size
from repro.core.parallel import (
    ParallelResult,
    _extract_local_inputs,
    assemble_results,
)
from repro.core.spanning_tree import minimal_parent_tree
from repro.sched.base import make_combiner


def level_sync_comm_volume(shape: Sequence[int], bits: Sequence[int]) -> int:
    """Closed-form volume: Lemma 1 summed over minimal-parent edges."""
    tree = minimal_parent_tree(shape)
    total = 0
    for _parent, child in tree.iter_edges():
        j = tree.aggregated_dim(child)
        total += (2 ** bits[j] - 1) * node_size(child, shape)
    return total


def construct_cube_level_sync(
    array: SparseArray | DenseArray | np.ndarray,
    bits: Sequence[int],
    machine: MachineModel | None = None,
    measure: Measure | str = SUM,
    collect_results: bool = True,
) -> ParallelResult:
    """Run the level-by-level baseline on the simulated cluster."""
    measure = get_measure(measure)
    if isinstance(array, np.ndarray):
        array = DenseArray.full_cube_input(array)
    shape = tuple(array.shape)
    bits = tuple(bits)
    n = len(shape)
    grid = ProcessorGrid(bits)
    local_inputs = _extract_local_inputs(array, grid)
    tree = minimal_parent_tree(shape)
    root = full_node(n)
    combine = make_combiner(measure)
    all_dims = tuple(range(n))

    # Nodes grouped by level, descending (level n-1 first).
    levels: dict[int, list[Node]] = {}
    for node in all_nodes(n):
        if len(node) < n:
            levels.setdefault(len(node), []).append(node)

    def program(env: RankEnv) -> Generator[Op, Any, dict[Node, DenseArray]]:
        rank = env.rank
        block = local_inputs[rank]
        if isinstance(block, SparseArray):  # scanned once per node: materialise once
            block = SparseArray(block.shape, [c.materialized() for c in block.chunks])
        local: dict[Node, DenseArray] = {}
        written: dict[Node, DenseArray] = {}
        yield env.disk_read(block.nbytes)

        tag = 0
        for m in range(n - 1, -1, -1):
            for node in sorted(levels[m]):
                tag += 1
                parent = tree.parent(node)
                j = tree.aggregated_dim(node)
                if not grid.holds_node(rank, parent):
                    continue
                # Local aggregation from the minimal parent (one scan per
                # child -- no simultaneous-update reuse, as in the prior
                # work's level-at-a-time formulation).
                if parent == root:
                    if isinstance(block, SparseArray):
                        out = aggregate_sparse_to_dense(
                            block, all_dims, node, measure=measure
                        )
                        yield env.compute(block.nnz, sparse=True)
                    else:
                        out = aggregate_dense(block, node, measure=measure)
                        yield env.compute(block.size)
                else:
                    src = local[parent]
                    out = aggregate_dense(src, node, measure=measure.rollup)
                    yield env.compute(src.size)
                env.alloc(node, out.size)
                group = grid.reduction_group(rank, j)
                if len(group) > 1:
                    final = yield from reduce_to_lead(
                        env, group, out, tag=tag,
                        combine=combine, element_ops=out.size,
                    )
                    if final is None:
                        env.free(node)
                        continue
                    out = final
                local[node] = out
            # Level barrier: the prior work's synchronization point.
            yield env.barrier()
            # Retire the parent level: nothing below will read it.
            if m + 1 <= n - 1:
                for node in levels[m + 1]:
                    if node in local:
                        arr = local.pop(node)
                        env.free(node)
                        yield env.disk_write(arr.nbytes)
                        written[node] = arr
        # Retire the last level (the 0-dimensional 'all').
        for node in levels[0]:
            if node in local:
                arr = local.pop(node)
                env.free(node)
                yield env.disk_write(arr.nbytes)
                written[node] = arr
        return written

    metrics = run_spmd(grid.size, program, machine=machine)
    results = None
    if collect_results:
        results = assemble_results(metrics.rank_results, grid, shape)
    return ParallelResult(
        results=results,
        metrics=metrics,
        bits=bits,
        shape=shape,
        expected_comm_volume_elements=level_sync_comm_volume(shape, bits),
    )
