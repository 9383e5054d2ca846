"""Naive parallel cube construction: no spanning tree, no reuse.

Every one of the ``2**n - 1`` aggregates is computed *directly from the
initial array*: each rank scans its input block once per node, and the
partials are reduced onto the node's holders (the leads along every missing
dimension) in one flat group.  This is the strawman against which the
aggregation tree's two savings show up:

- computation: every node costs a full scan of the input (no minimal
  parents), so total compute is ``(2**n - 1) * |input|`` element-ops versus
  the tree's much smaller edge-sum;
- communication: each node ``T`` moves ``(g_T - 1) * |portion|`` summed over
  groups = ``(prod_{j not in T} 2**bits[j] - 1) * |T|`` elements, versus the
  tree's ``(2**bits[j] - 1) * |T|`` per edge.

:func:`naive_comm_volume` gives the closed form for comparison tables.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_to_dense
from repro.arrays.dense import DenseArray
from repro.arrays.measures import SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.collectives import reduce_to_lead
from repro.cluster.machine import MachineModel
from repro.cluster.runtime import Op, RankEnv, run_spmd
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node, all_nodes, node_size
from repro.core.parallel import (
    ParallelResult,
    _extract_local_inputs,
    assemble_results,
)
from repro.sched.base import make_combiner


def naive_comm_volume(shape: Sequence[int], bits: Sequence[int]) -> int:
    """Closed-form elements communicated by the naive scheme."""
    shape = tuple(shape)
    bits = tuple(bits)
    n = len(shape)
    total = 0
    for node in all_nodes(n):
        if len(node) == n:
            continue
        group = 1
        for j in range(n):
            if j not in node:
                group *= 2 ** bits[j]
        total += (group - 1) * node_size(node, shape)
    return total


def _flat_group(grid: ProcessorGrid, rank: int, node: Node) -> list[int]:
    """Ranks sharing ``rank``'s label on the dims of ``node``; lead first.

    The lead is the member with zero label on every missing dimension.
    """
    lab = list(grid.label(rank))
    missing = [d for d in range(grid.ndim) if d not in node]
    group: list[int] = []

    def rec(i: int) -> None:
        if i == len(missing):
            group.append(grid.rank(lab))
            return
        d = missing[i]
        for v in range(grid.parts[d]):
            lab[d] = v
            rec(i + 1)
        lab[d] = grid.label(rank)[d]

    rec(0)
    group.sort(key=lambda r: tuple(grid.label(r)[d] for d in missing))
    return group


def construct_cube_naive_parallel(
    array: SparseArray | DenseArray | np.ndarray,
    bits: Sequence[int],
    machine: MachineModel | None = None,
    collect_results: bool = True,
) -> ParallelResult:
    """Run the naive scheme on the simulated cluster.

    Same interfaces and instrumentation as
    :func:`repro.core.parallel.construct_cube_parallel` so results and
    metrics are directly comparable.
    """
    if isinstance(array, np.ndarray):
        array = DenseArray.full_cube_input(array)
    shape = tuple(array.shape)
    bits = tuple(bits)
    n = len(shape)
    grid = ProcessorGrid(bits)
    local_inputs = _extract_local_inputs(array, grid)
    all_dims = tuple(range(n))
    nodes = [nd for nd in all_nodes(n) if len(nd) < n]
    combine = make_combiner(SUM)

    def program(env: RankEnv) -> Generator[Op, Any, dict[Node, DenseArray]]:
        rank = env.rank
        block = local_inputs[rank]
        if isinstance(block, SparseArray):  # scanned once per node: materialise once
            block = SparseArray(block.shape, [c.materialized() for c in block.chunks])
        written: dict[Node, DenseArray] = {}
        yield env.disk_read(block.nbytes)
        for tag, node in enumerate(nodes):
            # Everyone scans its input block for every node: no reuse.
            if isinstance(block, SparseArray):
                partial = aggregate_sparse_to_dense(block, all_dims, node)
                yield env.compute(block.nnz, sparse=True)
            else:
                partial = aggregate_dense(block, node)
                yield env.compute(block.size)
            env.alloc(("naive", node), partial.size)
            group = _flat_group(grid, rank, node)
            if len(group) > 1:
                final = yield from reduce_to_lead(
                    env, group, partial, tag=tag,
                    combine=combine, element_ops=partial.size,
                )
            else:
                final = partial
            if final is None:
                env.free(("naive", node))
                continue
            yield env.disk_write(final.nbytes)
            written[node] = final
            env.free(("naive", node))
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
        expected_comm_volume_elements=naive_comm_volume(shape, bits),
    )
