"""Sequential data cube construction (paper, Fig 3).

Executes the aggregation tree's right-to-left depth-first schedule on a real
array: the initial (sparse or dense) array is scanned once to produce all
first-level aggregates simultaneously; deeper nodes are computed from their
aggregation-tree parents; every computed array is written to the simulated
disk exactly once, when nothing further will be computed from it.  Given
``targets`` it walks the same schedule pruned to their ancestors (partial
materialization): stepping-stone ancestors are freed without a write.

The runner instruments exactly the quantities the paper's theorems bound:
peak held-results memory (Theorem 1), disk traffic (read input once, write
each output once), and computation (elements scanned per edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_multi, aggregate_sparse_to_dense
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray
from repro.arrays.storage import DiskStats, SimulatedDisk
from repro.core.aggregation_tree import (
    ComputeChildren,
    WriteBack,
    default_schedule,
    targets_key,
)
from repro.core.lattice import Node, all_nodes, full_node
from repro.util import node_name


@dataclass
class SequentialResult:
    """Everything the sequential constructor produced and measured."""

    results: dict[Node, DenseArray]
    peak_memory_elements: int
    peak_memory_bytes: int
    compute_element_ops: int
    disk: DiskStats
    write_order: list[Node] = field(default_factory=list)

    def __getitem__(self, node: Sequence[int]) -> DenseArray:
        return self.results[tuple(node)]


def _as_input(array: SparseArray | DenseArray | np.ndarray) -> SparseArray | DenseArray:
    if isinstance(array, np.ndarray):
        return DenseArray.full_cube_input(array)
    return array


def construct_cube_sequential(
    array: SparseArray | DenseArray | np.ndarray,
    disk: SimulatedDisk | None = None,
    measure: Measure | str = SUM,
    targets: Iterable[Sequence[int]] | None = None,
) -> SequentialResult:
    """Construct the data cube of ``array`` (Fig 3).

    ``array``'s axes are taken as dimensions ``0..n-1``, assumed already in
    the aggregation-tree ordering (use :func:`repro.core.plan.plan_cube` for
    arbitrary orderings).  Returns every aggregate -- or only ``targets``,
    when given -- as a dense array keyed by node, plus instrumentation.
    ``measure`` is any distributive measure (default SUM).
    """
    measure = get_measure(measure)
    array = _as_input(array)
    n = len(array.shape)
    root = full_node(n)
    disk = disk if disk is not None else SimulatedDisk()

    itemsize = np.dtype(np.float64).itemsize
    held: dict[Node, DenseArray] = {}
    current_elems = 0
    peak_elems = 0
    compute_ops = 0
    write_order: list[Node] = []
    results: dict[Node, DenseArray] = {}

    for step in default_schedule(n, targets_key(targets)):
        if isinstance(step, ComputeChildren):
            parent = array if step.node == root else held[step.node]
            if isinstance(parent, SparseArray):
                # One scan of the sparse input updates every child (the
                # paper's cache-reuse discipline).
                outs = aggregate_sparse_multi(
                    parent, tuple(range(n)), step.children, measure=measure
                )
                compute_ops += parent.nnz * len(step.children)
                for child, out in zip(step.children, outs):
                    held[child] = out
                    current_elems += out.size
            else:
                # The root's dense input aggregates with the measure itself;
                # deeper levels roll up already-aggregated partials.
                level_measure = measure if step.node == root else measure.rollup
                for child in step.children:
                    out = aggregate_dense(parent, child, measure=level_measure)
                    compute_ops += parent.size
                    held[child] = out
                    current_elems += out.size
            peak_elems = max(peak_elems, current_elems)
        elif isinstance(step, WriteBack):
            out = held.pop(step.node)
            current_elems -= out.size
            if not step.discard:
                disk.write(node_name(step.node), out)
                results[step.node] = out
                write_order.append(step.node)
        # Finalize: nothing to reduce on one processor.

    if held:
        raise AssertionError(f"schedule left nodes in memory: {sorted(held)}")
    return SequentialResult(
        results=results,
        peak_memory_elements=peak_elems,
        peak_memory_bytes=peak_elems * itemsize,
        compute_element_ops=compute_ops,
        disk=disk.stats.copy(),
        write_order=write_order,
    )


def cube_reference(
    array: SparseArray | DenseArray | np.ndarray,
    measure: Measure | str = SUM,
    targets: Iterable[Sequence[int]] | None = None,
) -> dict[Node, DenseArray]:
    """Oracle: every aggregate computed independently from the input.

    Used by tests and by the examples to cross-check the tree-based
    constructors; makes no claim to efficiency.  ``targets`` restricts it
    to those group-bys (default: every proper one).
    """
    measure = get_measure(measure)
    array = _as_input(array)
    n = len(array.shape)
    if targets is None:
        targets = [node for node in all_nodes(n) if len(node) < n]
    out: dict[Node, DenseArray] = {}
    for node in map(tuple, targets):
        if isinstance(array, SparseArray):
            out[node] = aggregate_sparse_to_dense(
                array, tuple(range(n)), node, measure=measure
            )
        else:
            out[node] = aggregate_dense(array, node, measure=measure)
    return out


def verify_cube(
    results: Mapping[Node, DenseArray],
    array: SparseArray | DenseArray | np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-9,
    measure: Measure | str = SUM,
    targets: Iterable[Sequence[int]] | None = None,
) -> None:
    """Raise ``AssertionError`` unless ``results`` matches the oracle.

    ``results`` must hold exactly ``targets`` (default: the full cube),
    keyed and axis-ordered by ``array``'s dimensions.
    """
    ref = cube_reference(array, measure=measure, targets=targets)
    if set(results) != set(ref):
        raise AssertionError(
            f"node sets differ: missing={set(ref) - set(results)}, "
            f"extra={set(results) - set(ref)}"
        )
    for node, expected in ref.items():
        got = results[node]
        if not np.allclose(got.data, expected.data, rtol=rtol, atol=atol):
            raise AssertionError(f"mismatch at node {node}")
