"""Partial data cube materialization (the paper's stated future work).

The paper closes: "we believe that the results we have obtained here could
form the basis for work on partial data cube construction."  This module is
that basis, built exactly the way the conclusion suggests: given a set of
*target* group-bys, take the closure of the targets under aggregation-tree
ancestry, prune the tree to that closure, and run the same bounded-memory
right-to-left schedule over the pruned tree.  Ancestors that are only
needed as stepping stones are freed without being written.

Properties inherited from the full algorithm (and tested):

- memory stays within the Theorem-1 bound (a pruned schedule holds a subset
  of the full schedule's working set);
- communication volume has the same per-edge closed form, summed over the
  pruned tree's finalized nodes (``partial_comm_volume``), and the
  simulator's measured volume matches it exactly;
- each target is produced bit-identical to the full cube's aggregate.

Choosing *which* group-bys to materialize (the view-selection problem of
Harinarayan et al.) is orthogonal and out of scope; this module takes the
target set as given.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_multi
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray
from repro.arrays.storage import SimulatedDisk
from repro.cluster.machine import MachineModel
from repro.core.aggregation_tree import AggregationTree
from repro.core.lattice import Node, full_node, node_size
from repro.core.parallel import ParallelResult, construct_cube_parallel
from repro.core.sequential import SequentialResult
from repro.util import node_name


def _check_targets(targets: Iterable[Sequence[int]], n: int) -> set[Node]:
    out: set[Node] = set()
    for t in targets:
        t = tuple(t)
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"target {t} must be strictly increasing")
        if t and (t[0] < 0 or t[-1] >= n):
            raise ValueError(f"target {t} out of range for {n} dimensions")
        if len(t) == n:
            raise ValueError("the full array is the input, not a target")
        out.add(t)
    if not out:
        raise ValueError("need at least one target group-by")
    return out


def required_closure(targets: Iterable[Sequence[int]], n: int) -> set[Node]:
    """Targets plus every aggregation-tree ancestor (excluding the root)."""
    tree = AggregationTree(n)
    root = full_node(n)
    needed: set[Node] = set()
    for t in _check_targets(targets, n):
        node = t
        while node != root and node not in needed:
            needed.add(node)
            node = tree.parent(node)
    return needed


def partial_comm_volume(
    shape: Sequence[int], bits: Sequence[int], targets: Iterable[Sequence[int]]
) -> int:
    """Lemma-1 sum over the pruned tree's edges (elements)."""
    n = len(shape)
    needed = required_closure(targets, n)
    tree = AggregationTree(n)
    total = 0
    for node in needed:
        j = tree.aggregated_dim(node)
        total += (2 ** bits[j] - 1) * node_size(node, shape)
    return total


def construct_partial_cube_parallel(
    array: SparseArray | DenseArray | np.ndarray,
    bits: Sequence[int],
    targets: Iterable[Sequence[int]],
    machine: MachineModel | None = None,
    reduction: str = "flat",
    collect_results: bool = True,
    measure: Measure | str = SUM,
) -> ParallelResult:
    """Materialize only ``targets`` (and transient ancestors) in parallel."""
    # repro.sched sits above repro.core (its modules import this one), so
    # the pruned schedule is reached from inside the function.
    from repro.sched.marginals import pruned_schedule

    shape = tuple(array.shape)
    n = len(shape)
    schedule = pruned_schedule(n, targets)
    res = construct_cube_parallel(
        array,
        bits,
        machine=machine,
        reduction=reduction,
        collect_results=collect_results,
        schedule=schedule,
        measure=measure,
    )
    # The full-cube closed form does not apply; substitute the pruned one.
    res.expected_comm_volume_elements = partial_comm_volume(shape, bits, targets)
    return res


def construct_partial_cube_sequential(
    array: SparseArray | DenseArray | np.ndarray,
    targets: Iterable[Sequence[int]],
    disk: SimulatedDisk | None = None,
    measure: Measure | str = SUM,
) -> SequentialResult:
    """Materialize only ``targets`` sequentially, with full instrumentation."""
    measure = get_measure(measure)
    if isinstance(array, np.ndarray):
        array = DenseArray.full_cube_input(array)
    n = len(array.shape)
    targets_set = _check_targets(targets, n)
    disk = disk if disk is not None else SimulatedDisk()
    root = full_node(n)

    held: dict[Node, DenseArray] = {}
    current = 0
    peak = 0
    compute_ops = 0
    write_order: list[Node] = []
    results: dict[Node, DenseArray] = {}

    from repro.sched.marginals import pruned_schedule
    from repro.sched.steps import PFinalize, PLocalAggregate, PWriteBack

    for step in pruned_schedule(n, targets_set):
        if isinstance(step, PLocalAggregate):
            parent = array if step.node == root else held[step.node]
            if isinstance(parent, SparseArray):
                outs = aggregate_sparse_multi(
                    parent, tuple(range(n)), step.children, measure=measure
                )
                compute_ops += parent.nnz * len(step.children)
            else:
                level_measure = measure if step.node == root else measure.rollup
                outs = [
                    aggregate_dense(parent, c, measure=level_measure)
                    for c in step.children
                ]
                compute_ops += parent.size * len(step.children)
            for child, out in zip(step.children, outs):
                held[child] = out
                current += out.size
            peak = max(peak, current)
        elif isinstance(step, PFinalize):
            continue  # no communication in the sequential setting
        elif isinstance(step, PWriteBack):
            out = held.pop(step.node)
            current -= out.size
            if not step.discard:
                disk.write(node_name(step.node), out)
                results[step.node] = out
                write_order.append(step.node)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")

    if held:
        raise AssertionError(f"nodes left in memory: {sorted(held)}")
    return SequentialResult(
        results=results,
        peak_memory_elements=peak,
        peak_memory_bytes=peak * 8,
        compute_element_ops=compute_ops,
        disk=disk.stats.copy(),
        write_order=write_order,
    )
