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
  measured volume matches it exactly;
- each target is produced bit-identical to the full cube's aggregate.

There is no second constructor: the sequential walker takes the targets
(``construct_cube_sequential(array, targets=...)``) and the parallel host
takes a scheduler that owns them (``Fig5Scheduler(targets=...)``); both read
the one pruned list :func:`repro.core.aggregation_tree.tree_schedule` makes.

Choosing *which* group-bys to materialize (the view-selection problem of
Harinarayan et al.) is orthogonal and out of scope; this module takes the
target set as given.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.aggregation_tree import AggregationTree, scheduled_nodes
from repro.core.comm_model import tree_comm_volume
from repro.core.lattice import Node


def required_closure(targets: Iterable[Sequence[int]], n: int) -> set[Node]:
    """Targets plus every aggregation-tree ancestor (excluding the root)."""
    return scheduled_nodes(AggregationTree(n), targets)


def partial_comm_volume(
    shape: Sequence[int], bits: Sequence[int], targets: Iterable[Sequence[int]]
) -> int:
    """Lemma-1 sum over the pruned aggregation tree's edges (elements)."""
    return tree_comm_volume(AggregationTree(len(shape)), shape, bits, targets)
