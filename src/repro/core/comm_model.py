"""Closed-form communication volume (paper, Lemma 1 and Theorem 3).

Setting: ``p = 2**k`` processors; dimension ``j`` is block-partitioned
across ``2**bits[j]`` processors with ``sum(bits) == k``.  Aggregating the
(distributed) parent along dimension ``j`` produces a child ``Y`` held by
the *lead* processors along ``j``; each reduction group has ``2**bits[j]``
members each holding a partial result the size of the lead's portion of
``Y``, so the group's communication is ``(2**bits[j] - 1)`` portion-sends
and the edge total is

    ``V(edge) = (2**bits[j] - 1) * |Y|``        (Lemma 1)

Summing over all aggregation-tree edges: dimension ``j`` is the aggregated
dimension exactly on edges whose prefix-tree source is a subset of
``{0..j-1}``, giving the closed form

    ``V = sum_j (2**bits[j] - 1) * c_j``        (Theorem 3)
    ``c_j = prod_{l > j} shape[l] * prod_{l < j} (1 + shape[l])``

The identity ``sum_{S subset of {0..j-1}} prod_{l in {0..j-1} - S}
shape[l] = prod_{l < j} (1 + shape[l])`` collapses the per-edge sum; the
tests verify the closed form equals both the explicit edge sum and the
simulator's measured byte counts exactly.

All volumes here are in *elements*; multiply by the dtype's item size for
bytes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable, Sequence

from repro.core.aggregation_tree import AggregationTree, scheduled_nodes
from repro.core.lattice import Node, node_size


def _validate(shape: Sequence[int], bits: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    shape = tuple(shape)
    bits = tuple(bits)
    if len(shape) != len(bits):
        raise ValueError("shape and bits must have equal length")
    if any(b < 0 for b in bits):
        raise ValueError(f"bits must be non-negative, got {bits}")
    for s, b in zip(shape, bits):
        if 2 ** b > s:
            raise ValueError(
                f"cannot partition a dimension of size {s} across {2 ** b} processors"
            )
    return shape, bits


def comm_coefficient(j: int, shape: Sequence[int]) -> int:
    """Theorem 3 coefficient ``c_j`` of ``(2**bits[j] - 1)``.

    ``c_j`` is the total size of all aggregation-tree nodes that are
    computed by aggregating along dimension ``j``.
    """
    n = len(shape)
    if not 0 <= j < n:
        raise ValueError(f"dimension {j} out of range")
    coeff = 1
    for d in range(j + 1, n):
        coeff *= shape[d]
    for d in range(j):
        coeff *= 1 + shape[d]
    return coeff


def edge_comm_volume(child: Sequence[int], dim: int, shape: Sequence[int], bits: Sequence[int]) -> int:
    """Lemma 1: volume of finalizing ``child`` by reducing along ``dim``."""
    shape, bits = _validate(shape, bits)
    return (2 ** bits[dim] - 1) * node_size(child, shape)


def total_comm_volume(shape: Sequence[int], bits: Sequence[int]) -> int:
    """Theorem 3 closed form: total elements communicated for the cube."""
    shape, bits = _validate(shape, bits)
    return sum(
        (2 ** b - 1) * comm_coefficient(j, shape)
        for j, b in enumerate(bits)
    )


def tree_comm_volume(
    tree: Any,
    shape: Sequence[int],
    bits: Sequence[int],
    targets: Iterable[Sequence[int]] | None = None,
) -> int:
    """Lemma 1 summed over the edges a schedule of ``tree`` finalizes.

    The volume of any spanning tree, and -- with ``targets`` -- of the tree
    pruned to their ancestors (partial materialization): every computed
    node is reduced once along its aggregated dimension, discarded or not.
    """
    shape, bits = _validate(shape, bits)
    return sum(
        (2 ** bits[tree.aggregated_dim(node)] - 1) * node_size(node, shape)
        for node in scheduled_nodes(tree, targets)
    )


@lru_cache(maxsize=64)
def default_tree_comm_volume(
    shape: tuple[int, ...],
    bits: tuple[int, ...],
    targets: tuple[Node, ...] | None = None,
) -> int:
    """:func:`tree_comm_volume` of the aggregation tree, memoised by value
    beside :func:`repro.core.aggregation_tree.default_schedule` (``targets``:
    a :func:`~repro.core.aggregation_tree.targets_key`)."""
    return tree_comm_volume(AggregationTree(len(shape)), shape, bits, targets)


def total_comm_volume_by_edges(shape: Sequence[int], bits: Sequence[int]) -> int:
    """Explicit per-edge sum over the aggregation tree (cross-check)."""
    return tree_comm_volume(AggregationTree(len(shape)), shape, bits)


def first_level_comm_volume(shape: Sequence[int], bits: Sequence[int]) -> int:
    """Volume of the first aggregation level only (the n root edges).

    Matches the section-2 example: partitioning a 3-d array only along
    dimension ``j`` costs ``|product of the other two sizes|`` elements.
    """
    shape, bits = _validate(shape, bits)
    n = len(shape)
    total = 0
    for j in range(n):
        child_size = 1
        for d in range(n):
            if d != j:
                child_size *= shape[d]
        total += (2 ** bits[j] - 1) * child_size
    return total
