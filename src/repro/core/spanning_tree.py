"""Generic spanning trees of the data-cube lattice.

The aggregation tree is one spanning tree among many; the paper's Theorems 2
and 5 are statements about *all* spanning trees.  This module provides a
generic :class:`SpanningTree` (any node -> parent map over the power set), a
Fig-3-style schedule for any tree, a memory simulator for schedules (used to
check the Theorem 1 bound and to show other trees do worse), and the
computation-cost metric behind the minimal-parents discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.aggregation_tree import (
    AggregationTree,
    ComputeChildren,
    ScheduleStep,
    WriteBack,
    tree_schedule,
)
from repro.core.lattice import (
    Node,
    all_nodes,
    full_node,
    lattice_parents,
    minimal_parent,
    node_size,
)


class SpanningTree:
    """A spanning tree of the data-cube lattice over ``n`` dimensions.

    ``parent_map`` maps every non-root node to a lattice parent (a superset
    with exactly one extra dimension).  Validation rejects maps that are not
    trees over the full power set.
    """

    def __init__(self, n: int, parent_map: dict[Node, Node]) -> None:
        self.n = n
        self.root = full_node(n)
        expected = set(all_nodes(n)) - {self.root}
        if set(parent_map) != expected:
            missing = expected - set(parent_map)
            extra = set(parent_map) - expected
            raise ValueError(
                f"parent_map must cover every non-root node exactly; "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        for node, parent in parent_map.items():
            if parent not in lattice_parents(node, n):
                raise ValueError(f"{parent} is not a lattice parent of {node}")
        self.parent_map = dict(parent_map)
        self._children: dict[Node, list[Node]] = {nd: [] for nd in all_nodes(n)}
        for node, parent in parent_map.items():
            self._children[parent].append(node)
        # Deterministic left-to-right order: ascending dropped dimension.
        for parent, kids in self._children.items():
            kids.sort(key=lambda kid: (set(parent) - set(kid)).pop())

    @classmethod
    def from_aggregation_tree(cls, n: int) -> "SpanningTree":
        return cls(n, AggregationTree(n).parent_map())

    def children(self, node: Sequence[int]) -> list[Node]:
        return list(self._children[tuple(node)])

    def parent(self, node: Sequence[int]) -> Node:
        return self.parent_map[tuple(node)]

    def aggregated_dim(self, node: Sequence[int]) -> int:
        """Dimension aggregated away on the edge parent -> node."""
        node = tuple(node)
        return (set(self.parent(node)) - set(node)).pop()

    def iter_edges(self) -> Iterable[tuple[Node, Node]]:
        for node, parent in self.parent_map.items():
            yield (parent, node)

    def schedule(self, right_to_left: bool = True) -> list[ScheduleStep]:
        """This tree's schedule (:func:`tree_schedule`): right-to-left, or
        left-to-right -- the order Theorem 1 does *not* hold for."""
        return tree_schedule(self, right_to_left=right_to_left)


def minimal_parent_tree(shape: Sequence[int]) -> SpanningTree:
    """Spanning tree where every node's parent is its minimal parent.

    Under the canonical (non-increasing) dimension ordering this coincides
    with the aggregation tree (Theorem 7); under other orderings it differs
    and is the fair baseline for computation cost.
    """
    n = len(shape)
    return SpanningTree(
        n,
        {nd: minimal_parent(nd, shape) for nd in all_nodes(n) if len(nd) < n},
    )


def left_deep_tree(n: int) -> SpanningTree:
    """A deliberately memory-unfriendly tree: parent adds the *smallest*
    missing dimension (the mirror image of the aggregation tree)."""
    pm: dict[Node, Node] = {}
    for node in all_nodes(n):
        if len(node) == n:
            continue
        missing = [d for d in range(n) if d not in node]
        pm[node] = tuple(sorted(node + (missing[0],)))
    return SpanningTree(n, pm)


@dataclass
class MemoryTimeline:
    """Result of simulating a schedule's held-results memory."""

    peak: int
    samples: list[int]
    final_held: set[Node]


def simulate_schedule_memory(
    steps: Sequence[ScheduleStep],
    shape: Sequence[int],
    size_fn: Callable[[Node], int] | None = None,
) -> MemoryTimeline:
    """Track held-results memory (in elements) over a schedule.

    The initial array (root) does not count toward held results, matching
    Theorems 1/2 which bound "memory requirements for holding the results".
    ``size_fn`` overrides the per-node size (the parallel analysis passes
    per-processor portion sizes).

    Raises ``ValueError`` if the schedule is ill-formed: computing children
    of a node that is neither the root nor currently held, recomputing a
    held node, or writing back a node that is not held.
    """
    n = len(shape)
    root = full_node(n)
    if size_fn is None:
        size_fn = lambda nd: node_size(nd, shape)  # noqa: E731
    held: dict[Node, int] = {}
    current = 0
    peak = 0
    samples: list[int] = []
    for step in steps:
        if isinstance(step, ComputeChildren):
            if step.node != root and step.node not in held:
                raise ValueError(
                    f"children of {step.node} computed but it is not in memory"
                )
            for child in step.children:
                if child in held:
                    raise ValueError(f"node {child} computed twice")
                sz = size_fn(child)
                held[child] = sz
                current += sz
        elif isinstance(step, WriteBack):
            if step.node not in held:
                raise ValueError(f"write-back of {step.node} which is not held")
            current -= held.pop(step.node)
        else:
            continue  # Finalize moves partials between ranks, not memory
        peak = max(peak, current)
        samples.append(current)
    return MemoryTimeline(peak=peak, samples=samples, final_held=set(held))


def tree_computation_cost(tree: SpanningTree, shape: Sequence[int]) -> int:
    """Total computation: each edge scans its parent once.

    Aggregating a parent of size ``|P|`` along one dimension performs
    ``|P|`` additions regardless of the result size, so the cost of a
    spanning tree is the sum of parent sizes over its edges.  Minimal over
    all spanning trees iff every node uses its minimal parent.
    """
    return sum(node_size(parent, shape) for parent, _child in tree.iter_edges())
