"""The aggregation tree (paper, Definition 3) and its schedule (Fig 3).

The aggregation tree over dimensions ``{0..n-1}`` is the image of the prefix
tree under complementation: node ``T`` of the aggregation tree corresponds
to prefix-tree node ``complement(T)``.  Consequences used everywhere below:

- The root is the full set (the initial array).
- Node ``T`` (except the root) has parent ``T + {j}`` where
  ``j = max(complement(T))``; it is computed by aggregating the parent along
  dimension ``j``.
- Node ``T``'s children, ordered left to right, are ``T - {j}`` for
  ``j = max(complement(T)) + 1, ..., n-1`` (ascending ``j``).

Under the canonical dimension ordering (sizes non-increasing),
``max(complement(T))`` is the *smallest-size* dimension missing from ``T``,
so every node's aggregation-tree parent is its minimal parent in the lattice
(Theorem 7); see :mod:`repro.core.ordering`.

The sequential algorithm (Fig 3) evaluates the tree with a right-to-left
depth-first traversal: all children of a node are computed simultaneously
(maximal cache/memory reuse -- the parent is scanned once), then children
are finalized right to left, recursing into non-leaves; a node is written
back to disk exactly once, when no further child will be computed from it.
Fig 5 runs the same walk on every processor with one addition: after the
children are computed, each is *finalized* -- its reduction group combines
the partials onto the lead -- before anything is computed from it.

:func:`tree_schedule` is the one linearizer of that recursion.  It returns
a flat list of :class:`ComputeChildren` / :class:`Finalize` /
:class:`WriteBack` steps for any spanning tree, optionally pruned to a
target set, and every consumer reads that list: the sequential constructor
and the memory simulator (which skip ``Finalize``), the out-of-core study,
and the Fig 5 rank programs in :mod:`repro.sched.fig5`, which use a step's
*index* in the list as its message tag -- so the list is identical on
every rank by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, Sequence

from repro.arrays.chunking import BlockPartition
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node, all_nodes, full_node, node_complement


@dataclass(frozen=True)
class ComputeChildren:
    """Aggregate all children of ``node`` from ``node``, simultaneously.

    ``children`` are in left-to-right tree order.  In parallel, every
    holder of ``node`` computes its local partial of each child.
    """

    node: Node
    children: tuple[Node, ...]


@dataclass(frozen=True)
class Finalize:
    """Reduction groups along ``dim`` combine partials of ``child`` onto leads.

    Nothing to do on one processor: the sequential consumers skip it.
    """

    child: Node
    dim: int


@dataclass(frozen=True)
class WriteBack:
    """Retire ``node``: its final value is written to disk and freed.

    With ``discard=True`` the node is freed without being written: an
    ancestor that a pruned schedule needed only as a stepping stone.
    """

    node: Node
    discard: bool = False


ScheduleStep = ComputeChildren | Finalize | WriteBack


def check_targets(targets: Iterable[Sequence[int]], n: int) -> set[Node]:
    """Validate target group-bys of an ``n``-dimensional cube, as a set."""
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


def scheduled_nodes(tree: Any, targets: Iterable[Sequence[int]] | None = None) -> set[Node]:
    """The nodes a schedule over ``tree`` computes (never the root).

    Every proper group-by when ``targets`` is ``None``; otherwise the
    targets plus each one's ancestors in ``tree`` -- the pruned tree.
    """
    root: Node = tree.root
    n = len(root)
    if targets is None:
        return {node for node in all_nodes(n) if len(node) < n}
    needed: set[Node] = set()
    for node in check_targets(targets, n):
        while node != root and node not in needed:
            needed.add(node)
            node = tree.parent(node)
    return needed


def tree_schedule(
    tree: Any,
    targets: Iterable[Sequence[int]] | None = None,
    right_to_left: bool = True,
) -> list[ScheduleStep]:
    """Linearize the depth-first evaluation of ``tree`` (Fig 3 / Fig 5).

    ``tree`` is any object with the spanning-tree traversal API (``root``,
    ``children``, ``parent``, ``aggregated_dim``).  With ``targets`` the
    walk is restricted to :func:`scheduled_nodes` and every non-target is
    discarded instead of written.  ``right_to_left=False`` is the
    traversal order Theorem 1 does *not* hold for (an ablation).

    The returned steps have the invariants the paper's analysis relies
    on: every node's children are computed in a single step while the
    node is still held; a child is finalized before anything is computed
    from it; every computed node is retired exactly once; the initial
    array (root) is never written back.
    """
    root: Node = tree.root
    if targets is None:
        needed = wanted = scheduled_nodes(tree)
    else:
        wanted = check_targets(targets, len(root))
        needed = scheduled_nodes(tree, wanted)
    steps: list[ScheduleStep] = []

    def evaluate(node: Node) -> None:
        kids = [k for k in tree.children(node) if k in needed]
        if kids:
            steps.append(ComputeChildren(node, tuple(kids)))
        for child in reversed(kids) if right_to_left else kids:
            steps.append(Finalize(child, tree.aggregated_dim(child)))
            evaluate(child)
        if node != root:
            steps.append(WriteBack(node, discard=node not in wanted))

    evaluate(root)
    return steps


class AggregationTree:
    """Aggregation tree over ``n`` dimensions.

    The tree is *parameterized by the ordering of dimensions* only through
    the meaning of the indices: index 0 is the first dimension of the
    ordering.  Use :mod:`repro.core.ordering` to map arbitrary physical
    dimensions onto the canonical order first.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one dimension")
        self.n = n

    @property
    def root(self) -> Node:
        return full_node(self.n)

    def nodes(self) -> list[Node]:
        return all_nodes(self.n)

    # -- structure ---------------------------------------------------------------

    def children(self, node: Sequence[int]) -> list[Node]:
        """Children, ordered left to right (ascending dropped dimension)."""
        node = tuple(node)
        comp = node_complement(node, self.n)
        start = (comp[-1] + 1) if comp else 0
        kids = []
        for j in range(start, self.n):
            # Every j > max(complement) is necessarily in node.
            kids.append(tuple(d for d in node if d != j))
        return kids

    def parent(self, node: Sequence[int]) -> Node:
        """Parent of a non-root node: add back max(complement(node))."""
        node = tuple(node)
        comp = node_complement(node, self.n)
        if not comp:
            raise ValueError("the root has no parent")
        j = comp[-1]
        return tuple(sorted(node + (j,)))

    def aggregated_dim(self, node: Sequence[int]) -> int:
        """Dimension aggregated away when computing ``node`` from its parent."""
        comp = node_complement(tuple(node), self.n)
        if not comp:
            raise ValueError("the root is not computed by aggregation")
        return comp[-1]

    def iter_edges(self) -> Iterator[tuple[Node, Node]]:
        """All (parent, child) edges, parents in preorder."""
        for node in self.preorder():
            for kid in self.children(node):
                yield (node, kid)

    def preorder(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children(node)))

    def schedule(self) -> list[ScheduleStep]:
        """The right-to-left schedule of this tree (:func:`tree_schedule`)."""
        return tree_schedule(self)

    # -- conversions ------------------------------------------------------------------

    def parent_map(self) -> dict[Node, Node]:
        """node -> parent for every non-root node (spanning-tree view)."""
        return {node: self.parent(node) for node in self.nodes() if len(node) < self.n}

    def to_networkx(self) -> Any:
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.nodes())
        g.add_edges_from(self.iter_edges())
        return g


# -- the schedule on a processor grid: resolved once per build ---------------------
#
# The one place that derives per-rank facts from ``(schedule, grid, shape)``.
# The rank programs, the output arena and ``assemble_results`` read the
# results and never ask the grid or the partition per step; the per-step
# predicates (``ProcessorGrid.holds_node``, ``BlockPartition.project``)
# remain the reference the tests compare against.

#: One entry of a rank's resolved list: the step's index in the *shared*
#: list (indices are message tags, so they are never renumbered), the step,
#: and the rank's reduction group along a ``Finalize``'s dimension (``()``
#: for the other steps).
RankStep = tuple[int, ScheduleStep, tuple[int, ...]]


def targets_key(
    targets: Iterable[Sequence[int]] | None,
) -> tuple[Node, ...] | None:
    """``targets`` as the hashable, order-free value the memos are keyed by."""
    return None if targets is None else tuple(sorted(tuple(t) for t in targets))


def rank_steps(
    schedule: Sequence[ScheduleStep], grid: ProcessorGrid
) -> tuple[tuple[RankStep, ...], ...]:
    """Per rank, the entries of ``schedule`` the rank takes part in.

    A rank computes from, reduces into and retires only nodes it holds: it
    is a lead along every dimension missing from the node.  A ``Finalize``
    involves the holders of the child's *parent* and carries the rank's
    reduction group along ``dim``, lead first; where ``dim`` is not
    partitioned the group has one member, the partial is already final,
    and the entry is dropped.
    """
    ranks = grid.ranks()
    # Holding a node == every dimension with a non-zero label is in it.
    off_lead = [
        frozenset(d for d, c in enumerate(grid.label(r)) if c) for r in ranks
    ]
    groups = {
        (r, d): tuple(grid.reduction_group(r, d))
        for r in ranks
        for d in range(grid.ndim)
        if grid.parts[d] > 1
    }
    out: list[list[RankStep]] = [[] for _ in ranks]
    for idx, step in enumerate(schedule):
        if isinstance(step, Finalize):
            if grid.parts[step.dim] == 1:
                continue
            dims = frozenset(step.child) | {step.dim}
            for r in ranks:
                if off_lead[r] <= dims:
                    out[r].append((idx, step, groups[r, step.dim]))
        else:
            dims = frozenset(step.node)
            for r in ranks:
                if off_lead[r] <= dims:
                    out[r].append((idx, step, ()))
    return tuple(tuple(steps) for steps in out)


@lru_cache(maxsize=64)
def rank_slices(
    bits: tuple[int, ...], shape: tuple[int, ...]
) -> tuple[tuple[slice, ...], ...]:
    """Per rank, the slice of every dimension that the rank's block covers.

    ``tuple(rank_slices(bits, shape)[rank][d] for d in node)`` is the
    rank's portion of cube node ``node`` within the node's global array
    (the full tuple is its block of the initial array).
    """
    grid = ProcessorGrid(bits)
    partition = BlockPartition(shape, grid.parts)
    return tuple(partition.slices(grid.label(r)) for r in grid.ranks())


# Warm-pool rebuilds (``CubeService.refresh_with``, every ``apply_delta``)
# walk the same default tree again and again, so what follows from it is
# memoised by value; a caller-supplied tree is linearized per build.


@lru_cache(maxsize=64)
def default_schedule(
    n: int, targets: tuple[Node, ...] | None = None
) -> tuple[ScheduleStep, ...]:
    """:func:`tree_schedule` of the aggregation tree (``targets``: a
    :func:`targets_key`)."""
    return tuple(tree_schedule(AggregationTree(n), targets))


@lru_cache(maxsize=64)
def default_rank_steps(
    n: int, targets: tuple[Node, ...] | None, bits: tuple[int, ...]
) -> tuple[tuple[RankStep, ...], ...]:
    """:func:`rank_steps` of :func:`default_schedule` on ``ProcessorGrid(bits)``."""
    return rank_steps(default_schedule(n, targets), ProcessorGrid(bits))
