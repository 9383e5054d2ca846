"""Order-``k`` marginals scheduler (arXiv:1509.08855).

Afrati, Sharma & Ullman study computing only the *marginals* of a data
cube -- the group-bys that keep exactly ``k`` dimensions -- a common
production ask (e.g. all pairwise views of a wide fact table).
:class:`MarginalsScheduler` prunes the lattice to the order-``k`` nodes
before planning and composes with either base strategy:

``marginals-<k>`` (Fig 5 base)
    The Fig 5 schedule restricted to the targets' ancestral closure
    (:func:`pruned_schedule`); ancestors above order ``k`` are computed,
    used as stepping stones, and discarded without a disk write.  Volume
    is the Lemma-1 sum over the pruned tree
    (:func:`repro.core.partial.partial_comm_volume`), memory stays within
    the Theorem 1/4 bound.

``marginals-<k>-shuffle`` (shuffle base)
    The batch-shuffle program with its target set restricted to the
    order-``k`` nodes -- no intermediate ancestors exist at all, so the
    map phase emits exactly ``C(n, k)`` partials per rank.

Both spellings parse through the registry
(``get_scheduler("marginals-2")``); ``k`` must satisfy ``0 <= k < n`` for
the shape being planned, checked at construction time.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import AggregationTree
from repro.core.lattice import Node, full_node
from repro.core.memory_model import parallel_memory_bound_exact
from repro.core.partial import (
    _check_targets,
    partial_comm_volume,
    required_closure,
)
from repro.sched.base import ProgramFactory, Scheduler
from repro.sched.fig5 import make_fig5_program
from repro.sched.shuffle import ShuffleScheduler, shuffle_comm_volume
from repro.sched.steps import PFinalize, PLocalAggregate, PStep, PWriteBack

_BASES = ("fig5", "shuffle")


def order_k_nodes(n: int, k: int) -> tuple[Node, ...]:
    """All ``C(n, k)`` group-bys of exactly ``k`` dimensions, ascending."""
    if not 0 <= k < n:
        raise ValueError(f"order-{k} marginals need 0 <= k < n_dims ({n})")
    return tuple(combinations(range(n), k))


def pruned_schedule(n: int, targets: Iterable[Sequence[int]]) -> list[PStep]:
    """The Fig 5 schedule restricted to the targets' ancestral closure.

    Nodes in the closure but not targeted are computed, used, and then
    discarded (freed without a disk write).
    """
    targets_set = _check_targets(targets, n)
    needed = required_closure(targets_set, n)
    tree = AggregationTree(n)
    root = full_node(n)
    steps: list[PStep] = []

    def evaluate(node: Node) -> None:
        kids = [k for k in tree.children(node) if k in needed]
        if kids:
            steps.append(PLocalAggregate(node, tuple(kids)))
        for child in reversed(kids):
            steps.append(PFinalize(child, tree.aggregated_dim(child)))
            child_kids = [k for k in tree.children(child) if k in needed]
            if not child_kids:
                steps.append(PWriteBack(child, discard=child not in targets_set))
            else:
                evaluate(child)
        if node != root:
            steps.append(PWriteBack(node, discard=node not in targets_set))

    evaluate(root)
    return steps


class MarginalsScheduler(Scheduler):
    """Materialize only the order-``k`` group-bys, via Fig 5 or shuffle."""

    name = "marginals"

    def __init__(self, k: int, base: str = "fig5") -> None:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"marginals order k must be a non-negative int, got {k!r}")
        if base not in _BASES:
            raise ValueError(
                f"unknown marginals base {base!r}; available: "
                f"{', '.join(_BASES)}"
            )
        self.k = k
        self.base = base

    @property
    def spec(self) -> str:
        """``marginals-<k>`` or ``marginals-<k>-shuffle``."""
        suffix = "-shuffle" if self.base == "shuffle" else ""
        return f"marginals-{self.k}{suffix}"

    def validate_shape(self, shape: Sequence[int]) -> None:
        """``k`` must leave at least one dimension aggregated: k < n."""
        n = len(shape)
        if self.k >= n:
            raise ValueError(
                f"scheduler {self.spec!r} materializes order-{self.k} "
                f"group-bys, but the shape has only {n} dimension(s); "
                f"k must satisfy 0 <= k < n_dims"
            )

    def target_nodes(self, n: int) -> tuple[Node, ...]:
        """The ``C(n, k)`` order-``k`` nodes."""
        return order_k_nodes(n, self.k)

    def _shuffle(self, n: int) -> ShuffleScheduler:
        return ShuffleScheduler(targets=self.target_nodes(n))

    # -- the rank program ---------------------------------------------------

    def rank_program(
        self,
        shape: tuple[int, ...],
        bits: tuple[int, ...],
        grid: ProcessorGrid,
        local_inputs: Sequence[SparseArray | DenseArray],
        *,
        reduction: str = "flat",
        measure: Measure = SUM,
        max_message_elements: int | None = None,
    ) -> ProgramFactory:
        """Pruned Fig 5 program, or the target-restricted shuffle program."""
        n = len(shape)
        self.validate_shape(shape)
        if self.base == "shuffle":
            return self._shuffle(n).rank_program(
                shape,
                bits,
                grid,
                local_inputs,
                reduction=reduction,
                measure=measure,
                max_message_elements=max_message_elements,
            )
        return make_fig5_program(
            pruned_schedule(n, self.target_nodes(n)),
            grid,
            list(local_inputs),
            n,
            reduction,
            measure,
            max_message_elements,
        )

    # -- declared invariants ------------------------------------------------

    def declared_volume(self, shape: Sequence[int], bits: Sequence[int]) -> int:
        """Lemma-1 sum over the pruned tree, or the shuffle closed form."""
        n = len(shape)
        self.validate_shape(shape)
        if self.base == "shuffle":
            return shuffle_comm_volume(shape, bits, self.target_nodes(n))
        return partial_comm_volume(shape, bits, self.target_nodes(n))

    def declared_memory_bound(
        self, shape: Sequence[int], bits: Sequence[int]
    ) -> int:
        """Theorem 1/4 bound (Fig 5 base) or the restricted map-phase peak."""
        self.validate_shape(shape)
        if self.base == "shuffle":
            return self._shuffle(len(shape)).declared_memory_bound(shape, bits)
        return parallel_memory_bound_exact(shape, bits)

    # -- option validation --------------------------------------------------

    def validate_options(
        self,
        *,
        reduction: str = "flat",
        checkpoint: bool = False,
        max_message_elements: int | None = None,
        tree: object | None = None,
        schedule: object | None = None,
    ) -> None:
        """Fig-5-base marginals allow chunked messages; shuffle base does not."""
        if checkpoint:
            raise ValueError(
                f"checkpointed construction is a 'fig5'-scheduler feature "
                f"(its program emits the checkpoint/detection/recovery "
                f"rounds); scheduler {self.spec!r} cannot honor "
                f"checkpoint=True. Use scheduler='fig5' or drop checkpoint"
            )
        if tree is not None or schedule is not None:
            raise ValueError(
                f"explicit tree/schedule overrides apply to the 'fig5' "
                f"scheduler only; scheduler {self.spec!r} plans its own "
                f"pruned schedule. Use scheduler='fig5' or drop the override"
            )
        if max_message_elements is not None and self.base == "shuffle":
            raise ValueError(
                f"max_message_elements (chunked reduction messages) needs "
                f"the Fig 5 reduction path; scheduler {self.spec!r} ships "
                f"whole partials. Use 'marginals-{self.k}' or drop "
                f"max_message_elements"
            )
        if reduction not in ("flat", "binomial"):
            raise ValueError(f"unknown reduction {reduction!r}")

    def describe(self) -> str:
        """Summary line for ``repro-cube sched list``."""
        via = (
            "batch shuffle, no intermediate ancestors"
            if self.base == "shuffle"
            else "pruned Fig 5 tree, ancestors discarded"
        )
        return (
            f"only the order-{self.k} group-bys (arXiv:1509.08855) via {via}"
        )
