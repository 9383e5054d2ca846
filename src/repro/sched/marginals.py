"""Order-``k`` marginals scheduler (arXiv:1509.08855).

Afrati, Sharma & Ullman study computing only the *marginals* of a data
cube -- the group-bys that keep exactly ``k`` dimensions -- a common
production ask (e.g. all pairwise views of a wide fact table).
:class:`MarginalsScheduler` prunes the lattice to the order-``k`` nodes
before planning and composes with either base strategy:

``marginals-<k>`` (Fig 5 base)
    Fig 5 with a target set (``Fig5Scheduler(targets=...)``): the schedule
    is restricted to the targets' ancestral closure; ancestors above order
    ``k`` are computed, used as stepping stones, and discarded without a
    disk write.  Volume is the Lemma-1 sum over the pruned tree, memory
    stays within the Theorem 1/4 bound.

``marginals-<k>-shuffle`` (shuffle base)
    The batch-shuffle program with its target set restricted to the
    order-``k`` nodes -- no intermediate ancestors exist at all, so the
    map phase emits exactly ``C(n, k)`` partials per rank.

Both spellings parse through :func:`~repro.sched.registry.get_scheduler`
(``get_scheduler("marginals-2")``); ``k`` must satisfy ``0 <= k < n`` for
the shape being planned, checked at construction time.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node
from repro.sched.base import ProgramFactory, Scheduler
from repro.sched.fig5 import Fig5Scheduler
from repro.sched.shuffle import ShuffleScheduler

if TYPE_CHECKING:
    from repro.exec.shm import OutputArena

_BASES = ("fig5", "shuffle")


def order_k_nodes(n: int, k: int) -> tuple[Node, ...]:
    """All ``C(n, k)`` group-bys of exactly ``k`` dimensions, ascending."""
    if not 0 <= k < n:
        raise ValueError(f"order-{k} marginals need 0 <= k < n_dims ({n})")
    return tuple(combinations(range(n), k))


class MarginalsScheduler(Scheduler):
    """Materialize only the order-``k`` group-bys, via Fig 5 or shuffle."""

    name = "marginals"
    description = (
        "only the order-k group-bys (arXiv:1509.08855), fig5 or shuffle planning"
    )

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

    def _delegate(self, shape: Sequence[int]) -> Scheduler:
        """The base scheduler restricted to the order-``k`` targets."""
        self.validate_shape(shape)
        targets = self.target_nodes(len(shape))
        if self.base == "shuffle":
            return ShuffleScheduler(targets=targets)
        return Fig5Scheduler(targets=targets)

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
        outputs: OutputArena | None = None,
    ) -> ProgramFactory:
        """The base scheduler's program over the order-``k`` targets."""
        return self._delegate(shape).rank_program(
            shape,
            bits,
            grid,
            local_inputs,
            reduction=reduction,
            measure=measure,
            max_message_elements=max_message_elements,
            outputs=outputs,
        )

    def declared_volume(self, shape: Sequence[int], bits: Sequence[int]) -> int:
        """Lemma-1 sum over the pruned tree, or the shuffle closed form."""
        return self._delegate(shape).declared_volume(shape, bits)

    def declared_memory_bound(
        self, shape: Sequence[int], bits: Sequence[int]
    ) -> int:
        """Theorem 1/4 bound (Fig 5 base) or the restricted map-phase peak."""
        return self._delegate(shape).declared_memory_bound(shape, bits)

    def validate_options(
        self,
        *,
        reduction: str = "flat",
        checkpoint: bool = False,
        max_message_elements: int | None = None,
    ) -> None:
        """As the base class, except that chunked messages ride the Fig 5
        reduction path and so are allowed on the fig5 base."""
        super().validate_options(
            reduction=reduction,
            checkpoint=checkpoint,
            max_message_elements=(
                None if self.base == "fig5" else max_message_elements
            ),
        )
