"""End-to-end planning: ordering + partitioning + tree for arbitrary inputs.

The core algorithms assume dimensions already sorted by the canonical
(non-increasing) ordering.  :func:`plan_cube` takes an arbitrary shape and a
processor count, picks the optimal ordering (Theorems 6/7) and partition
(Theorem 8), and returns a :class:`CubePlan` that can transpose data into
plan order, run either constructor, and translate node keys back to the
caller's original dimension numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM
from repro.arrays.sparse import SparseArray
from repro.core.lattice import Node
from repro.core.memory_model import sequential_memory_bound
from repro.core.ordering import apply_order, canonical_order, invert_order
from repro.core.partition import describe_partition, greedy_partition

if TYPE_CHECKING:
    from repro.core.config import BuildConfig
    from repro.core.parallel import ParallelResult
    from repro.core.sequential import SequentialResult
    from repro.sched.base import Scheduler


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _fig5() -> Scheduler:
    # Imported lazily: repro.sched sits above repro.core.
    from repro.sched import Fig5Scheduler

    return Fig5Scheduler()


@dataclass(frozen=True)
class CubePlan:
    """A complete construction plan.

    Attributes
    ----------
    original_shape:
        Shape in the caller's dimension order.
    order:
        Permutation mapping plan position -> original dimension.
    ordered_shape:
        ``original_shape`` permuted into plan order (non-increasing).
    bits:
        Bits of partitioning per plan position (Theorem 8 optimum).
    sched:
        The construction scheduler this plan was made for (a
        :class:`~repro.sched.fig5.Fig5Scheduler` by default; see
        :mod:`repro.sched`).  ``run_parallel`` uses it unless overridden,
        and the volume/memory properties report its declared forms.
    """

    original_shape: tuple[int, ...]
    order: tuple[int, ...]
    ordered_shape: tuple[int, ...]
    bits: tuple[int, ...]
    sched: Scheduler = field(default_factory=_fig5)

    @property
    def scheduler(self) -> str:
        """The spec of :attr:`sched` (``"fig5"``, ``"marginals-2"``, ...)."""
        return self.sched.spec

    @property
    def n(self) -> int:
        return len(self.original_shape)

    @property
    def num_processors(self) -> int:
        return 2 ** sum(self.bits)

    @property
    def comm_volume_elements(self) -> int:
        return self.sched.declared_volume(self.ordered_shape, self.bits)

    @property
    def sequential_memory_bound_elements(self) -> int:
        return sequential_memory_bound(self.ordered_shape)

    @property
    def parallel_memory_bound_elements(self) -> int:
        return self.sched.declared_memory_bound(self.ordered_shape, self.bits)

    @property
    def target_nodes(self) -> list[Node] | None:
        """What the plan's scheduler materializes, in original dimensions.

        ``None`` is the full cube; a list restricts it (``marginals-<k>``).
        """
        targets = self.sched.target_nodes(self.n)
        if targets is None:
            return None
        return [self.to_original_node(t) for t in targets]

    # -- node translation ---------------------------------------------------------

    def to_original_node(self, node: Sequence[int]) -> Node:
        """Plan-order node -> original-dimension node."""
        return tuple(sorted(self.order[pos] for pos in node))

    def to_plan_node(self, node: Sequence[int]) -> Node:
        """Original-dimension node -> plan-order node."""
        inv = invert_order(self.order)
        return tuple(sorted(inv[d] for d in node))

    # -- data translation ----------------------------------------------------------

    def transpose_input(
        self, array: SparseArray | DenseArray | np.ndarray
    ) -> SparseArray | DenseArray:
        """Permute the initial array's axes into plan order.

        Sparse input is never re-encoded: when the plan order is the
        identity the input itself is returned, and otherwise
        :meth:`SparseArray.transpose` re-bases each chunk's offsets, so the
        chunk grid is preserved under the permutation.
        """
        if isinstance(array, SparseArray):
            if array.shape != self.original_shape:
                raise ValueError(
                    f"array shape {array.shape} != plan shape {self.original_shape}"
                )
            return array.transpose(self.order)
        data = array.data if isinstance(array, DenseArray) else np.asarray(array)
        if data.shape != self.original_shape:
            raise ValueError(
                f"array shape {data.shape} != plan shape {self.original_shape}"
            )
        return DenseArray.full_cube_input(
            np.ascontiguousarray(np.transpose(data, self.order))
        )

    def translate_results(
        self, results: Mapping[Node, DenseArray]
    ) -> dict[Node, DenseArray]:
        """Re-key plan-order results by original dimensions and reorder axes.

        Result arrays keep axes sorted by *original* dimension index.
        """
        out: dict[Node, DenseArray] = {}
        for node, arr in results.items():
            orig_dims_unsorted = [self.order[pos] for pos in node]
            perm = sorted(range(len(node)), key=lambda i: orig_dims_unsorted[i])
            new_dims = tuple(orig_dims_unsorted[i] for i in perm)
            if node:
                data = np.ascontiguousarray(np.transpose(arr.data, perm))
            else:
                data = arr.data.reshape(())
            out[new_dims] = DenseArray(data, new_dims)
        return out

    # -- execution ------------------------------------------------------------------

    def run_sequential(
        self,
        array: SparseArray | DenseArray | np.ndarray,
        measure: Measure | str = SUM,
        targets: Iterable[Sequence[int]] | None = None,
    ) -> SequentialResult:
        """Construct the cube sequentially; results keyed by original dims.

        ``targets`` (original-dimension nodes) materializes only those.
        """
        from repro.core.sequential import construct_cube_sequential

        if targets is not None:
            targets = [self.to_plan_node(t) for t in targets]
        result = construct_cube_sequential(
            self.transpose_input(array), measure=measure, targets=targets
        )
        result.results = self.translate_results(result.results)
        return result

    def run_parallel(
        self,
        array: SparseArray | DenseArray | np.ndarray,
        config: BuildConfig | None = None,
        **options: Any,
    ) -> ParallelResult:
        """Construct the cube on an execution backend; results re-keyed.

        ``config`` and the keyword ``options`` pass straight through to
        :func:`~repro.core.parallel.construct_cube_parallel` (any
        :class:`~repro.core.config.BuildConfig` field; keywords override
        the config).  Unless a ``scheduler`` keyword is passed, the plan's
        own scheduler applies.
        """
        from repro.core.parallel import construct_cube_parallel

        options.setdefault("scheduler", self.sched)
        result = construct_cube_parallel(
            self.transpose_input(array), self.bits, config, **options
        )
        if result.results is not None:
            result.results = self.translate_results(result.results)
        return result

    def describe(self) -> str:
        sched = "" if self.scheduler == "fig5" else f" scheduler={self.scheduler}"
        return (
            f"CubePlan: shape={self.original_shape} order={self.order} "
            f"ordered={self.ordered_shape} partition={describe_partition(self.bits)} "
            f"p={self.num_processors} comm={self.comm_volume_elements} elements"
            f"{sched}"
        )


def plan_cube(
    shape: Sequence[int],
    num_processors: int = 1,
    scheduler: object = "fig5",
) -> CubePlan:
    """Pick the optimal ordering and partition for ``shape`` on ``p`` procs.

    ``num_processors`` must be a power of two (paper assumption).
    ``scheduler`` is a spec or :class:`~repro.sched.base.Scheduler`
    instance; it is validated against the shape here (e.g.
    ``marginals-<k>`` needs ``k < n_dims``) and kept on the plan as
    :attr:`CubePlan.sched`.
    """
    shape = tuple(shape)
    if not shape:
        raise ValueError("need at least one dimension")
    if not _is_power_of_two(num_processors):
        raise ValueError(f"num_processors must be a power of two, got {num_processors}")
    # Imported lazily: repro.sched sits above repro.core.
    from repro.sched import resolve_scheduler

    sched_obj = resolve_scheduler(scheduler)
    sched_obj.validate_shape(shape)
    order = canonical_order(shape)
    ordered = apply_order(shape, order)
    k = num_processors.bit_length() - 1
    bits = greedy_partition(ordered, k)
    return CubePlan(
        original_shape=shape,
        order=order,
        ordered_shape=ordered,
        bits=bits,
        sched=sched_obj,
    )
