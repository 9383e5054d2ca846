"""MapReduce-style batch-shuffle scheduler (arXiv:1709.10072).

Sundararajan & Yan materialize the cube the MapReduce way: a *map* phase in
which every worker scans its input block once and emits a partial aggregate
for **every** target group-by at the same time, followed by a *shuffle +
reduce* phase in which each group-by's partials are combined onto the
worker that owns it.  Expressed over this repo's rank-program substrate:

1. Map: each rank aggregates its block into one partial per target node
   (a single batched sparse scan, exactly like the Fig 5 first level but
   for all ``2**n - 1`` targets instead of the root's ``n`` children).
2. Shuffle/reduce: per target ``T``, the partials are reduced along each
   dimension missing from ``T`` in descending dimension order, reusing the
   same flat/binomial reduction collectives as Fig 5; after the last round
   the Fig-5 *holders* of ``T`` (leads along every missing dimension) own
   the finalized portions, so results assemble identically.

The price of skipping the aggregation tree is paid twice, and the
comparison harness measures both:

- **volume**: every target is reduced from ``q_T = prod_{d not in T}
  2^bits[d]`` first-level partials, so the exact total is
  ``sum_T (q_T - 1) * |T|`` elements (:func:`shuffle_comm_volume`) -- the
  tree reuse that makes Fig 5 meet the Theorem 3 lower bound is gone;
- **memory**: the map phase holds one partial per target simultaneously,
  so the per-rank peak is ``sum_T portion_T`` instead of the Theorem 4
  bound.

Both closed forms are *declared* by the scheduler and checked against the
recorded program by ``verify_plan`` (and against the simulator's measured
volume by the tests), mirroring how Fig 5 is held to Theorem 3/4.

The scheduler optionally takes an explicit target set -- that is how
``marginals-<k>-shuffle`` reuses it: computing only the order-``k``
group-bys needs **no intermediate ancestors at all** under this strategy,
where the pruned Fig 5 tree must still materialize them as stepping
stones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable, Sequence

from repro.arrays.chunking import grid_block_lengths, portion_elements
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.collectives import reduce_binomial, reduce_to_lead
from repro.cluster.runtime import Op, RankEnv
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node, all_nodes, node_size
from repro.sched.base import (
    ProgramFactory,
    Scheduler,
    make_combiner,
    scan_block,
)
from repro.util import node_name

if TYPE_CHECKING:
    from repro.exec.shm import OutputArena


def shuffle_targets(n: int) -> tuple[Node, ...]:
    """All proper group-bys in shuffle program order.

    Descending order (widest group-bys first), lexicographic within an
    order -- the same node sequence :func:`repro.core.lattice.all_nodes`
    yields, minus the root.
    """
    return tuple(node for node in all_nodes(n) if len(node) < n)


def shuffle_comm_volume(
    shape: Sequence[int],
    bits: Sequence[int],
    targets: Iterable[Node] | None = None,
) -> int:
    """Exact shuffle volume: ``sum_T (q_T - 1) * |T|`` elements.

    ``q_T`` is the number of first-level partials produced for target
    ``T`` -- one per rank -- divided by the number of holders, i.e.
    ``prod_{d not in T} 2^bits[d]``.  Each multi-round reduction of a
    group of ``q`` portions ships ``q - 1`` portion-sized payloads, and
    the portions of one holder tile ``T`` exactly, so the sum telescopes
    to the closed form *regardless of uneven block splits*.
    """
    shape = tuple(shape)
    bits = tuple(bits)
    n = len(shape)
    if targets is None:
        targets = shuffle_targets(n)
    total = 0
    for t in targets:
        q = 1
        in_t = set(t)
        for d in range(n):
            if d not in in_t:
                q *= 2 ** bits[d]
        total += (q - 1) * node_size(t, shape)
    return total


class ShuffleScheduler(Scheduler):
    """Batch-shuffle materialization: one map pass, per-target reductions."""

    name = "shuffle"
    description = "MapReduce-style batch-shuffle materialization (arXiv:1709.10072)"

    def __init__(self, targets: Iterable[Node] | None = None) -> None:
        self._targets = (
            None if targets is None else tuple(tuple(t) for t in targets)
        )

    def target_nodes(self, n: int) -> tuple[Node, ...]:
        """Explicit targets if restricted, else every proper group-by."""
        if self._targets is not None:
            return self._targets
        return shuffle_targets(n)

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
        outputs: OutputArena | None = None,
    ) -> ProgramFactory:
        """Map + shuffle/reduce as a portable generator program.

        Runs unchanged on every backend -- the program only uses the shared
        op vocabulary and the existing reduction collectives.  Results
        return in-band (process workers stage them after the program;
        on threads the host assembles them), so ``outputs`` is unused.
        """
        if max_message_elements is not None:
            raise ValueError(
                "the shuffle scheduler ships whole partials; "
                "max_message_elements is a 'fig5' option"
            )
        n = len(shape)
        targets = self.target_nodes(n)
        reduce_fn = {"flat": reduce_to_lead, "binomial": reduce_binomial}[
            reduction
        ]
        combine = make_combiner(measure)
        inputs = list(local_inputs)

        def program(
            env: RankEnv,
        ) -> Generator[Op, Any, dict[Node, DenseArray]]:
            rank = env.rank
            block = inputs[rank]
            tr = env.tracer
            traced = tr.enabled

            t0 = tr.clock() if traced else 0.0
            yield env.disk_read(block.nbytes)
            if traced:
                t0 = tr.end_span(
                    "build.input_read", t0, attrs={"nbytes": block.nbytes}
                )

            # Map: one batched scan emits every target's partial at once.
            local: dict[Node, DenseArray] = {}
            outs, ops, sparse = scan_block(block, targets, measure)
            yield env.compute(ops, sparse=sparse)
            for t, out in zip(targets, outs):
                local[t] = out
                env.alloc(t, out.size)
            if traced:
                t0 = tr.end_span(
                    "build.map", t0, attrs={"targets": len(targets)}
                )

            # Shuffle/reduce: per target, combine along each missing
            # dimension (descending, like Fig 5's right-to-left order).
            # The step counter advances identically on every rank -- also
            # through no-op rounds -- so message tags always agree.
            written: dict[Node, DenseArray] = {}
            step = 0
            for t in targets:
                in_t = set(t)
                missing = [d for d in range(n) if d not in in_t]
                mine = True
                for d in reversed(missing):
                    step += 1
                    if grid.parts[d] == 1 or not mine:
                        continue
                    group = grid.reduction_group(rank, d)
                    partial = local[t]
                    final = yield from reduce_fn(
                        env,
                        group,
                        partial,
                        tag=step,
                        combine=combine,
                        element_ops=partial.size,
                    )
                    if final is None:
                        # Non-lead: the partial was shipped away.
                        del local[t]
                        env.free(t)
                        mine = False
                    else:
                        local[t] = final
                if traced:
                    t0 = tr.end_span(
                        "build.shuffle_reduce",
                        t0,
                        attrs={"node": node_name(t), "holder": mine},
                    )
                if mine:
                    out = local.pop(t)
                    env.free(t)
                    yield env.disk_write(out.nbytes)
                    if traced:
                        t0 = tr.end_span(
                            "build.writeback", t0, attrs={"node": node_name(t)}
                        )
                    written[t] = out

            if local:
                raise AssertionError(
                    f"rank {rank} finished with nodes still in memory: "
                    f"{sorted(local)}"
                )
            return written

        return program

    # -- declared invariants ------------------------------------------------

    def declared_volume(self, shape: Sequence[int], bits: Sequence[int]) -> int:
        """The exact closed form ``sum_T (q_T - 1) * |T|``."""
        return shuffle_comm_volume(shape, bits, self.target_nodes(len(shape)))

    def declared_memory_bound(
        self, shape: Sequence[int], bits: Sequence[int]
    ) -> int:
        """Map-phase peak: the worst rank's sum of all target portions."""
        shape = tuple(shape)
        bits = tuple(bits)
        grid = ProcessorGrid(bits)
        lengths = grid_block_lengths(shape, grid.parts)
        targets = self.target_nodes(len(shape))
        return max(
            sum(
                portion_elements(t, grid.label(r), lengths) for t in targets
            )
            for r in range(grid.size)
        )
