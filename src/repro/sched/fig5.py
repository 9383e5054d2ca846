"""The paper's Fig 5 scheduler (communication and memory optimal).

The algorithm runs on ``p = 2**k`` processors arranged by
:class:`repro.cluster.topology.ProcessorGrid`: dimension ``j`` is block
partitioned across ``2**bits[j]`` of them.  Mirroring the paper:

1. Every processor locally aggregates its portion of a node's array into
   partial results for *all* the node's aggregation-tree children at once
   (maximal cache/memory reuse; for the root this is one scan of the sparse
   input block).
2. Each child is then *finalized* right-to-left: the ``2**bits[j]``
   processors of each reduction group along the aggregated dimension ``j``
   combine their partials onto the group's lead (label ``l_j == 0``), which
   thereafter holds the child's portion.  Non-leads discard their partials.
3. Recursion proceeds exactly as in the sequential Fig 3 schedule; deeper
   levels run only on the (shrinking) holder sets -- the paper's point that
   the dominant first level is fully parallel while deeper levels
   sequentialize some processors.
4. A node is written back (simulated disk) by its holders exactly once.

The schedule itself is not written here:
:func:`repro.core.aggregation_tree.tree_schedule` linearizes it (the same
list the sequential constructor walks), and this module interprets it.
:func:`make_fig5_program` is the generator rank program that walks the
step list, using each step's index as its message tag;
:class:`Fig5Scheduler` owns the tree and the targets the list is made from
-- the aggregation tree and the full cube by default, a pruned list for
partial materialization and ``marginals-<k>``, another spanning tree for
the baselines -- and declares the matching closed forms.  The program is
backend-portable: the simulator and the real thread/process backends
interpret the same generator, which is what makes aggregates bit-identical
across them (golden-pinned).

Fault tolerance (``checkpoint=True``,
:meth:`Fig5Scheduler.rank_program_ft`): every rank persists its
first-level partials to a
:class:`~repro.arrays.persist.CheckpointStore` right after the root scan,
then the cluster runs one failure-detection round (barrier + all-to-all
heartbeats with receive timeouts).  Each surviving rank derives the same
dead set and the same dead->buddy substitution map; a dead rank's
reduction-group buddy re-reads the lost partials from the checkpoint (or
re-aggregates them from the dead rank's input block if it died before
checkpointing) and executes the dead rank's remaining schedule alongside
its own.  The cube that comes out is bit-exact identical to the fault-free
run under any single-rank crash occurring before the detection round
completes.

The two programs share helpers, not a body: they differ in message tags
(``step_idx`` vs the virtual-sender ``vtag``), collectives
(flat/binomial/chunked vs an inline two-phase flat reduce), span
attributes, free-before-send vs send-before-free ordering, and output
staging -- a merged generator would branch on ``ft`` at every step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Sequence

from repro.arrays.aggregate import aggregate_dense
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.collectives import (
    reduce_binomial,
    reduce_to_lead,
    reduce_to_lead_chunked,
)
from repro.cluster.network import Control
from repro.cluster.runtime import Op, RankEnv, RECV_TIMEOUT
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import (
    AggregationTree,
    ComputeChildren,
    Finalize,
    RankStep,
    ScheduleStep,
    WriteBack,
    default_rank_steps,
    default_schedule,
    rank_steps,
    targets_key,
    tree_schedule,
)
from repro.core.comm_model import default_tree_comm_volume, tree_comm_volume
from repro.core.lattice import Node, full_node
from repro.core.memory_model import parallel_memory_bound_exact
from repro.exec.shm import OutputArena, StagedResult
from repro.sched.base import (
    ProgramFactory,
    Scheduler,
    make_combiner,
    scan_block,
)
from repro.util import node_name

if TYPE_CHECKING:
    from repro.arrays.persist import CheckpointStore


# -- the rank programs -------------------------------------------------------


def make_fig5_program(
    steps: Sequence[Sequence[RankStep]],
    local_inputs: list[SparseArray | DenseArray],
    n: int,
    reduction: str,
    measure: Measure = SUM,
    max_message_elements: int | None = None,
    outputs: OutputArena | None = None,
) -> Callable[[RankEnv], Generator[Op, Any, dict[Node, Any]]]:
    """Build the Fig 5 rank program over ``steps`` (the step-list IR,
    resolved per rank by :func:`~repro.core.aggregation_tree.rank_steps`).

    One generator per rank walking its share of the shared step list --
    the entries it holds a node of, each with its index in the shared
    list (the message tag) and its reduction group -- with the reduction
    collectives doing the communication.

    When ``outputs`` is an :class:`~repro.exec.shm.OutputArena`, each
    lead writes its finalized portion straight into the arena's
    global-shaped slot at write-back time and returns a lightweight
    :class:`~repro.exec.shm.StagedResult` marker instead of the array --
    the host collects the assembled node from the arena, so nothing
    is pickled back through result queues.  A portion the arena cannot
    take (dtype/shape mismatch) falls back to the normal in-band return.
    """
    reduce_fn = {"flat": reduce_to_lead, "binomial": reduce_binomial}[reduction]
    combine = make_combiner(measure)
    root = full_node(n)

    def program(env: RankEnv) -> Generator[Op, Any, dict[Node, Any]]:
        rank = env.rank
        block = local_inputs[rank]
        local: dict[Node, DenseArray] = {}
        written: dict[Node, Any] = {}
        # Spans use the explicit clock/end_span style: a generator suspends
        # at every yield, so a `with` block cannot bracket backend time.
        # `traced` is False on untraced runs and every tracer touch below is
        # guarded on it, keeping the untraced path free of obs work.
        # Phases chain: each span starts where the previous one ended
        # (`end_span` returns its end time), so on real-clock backends the
        # interpreter overhead and scheduler stalls between segments stay
        # attributed to a named phase; the simulated clock cannot advance
        # between spans, so chaining is exact there.
        tr = env.tracer
        traced = tr.enabled

        # Read the local portion of the initial array from disk.
        # `mark` announces the phase *now starting* so the live snapshot
        # bus can attribute in-flight time; `end_span` still records the
        # completed span.  Both are single attribute writes when traced,
        # nothing when not.
        t0 = tr.clock() if traced else 0.0
        if traced:
            tr.mark("build.input_read")
        yield env.disk_read(block.nbytes)
        if traced:
            t0 = tr.end_span(
                "build.input_read", t0, attrs={"nbytes": block.nbytes}
            )

        for step_idx, step, group in steps[rank]:
            if isinstance(step, ComputeChildren):
                if traced:
                    tr.mark(
                        "build.first_level" if step.node == root
                        else "build.local_aggregate"
                    )
                if step.node == root:
                    outs, ops, sparse = scan_block(block, step.children, measure)
                    yield env.compute(ops, sparse=sparse)
                else:
                    parent = local[step.node]
                    outs = [
                        aggregate_dense(parent, c, measure=measure.rollup)
                        for c in step.children
                    ]
                    yield env.compute(parent.size * len(step.children))
                for child, out in zip(step.children, outs):
                    local[child] = out
                    env.alloc(child, out.size)
                if traced:
                    t0 = tr.end_span(
                        "build.first_level" if step.node == root
                        else "build.local_aggregate",
                        t0,
                        attrs={
                            "node": node_name(step.node),
                            "children": len(step.children),
                        },
                    )
            elif isinstance(step, Finalize):
                if traced:
                    tr.mark("build.reduce")
                partial = local[step.child]
                if max_message_elements is not None:
                    final = yield from reduce_to_lead_chunked(
                        env,
                        group,
                        partial,
                        tag=step_idx,
                        max_message_elements=max_message_elements,
                        combine_flat=measure.combine,
                    )
                else:
                    final = yield from reduce_fn(
                        env,
                        group,
                        partial,
                        tag=step_idx,
                        combine=combine,
                        element_ops=partial.size,
                    )
                if traced:
                    t0 = tr.end_span(
                        "build.reduce",
                        t0,
                        attrs={
                            "child": node_name(step.child),
                            "dim": step.dim,
                            "lead": final is not None,
                        },
                    )
                if final is None:
                    # Non-lead: partial was shipped away.
                    del local[step.child]
                    env.free(step.child)
                else:
                    local[step.child] = final
            elif isinstance(step, WriteBack):
                out = local.pop(step.node)
                env.free(step.node)
                if not step.discard:
                    if traced:
                        tr.mark("build.writeback")
                    yield env.disk_write(out.nbytes)
                    staged = outputs is not None and outputs.stage(
                        rank, step.node, out.data
                    )
                    if traced:
                        t0 = tr.end_span(
                            "build.writeback", t0,
                            attrs={"node": node_name(step.node), "staged": staged},
                        )
                    if staged:
                        written[step.node] = StagedResult(step.node, out.nbytes)
                    else:
                        written[step.node] = out
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown step {step!r}")

        if local:
            raise AssertionError(
                f"rank {rank} finished with nodes still in memory: {sorted(local)}"
            )
        return written

    return program


#: Tag of the failure-detection heartbeats (data tags start at 2 * grid.size).
_HB_TAG = 1


def _buddy(grid: ProcessorGrid, dead: int, live: set[int]) -> int:
    """The surviving rank that adopts ``dead``'s role.

    The first live member of the dead rank's reduction group, scanning
    dimensions in order -- its closest peer in the topology, which is also
    the rank whose reduction work the dead rank would have fed.  Every
    survivor computes this identically from the (identical) dead set.
    """
    for dim in range(grid.ndim):
        if grid.parts[dim] == 1:
            continue
        for member in grid.reduction_group(dead, dim):
            if member != dead and member in live:
                return member
    live_others = live - {dead}
    if not live_others:
        raise ValueError("no surviving rank left to adopt the crashed rank")
    return min(live_others)


def _make_program_ft(
    steps: Sequence[Sequence[RankStep]],
    grid: ProcessorGrid,
    local_inputs: list[SparseArray | DenseArray],
    n: int,
    measure: Measure,
    store: CheckpointStore,
    recv_timeout: float | None,
) -> Callable[[RankEnv], Generator[Op, Any, dict[int, dict[Node, DenseArray]]]]:
    """Fault-tolerant variant of :func:`make_fig5_program` (flat reduction only).

    Differences from the paper's fragile program:

    1. first-level partials are checkpointed (real ``.npz`` files plus the
       simulated :class:`DiskWriteOp` charge);
    2. one detection round (barrier + all-to-all ``Control`` heartbeats with
       receive timeouts) gives every survivor the same dead set and the same
       dead->buddy map;
    3. the rest of the schedule runs over *virtual* ranks: each physical
       rank executes every virtual rank it embodies, recovering a dead
       rank's partials from the checkpoint store (or by re-aggregating its
       input block) and rerouting that rank's messages to itself.  Message
       tags encode the virtual sender, so adopted traffic can share a
       physical channel without breaking FIFO pairing.
    """
    combine = make_combiner(measure)
    root = full_node(n)
    num_v = grid.size
    # Every rank holds the root, so every resolved list starts with the
    # shared list's first step.
    root_step = steps[0][0][1] if steps[0] else None
    if not isinstance(root_step, ComputeChildren) or root_step.node != root:
        raise ValueError(
            "checkpointed construction requires a schedule that starts with "
            "the root local aggregation"
        )

    def vtag(step_idx: int, vsrc: int) -> int:
        return (step_idx + 2) * num_v + vsrc

    def program(env: RankEnv) -> Generator[Op, Any, dict[int, dict[Node, DenseArray]]]:
        me = env.rank
        # The detection window comes from the backend's timeout policy: the
        # simulator derives it from the cost model, a real-process backend
        # uses a wall-clock floor.  An explicit recv_timeout is still shaped
        # (scaled/floored) by the policy so simulator-tuned values stay safe
        # on real clocks.
        timeout = (
            env.timeouts.effective(recv_timeout)
            if recv_timeout is not None
            else env.timeouts.detection_timeout(env.machine)
        )
        block = local_inputs[me]
        vlocal: dict[int, dict[Node, DenseArray]] = {me: {}}
        written: dict[int, dict[Node, DenseArray]] = {me: {}}
        tr = env.tracer
        traced = tr.enabled

        # A respawned incarnation (supervised process backend) replays its
        # own committed checkpoint instead of redoing the first level; only
        # a committed epoch covering every child is trusted.
        restored = store.load_committed(me) if env.incarnation > 0 else None
        if restored is not None and any(
            c not in restored[1] for c in root_step.children
        ):
            restored = None

        # Phases chain (see the fault-free program): `end_span` returns its
        # end time, which seeds the next span's start.
        t0 = tr.clock() if traced else 0.0
        if restored is not None:
            ep, parts = restored
            for child in root_step.children:
                arr = parts[child]
                yield env.disk_read(arr.nbytes)
                vlocal[me][child] = arr
                env.alloc((me, child), arr.size)
            env.note_recovery(
                f"checkpoint epoch {ep}: rank {me} replayed first-level "
                f"partials after respawn"
            )
            if traced:
                t0 = tr.end_span(
                    "build.replay", t0,
                    attrs={"epoch": ep, "children": len(root_step.children)},
                )
        else:
            yield env.disk_read(block.nbytes)
            if traced:
                t0 = tr.end_span(
                    "build.input_read", t0, attrs={"nbytes": block.nbytes}
                )

            # 1. First-level local aggregation + checkpoint.
            outs, ops, sparse = scan_block(block, root_step.children, measure)
            yield env.compute(ops, sparse=sparse)
            for child, out in zip(root_step.children, outs):
                vlocal[me][child] = out
                env.alloc((me, child), out.size)
            if traced:
                t0 = tr.end_span(
                    "build.first_level", t0,
                    attrs={"node": node_name(root), "children": len(root_step.children)},
                )
            for child in root_step.children:
                arr = vlocal[me][child]
                store.save(me, child, arr)
                yield env.disk_write(arr.nbytes)
            # Commit makes the set restorable: a replaying reader trusts
            # only the manifest, never a bag of individually-atomic files.
            store.commit(me, root_step.children)
            if env.incarnation > 0:
                env.note_recovery(
                    f"rank {me} re-aggregated first-level partials from its "
                    f"input block after respawn (crash preceded the commit)"
                )
            if traced:
                t0 = tr.end_span(
                    "build.checkpoint", t0, attrs={"children": len(root_step.children)}
                )

        # 2. Failure detection: barrier, then all-to-all heartbeats.  The
        # barrier aligns clocks so a live peer's heartbeat always lands
        # within the window; a rank that died earlier never sends one.
        yield env.barrier()
        for dst in range(num_v):
            if dst != me:
                yield env.send(dst, Control("hb", (me,)), _HB_TAG)
        dead: list[int] = []
        for src in range(num_v):
            if src == me:
                continue
            beat = yield env.recv(src, _HB_TAG, timeout=timeout)
            if beat is RECV_TIMEOUT:
                dead.append(src)
        live = set(range(num_v)) - set(dead)
        pmap = {v: (v if v in live else _buddy(grid, v, live)) for v in range(num_v)}
        myv = sorted(v for v in range(num_v) if pmap[v] == me)
        if traced:
            t0 = tr.end_span("build.detect", t0, attrs={"dead": len(dead)})

        # 3. Adopt dead ranks: recover their first-level partials from the
        # checkpoint store, falling back to re-aggregating their input
        # block when they died before checkpointing.
        for d in myv:
            if d == me:
                continue
            vlocal[d] = {}
            written[d] = {}
            recovered = {c: store.load(d, c) for c in root_step.children}
            if all(arr is not None for arr in recovered.values()):
                for child, arr in recovered.items():
                    yield env.disk_read(arr.nbytes)
                    vlocal[d][child] = arr
                ep = store.committed_epoch(d) or 0
                env.note_recovery(
                    f"checkpoint epoch {ep}: re-read rank {d} partials "
                    f"from checkpoint"
                )
            else:
                dblock = local_inputs[d]
                yield env.disk_read(dblock.nbytes)
                douts, dops, dsparse = scan_block(dblock, root_step.children, measure)
                yield env.compute(dops, sparse=dsparse)
                for child, out in zip(root_step.children, douts):
                    vlocal[d][child] = out
                env.note_recovery(f"re-aggregated rank {d} partials from its block")
            for child in root_step.children:
                env.alloc((d, child), vlocal[d][child].size)
        if traced and len(myv) > 1:
            t0 = tr.end_span(
                "build.recover", t0, attrs={"adopted": len(myv) - 1}
            )

        # 4. The remaining schedule, executed per embodied virtual rank:
        # their resolved lists folded back into shared-list order, so each
        # step is visited once, with the embodied ranks that take part.
        inbox: dict[tuple[int, int, int], DenseArray] = {}
        todo: dict[int, tuple[ScheduleStep, list[tuple[int, tuple[int, ...]]]]] = {}
        for v in myv:
            for idx, vstep, vgroup in steps[v][1:]:
                todo.setdefault(idx, (vstep, []))[1].append((v, vgroup))
        for step_idx in sorted(todo):
            step, takers = todo[step_idx]
            if isinstance(step, ComputeChildren):
                for v, _ in takers:
                    parent = vlocal[v][step.node]
                    outs = [
                        aggregate_dense(parent, c, measure=measure.rollup)
                        for c in step.children
                    ]
                    yield env.compute(parent.size * len(step.children))
                    for child, out in zip(step.children, outs):
                        vlocal[v][child] = out
                        env.alloc((v, child), out.size)
                    if traced:
                        t0 = tr.end_span(
                            "build.local_aggregate", t0,
                            attrs={"node": node_name(step.node), "vrank": v},
                        )
            elif isinstance(step, Finalize):
                # Phase 1: every embodied non-lead ships its partial (a
                # local handoff when the lead lives on this physical rank).
                for v, group in takers:
                    if v == group[0]:
                        continue
                    payload = vlocal[v].pop(step.child)
                    env.free((v, step.child))
                    lead_p = pmap[group[0]]
                    if lead_p == me:
                        inbox[(v, group[0], step_idx)] = payload
                    else:
                        yield env.send(lead_p, payload, vtag(step_idx, v))
                # Phase 2: every embodied lead combines, in group order, so
                # the float accumulation order matches the fault-free run.
                for v, group in takers:
                    if v != group[0]:
                        continue
                    acc = vlocal[v][step.child]
                    for vsrc in group[1:]:
                        if pmap[vsrc] == me:
                            other = inbox.pop((vsrc, v, step_idx))
                        else:
                            other = yield env.recv(
                                pmap[vsrc], vtag(step_idx, vsrc)
                            )
                        yield env.compute(other.size)
                        combine(acc, other)
                if traced:
                    t0 = tr.end_span(
                        "build.reduce", t0,
                        attrs={"child": node_name(step.child), "dim": step.dim},
                    )
            elif isinstance(step, WriteBack):
                for v, _ in takers:
                    out = vlocal[v].pop(step.node)
                    env.free((v, step.node))
                    if not step.discard:
                        yield env.disk_write(out.nbytes)
                        if traced:
                            t0 = tr.end_span(
                                "build.writeback", t0,
                                attrs={"node": node_name(step.node), "vrank": v},
                            )
                        written[v][step.node] = out
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown step {step!r}")

        leftovers = {v: sorted(vlocal[v]) for v in myv if vlocal[v]}
        if leftovers:
            raise AssertionError(
                f"rank {me} finished with nodes still in memory: {leftovers}"
            )
        return written

    # Replayable from the checkpoint store: the supervised process backend
    # may respawn a crashed rank running this program (a plain program would
    # recompute sends its peers already consumed).
    setattr(program, "_restartable", True)
    return program


class Fig5Scheduler(Scheduler):
    """The paper's Fig 5 schedule: Theorem 3 volume, Theorem 4 memory.

    ``targets`` restricts materialization to those group-bys: the schedule
    is pruned to their ancestors, and ancestors that are not targets are
    discarded instead of written (partial materialization, the basis of
    ``marginals-<k>``).  ``tree`` replaces the aggregation tree with
    another spanning tree (the baselines of :mod:`repro.baselines.trees`).
    """

    name = "fig5"
    description = "the paper's Fig 5 SPMD schedule (communication and memory optimal)"
    options = ("checkpoint", "max_message_elements")

    def __init__(
        self, targets: Iterable[Sequence[int]] | None = None, tree: Any = None
    ) -> None:
        self._targets = targets_key(targets)
        self._tree = tree

    def tree(self, n: int) -> Any:
        """The spanning tree this scheduler walks over ``n`` dimensions."""
        if self._tree is None:
            return AggregationTree(n)
        if len(self._tree.root) != n:
            raise ValueError(
                f"scheduler tree spans {len(self._tree.root)} dimensions, "
                f"shape has {n}"
            )
        return self._tree

    def schedule(self, n: int) -> tuple[ScheduleStep, ...]:
        """The step list every rank walks (indices are message tags)."""
        if self._tree is None:
            return default_schedule(n, self._targets)
        return tuple(tree_schedule(self.tree(n), self._targets))

    def rank_steps(
        self, n: int, grid: ProcessorGrid
    ) -> tuple[tuple[RankStep, ...], ...]:
        """Each rank's share of :meth:`schedule` on ``grid``, resolved once."""
        if self._tree is None:
            return default_rank_steps(n, self._targets, grid.bits)
        return rank_steps(self.schedule(n), grid)

    def target_nodes(self, n: int) -> tuple[Node, ...] | None:
        """The restricted target set, or ``None`` for the full cube."""
        return self._targets

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
        """The Fig 5 rank program over this scheduler's step list."""
        n = len(shape)
        return make_fig5_program(
            self.rank_steps(n, grid),
            list(local_inputs),
            n,
            reduction,
            measure,
            max_message_elements,
            outputs,
        )

    def rank_program_ft(
        self,
        shape: tuple[int, ...],
        bits: tuple[int, ...],
        grid: ProcessorGrid,
        local_inputs: Sequence[SparseArray | DenseArray],
        *,
        measure: Measure,
        store: CheckpointStore,
        recv_timeout: float | None,
    ) -> ProgramFactory:
        """The checkpoint / detect / recover program over the same list."""
        n = len(shape)
        return _make_program_ft(
            self.rank_steps(n, grid),
            grid,
            list(local_inputs),
            n,
            measure,
            store,
            recv_timeout,
        )

    def declared_volume(self, shape: Sequence[int], bits: Sequence[int]) -> int:
        """Lemma 1 summed over the edges of this scheduler's (pruned) tree.

        On the full aggregation tree that is Theorem 3's closed form
        ``V = sum_j (2^k_j - 1) c_j``
        (:func:`repro.core.comm_model.total_comm_volume`).
        """
        if self._tree is None:
            return default_tree_comm_volume(tuple(shape), tuple(bits), self._targets)
        return tree_comm_volume(self.tree(len(shape)), shape, bits, self._targets)

    def declared_memory_bound(
        self, shape: Sequence[int], bits: Sequence[int]
    ) -> int:
        """The Theorem 1/4 held-results bound, exact per-portion variant.

        It is the aggregation tree's bound: a pruned schedule holds a
        subset of the full one's working set and stays within it, while
        another ``tree`` may exceed it -- which is what that baseline shows.
        """
        return parallel_memory_bound_exact(shape, bits)

    def validate_options(
        self,
        *,
        reduction: str = "flat",
        checkpoint: bool = False,
        max_message_elements: int | None = None,
    ) -> None:
        """Fig 5 supports every build option; cross-field rules live on
        :class:`~repro.core.config.BuildConfig`."""
        if reduction not in ("flat", "binomial"):
            raise ValueError(f"unknown reduction {reduction!r}")
