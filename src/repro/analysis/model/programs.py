"""Exact model-stream builders for the built-in schedulers.

Each builder is an abstract interpretation of the corresponding generator
rank program: it walks the same schedule the real program walks and emits,
per rank and in program order, the communication ops the program yields
and the alloc/free calls it makes on its :class:`RankEnv` memory ledger.
Compute/disk ops carry no synchronization and no held-results memory, so
they are abstracted away.

Faithfulness is what makes the checker's claims meaningful, and it is
pinned by tests in two directions:

- the multiset of sends/recvs equals the scheduler's ``enumerate_comm``
  output (which the SPMD rules already hold to the declared closed forms);
- the per-rank memory high-water of the alloc/free stream equals the
  simulator's *measured* ``rank_peak_memory_elements``, byte for byte.

:func:`fig5_model_program` additionally models the fault-tolerant variant
(:func:`repro.sched.fig5._make_program_ft`): checkpointed first level,
barrier + all-to-all heartbeats with timeout fallbacks, and -- under a
``kill=(rank, op)`` scenario -- per-survivor failure detection and buddy
adoption with virtual-rank message tags, exactly as the real program
computes them.  A kill is modeled as the rank's stream truncating at the
given *model-op* index: heartbeats it sent before dying are delivered,
later ones never exist, and each survivor independently concludes the rank
is dead only if its own heartbeat never arrived -- so a mid-heartbeat
death lets the model surface the genuine detection-disagreement deadlock.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.model.ops import (
    MAlloc,
    MBarrier,
    MFree,
    MOp,
    MRecv,
    MSend,
    ModelProgram,
)
from repro.arrays.chunking import grid_block_lengths, portion_elements
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node
from repro.sched.fig5 import _HB_TAG, _buddy, fig5_schedule
from repro.sched.marginals import pruned_schedule
from repro.sched.steps import PFinalize, PLocalAggregate, PWriteBack

__all__ = ["fig5_model_program", "shuffle_model_program"]


def _plain_fig5_streams(
    schedule: Sequence[object],
    grid: ProcessorGrid,
    labels: list[tuple[int, ...]],
    lengths: list[list[int]],
) -> list[list[MOp]]:
    """Per-rank streams of :func:`repro.sched.fig5.make_fig5_program`."""
    streams: list[list[MOp]] = [[] for _ in range(grid.size)]
    for step_idx, step in enumerate(schedule):
        if isinstance(step, PLocalAggregate):
            for rank in range(grid.size):
                if not grid.holds_node(rank, step.node):
                    continue
                for child in step.children:
                    streams[rank].append(
                        MAlloc(
                            rank,
                            child,
                            portion_elements(child, labels[rank], lengths),
                            step=step_idx,
                        )
                    )
        elif isinstance(step, PFinalize):
            if grid.parts[step.dim] == 1:
                continue
            parent = tuple(sorted(step.child + (step.dim,)))
            for rank in range(grid.size):
                if not grid.holds_node(rank, parent):
                    continue
                group = grid.reduction_group(rank, step.dim)
                elements = portion_elements(step.child, labels[rank], lengths)
                if rank != group[0]:
                    # Non-lead: ship the partial, then release it.
                    streams[rank].append(
                        MSend(
                            rank,
                            group[0],
                            step_idx,
                            elements,
                            step=step_idx,
                            edge=step.child,
                        )
                    )
                    streams[rank].append(
                        MFree(rank, step.child, step=step_idx)
                    )
                else:
                    for member in group[1:]:
                        streams[rank].append(
                            MRecv(
                                rank,
                                member,
                                step_idx,
                                step=step_idx,
                                edge=step.child,
                            )
                        )
        elif isinstance(step, PWriteBack):
            for rank in range(grid.size):
                if not grid.holds_node(rank, step.node):
                    continue
                streams[rank].append(MFree(rank, step.node, step=step_idx))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")
    return streams


def _ft_stream(
    me: int,
    schedule: Sequence[object],
    grid: ProcessorGrid,
    labels: list[tuple[int, ...]],
    lengths: list[list[int]],
    perceived_dead: set[int],
) -> list[MOp]:
    """One physical rank's stream of the fault-tolerant Fig 5 program.

    ``perceived_dead`` is the dead set this rank concludes from its own
    heartbeat round; routing (the virtual->physical map), adoption, and
    message tags all follow from it exactly as in ``_make_program_ft``.
    """
    num_v = grid.size

    def vtag(step_idx: int, vsrc: int) -> int:
        return (step_idx + 2) * num_v + vsrc

    root_step = schedule[0]
    assert isinstance(root_step, PLocalAggregate)
    stream: list[MOp] = []

    # 1. First-level local aggregation (checkpoint is disk-only).
    for child in root_step.children:
        stream.append(
            MAlloc(
                me,
                (me, child),
                portion_elements(child, labels[me], lengths),
                step=0,
            )
        )

    # 2. Failure detection: barrier, then all-to-all heartbeats.
    stream.append(MBarrier(me, step=-1))
    for dst in range(num_v):
        if dst != me:
            stream.append(MSend(me, dst, _HB_TAG, 0, step=-1))
    for src in range(num_v):
        if src != me:
            stream.append(MRecv(me, src, _HB_TAG, step=-1, timeout=True))

    live = set(range(num_v)) - perceived_dead
    pmap = {
        v: (v if v in live else _buddy(grid, v, live)) for v in range(num_v)
    }
    myv = sorted(v for v in range(num_v) if pmap[v] == me)

    # 3. Adoption: recover a dead rank's first-level partials (from the
    # checkpoint or its input block -- both are disk/compute only).
    for d in myv:
        if d == me:
            continue
        for child in root_step.children:
            stream.append(
                MAlloc(
                    me,
                    (d, child),
                    portion_elements(child, labels[d], lengths),
                    step=0,
                )
            )

    # 4. The remaining schedule, executed per embodied virtual rank.
    for step_idx, step in enumerate(schedule[1:], start=1):
        if isinstance(step, PLocalAggregate):
            for v in myv:
                if not grid.holds_node(v, step.node):
                    continue
                for child in step.children:
                    stream.append(
                        MAlloc(
                            me,
                            (v, child),
                            portion_elements(child, labels[v], lengths),
                            step=step_idx,
                        )
                    )
        elif isinstance(step, PFinalize):
            parent = tuple(sorted(step.child + (step.dim,)))
            participants = [v for v in myv if grid.holds_node(v, parent)]
            # Phase 1: every embodied non-lead ships its partial (a local
            # handoff -- no message -- when the lead lives here too).
            for v in participants:
                group = grid.reduction_group(v, step.dim)
                if len(group) == 1 or v == group[0]:
                    continue
                stream.append(MFree(me, (v, step.child), step=step_idx))
                lead_p = pmap[group[0]]
                if lead_p != me:
                    stream.append(
                        MSend(
                            me,
                            lead_p,
                            vtag(step_idx, v),
                            portion_elements(step.child, labels[v], lengths),
                            step=step_idx,
                            edge=step.child,
                        )
                    )
            # Phase 2: every embodied lead combines, in group order.
            for v in participants:
                group = grid.reduction_group(v, step.dim)
                if len(group) == 1 or v != group[0]:
                    continue
                for vsrc in group[1:]:
                    if pmap[vsrc] != me:
                        stream.append(
                            MRecv(
                                me,
                                pmap[vsrc],
                                vtag(step_idx, vsrc),
                                step=step_idx,
                                edge=step.child,
                            )
                        )
        elif isinstance(step, PWriteBack):
            for v in myv:
                if not grid.holds_node(v, step.node):
                    continue
                stream.append(MFree(me, (v, step.node), step=step_idx))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")
    return stream


def fig5_model_program(
    shape: Sequence[int],
    bits: Sequence[int],
    schedule: Sequence[object] | None = None,
    targets: Sequence[Node] | None = None,
    detection_round: bool = False,
    kill: tuple[int, int] | None = None,
) -> ModelProgram:
    """Model streams of the (plain or fault-tolerant) Fig 5 program.

    ``targets`` restricts the schedule to the marginals' pruned tree;
    ``detection_round`` switches to the fault-tolerant program (barrier +
    heartbeats + virtual-rank tags); ``kill=(rank, op)`` additionally
    truncates that rank's stream at model-op index ``op`` and rebuilds
    every survivor's routing from its *own* perception of the death --
    implies ``detection_round`` (the plain program has no fault handling;
    model a kill against it by passing ``kill=`` to the explorer instead).
    """
    shape = tuple(shape)
    bits = tuple(bits)
    if len(shape) != len(bits):
        raise ValueError("shape and bits must have equal length")
    n = len(shape)
    grid = ProcessorGrid(bits)
    lengths = grid_block_lengths(shape, grid.parts)
    labels = [grid.label(r) for r in range(grid.size)]
    spec = "fig5"
    if schedule is None:
        if targets is not None:
            schedule = pruned_schedule(n, targets)
            spec = "marginals"
        else:
            schedule = fig5_schedule(n)

    if not detection_round and kill is None:
        streams = _plain_fig5_streams(schedule, grid, labels, lengths)
        return ModelProgram(
            shape=shape,
            bits=bits,
            num_ranks=grid.size,
            streams=tuple(tuple(s) for s in streams),
            scheduler=spec,
        )

    if kill is None:
        # Fault-free fault-tolerant program: every rank perceives everyone
        # alive, all heartbeats arrive, no timeout fires.
        streams = [
            _ft_stream(me, schedule, grid, labels, lengths, set())
            for me in range(grid.size)
        ]
        return ModelProgram(
            shape=shape,
            bits=bits,
            num_ranks=grid.size,
            streams=tuple(tuple(s) for s in streams),
            scheduler=spec,
        )

    dead_rank, kill_op = kill
    if not 0 <= dead_rank < grid.size:
        raise ValueError(f"kill rank {dead_rank} out of range for p={grid.size}")
    if kill_op < 0:
        raise ValueError(f"kill op index must be >= 0, got {kill_op}")
    # The dying rank runs the normal program (it perceives everyone alive)
    # up to the kill point.
    dead_stream = _ft_stream(
        dead_rank, schedule, grid, labels, lengths, set()
    )[:kill_op]
    delivered_hb = {
        op.dst
        for op in dead_stream
        if isinstance(op, MSend) and op.tag == _HB_TAG
    }
    streams = []
    for me in range(grid.size):
        if me == dead_rank:
            streams.append(dead_stream)
            continue
        # Survivor `me` concludes the rank is dead only if its heartbeat
        # never arrives; a partially-heartbeated death makes survivors
        # *disagree* and the explorer will find the resulting deadlock.
        perceived = set() if me in delivered_hb else {dead_rank}
        streams.append(
            _ft_stream(me, schedule, grid, labels, lengths, perceived)
        )
    return ModelProgram(
        shape=shape,
        bits=bits,
        num_ranks=grid.size,
        streams=tuple(tuple(s) for s in streams),
        scheduler=spec,
        kill=kill,
    )


def shuffle_model_program(
    shape: Sequence[int],
    bits: Sequence[int],
    targets: Sequence[Node],
) -> ModelProgram:
    """Model streams of the batch-shuffle rank program.

    Mirrors :meth:`repro.sched.shuffle.ShuffleScheduler.rank_program`: the
    map phase allocates one partial per target on every rank, then each
    target is reduced along its missing dimensions (descending) with the
    shared step counter as the message tag; non-leads free on ship, the
    final holder frees on write-back.
    """
    shape = tuple(shape)
    bits = tuple(bits)
    if len(shape) != len(bits):
        raise ValueError("shape and bits must have equal length")
    n = len(shape)
    grid = ProcessorGrid(bits)
    lengths = grid_block_lengths(shape, grid.parts)
    labels = [grid.label(r) for r in range(grid.size)]
    targets = tuple(tuple(t) for t in targets)

    streams: list[list[MOp]] = [[] for _ in range(grid.size)]
    for rank in range(grid.size):
        for t in targets:
            streams[rank].append(
                MAlloc(
                    rank,
                    t,
                    portion_elements(t, labels[rank], lengths),
                    step=0,
                )
            )

    step = 0
    for t in targets:
        in_t = set(t)
        missing = [d for d in range(n) if d not in in_t]
        partitioned = [d for d in missing if grid.parts[d] > 1]
        last_dim = min(partitioned) if partitioned else None
        live = list(range(grid.size))
        for d in reversed(missing):
            step += 1
            if grid.parts[d] == 1:
                continue
            edge = t if d == last_dim else None
            next_live = []
            for lead in live:
                if labels[lead][d] != 0:
                    continue
                next_live.append(lead)
                group = grid.reduction_group(lead, d)
                for member in group[1:]:
                    streams[member].append(
                        MSend(
                            member,
                            lead,
                            step,
                            portion_elements(t, labels[member], lengths),
                            step=step,
                            edge=edge,
                        )
                    )
                    streams[member].append(MFree(member, t, step=step))
                for member in group[1:]:
                    streams[lead].append(
                        MRecv(lead, member, step, step=step, edge=edge)
                    )
            live = next_live
        for holder in live:
            streams[holder].append(MFree(holder, t, step=step))

    return ModelProgram(
        shape=shape,
        bits=bits,
        num_ranks=grid.size,
        streams=tuple(tuple(s) for s in streams),
        scheduler="shuffle",
    )
