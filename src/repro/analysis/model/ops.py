"""The model checker's op vocabulary: per-rank symbolic instruction streams.

Where :class:`~repro.analysis.verify_plan.CommSchedule` is a *global* list
of symbolic operations (good for multiset matching), the model checker
needs each rank's **program order**: an abstract interpretation of the
generator rank program as a straight-line stream of sends, receives,
barriers, and memory-ledger events.  :class:`ModelProgram` holds one such
stream per rank; :mod:`repro.analysis.model.hb` derives the happens-before
relation from it, :mod:`repro.analysis.model.explore` executes it under
every relevant interleaving, and :mod:`repro.analysis.model.lifetime`
scans it for the per-rank memory high-water.

Every registered scheduler provides its streams through the
``Scheduler.symbolic_ops`` hook; :func:`from_comm_schedule` is the default
implementation (a projection of ``enumerate_comm``), while the built-in
schedulers override the hook with exact builders
(:mod:`repro.analysis.model.programs`) that also carry the alloc/free
ledger their real programs maintain.

:func:`seed_model_defect` mutates a clean program one defect class at a
time; the property tests prove every MC rule actually fires on its class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable

from repro.core.lattice import Node

__all__ = [
    "MAlloc",
    "MBarrier",
    "MFree",
    "MOp",
    "MRecv",
    "MSend",
    "ModelProgram",
    "check_kill",
    "from_comm_schedule",
    "seed_model_defect",
    "truncate_at",
]


@dataclass(frozen=True)
class MSend:
    """Rank ``rank`` posts a message to ``dst`` on ``tag`` (non-blocking)."""

    rank: int
    dst: int
    tag: int
    elements: int
    step: int
    edge: Node | None = None


@dataclass(frozen=True)
class MRecv:
    """Rank ``rank`` blocks for a message from ``src`` on ``tag``.

    ``timeout=True`` marks a receive with a ``RECV_TIMEOUT`` fallback (the
    fault-tolerant program's failure-detection heartbeats): the model lets
    it fire empty, but only in states where no matching message can ever
    arrive -- the static counterpart of "the detection window is longer
    than any in-flight delivery".
    """

    rank: int
    src: int
    tag: int
    step: int
    edge: Node | None = None
    timeout: bool = False


@dataclass(frozen=True)
class MBarrier:
    """Rank ``rank`` arrives at a global barrier."""

    rank: int
    step: int


@dataclass(frozen=True)
class MAlloc:
    """Rank ``rank`` allocates ``elements`` for held result ``key``."""

    rank: int
    key: Hashable
    elements: int
    step: int


@dataclass(frozen=True)
class MFree:
    """Rank ``rank`` releases held result ``key``."""

    rank: int
    key: Hashable
    step: int


MOp = MSend | MRecv | MBarrier | MAlloc | MFree


@dataclass
class ModelProgram:
    """One scheduler's abstract rank programs, in per-rank program order."""

    shape: tuple[int, ...]
    bits: tuple[int, ...]
    num_ranks: int
    streams: tuple[tuple[MOp, ...], ...]
    #: Spec of the scheduler the streams model (``"fig5"``, ``"shuffle"``).
    scheduler: str = "fig5"
    #: Per-rank symbolic memory peaks to fall back on when the streams
    #: carry no alloc/free events (the default ``symbolic_ops`` projection
    #: of an ``enumerate_comm`` schedule loses the ledger).
    fallback_peaks: tuple[int, ...] | None = None
    #: Fault scenario the streams were built for (``(rank, op_index)``), if
    #: any; purely descriptive.
    kill: tuple[int, int] | None = None

    @property
    def total_ops(self) -> int:
        return sum(len(s) for s in self.streams)

    @property
    def total_messages(self) -> int:
        return sum(
            1 for s in self.streams for op in s if isinstance(op, MSend)
        )

    def has_memory_events(self) -> bool:
        """True when at least one stream carries an alloc/free ledger."""
        return any(
            isinstance(op, (MAlloc, MFree)) for s in self.streams for op in s
        )


def from_comm_schedule(
    sched: object,
    scheduler: str = "fig5",
    timeout_tags: frozenset[int] = frozenset(),
) -> ModelProgram:
    """Project a global :class:`CommSchedule` onto per-rank streams.

    The list order of ``enumerate_comm`` output is each rank's program
    order (the enumerators walk the schedule the way the rank programs
    do), so a stable projection preserves it.  Barriers fan out to every
    participant; receives whose tag is in ``timeout_tags`` are marked
    timeout-capable (the detection-round heartbeats).  Memory events are
    not reconstructible from a comm schedule -- the symbolic per-rank
    peaks ride along as :attr:`ModelProgram.fallback_peaks` instead.
    """
    from repro.analysis.verify_plan import (
        CommSchedule,
        SymBarrier,
        SymRecv,
        SymSend,
    )

    if not isinstance(sched, CommSchedule):
        raise TypeError(f"expected a CommSchedule, got {type(sched).__name__}")
    streams: list[list[MOp]] = [[] for _ in range(sched.num_ranks)]
    for op in sched.ops:
        if isinstance(op, SymSend):
            streams[op.src].append(
                MSend(op.src, op.dst, op.tag, op.elements, op.step, op.edge)
            )
        elif isinstance(op, SymRecv):
            streams[op.rank].append(
                MRecv(
                    op.rank,
                    op.src,
                    op.tag,
                    op.step,
                    op.edge,
                    timeout=op.tag in timeout_tags,
                )
            )
        elif isinstance(op, SymBarrier):
            for rank in op.ranks:
                streams[rank].append(MBarrier(rank, op.step))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown symbolic op {op!r}")
    return ModelProgram(
        shape=sched.shape,
        bits=sched.bits,
        num_ranks=sched.num_ranks,
        streams=tuple(tuple(s) for s in streams),
        scheduler=scheduler,
        fallback_peaks=tuple(sched.rank_peak_memory_elements),
    )


def check_kill(num_ranks: int, kill: tuple[int, int]) -> None:
    """Reject a ``(rank, op_index)`` scenario that names no rank or op."""
    rank, op_index = kill
    if not 0 <= rank < num_ranks:
        raise ValueError(f"kill rank {rank} out of range 0..{num_ranks - 1}")
    if op_index < 0:
        raise ValueError(f"kill op index must be >= 0, got {op_index}")


def truncate_at(prog: ModelProgram, kill: tuple[int, int]) -> ModelProgram:
    """Crash ``rank`` at model-op index ``op``: its stream simply ends there.

    This is the static counterpart of killing a rank mid-program.  The
    survivors' streams are untouched -- the plain programs have no fault
    handling, so any receive addressed to the dead rank now blocks forever
    and the explorer reports MC306.
    """
    check_kill(prog.num_ranks, kill)
    rank, op_index = kill
    streams = list(prog.streams)
    streams[rank] = streams[rank][:op_index]
    return ModelProgram(
        shape=prog.shape,
        bits=prog.bits,
        num_ranks=prog.num_ranks,
        streams=tuple(streams),
        scheduler=prog.scheduler,
        fallback_peaks=prog.fallback_peaks,
        kill=kill,
    )


def _first_data_channel(prog: ModelProgram) -> tuple[MSend, int, MRecv, int]:
    """The first data send, its rank-stream index, and its matching recv."""
    for src, stream in enumerate(prog.streams):
        for i, op in enumerate(stream):
            if isinstance(op, MSend) and op.elements > 0:
                for j, rop in enumerate(prog.streams[op.dst]):
                    if (
                        isinstance(rop, MRecv)
                        and (rop.src, rop.tag) == (op.rank, op.tag)
                    ):
                        return op, i, rop, j
                raise ValueError(
                    f"send {op!r} has no matching recv in a clean program"
                )
    raise ValueError("program has no data sends to mutate")


def seed_model_defect(prog: ModelProgram, kind: str) -> ModelProgram:
    """Return a copy of ``prog`` with one model-checkable defect injected.

    Kinds (each named for the MC rule it must trip):

    - ``tag-race``        (MC301, and MC302 under exploration): a second
      send/recv pair is appended on an already-used channel, so the two
      messages are happens-before unordered and can be in flight together;
    - ``barrier-skip``    (MC303): one rank's barrier arrival is deleted;
    - ``causal-cycle``    (MC304, and MC305 under exploration): two ranks
      gain a cross-posted recv-before-send pair whose message edges close
      a happens-before cycle (each waits for the other's *last* op first);
    - ``dropped-send``    (MC305): the first data send is deleted, so its
      receive blocks in every interleaving;
    - ``leak``            (MC307 under a tight ``--mem-cap``): the first
      free is deleted, so the block stays live to the end of the stream;
    - ``inflated-alloc``  (MC307): the first allocation is inflated by the
      whole program's total allocation, guaranteeing the high-water
      exceeds any declared bound.

    ``fault-deadlock`` (MC306) is a *scenario*, not a mutation: pass
    ``kill=(rank, 0)`` to the explorer over a clean, timeout-free program.
    """
    streams = [list(s) for s in prog.streams]
    if kind == "tag-race":
        # The duplicate send sits directly after the original, so both
        # copies are in flight before the first receive can fire: the HB
        # check reports the unordered pair (MC301) and the explorer the
        # ambiguous match (MC302).
        op, i, rop, j = _first_data_channel(prog)
        streams[op.rank].insert(i + 1, replace(op, step=op.step + 1_000_000))
        streams[rop.rank].insert(
            j + 1, replace(rop, step=rop.step + 1_000_000)
        )
    elif kind == "barrier-skip":
        for rank, stream in enumerate(streams):
            hit = next(
                (i for i, op in enumerate(stream) if isinstance(op, MBarrier)),
                None,
            )
            if hit is not None:
                del stream[hit]
                break
        else:
            raise ValueError("program has no barrier to skip")
    elif kind == "causal-cycle":
        if prog.num_ranks < 2:
            raise ValueError("causal-cycle needs at least 2 ranks")
        a, b = 0, 1
        ta, tb = 9_000_001, 9_000_002
        streams[a].insert(0, MRecv(a, b, tb, step=-9))
        streams[a].append(MSend(a, b, ta, 0, step=-9))
        streams[b].insert(0, MRecv(b, a, ta, step=-9))
        streams[b].append(MSend(b, a, tb, 0, step=-9))
    elif kind == "dropped-send":
        op, i, _, _ = _first_data_channel(prog)
        del streams[op.rank][i]
    elif kind == "leak":
        for rank, stream in enumerate(streams):
            hit = next(
                (i for i, op in enumerate(stream) if isinstance(op, MFree)),
                None,
            )
            if hit is not None:
                del stream[hit]
                break
        else:
            raise ValueError("program has no free to leak")
    elif kind == "inflated-alloc":
        total = sum(
            op.elements
            for s in streams
            for op in s
            if isinstance(op, MAlloc)
        )
        for rank, stream in enumerate(streams):
            hit = next(
                (i for i, op in enumerate(stream) if isinstance(op, MAlloc)),
                None,
            )
            if hit is not None:
                op = stream[hit]
                assert isinstance(op, MAlloc)
                stream[hit] = replace(op, elements=op.elements + total + 1)
                break
        else:
            raise ValueError("program has no allocation to inflate")
    else:
        raise ValueError(f"unknown defect kind {kind!r}")
    return ModelProgram(
        shape=prog.shape,
        bits=prog.bits,
        num_ranks=prog.num_ranks,
        streams=tuple(tuple(s) for s in streams),
        scheduler=prog.scheduler,
        fallback_peaks=prog.fallback_peaks,
        kill=prog.kill,
    )
