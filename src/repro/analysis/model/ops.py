"""The analyses' one symbolic vocabulary: per-rank instruction streams.

A :class:`ModelProgram` holds, for every rank, the generator rank program
as a straight-line stream of sends, receives, barriers, and memory-ledger
events in **program order**.  :mod:`repro.analysis.model.hb` pairs its
messages once and derives the happens-before relation from it (the plan
verifier's protocol rules read that pairing),
:mod:`repro.analysis.model.explore` executes it under every relevant
interleaving, and :mod:`repro.analysis.model.lifetime` scans it for the
per-rank memory high-water.

The streams are not written by hand: ``Scheduler.symbolic_ops`` records
them from the real generator (:mod:`repro.analysis.model.record`).  Every
op's ``step`` is its index in its rank's stream -- the same index a
``kill=(rank, op)`` scenario and the CLI's ``--kill R@OP`` address.

:func:`seed_model_defect` mutates a clean program one defect class at a
time; the property tests prove every SPMD and MC rule actually fires on
its class.
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
    "seed_model_defect",
    "truncate_at",
]


@dataclass(frozen=True)
class MSend:
    """Rank ``rank`` posts a message to ``dst`` on ``tag`` (non-blocking).

    ``elements`` is the payload's exact element count (0 for control
    messages); ``edge`` is the node a data payload carries (its ``dims``).
    """

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
    #: Spec of the scheduler the streams were recorded from.
    scheduler: str = "fig5"
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

    @property
    def total_elements(self) -> int:
        """Total data volume of all sends (elements)."""
        return sum(op.elements for s in self.streams for op in s if isinstance(op, MSend))

    def has_memory_events(self) -> bool:
        """True when at least one stream carries an alloc/free ledger."""
        return any(
            isinstance(op, (MAlloc, MFree)) for s in self.streams for op in s
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
        kill=kill,
    )


def _first_data_channel(prog: ModelProgram) -> tuple[MSend, int, MRecv, int]:
    """The first data send, its rank-stream index, and its matching recv."""
    for stream in prog.streams:
        for i, op in enumerate(stream):
            if isinstance(op, MSend) and op.elements > 0:
                for j, rop in enumerate(prog.streams[op.dst]):
                    if isinstance(rop, MRecv) and (rop.src, rop.tag) == (op.rank, op.tag):
                        return op, i, rop, j
                raise ValueError(f"send {op!r} has no matching recv in a clean program")
    raise ValueError("program has no data sends to mutate")


def _delete_first(streams: list[list[MOp]], kind: type, missing: str) -> None:
    """Delete the first op of type ``kind`` (lowest rank, program order)."""
    for stream in streams:
        for i, op in enumerate(stream):
            if isinstance(op, kind):
                del stream[i]
                return
    raise ValueError(missing)


def seed_model_defect(prog: ModelProgram, kind: str) -> ModelProgram:
    """Return a copy of ``prog`` with one checkable defect injected.

    Kinds (each named for the rule it must trip -- one rule per defect):

    - ``dropped-recv``    (SPMD001): the first data send's receive is
      deleted, so the payload sits undelivered;
    - ``tag-race`` / ``tag-collision`` (MC301, and MC302 under
      exploration): a second send/recv pair is put on an already-used
      channel, so the two messages are happens-before unordered and can
      be in flight together;
    - ``wrong-lead``      (SPMD004, plus the SPMD001/002 fallout): the
      first data send is rerouted to a rank that is neither its sender
      nor its lead (needs at least 3 ranks);
    - ``barrier-skip``    (MC303, and MC305 under exploration): one rank's
      barrier arrival is deleted (record with ``detection_round=True`` to
      have a barrier);
    - ``causal-cycle``    (MC304, and MC305 under exploration): two ranks
      gain a cross-posted recv-before-send pair whose message edges close
      a happens-before cycle (each waits for the other's *last* op first);
    - ``dropped-send``    (SPMD002, MC305): the first data send is
      deleted, so its receive blocks in every interleaving;
    - ``leak``            (MC307 under a tight ``--mem-cap``): the first
      free is deleted, so the block stays live to the end of the stream;
    - ``inflated-alloc``  (MC307): the first allocation is
      inflated by the whole program's total allocation, guaranteeing the
      high-water exceeds any declared bound.

    ``fault-deadlock`` (MC306) is a *scenario*, not a mutation: pass
    ``kill=(rank, 0)`` to the explorer over a clean, timeout-free program.
    Every op of the result is re-stamped with its new stream index.
    """
    streams = [list(s) for s in prog.streams]
    if kind == "dropped-recv":
        _, _, rop, j = _first_data_channel(prog)
        del streams[rop.rank][j]
    elif kind in ("tag-race", "tag-collision"):
        # The duplicate send sits directly after the original, so both
        # copies are in flight before the first receive can fire: the HB
        # check reports the unordered pair (MC301) and the explorer the
        # ambiguous match (MC302).
        op, i, rop, j = _first_data_channel(prog)
        streams[op.rank].insert(i + 1, op)
        streams[rop.rank].insert(j + 1, rop)
    elif kind == "wrong-lead":
        op, i, _, _ = _first_data_channel(prog)
        wrong = [r for r in range(prog.num_ranks) if r not in (op.rank, op.dst)]
        if not wrong:
            raise ValueError("wrong-lead needs at least 3 ranks")
        streams[op.rank][i] = replace(op, dst=wrong[0])
    elif kind == "barrier-skip":
        _delete_first(
            streams,
            MBarrier,
            "program has no barrier to skip; record it with detection_round=True",
        )
    elif kind == "causal-cycle":
        if prog.num_ranks < 2:
            raise ValueError("causal-cycle needs at least 2 ranks")
        a, b = 0, 1
        ta, tb = 9_000_001, 9_000_002
        streams[a].insert(0, MRecv(a, b, tb, step=0))
        streams[a].append(MSend(a, b, ta, 0, step=0))
        streams[b].insert(0, MRecv(b, a, ta, step=0))
        streams[b].append(MSend(b, a, tb, 0, step=0))
    elif kind == "dropped-send":
        op, i, _, _ = _first_data_channel(prog)
        del streams[op.rank][i]
    elif kind == "leak":
        _delete_first(streams, MFree, "program has no free to leak")
    elif kind == "inflated-alloc":
        total = sum(op.elements for s in streams for op in s if isinstance(op, MAlloc))
        for stream in streams:
            hit = next((i for i, op in enumerate(stream) if isinstance(op, MAlloc)), None)
            if hit is not None:
                op = stream[hit]
                assert isinstance(op, MAlloc)
                stream[hit] = replace(op, elements=op.elements + total + 1)
                break
        else:
            raise ValueError("program has no allocation to inflate")
    else:
        raise ValueError(f"unknown defect kind {kind!r}")
    return replace(
        prog,
        streams=tuple(tuple(replace(op, step=i) for i, op in enumerate(s)) for s in streams),
    )
