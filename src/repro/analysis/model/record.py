"""Record the real rank programs into the analyses' symbolic streams.

The plan verifier and the model checker reason about *the program both
backends run*, not a transcription of it: :func:`record_program` drives a
scheduler's generator rank program one rank at a time, with no clock and
no peers, and logs what it does -- every ``SendOp`` / ``RecvOp`` /
``BarrierOp`` it yields and every ``env.alloc`` / ``env.free`` it makes --
as that rank's :class:`~repro.analysis.model.ops.ModelProgram` stream.

What the recording abstracts away:

- **data**: inputs are zero-stride blocks of the partition's shapes and
  the measure is shape-only (reductions return zero-stride arrays of the
  output shape, combines do nothing), so element counts are exact while
  no array is ever allocated;
- **time and cost**: compute, disk, and sleep ops are dropped -- they
  synchronize nothing and hold no results;
- **peers**: a receive is answered at once with a 0-d zero, so each rank
  runs to completion alone.  The rank programs route by rank, tag, and
  shape, never by received values, which is what makes the per-rank
  recording exact.

The one place control flow *does* depend on a receive is a
timeout-capable one (the fault-tolerant program's heartbeats).  Under a
``kill=(rank, op)`` scenario the killed rank is recorded first and its
stream truncated at ``op``; a survivor's timeout receive from it is then
answered with ``RECV_TIMEOUT`` exactly when the matching send is absent
from that truncated stream.  Heartbeats posted before the death are
delivered, later ones never exist, so each survivor concludes the rank is
dead only if *its own* heartbeat never arrived -- a mid-round death makes
survivors disagree, and the explorer reports the resulting deadlock.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

import numpy as np

from repro.analysis.model.ops import (
    MAlloc,
    MBarrier,
    MFree,
    MOp,
    MRecv,
    MSend,
    ModelProgram,
    check_kill,
)
from repro.arrays.chunking import grid_block_lengths
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure
from repro.arrays.persist import CheckpointStore
from repro.cluster.machine import MachineModel
from repro.cluster.network import payload_elements
from repro.cluster.runtime import RECV_TIMEOUT, BarrierOp, RankEnv, RecvOp, SendOp
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node

if TYPE_CHECKING:
    from repro.sched.base import ProgramFactory

__all__ = ["NO_CHECKPOINTS", "record_program"]


def _shape_only_reduce(data: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    kept = tuple(s for axis, s in enumerate(data.shape) if axis not in axes)
    return np.broadcast_to(0.0, kept)


def _no_scatter(
    acc: np.ndarray | None, idx: np.ndarray, values: np.ndarray, size: int
) -> np.ndarray:
    return np.broadcast_to(0.0, (size,))


class _ShapeOnly(Measure):
    """Exact shapes, no values: nothing to combine into read-only zeros."""

    def combine(self, acc: np.ndarray, other: np.ndarray) -> np.ndarray:
        return acc


#: The recorder's measure.  Deliberately not in ``MEASURES`` -- no cube can
#: be built with it.
_SHAPE_ONLY = _ShapeOnly(
    name="shape-only",
    identity=0.0,
    op=np.add,
    reduce_dense=_shape_only_reduce,
    scatter=_no_scatter,
)


#: What a data receive is answered with: a 0-d zero every
#: ``Measure.combine`` broadcasts (and the shape-only one ignores).
_ZERO = DenseArray(np.zeros(()), ())


class _NoCheckpoints(CheckpointStore):
    """A store that keeps nothing, for recording the fault-tolerant program.

    Saves and commits vanish and loads find nothing, so a buddy adopting a
    dead rank takes the re-aggregate-from-the-input-block path; that and
    the checkpoint re-read differ only in disk/compute ops the recorder
    drops anyway.
    """

    def __init__(self) -> None:
        """No directory: nothing is ever written."""

    def save(self, rank: int, node: Node, arr: DenseArray) -> Path:
        return Path()

    def load(self, rank: int, node: Node) -> DenseArray | None:
        return None

    def commit(self, rank: int, nodes: Sequence[Node]) -> int:
        return 0


#: Shared stateless instance handed to ``_make_program_ft`` by recorders.
NO_CHECKPOINTS = _NoCheckpoints()


@dataclass
class _RecordingEnv(RankEnv):
    """A :class:`RankEnv` whose memory ledger also lands in the stream."""

    log: list[MOp] = field(default_factory=list)

    def alloc(self, key: Hashable, elements: int) -> None:
        super().alloc(key, elements)
        self.log.append(MAlloc(self.rank, key, int(elements), step=len(self.log)))

    def free(self, key: Hashable) -> None:
        super().free(key)
        self.log.append(MFree(self.rank, key, step=len(self.log)))


def _record_rank(
    program: "ProgramFactory",
    rank: int,
    num_ranks: int,
    dead: int | None,
    delivered: Counter[tuple[int, int]],
) -> list[MOp]:
    """One rank's stream: run its generator, answering every receive.

    ``delivered`` counts the ``(dst, tag)`` sends in dead rank ``dead``'s
    truncated stream; the ``k``-th timeout receive this rank posts on a
    channel from ``dead`` times out iff fewer than ``k`` such sends exist.
    """
    stream: list[MOp] = []
    env = _RecordingEnv(rank=rank, num_ranks=num_ranks, machine=MachineModel(), log=stream)
    posted: Counter[int] = Counter()
    gen = program(env)
    reply: Any = None
    try:
        while True:
            op = gen.send(reply)
            reply = None
            step = len(stream)
            if isinstance(op, SendOp):
                stream.append(
                    MSend(
                        rank,
                        op.dst,
                        op.tag,
                        payload_elements(op.payload),
                        step,
                        edge=getattr(op.payload, "dims", None),
                    )
                )
            elif isinstance(op, RecvOp):
                stream.append(MRecv(rank, op.src, op.tag, step, timeout=op.timeout is not None))
                reply = _ZERO
                if op.timeout is not None and op.src == dead:
                    posted[op.tag] += 1
                    if posted[op.tag] > delivered[rank, op.tag]:
                        reply = RECV_TIMEOUT
            elif isinstance(op, BarrierOp):
                stream.append(MBarrier(rank, step))
    except StopIteration:
        pass
    return stream


def record_program(
    build: Callable[[ProcessorGrid, list[DenseArray], Measure], "ProgramFactory"],
    shape: Sequence[int],
    bits: Sequence[int],
    *,
    scheduler: str,
    kill: tuple[int, int] | None = None,
) -> ModelProgram:
    """The :class:`ModelProgram` of the rank program ``build`` returns.

    ``build(grid, local_inputs, measure)`` is called once with shape-only
    inputs and measure and must return the program factory the backends
    would run.  ``kill=(rank, op)`` truncates that rank's stream at
    model-op index ``op`` and lets every survivor's timeout receives
    perceive the death (see the module docstring); programs without
    timeout receives are simply truncated.
    """
    shape = tuple(shape)
    bits = tuple(bits)
    if len(shape) != len(bits):
        raise ValueError("shape and bits must have equal length")
    grid = ProcessorGrid(bits)
    lengths = grid_block_lengths(shape, grid.parts)
    inputs = [
        DenseArray.full_cube_input(
            np.broadcast_to(0.0, tuple(lengths[d][c] for d, c in enumerate(grid.label(rank))))
        )
        for rank in range(grid.size)
    ]
    program = build(grid, inputs, _SHAPE_ONLY)

    streams: dict[int, list[MOp]] = {}
    delivered: Counter[tuple[int, int]] = Counter()
    dead: int | None = None
    if kill is not None:
        check_kill(grid.size, kill)
        dead, op_index = kill
        streams[dead] = _record_rank(program, dead, grid.size, None, delivered)[:op_index]
        delivered.update((op.dst, op.tag) for op in streams[dead] if isinstance(op, MSend))
    for rank in range(grid.size):
        if rank != dead:
            streams[rank] = _record_rank(program, rank, grid.size, dead, delivered)
    return ModelProgram(
        shape=shape,
        bits=bits,
        num_ranks=grid.size,
        streams=tuple(tuple(streams[rank]) for rank in range(grid.size)),
        scheduler=scheduler,
        kill=kill,
    )
