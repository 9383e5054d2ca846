"""The real-clock rank driver behind the thread and process backends.

:func:`drive_rank` interprets one rank's generator program against real
``time.monotonic`` seconds.  The generator runs the actual numpy work
between yields; ops are interpreted as real communication (inbox puts and
``(src, tag)``-matched gets, a backend barrier) or as pure accounting
(compute/disk charges, whose *real* duration is the measured interval
since the previous op).

The driver owns everything the real backends share: the ``gen.send``
loop, the mailbox and its receive deadline / watchdog logic, the chaos
boundary (:class:`~repro.exec.chaos.ChaosAgent` kills, straggler and NIC
delays, duplicate deliveries), per-op accounting, op-span emission
(:func:`~repro.obs.span.op_span`), fault notes, and the rank record
:func:`~repro.cluster.metrics.build_run` reads.  A backend supplies only
what genuinely differs:

- the **inboxes** -- one queue per rank with ``put`` and
  ``get(timeout=)`` (``queue.SimpleQueue`` for threads, payloads by
  reference; ``multiprocessing.Queue`` for processes, payloads pickled);
- a **barrier** callable, handed the driver's ``await_message`` so a
  token-based barrier can wait on the rank's own inbox (the process
  backend's supervised protocol) while ``threading.Barrier`` ignores it;
- the **run epoch** rank clocks count from, read once after the start
  barrier releases, plus the rank's **incarnation** (respawned process
  workers rejoin the original cohort's timeline, disarmed);
- an optional per-op **tick** (the process backend's heartbeat) and the
  :class:`~repro.obs.live.RankProbe` the live view samples.

The simulator's ``run_spmd`` is deliberately *not* a caller: it is a
cooperative virtual-time scheduler that advances all ranks in one thread
and crashes them by simulated time, so sharing this loop would make it
branch on which engine it serves.
"""

from __future__ import annotations

import queue as queue_mod
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro.cluster.faults import FaultPlan, FaultStats
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import CommStats, rank_record
from repro.cluster.network import payload_elements, payload_nbytes
from repro.cluster.runtime import (
    BarrierOp,
    ComputeOp,
    DiskReadOp,
    DiskWriteOp,
    MONOTONIC_TIMEOUTS,
    RECV_TIMEOUT,
    RankEnv,
    RecvOp,
    SendOp,
    SleepOp,
)
from repro.exec.base import ProgramFactory
from repro.exec.chaos import NULL_CHAOS, ChaosAgent
from repro.obs.live import RankProbe
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, Tracer, op_span

#: ``await_message(src, tag, deadline)``: the next matching payload, or
#: :data:`~repro.cluster.runtime.RECV_TIMEOUT` past a non-``None`` deadline.
AwaitMessage = Callable[[int, int, "float | None"], Any]


class WorkerError(RuntimeError):
    """A worker rank (or the supervised run as a whole) failed.

    Beyond the message, carries a structured post-mortem when the
    supervisor produced one: the failing ``rank`` (``None`` for host-side
    failures such as the watchdog), its ``exit_code`` and decoded
    ``signal_name`` (``"SIGKILL"``) when it died on a signal, the
    formatted ``post_mortem`` string, and per-rank
    :class:`~repro.exec.supervisor.RankIncident` entries in ``incidents``
    -- including the last trace events of surviving ranks on traced runs.
    """

    #: Set on the echo a healthy thread rank raises when a peer's failure
    #: broke the cohort barrier; the host reports the root cause instead.
    is_barrier_break = False

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        exit_code: int | None = None,
        signal_name: str | None = None,
        post_mortem: str = "",
        incidents: Sequence[Any] = (),
    ) -> None:
        super().__init__(
            f"{message}\n{post_mortem}" if post_mortem else message
        )
        self.rank = rank
        self.exit_code = exit_code
        self.signal_name = signal_name
        self.post_mortem = post_mortem
        self.incidents = list(incidents)


def drive_rank(
    rank: int,
    num_ranks: int,
    machine: MachineModel,
    program_factory: ProgramFactory,
    inboxes: Sequence[Any],
    barrier: Callable[[AwaitMessage], None],
    run_epoch: Callable[[], float],
    *,
    record_trace: bool,
    watchdog_s: float,
    faults: FaultPlan | None = None,
    incarnation: int = 0,
    probe: RankProbe | None = None,
    tick: Callable[[int, str, float], None] | None = None,
) -> dict[str, Any]:
    """Interpret one rank's program in real time; returns its rank record.

    ``barrier(await_message)`` is called once before the program starts
    (the start barrier) and once per yielded ``BarrierOp``; ``run_epoch()``
    is read right after the start barrier.  ``tick(op_index, op_kind,
    rank_clock)`` runs at every op boundary.  ``watchdog_s`` bounds every
    receive that has no deadline of its own.
    """
    fstats = FaultStats()
    env = RankEnv(
        rank=rank,
        num_ranks=num_ranks,
        machine=machine,
        incarnation=incarnation,
        _fault_stats=fstats,
        timeouts=MONOTONIC_TIMEOUTS,
    )
    # Respawned incarnations run disarmed: the chaos already happened.
    chaos = (
        ChaosAgent(faults, rank, incarnation, machine)
        if faults is not None
        else NULL_CHAOS
    )
    inbox = inboxes[rank]
    mailbox: dict[tuple[int, int], deque[Any]] = {}
    trace: list[Span] = []
    comm = CommStats()
    # Provisional until the start barrier releases; only waits relative to
    # `now()` happen before then, so its absolute value never shows.
    epoch = time.monotonic()

    def now() -> float:
        return time.monotonic() - epoch

    if record_trace:
        # Per-rank tracer on the shared monotonic epoch and a per-rank
        # registry; the host merges both when the record comes back.
        env.tracer = Tracer(rank=rank, clock=now)
        env.obs = MetricsRegistry()

    if probe is not None:
        # Hand the live sampler this rank's real state; it reads these
        # references without locks (each is one atomic reference under the
        # GIL; torn reads are diagnostic).
        probe.env = env
        probe.tracer = env.tracer
        probe.comm = comm
        probe.clock = now

    def await_message(src: int, tag: int, deadline: float | None) -> Any:
        """Next ``(src, tag)`` payload; :data:`RECV_TIMEOUT` past deadline."""
        hard = now() + watchdog_s
        while True:
            box = mailbox.get((src, tag))
            if box:
                return box.popleft()
            limit = hard if deadline is None else min(deadline, hard)
            wait = limit - now()
            if wait <= 0:
                if deadline is not None and now() >= deadline:
                    return RECV_TIMEOUT
                raise WorkerError(
                    f"rank {rank}: no message from {src} tag {tag} after "
                    f"{watchdog_s:.0f}s (likely deadlock or a dead peer)",
                    rank=rank,
                )
            try:
                msrc, mtag, payload = inbox.get(timeout=wait)
            except queue_mod.Empty:
                continue
            mailbox.setdefault((msrc, mtag), deque()).append(payload)

    # Align every rank's timeline at the start barrier so span/op start
    # times are comparable across lanes (spawn/fork/import skew would
    # otherwise show up as phantom head-of-run work on the late ranks).
    barrier(await_message)
    epoch = run_epoch()

    gen = program_factory(env)
    resume: Any = None
    result: Any = None
    op_index = 0
    t_prev = now()
    while True:
        try:
            op = gen.send(resume)
        except StopIteration as stop:
            result = stop.value
            break
        # The chaos boundary: the program code *behind* this yield has run,
        # the op itself has not been interpreted -- the same instant the
        # simulator's op-indexed kill fires at, which is what makes seeded
        # crashes land on the identical protocol state on both backends.
        chaos.before_op(op_index)
        t_yield = now()
        env.clock = t_yield
        if probe is not None or tick is not None:
            op_kind = type(op).__name__
            if probe is not None:
                probe.op_index = op_index
                probe.op_kind = op_kind
            if tick is not None:
                tick(op_index, op_kind, t_yield)
        resume = None
        if isinstance(op, ComputeOp):
            extra = chaos.compute_delay_s(t_yield - t_prev)
            if extra > 0.0:
                time.sleep(extra)
                t_yield = now()
                env.clock = t_yield
            env.compute_ops += op.element_ops
            if record_trace and t_yield > t_prev:
                trace.append(op_span(rank, "compute", t_prev, t_yield))
        elif isinstance(op, SendOp):
            nbytes = payload_nbytes(op.payload)
            delay = chaos.send_delay_s(nbytes, t_yield)
            if delay > 0.0:
                time.sleep(delay)
            copies = chaos.deliveries(op.dst)
            for _ in range(copies):
                inboxes[op.dst].put((rank, op.tag, op.payload))
                # The simulator's network charges every posted copy, so a
                # duplicated delivery counts twice here too.
                comm.record(rank, op.dst, nbytes, payload_elements(op.payload))
            t_done = now()
            if record_trace:
                trace.append(
                    op_span(
                        rank, "send", t_yield, t_done,
                        peer=op.dst, tag=op.tag, nbytes=nbytes,
                    )
                )
            if copies > 1:
                fstats.note(
                    "duplicate", t_done, rank,
                    f"{rank}->{op.dst} tag {op.tag} ({nbytes}B)",
                    peer=op.dst, tag=op.tag,
                )
        elif isinstance(op, RecvOp):
            deadline = None if op.timeout is None else t_yield + op.timeout
            resume = await_message(op.src, op.tag, deadline)
            t_done = now()
            if resume is RECV_TIMEOUT:
                fstats.note(
                    "timeout", t_done, rank, f"recv from {op.src} tag {op.tag}",
                    peer=op.src, tag=op.tag,
                )
                if record_trace:
                    trace.append(
                        op_span(
                            rank, "wait", t_yield, t_done,
                            peer=op.src, tag=op.tag, detail="timeout",
                        )
                    )
            elif record_trace:
                trace.append(
                    op_span(
                        rank, "recv", t_yield, t_done,
                        peer=op.src, tag=op.tag, nbytes=payload_nbytes(resume),
                    )
                )
        elif isinstance(op, DiskWriteOp):
            env.disk_bytes_written += op.nbytes
            if record_trace and t_yield > t_prev:
                trace.append(op_span(rank, "disk", t_prev, t_yield, detail="write"))
        elif isinstance(op, DiskReadOp):
            env.disk_bytes_read += op.nbytes
            if record_trace and t_yield > t_prev:
                trace.append(op_span(rank, "disk", t_prev, t_yield, detail="read"))
        elif isinstance(op, SleepOp):
            time.sleep(op.seconds)
            if record_trace:
                trace.append(op_span(rank, "wait", t_yield, now(), detail="sleep"))
        elif isinstance(op, BarrierOp):
            barrier(await_message)
            if record_trace:
                trace.append(op_span(rank, "barrier", t_yield, now()))
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")
        op_index += 1
        t_prev = now()

    env.clock = now()
    if probe is not None:
        # Terminal state: rates and peak memory reach their final values,
        # and the view can render the rank as done.
        probe.op_index = op_index
        probe.op_kind = "done"
        probe.done = True
    return rank_record(
        env, result, comm=comm, trace=trace, faults=fstats,
        registry=env.obs if record_trace else None,
    )
