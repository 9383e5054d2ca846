"""Real multi-process execution of SPMD rank programs, supervised.

:class:`ProcessBackend` runs the same generator rank programs the
simulator runs, but on real OS processes: one forked worker per rank, each
calling :func:`~repro.exec.driver.drive_rank` over per-rank
:class:`multiprocessing.Queue` inboxes.  Every worker -- a respawned
incarnation too -- is forked from the host after the partition, and the
program closure holds the host's input blocks, so a worker reads its local
partition through the fork: the blocks are never written, and
copy-on-write copies none of their pages.  Arrays leave a worker through
mappings made before the fork: partials through a message region (only a
slot's name is queued), results through a shared output arena.

Because the *program* is identical -- same numpy kernels, same flat
reduce-to-lead combine order -- results are bit-for-bit identical to the
simulator's, and the message pattern (hence the Theorem 3 communication
volume) matches exactly.  What changes is the meaning of time: clocks and
op-span intervals (``RunMetrics.trace``) are real
``time.monotonic`` seconds against a common epoch (``CLOCK_MONOTONIC`` is
system-wide, so cross-process timestamps are comparable), and receive
timeouts are shaped by :data:`~repro.cluster.runtime.MONOTONIC_TIMEOUTS`.

Every run is overseen by a :class:`~repro.exec.supervisor.Supervisor` on
the host: workers report results, errors, barrier arrivals, and periodic
heartbeats on one control queue; barriers are the supervised protocol
(``multiprocessing.Barrier`` breaks permanently when a participant dies),
and a worker death is detected from its exit code, then respawned from the
checkpoint store, declared dead for buddy recovery, or turned into an
enriched :class:`WorkerError` post-mortem -- see :mod:`repro.exec.supervisor`.

Robustness options are capability-declared: the fault kinds a real process
can honor (:data:`~repro.exec.chaos.PROCESS_FAULT_KINDS`, interpreted
in-worker by a :class:`~repro.exec.chaos.ChaosAgent`) are accepted, the
rest -- and per-rank machine cost models -- raise ``ValueError`` through
:func:`~repro.exec.base.check_backend_options`.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, NamedTuple, Sequence

from repro.arrays.dense import DenseArray
from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import RunMetrics, build_run
from repro.cluster.runtime import MONOTONIC_TIMEOUTS, TimeoutPolicy
from repro.exec.base import Backend, ProgramFactory, check_backend_options
from repro.exec.chaos import PROCESS_FAULT_KINDS
from repro.exec.driver import AwaitMessage, WorkerError, drive_rank
from repro.exec.shm import MessageRegion, OutputLayout, SharedOutputArena, StagedResult
from repro.exec.supervisor import (
    BARRIER_TAG_BASE,
    DEFAULT_MAX_RESPAWNS,
    SUPERVISOR_RANK,
    Supervisor,
    _FatalFailure,
)
from repro.obs.live import LiveRunView, RankProbe
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.span import NULL_TRACER, Tracer

#: Minimum spacing of the heartbeats workers piggyback on the control
#: queue at op boundaries (diagnostic context for post-mortems; liveness
#: itself is judged from process exit codes, not heartbeat gaps).
HEARTBEAT_INTERVAL_S = 0.25


class _RegionInbox(NamedTuple):
    """A rank's inbox whose array payloads travel through the message region."""

    queue: Any
    region: MessageRegion

    def put(self, item: tuple[int, int, Any]) -> None:
        src, tag, payload = item
        self.queue.put((src, tag, self.region.park(payload)))

    def get(self, timeout: float | None = None) -> tuple[int, int, Any]:
        src, tag, payload = self.queue.get(timeout=timeout)
        return src, tag, self.region.unpark(payload)


def _worker(
    rank: int,
    num_ranks: int,
    machine: MachineModel,
    program_factory: ProgramFactory,
    inboxes: Sequence[Any],
    ctl_queue: Any,
    record_trace: bool,
    watchdog_s: float,
    faults: FaultPlan | None,
    incarnation: int,
    epoch0: float | None,
    live_enabled: bool,
    arena: SharedOutputArena | None,
) -> None:
    """Process entry point: drive the program, ship stats (or the error).

    Supplies :func:`~repro.exec.driver.drive_rank` with the supervised
    halves of the protocol: barriers announce arrival on the control queue
    and await the supervisor's release token on the rank's own inbox, and
    every op boundary may piggyback a heartbeat (plus a live snapshot).
    """
    try:
        # The snapshot-bus probe: published on the heartbeat cadence, so a
        # live view costs one extra small queue message per >= 250 ms tick.
        probe = (
            RankProbe(rank, None, None, None, lambda: 0.0)
            if live_enabled
            else None
        )
        barrier_seq = 0
        last_hb = time.monotonic()

        def sup_barrier(await_message: AwaitMessage) -> None:
            """Supervised barrier: announce arrival, await the release token.

            Survives rank death (the supervisor releases around
            declared-dead ranks) and respawn (already-released sequences
            fast-forward), which a shared ``multiprocessing.Barrier``
            cannot.
            """
            nonlocal barrier_seq
            seq = barrier_seq
            barrier_seq += 1
            ctl_queue.put(("barrier", rank, incarnation, seq))
            await_message(SUPERVISOR_RANK, BARRIER_TAG_BASE + seq, None)

        def heartbeat(op_index: int, op_kind: str, clock: float) -> None:
            nonlocal last_hb
            t = time.monotonic()
            if t - last_hb >= HEARTBEAT_INTERVAL_S:
                last_hb = t
                ctl_queue.put(("hb", rank, incarnation, op_index, op_kind, clock))
                if probe is not None:
                    ctl_queue.put(("snap", rank, incarnation, probe.snapshot()))

        stats = drive_rank(
            rank, num_ranks, machine, program_factory, inboxes, sup_barrier,
            # Rebasing at the release instant keeps fork/setup skew out of
            # every rank clock.  Respawned incarnations inherit the
            # original cohort's epoch instead, so their events land on the
            # same timeline as the run they rejoin.
            lambda: epoch0 if epoch0 is not None else time.monotonic(),
            record_trace=record_trace, watchdog_s=watchdog_s, faults=faults,
            incarnation=incarnation, probe=probe, tick=heartbeat,
        )
        result = stats["result"]
        if arena is not None and isinstance(result, dict):
            # Stage what the program returned in-band; Fig 5's leads staged theirs.
            for node, portion in result.items():
                if isinstance(portion, DenseArray) and arena.stage(rank, node, portion.data):
                    result[node] = StagedResult(node, portion.nbytes)
        if probe is not None:
            # The terminal snapshot bypasses the heartbeat rate limit.
            ctl_queue.put(("snap", rank, incarnation, probe.snapshot()))
        ctl_queue.put(("ok", rank, incarnation, stats))
    except BaseException:
        ctl_queue.put(("error", rank, incarnation, traceback.format_exc()))


class ProcessBackend(Backend):
    """Execute rank programs on real OS processes, one forked worker per rank.

    ``watchdog_s`` bounds every blocking wait (receives with no timeout,
    barriers, the supervisor's wait for control-queue progress); exceeding
    it surfaces the real-world analogue of the simulator's
    ``DeadlockError``, with a post-mortem instead of a hang.
    ``max_respawns`` is the per-rank respawn budget of the supervisor:
    how many times one rank may be rebuilt from the checkpoint store
    before it is declared dead and the program-level buddy protocol takes
    over.  Requires the ``fork`` start method (program factories are
    closures; the fork inherits them, and the input blocks they hold,
    without pickling).
    """

    name = "process"
    description = (
        "real OS processes forked after partition; shared output arena, "
        "supervised respawn"
    )
    supports_machines = False
    fault_capabilities = PROCESS_FAULT_KINDS

    def __init__(
        self,
        watchdog_s: float = 120.0,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
    ) -> None:
        if watchdog_s <= 0:
            raise ValueError("watchdog_s must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        self.watchdog_s = watchdog_s
        self.max_respawns = max_respawns

    @property
    def timeouts(self) -> TimeoutPolicy:
        """Wall-clock windows with jitter-proof floors."""
        return MONOTONIC_TIMEOUTS

    _messages: MessageRegion | None = None  # set by prepare_outputs

    def prepare_outputs(self, layout: OutputLayout) -> SharedOutputArena:
        """Map the output arena and the message region before the fork.

        Results are views of the arena: no copy-out, no segment to unlink.
        The message region is a separate mapping, so that result views
        never pin its pages.
        """
        self._out_arena = arena = SharedOutputArena(layout)
        self._messages = MessageRegion(layout, multiprocessing.get_context("fork").Lock())
        return arena

    def end_run(self) -> None:
        """Stop staging and drop the message region."""
        super().end_run()
        self._messages = None

    def spawn_ranks(
        self,
        num_ranks: int,
        program_factory: ProgramFactory,
        *,
        machine: MachineModel | None = None,
        record_trace: bool = False,
        machines: Sequence[MachineModel] | None = None,
        faults: FaultPlan | None = None,
        live: LiveRunView | None = None,
    ) -> RunMetrics:
        """Fork one worker per rank; supervise the cohort to completion."""
        check_backend_options(self, faults, machines)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessBackend requires the 'fork' start method"
            )
        mach = machine or MachineModel.paper_cluster()
        if num_ranks == 0:
            return build_run([], backend=self.name)

        ctx = multiprocessing.get_context("fork")
        inboxes: list[Any] = [ctx.Queue() for _ in range(num_ranks)]
        if self._messages is not None:
            inboxes = [_RegionInbox(q, self._messages) for q in inboxes]
        ctl_queue = ctx.Queue()
        # Fault-tolerant programs mark themselves replayable-from-checkpoint;
        # only those may be respawned (a plain program would recompute sends
        # its peers already consumed, corrupting the protocol).
        restartable = bool(getattr(program_factory, "_restartable", False))

        if live is not None:
            live.attach(num_ranks, self.name)

        def spawn(r: int, incarnation: int, epoch0: float | None) -> Any:
            proc = ctx.Process(
                target=_worker,
                args=(
                    r, num_ranks, mach, program_factory, inboxes, ctl_queue,
                    record_trace, self.watchdog_s, faults,
                    incarnation, epoch0, live is not None, self._out_arena,
                ),
            )
            proc.start()
            return proc

        sup = Supervisor(
            num_ranks,
            inboxes,
            ctl_queue,
            spawn,
            restartable=restartable,
            watchdog_s=self.watchdog_s,
            max_respawns=self.max_respawns,
            on_snapshot=live.update if live is not None else None,
            tracer=Tracer(rank=-1) if record_trace else NULL_TRACER,
        )
        try:
            stats = sup.run()
        except _FatalFailure as failure:
            if failure.remote_traceback is not None:
                message = (
                    f"rank {failure.rank} failed:\n{failure.remote_traceback}"
                )
            else:
                message = failure.reason
            raise WorkerError(
                message,
                rank=failure.rank,
                exit_code=failure.exit_code,
                signal_name=failure.signal_name,
                post_mortem=sup.post_mortem(),
                incidents=sup.incidents(),
            ) from None
        finally:
            if live is not None:
                live.finish()

        return build_run(
            stats,
            backend=self.name,
            registry=MetricsRegistry() if record_trace else NULL_REGISTRY,
            faults=sup.fstats,
            spans=sup.tracer.spans,
        )
