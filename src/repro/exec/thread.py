"""Real thread-parallel execution of SPMD rank programs.

:class:`ThreadBackend` runs the same generator rank programs the
simulator and :class:`~repro.exec.process.ProcessBackend` run -- through
the same :func:`~repro.exec.driver.drive_rank` as the latter -- but on one
thread per rank inside the host process.  The premise: the kernels doing
~98 % of the paper's work (``numpy.bincount`` scatter-adds, ``numpy.sum``
reductions, large array copies) release the GIL, so threads genuinely
overlap on multicore hosts -- while skipping everything that makes the
process backend expensive on small problems: no fork, no shared-memory
staging, no pickling (payloads pass between ranks *by reference* through
plain in-process queues).

Because the program, the numpy kernels, and the flat reduce-to-lead
combine order are identical, aggregates are bit-for-bit identical to both
other backends -- the cross-backend parity suite pins scheduler x backend
bit-identity.  Clocks are real ``time.monotonic`` seconds against an
epoch set by the start barrier's action callback (one instant, observed
by all ranks), and receive timeouts are shaped by
:data:`~repro.cluster.runtime.MONOTONIC_TIMEOUTS`.

Threads share one fate: a rank cannot be SIGKILLed and respawned the way
process workers are, so the fault surface is
:data:`~repro.exec.chaos.THREAD_FAULT_KINDS` (stragglers, nic windows,
duplicates -- no ``crash_op``) and there is no supervisor.  A rank
program that raises aborts the run barriers so peers fail fast with
:class:`~repro.exec.driver.WorkerError` instead of hanging on a dead
peer.

This backend owns the **persistent pool** fast path
(:attr:`Backend.supports_pooling`): ``backend.open(workers=p)`` warms a
:class:`~repro.exec.pool.WorkerPool` that successive ``spawn_ranks``
calls reuse, so repeated builds (``CubeService.refresh_with``,
``repro-cube sched compare``) pay thread spawn once.  Without ``open()``
each run uses an ephemeral pool and behaves like the classic one-shot
backends.
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time
import traceback
from typing import Any, Sequence

from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import RunMetrics, build_run
from repro.cluster.runtime import MONOTONIC_TIMEOUTS, TimeoutPolicy
from repro.exec.base import Backend, ProgramFactory, check_backend_options
from repro.exec.chaos import THREAD_FAULT_KINDS
from repro.exec.driver import AwaitMessage, WorkerError, drive_rank
from repro.exec.pool import WorkerPool
from repro.exec.shm import OutputLayout, PrivateOutputArena
from repro.obs.live import LiveRunView, RankProbe
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry


class _LiveSampler:
    """Host-side snapshot-bus publisher for the thread backend.

    One daemon thread ticks at the view's ``interval_s``, reads every
    rank's :class:`~repro.obs.live.RankProbe` (lock-free shared-memory
    reads -- the probes belong to this process), and folds the snapshots
    into the :class:`~repro.obs.live.LiveRunView`.  :meth:`stop` does a
    final sweep so terminal (``done``) state always lands in the view.
    """

    def __init__(self, view: LiveRunView, probes: Sequence[RankProbe]) -> None:
        self._view = view
        self._probes = probes
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-live-sampler", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._view.interval_s):
            self._sweep()

    def _sweep(self) -> None:
        for probe in self._probes:
            self._view.update(probe.snapshot())

    def stop(self) -> None:
        """Stop the sampler and publish one final snapshot per rank."""
        self._stop.set()
        self._thread.join()
        self._sweep()


class ThreadBackend(Backend):
    """Execute rank programs on one GIL-releasing thread per rank.

    ``watchdog_s`` bounds every blocking wait (receives without timeouts,
    barriers, cohort assembly); ``workers`` is the pool size hint for
    :meth:`open` (default: ``os.cpu_count()``).  Payloads move between
    ranks by reference -- programs must not mutate received arrays, the
    same contract the simulator already enforces by convention.
    """

    name = "thread"
    description = (
        "one GIL-releasing thread per rank; persistent worker-pool fast path"
    )
    supports_machines = False
    fault_capabilities = THREAD_FAULT_KINDS
    supports_pooling = True

    def __init__(
        self, watchdog_s: float = 120.0, workers: int | None = None
    ) -> None:
        if watchdog_s <= 0:
            raise ValueError("watchdog_s must be positive")
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.watchdog_s = watchdog_s
        self.workers = workers
        self._pool: WorkerPool | None = None

    @property
    def timeouts(self) -> TimeoutPolicy:
        """Wall-clock windows with jitter-proof floors."""
        return MONOTONIC_TIMEOUTS

    @property
    def pool(self) -> WorkerPool | None:
        """The warm pool, or ``None`` before :meth:`open` / after :meth:`close`."""
        return self._pool

    # -- lifecycle -----------------------------------------------------------

    def open(self, workers: int | None = None) -> "ThreadBackend":
        """Warm the persistent worker pool (idempotent).

        Subsequent :meth:`spawn_ranks` calls reuse the live threads; the
        pool grows on demand if a run needs more ranks than workers.
        """
        want = workers or self.workers or os.cpu_count() or 1
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(want, name="repro-thread-backend")
        else:
            self._pool.ensure(want)
        return self

    def prepare_outputs(self, layout: OutputLayout) -> PrivateOutputArena:
        """Stage finalized aggregates into one process-private buffer.

        Threads already return results by reference, but the arena lets
        every lead write its slices of the *assembled* array concurrently
        (numpy copies release the GIL), replacing the serial host
        assemble loop -- and the build's results are views of that buffer,
        so an output cell is written once and never copied.
        """
        self._out_arena = arena = PrivateOutputArena(layout)
        return arena

    def close(self) -> None:
        """Release per-run resources and shut down the warm pool."""
        super().close()
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- executor ------------------------------------------------------------

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
        """Run one thread per rank (on the warm pool when open)."""
        check_backend_options(self, faults, machines)
        mach = machine or MachineModel.paper_cluster()
        if num_ranks == 0:
            return build_run([], backend=self.name)

        inboxes: list[queue_mod.SimpleQueue[tuple[int, int, Any]]] = [
            queue_mod.SimpleQueue() for _ in range(num_ranks)
        ]
        # One cyclic barrier serves the start alignment and every BarrierOp.
        # Its action callback runs in exactly one thread before any rank is
        # released; stamping the first release (the start barrier) there
        # gives all ranks the same run epoch, so thread spawn skew never
        # shows up as phantom head-of-run work on late ranks.
        epoch: list[float] = []

        def stamp_epoch() -> None:
            if not epoch:
                epoch.append(time.monotonic())

        cohort = threading.Barrier(num_ranks, action=stamp_epoch)

        probes: list[RankProbe] | None = None
        sampler: _LiveSampler | None = None
        if live is not None:
            live.attach(num_ranks, self.name)
            # Probes start with placeholder state; each rank's driver
            # swaps in its real env/tracer/comm/clock before the first op.
            probes = [
                RankProbe(r, None, None, None, lambda: 0.0)
                for r in range(num_ranks)
            ]
            sampler = _LiveSampler(live, probes)
            sampler.start()

        def make_task(rank: int) -> Any:
            def barrier(_await_message: AwaitMessage) -> None:
                """Real barrier; a broken one means a peer failed or timed out."""
                try:
                    cohort.wait(timeout=self.watchdog_s)
                except threading.BrokenBarrierError:
                    err = WorkerError(
                        f"rank {rank}: barrier broken (a peer rank failed, or "
                        f"no release within {self.watchdog_s:.0f}s)",
                        rank=rank,
                    )
                    # Mark as a symptom: when a peer's failure aborted the
                    # barrier, the root cause is reported instead of this echo.
                    err.is_barrier_break = True
                    raise err from None

            def run() -> dict[str, Any]:
                try:
                    return drive_rank(
                        rank, num_ranks, mach, program_factory, inboxes,
                        barrier, lambda: epoch[0],
                        record_trace=record_trace, watchdog_s=self.watchdog_s,
                        faults=faults,
                        probe=probes[rank] if probes is not None else None,
                    )
                except BaseException:
                    # Break every peer out of its barrier wait so one
                    # failing rank fails the cohort fast instead of
                    # letting the others hang until the watchdog.
                    cohort.abort()
                    raise
            return run

        pool = self._pool
        ephemeral = pool is None or pool.closed
        if ephemeral:
            pool = WorkerPool(num_ranks, name="repro-thread-run")
        else:
            assert pool is not None
            pool.ensure(num_ranks)
        pooled = not ephemeral
        try:
            tasks = [pool.submit(make_task(r)) for r in range(num_ranks)]
            stats: list[dict[str, Any] | None] = []
            failure: tuple[int, BaseException] | None = None
            barrier_echo: tuple[int, BaseException] | None = None
            for rank, task in enumerate(tasks):
                try:
                    stats.append(task.wait())
                except BaseException as exc:
                    stats.append(None)
                    # Barrier breaks on healthy ranks are echoes of the
                    # rank that actually failed (its except clause aborts
                    # the barrier); report the root cause when one exists.
                    if getattr(exc, "is_barrier_break", False):
                        if barrier_echo is None:
                            barrier_echo = (rank, exc)
                    elif failure is None:
                        failure = (rank, exc)
            if failure is None:
                failure = barrier_echo
            if failure is not None:
                rank, exc = failure
                if isinstance(exc, WorkerError):
                    raise exc
                detail = "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                )
                raise WorkerError(
                    f"rank {rank} failed:\n{detail}", rank=rank
                ) from exc
        finally:
            if sampler is not None:
                sampler.stop()
            if live is not None:
                live.finish()
            if ephemeral:
                pool.close()
        metrics = build_run(
            stats,
            backend=self.name,
            registry=MetricsRegistry() if record_trace else NULL_REGISTRY,
        )
        if record_trace:
            metrics.registry.counter(
                "exec.spawn", backend=self.name, pooled=str(pooled).lower()
            ).inc()
            if pooled:
                metrics.registry.gauge("exec.pool.workers").set(pool.size)
                metrics.registry.gauge("exec.pool.total_tasks").set(
                    pool.total_tasks
                )
        return metrics
