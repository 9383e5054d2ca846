"""Persistent worker pools: spawn once, reuse across builds.

A :class:`WorkerPool` is a fixed set of daemon threads pulling tasks off
one queue.  Backends that declare ``supports_pooling`` keep one of these
alive between ``spawn_ranks`` calls so repeated builds -- the shape
``CubeService.refresh_with`` and ``repro-cube sched compare`` drive --
pay thread-spawn cost once instead of per run.

Design points that the pool-reuse tests pin:

- a task that raises does **not** kill its worker; the exception is
  re-raised in the submitter when it waits, and the pool stays usable
  (this is what makes ``close()`` clean after a failed build or a
  :class:`~repro.exec.driver.WorkerError`);
- every finished task records which worker thread ran it
  (:attr:`PoolTask.worker_ident`), so tests can prove that two builds on
  one pool really reused the same live threads;
- :meth:`WorkerPool.ensure` grows the pool on demand, so a pool warmed
  for ``p`` ranks transparently serves a later ``2p``-rank build;
- ``close()`` is idempotent and joins every worker.

The pool is deliberately thread-based even though it executes whole rank
drivers: the drivers spend their time in numpy kernels that release the
GIL, which is the entire premise of :class:`~repro.exec.thread.ThreadBackend`.
"""

from __future__ import annotations

import itertools
import queue
import threading
from typing import Any, Callable

__all__ = ["PoolClosed", "PoolTask", "WorkerPool"]

_POOL_IDS = itertools.count(1)


class PoolClosed(RuntimeError):
    """Raised when submitting to a pool that has been closed."""


class PoolTask:
    """Handle for one submitted callable; :meth:`wait` joins and re-raises."""

    __slots__ = ("fn", "_done", "result", "error", "worker_ident")

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn
        self._done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        #: ``threading.get_ident()`` of the worker that ran the task.
        self.worker_ident: int | None = None

    def wait(self, timeout: float | None = None) -> Any:
        """Block until the task finishes; re-raise its exception, if any."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"pool task did not finish within {timeout}s")
        if self.error is not None:
            raise self.error
        return self.result

    @property
    def done(self) -> bool:
        return self._done.is_set()


class WorkerPool:
    """A persistent, growable pool of daemon worker threads."""

    def __init__(self, workers: int = 0, *, name: str | None = None) -> None:
        self.name = name or f"repro-pool-{next(_POOL_IDS)}"
        self._queue: queue.SimpleQueue[PoolTask | None] = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = False
        #: Tasks completed per worker thread ident (reuse evidence).
        self.tasks_by_worker: dict[int, int] = {}
        self.total_tasks = 0
        if workers:
            self.ensure(workers)

    # -- lifecycle ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of live worker threads."""
        return len(self._threads)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def warm(self) -> bool:
        """Open with at least one live worker -- the ``/ready`` criterion.

        A :class:`~repro.serve.service.CubeService` readiness probe
        reports ready only when its rebuild backend's pool is warm, so a
        load balancer never routes refresh traffic at a service that
        would pay cold thread-spawn cost (or has been shut down).
        """
        return not self._closed and bool(self._threads)

    def ensure(self, workers: int) -> None:
        """Grow the pool until it has at least ``workers`` threads."""
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        with self._lock:
            if self._closed:
                raise PoolClosed(f"pool {self.name!r} is closed")
            while len(self._threads) < workers:
                t = threading.Thread(
                    target=self._worker,
                    name=f"{self.name}-w{len(self._threads)}",
                    daemon=True,
                )
                t.start()
                self._threads.append(t)

    def close(self) -> None:
        """Stop and join every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        for t in threads:
            t.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- execution ----------------------------------------------------------

    def submit(self, fn: Callable[[], Any]) -> PoolTask:
        """Queue ``fn`` for execution on any live worker."""
        if self._closed:
            raise PoolClosed(f"pool {self.name!r} is closed")
        if not self._threads:
            raise PoolClosed(f"pool {self.name!r} has no workers; call ensure() first")
        task = PoolTask(fn)
        self._queue.put(task)
        return task

    def run_all(self, fns: list[Callable[[], Any]]) -> list[Any]:
        """Submit every callable, wait for all, return results in order.

        Waits for *every* task before re-raising the first failure, so a
        failed build never leaves stragglers running on the pool.
        """
        tasks = [self.submit(fn) for fn in fns]
        first_error: BaseException | None = None
        results: list[Any] = []
        for task in tasks:
            try:
                results.append(task.wait())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def _worker(self) -> None:
        ident = threading.get_ident()
        while True:
            task = self._queue.get()
            if task is None:
                return
            try:
                task.result = task.fn()
            except BaseException as exc:  # worker survives any task failure
                task.error = exc
            finally:
                task.worker_ident = ident
                with self._lock:
                    self.tasks_by_worker[ident] = self.tasks_by_worker.get(ident, 0) + 1
                    self.total_tasks += 1
                task._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{self.size} workers"
        return f"<WorkerPool {self.name!r} {state} tasks={self.total_tasks}>"
