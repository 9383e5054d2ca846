"""Pluggable execution backends for SPMD rank programs.

The Fig 5 constructor emits *rank programs*: generator functions that yield
the op vocabulary of :mod:`repro.cluster.runtime` (``SendOp``, ``RecvOp``,
``BarrierOp``, ...).  A :class:`Backend` is an interpreter for that
vocabulary.  Three ship with the package:

- :class:`SimBackend` (``"sim"``) -- the deterministic discrete-event
  simulator; clocks are simulated seconds under a machine cost model.
- :class:`ProcessBackend` (``"process"``) -- real OS processes via
  :mod:`multiprocessing`, forked after the partition so each worker reads
  the host's input blocks through the fork (copy-on-write, and the blocks
  are never written), with finalized aggregates written back through a
  :class:`SharedOutputArena` (a mapping shared across the fork, whose
  views are the build's results) instead of pickled result queues.
  Clocks are wall-clock seconds.  Every run is overseen by a
  :class:`Supervisor` that detects worker death, respawns crashed ranks
  from the checkpoint store, and turns unrecoverable failures into an
  enriched :class:`WorkerError`; the process-compatible subset of a fault
  plan is injected in-worker by a :class:`ChaosAgent`
  (:data:`PROCESS_FAULT_KINDS`).
- :class:`ThreadBackend` (``"thread"``) -- one GIL-releasing thread per
  rank in the host process: no fork, no pickling, payloads move by
  reference, and leads write finalized aggregates into a process-private
  :class:`PrivateOutputArena` whose views *are* the build's results.
  Supports the persistent-pool lifecycle
  (``backend.open(workers=p)`` warms a :class:`WorkerPool` reused across
  ``spawn_ranks`` calls); fault surface is
  :data:`THREAD_FAULT_KINDS` (no ``crash_op``: threads share one fate).

The two real backends share one op interpreter,
:func:`repro.exec.driver.drive_rank`, and supply only their transport;
the simulator keeps its own virtual-time engine.  Because all backends
drive the *same* generator program, the arithmetic (including the order of
floating-point accumulation in reductions) is identical, and results are
bit-for-bit the same across backends.  Select
one by name through :func:`get_backend` or
``construct_cube_parallel(backend="thread")``, or pass an instance.

What robustness options a backend accepts is capability-declared
(:attr:`Backend.fault_capabilities`, :attr:`Backend.supports_machines`,
:attr:`Backend.supports_pooling`) and enforced by
:func:`check_backend_options` -- the single check behind both
``BuildConfig`` validation and ``spawn_ranks``.
"""

from repro.exec.base import Backend, ProgramFactory, check_backend_options
from repro.exec.chaos import PROCESS_FAULT_KINDS, THREAD_FAULT_KINDS, ChaosAgent
from repro.exec.pool import PoolClosed, PoolTask, WorkerPool
from repro.exec.process import ProcessBackend, WorkerError
from repro.exec.registry import available_backends, get_backend
from repro.exec.shm import (
    OutputArena,
    OutputLayout,
    PrivateOutputArena,
    SharedOutputArena,
    StagedResult,
)
from repro.exec.sim import SimBackend
from repro.exec.supervisor import RankIncident, Supervisor
from repro.exec.thread import ThreadBackend

__all__ = [
    "Backend",
    "ProgramFactory",
    "SimBackend",
    "ProcessBackend",
    "ThreadBackend",
    "WorkerError",
    "WorkerPool",
    "PoolTask",
    "PoolClosed",
    "Supervisor",
    "RankIncident",
    "ChaosAgent",
    "PROCESS_FAULT_KINDS",
    "THREAD_FAULT_KINDS",
    "OutputArena",
    "PrivateOutputArena",
    "SharedOutputArena",
    "OutputLayout",
    "StagedResult",
    "check_backend_options",
    "get_backend",
    "available_backends",
]
