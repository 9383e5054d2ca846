"""Chaos injection for real worker processes.

The simulator interprets a :class:`~repro.cluster.faults.FaultPlan` by
manipulating simulated clocks and the virtual network.  On the process
backend the same plan (restricted to the kinds real processes can honor,
:data:`PROCESS_FAULT_KINDS`) is interpreted *inside* each worker by a
:class:`ChaosAgent`:

- ``crash_op`` -- ``kill:RANK@OP``: the agent SIGKILLs its own process
  immediately before the rank interprets that op.  Op boundaries are the
  same enumeration the simulator counts, so a seeded kill crashes at the
  identical protocol point on both backends -- the property the
  cross-backend recovery parity suite asserts bit-for-bit.
- ``straggler`` -- compute ops sleep an extra ``(factor - 1) x`` the
  measured compute interval, slowing the rank without changing results.
- ``nic`` -- sends inside an active degradation window sleep an extra
  ``(factor - 1) x`` the machine model's transfer time for the payload
  (a real delayed send: the queue put happens after the sleep).
- ``dup`` -- the send is enqueued twice; the duplicate consumes one RNG
  draw per matching rule exactly like the simulator's controller, so a
  plan's probabilistic faults are deterministic per backend (the draw
  *streams* differ between backends -- draws happen in scheduler order on
  sim and in per-rank program order here -- which is why only ``crash_op``
  supports cross-backend parity).  A rule's ``max_events`` budget is
  likewise *per rank* here (each worker owns its agent) versus global on
  the simulator; pin a rule's ``src`` when one total firing is required.

Time-based ``crash`` and ``drop`` remain simulator-only: real clocks make
"at time t" irreproducible, and dropping a queue message cannot charge the
sender the way the virtual network does.  The capability declaration on
:class:`~repro.exec.process.ProcessBackend` enforces exactly this split.

A respawned incarnation (``incarnation > 0``) gets a fully disarmed agent:
the chaos already happened; recovery must run clean.

Caveat: SIGKILL at an op boundary can in principle land while the queue
feeder thread of a *previous* put still holds the shared queue's write
lock, wedging other writers.  Kills at op boundaries right after barriers
or computes (the useful places) make this window vanishingly small, and
the supervisor's watchdog converts the residual case into a diagnosable
post-mortem instead of a hang.
"""

from __future__ import annotations

import os
import random
import signal

from repro.cluster.faults import FaultPlan, MessageFaultRule, NicDegradation, rule_fires
from repro.cluster.machine import MachineModel

#: FaultPlan kinds the process backend can honor (see module docstring for
#: why time-based crashes and drops cannot be).
PROCESS_FAULT_KINDS = frozenset({"crash_op", "dup", "straggler", "nic"})

#: FaultPlan kinds the thread backend can honor: everything in-process
#: except ``crash_op`` -- there is no way to SIGKILL one thread of a
#: shared address space without taking the host down with it.
THREAD_FAULT_KINDS = frozenset({"dup", "straggler", "nic"})


class ChaosAgent:
    """Per-rank, per-incarnation interpreter of the process fault subset.

    Constructed inside the worker after fork; the RNG is seeded from
    ``(plan.seed, rank)`` so every rank draws an independent, reproducible
    stream regardless of cross-rank timing.
    """

    def __init__(
        self,
        plan: FaultPlan,
        rank: int,
        incarnation: int,
        machine: MachineModel,
    ) -> None:
        armed = incarnation == 0
        self.rank = rank
        self.machine = machine
        self._crash_op: int | None = plan.crash_ops.get(rank) if armed else None
        self._compute_factor: float = (
            plan.stragglers.get(rank, 1.0) if armed else 1.0
        )
        self._nic: list[NicDegradation] = (
            [d for d in plan.nic_degradations if d.rank == rank] if armed else []
        )
        self._dups: list[MessageFaultRule] = list(plan.duplicates) if armed else []
        self._rng = random.Random(plan.seed * 1_000_003 + rank)
        self._rule_fires: dict[int, int] = {}

    def before_op(self, op_index: int) -> None:
        """Fire the seeded SIGKILL if this is the scheduled op boundary."""
        if self._crash_op is not None and op_index == self._crash_op:
            os.kill(os.getpid(), signal.SIGKILL)

    def compute_delay_s(self, measured_s: float) -> float:
        """Extra straggler sleep after a compute that took ``measured_s``."""
        if self._compute_factor <= 1.0 or measured_s <= 0.0:
            return 0.0
        return measured_s * (self._compute_factor - 1.0)

    def send_delay_s(self, nbytes: int, clock_s: float) -> float:
        """Extra delay before a send at rank-clock ``clock_s`` departs."""
        factor = 1.0
        for d in self._nic:
            if d.active(clock_s):
                factor *= d.factor
        if factor <= 1.0:
            return 0.0
        return self.machine.message_time(nbytes) * (factor - 1.0)

    def deliveries(self, dst: int) -> int:
        """Copies to enqueue for a send to ``dst`` (1, or 2 on duplication).

        Draws as :meth:`repro.cluster.faults.FaultController.message_action`
        does, through the same :func:`~repro.cluster.faults.rule_fires`.
        """
        return 2 if rule_fires(self._dups, self.rank, dst, self._rng, self._rule_fires) else 1


class _NullChaos:
    """Zero-cost stand-in when no fault plan is given."""

    def before_op(self, op_index: int) -> None:
        return None

    def compute_delay_s(self, measured_s: float) -> float:
        return 0.0

    def send_delay_s(self, nbytes: int, clock_s: float) -> float:
        return 0.0

    def deliveries(self, dst: int) -> int:
        return 1


NULL_CHAOS = _NullChaos()
