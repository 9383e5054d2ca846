"""Deterministic SPMD scheduler.

Rank programs are Python *generator functions*: ``program(env)`` yields
operation objects (:class:`SendOp`, :class:`RecvOp`, :class:`ComputeOp`,
:class:`DiskWriteOp`, :class:`DiskReadOp`, :class:`SleepOp`,
:class:`BarrierOp`) and is resumed with the operation's result (the
payload, for receives).  The scheduler advances ranks round-robin; a rank
blocks only on a receive with no matching message, so progress is
guaranteed unless the program genuinely deadlocks (reported as
:class:`DeadlockError` with the blocked ops and pending messages).

Timing model (LogGP-lite, deterministic):

- a send occupies the sender for ``latency + nbytes/bandwidth`` and the
  message arrives at the sender's clock after that charge;
- a receive waits until the arrival time, then occupies the receiver for the
  same transfer time (receiver-side copy / NIC occupancy) -- this serializes
  a lead processor receiving from many partners, which is exactly the
  behaviour that separates partitioning choices in the paper's figures;
- compute and disk operations simply advance the local clock.

The simulated makespan is the maximum rank clock at termination.

Robustness layer (all optional, zero simulated cost when unused):

- ``RecvOp(timeout=...)`` resumes the program with the :data:`RECV_TIMEOUT`
  sentinel instead of deadlocking when no matching message with
  ``arrival_time <= block_start + timeout`` ever becomes available.
- a :class:`~repro.cluster.faults.FaultPlan` passed as ``faults=`` injects
  rank crashes, message drops/duplications, NIC degradation windows, and
  compute stragglers; everything injected or observed is noted once, in
  ``RunMetrics.faults``.  A crashed rank stops executing at its crash
  time: in-flight sends it already posted stand, everything after is gone,
  and partners discover the loss through timeouts (or a
  :class:`DeadlockError` naming the crashed ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.cluster.faults import FaultPlan, FaultStats, NULL_CONTROLLER
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import RunMetrics, build_run, rank_record
from repro.cluster.network import CONTROL_NBYTES, Network, payload_nbytes
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.span import NULL_TRACER, Span, Tracer, op_span


class DeadlockError(RuntimeError):
    """All unfinished ranks are blocked on receives that can never match."""


class _RecvTimeoutType:
    """Singleton sentinel returned by a timed-out receive."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "RECV_TIMEOUT"

    def __bool__(self) -> bool:
        return False


#: Resume value of a ``RecvOp`` whose timeout fired before a timely match.
RECV_TIMEOUT = _RecvTimeoutType()


@dataclass(frozen=True)
class TimeoutPolicy:
    """Where receive-timeout windows come from under a given backend.

    Rank programs historically hard-coded timeout windows in *simulated*
    seconds (tuned to the machine cost model), which is meaningless on a
    backend that measures real wall-clock time.  The executing backend
    therefore hands every rank a policy (``RankEnv.timeouts``) and programs
    ask it to shape their windows:

    - :meth:`effective` scales and floors an individual window (retry
      windows in :func:`repro.cluster.collectives.reduce_to_lead_reliable`);
    - :meth:`detection_timeout` produces the default failure-detection
      window for the heartbeat round of the fault-tolerant constructor.

    ``clock`` names the time base the windows are interpreted against:
    ``"simulated"`` (deterministic LogGP-lite clocks) or ``"monotonic"``
    (real ``time.monotonic`` seconds).  Real clocks need generous floors --
    an OS scheduler hiccup must not masquerade as a dead peer.
    """

    clock: str = "simulated"
    scale: float = 1.0
    min_timeout_s: float = 0.0
    detection_control_messages: float = 1000.0
    detection_floor_s: float = 0.0

    def __post_init__(self) -> None:
        if self.clock not in ("simulated", "monotonic"):
            raise ValueError(f"unknown timeout clock {self.clock!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.min_timeout_s < 0 or self.detection_floor_s < 0:
            raise ValueError("timeout floors must be non-negative")
        if self.detection_control_messages <= 0:
            raise ValueError("detection_control_messages must be positive")

    def effective(self, seconds: float) -> float:
        """Shape one requested timeout window (scale, then floor)."""
        return max(seconds * self.scale, self.min_timeout_s)

    def detection_timeout(self, machine: MachineModel) -> float:
        """Default failure-detection window on ``machine``.

        Simulated clocks derive it from the cost model (1000 control-message
        times, far beyond any live peer's heartbeat latency); monotonic
        clocks cannot trust the model and use the real-seconds floor.
        """
        if self.clock == "monotonic":
            return self.detection_floor_s
        return max(
            self.detection_control_messages * machine.message_time(CONTROL_NBYTES),
            self.detection_floor_s,
        )


#: Timeout source of the deterministic simulator (identity windows).
SIMULATED_TIMEOUTS = TimeoutPolicy()

#: Timeout source for real-process execution: wall-clock windows with
#: floors wide enough that OS scheduling jitter never reads as a failure.
MONOTONIC_TIMEOUTS = TimeoutPolicy(
    clock="monotonic", min_timeout_s=0.05, detection_floor_s=2.0
)


@dataclass(frozen=True)
class SendOp:
    dst: int
    tag: int
    payload: Any


@dataclass(frozen=True)
class RecvOp:
    src: int
    tag: int
    timeout: float | None = None


@dataclass(frozen=True)
class ComputeOp:
    element_ops: float
    sparse: bool = False


@dataclass(frozen=True)
class DiskWriteOp:
    nbytes: int


@dataclass(frozen=True)
class DiskReadOp:
    nbytes: int


@dataclass(frozen=True)
class SleepOp:
    """Advance the local clock by ``seconds`` (retry backoff, lease waits)."""

    seconds: float


@dataclass(frozen=True)
class BarrierOp:
    """Global barrier over all live ranks."""


Op = SendOp | RecvOp | ComputeOp | DiskWriteOp | DiskReadOp | SleepOp | BarrierOp


@dataclass
class RankEnv:
    """Per-rank context handed to programs.

    Programs yield ops built from this env (or the op classes directly) and
    may use the non-yielding memory-accounting helpers, which track the
    held-results footprint the paper's Theorems 4/5 bound.
    """

    rank: int
    num_ranks: int
    machine: MachineModel
    #: 0 on the first execution of this rank; a supervised process backend
    #: increments it on every respawn.  Fault-tolerant programs branch on it
    #: to replay from the checkpoint store instead of re-reading input.
    incarnation: int = 0
    clock: float = 0.0
    disk_bytes_written: int = 0
    disk_bytes_read: int = 0
    compute_ops: float = 0.0
    _held: dict[Any, int] = field(default_factory=dict)
    current_memory_elements: int = 0
    peak_memory_elements: int = 0
    _fault_stats: FaultStats | None = None
    timeouts: TimeoutPolicy = SIMULATED_TIMEOUTS
    #: Per-rank span/sample collector; the shared no-op singleton unless the
    #: run is traced.  Hot paths guard on ``tracer.enabled`` before touching
    #: it, so untraced runs pay nothing.
    tracer: Tracer = NULL_TRACER
    #: Run-level metrics registry (shared across ranks in the simulator,
    #: per-rank and merged host-side on the process backend).  Defaults to
    #: the shared inert NULL_REGISTRY so untraced runs allocate nothing;
    #: traced runs install a fresh per-run registry.
    obs: MetricsRegistry = NULL_REGISTRY

    # -- op constructors (for readability at call sites) ---------------------------

    def send(self, dst: int, payload: Any, tag: int = 0) -> SendOp:
        return SendOp(dst=dst, tag=tag, payload=payload)

    def recv(self, src: int, tag: int = 0, timeout: float | None = None) -> RecvOp:
        return RecvOp(src=src, tag=tag, timeout=timeout)

    def compute(self, element_ops: float, sparse: bool = False) -> ComputeOp:
        return ComputeOp(element_ops=element_ops, sparse=sparse)

    def disk_write(self, nbytes: int) -> DiskWriteOp:
        return DiskWriteOp(nbytes=nbytes)

    def disk_read(self, nbytes: int) -> DiskReadOp:
        return DiskReadOp(nbytes=nbytes)

    def sleep(self, seconds: float) -> SleepOp:
        if seconds < 0:
            raise ValueError(f"sleep duration must be non-negative, got {seconds}")
        return SleepOp(seconds=seconds)

    def barrier(self) -> BarrierOp:
        return BarrierOp()

    # -- fault bookkeeping (immediate, no yield) -------------------------------------

    def note_retry(self, detail: str = "") -> None:
        """Record one retry attempt (ack/retry collectives, recovery loops)."""
        if self._fault_stats is not None:
            self._fault_stats.note("retry", self.clock, self.rank, detail)

    def note_recovery(self, detail: str = "") -> None:
        """Record one successful recovery action (lost partition re-read)."""
        if self._fault_stats is not None:
            self._fault_stats.note("recovery", self.clock, self.rank, detail)

    # -- memory accounting (immediate, no yield) ------------------------------------

    def alloc(self, key: Any, elements: int) -> None:
        """Record that a result of ``elements`` elements is now held."""
        if key in self._held:
            raise ValueError(f"allocation key {key!r} already held")
        self._held[key] = int(elements)
        self.current_memory_elements += int(elements)
        self.peak_memory_elements = max(
            self.peak_memory_elements, self.current_memory_elements
        )
        if self.tracer.enabled:
            self.tracer.sample("memory_elements", float(self.current_memory_elements))

    def free(self, key: Any) -> None:
        if key not in self._held:
            raise ValueError(
                f"rank {self.rank}: free of unknown allocation key {key!r}; "
                f"currently held: {sorted(map(repr, self._held))}"
            )
        self.current_memory_elements -= self._held.pop(key)
        if self.tracer.enabled:
            self.tracer.sample("memory_elements", float(self.current_memory_elements))

    def held_keys(self) -> list[Any]:
        return list(self._held)


_READY, _BLOCKED, _BARRIER, _DONE, _DEAD = range(5)


def run_spmd(
    num_ranks: int,
    program_factory: Callable[[RankEnv], Generator[Op, Any, Any]],
    machine: MachineModel | None = None,
    record_trace: bool = False,
    machines: "list[MachineModel] | None" = None,
    faults: FaultPlan | None = None,
    timeouts: TimeoutPolicy | None = None,
) -> RunMetrics:
    """Run one SPMD program on ``num_ranks`` virtual processors.

    ``program_factory(env)`` must return a fresh generator per rank.  The
    generator's return value is collected into ``RunMetrics.rank_results``
    (``None`` for ranks that crashed).  With ``record_trace=True``, every
    rank's simulated timeline is captured as ``cat="op"``
    :class:`~repro.obs.span.Span` intervals in ``RunMetrics.trace``.

    ``machines`` gives each rank its own cost model (heterogeneous cluster /
    straggler studies); it overrides ``machine`` and must have one entry per
    rank.  Per-message transfer charges use each side's own model (a slow
    NIC hurts both its sends and its receives).

    ``faults`` injects a :class:`~repro.cluster.faults.FaultPlan`; the run
    is deterministic given the plan's seed, and everything injected is
    reported in ``RunMetrics.faults``.

    ``timeouts`` overrides the :class:`TimeoutPolicy` handed to every rank
    (default: :data:`SIMULATED_TIMEOUTS`).
    """
    if machines is not None:
        if len(machines) != num_ranks:
            raise ValueError(
                f"need {num_ranks} machine models, got {len(machines)}"
            )
        rank_machines = list(machines)
    else:
        rank_machines = [machine or MachineModel.paper_cluster()] * num_ranks
    ctl = faults.controller() if faults is not None else NULL_CONTROLLER
    fstats = FaultStats()
    network = Network(num_ranks)
    envs = [
        RankEnv(
            rank=r,
            num_ranks=num_ranks,
            machine=rank_machines[r],
            _fault_stats=fstats,
            timeouts=timeouts or SIMULATED_TIMEOUTS,
        )
        for r in range(num_ranks)
    ]
    obsreg = MetricsRegistry() if record_trace else NULL_REGISTRY
    if record_trace:
        # One tracer per rank, reading that rank's simulated clock; one
        # registry shared by all ranks (the simulator is single-threaded).
        for env in envs:
            env.tracer = Tracer(rank=env.rank, clock=(lambda e=env: e.clock))
            env.obs = obsreg
    gens = [program_factory(env) for env in envs]
    state = [_READY] * num_ranks
    blocked_on: list[RecvOp | None] = [None] * num_ranks
    blocked_deadline: list[float | None] = [None] * num_ranks
    crash_at = [ctl.crash_time(r) for r in range(num_ranks)]
    crash_op_at = [ctl.crash_op(r) for r in range(num_ranks)]
    ops_issued = [0] * num_ranks
    results: list[Any] = [None] * num_ranks
    trace: list[Span] = []

    def record(rank: int, kind: str, start: float, end: float, **attrs: Any) -> None:
        if record_trace and end > start:
            trace.append(op_span(rank, kind, start, end, **attrs))

    def kill(r: int, t: float) -> None:
        """Rank ``r`` dies at simulated time ``t``; its generator is closed."""
        env = envs[r]
        env.clock = max(env.clock, t)
        state[r] = _DEAD
        blocked_on[r] = None
        blocked_deadline[r] = None
        fstats.note("crash", env.clock, r, f"rank {r} crashed")
        gens[r].close()

    def crashes_by(r: int, end: float) -> bool:
        """Whether rank ``r``'s scheduled crash lands at or before ``end``."""
        return crash_at[r] is not None and crash_at[r] <= end

    def fire_timeout(r: int, deadline: float, op: RecvOp) -> Any:
        """Resume a timed-out receive at its deadline with the sentinel."""
        env = envs[r]
        record(r, "wait", env.clock, deadline, detail="timeout", peer=op.src, tag=op.tag)
        env.clock = max(env.clock, deadline)
        fstats.note(
            "timeout", env.clock, r, f"recv from {op.src} tag {op.tag}",
            peer=op.src, tag=op.tag,
        )
        return RECV_TIMEOUT

    def receive(r: int, op: RecvOp) -> Any:
        """Complete a matched, timely receive; returns the payload.

        If the rank's scheduled crash lands during the transfer, the rank
        dies instead, the message stays posted, and ``None`` is returned
        (callers must check ``state[r]`` before resuming the program)."""
        env = envs[r]
        msg = network.peek(r, op.src, op.tag)
        t0 = env.clock
        arrived = max(t0, msg.arrival_time)
        end = arrived + env.machine.message_time(msg.nbytes) * ctl.net_factor(r, arrived)
        if crashes_by(r, end):
            kill(r, max(t0, crash_at[r]))
            return None
        record(r, "wait", t0, arrived, peer=msg.src, tag=op.tag)
        env.clock = end
        record(
            r, "recv", arrived, end, peer=msg.src, tag=op.tag, nbytes=msg.nbytes
        )
        network.match(r, op.src, op.tag)
        return msg.payload

    def advance(r: int, resume_value: Any) -> None:
        """Run rank ``r`` until it blocks, finishes, or dies."""
        env, gen = envs[r], gens[r]
        while True:
            try:
                op = gen.send(resume_value)
            except StopIteration as stop:
                state[r] = _DONE
                results[r] = stop.value
                return
            # Op-index kills fire at the yield boundary: program code before
            # this yield has run, the op itself is never interpreted -- the
            # exact semantics of the process backend's SIGKILL-at-op, which
            # is what makes seeded crashes reproducible across backends.
            opn = ops_issued[r]
            ops_issued[r] += 1
            if crash_op_at[r] is not None and opn == crash_op_at[r]:
                kill(r, env.clock)
                return
            resume_value = None
            if isinstance(op, ComputeOp):
                t0 = env.clock
                dur = env.machine.compute_time(
                    op.element_ops, sparse=op.sparse
                ) * ctl.compute_factor(r)
                if crashes_by(r, t0 + dur):
                    kill(r, max(t0, crash_at[r]))
                    return
                env.clock = t0 + dur
                env.compute_ops += op.element_ops
                record(r, "compute", t0, env.clock)
            elif isinstance(op, SendOp):
                nbytes = payload_nbytes(op.payload)
                t0 = env.clock
                dur = env.machine.message_time(nbytes) * ctl.net_factor(r, t0)
                if crashes_by(r, t0 + dur):
                    kill(r, max(t0, crash_at[r]))
                    return
                env.clock = t0 + dur
                record(
                    r, "send", t0, env.clock,
                    peer=op.dst, tag=op.tag, nbytes=nbytes,
                )
                action = ctl.message_action(r, op.dst)
                if action == "drop":
                    fstats.note(
                        "drop", env.clock, r,
                        f"{r}->{op.dst} tag {op.tag} ({nbytes}B)",
                        peer=op.dst, tag=op.tag,
                    )
                else:
                    network.post(r, op.dst, op.tag, op.payload, arrival_time=env.clock)
                    if action == "duplicate":
                        fstats.note(
                            "duplicate", env.clock, r,
                            f"{r}->{op.dst} tag {op.tag} ({nbytes}B)",
                            peer=op.dst, tag=op.tag,
                        )
                        network.post(
                            r, op.dst, op.tag, op.payload, arrival_time=env.clock
                        )
            elif isinstance(op, RecvOp):
                msg = network.peek(r, op.src, op.tag)
                if msg is None:
                    state[r] = _BLOCKED
                    blocked_on[r] = op
                    blocked_deadline[r] = (
                        env.clock + op.timeout if op.timeout is not None else None
                    )
                    return
                if op.timeout is not None and msg.arrival_time > env.clock + op.timeout:
                    resume_value = fire_timeout(r, env.clock + op.timeout, op)
                    continue
                resume_value = receive(r, op)
                if state[r] == _DEAD:
                    return
            elif isinstance(op, DiskWriteOp):
                t0 = env.clock
                dur = env.machine.disk_time(op.nbytes)
                if crashes_by(r, t0 + dur):
                    kill(r, max(t0, crash_at[r]))
                    return
                env.clock = t0 + dur
                env.disk_bytes_written += op.nbytes
                record(r, "disk", t0, env.clock, detail="write")
            elif isinstance(op, DiskReadOp):
                t0 = env.clock
                dur = env.machine.disk_time(op.nbytes)
                if crashes_by(r, t0 + dur):
                    kill(r, max(t0, crash_at[r]))
                    return
                env.clock = t0 + dur
                env.disk_bytes_read += op.nbytes
                record(r, "disk", t0, env.clock, detail="read")
            elif isinstance(op, SleepOp):
                t0 = env.clock
                if crashes_by(r, t0 + op.seconds):
                    kill(r, max(t0, crash_at[r]))
                    return
                env.clock = t0 + op.seconds
                record(r, "wait", t0, env.clock, detail="sleep")
            elif isinstance(op, BarrierOp):
                state[r] = _BARRIER
                return
            else:
                raise TypeError(f"rank {r} yielded unknown op {op!r}")

    while True:
        progressed = False
        for r in range(num_ranks):
            if state[r] in (_DONE, _BARRIER, _DEAD):
                continue
            if state[r] == _BLOCKED:
                op = blocked_on[r]
                assert op is not None
                msg = network.peek(r, op.src, op.tag)
                if msg is None:
                    continue
                deadline = blocked_deadline[r]
                progressed = True
                state[r] = _READY
                blocked_on[r] = None
                blocked_deadline[r] = None
                if deadline is not None and msg.arrival_time > deadline:
                    # The match exists but arrives too late: time out instead
                    # (the message stays posted for any later receive).
                    advance(r, fire_timeout(r, deadline, op))
                else:
                    payload = receive(r, op)
                    if state[r] != _DEAD:
                        advance(r, payload)
            else:
                progressed = True
                advance(r, None)
        # Release a completed barrier: every live unfinished rank must wait.
        waiting = [r for r in range(num_ranks) if state[r] == _BARRIER]
        if waiting:
            unfinished = [
                r for r in range(num_ranks) if state[r] not in (_DONE, _DEAD)
            ]
            if len(waiting) == len(unfinished):
                sync = max(envs[r].clock for r in waiting)
                for r in waiting:
                    record(r, "barrier", envs[r].clock, sync)
                    envs[r].clock = sync
                    state[r] = _READY
                progressed = True
                for r in waiting:
                    if state[r] == _READY:
                        advance(r, None)
        if all(s in (_DONE, _DEAD) for s in state):
            break
        if not progressed:
            # The run is stalled in scheduler terms; the earliest pending
            # simulated-time event (a stalled rank's crash or a receive
            # timeout) fires now.  Crashes win ties so partners observe the
            # death rather than racing it.
            events: list[tuple[float, int, int, str]] = []
            for r in range(num_ranks):
                if state[r] in (_BLOCKED, _BARRIER) and crash_at[r] is not None:
                    events.append((max(envs[r].clock, crash_at[r]), 0, r, "crash"))
                if state[r] == _BLOCKED and blocked_deadline[r] is not None:
                    events.append((blocked_deadline[r], 1, r, "timeout"))
            if events:
                t, _, r, what = min(events)
                if what == "crash":
                    kill(r, t)
                else:
                    op = blocked_on[r]
                    state[r] = _READY
                    blocked_on[r] = None
                    blocked_deadline[r] = None
                    advance(r, fire_timeout(r, t, op))
                continue
            raise DeadlockError(
                _deadlock_report(num_ranks, state, blocked_on, envs, network, fstats)
            )

    return build_run(
        [rank_record(env, result) for env, result in zip(envs, results)],
        backend="sim",
        registry=obsreg,
        comm=network.stats,
        faults=fstats,
        trace=trace,
    )


def _deadlock_report(
    num_ranks: int,
    state: list[int],
    blocked_on: list[RecvOp | None],
    envs: list[RankEnv],
    network: Network,
    fstats: FaultStats,
) -> str:
    """Human-debuggable deadlock description: who waits on what, and which
    messages are sitting undelivered."""
    lines = ["no progress is possible:"]
    for r in range(num_ranks):
        if state[r] == _BLOCKED:
            op = blocked_on[r]
            timeout = "" if op.timeout is None else f", timeout={op.timeout:g}"
            lines.append(
                f"  rank {r} blocked on recv(src={op.src}, tag={op.tag}{timeout}) "
                f"at t={envs[r].clock:.6g}"
            )
    barr = [r for r in range(num_ranks) if state[r] == _BARRIER]
    if barr:
        lines.append(f"  ranks at barrier: {barr}")
    if fstats.crashed_ranks:
        lines.append(f"  crashed ranks: {sorted(fstats.crashed_ranks)}")
    pending = network.undelivered()
    if pending:
        shown = pending[:10]
        lines.append(
            f"  {len(pending)} undelivered message(s)"
            + ("" if len(pending) <= 10 else f" (first {len(shown)})")
            + ":"
        )
        for m in shown:
            lines.append(
                f"    {m.src}->{m.dst} tag={m.tag} {m.nbytes}B "
                f"arrival={m.arrival_time:.6g}"
            )
    return "\n".join(lines)
