"""Supervision and recovery for real worker processes.

The :class:`Supervisor` is the host-side brain of the process backend: it
owns the control queue every worker reports on (results, errors, barrier
arrivals, and heartbeats piggybacked on the same queue), watches worker
processes for death (exit codes, signals, silent exits), and coordinates
the *supervised barrier* protocol that replaces ``multiprocessing.Barrier``
-- a shared kernel barrier breaks permanently the moment a participant
dies, while the supervised variant can release survivors without a dead
rank and fast-forward a respawned one through barriers that already
released.

Recovery policy on a detected death:

1. If the program is *restartable* (fault-tolerant cube programs built
   with ``checkpoint=True`` carry the ``_restartable`` marker) and the
   rank's respawn budget is not exhausted, the rank is respawned with
   ``incarnation + 1`` and replays from the shared
   :class:`~repro.arrays.persist.CheckpointStore`; barriers it already
   passed release instantly.  For crashes before the failure-detection
   round completes (the same guarantee window as the simulator's buddy
   protocol), the rebuilt cube is bit-exact with the fault-free run.
2. If the budget is exhausted, the rank is *declared dead*: barriers
   release without it, the survivors' heartbeat timeouts fire, and the
   program-level buddy-recovery protocol adopts the dead rank's work --
   degraded, but still bit-exact.
3. If the program is not restartable (or a worker reports an exception),
   the failure is fatal: every worker is terminated and a
   :class:`~repro.exec.driver.WorkerError` carries a structured
   post-mortem -- per-rank exit codes and signal names, last heartbeats,
   and the final trace events of surviving ranks.

Everything the supervisor observes lands in its
:class:`~repro.cluster.faults.FaultStats` (crash/retry events with host
timestamps), which the backend merges into the run's fault log, so
:func:`repro.analysis.lint_trace.lint_trace` audits real recoveries with
the same rules it applies to simulated ones.
"""

from __future__ import annotations

import queue as queue_mod
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cluster.faults import FaultStats
from repro.obs.span import NULL_TRACER, Span, Tracer

#: Pseudo-rank the supervisor uses as the ``src`` of control messages it
#: pushes into worker inboxes (barrier releases).  Negative so it can never
#: collide with a real rank.
SUPERVISOR_RANK = -1

#: Tag namespace of barrier-release messages (tag = base + barrier seq).
#: Far above every data tag (collectives use up to ~9e8).
BARRIER_TAG_BASE = 950_000_000

#: Default number of times one rank may be respawned before it is declared
#: dead and the program-level buddy protocol takes over.
DEFAULT_MAX_RESPAWNS = 1


class _FatalFailure(Exception):
    """Internal signal: supervision must stop and raise a WorkerError."""

    def __init__(
        self,
        reason: str,
        rank: int | None = None,
        exit_code: int | None = None,
        signal_name: str | None = None,
        remote_traceback: str | None = None,
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.rank = rank
        self.exit_code = exit_code
        self.signal_name = signal_name
        self.remote_traceback = remote_traceback


@dataclass
class _RankState:
    """Everything the supervisor knows about one rank."""

    proc: Any
    incarnation: int = 0
    respawns: int = 0
    done: bool = False
    dead: bool = False
    exit_code: int | None = None
    signal_name: str | None = None
    #: Last piggybacked heartbeat: (op_index, op_kind, rank_clock_s).
    last_heartbeat: tuple[int, str, float] | None = None


@dataclass
class RankIncident:
    """One rank's post-mortem entry (surfaced on ``WorkerError``)."""

    rank: int
    status: str
    exit_code: int | None = None
    signal_name: str | None = None
    last_heartbeat: tuple[int, str, float] | None = None
    trace_tail: list[Span] = field(default_factory=list)

    def format(self) -> str:
        line = f"rank {self.rank}: {self.status}"
        if self.exit_code is not None:
            sig = f" ({self.signal_name})" if self.signal_name else ""
            line += f"; exit code {self.exit_code}{sig}"
        if self.last_heartbeat is not None:
            opn, kind, clock = self.last_heartbeat
            line += f"; last heartbeat: op #{opn} ({kind}) at t={clock:.3f}s"
        return line


def signal_name_of(exit_code: int | None) -> str | None:
    """Symbolic signal name for a negative exit code (``"SIGKILL"``)."""
    if exit_code is None or exit_code >= 0:
        return None
    try:
        return signal.Signals(-exit_code).name
    except ValueError:  # pragma: no cover - unknown signal number
        return f"signal {-exit_code}"


class Supervisor:
    """Monitor, coordinate, and recover one cohort of worker processes.

    Parameters
    ----------
    num_ranks:
        Cohort size.
    inboxes:
        Per-rank message queues (the supervisor pushes barrier releases).
    ctl_queue:
        The queue every worker reports on: ``("ok", rank, incarnation,
        stats)``, ``("error", rank, incarnation, traceback)``,
        ``("barrier", rank, incarnation, seq)``, and ``("hb", rank,
        incarnation, op_index, op_kind, clock)`` heartbeats.
    spawn:
        ``spawn(rank, incarnation, epoch0)`` starts and returns one worker
        process.  ``epoch0`` is the shared clock epoch for respawned
        incarnations (``None`` for the initial cohort, which rebases at the
        spawn-barrier release).
    restartable:
        Whether a dead rank may be respawned and replayed (the program
        must be crash-replayable from its checkpoint, e.g. the
        fault-tolerant cube program).
    watchdog_s:
        No-progress bound: if nothing arrives on the control queue for
        this long (+30 s slack, matching the historical result wait), the
        run is declared wedged and fails with a post-mortem.
    max_respawns:
        Per-rank respawn budget before the rank is declared dead.
    on_snapshot:
        Optional sink for ``("snap", rank, incarnation, snapshot)``
        control messages -- the snapshot-bus leg of the process backend.
        Workers piggyback :class:`~repro.obs.live.RankSnapshot` objects
        on the heartbeat cadence; the supervisor forwards each one here
        (typically :meth:`repro.obs.live.LiveRunView.update`).
    tracer:
        Host lane: ``exec.fork`` per worker started, ``exec.reap`` at the end.
    """

    def __init__(
        self,
        num_ranks: int,
        inboxes: Sequence[Any],
        ctl_queue: Any,
        spawn: Callable[[int, int, float | None], Any],
        restartable: bool = False,
        watchdog_s: float = 120.0,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        on_snapshot: Callable[[Any], Any] | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.num_ranks = num_ranks
        self.tracer = tracer
        self._inboxes = inboxes
        self._ctl = ctl_queue
        self._spawn = spawn
        self._restartable = restartable
        self._watchdog_s = watchdog_s
        self._max_respawns = max_respawns
        self._on_snapshot = on_snapshot
        self.fstats = FaultStats()
        self.epoch: float | None = None
        self._ranks: list[_RankState] = []
        self._stats: list[dict[str, Any] | None] = [None] * num_ranks
        #: Per-barrier-seq arrivals: rank -> incarnation of the arrival.
        self._arrivals: dict[int, dict[int, int]] = {}
        self._released: set[int] = set()
        #: Releases already pushed, keyed per (rank, incarnation): a respawn
        #: whose predecessor consumed the release must get a fresh copy.
        self._released_to: dict[int, set[tuple[int, int]]] = {}

    # -- lifecycle ----------------------------------------------------------------

    def run(self) -> list[dict[str, Any] | None]:
        """Spawn the cohort and supervise it to completion.

        Returns per-rank stats dicts (``None`` for ranks declared dead and
        recovered by the program-level buddy protocol).  Raises
        :class:`_FatalFailure` wrapped by the caller into a
        :class:`~repro.exec.driver.WorkerError` on unrecoverable failure.
        """
        self._ranks = [_RankState(self._start(r, 0, None)) for r in range(self.num_ranks)]
        deadline = time.monotonic() + self._watchdog_s + 30.0
        try:
            while not self._finished():
                progressed = self._drain()
                progressed |= self._reap()
                if progressed:
                    deadline = time.monotonic() + self._watchdog_s + 30.0
                elif time.monotonic() > deadline:
                    raise _FatalFailure(
                        "worker result wait timed out (no progress for "
                        f"{self._watchdog_s + 30.0:.0f}s)"
                    )
                else:
                    try:
                        msg = self._ctl.get(timeout=0.05)
                    except queue_mod.Empty:
                        continue
                    self._handle(msg)
                    deadline = time.monotonic() + self._watchdog_s + 30.0
            return self._stats
        finally:
            with self.tracer.span("exec.reap", ranks=self.num_ranks):
                self._shutdown()

    def incidents(self) -> list[RankIncident]:
        """Structured per-rank post-mortem of the cohort's current state."""
        out: list[RankIncident] = []
        for r, st in enumerate(self._ranks):
            if st.done:
                status = "completed"
            elif st.dead:
                status = "declared dead (respawn budget exhausted)"
            elif st.exit_code is not None:
                status = "crashed"
            elif st.proc.is_alive():
                status = "running at termination"
            else:
                status = "exited without reporting"
            if st.respawns:
                status += f"; respawned {st.respawns}x"
            tail: list[Span] = []
            stats = self._stats[r]
            if stats is not None:
                tail = list(stats.get("trace", []))[-5:]
            out.append(
                RankIncident(
                    rank=r,
                    status=status,
                    exit_code=st.exit_code,
                    signal_name=st.signal_name,
                    last_heartbeat=st.last_heartbeat,
                    trace_tail=tail,
                )
            )
        return out

    def post_mortem(self) -> str:
        """Human-readable cohort post-mortem for ``WorkerError``."""
        lines = ["post-mortem:"]
        incidents = self.incidents()
        for inc in incidents:
            lines.append(f"  {inc.format()}")
        tails = [inc for inc in incidents if inc.trace_tail]
        if tails:
            lines.append("last trace events from surviving ranks:")
            for inc in tails:
                for ev in inc.trace_tail:
                    attrs = "".join(f" {k}={v}" for k, v in ev.attrs.items())
                    lines.append(
                        f"  rank {inc.rank}: {ev.name} "
                        f"[{ev.t_start:.3f}, {ev.t_end:.3f}]{attrs}"
                    )
        return "\n".join(lines)

    # -- internals ----------------------------------------------------------------

    def _start(self, rank: int, incarnation: int, epoch0: float | None) -> Any:
        with self.tracer.span("exec.fork", rank=rank, incarnation=incarnation):
            return self._spawn(rank, incarnation, epoch0)

    def _finished(self) -> bool:
        return all(st.done or st.dead for st in self._ranks)

    def _now_rel(self) -> float:
        if self.epoch is None:
            return 0.0
        return max(0.0, time.monotonic() - self.epoch)

    def _drain(self) -> bool:
        """Handle every queued control message; True if any arrived."""
        progressed = False
        while True:
            try:
                msg = self._ctl.get_nowait()
            except queue_mod.Empty:
                return progressed
            progressed = True
            self._handle(msg)

    def _handle(self, msg: tuple[Any, ...]) -> None:
        kind = msg[0]
        if kind == "ok":
            _, rank, incarnation, stats = msg
            st = self._ranks[rank]
            if incarnation == st.incarnation and not st.dead:
                st.done = True
                self._stats[rank] = stats
                self._recheck_barriers()
        elif kind == "error":
            _, rank, _incarnation, tb = msg
            raise _FatalFailure(
                f"rank {rank} failed",
                rank=rank,
                remote_traceback=tb,
            )
        elif kind == "barrier":
            _, rank, incarnation, seq = msg
            if seq in self._released:
                # Fast-forward: a respawned rank re-arriving at a barrier
                # that already released (or a release raced its death).
                self._release_to(rank, incarnation, seq)
            else:
                self._arrivals.setdefault(seq, {})[rank] = incarnation
                self._try_release(seq)
        elif kind == "hb":
            _, rank, incarnation, op_index, op_kind, clock = msg
            st = self._ranks[rank]
            if incarnation == st.incarnation:
                st.last_heartbeat = (op_index, op_kind, clock)
        elif kind == "snap":
            _, rank, incarnation, snap = msg
            st = self._ranks[rank]
            # Stale incarnations are dropped here too, but the view's own
            # (incarnation, seq) monotonicity is the real guard -- a snap
            # can race a respawn decision.
            if incarnation == st.incarnation and self._on_snapshot is not None:
                self._on_snapshot(snap)
        else:  # pragma: no cover - defensive
            raise _FatalFailure(f"unknown control message {msg!r}")

    def _try_release(self, seq: int) -> None:
        """Release barrier ``seq`` once every live, unfinished rank arrived."""
        expected = {
            r for r, st in enumerate(self._ranks) if not st.done and not st.dead
        }
        arrived = self._arrivals.get(seq, {})
        if not expected or not set(arrived) >= expected:
            return
        self._released.add(seq)
        if seq == 0 and self.epoch is None:
            # The spawn barrier released: this instant is the shared clock
            # epoch -- workers rebase here, and respawned incarnations are
            # handed this epoch so their timelines stay comparable.
            self.epoch = time.monotonic()
        for r in sorted(arrived):
            self._release_to(r, arrived[r], seq)

    def _release_to(self, rank: int, incarnation: int, seq: int) -> None:
        sent = self._released_to.setdefault(seq, set())
        if (rank, incarnation) in sent:
            return
        sent.add((rank, incarnation))
        self._inboxes[rank].put((SUPERVISOR_RANK, BARRIER_TAG_BASE + seq, None))

    def _recheck_barriers(self) -> None:
        """A rank finished or died: pending barriers may now release."""
        for seq in sorted(set(self._arrivals) - self._released):
            self._try_release(seq)

    def _reap(self) -> bool:
        """Detect dead workers; respawn, declare dead, or go fatal."""
        progressed = False
        for r, st in enumerate(self._ranks):
            if st.done or st.dead or st.exit_code is not None:
                continue
            if st.proc.is_alive():
                continue
            # The worker may have exited normally with its result still in
            # the control pipe (queue feeders flush before a clean exit):
            # drain before declaring a death.
            self._drain()
            if st.done:
                progressed = True
                continue
            st.proc.join()
            self._on_death(r, st)
            progressed = True
        return progressed

    def _on_death(self, rank: int, st: _RankState) -> None:
        code = st.proc.exitcode
        st.exit_code = code
        st.signal_name = signal_name_of(code)
        t = self._now_rel()
        sig = f" ({st.signal_name})" if st.signal_name else ""
        self.fstats.note(
            "crash", t, rank,
            f"worker exited with code {code}{sig} "
            f"(incarnation {st.incarnation})",
        )
        if not self._restartable:
            raise _FatalFailure(
                f"rank {rank} died with exit code {code}{sig} and the "
                "program is not restartable (build with checkpoint=True "
                "for supervised recovery)",
                rank=rank,
                exit_code=code,
                signal_name=st.signal_name,
            )
        if st.respawns < self._max_respawns:
            st.respawns += 1
            st.incarnation += 1
            st.exit_code = None
            st.signal_name = None
            self.fstats.note(
                "retry", t, rank,
                f"respawning rank {rank} (incarnation {st.incarnation})",
            )
            st.proc = self._start(rank, st.incarnation, self.epoch)
        else:
            st.dead = True
            self._recheck_barriers()

    def _shutdown(self) -> None:
        for st in self._ranks:
            proc = st.proc
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join()
