"""The live snapshot bus: see what a running build is doing *now*.

Everything else in ``repro.obs`` is post-hoc -- spans and merged
registries only exist after the run returns.  This module is the live
half: both real backends periodically publish one :class:`RankSnapshot`
per rank (the process backend piggybacks them on the supervisor's
existing heartbeat channel; the thread backend runs one background
sampler thread over per-rank :class:`RankProbe` objects), and the host
folds them into one monotonic :class:`LiveRunView` that an operator --
``repro-cube top``, the ``/metrics`` endpoint, a test -- can read while
ranks are still working.

Design constraints, in order:

1. **Zero cost when off.**  ``live=None`` (the default) adds nothing to
   the hot loop beyond the boolean checks that already guard tracing.
2. **Cheap when on.**  A snapshot is a handful of attribute reads; the
   process backend sends one small pickled dataclass per heartbeat tick
   (>= 250 ms apart), the thread sampler reads shared attributes under
   the GIL without any locking on the rank side.
3. **Monotonic.**  Snapshots can arrive out of order (queue races,
   respawned incarnations); :meth:`LiveRunView.update` keeps only the
   newest per rank, ordered by ``(incarnation, seq)``, so the view never
   goes backwards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.span import NullTracer, Tracer

__all__ = ["LiveRunView", "RankProbe", "RankSnapshot"]

#: Default spacing of thread-backend samples; matches the process
#: backend's heartbeat interval so both buses tick at the same cadence.
DEFAULT_INTERVAL_S = 0.25


@dataclass(frozen=True)
class RankSnapshot:
    """One rank's state at one instant, as published on the snapshot bus.

    ``seq`` increases per ``(rank, incarnation)`` publisher;
    ``open_stack`` is the rank tracer's open span stack (outermost
    first, the innermost entry being the live phase), empty on untraced
    runs.  ``messages_sent`` / ``bytes_sent`` are cumulative, so the
    view derives rates from consecutive snapshots.
    """

    rank: int
    incarnation: int
    seq: int
    t: float
    op_index: int
    op_kind: str
    open_stack: tuple[str, ...]
    peak_memory_elements: int
    messages_sent: int
    bytes_sent: int
    done: bool = False

    @property
    def phase(self) -> str | None:
        """The innermost open span name, or ``None`` when untraced/idle."""
        return self.open_stack[-1] if self.open_stack else None


class RankProbe:
    """Mutable per-rank state the thread backend exposes to the sampler.

    The driving thread updates ``op_index`` / ``op_kind`` with plain
    attribute writes at each op boundary (only when live is enabled);
    the sampler thread reads them -- plus the tracer's open stack and
    the env's counters -- without locks.  Torn reads are acceptable: a
    snapshot is diagnostic, and every field is an atomic reference or
    int under the GIL.
    """

    __slots__ = (
        "rank", "env", "tracer", "comm", "clock",
        "op_index", "op_kind", "done", "_seq",
    )

    def __init__(self, rank: int, env: object,
                 tracer: Tracer | NullTracer | None,
                 comm: object, clock: Callable[[], float]) -> None:
        self.rank = rank
        self.env = env
        self.tracer = tracer
        self.comm = comm
        self.clock = clock
        self.op_index = 0
        self.op_kind = "startup"
        self.done = False
        self._seq = 0

    def snapshot(self) -> RankSnapshot:
        """Read the rank's current state into one immutable snapshot."""
        self._seq += 1
        env = self.env
        comm = self.comm
        tracer = self.tracer
        return RankSnapshot(
            rank=self.rank,
            incarnation=int(getattr(env, "incarnation", 0)),
            seq=self._seq,
            t=self.clock(),
            op_index=self.op_index,
            op_kind=self.op_kind,
            open_stack=tracer.open_stack() if tracer is not None else (),
            peak_memory_elements=int(getattr(env, "peak_memory_elements", 0)),
            messages_sent=int(getattr(comm, "total_messages", 0)),
            bytes_sent=int(getattr(comm, "total_bytes", 0)),
            done=self.done,
        )


@dataclass
class _RankLane:
    """The view's per-rank fold state: newest snapshot plus its predecessor."""

    latest: RankSnapshot | None = None
    previous: RankSnapshot | None = None
    updates: int = 0


@dataclass
class LiveRunView:
    """Host-side monotonic merge of every rank's snapshot stream.

    Create one, pass it as the ``live=`` of a build (or directly to
    ``spawn_ranks``), and read it from any thread while the build runs.
    ``interval_s`` is the publish cadence backends should honor;
    ``memory_bound_elements`` is the declared per-rank bound rendered
    against measured high-water in :meth:`render` (``repro-cube top``
    fills it from the Theorem 4 closed form).
    """

    interval_s: float = DEFAULT_INTERVAL_S
    memory_bound_elements: int | None = None
    num_ranks: int = 0
    backend: str = ""
    finished: bool = False
    _lanes: dict[int, _RankLane] = field(default_factory=dict)
    #: Live profile accumulator: every accepted snapshot is one wall-clock
    #: sample of ``(rank, open stack)``.  ``repro.obs.profile`` collapses
    #: this into flamegraph format while the run is still going.
    _stack_counts: dict[tuple[int, tuple[str, ...]], int] = field(
        default_factory=dict
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")

    # -- producer side ------------------------------------------------------

    def attach(self, num_ranks: int, backend: str) -> None:
        """Called by the backend at spawn time: declare the cohort."""
        with self._lock:
            self.num_ranks = num_ranks
            self.backend = backend
            self.finished = False

    def update(self, snap: RankSnapshot) -> bool:
        """Fold one snapshot in; returns False if it was stale (dropped).

        Monotonicity rule: a snapshot replaces the lane's latest only if
        its ``(incarnation, seq)`` is strictly newer -- late-arriving
        duplicates and pre-respawn stragglers never move the view
        backwards.
        """
        with self._lock:
            lane = self._lanes.setdefault(snap.rank, _RankLane())
            latest = lane.latest
            if latest is not None and (
                (snap.incarnation, snap.seq) <= (latest.incarnation, latest.seq)
            ):
                return False
            # Rates come from same-incarnation deltas only; a respawn
            # restarts the cumulative counters, so keep no predecessor.
            if latest is not None and latest.incarnation == snap.incarnation:
                lane.previous = latest
            else:
                lane.previous = None
            lane.latest = snap
            lane.updates += 1
            if not snap.done:
                key = (snap.rank, snap.open_stack)
                self._stack_counts[key] = self._stack_counts.get(key, 0) + 1
            return True

    def finish(self) -> None:
        """Called by the backend when the run completes."""
        with self._lock:
            self.finished = True

    # -- consumer side ------------------------------------------------------

    @property
    def snapshot_count(self) -> int:
        """Total snapshots folded in (stale drops excluded)."""
        with self._lock:
            return sum(lane.updates for lane in self._lanes.values())

    def latest(self, rank: int) -> RankSnapshot | None:
        """The newest snapshot of ``rank``, or ``None`` before the first."""
        with self._lock:
            lane = self._lanes.get(rank)
            return lane.latest if lane is not None else None

    def snapshots(self) -> list[RankSnapshot]:
        """The newest snapshot of every reporting rank, ordered by rank."""
        with self._lock:
            return [
                lane.latest
                for _, lane in sorted(self._lanes.items())
                if lane.latest is not None
            ]

    def stack_counts(self) -> dict[tuple[int, tuple[str, ...]], int]:
        """Accumulated live samples: ``(rank, open stack) -> count``."""
        with self._lock:
            return dict(self._stack_counts)

    def rates(self, rank: int) -> tuple[float, float]:
        """``(messages/s, bytes/s)`` from the rank's last two snapshots.

        Zero before two same-incarnation snapshots exist (no delta to
        rate over).
        """
        with self._lock:
            lane = self._lanes.get(rank)
            if lane is None or lane.latest is None or lane.previous is None:
                return (0.0, 0.0)
            dt = lane.latest.t - lane.previous.t
            if dt <= 0:
                return (0.0, 0.0)
            return (
                (lane.latest.messages_sent - lane.previous.messages_sent) / dt,
                (lane.latest.bytes_sent - lane.previous.bytes_sent) / dt,
            )

    def render(self) -> str:
        """The ``repro-cube top`` frame: one line per rank, plus a header."""
        snaps = self.snapshots()
        bound = self.memory_bound_elements
        state = "finished" if self.finished else "running"
        lines = [
            f"live view [{self.backend or '?'}] {state}: "
            f"{len(snaps)}/{self.num_ranks or '?'} ranks reporting, "
            f"{self.snapshot_count} snapshots",
            f"{'rank':>4} {'t (s)':>8} {'op':>6} {'kind':>10} "
            f"{'msgs/s':>8} {'KiB/s':>9} {'peak mem':>10} "
            f"{'bound':>6} {'phase'}",
        ]
        for snap in snaps:
            msgs_s, bytes_s = self.rates(snap.rank)
            if bound:
                frac = snap.peak_memory_elements / bound
                bound_cell = f"{frac:>5.0%}"
            else:
                bound_cell = "    -"
            phase = " > ".join(snap.open_stack) if snap.open_stack else "-"
            if snap.done:
                phase = "(done)"
            lines.append(
                f"{snap.rank:>4} {snap.t:>8.2f} {snap.op_index:>6} "
                f"{snap.op_kind:>10} {msgs_s:>8.1f} {bytes_s / 1024:>9.1f} "
                f"{snap.peak_memory_elements:>10} {bound_cell:>6} {phase}"
            )
        if not snaps:
            lines.append("  (no snapshots yet)")
        return "\n".join(lines)
