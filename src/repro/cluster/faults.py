"""Deterministic fault injection for the SPMD simulator.

A :class:`FaultPlan` describes *what goes wrong* in a simulated run: rank
crashes at a given simulated time, message drops and duplications, transient
NIC degradation windows, and stragglers (per-rank compute slowdown).  The
plan is pure data plus a seed; :func:`run_spmd` builds one
:class:`FaultController` per run, so the same plan replayed against the same
program yields bit-identical metrics -- probabilistic faults draw from a
``random.Random(seed)`` stream in the scheduler's (deterministic) order.

Everything that actually happened is recorded once, in a :class:`FaultStats`
block on :class:`~repro.cluster.metrics.RunMetrics`; the trace linter, the
happens-before cross-check and the exporters all read faults from there.

This module is standalone on purpose: :mod:`repro.cluster.runtime` and
:mod:`repro.cluster.metrics` import it, never the other way round.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

#: Every fault kind a :class:`FaultPlan` can describe.  Execution backends
#: declare the subset they can honor (``Backend.fault_capabilities``);
#: ``crash`` is a *time-based* kill (simulated clocks only), ``crash_op`` a
#: deterministic kill at an op index (reproducible on real processes too).
ALL_FAULT_KINDS = frozenset(
    {"crash", "crash_op", "straggler", "nic", "drop", "dup"}
)


# -- injected-fault descriptions (plan side) -----------------------------------------


@dataclass(frozen=True)
class MessageFaultRule:
    """Drop or duplicate posted messages with ``probability``.

    ``src``/``dst`` restrict the rule to one direction (``None`` = any);
    ``max_events`` bounds how many times the rule may fire.
    """

    probability: float
    src: int | None = None
    dst: int | None = None
    max_events: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True)
class NicDegradation:
    """Multiply ``rank``'s per-message transfer time by ``factor`` during
    the simulated-time window ``[start, end)``."""

    rank: int
    factor: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {self.factor}")
        if self.end <= self.start:
            raise ValueError("degradation window must have end > start")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


# -- what actually happened (metrics side) --------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One injected or observed fault occurrence on the simulated timeline.

    ``kind`` is one of ``crash``, ``drop``, ``duplicate``, ``timeout``,
    ``retry``, ``recovery``.  Message faults carry the channel: ``peer`` is
    the other endpoint (destination of a dropped/duplicated send, source of
    a timed-out receive) and ``tag`` the message tag.
    """

    kind: str
    time: float
    rank: int
    detail: str = ""
    peer: int | None = None
    tag: int | None = None


@dataclass
class FaultStats:
    """Fault counters and event log for one simulated run."""

    crashed_ranks: list[int] = field(default_factory=list)
    messages_dropped: int = 0
    messages_duplicated: int = 0
    timeouts_fired: int = 0
    retries: int = 0
    recoveries: int = 0
    events: list[FaultEvent] = field(default_factory=list)

    def note(
        self,
        kind: str,
        time: float,
        rank: int,
        detail: str = "",
        *,
        peer: int | None = None,
        tag: int | None = None,
    ) -> None:
        self.events.append(FaultEvent(kind, time, rank, detail, peer, tag))
        if kind == "crash":
            self.crashed_ranks.append(rank)
        elif kind == "drop":
            self.messages_dropped += 1
        elif kind == "duplicate":
            self.messages_duplicated += 1
        elif kind == "timeout":
            self.timeouts_fired += 1
        elif kind == "retry":
            self.retries += 1
        elif kind == "recovery":
            self.recoveries += 1

    @property
    def any(self) -> bool:
        return bool(self.events)

    def merge(self, other: "FaultStats") -> None:
        """Fold another rank's (or the supervisor's) stats into this one.

        The process backend gives every worker its own :class:`FaultStats`
        and merges them host-side, so counters stay consistent with the
        event log (each event is re-noted through :meth:`note`).
        """
        for ev in other.events:
            self.note(
                ev.kind, ev.time, ev.rank, ev.detail, peer=ev.peer, tag=ev.tag
            )

    def channel_counts(self, kind: str) -> dict[tuple[int, int, int], int]:
        """``(src, dst, tag) -> count`` of ``drop`` or ``duplicate`` faults."""
        return Counter(
            (ev.rank, ev.peer, ev.tag)
            for ev in self.events
            if ev.kind == kind and ev.peer is not None and ev.tag is not None
        )

    def summary(self) -> str:
        return (
            f"crashes={sorted(self.crashed_ranks)} "
            f"dropped={self.messages_dropped} dup={self.messages_duplicated} "
            f"timeouts={self.timeouts_fired} retries={self.retries} "
            f"recoveries={self.recoveries}"
        )


# -- the plan --------------------------------------------------------------------------


class FaultPlan:
    """A seeded, declarative description of the faults to inject.

    Builder methods return ``self`` so plans chain::

        plan = (FaultPlan(seed=7)
                .crash(3, at_time=0.5)
                .straggler(1, factor=4.0)
                .drop_messages(0.05, dst=0))

    The plan itself is immutable during a run; per-run randomness lives in
    the :class:`FaultController` that :func:`run_spmd` derives from it.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.crashes: dict[int, float] = {}
        self.crash_ops: dict[int, int] = {}
        self.stragglers: dict[int, float] = {}
        self.nic_degradations: list[NicDegradation] = []
        self.drops: list[MessageFaultRule] = []
        self.duplicates: list[MessageFaultRule] = []

    # -- builders ----------------------------------------------------------------

    def crash(self, rank: int, at_time: float) -> "FaultPlan":
        """Kill ``rank`` the first time its clock reaches ``at_time``."""
        if at_time < 0:
            raise ValueError(f"crash time must be non-negative, got {at_time}")
        if rank in self.crashes:
            raise ValueError(f"rank {rank} already has a crash scheduled")
        self.crashes[rank] = float(at_time)
        return self

    def crash_at_op(self, rank: int, op_index: int) -> "FaultPlan":
        """Kill ``rank`` immediately before it executes its ``op_index``-th op.

        Unlike :meth:`crash` (a simulated-time kill, meaningless on real
        clocks), an op-index kill is deterministic on every backend: the
        simulator closes the generator before interpreting that op, and the
        process backend's :class:`~repro.exec.chaos.ChaosAgent` SIGKILLs the
        worker at the same boundary.  Program code between yields has run;
        the op itself (and everything after) has not -- identical crash
        semantics either way, which is what makes cross-backend recovery
        parity testable bit-for-bit.
        """
        if op_index < 0:
            raise ValueError(f"op index must be non-negative, got {op_index}")
        if rank in self.crash_ops:
            raise ValueError(f"rank {rank} already has an op-index crash scheduled")
        self.crash_ops[rank] = int(op_index)
        return self

    def straggler(self, rank: int, factor: float) -> "FaultPlan":
        """Multiply ``rank``'s compute time by ``factor`` for the whole run."""
        if factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {factor}")
        self.stragglers[rank] = float(factor)
        return self

    def degrade_nic(
        self, rank: int, factor: float, start: float = 0.0, end: float = math.inf
    ) -> "FaultPlan":
        """Slow ``rank``'s sends and receives by ``factor`` during [start, end)."""
        self.nic_degradations.append(NicDegradation(rank, factor, start, end))
        return self

    def drop_messages(
        self,
        probability: float,
        src: int | None = None,
        dst: int | None = None,
        max_events: int | None = None,
    ) -> "FaultPlan":
        """Drop posted messages with ``probability`` (sender still pays)."""
        self.drops.append(MessageFaultRule(probability, src, dst, max_events))
        return self

    def duplicate_messages(
        self,
        probability: float,
        src: int | None = None,
        dst: int | None = None,
        max_events: int | None = None,
    ) -> "FaultPlan":
        """Deliver a second copy of posted messages with ``probability``."""
        self.duplicates.append(MessageFaultRule(probability, src, dst, max_events))
        return self

    # -- introspection ----------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not (
            self.crashes
            or self.crash_ops
            or self.stragglers
            or self.nic_degradations
            or self.drops
            or self.duplicates
        )

    def kinds(self) -> frozenset[str]:
        """The fault kinds this plan actually uses (subset of
        :data:`ALL_FAULT_KINDS`); what backends check capabilities against."""
        out = set()
        if self.crashes:
            out.add("crash")
        if self.crash_ops:
            out.add("crash_op")
        if self.stragglers:
            out.add("straggler")
        if self.nic_degradations:
            out.add("nic")
        if self.drops:
            out.add("drop")
        if self.duplicates:
            out.add("dup")
        return frozenset(out)

    def describe(self) -> str:
        parts = []
        for rank, t in sorted(self.crashes.items()):
            parts.append(f"crash rank {rank} @ {t:g}s")
        for rank, opn in sorted(self.crash_ops.items()):
            parts.append(f"kill rank {rank} @ op {opn}")
        for rank, f in sorted(self.stragglers.items()):
            parts.append(f"straggler rank {rank} x{f:g}")
        for d in self.nic_degradations:
            end = "inf" if math.isinf(d.end) else f"{d.end:g}"
            parts.append(f"nic rank {d.rank} x{d.factor:g} [{d.start:g}, {end})")
        for r in self.drops:
            parts.append(f"drop p={r.probability:g} {_rule_dir(r)}")
        for r in self.duplicates:
            parts.append(f"dup p={r.probability:g} {_rule_dir(r)}")
        body = "; ".join(parts) if parts else "no faults"
        return f"FaultPlan(seed={self.seed}): {body}"

    def controller(self) -> "FaultController":
        """Fresh per-run state (RNG + rule counters) for this plan."""
        return FaultController(self)

    # -- CLI spec parsing --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        Semicolon-separated clauses::

            seed=SEED
            crash:RANK@TIME
            kill:RANK@OP_INDEX
            straggler:RANK@FACTOR
            nic:RANK@FACTOR[:START-END]
            drop:PROB[@SRC->DST]
            dup:PROB[@SRC->DST]

        ``SRC``/``DST`` may each be ``*`` (any).  ``kill`` is the
        deterministic op-index variant of ``crash`` and is the form real
        process backends can honor (SIGKILL at the op boundary).  Example::

            crash:3@0.5;straggler:1@4;drop:0.05@*->0;seed=7
        """
        plan = cls()
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            try:
                plan._parse_clause(clause)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"bad fault clause {clause!r}: {exc}") from None
        return plan

    def _parse_clause(self, clause: str) -> None:
        if clause.startswith("seed="):
            self.seed = int(clause[len("seed="):])
            return
        kind, _, rest = clause.partition(":")
        if kind == "crash":
            rank, _, t = rest.partition("@")
            self.crash(int(rank), float(t))
        elif kind == "kill":
            rank, _, opn = rest.partition("@")
            self.crash_at_op(int(rank), int(opn))
        elif kind == "straggler":
            rank, _, f = rest.partition("@")
            self.straggler(int(rank), float(f))
        elif kind == "nic":
            rank, _, tail = rest.partition("@")
            factor, _, window = tail.partition(":")
            if window:
                lo, _, hi = window.partition("-")
                self.degrade_nic(int(rank), float(factor), float(lo), float(hi))
            else:
                self.degrade_nic(int(rank), float(factor))
        elif kind in ("drop", "dup"):
            prob, _, direction = rest.partition("@")
            src = dst = None
            if direction:
                s, _, d = direction.partition("->")
                src = None if s in ("", "*") else int(s)
                dst = None if d in ("", "*") else int(d)
            if kind == "drop":
                self.drop_messages(float(prob), src, dst)
            else:
                self.duplicate_messages(float(prob), src, dst)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")


def _rule_dir(rule: MessageFaultRule) -> str:
    src = "*" if rule.src is None else rule.src
    dst = "*" if rule.dst is None else rule.dst
    return f"{src}->{dst}"


# -- per-run state ---------------------------------------------------------------------


def rule_fires(
    rules: Sequence[MessageFaultRule],
    src: int,
    dst: int,
    rng: random.Random,
    fires: dict[int, int],
) -> bool:
    """Whether one of ``rules`` fires for a message posted ``src -> dst``.

    Every matching rule up to the first that fires consumes exactly one
    ``rng`` draw, whether or not it fires (a rule past its ``max_events``
    budget included), so adding a never-firing rule elsewhere does not
    perturb the stream consumed by this pair.  ``fires`` counts each
    rule's firings, keyed by ``id(rule)``.
    """
    for rule in rules:
        if not rule.matches(src, dst):
            continue
        draw = rng.random()
        fired = fires.get(id(rule), 0)
        if rule.max_events is not None and fired >= rule.max_events:
            continue
        if draw < rule.probability:
            fires[id(rule)] = fired + 1
            return True
    return False


class FaultController:
    """Mutable per-run view of a :class:`FaultPlan`.

    Owns the RNG stream and the per-rule firing counters; queried by the
    scheduler at every op.  A fresh controller per run is what makes a plan
    replayable: identical program + plan -> identical draws -> identical
    metrics.
    """

    DELIVER, DROP, DUPLICATE = "deliver", "drop", "duplicate"

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._rule_fires: dict[int, int] = {}

    def crash_time(self, rank: int) -> float | None:
        return self.plan.crashes.get(rank)

    def crash_op(self, rank: int) -> int | None:
        """Op index at which ``rank`` dies, or ``None``."""
        return self.plan.crash_ops.get(rank)

    def compute_factor(self, rank: int) -> float:
        return self.plan.stragglers.get(rank, 1.0)

    def net_factor(self, rank: int, t: float) -> float:
        factor = 1.0
        for d in self.plan.nic_degradations:
            if d.rank == rank and d.active(t):
                factor *= d.factor
        return factor

    def message_action(self, src: int, dst: int) -> str:
        """Fate of a message posted ``src -> dst``: deliver/drop/duplicate.

        Drop rules draw first, then duplicate rules (see :func:`rule_fires`).
        """
        for rules, action in ((self.plan.drops, self.DROP),
                              (self.plan.duplicates, self.DUPLICATE)):
            if rule_fires(rules, src, dst, self._rng, self._rule_fires):
                return action
        return self.DELIVER


class _NullController:
    """Zero-cost stand-in when no fault plan is given."""

    def crash_time(self, rank: int) -> None:
        return None

    def crash_op(self, rank: int) -> None:
        return None

    def compute_factor(self, rank: int) -> float:
        return 1.0

    def net_factor(self, rank: int, t: float) -> float:
        return 1.0

    def message_action(self, src: int, dst: int) -> str:
        return FaultController.DELIVER


NULL_CONTROLLER = _NullController()
