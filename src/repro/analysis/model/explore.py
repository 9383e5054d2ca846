"""Exhaustive interleaving exploration with partial-order reduction.

The explorer executes a :class:`ModelProgram` over *every* relevant
interleaving and certifies deadlock freedom (or produces a wait-for-graph
counterexample, MC305/MC306) while flagging ambiguous receive matches
(MC302).

**State.** ``(program counters, in-flight channel counts)``.  Memory ops
are invisible (they touch nothing another rank observes) and are stepped
through eagerly; sends are non-blocking; a receive is enabled when its
``(src, dst, tag)`` channel has a message in flight; a barrier releases
all arrivals at once when every unfinished rank has arrived.

**Reduction.** Every channel in every registered scheduler has exactly
one sending and one receiving rank (tags encode the step), so two
transitions conflict only when they are a *send* and a *receive
co-enabled on the same channel* -- every other pair commutes and neither
enables nor disables the other while co-enabled.  The explorer therefore
picks one enabled transition (sends before barrier release before
receives, lowest rank first) and branches only on transitions dependent
with the pick; together with a visited-state cache this is a persistent-
set reduction in the sense of Godefroid-style DPOR.  Clean programs
explore in time linear in the op count; genuine branching appears only
around defects (a co-enabled send/receive on one channel is exactly the
MC301/MC302 situation).

**Timeouts.** A timeout-capable receive (the FT heartbeats) fires empty
only in *globally stuck* states, lowest rank first.  For the protocols
modeled here this is exact, not an approximation: a live peer's heartbeat
send sits directly after the barrier that every live rank has already
passed, with only other non-blocking sends before it -- so whenever a
heartbeat receive is blocked in a stuck state, its sender is provably
dead or finished and the message can never arrive.

**Faults.** ``kill=(rank, op_index)`` truncates that rank's stream, the
static counterpart of a crash at that point.  (FT programs recorded by
:func:`~repro.analysis.model.record.record_program` bake the kill into
the streams themselves, including each survivor's *perceived* dead set;
plain programs are truncated here.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model.ops import (
    MAlloc,
    MBarrier,
    MFree,
    MRecv,
    MSend,
    ModelProgram,
    truncate_at,
)

__all__ = ["ExploreResult", "explore"]

#: A channel: ``(src, dst, tag)``.
Channel = tuple[int, int, int]
#: A transition: ``("step", rank)`` advances one rank past its current
#: comm op; ``("barrier", -1)`` releases a complete barrier episode;
#: ``("timeout", rank)`` fires a stuck timeout receive empty.
Transition = tuple[str, int]


@dataclass
class ExploreResult:
    """Outcome of one exploration run."""

    certified: bool
    diagnostics: list[Diagnostic] = field(default_factory=list)
    states: int = 0
    transitions: int = 0
    branch_points: int = 0
    terminals: int = 0
    timeouts_fired: int = 0
    #: True when the run hit ``max_states`` and gave up (never certified).
    truncated: bool = False

    def summary(self) -> str:
        verdict = (
            "certified deadlock-free"
            if self.certified
            else ("exploration truncated" if self.truncated else "NOT certified")
        )
        return (
            f"{verdict}: {self.states} states, {self.transitions} "
            f"transitions, {self.branch_points} branch point(s), "
            f"{self.terminals} terminal(s), {self.timeouts_fired} "
            f"timeout(s) fired"
        )


def _skip_invisible(stream: tuple[object, ...], pc: int) -> int:
    """Advance past memory-ledger ops (invisible to other ranks)."""
    while pc < len(stream) and isinstance(stream[pc], (MAlloc, MFree)):
        pc += 1
    return pc


def explore(
    prog: ModelProgram,
    *,
    kill: tuple[int, int] | None = None,
    max_states: int = 200_000,
) -> ExploreResult:
    """Explore every relevant interleaving of ``prog``.

    Returns a certified result when every reachable execution terminates
    with all ranks finished; otherwise the diagnostics carry the wait-for
    graph of the first stuck state found (MC305, or MC306 when a fault
    scenario is active and a survivor blocks on the dead rank).
    """
    scenario = kill if kill is not None else prog.kill
    fault_active = scenario is not None
    dead_rank: int | None = scenario[0] if scenario is not None else None
    if kill is not None:
        prog = truncate_at(prog, kill)
    streams = prog.streams
    num_ranks = prog.num_ranks

    result = ExploreResult(certified=False)
    seen_ambiguous: set[Channel] = set()
    deadlock_reported = False

    init_pcs = tuple(_skip_invisible(streams[r], 0) for r in range(num_ranks))
    init_state = (init_pcs, ())
    visited: set[tuple[tuple[int, ...], tuple[tuple[Channel, int], ...]]] = set()
    stack = [init_state]

    def enabled(
        pcs: tuple[int, ...], channels: dict[Channel, int]
    ) -> list[Transition]:
        out: list[Transition] = []
        all_at_barrier = True
        any_unfinished = False
        for r in range(num_ranks):
            pc = pcs[r]
            if pc >= len(streams[r]):
                continue
            any_unfinished = True
            op = streams[r][pc]
            if isinstance(op, MSend):
                out.append(("step", r))
                all_at_barrier = False
            elif isinstance(op, MRecv):
                all_at_barrier = False
                if channels.get((op.src, op.rank, op.tag), 0) > 0:
                    out.append(("step", r))
            elif isinstance(op, MBarrier):
                pass
            else:  # pragma: no cover - invisible ops are pre-skipped
                raise AssertionError(f"unexpected op at pc: {op!r}")
        if any_unfinished and all_at_barrier:
            out.append(("barrier", -1))
        # Preference order: sends (lowest rank), then barrier, then recvs.
        def pref(t: Transition) -> tuple[int, int]:
            kind, r = t
            if kind == "step" and isinstance(streams[r][pcs[r]], MSend):
                return (0, r)
            if kind == "barrier":
                return (1, -1)
            return (2, r)

        out.sort(key=pref)
        return out

    def apply(
        pcs: tuple[int, ...],
        channels: dict[Channel, int],
        t: Transition,
    ) -> tuple[tuple[int, ...], dict[Channel, int]]:
        kind, r = t
        new_pcs = list(pcs)
        new_channels = dict(channels)
        if kind == "barrier":
            for q in range(num_ranks):
                if new_pcs[q] < len(streams[q]):
                    new_pcs[q] = _skip_invisible(streams[q], new_pcs[q] + 1)
            return tuple(new_pcs), new_channels
        op = streams[r][pcs[r]]
        if isinstance(op, MSend):
            key = (op.rank, op.dst, op.tag)
            new_channels[key] = new_channels.get(key, 0) + 1
        elif isinstance(op, MRecv):
            key = (op.src, op.rank, op.tag)
            if kind == "step":
                in_flight = new_channels.get(key, 0)
                if in_flight >= 2 and key not in seen_ambiguous:
                    seen_ambiguous.add(key)
                    result.diagnostics.append(
                        Diagnostic(
                            "MC302",
                            f"rank {op.rank} matches a receive on channel "
                            f"{op.src}->{op.rank} tag {op.tag} while "
                            f"{in_flight} messages are in flight; which "
                            f"payload it pairs with depends on the "
                            f"scheduler",
                            rank=op.rank,
                            step=op.step,
                            hint="tag concurrent messages distinctly, or "
                            "order the sends behind the earlier receive",
                        )
                    )
                new_count = in_flight - 1
                if new_count:
                    new_channels[key] = new_count
                else:
                    new_channels.pop(key, None)
            else:  # timeout: the receive completes without consuming
                result.timeouts_fired += 1
        new_pcs[r] = _skip_invisible(streams[r], pcs[r] + 1)
        return tuple(new_pcs), new_channels

    def report_stuck(
        pcs: tuple[int, ...], channels: dict[Channel, int]
    ) -> None:
        nonlocal deadlock_reported
        if deadlock_reported:
            return
        deadlock_reported = True
        waits: list[str] = []
        blocks_on_dead = False
        for r in range(num_ranks):
            pc = pcs[r]
            if pc >= len(streams[r]):
                continue
            op = streams[r][pc]
            if isinstance(op, MRecv):
                waits.append(
                    f"rank {r} waits-for rank {op.src} "
                    f"(recv tag {op.tag}, step {op.step})"
                )
                if fault_active and op.src == dead_rank:
                    blocks_on_dead = True
            elif isinstance(op, MBarrier):
                absent = [
                    q
                    for q in range(num_ranks)
                    if pcs[q] < len(streams[q])
                    and not isinstance(streams[q][pcs[q]], MBarrier)
                ]
                waits.append(
                    f"rank {r} waits-for rank(s) "
                    f"{', '.join(map(str, absent)) or '<none>'} at a barrier"
                )
            elif isinstance(op, MSend):  # pragma: no cover - sends never block
                waits.append(f"rank {r} stalled at a send (impossible)")
        wait_for = "; ".join(waits) or "all ranks finished(?)"
        if fault_active and blocks_on_dead:
            result.diagnostics.append(
                Diagnostic(
                    "MC306",
                    f"with rank {dead_rank} killed, the survivors reach a "
                    f"state in which no rank can step; wait-for graph: "
                    f"{wait_for}",
                    rank=dead_rank,
                    hint="a receive from the dead rank has no timeout "
                    "fallback; use the fault-tolerant schedule "
                    "(detection_round=True) or a supervised backend",
                )
            )
        else:
            result.diagnostics.append(
                Diagnostic(
                    "MC305",
                    f"exploration reached a stuck state; wait-for graph: "
                    f"{wait_for}",
                    hint="the cycle (or the missing sender) in the "
                    "wait-for graph is the counterexample interleaving",
                )
            )

    while stack:
        pcs, frozen_channels = stack.pop()
        key = (pcs, frozen_channels)
        if key in visited:
            continue
        visited.add(key)
        result.states += 1
        if result.states > max_states:
            result.truncated = True
            result.diagnostics.append(
                Diagnostic(
                    "MC305",
                    f"exploration exceeded {max_states} states without "
                    f"covering the program; deadlock freedom NOT certified",
                    hint="raise max_states or shrink the config "
                    "(p in {2,4,8}, dims <= 5 are the supported envelope)",
                )
            )
            break
        channels = dict(frozen_channels)
        trans = enabled(pcs, channels)
        if not trans:
            # Globally stuck: fire the lowest-rank timeout receive, else
            # report the deadlock (or record a clean terminal).
            timeout_rank = next(
                (
                    r
                    for r in range(num_ranks)
                    if pcs[r] < len(streams[r])
                    and isinstance(streams[r][pcs[r]], MRecv)
                    and streams[r][pcs[r]].timeout  # type: ignore[union-attr]
                ),
                None,
            )
            if timeout_rank is not None:
                new_pcs, new_channels = apply(
                    pcs, channels, ("timeout", timeout_rank)
                )
                result.transitions += 1
                stack.append(
                    (new_pcs, tuple(sorted(new_channels.items())))
                )
                continue
            if all(pcs[r] >= len(streams[r]) for r in range(num_ranks)):
                result.terminals += 1
                continue
            report_stuck(pcs, channels)
            continue
        chosen = trans[0]
        explore_set = [chosen]
        # Persistent-set closure: a chosen send (receive) on channel c is
        # dependent with every co-enabled receive (send) on c.
        ckind, crank = chosen
        if ckind == "step":
            cop = streams[crank][pcs[crank]]
            if isinstance(cop, (MSend, MRecv)):
                ckey = (
                    (cop.rank, cop.dst, cop.tag)
                    if isinstance(cop, MSend)
                    else (cop.src, cop.rank, cop.tag)
                )
                for t in trans[1:]:
                    tkind, trank = t
                    if tkind != "step":
                        continue
                    top = streams[trank][pcs[trank]]
                    if isinstance(top, MSend):
                        tkey = (top.rank, top.dst, top.tag)
                    elif isinstance(top, MRecv):
                        tkey = (top.src, top.rank, top.tag)
                    else:  # pragma: no cover
                        continue
                    if tkey == ckey and type(top) is not type(cop):
                        explore_set.append(t)
        if len(explore_set) > 1:
            result.branch_points += 1
        for t in explore_set:
            new_pcs, new_channels = apply(pcs, channels, t)
            result.transitions += 1
            stack.append((new_pcs, tuple(sorted(new_channels.items()))))

    result.certified = (
        not result.truncated
        and not deadlock_reported
        and not any(d.is_error for d in result.diagnostics)
    )
    return result
