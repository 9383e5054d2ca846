"""Static SPMD protocol verification (before anything runs).

Given a partition (``bits``) and a scheduler, this module checks the rank
program the backends would execute -- every send, receive, barrier, and
ledger event, with exact element counts -- without running the simulator.
The program is not transcribed: ``Scheduler.symbolic_ops`` *records* the
real generator with shape-only inputs (:mod:`repro.analysis.model.record`)
into a :class:`~repro.analysis.model.ops.ModelProgram`.

One pairing, one static pass.  :func:`verify_schedule` builds the
program's happens-before graph once (:func:`~repro.analysis.model.hb.build_hb`,
the only place a send meets a receive) and scans its ledger once
(:func:`~repro.analysis.model.lifetime.analyze_lifetime`); every static
rule reads those two results:

- every send is paired with a receive and vice versa (SPMD001/002);
- reduction data goes to the lead of the sender's reduction group, which
  holds the node when it posts the paired receive (SPMD004);
- messages sharing a channel are ordered, barriers are rank-complete and
  the graph is acyclic (MC301/303/304);
- the ledger's per-rank high-water stays within the declared memory bound
  -- Theorem 1/4 for ``fig5`` -- and the ledger is consistent (MC307).

:func:`verify_plan` is that pass on a recorded plan, plus the one
plan-only closed-form rule: the recorded element volume equals the
scheduler's declared volume exactly -- Theorem 3's
``V = sum_j (2^k_j - 1) c_j`` for ``fig5`` (SPMD006).  The model checker
(:func:`~repro.analysis.model.checker.check_model`) reuses the same
result and adds exploration.

The same checks run on *mutated* programs
(:func:`~repro.analysis.model.ops.seed_model_defect`), which is how the
tests seed defect classes and prove each is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.model.hb import EventId, HBGraph, build_hb
from repro.analysis.model.lifetime import LifetimeResult, analyze_lifetime
from repro.analysis.model.ops import MAlloc, MFree, MRecv, MSend, ModelProgram
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node

if TYPE_CHECKING:
    from repro.sched.base import Scheduler

__all__ = ["PlanVerification", "ScheduleVerification", "verify_plan", "verify_schedule"]


def _names_node(key: Hashable, node: Node) -> bool:
    """Whether ledger ``key`` holds ``node``.

    The rank programs key their ledgers by the node itself, or by a tuple
    ending in it (the fault-tolerant program's ``(virtual rank, node)``).
    """
    return key == node or (isinstance(key, tuple) and bool(key) and key[-1] == node)


def _live_at(prog: ModelProgram, events: set[EventId]) -> dict[EventId, frozenset[Hashable]]:
    """The ledger keys each event's rank holds live when it reaches it."""
    out: dict[EventId, frozenset[Hashable]] = {}
    for rank, stream in enumerate(prog.streams):
        live: set[Hashable] = set()
        for i, op in enumerate(stream):
            if (rank, i) in events:
                out[rank, i] = frozenset(live)
            if isinstance(op, MAlloc):
                live.add(op.key)
            elif isinstance(op, MFree):
                live.discard(op.key)
    return out


def _pairing_rules(prog: ModelProgram, graph: HBGraph) -> list[Diagnostic]:
    """SPMD001/002/004, read off the graph's FIFO pairing."""
    diags: list[Diagnostic] = []
    for (src, dst, tag), ops in sorted(graph.unpaired_by_channel().items()):
        diags.append(
            Diagnostic(
                "SPMD001",
                f"{len(ops)} send(s) {src}->{dst} tag {tag} have no matching receive",
                rank=src,
                edge=ops[0].edge,
                step=ops[0].step,
                hint=f"rank {dst} must post {len(ops)} more recv(src={src}, tag={tag})",
            )
        )
    unanswered: dict[tuple[int, int, int], list[MRecv]] = {}
    for rank, i in graph.unmatched_recvs:
        rop = prog.streams[rank][i]
        assert isinstance(rop, MRecv)
        unanswered.setdefault((rop.src, rop.rank, rop.tag), []).append(rop)
    for (src, dst, tag), rops in sorted(unanswered.items()):
        diags.append(
            Diagnostic(
                "SPMD002",
                f"{len(rops)} recv(s) on rank {dst} from {src} tag "
                f"{tag} have no matching send; the rank deadlocks",
                rank=dst,
                step=rops[0].step,
                hint=f"rank {src} must post a send(dst={dst}, tag={tag}) "
                f"or the recv must be removed",
            )
        )

    # Lead correctness: reduction data must go to the lead of the sender's
    # reduction group -- labels identical except along exactly one
    # dimension, where the destination sits at coordinate 0 -- and that
    # lead must hold the node when it posts the paired receive (control
    # traffic, elements == 0, is exempt; an unpaired send is SPMD001's,
    # only its routing is judged here).
    grid = ProcessorGrid(prog.bits)
    paired_recv = {
        (src, si): (dst, ri)
        for (src, dst, _tag), plist in graph.pairs.items()
        for si, ri in plist
    }
    live = _live_at(prog, set(paired_recv.values()))
    for rank, stream in enumerate(prog.streams):
        for i, op in enumerate(stream):
            if not isinstance(op, MSend) or op.elements == 0 or op.edge is None:
                continue
            src_label = grid.label(op.rank)
            dst_label = grid.label(op.dst)
            diff = [d for d, (a, b) in enumerate(zip(src_label, dst_label)) if a != b]
            to_lead = len(diff) == 1 and dst_label[diff[0]] == 0
            recv = paired_recv.get((rank, i))
            if to_lead and recv is not None:
                to_lead = any(_names_node(held, op.edge) for held in live[recv])
            if not to_lead:
                diags.append(
                    Diagnostic(
                        "SPMD004",
                        f"send {op.rank}->{op.dst} tag {op.tag} ships node "
                        f"{op.edge} to a rank that is not the lead of rank "
                        f"{op.rank}'s reduction group",
                        rank=op.dst,
                        edge=op.edge,
                        step=op.step,
                        hint="route the partial to group[0] of the sender's "
                        "reduction group along the aggregated dimension",
                    )
                )
    return diags


@dataclass
class ScheduleVerification:
    """What the one static pass established about one recorded program."""

    #: The happens-before graph: the program's one FIFO pairing.
    hb: HBGraph
    #: The ledger scan: per-rank high-water, leaks.
    lifetime: LifetimeResult
    #: SPMD001/002/004, then the graph's MC301/303/304, then MC307.
    diagnostics: list[Diagnostic]


def verify_schedule(
    prog: ModelProgram,
    *,
    declared_bound_elements: int | None = None,
    mem_cap_bytes: int | None = None,
) -> ScheduleVerification:
    """The one static pass over a (possibly mutated) recorded program.

    Pairs every message once (:func:`~repro.analysis.model.hb.build_hb`)
    and scans the ledger once; SPMD001/002/004 and MC301/303/304 read the
    pairing, MC307 the scan (against ``declared_bound_elements`` and
    ``mem_cap_bytes`` when given).  The closed-form volume check (SPMD006)
    needs the scheduler's declared form and lives in :func:`verify_plan`.
    """
    graph = build_hb(prog)
    lifetime = analyze_lifetime(
        prog,
        declared_bound_elements=declared_bound_elements,
        mem_cap_bytes=mem_cap_bytes,
    )
    diags = _pairing_rules(prog, graph) + graph.diagnostics + lifetime.diagnostics
    return ScheduleVerification(hb=graph, lifetime=lifetime, diagnostics=diags)


@dataclass
class PlanVerification:
    """Outcome of statically verifying one (shape, bits) plan."""

    #: The recorded program (fault-free scenario).
    schedule: ModelProgram
    report: DiagnosticReport
    predicted_volume_elements: int
    closed_form_volume_elements: int
    memory_bound_elements: int
    #: Spec of the scheduler whose program was verified.
    scheduler: str
    hb: HBGraph
    lifetime: LifetimeResult

    @property
    def rank_peak_memory_elements(self) -> tuple[int, ...]:
        """The ledger's per-rank high-water (elements)."""
        return self.lifetime.rank_high_water

    @property
    def predicted_peak_memory_elements(self) -> int:
        return self.lifetime.max_high_water

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return list(self.report.diagnostics)

    def describe(self) -> str:
        # The paper's closed forms are only claimed for the fig5 schedule;
        # other schedulers verify against their own declared forms.
        if self.scheduler == "fig5":
            vol_label, mem_label = "Theorem 3", "Theorem 4 bound"
        else:
            vol_label = f"declared by {self.scheduler!r}"
            mem_label = f"memory bound declared by {self.scheduler!r}"
        head = (
            f"plan shape={self.schedule.shape} bits={self.schedule.bits} "
            f"p={self.schedule.num_ranks}: "
            f"{self.schedule.total_messages} messages, "
            f"volume {self.predicted_volume_elements} elements "
            f"({vol_label}: {self.closed_form_volume_elements}), "
            f"peak memory {self.predicted_peak_memory_elements} elements "
            f"({mem_label}: {self.memory_bound_elements})"
        )
        return head + "\n" + self.report.format()


def _record_and_verify(
    shape: Sequence[int],
    bits: Sequence[int],
    scheduler: object,
    detection_round: bool,
    mem_cap_bytes: int | None = None,
) -> tuple["Scheduler", PlanVerification]:
    """Record the plan's program once and run the static pass + SPMD006."""
    from repro.sched import resolve_scheduler

    shape = tuple(shape)
    bits = tuple(bits)
    sched = resolve_scheduler(scheduler)
    sched.validate_shape(shape)
    prog = sched.symbolic_ops(shape, bits, detection_round=detection_round)
    bound = sched.declared_memory_bound(shape, bits)
    static = verify_schedule(prog, declared_bound_elements=bound, mem_cap_bytes=mem_cap_bytes)
    report = DiagnosticReport(static.diagnostics)

    closed_form = sched.declared_volume(shape, bits)
    volume = prog.total_elements
    if volume != closed_form:
        report.add(
            Diagnostic(
                "SPMD006",
                f"recorded volume {volume} != scheduler {sched.spec!r}'s declared "
                f"closed form {closed_form}",
                hint="the scheduler's program and its declared_volume "
                "disagree on some edge's portion size",
            )
        )
    return sched, PlanVerification(
        schedule=prog,
        report=report,
        predicted_volume_elements=volume,
        closed_form_volume_elements=closed_form,
        memory_bound_elements=bound,
        scheduler=sched.spec,
        hb=static.hb,
        lifetime=static.lifetime,
    )


def verify_plan(
    shape: Sequence[int],
    bits: Sequence[int],
    detection_round: bool = False,
    scheduler: object = "fig5",
) -> PlanVerification:
    """Statically verify a partition + scheduler plan.

    Records the scheduler's rank program (``Scheduler.symbolic_ops``),
    runs the one static pass (:func:`verify_schedule`, holding the ledger
    to the scheduler's ``declared_memory_bound`` -- Theorem 1/4 for
    ``fig5``), then checks that the recorded element volume equals the
    scheduler's declared volume exactly -- Theorem 3 for the default
    ``fig5`` schedule -- (SPMD006).

    ``scheduler`` is a registered spec or a
    :class:`~repro.sched.base.Scheduler` instance.  ``detection_round``
    verifies the fault-tolerant program instead (barrier + heartbeats);
    schedulers without one reject it.
    """
    return _record_and_verify(shape, bits, scheduler, detection_round)[1]
