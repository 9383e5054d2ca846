"""Static SPMD protocol verification (before anything runs).

Given a partition (``bits``) and a scheduler, this module checks the rank
program the backends would execute -- every send, receive, barrier, and
ledger event, with exact element counts -- without running the simulator.
The program is not transcribed: ``Scheduler.symbolic_ops`` *records* the
real generator with shape-only inputs (:mod:`repro.analysis.model.record`)
into a :class:`~repro.analysis.model.ops.ModelProgram`, and the rules run
on those per-rank streams:

- every send has exactly one matching receive (SPMD001/002);
- no ``(src, dst, tag)`` channel is used twice (SPMD003);
- reduction data goes to the lead of the sender's reduction group, which
  holds the node when it posts the matching receive (SPMD004);
- every barrier is rank-complete (SPMD005);
- the recorded element volume equals the scheduler's declared closed form
  exactly -- Theorem 3's ``V = sum_j (2^k_j - 1) c_j`` for ``fig5``
  (SPMD006);
- the ledger's per-rank high-water stays within the declared memory bound
  -- Theorem 1/4 for ``fig5`` (SPMD007).

The same checks run on *mutated* programs
(:func:`~repro.analysis.model.ops.seed_model_defect`), which is how the
tests seed defect classes (dropped recv, tag collision, wrong lead,
barrier skip) and prove each is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.model.lifetime import analyze_lifetime
from repro.analysis.model.ops import MAlloc, MBarrier, MFree, MRecv, MSend, ModelProgram
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node

__all__ = ["PlanVerification", "verify_plan", "verify_schedule"]

#: A channel: ``(src, dst, tag)``.
_Channel = tuple[int, int, int]


def _names_node(key: Hashable, node: Node) -> bool:
    """Whether ledger ``key`` holds ``node``.

    The rank programs key their ledgers by the node itself, or by a tuple
    ending in it (the fault-tolerant program's ``(virtual rank, node)``).
    """
    return key == node or (isinstance(key, tuple) and bool(key) and key[-1] == node)


def verify_schedule(prog: ModelProgram) -> list[Diagnostic]:
    """Protocol checks on a (possibly mutated) recorded program.

    Covers SPMD001-005; the closed-form checks (SPMD006/007) need the
    scheduler's declared forms and live in :func:`verify_plan`.
    """
    grid = ProcessorGrid(prog.bits)
    diags: list[Diagnostic] = []

    # Per channel, in program order: the sends, and for each receive the
    # ledger keys its rank holds live at the moment it is posted.
    sends: dict[_Channel, list[MSend]] = {}
    recvs: dict[_Channel, list[tuple[MRecv, frozenset[Hashable]]]] = {}
    barriers = [0] * prog.num_ranks
    for rank, stream in enumerate(prog.streams):
        live: set[Hashable] = set()
        for op in stream:
            if isinstance(op, MSend):
                sends.setdefault((op.rank, op.dst, op.tag), []).append(op)
            elif isinstance(op, MRecv):
                recvs.setdefault((op.src, op.rank, op.tag), []).append((op, frozenset(live)))
            elif isinstance(op, MBarrier):
                barriers[rank] += 1
            elif isinstance(op, MAlloc):
                live.add(op.key)
            elif isinstance(op, MFree):
                live.discard(op.key)

    # 1. Multiset matching per channel: every send must have exactly one
    # receive and vice versa.
    for key in sorted(set(sends) | set(recvs)):
        src, dst, tag = key
        n_send = len(sends.get(key, []))
        n_recv = len(recvs.get(key, []))
        if n_send > n_recv:
            op = sends[key][n_recv]
            diags.append(
                Diagnostic(
                    "SPMD001",
                    f"{n_send - n_recv} send(s) {src}->{dst} tag {tag} have no matching receive",
                    rank=src,
                    edge=op.edge,
                    step=op.step,
                    hint=f"rank {dst} must post {n_send - n_recv} more "
                    f"recv(src={src}, tag={tag})",
                )
            )
        elif n_recv > n_send:
            rop = recvs[key][n_send][0]
            diags.append(
                Diagnostic(
                    "SPMD002",
                    f"{n_recv - n_send} recv(s) on rank {dst} from {src} tag "
                    f"{tag} have no matching send; the rank deadlocks",
                    rank=dst,
                    step=rop.step,
                    hint=f"rank {src} must post a send(dst={dst}, tag={tag}) "
                    f"or the recv must be removed",
                )
            )

    # 2. Channel reuse: every program tags a message with its schedule
    # step (and, fault-tolerant, its virtual sender), so a channel carries
    # one message per run.  Whether a reuse is an actual race depends on
    # happens-before order -- that precise form is MC301.
    for key in sorted(sends):
        if len(sends[key]) > 1:
            src, dst, tag = key
            op = sends[key][1]
            diags.append(
                Diagnostic(
                    "SPMD003",
                    f"channel {src}->{dst} tag {tag} is used by "
                    f"{len(sends[key])} messages",
                    rank=src,
                    edge=op.edge,
                    step=op.step,
                    hint="tag reduction messages with their step index so "
                    "no two messages share a channel",
                )
            )

    # 3. Lead correctness: reduction data must go to the lead of the
    # sender's reduction group -- labels identical except along exactly one
    # dimension, where the destination sits at coordinate 0 -- and that lead
    # must hold the node when it posts the matching receive (control
    # traffic, elements == 0, is exempt; a send with no matching receive
    # is SPMD001's, only its routing is judged here).
    for key in sorted(sends):
        matched = recvs.get(key, [])
        for k, op in enumerate(sends[key]):
            if op.elements == 0 or op.edge is None:
                continue
            src_label = grid.label(op.rank)
            dst_label = grid.label(op.dst)
            diff = [d for d, (a, b) in enumerate(zip(src_label, dst_label)) if a != b]
            to_lead = len(diff) == 1 and dst_label[diff[0]] == 0
            if to_lead and k < len(matched):
                to_lead = any(_names_node(held, op.edge) for held in matched[k][1])
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

    # 4. Barrier completeness: every rank must join every episode.
    for episode in range(max(barriers, default=0)):
        missing = [r for r, count in enumerate(barriers) if count <= episode]
        if missing:
            diags.append(
                Diagnostic(
                    "SPMD005",
                    f"barrier episode {episode} is missing rank(s) {missing}; "
                    f"participants would wait forever",
                    hint="every live rank must yield the barrier op",
                )
            )
    return diags


@dataclass
class PlanVerification:
    """Outcome of statically verifying one (shape, bits) plan."""

    schedule: ModelProgram
    report: DiagnosticReport
    predicted_volume_elements: int
    closed_form_volume_elements: int
    predicted_peak_memory_elements: int
    memory_bound_elements: int
    #: Spec of the scheduler whose program was verified.
    scheduler: str = "fig5"
    #: The ledger's per-rank high-water (elements); its max is
    #: ``predicted_peak_memory_elements``.
    rank_peak_memory_elements: tuple[int, ...] = ()

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


def verify_plan(
    shape: Sequence[int],
    bits: Sequence[int],
    detection_round: bool = False,
    scheduler: object = "fig5",
) -> PlanVerification:
    """Statically verify a partition + scheduler plan.

    Records the scheduler's rank program (``Scheduler.symbolic_ops``), runs
    every protocol check of :func:`verify_schedule` on it, then checks the
    closed forms: the recorded element volume must equal the scheduler's
    declared volume exactly -- Theorem 3 for the default ``fig5`` schedule
    -- (SPMD006), and the ledger's per-rank high-water must stay within the
    scheduler's declared memory bound -- Theorem 1/4 for ``fig5`` --
    (SPMD007).

    ``scheduler`` is a registered spec or a
    :class:`~repro.sched.base.Scheduler` instance.  ``detection_round``
    verifies the fault-tolerant program instead (barrier + heartbeats);
    schedulers without one reject it.
    """
    from repro.sched import resolve_scheduler

    shape = tuple(shape)
    bits = tuple(bits)
    sched_obj = resolve_scheduler(scheduler)
    sched_obj.validate_shape(shape)
    spec = sched_obj.spec
    prog = sched_obj.symbolic_ops(shape, bits, detection_round=detection_round)
    report = DiagnosticReport(verify_schedule(prog))

    closed_form = sched_obj.declared_volume(shape, bits)
    volume = prog.total_elements
    if volume != closed_form:
        report.add(
            Diagnostic(
                "SPMD006",
                f"recorded volume {volume} != scheduler {spec!r}'s declared "
                f"closed form {closed_form}",
                hint="the scheduler's program and its declared_volume "
                "disagree on some edge's portion size",
            )
        )

    bound = sched_obj.declared_memory_bound(shape, bits)
    peaks = analyze_lifetime(prog).rank_high_water
    peak = max(peaks, default=0)
    if peak > bound:
        worst = peaks.index(peak)
        report.add(
            Diagnostic(
                "SPMD007",
                f"ledger peak {peak} elements on rank {worst} exceeds "
                f"scheduler {spec!r}'s declared memory bound {bound}",
                rank=worst,
                hint="free partials as soon as they are shipped or "
                "written back, or raise the declared bound",
            )
        )

    return PlanVerification(
        schedule=prog,
        report=report,
        predicted_volume_elements=volume,
        closed_form_volume_elements=closed_form,
        predicted_peak_memory_elements=peak,
        memory_bound_elements=bound,
        scheduler=spec,
        rank_peak_memory_elements=peaks,
    )
