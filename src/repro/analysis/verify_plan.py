"""Static SPMD protocol verification (before anything runs).

Given a partition (``bits``) and an aggregation-tree plan, this module
*symbolically* enumerates the communication schedule that
:func:`repro.core.parallel.construct_cube_parallel` would execute -- every
send, receive, and barrier, with exact element counts -- without running
the simulator.  The enumeration is then checked against the protocol
invariants the scheduler would otherwise only discover dynamically (as a
``DeadlockError`` at depth) and against the paper's closed forms:

- every send has exactly one matching receive, posted to the correct lead
  rank of its reduction group (SPMD001/002/004);
- no two messages are in flight concurrently on one ``(src, dst, tag)``
  channel (SPMD003);
- every barrier is rank-complete (SPMD005);
- the enumerated element volume equals Theorem 3's
  ``V = sum_j (2^k_j - 1) c_j`` exactly (SPMD006);
- the symbolic held-results peak stays within the Theorem 1/4 memory bound
  (SPMD007).

The same checks run on *mutated* schedules, which is how the tests seed
defect classes (dropped recv, tag collision, wrong lead, barrier skip) and
prove each is caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.arrays.chunking import grid_block_lengths, portion_elements
from repro.cluster.topology import ProcessorGrid
from repro.core.comm_model import total_comm_volume
from repro.core.lattice import Node
from repro.core.memory_model import parallel_memory_bound_exact
from repro.sched.fig5 import _HB_TAG
from repro.sched.steps import PFinalize, PLocalAggregate, PStep, PWriteBack

__all__ = [
    "CommSchedule",
    "PlanVerification",
    "SymBarrier",
    "SymOp",
    "SymRecv",
    "SymSend",
    "enumerate_comm_schedule",
    "seed_defect",
    "verify_plan",
    "verify_schedule",
]


# -- symbolic operations ----------------------------------------------------


@dataclass(frozen=True)
class SymSend:
    """One send the plan will post: ``src -> dst`` on ``tag``.

    ``elements`` is the payload's exact element count (0 for control
    messages); ``edge`` is the aggregation-tree child being finalized.
    """

    src: int
    dst: int
    tag: int
    elements: int
    step: int
    edge: Node | None = None


@dataclass(frozen=True)
class SymRecv:
    """One receive the plan will block on: ``rank`` awaits ``src`` on ``tag``."""

    rank: int
    src: int
    tag: int
    step: int
    edge: Node | None = None


@dataclass(frozen=True)
class SymBarrier:
    """One global barrier; ``ranks`` are the participants."""

    ranks: tuple[int, ...]
    step: int


SymOp = SymSend | SymRecv | SymBarrier


# -- the enumerated schedule ------------------------------------------------


@dataclass
class CommSchedule:
    """The statically enumerated communication schedule of one plan."""

    shape: tuple[int, ...]
    bits: tuple[int, ...]
    num_ranks: int
    ops: list[SymOp] = field(default_factory=list)
    #: Per-rank symbolic held-results peaks (elements).
    rank_peak_memory_elements: list[int] = field(default_factory=list)

    @property
    def total_elements(self) -> int:
        """Total data volume of all enumerated sends (elements)."""
        return sum(op.elements for op in self.ops if isinstance(op, SymSend))

    @property
    def total_messages(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, SymSend))

    @property
    def max_peak_memory_elements(self) -> int:
        return max(self.rank_peak_memory_elements, default=0)


def enumerate_comm_schedule(
    shape: Sequence[int],
    bits: Sequence[int],
    schedule: Sequence[PStep] | None = None,
    detection_round: bool = False,
) -> CommSchedule:
    """Symbolically execute the Fig 5 plan; no simulator, no data.

    Mirrors :func:`repro.sched.fig5.make_fig5_program` exactly: for every
    ``PFinalize`` step, each reduction group's non-leads send their partial
    (sized by the lead's portion of the child) to the lead, tagged with the
    step index; the lead receives in group order.  ``detection_round=True``
    prepends the fault-tolerant program's failure-detection phase (one
    global barrier plus all-to-all heartbeats) so barrier/heartbeat
    protocols are verifiable too.

    Also tracks the held-results memory ledger per rank (alloc on local
    aggregation, free on ship-away/write-back), yielding the symbolic
    per-rank peaks that Theorem 4 bounds.
    """
    shape = tuple(shape)
    bits = tuple(bits)
    if len(shape) != len(bits):
        raise ValueError("shape and bits must have equal length")
    n = len(shape)
    grid = ProcessorGrid(bits)
    lengths = grid_block_lengths(shape, grid.parts)
    labels = [grid.label(r) for r in range(grid.size)]
    if schedule is None:
        from repro.sched.fig5 import fig5_schedule

        schedule = fig5_schedule(n)

    ops: list[SymOp] = []
    current = [0] * grid.size
    peak = [0] * grid.size

    if detection_round:
        ops.append(SymBarrier(tuple(range(grid.size)), step=-1))
        for src in range(grid.size):
            for dst in range(grid.size):
                if dst != src:
                    ops.append(SymSend(src, dst, _HB_TAG, 0, step=-1))
        for rank in range(grid.size):
            for src in range(grid.size):
                if src != rank:
                    ops.append(SymRecv(rank, src, _HB_TAG, step=-1))

    for step_idx, step in enumerate(schedule):
        if isinstance(step, PLocalAggregate):
            for rank in range(grid.size):
                if not grid.holds_node(rank, step.node):
                    continue
                for child in step.children:
                    current[rank] += portion_elements(child, labels[rank], lengths)
                peak[rank] = max(peak[rank], current[rank])
        elif isinstance(step, PFinalize):
            if grid.parts[step.dim] == 1:
                continue  # dimension not partitioned: already final
            for lead in grid.holders(step.child):
                group = grid.reduction_group(lead, step.dim)
                elements = portion_elements(step.child, labels[lead], lengths)
                for member in group[1:]:
                    ops.append(
                        SymSend(member, lead, step_idx, elements, step=step_idx, edge=step.child)
                    )
                for member in group[1:]:
                    ops.append(SymRecv(lead, member, step_idx, step=step_idx, edge=step.child))
                    current[member] -= elements
        elif isinstance(step, PWriteBack):
            for rank in range(grid.size):
                if not grid.holds_node(rank, step.node):
                    continue
                current[rank] -= portion_elements(step.node, labels[rank], lengths)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")

    return CommSchedule(
        shape=shape,
        bits=bits,
        num_ranks=grid.size,
        ops=ops,
        rank_peak_memory_elements=peak,
    )


# -- protocol verification --------------------------------------------------


def verify_schedule(sched: CommSchedule) -> list[Diagnostic]:
    """Protocol checks on an (possibly mutated) enumerated schedule.

    Covers SPMD001-005; the closed-form checks (SPMD006/007) need the plan
    context and live in :func:`verify_plan`.
    """
    grid = ProcessorGrid(sched.bits)
    diags: list[Diagnostic] = []

    # 1. Multiset matching per (src, dst, tag) channel: every send must
    # have exactly one receive and vice versa.
    sends: dict[tuple[int, int, int], list[SymSend]] = {}
    recvs: dict[tuple[int, int, int], list[SymRecv]] = {}
    for op in sched.ops:
        if isinstance(op, SymSend):
            sends.setdefault((op.src, op.dst, op.tag), []).append(op)
        elif isinstance(op, SymRecv):
            recvs.setdefault((op.src, op.rank, op.tag), []).append(op)
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
            rop = recvs[key][n_send]
            diags.append(
                Diagnostic(
                    "SPMD002",
                    f"{n_recv - n_send} recv(s) on rank {dst} from {src} tag "
                    f"{tag} have no matching send; the rank deadlocks",
                    rank=dst,
                    edge=rop.edge,
                    step=rop.step,
                    hint=f"rank {src} must post a send(dst={dst}, tag={tag}) "
                    f"or the recv must be removed",
                )
            )

    # 2. Concurrency: walking in program order, a channel may hold at most
    # one in-flight message (the plan's tags are step-unique by design).
    in_flight: dict[tuple[int, int, int], int] = {}
    collided: set[tuple[int, int, int]] = set()
    for op in sched.ops:
        if isinstance(op, SymSend):
            key = (op.src, op.dst, op.tag)
            in_flight[key] = in_flight.get(key, 0) + 1
            if in_flight[key] > 1 and key not in collided:
                collided.add(key)
                diags.append(
                    Diagnostic(
                        "SPMD003",
                        f"channel {op.src}->{op.dst} tag {op.tag} carries "
                        f"{in_flight[key]} concurrent in-flight messages",
                        rank=op.src,
                        edge=op.edge,
                        step=op.step,
                        hint="tag reduction messages with their step index so "
                        "concurrent edges use distinct tags",
                    )
                )
        elif isinstance(op, SymRecv):
            key = (op.src, op.rank, op.tag)
            if in_flight.get(key, 0) > 0:
                in_flight[key] -= 1

    # 3. Lead correctness: reduction data must go to the lead of the
    # sender's reduction group -- labels identical except along exactly one
    # dimension, where the destination sits at coordinate 0 -- and that lead
    # must hold the child (control traffic, elements == 0, is exempt).
    for op in sched.ops:
        if isinstance(op, SymSend) and op.edge is not None and op.elements > 0:
            src_label = grid.label(op.src)
            dst_label = grid.label(op.dst)
            diff = [d for d, (a, b) in enumerate(zip(src_label, dst_label)) if a != b]
            one_dim_to_zero = len(diff) == 1 and dst_label[diff[0]] == 0
            is_lead = one_dim_to_zero and grid.holds_node(op.dst, op.edge)
            if not is_lead:
                diags.append(
                    Diagnostic(
                        "SPMD004",
                        f"send {op.src}->{op.dst} tag {op.tag} ships child "
                        f"{op.edge} to a rank that is not the lead of rank "
                        f"{op.src}'s reduction group",
                        rank=op.dst,
                        edge=op.edge,
                        step=op.step,
                        hint="route the partial to group[0] of the sender's "
                        "reduction group along the aggregated dimension",
                    )
                )

    # 4. Barrier completeness: every rank must participate.
    everyone = tuple(range(sched.num_ranks))
    for op in sched.ops:
        if isinstance(op, SymBarrier) and tuple(sorted(op.ranks)) != everyone:
            missing = sorted(set(everyone) - set(op.ranks))
            diags.append(
                Diagnostic(
                    "SPMD005",
                    f"barrier at step {op.step} is missing rank(s) {missing}; "
                    f"participants would wait forever",
                    step=op.step,
                    hint="every live rank must yield the barrier op",
                )
            )
    return diags


# -- end-to-end plan verification -------------------------------------------


@dataclass
class PlanVerification:
    """Outcome of statically verifying one (shape, bits) plan."""

    schedule: CommSchedule
    report: DiagnosticReport
    predicted_volume_elements: int
    closed_form_volume_elements: int
    predicted_peak_memory_elements: int
    memory_bound_elements: int
    #: Spec of the scheduler whose comm schedule was verified.
    scheduler: str = "fig5"

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
    schedule: Sequence[PStep] | None = None,
    detection_round: bool = False,
    scheduler: object | None = None,
) -> PlanVerification:
    """Statically verify a partition + scheduler plan.

    Runs every protocol check of :func:`verify_schedule` on the enumerated
    schedule, then checks the closed forms: the enumerated element volume
    must equal the scheduler's declared volume exactly -- Theorem 3 for the
    default ``fig5`` schedule -- (SPMD006), and the symbolic per-rank
    memory peak must stay within the scheduler's declared memory bound --
    Theorem 1/4 for ``fig5`` -- (SPMD007).

    ``scheduler`` selects whose communication schedule to enumerate (a
    registered spec or :class:`~repro.sched.base.Scheduler` instance);
    it is mutually exclusive with the fig5-specific ``schedule`` override
    and ``detection_round``.
    """
    shape = tuple(shape)
    bits = tuple(bits)

    is_fig5 = scheduler is None or (isinstance(scheduler, str) and scheduler == "fig5")
    if not is_fig5:
        if schedule is not None or detection_round:
            raise ValueError(
                "scheduler= is mutually exclusive with the fig5-specific "
                "schedule= and detection_round= overrides"
            )
        from repro.sched import resolve_scheduler

        sched_obj = resolve_scheduler(scheduler)
        sched_obj.validate_shape(shape)
        sym = sched_obj.enumerate_comm(shape, bits)
        report = DiagnosticReport(verify_schedule(sym))
        spec = sched_obj.spec
        closed_form = sched_obj.declared_volume(shape, bits)
        if sym.total_elements != closed_form:
            report.add(
                Diagnostic(
                    "SPMD006",
                    f"enumerated volume {sym.total_elements} != scheduler "
                    f"{spec!r}'s declared closed form {closed_form}",
                    hint="the scheduler's program and its declared_volume "
                    "disagree on some edge's portion size",
                )
            )
        bound = sched_obj.declared_memory_bound(shape, bits)
        peak = sym.max_peak_memory_elements
        if peak > bound:
            worst = max(range(sym.num_ranks), key=lambda r: sym.rank_peak_memory_elements[r])
            report.add(
                Diagnostic(
                    "SPMD007",
                    f"symbolic peak {peak} elements on rank {worst} exceeds "
                    f"scheduler {spec!r}'s declared memory bound {bound}",
                    rank=worst,
                    hint="free partials as soon as they are shipped or "
                    "written back, or raise the declared bound",
                )
            )
        return PlanVerification(
            schedule=sym,
            report=report,
            predicted_volume_elements=sym.total_elements,
            closed_form_volume_elements=closed_form,
            predicted_peak_memory_elements=peak,
            memory_bound_elements=bound,
            scheduler=spec,
        )

    default_schedule = schedule is None
    sym = enumerate_comm_schedule(
        shape,
        bits,
        schedule=schedule,
        detection_round=detection_round,
    )
    report = DiagnosticReport(verify_schedule(sym))

    closed_form = total_comm_volume(shape, bits)
    if default_schedule and sym.total_elements != closed_form:
        report.add(
            Diagnostic(
                "SPMD006",
                f"enumerated volume {sym.total_elements} != Theorem 3 closed "
                f"form {closed_form}",
                hint="the schedule finalizes some child on the wrong edge or "
                "with the wrong portion size",
            )
        )

    bound = parallel_memory_bound_exact(shape, bits)
    peak = sym.max_peak_memory_elements
    if peak > bound:
        worst = max(range(sym.num_ranks), key=lambda r: sym.rank_peak_memory_elements[r])
        report.add(
            Diagnostic(
                "SPMD007",
                f"symbolic peak {peak} elements on rank {worst} exceeds the "
                f"Theorem 4 bound {bound}",
                rank=worst,
                hint="free non-lead partials right after they are shipped and "
                "write nodes back as soon as their last child is finalized",
            )
        )

    return PlanVerification(
        schedule=sym,
        report=report,
        predicted_volume_elements=sym.total_elements,
        closed_form_volume_elements=closed_form,
        predicted_peak_memory_elements=peak,
        memory_bound_elements=bound,
    )


# -- defect seeding (shared by tests and docs examples) ---------------------


def seed_defect(sched: CommSchedule, kind: str) -> CommSchedule:
    """Return a copy of ``sched`` with one protocol defect injected.

    ``kind`` is one of ``dropped-recv`` (delete a lead's receive),
    ``tag-collision`` (put a second message in flight on a live channel),
    ``wrong-lead`` (reroute one data send to a non-lead rank), and
    ``barrier-skip`` (remove one rank from a barrier; requires a schedule
    enumerated with ``detection_round=True``).  Used by the property tests
    to prove each defect class yields a non-empty diagnostic list.
    """
    ops = list(sched.ops)
    data_sends = [i for i, op in enumerate(ops) if isinstance(op, SymSend) and op.elements > 0]
    if kind == "dropped-recv":
        for i, op in enumerate(ops):
            if isinstance(op, SymRecv) and op.edge is not None:
                del ops[i]
                break
        else:
            raise ValueError("schedule has no data receives to drop")
    elif kind == "tag-collision":
        if not data_sends:
            raise ValueError("schedule has no data sends to collide")
        # Reuse a live channel's tag for a second message while the first
        # is still in flight: duplicate one send *and* its matching recv,
        # so the multisets stay matched but two payloads race on one
        # (src, dst, tag) channel.
        i = data_sends[0]
        first = ops[i]
        assert isinstance(first, SymSend)
        j = -1
        for idx, op in enumerate(ops):
            if not isinstance(op, SymRecv):
                continue
            if (op.src, op.rank, op.tag) == (first.src, first.dst, first.tag):
                j = idx
                break
        assert j >= 0, "a data send always has a matching recv in a clean schedule"
        ops.insert(j, first)  # recv at j shifts right; both sends precede it
        ops.insert(j + 2, ops[j + 1])  # second copy of the recv
    elif kind == "wrong-lead":
        if not data_sends:
            raise ValueError("schedule has no data sends to reroute")
        i = data_sends[0]
        op = ops[i]
        assert isinstance(op, SymSend)
        wrong = [r for r in range(sched.num_ranks) if r != op.dst and r != op.src]
        if not wrong:
            raise ValueError("wrong-lead needs at least 3 ranks")
        ops[i] = replace(op, dst=wrong[0])
    elif kind == "barrier-skip":
        for i, op in enumerate(ops):
            if isinstance(op, SymBarrier):
                ops[i] = replace(op, ranks=op.ranks[1:])
                break
        else:
            raise ValueError("schedule has no barrier; enumerate with detection_round=True")
    else:
        raise ValueError(f"unknown defect kind {kind!r}")
    return CommSchedule(
        shape=sched.shape,
        bits=sched.bits,
        num_ranks=sched.num_ranks,
        ops=ops,
        rank_peak_memory_elements=list(sched.rank_peak_memory_elements),
    )
