"""Post-hoc linting of recorded runs: the op spans and the fault log.

Where :mod:`repro.analysis.verify_plan` proves properties of a plan before
execution, this module audits what *actually happened*: it replays the
recorded run and flags communication that completed by accident rather
than by design.  It reads two records: ``RunMetrics.trace``, the
``cat="op"`` :class:`~repro.obs.span.Span` of every interpreted op (channel
in ``attrs["peer"]`` / ``attrs["tag"]``), and ``RunMetrics.faults.events``,
where every drop, duplicate, timeout, crash and recovery is noted once with
its ``kind`` (and ``peer`` / ``tag`` for message faults).  Every execution
backend emits the same vocabulary -- the simulator stamps simulated
clocks, the process backend (:mod:`repro.exec.process`) wall clocks -- so
the rules below audit real executions exactly as they audit simulated
ones.  On fault-injection runs this distinguishes "recovered correctly"
(every timeout was followed by a recovery action, no payload silently
vanished) from "recovered by accident" (the result happened to be right
even though the protocol leaked messages).

Rules (catalogued in :mod:`repro.analysis.diagnostics`):

- ``TRACE101`` a posted message was never received;
- ``TRACE102`` a channel delivered more messages than the sender posted
  intentionally (a duplicated copy was combined into the result);
- ``TRACE103`` a receive timed out and the rank carried on with no retry
  and no checkpoint read;
- ``TRACE104`` a rank's measured peak held-results memory exceeds its
  scheduler's declared bound (Theorem 1/4 for ``fig5``);
- ``TRACE105`` per-rank idle fractions are badly skewed;
- ``TRACE106`` a rank crashed but the fault log shows no recovery action
  at all (the run "succeeded" without anyone adopting the lost work);
- ``TRACE107`` a recovery action references neither a committed
  checkpoint epoch nor an input-block re-aggregation, so the recovered
  data's provenance is unaccounted for.

TRACE101/102 do no message accounting of their own: they read the run's
happens-before pairing (:func:`~repro.analysis.model.hb.hb_from_trace`),
the same FIFO pairing the plan verifier reads on recorded programs.

Requires a traced run (``record_trace=True`` on ``run_spmd`` /
``trace=True`` on the constructors).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Sequence

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.model.hb import hb_from_trace
from repro.cluster.faults import FaultStats
from repro.cluster.metrics import RunMetrics
from repro.obs.export import RunSource, load_run
from repro.obs.report import idle_fractions
from repro.obs.span import Span, op_channel

__all__ = ["lint_trace"]

#: TRACE105 fires when (max - min) idle fraction across ranks exceeds this.
IDLE_SKEW_THRESHOLD = 0.5


def _pairing_checks(metrics: RunMetrics) -> list[Diagnostic]:
    """TRACE101/102, read off the run's happens-before pairing.

    :func:`~repro.analysis.model.hb.hb_from_trace` has already applied the
    fault log (drops never reached the network, duplicates did), so an
    unpaired send is an undelivered message and a channel paired more
    times than its sender posted on purpose consumed a duplicate.
    """
    graph = hb_from_trace(metrics)
    posted = Counter((ev.rank, *op_channel(ev)) for ev in metrics.trace if ev.name == "send")
    unpaired = graph.unpaired_by_channel()

    diags: list[Diagnostic] = []
    for key in sorted(set(unpaired) | set(graph.pairs)):
        src, dst, tag = key
        if key in unpaired:
            diags.append(
                Diagnostic(
                    "TRACE101",
                    f"{len(unpaired[key])} message(s) {src}->{dst} tag {tag} reached "
                    f"the network but were never received",
                    rank=dst,
                    hint="in a fault-free run this means the protocol over-sent; "
                    "on a crash run, traffic addressed to a dead rank",
                )
            )
        got = len(graph.pairs.get(key, ()))
        if got > posted[key]:
            diags.append(
                Diagnostic(
                    "TRACE102",
                    f"rank {dst} consumed {got} message(s) {src}->{dst} tag {tag} "
                    f"but the sender only posted {posted[key]} intentionally",
                    rank=dst,
                    hint="a duplicated copy was combined into the result; "
                    "deduplicate by tag or make the combine idempotent",
                )
            )
    return diags


def _timeout_checks(trace: Sequence[Span], faults: FaultStats) -> list[Diagnostic]:
    """TRACE103: a timeout with no later retry/recovery on that rank.

    "Later" is an op that starts at or after the timeout was noted: the
    timed-out wait itself starts before it, and the rank's next op after.
    """
    diags: list[Diagnostic] = []
    for ev in faults.events:
        if ev.kind != "timeout":
            continue
        recovered = any(
            # retried and got the payload, or recovered from a checkpoint
            (op.name == "recv" and op.attrs["peer"] == ev.peer)
            or (op.name == "disk" and op.attrs.get("detail") == "read")
            for op in trace
            if op.rank == ev.rank and op.t_start >= ev.time
        )
        if not recovered:
            diags.append(
                Diagnostic(
                    "TRACE103",
                    f"rank {ev.rank} timed out waiting on rank {ev.peer} "
                    f"tag {ev.tag} and carried on without a retry or a "
                    f"checkpoint read",
                    rank=ev.rank,
                    hint="treat RECV_TIMEOUT as a detected failure: retry the "
                    "receive or re-read the partial from the checkpoint",
                )
            )
    return diags


def _memory_checks(
    metrics: RunMetrics, shape: Sequence[int], bits: Sequence[int], scheduler: object
) -> list[Diagnostic]:
    """TRACE104: measured peaks against the scheduler's declared bound."""
    from repro.sched import resolve_scheduler

    sched = resolve_scheduler(scheduler)
    bound = sched.declared_memory_bound(shape, bits)
    if sched.spec == "fig5":
        label = "the Theorem 1/4 bound"
    else:
        label = f"scheduler {sched.spec!r}'s declared memory bound"
    diags: list[Diagnostic] = []
    for rank, peak in enumerate(metrics.rank_peak_memory_elements):
        if peak > bound:
            diags.append(
                Diagnostic(
                    "TRACE104",
                    f"rank {rank} peaked at {peak} held-result elements, above "
                    f"{label} of {bound}",
                    rank=rank,
                    hint="partials are being retained past their finalize step; "
                    "free shipped partials and written-back nodes eagerly",
                )
            )
    return diags


#: A recovery detail must account for the recovered data's provenance:
#: either a committed checkpoint epoch or the original input block.
_EPOCH_RE = re.compile(r"checkpoint epoch \d+")


def _recovery_checks(faults: FaultStats) -> list[Diagnostic]:
    """TRACE106/107: every crash recovered, every recovery accounted for.

    Both backends note the same kinds: ``crash`` (the simulator's scheduled
    kill, the supervisor's observed worker exit) and ``recovery``, from
    :meth:`~repro.cluster.runtime.RankEnv.note_recovery` actions
    (checkpoint replay, buddy re-read, input-block re-aggregation).
    """
    crashes = [ev for ev in faults.events if ev.kind == "crash"]
    recovers = [ev for ev in faults.events if ev.kind == "recovery"]
    diags: list[Diagnostic] = []
    if crashes and not recovers:
        for ev in crashes:
            diags.append(
                Diagnostic(
                    "TRACE106",
                    f"rank {ev.rank} crashed at t={ev.time:.3f} but the "
                    f"trace records no recovery action anywhere in the run",
                    rank=ev.rank,
                    severity="warning",
                    hint="a crashed rank's work must be adopted (buddy "
                    "re-read / re-aggregation) or replayed by a respawn; a "
                    "run that completes without either silently dropped it",
                )
            )
    for ev in recovers:
        detail = ev.detail
        if _EPOCH_RE.search(detail) is None and "block" not in detail:
            diags.append(
                Diagnostic(
                    "TRACE107",
                    f"rank {ev.rank}'s recovery action ({detail!r}) references "
                    f"neither a committed checkpoint epoch nor an input-block "
                    f"re-aggregation",
                    rank=ev.rank,
                    severity="warning",
                    hint="recovered data needs provenance: note the checkpoint "
                    "epoch that was replayed, or the block that was "
                    "re-aggregated",
                )
            )
    return diags


def _idle_skew_check(metrics: RunMetrics) -> list[Diagnostic]:
    """TRACE105: spread of per-rank idle fractions."""
    fractions = idle_fractions(metrics)
    if len(fractions) < 2:
        return []
    spread = max(fractions) - min(fractions)
    if spread <= IDLE_SKEW_THRESHOLD:
        return []
    busiest = fractions.index(min(fractions))
    idlest = fractions.index(max(fractions))
    diag = Diagnostic(
        "TRACE105",
        f"idle-time skew {spread:.0%}: rank {idlest} idles "
        f"{fractions[idlest]:.0%} of the makespan while rank {busiest} "
        f"idles {fractions[busiest]:.0%}",
        rank=idlest,
        hint="a serialized lead is the bottleneck; prefer a partition that "
        "spreads reduction groups (see Figure 7's 1-d vs 2-d contrast)",
    )
    return [diag]


def lint_trace(
    metrics: RunSource,
    shape: Sequence[int] | None = None,
    bits: Sequence[int] | None = None,
    scheduler: object = "fig5",
) -> DiagnosticReport:
    """Lint one run's trace; returns the full diagnostic report.

    ``metrics`` is either an in-memory :class:`RunMetrics` or an exported
    run -- a path to a Chrome-trace / JSONL file written by
    :mod:`repro.obs.export` (or the already-parsed mapping), which is
    reconstructed with :func:`repro.obs.export.load_run` first.  The
    exporters preserve exact event times, so linting an export yields the
    same diagnostics as linting the live run.  No rule parses a free-text
    ``detail`` to classify an event; TRACE107 alone reads a recovery's
    ``detail``, for the provenance it must state.

    ``shape``/``bits`` enable the memory check (TRACE104), which holds the
    run to ``scheduler``'s declared memory bound -- a registered spec or a
    :class:`~repro.sched.base.Scheduler` instance; Theorem 1/4 for the
    default ``fig5``.  Without them only the protocol- and timing-level
    rules run.  Raises ``ValueError`` if the run was not traced.
    """
    metrics = load_run(metrics)
    if not metrics.trace:
        raise ValueError("run has no trace; pass record_trace=True / trace=True")
    report = DiagnosticReport()
    report.extend(_pairing_checks(metrics))
    report.extend(_timeout_checks(metrics.trace, metrics.faults))
    if shape is not None and bits is not None:
        report.extend(_memory_checks(metrics, shape, bits, scheduler))
    report.extend(_recovery_checks(metrics.faults))
    report.extend(_idle_skew_check(metrics))
    return report
