"""Structured diagnostics shared by every analyzer in :mod:`repro.analysis`.

A :class:`Diagnostic` is one finding: a stable rule id (``SPMD004``), a
severity, a human message, and enough location (rank, aggregation-tree
edge, schedule step) for the reader to act on it.  The rule
catalog (:data:`RULES`) is the single source of truth for ids, severities,
and one-line summaries; ``docs/ANALYSIS.md`` mirrors it and the tests
assert the two stay consistent.

Severities:

- ``error``    -- the plan or run violates an invariant the paper
  guarantees; executing it deadlocks, corrupts results, or breaks a
  theorem.
- ``warning``  -- legal but suspicious: the run finished by accident, not
  by design (e.g. a timeout silently swallowed a lost payload).
- ``info``     -- advisory signal (e.g. idle-time skew) useful for tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.lattice import Node

#: Severity levels, weakest to strongest (index = rank used for sorting).
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog."""

    id: str
    severity: str
    title: str
    summary: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


#: Every rule, in catalog order.  Ids are permanent: a retired rule's
#: number is never reused.  Each protocol property has one rule, proved by
#: one static pass (:func:`repro.analysis.verify_plan.verify_schedule`):
#: the SPMD block holds the plan-only rules -- pairing, lead routing and
#: the closed-form volume -- and numbers 3, 5 and 7 of it are retired
#: because MC301, MC303 and MC307 prove the same properties on the same
#: graph and ledger (``docs/ANALYSIS.md`` maps each).  TRACE is the
#: post-hoc linter (:mod:`repro.analysis.lint_trace`), MC the rank-program
#: model checker (:mod:`repro.analysis.model`).
RULE_LIST: tuple[Rule, ...] = (
    Rule(
        "SPMD001",
        "error",
        "unmatched-send",
        "a posted send has no matching receive; the payload would sit undelivered forever",
    ),
    Rule(
        "SPMD002",
        "error",
        "unmatched-recv",
        "a receive has no matching send; the rank would block until the "
        "scheduler reports a DeadlockError",
    ),
    Rule(
        "SPMD004",
        "error",
        "wrong-lead",
        "reduction traffic for a node lands on a rank that is not the "
        "lead of the sender's reduction group, or does not hold the node",
    ),
    Rule(
        "SPMD006",
        "error",
        "volume-mismatch",
        "the recorded communication volume differs from the scheduler's "
        "declared closed form (Theorem 3's V = sum_j (2^k_j - 1) c_j for fig5)",
    ),
    Rule(
        "TRACE101",
        "warning",
        "undelivered-message",
        "a message was posted but never received (error in fault-free "
        "runs: the protocol over-sent)",
    ),
    Rule(
        "TRACE102",
        "warning",
        "duplicate-delivery",
        "a rank consumed more messages on a channel than the sender "
        "posted intentionally; a duplicated copy was combined",
    ),
    Rule(
        "TRACE103",
        "warning",
        "silent-timeout",
        "a receive timed out and the program carried on without a retry "
        "or recovery action: it recovered by accident, not by design",
    ),
    Rule(
        "TRACE104",
        "error",
        "memory-high-water",
        "a rank's measured peak held-results memory exceeds its scheduler's "
        "declared memory bound (Theorem 1/4 for fig5)",
    ),
    Rule(
        "TRACE105",
        "info",
        "idle-skew",
        "per-rank idle-time fractions are badly skewed; some ranks wait on a serialized lead",
    ),
    Rule(
        "TRACE106",
        "warning",
        "unrecovered-crash",
        "a rank crashed but the trace records no recovery action; the run "
        "completed without anyone adopting or replaying the lost work",
    ),
    Rule(
        "TRACE107",
        "warning",
        "unaccounted-recovery",
        "a recovery action references neither a committed checkpoint epoch "
        "nor an input-block re-aggregation; the recovered data has no provenance",
    ),
    Rule(
        "MC301",
        "error",
        "hb-tag-race",
        "two messages on one (src, dst, tag) channel are unordered by "
        "happens-before; FIFO delivery order is a race, not a guarantee",
    ),
    Rule(
        "MC302",
        "error",
        "ambiguous-recv-match",
        "an interleaving exists in which a receive matches while two or "
        "more messages are in flight on its channel; which payload pairs "
        "is scheduler-dependent",
    ),
    Rule(
        "MC303",
        "error",
        "barrier-mismatch",
        "ranks disagree on the number of barrier episodes; some rank "
        "arrives at a barrier its peers never join",
    ),
    Rule(
        "MC304",
        "error",
        "causal-cycle",
        "the happens-before relation contains a cycle: a chain of message "
        "and program-order edges requires an event to precede itself",
    ),
    Rule(
        "MC305",
        "error",
        "deadlock",
        "exhaustive interleaving exploration reached a state in which no "
        "rank can step; the wait-for graph is the counterexample",
    ),
    Rule(
        "MC306",
        "error",
        "fault-deadlock",
        "under a kill:RANK@OP fault scenario a surviving rank blocks on a "
        "receive from the dead rank with no timeout fallback",
    ),
    Rule(
        "MC307",
        "error",
        "lifetime-overflow",
        "the block-liveness memory high-water exceeds the scheduler's "
        "declared memory bound (or the requested --mem-cap)",
    ),
)

#: The rule catalog, keyed by rule id.
RULES: dict[str, Rule] = {r.id: r for r in RULE_LIST}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a static or post-hoc analyzer.

    ``rule`` must be a key of :data:`RULES`; ``severity`` defaults to the
    rule's catalog severity.  Location fields (``rank``/``edge``/``step``)
    are optional.
    """

    rule: str
    message: str
    severity: str = ""
    rank: int | None = None
    edge: Node | None = None
    step: int | None = None
    hint: str = ""

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")
        if not self.severity:
            object.__setattr__(self, "severity", RULES[self.rule].severity)
        elif self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def title(self) -> str:
        return RULES[self.rule].title

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def format(self) -> str:
        """One-line rendering: ``SPMD004 error [rank 3, edge (0,1)]: ...``."""
        loc = []
        if self.rank is not None:
            loc.append(f"rank {self.rank}")
        if self.edge is not None:
            loc.append(f"edge {self.edge}")
        if self.step is not None:
            loc.append(f"step {self.step}")
        where = f" [{', '.join(loc)}]" if loc else ""
        text = f"{self.rule} {self.severity}{where}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


def _sort_key(d: Diagnostic) -> tuple[int, str, int, int]:
    rank = d.rank if d.rank is not None else -1
    step = d.step if d.step is not None else -1
    return (
        -SEVERITIES.index(d.severity),
        d.rule,
        rank,
        step,
    )


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with summary helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (warnings/info do not fail a gate)."""
        return not self.errors

    def sorted(self) -> list[Diagnostic]:
        """Errors first, then by rule id, then by location."""
        return sorted(self.diagnostics, key=_sort_key)

    def format(self) -> str:
        """Multi-line report ending in a one-line tally."""
        lines = [d.format() for d in self.sorted()]
        if self.diagnostics:
            ne, nw = len(self.errors), len(self.warnings)
            ni = len(self.diagnostics) - ne - nw
            lines.append(f"{ne} error(s), {nw} warning(s), {ni} info")
        else:
            lines.append("no diagnostics")
        return "\n".join(lines)


def format_diagnostics(diags: Sequence[Diagnostic]) -> str:
    """Render any diagnostic sequence the way a report does."""
    report = DiagnosticReport(list(diags))
    return report.format()
