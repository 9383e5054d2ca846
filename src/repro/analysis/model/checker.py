"""The model-check driver: one call per (scheduler, scenario) family.

:func:`check_model` is the static result plus exploration, for one plan:

1. record the scheduler's rank program once (``Scheduler.symbolic_ops``)
   and run the one static pass on it -- exactly
   :func:`~repro.analysis.verify_plan.verify_plan`'s, with the optional
   ``--mem-cap`` added to its MC307 -- so the happens-before checks
   (MC301/303/304) and the block-liveness memory bound (MC307) are proved
   once;
2. exhaustive interleaving exploration of that fault-free program
   (MC302/305/306), certifying deadlock freedom when it completes clean;
3. one more exploration per *kill scenario*, each recorded once: the
   explicit ``kill=(rank, op)`` -- the CLI's ``--kill R@OP`` -- or, on the
   fault-tolerant program (``detection_round=True``), each rank killed at
   op index 0 (crash before any work), the worst case for the detection
   protocol.  A killed program is only explored: its undeliverable
   messages are the scenario's, not protocol defects.

:meth:`ModelCheckResult.certificate` renders the machine-checked
transcript quoted in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.model.explore import ExploreResult, explore
from repro.analysis.verify_plan import PlanVerification, _record_and_verify

__all__ = ["ModelCheckResult", "check_model", "parse_kill"]

_KILL_RE = re.compile(r"^(\d+)@(\d+)$")


def parse_kill(spec: str) -> tuple[int, int]:
    """Parse a ``RANK@OP`` kill clause (the CLI's ``--kill`` syntax)."""
    m = _KILL_RE.match(spec.strip())
    if m is None:
        raise ValueError(
            f"bad kill spec {spec!r}; expected RANK@OP, e.g. '1@0' "
            f"(kill rank 1 before its first model op)"
        )
    return int(m.group(1)), int(m.group(2))


@dataclass
class ModelCheckResult:
    """Everything one model-check run established about one plan."""

    #: The static result: the recorded fault-free program and its one
    #: static pass (``plan.hb``, ``plan.lifetime``, ``plan.report``).
    plan: PlanVerification
    #: Each scenario explored ("fault-free", "kill rank 1 at op 0", ...),
    #: with its exploration verdict; the fault-free one comes first.
    scenarios: list[tuple[str, ExploreResult]]

    @property
    def exploration_report(self) -> DiagnosticReport:
        """Only the scenarios' findings (the plan's are in ``plan.report``)."""
        return DiagnosticReport([d for _name, res in self.scenarios for d in res.diagnostics])

    @property
    def report(self) -> DiagnosticReport:
        """The plan's findings, then every scenario's."""
        return DiagnosticReport(self.plan.diagnostics + self.exploration_report.diagnostics)

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def certified(self) -> bool:
        """Deadlock freedom certified across every explored scenario."""
        return self.ok and all(res.certified for _name, res in self.scenarios)

    def certificate(self) -> str:
        """The transcript: what was proved, over what state space."""
        prog, hb, lifetime = self.plan.schedule, self.plan.hb, self.plan.lifetime
        lines = [
            f"model check: scheduler {self.plan.scheduler!r}, shape "
            f"{'x'.join(map(str, prog.shape))}, p={hb.num_ranks} "
            f"(bits {','.join(map(str, prog.bits))})",
            f"happens-before: {hb.num_events} events, "
            f"{sum(len(v) for v in hb.pairs.values())} message "
            f"edges, {hb.barrier_episodes} barrier episode(s), "
            + ("acyclic" if hb.acyclic else "CYCLIC"),
        ]
        for name, res in self.scenarios:
            lines.append(f"explore [{name}]: {res.summary()}")
        source = "ledger scan" if lifetime.from_ledger else "no ledger"
        lines.append(
            f"memory ({source}): per-rank high-water "
            f"{list(lifetime.rank_high_water)} elements, max "
            f"{lifetime.max_high_water_bytes} bytes, declared bound "
            f"{self.plan.memory_bound_elements} elements"
        )
        lines.append(
            "verdict: "
            + (
                "CERTIFIED deadlock-free, races none, memory within bound"
                if self.certified
                else "NOT certified (see diagnostics)"
            )
        )
        return "\n".join(lines)


def check_model(
    shape: Sequence[int],
    bits: Sequence[int],
    scheduler: object = "fig5",
    *,
    detection_round: bool = False,
    kill: tuple[int, int] | None = None,
    mem_cap_bytes: int | None = None,
    max_states: int = 200_000,
) -> ModelCheckResult:
    """Model-check one plan end to end.

    ``scheduler`` is a registered spec or a
    :class:`~repro.sched.base.Scheduler` instance.  ``detection_round``
    selects the fault-tolerant program (fig5 only) and, when no explicit
    ``kill`` is given, auto-explores every crash-at-start scenario after
    the fault-free one.  ``kill`` adds exactly one fault scenario (on the
    plain program this is the MC306 demonstration; on the FT program it
    exercises detection and adoption).
    """
    sched, plan = _record_and_verify(shape, bits, scheduler, detection_round, mem_cap_bytes)
    prog = plan.schedule
    if kill is not None:
        kills = [kill]
    elif detection_round:
        kills = [(dead, 0) for dead in range(prog.num_ranks)]
    else:
        kills = []
    scenarios = [("fault-free", explore(prog, max_states=max_states))]
    for rank, op in kills:
        killed = sched.symbolic_ops(
            prog.shape, prog.bits, detection_round=detection_round, kill=(rank, op)
        )
        scenarios.append((f"kill rank {rank} at op {op}", explore(killed, max_states=max_states)))
    return ModelCheckResult(plan=plan, scenarios=scenarios)
