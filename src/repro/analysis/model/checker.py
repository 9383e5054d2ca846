"""The model-check driver: one call per (scheduler, scenario) family.

:func:`check_model` ties the three analyses together for one plan:

1. record the scheduler's rank program into per-rank streams
   (``Scheduler.symbolic_ops``);
2. happens-before construction and race checks (MC301/303/304);
3. exhaustive interleaving exploration (MC302/305/306), certifying
   deadlock freedom when it completes clean;
4. block-liveness memory analysis (MC307) against the scheduler's
   ``declared_memory_bound`` and an optional ``--mem-cap``.

On the fault-tolerant program (``detection_round=True``) the driver also
auto-explores *kill scenarios*: each rank killed at op index 0 (crash
before any work), the worst case for the detection protocol.  Explicit
``kill=(rank, op)`` scenarios -- the CLI's ``--kill R@OP`` -- narrow that
to one case.

:meth:`ModelCheckResult.certificate` renders the machine-checked
transcript quoted in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.model.explore import ExploreResult, explore
from repro.analysis.model.hb import HBGraph, build_hb
from repro.analysis.model.lifetime import LifetimeResult, analyze_lifetime
from repro.analysis.model.ops import ModelProgram

__all__ = ["ModelCheckResult", "check_model", "check_program", "parse_kill"]

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

    scheduler: str
    shape: tuple[int, ...]
    bits: tuple[int, ...]
    report: DiagnosticReport
    hb: HBGraph
    exploration: ExploreResult
    lifetime: LifetimeResult
    declared_bound_elements: int
    #: Human description of each fault scenario explored ("fault-free",
    #: "kill rank 1 at op 0", ...), with its exploration verdict.
    scenarios: list[tuple[str, ExploreResult]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def certified(self) -> bool:
        """Deadlock freedom certified across every explored scenario."""
        return self.ok and all(
            res.certified for _name, res in self.scenarios
        )

    def certificate(self) -> str:
        """The transcript: what was proved, over what state space."""
        num_ranks = self.hb.num_ranks
        lines = [
            f"model check: scheduler {self.scheduler!r}, shape "
            f"{'x'.join(map(str, self.shape))}, p={num_ranks} "
            f"(bits {','.join(map(str, self.bits))})",
            f"happens-before: {self.hb.num_events} events, "
            f"{sum(len(v) for v in self.hb.pairs.values())} message "
            f"edges, {self.hb.barrier_episodes} barrier episode(s), "
            + ("acyclic" if self.hb.acyclic else "CYCLIC"),
        ]
        for name, res in self.scenarios:
            lines.append(f"explore [{name}]: {res.summary()}")
        highs = self.lifetime.rank_high_water
        source = "ledger scan" if self.lifetime.from_ledger else "no ledger"
        lines.append(
            f"memory ({source}): per-rank high-water "
            f"{list(highs)} elements, max "
            f"{self.lifetime.max_high_water_bytes} bytes, declared bound "
            f"{self.declared_bound_elements} elements"
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
    ``kill`` is given, auto-explores every crash-at-start scenario on top
    of the fault-free one.  ``kill`` checks exactly one fault scenario (on
    the plain program this is the MC306 demonstration; on the FT program
    it exercises detection and adoption).
    """
    from repro.sched import resolve_scheduler

    sched = resolve_scheduler(scheduler)
    shape = tuple(shape)
    bits = tuple(bits)
    sched.validate_shape(shape)
    declared = sched.declared_memory_bound(shape, bits)
    report = DiagnosticReport()

    prog = sched.symbolic_ops(
        shape, bits, detection_round=detection_round, kill=kill
    )
    graph = build_hb(prog)
    report.extend(graph.diagnostics)

    scenarios: list[tuple[str, ExploreResult]] = []
    base_name = (
        "fault-free"
        if prog.kill is None
        else f"kill rank {prog.kill[0]} at op {prog.kill[1]}"
    )
    base_explore = explore(prog, max_states=max_states)
    scenarios.append((base_name, base_explore))
    report.extend(base_explore.diagnostics)

    if detection_round and kill is None:
        # Auto fault sweep: each rank crashes before its first op.  The
        # detection round must route every survivor around the death.
        for dead in range(prog.num_ranks):
            fprog = sched.symbolic_ops(
                shape, bits, detection_round=True, kill=(dead, 0)
            )
            fres = explore(fprog, max_states=max_states)
            scenarios.append((f"kill rank {dead} at op 0", fres))
            report.extend(fres.diagnostics)

    lifetime = analyze_lifetime(
        prog,
        declared_bound_elements=declared,
        mem_cap_bytes=mem_cap_bytes,
    )
    report.extend(lifetime.diagnostics)

    return ModelCheckResult(
        scheduler=sched.spec,
        shape=shape,
        bits=bits,
        report=report,
        hb=graph,
        exploration=base_explore,
        lifetime=lifetime,
        declared_bound_elements=declared,
        scenarios=scenarios,
    )


def check_program(
    prog: ModelProgram,
    *,
    declared_bound_elements: int | None = None,
    mem_cap_bytes: int | None = None,
    max_states: int = 200_000,
) -> ModelCheckResult:
    """Model-check an explicit :class:`ModelProgram` (tests, seeded defects)."""
    report = DiagnosticReport()
    graph = build_hb(prog)
    report.extend(graph.diagnostics)
    name = (
        "fault-free"
        if prog.kill is None
        else f"kill rank {prog.kill[0]} at op {prog.kill[1]}"
    )
    res = explore(prog, max_states=max_states)
    report.extend(res.diagnostics)
    lifetime = analyze_lifetime(
        prog,
        declared_bound_elements=declared_bound_elements,
        mem_cap_bytes=mem_cap_bytes,
    )
    report.extend(lifetime.diagnostics)
    return ModelCheckResult(
        scheduler=prog.scheduler,
        shape=prog.shape,
        bits=prog.bits,
        report=report,
        hb=graph,
        exploration=res,
        lifetime=lifetime,
        declared_bound_elements=declared_bound_elements or 0,
        scenarios=[(name, res)],
    )
