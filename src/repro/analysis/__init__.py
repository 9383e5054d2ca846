"""Static and post-hoc analysis of cube-construction plans and runs.

Four layers, one diagnostic vocabulary (:mod:`repro.analysis.diagnostics`):

- :mod:`repro.analysis.verify_plan` -- prove protocol and closed-form
  properties of a partition + scheduler plan *before* running it;
- :mod:`repro.analysis.model` -- the rank-program model checker:
  happens-before race detection, exhaustive-interleaving deadlock
  certification, and static memory-lifetime analysis.  Both consume the
  same per-rank op streams, recorded from the scheduler's real generator
  rank program (:mod:`repro.analysis.model.record`);
- :mod:`repro.analysis.lint_trace` -- audit a recorded run's trace *after*
  the fact, including fault-injection runs;
- :mod:`repro.analysis.repo_gate` -- the in-repo subset of the repo's
  static-analysis gate (ruff/mypy run the full version in CI).

The ``repro-cube check`` CLI verb fronts the plan verifier and (with
``--model``) the model checker.
"""

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    Rule,
    format_diagnostics,
)
from repro.analysis.lint_trace import lint_trace
from repro.analysis.model import (
    ModelCheckResult,
    ModelProgram,
    check_model,
    crosscheck_trace,
    hb_from_trace,
    parse_kill,
    seed_model_defect,
)
from repro.analysis.repo_gate import run_gate
from repro.analysis.verify_plan import (
    PlanVerification,
    verify_plan,
    verify_schedule,
)

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "ModelCheckResult",
    "ModelProgram",
    "PlanVerification",
    "RULES",
    "Rule",
    "check_model",
    "crosscheck_trace",
    "format_diagnostics",
    "hb_from_trace",
    "lint_trace",
    "parse_kill",
    "run_gate",
    "seed_model_defect",
    "verify_plan",
    "verify_schedule",
]
