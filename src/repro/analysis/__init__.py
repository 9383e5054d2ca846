"""Static and post-hoc analysis of cube-construction plans and runs.

Four layers, one diagnostic vocabulary (:mod:`repro.analysis.diagnostics`):

- :mod:`repro.analysis.verify_plan` -- prove protocol and closed-form
  properties of a partition + scheduler plan *before* running it;
- :mod:`repro.analysis.model` -- the rank-program model checker:
  happens-before race detection, exhaustive-interleaving deadlock
  certification, and static memory-lifetime analysis;
- :mod:`repro.analysis.lint_trace` -- audit a recorded run's trace *after*
  the fact, including fault-injection runs.

One pairing, one static pass: a send meets a receive only in
:func:`~repro.analysis.model.hb.build_hb`, on programs recorded from the
scheduler's real generator (:mod:`repro.analysis.model.record`) and on
recorded runs alike (:func:`~repro.analysis.model.hb.hb_from_trace`), and
each protocol property is proved by one rule of one static pass
(:func:`verify_schedule`), which ``verify_plan`` and ``check_model`` both
run.

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
    hb_from_trace,
    parse_kill,
    seed_model_defect,
)
from repro.analysis.verify_plan import (
    PlanVerification,
    ScheduleVerification,
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
    "ScheduleVerification",
    "check_model",
    "format_diagnostics",
    "hb_from_trace",
    "lint_trace",
    "parse_kill",
    "seed_model_defect",
    "verify_plan",
    "verify_schedule",
]
