"""Rank-program model checker (the MC3xx rules).

Consumes any scheduler's symbolic op streams -- recorded from its real
generator rank program (``Scheduler.symbolic_ops``, :mod:`.record`) -- and
proves -- or refutes with a
counterexample -- three families of properties:

- **happens-before** (:mod:`.hb`): vector-clock race detection on
  channels, barrier completeness, causal acyclicity (MC301/303/304),
  plus the trace-side cross-check against the TRACE101/102 linter;
- **exploration** (:mod:`.explore`): exhaustive interleaving coverage
  with a persistent-set reduction, certifying deadlock freedom or
  reporting the wait-for graph, including under recv-timeout fallbacks
  and ``kill:RANK@OP`` fault scenarios (MC302/305/306);
- **block liveness** (:mod:`.lifetime`): the static per-rank memory
  high-water, held bit-exactly to the simulator's measured peaks and to
  the scheduler's declared bound (MC307).

``repro-cube check --model`` is the CLI surface; :func:`check_model` the
programmatic one.
"""

from repro.analysis.model.checker import (
    ModelCheckResult,
    check_model,
    check_program,
    parse_kill,
)
from repro.analysis.model.explore import ExploreResult, explore
from repro.analysis.model.hb import (
    HBGraph,
    TraceParity,
    build_hb,
    crosscheck_trace,
    hb_from_trace,
)
from repro.analysis.model.lifetime import (
    BYTES_PER_ELEMENT,
    LifetimeResult,
    analyze_lifetime,
)
from repro.analysis.model.ops import (
    MAlloc,
    MBarrier,
    MFree,
    MOp,
    MRecv,
    MSend,
    ModelProgram,
    seed_model_defect,
    truncate_at,
)
from repro.analysis.model.record import record_program

__all__ = [
    "BYTES_PER_ELEMENT",
    "ExploreResult",
    "HBGraph",
    "LifetimeResult",
    "MAlloc",
    "MBarrier",
    "MFree",
    "MOp",
    "MRecv",
    "MSend",
    "ModelCheckResult",
    "ModelProgram",
    "TraceParity",
    "analyze_lifetime",
    "build_hb",
    "check_model",
    "check_program",
    "crosscheck_trace",
    "explore",
    "hb_from_trace",
    "parse_kill",
    "record_program",
    "seed_model_defect",
    "truncate_at",
]
