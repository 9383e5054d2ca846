"""Rank-program model checker (the MC3xx rules).

Consumes any scheduler's symbolic op streams -- recorded from its real
generator rank program (``Scheduler.symbolic_ops``, :mod:`.record`) -- and
proves -- or refutes with a
counterexample -- three families of properties:

- **happens-before** (:mod:`.hb`): the one FIFO pairing of sends and
  receives, vector-clock race detection on channels, barrier
  completeness, causal acyclicity (MC301/303/304); the same graph built
  from a recorded run (:func:`.hb.hb_from_trace`) is what the trace
  linter's TRACE101/102 read;
- **exploration** (:mod:`.explore`): exhaustive interleaving coverage
  with a persistent-set reduction, certifying deadlock freedom or
  reporting the wait-for graph, including under recv-timeout fallbacks
  and ``kill:RANK@OP`` fault scenarios (MC302/305/306);
- **block liveness** (:mod:`.lifetime`): the static per-rank memory
  high-water, held bit-exactly to the simulator's measured peaks and to
  the scheduler's declared bound (MC307).

One pairing, one static pass: the happens-before and liveness checks run
once per recorded program, inside
:func:`repro.analysis.verify_plan.verify_schedule`, which both
``verify_plan`` and :func:`check_model` call; the model checker adds
only exploration.  ``repro-cube check --model`` is the CLI surface;
:func:`check_model` the programmatic one.
"""

from repro.analysis.model.checker import (
    ModelCheckResult,
    check_model,
    parse_kill,
)
from repro.analysis.model.explore import ExploreResult, explore
from repro.analysis.model.hb import HBGraph, build_hb, hb_from_trace
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
    "analyze_lifetime",
    "build_hb",
    "check_model",
    "explore",
    "hb_from_trace",
    "parse_kill",
    "record_program",
    "seed_model_defect",
    "truncate_at",
]
