"""Consolidated options for the parallel cube constructor.

:class:`BuildConfig` gathers every option of
:func:`repro.core.parallel.construct_cube_parallel` (machine models,
reduction strategy, fault injection, checkpointing, tracing, ...) into one
immutable value that can be stored, compared, and passed around as
``config=``.  The constructor also accepts the fields as individual
keywords, applied over the config with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.arrays.measures import Measure, SUM
from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel


@dataclass(frozen=True)
class BuildConfig:
    """Every knob of a parallel cube construction, in one place.

    Attributes
    ----------
    machine:
        Cost model for every rank (default: the paper-cluster preset).
    reduction:
        ``"flat"`` (the paper's gather-to-lead) or ``"binomial"``.
    collect_results:
        Assemble global result arrays from the per-rank portions.
    measure:
        Any distributive measure (default SUM).
    max_message_elements:
        Cap reduction messages at this many elements (section 4 tradeoff).
    trace:
        Record per-rank timelines.
    trace_out:
        Write the run's Chrome trace-event JSON (Perfetto-loadable) to
        this path after the build; implies ``trace``.
    machines:
        Per-rank cost models (straggler studies); overrides ``machine``.
    fault_plan:
        Deterministic fault injection plan (crashes, drops, stragglers,
        NIC degradation).  Without ``checkpoint``, a crash surfaces as a
        diagnosable :class:`~repro.cluster.runtime.DeadlockError` naming
        the dead rank.
    checkpoint:
        Run the fault-tolerant program: checkpoint first-level partials,
        detect failures via heartbeats, and recover any single crashed
        rank's work through its reduction-group buddy.  Requires the flat
        reduction and whole-partial messages.
    checkpoint_dir:
        Where checkpoint ``.npz`` files live (default: temporary).
    recv_timeout:
        Failure-detection receive timeout in backend-clock seconds
        (simulated seconds on ``"sim"``, wall-clock on ``"process"``).
    backend:
        Execution backend: a registered name (``"sim"`` runs the
        deterministic simulator, ``"process"`` real OS processes that
        read their inputs through the fork and write a shared output
        arena, ``"thread"`` GIL-releasing threads in this process) or a
        :class:`~repro.exec.base.Backend` instance.  Results are
        bit-identical across backends.
    scheduler:
        Construction scheduler: a registered spec (``"fig5"`` default,
        ``"shuffle"``, ``"marginals-<k>"``, ``"marginals-<k>-shuffle"``)
        or a :class:`~repro.sched.base.Scheduler` instance.  The
        scheduler owns cuboid ordering and the comm schedule -- including
        which tree it walks and which group-bys it keeps
        (``Fig5Scheduler(targets=..., tree=...)``); the backend owns how
        ranks exchange bytes, so any scheduler runs on any backend.
    live:
        Optional :class:`~repro.obs.live.LiveRunView` the backend feeds
        with per-rank snapshots while the build runs (the snapshot bus
        behind ``repro-cube top``).  Typed loosely to keep this module
        below :mod:`repro.obs` in the import order; default ``None`` --
        the bus costs nothing when off.

    Every cross-field constraint is validated here, at construction, so a
    bad combination fails before any work starts -- whether the config was
    built directly or from keywords passed to the constructor.
    Scheduler capability combinations are checked the same way the backend
    ones are: the scheduler declares what its program can honor
    (checkpointing, chunked messages), and a violation raises naming the
    exact option.
    """

    machine: MachineModel | None = None
    reduction: str = "flat"
    collect_results: bool = True
    measure: Measure | str = SUM
    max_message_elements: int | None = None
    trace: bool = False
    trace_out: str | Path | None = None
    machines: Sequence[MachineModel] | None = field(default=None)
    fault_plan: FaultPlan | None = None
    checkpoint: bool = False
    checkpoint_dir: str | Path | None = None
    recv_timeout: float | None = None
    backend: Any = "sim"
    scheduler: Any = "fig5"
    live: Any = None

    def __post_init__(self) -> None:
        if self.reduction not in ("flat", "binomial"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.max_message_elements is not None and self.max_message_elements <= 0:
            raise ValueError("max_message_elements must be positive")
        if self.recv_timeout is not None and self.recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive")
        if self.checkpoint:
            if self.reduction != "flat":
                raise ValueError(
                    "checkpointed construction supports only the flat reduction"
                )
            if self.max_message_elements is not None:
                raise ValueError(
                    "checkpointed construction does not support "
                    "max_message_elements"
                )
        self._validate_backend()
        self._validate_scheduler()

    @property
    def effective_trace(self) -> bool:
        """Whether the run records timelines: ``trace`` or a ``trace_out``."""
        return self.trace or self.trace_out is not None

    def _validate_backend(self) -> None:
        """Resolve the backend choice and check declared capabilities.

        Backends declare what they support (``fault_capabilities`` /
        ``supports_machines``); the check is capability-driven, so a plan
        restricted to a backend's supported fault kinds (e.g. op-index
        kills on ``"process"``) is legal while unsupported kinds fail here,
        at construction, naming exactly what the backend cannot honor.
        """
        # Inside the method: repro.exec imports repro.core modules, and the
        # repro.core package imports this module eagerly.
        from repro.exec.base import Backend, check_backend_options
        from repro.exec.registry import get_backend

        if isinstance(self.backend, str):
            # Unknown names raise get_backend's ValueError (available
            # names plus a "did you mean ...?" suggestion).
            backend_obj = get_backend(self.backend)
        elif isinstance(self.backend, Backend):
            backend_obj = self.backend
        else:
            raise TypeError(
                "backend must be a registered name or a Backend "
                f"instance, got {type(self.backend).__name__}"
            )
        check_backend_options(backend_obj, self.fault_plan, self.machines)

    def _validate_scheduler(self) -> None:
        """Resolve the scheduler choice and check its declared capabilities.

        Schedulers declare which build options their program can honor
        (:meth:`repro.sched.base.Scheduler.validate_options`); a violation
        fails here, at construction, naming the exact option -- the same
        contract :func:`repro.exec.base.check_backend_options` gives the
        backend axis.
        """
        # Imported lazily: repro.sched sits above repro.core.
        from repro.sched import resolve_scheduler

        sched = resolve_scheduler(self.scheduler)
        sched.validate_options(
            reduction=self.reduction,
            checkpoint=self.checkpoint,
            max_message_elements=self.max_message_elements,
        )
