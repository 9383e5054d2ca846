"""The :class:`Backend` protocol every executor implements.

A backend is an interpreter for SPMD rank programs -- generator functions
yielding the op vocabulary of :mod:`repro.cluster.runtime`, which programs
build through their :class:`~repro.cluster.runtime.RankEnv` (``env.send``,
``env.recv``, ...) and the collectives of :mod:`repro.cluster.collectives`.
Its executor, :meth:`Backend.spawn_ranks`, runs one program factory on
``num_ranks`` ranks and returns :class:`~repro.cluster.metrics.RunMetrics`
in the shared vocabulary (comm counters, per-rank clocks, trace events),
so analyzers like :func:`repro.analysis.lint_trace.lint_trace` work on any
backend's runs.

Hooks with sensible defaults: :attr:`Backend.timeouts` tells rank programs
which :class:`~repro.cluster.runtime.TimeoutPolicy` to shape their receive
windows with, and :meth:`Backend.prepare_outputs` lets a backend stage a
writeback arena so results come back without a pickle round-trip.  Inputs
have no hook: every backend's ranks read the host's blocks, the process
backend's through the fork.

Backends also have a **lifecycle**: :meth:`Backend.open` acquires
long-lived resources (a persistent worker pool, for backends with
:attr:`Backend.supports_pooling`) so repeated :meth:`Backend.spawn_ranks`
calls reuse live workers; :meth:`Backend.end_run` releases the resources
of one run (its output arena) while keeping the pool warm; and
:meth:`Backend.close` is full shutdown.  ``with backend:`` is
``open()``/``close()``.  Callers that *create* a backend own its close;
callers handed a backend instance call only ``end_run()`` --
:func:`repro.core.parallel.construct_cube_parallel` follows exactly this
rule, which is what lets a warm pool survive across builds.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import RunMetrics
from repro.cluster.runtime import Op, RankEnv, SIMULATED_TIMEOUTS, TimeoutPolicy
from repro.obs.live import LiveRunView

if TYPE_CHECKING:
    from repro.exec.shm import OutputArena, OutputLayout

#: A rank program: called once per rank with its env, returns the generator
#: the backend drives.
ProgramFactory = Callable[[RankEnv], Generator[Op, Any, Any]]


class Backend(abc.ABC):
    """One way of executing SPMD rank programs.

    Subclasses implement :meth:`spawn_ranks` (and usually override
    :attr:`timeouts`); every backend interprets the same op vocabulary,
    which is what keeps programs backend-portable.

    Robustness options are **capability-declared**, not policy-hard-coded:
    a backend states which :class:`~repro.cluster.faults.FaultPlan` kinds
    it can honor (:attr:`fault_capabilities`, a subset of
    :data:`~repro.cluster.faults.ALL_FAULT_KINDS`) and whether per-rank
    machine models mean anything on it (:attr:`supports_machines`).
    :func:`check_backend_options` turns those declarations into the
    construction-time ``ValueError`` that ``BuildConfig`` and
    ``spawn_ranks`` both raise, so a new backend only declares what it
    supports instead of every caller special-casing names.
    """

    #: Name in :func:`~repro.exec.registry.get_backend`'s table; subclasses
    #: override.
    name: str = "abstract"

    #: One-line summary shown by ``repro-cube backends list``.
    description: str = ""

    #: Whether per-rank machine cost models (``machines=``) are meaningful
    #: on this backend.  Only cost-model-driven backends can honor them.
    supports_machines: bool = False

    #: :class:`~repro.cluster.faults.FaultPlan` kinds this backend can
    #: inject (subset of :data:`~repro.cluster.faults.ALL_FAULT_KINDS`).
    #: Empty by default: a backend must opt in to each fault kind.
    fault_capabilities: frozenset[str] = frozenset()

    #: The running build's output arena, set by :meth:`prepare_outputs`.
    _out_arena: OutputArena | None = None

    #: Whether :meth:`open` warms a persistent worker pool that
    #: :meth:`spawn_ranks` reuses across runs.  Backends without pooling
    #: still honor the ``open()``/``close()`` lifecycle (both no-ops).
    supports_pooling: bool = False

    def unsupported_fault_kinds(self, plan: FaultPlan) -> tuple[str, ...]:
        """Fault kinds ``plan`` uses that this backend cannot honor."""
        return tuple(sorted(plan.kinds() - self.fault_capabilities))

    # -- executor ------------------------------------------------------------

    @property
    def timeouts(self) -> TimeoutPolicy:
        """Timeout source rank programs should shape their windows with."""
        return SIMULATED_TIMEOUTS

    def prepare_outputs(self, layout: OutputLayout) -> OutputArena | None:
        """Stage an arena for cube writeback, or ``None``.

        ``layout`` describes the written nodes of one construction
        (:class:`~repro.exec.shm.OutputLayout`).  A real backend returns
        an :class:`~repro.exec.shm.OutputArena` over a buffer all its
        ranks can write -- a mapping shared across the fork for workers in
        *another address space*, a private mapping for threads -- so rank
        programs write finalized aggregates straight into the assembled
        arrays instead of returning them through result queues.  The
        default -- correct for the simulator, whose results are already
        in-process -- is ``None`` (no staging).  Resources claimed by
        this hook are released by :meth:`end_run`.
        """
        return None

    @abc.abstractmethod
    def spawn_ranks(
        self,
        num_ranks: int,
        program_factory: ProgramFactory,
        *,
        machine: MachineModel | None = None,
        record_trace: bool = False,
        machines: Sequence[MachineModel] | None = None,
        faults: FaultPlan | None = None,
        live: LiveRunView | None = None,
    ) -> RunMetrics:
        """Run ``program_factory`` on ``num_ranks`` ranks to completion.

        Returns :class:`~repro.cluster.metrics.RunMetrics` with
        ``metrics.backend`` set to this backend's name.  Backends that
        cannot honor an option (e.g. fault injection outside the simulator)
        must raise ``ValueError`` rather than silently ignore it.

        ``live``, when given, is a :class:`~repro.obs.live.LiveRunView`
        the backend feeds with periodic per-rank snapshots while the run
        is in flight (the snapshot bus).  Best-effort: backends without a
        wall clock (the simulator) accept it and publish nothing.
        """

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> "Backend":
        """Acquire long-lived resources; idempotent, returns ``self``.

        On pooling backends (:attr:`supports_pooling`) this warms the
        persistent worker pool so subsequent :meth:`spawn_ranks` calls
        reuse live workers instead of paying spawn cost per run.  The
        default is a no-op so every backend honors the same lifecycle.
        """
        return self

    def end_run(self) -> None:
        """Release the resources of one run: stop staging into its output
        arena.

        Nothing is unlinked -- the arena's mapping belongs to whoever holds
        the result arrays.  Keeps long-lived resources (worker pools) warm;
        called by :func:`repro.core.parallel.construct_cube_parallel` after
        every build regardless of who owns the backend.
        """
        if self._out_arena is not None:
            self._out_arena.close()
            self._out_arena = None

    def close(self) -> None:
        """Full shutdown: per-run resources *and* persistent pools.

        Idempotent.  The default releases per-run resources via
        :meth:`end_run`; pooling backends additionally tear down their
        workers.
        """
        self.end_run()

    def __enter__(self) -> "Backend":
        return self.open()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<{type(self).__name__} name={self.name!r}>"


def check_backend_options(
    backend: Backend,
    faults: FaultPlan | None = None,
    machines: Sequence[MachineModel] | None = None,
) -> None:
    """Raise ``ValueError`` for options ``backend`` declares it cannot honor.

    The single enforcement point behind both ``BuildConfig`` validation and
    ``spawn_ranks`` guard rails.  Error messages name the exact unsupported
    fault kinds and keep the historical ``simulator-only`` phrasing.
    """
    if faults is not None:
        missing = backend.unsupported_fault_kinds(faults)
        if missing:
            supported = ", ".join(sorted(backend.fault_capabilities)) or "none"
            raise ValueError(
                f"fault kind(s) {', '.join(missing)} are simulator-only; "
                f"backend {backend.name!r} supports: {supported}. "
                f"Use backend='sim', or restrict the plan to supported kinds "
                f"(e.g. kill:RANK@OP instead of crash:RANK@TIME)"
            )
    if machines is not None and not backend.supports_machines:
        raise ValueError(
            f"per-rank machine models are simulator-only; backend "
            f"{backend.name!r} cannot honor machines"
        )
