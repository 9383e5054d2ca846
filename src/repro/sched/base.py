"""The :class:`Scheduler` protocol: who decides *what moves where, when*.

A scheduler owns the planning half of a parallel cube construction --
cuboid ordering, reduction-lead routing, and the communication schedule --
while the execution backend (:mod:`repro.exec`) owns the other half: how
ranks actually exchange bytes.  The split means any scheduler runs on any
backend unchanged: a scheduler emits an ordinary generator rank-program
over the portable op vocabulary (``send`` / ``recv`` / ``compute`` /
``disk_read`` / ``disk_write``), and both the deterministic simulator and
the real-process backend interpret it.

Each scheduler also *declares* its analytical invariants -- a closed-form
(or exactly computed) communication volume and a per-rank memory bound --
so :func:`repro.analysis.verify_plan.verify_plan` can check the program
against the scheduler's own claims, the same way the Fig 5 schedule is
checked against the paper's Theorem 3 and Theorem 4.  The program is
written once: the verifier and the model checker *record* the generator
(:meth:`Scheduler.symbolic_ops`), so a scheduler never describes its own
communication a second time.

Concrete schedulers are looked up by name (:mod:`repro.sched.registry`):

``fig5``
    The paper's Fig 5 SPMD schedule (communication and memory optimal).
``shuffle``
    MapReduce-style batch-shuffle materialization (arXiv:1709.10072).
``marginals-<k>`` / ``marginals-<k>-shuffle``
    Only the order-``k`` group-bys (arXiv:1509.08855), planned with either
    base strategy.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_multi
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.runtime import Op, RankEnv
from repro.cluster.topology import ProcessorGrid
from repro.core.lattice import Node

if TYPE_CHECKING:
    from repro.analysis.model.ops import ModelProgram
    from repro.arrays.persist import CheckpointStore
    from repro.core.plan import CubePlan
    from repro.exec.shm import OutputArena

#: A rank program factory: called once per run, returns the generator each
#: rank executes.  The factory closes over the per-rank input blocks.
ProgramFactory = Callable[[RankEnv], Generator[Op, Any, dict[Node, DenseArray]]]


def make_combiner(measure: Measure) -> Callable[[DenseArray, DenseArray], DenseArray]:
    """The in-place ``combine(acc, other)`` the reduction collectives take."""

    def combine(acc: DenseArray, other: DenseArray) -> DenseArray:
        measure.combine(acc.data, other.data)
        return acc

    return combine


def scan_block(
    block: SparseArray | DenseArray,
    targets: Sequence[Node],
    measure: Measure,
) -> tuple[list[DenseArray], int, bool]:
    """One scan of a rank's input block emitting every target's partial.

    Returns ``(outs, element_ops, sparse)`` -- ``outs`` aligned with
    ``targets``, plus the compute charge to yield for the scan.  This is
    the kernel that is ~98 % of a build's work: Fig 5's first level (plain,
    checkpointed, and a buddy's re-aggregation of a dead rank's block) and
    the shuffle scheduler's map pass.
    """
    if isinstance(block, SparseArray):
        outs = aggregate_sparse_multi(
            block, tuple(range(len(block.shape))), targets, measure=measure
        )
        return outs, block.nnz * len(targets), True
    outs = [aggregate_dense(block, t, measure=measure) for t in targets]
    return outs, block.size * len(targets), False


class Scheduler(abc.ABC):
    """Strategy object that plans one parallel cube construction.

    Subclasses set :attr:`name`, :attr:`description` and :attr:`options`,
    implement :meth:`rank_program`, :meth:`declared_volume` and
    :meth:`declared_memory_bound`, and may override :meth:`validate_options` /
    :meth:`validate_shape` to reject option combinations their program
    cannot honor -- at configuration time, before any work starts.
    """

    #: Family name (``"fig5"``, ``"shuffle"``, ``"marginals"``).
    name: str = "abstract"

    #: One-line summary shown by ``repro-cube sched list``.
    description: str = ""

    #: The optional build options this scheduler's program honors, named
    #: in :meth:`validate_options`' errors.
    options: tuple[str, ...] = ()

    @property
    def spec(self) -> str:
        """The full spec, including parameters (``"marginals-2"``).

        ``get_scheduler(s.spec)`` reconstructs an equivalent scheduler.
        """
        return self.name

    # -- planning -----------------------------------------------------------

    def plan(self, shape: Sequence[int], num_processors: int = 1) -> "CubePlan":
        """Pick ordering + partition for ``shape`` under this scheduler.

        Delegates to :func:`repro.core.plan.plan_cube`; the returned plan
        carries this scheduler's spec so ``plan.run_parallel`` uses it.
        """
        from repro.core.plan import plan_cube

        return plan_cube(shape, num_processors, scheduler=self)

    def validate_shape(self, shape: Sequence[int]) -> None:
        """Reject shapes this scheduler cannot plan (default: none)."""

    def target_nodes(self, n: int) -> tuple[Node, ...] | None:
        """The group-bys this scheduler materializes, in program order.

        ``None`` means the full cube (every proper subset of the ``n``
        dimensions); a tuple restricts materialization (marginals).
        """
        return None

    # -- execution ----------------------------------------------------------

    @abc.abstractmethod
    def rank_program(
        self,
        shape: tuple[int, ...],
        bits: tuple[int, ...],
        grid: ProcessorGrid,
        local_inputs: Sequence[SparseArray | DenseArray],
        *,
        reduction: str = "flat",
        measure: Measure = SUM,
        max_message_elements: int | None = None,
        outputs: OutputArena | None = None,
    ) -> ProgramFactory:
        """Build the backend-portable rank program for one construction.

        ``outputs`` is the run's output arena (``None`` on the simulator).
        A program may stage finalized portions into it or return them
        in-band and leave the staging to the backend.
        """

    def rank_program_ft(
        self,
        shape: tuple[int, ...],
        bits: tuple[int, ...],
        grid: ProcessorGrid,
        local_inputs: Sequence[SparseArray | DenseArray],
        *,
        measure: Measure,
        store: CheckpointStore,
        recv_timeout: float | None,
    ) -> ProgramFactory:
        """The fault-tolerant program ``checkpoint=True`` runs (fig5 only)."""
        raise ValueError(
            f"scheduler {self.spec!r} has no fault-tolerant program; "
            f"checkpoint / detection_round apply to 'fig5' only"
        )

    # -- declared invariants ------------------------------------------------

    def symbolic_ops(
        self,
        shape: Sequence[int],
        bits: Sequence[int],
        *,
        detection_round: bool = False,
        kill: tuple[int, int] | None = None,
    ) -> "ModelProgram":
        """Per-rank symbolic instruction streams, recorded from the program.

        Runs :meth:`rank_program` under the clockless recorder
        (:func:`repro.analysis.model.record.record_program`): every send,
        receive, barrier, and alloc/free the real generator performs, per
        rank and in program order.  ``verify_plan`` (one static pass plus
        SPMD006) and the model checker (that pass plus exploration) both
        consume the result, so a scheduler
        that implements :meth:`rank_program` is verified with no further
        code.  ``kill`` crashes one rank at a model-op index;
        ``detection_round`` records :meth:`rank_program_ft` instead
        (barrier, heartbeats with timeout receives, virtual-rank routing;
        with ``kill`` each survivor's stream follows from its own
        perception of the death), which only ``fig5`` has.
        """
        from repro.analysis.model.record import NO_CHECKPOINTS, record_program

        shape_t, bits_t = tuple(shape), tuple(bits)

        def build(
            grid: ProcessorGrid, inputs: list[DenseArray], measure: Measure
        ) -> ProgramFactory:
            if detection_round:
                return self.rank_program_ft(
                    shape_t, bits_t, grid, inputs,
                    measure=measure, store=NO_CHECKPOINTS, recv_timeout=None,
                )
            return self.rank_program(shape_t, bits_t, grid, inputs, measure=measure)

        return record_program(build, shape_t, bits_t, scheduler=self.spec, kill=kill)

    @abc.abstractmethod
    def declared_volume(self, shape: Sequence[int], bits: Sequence[int]) -> int:
        """Exact communication volume (elements) this scheduler claims."""

    @abc.abstractmethod
    def declared_memory_bound(
        self, shape: Sequence[int], bits: Sequence[int]
    ) -> int:
        """Per-rank held-results memory bound (elements) this scheduler claims."""

    # -- option validation --------------------------------------------------

    def validate_options(
        self,
        *,
        reduction: str = "flat",
        checkpoint: bool = False,
        max_message_elements: int | None = None,
    ) -> None:
        """Reject build options this scheduler's program cannot honor.

        The default implementation covers every non-``fig5`` scheduler:
        checkpointed (fault-tolerant) construction and chunked reduction
        messages are features of the Fig 5 program.  Error messages name the exact option, matching the
        :func:`repro.exec.base.check_backend_options` style.
        """
        if checkpoint:
            raise ValueError(
                f"checkpointed construction is a 'fig5'-scheduler feature "
                f"(its program emits the checkpoint/detection/recovery "
                f"rounds); scheduler {self.spec!r} cannot honor "
                f"checkpoint=True. Use scheduler='fig5' or drop checkpoint"
                f"{self._supported_options_suffix()}"
            )
        if max_message_elements is not None:
            raise ValueError(
                f"max_message_elements (chunked reduction messages) is a "
                f"'fig5'-scheduler option; scheduler {self.spec!r} ships "
                f"whole partials. Use scheduler='fig5' or drop "
                f"max_message_elements"
                f"{self._supported_options_suffix()}"
            )
        if reduction not in ("flat", "binomial"):
            raise ValueError(f"unknown reduction {reduction!r}")

    def _supported_options_suffix(self) -> str:
        """``" (scheduler 'x' supports options: ...)"`` from :attr:`options`."""
        listed = ", ".join(self.options) or "none"
        return f" (scheduler {self.spec!r} supports options: {listed})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec!r}>"
